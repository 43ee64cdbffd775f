"""Model enumeration, random CS-model generation, and countermodel search.

Enumeration is bounded by a signature: which propositions, evidence atoms,
and non-normally-valuated formulas exist, and how many worlds of each kind.
Within those bounds every assignment is generated, with one representative
per world-renaming class (renamings must respect the normal/non-normal
split, since evaluation is invariant under any such relabeling).

The raw assignments of one shape (so many normal and non-normal worlds)
form one binary index, and over a window of that index every cell of the
model is a periodic bit pattern. So a window is evaluated bit-sliced, as
one Batch, without building a model, and the representatives are a mask
too: the models whose encoding no renaming makes lexicographically
smaller (lex-leader symmetry breaking). Search and enumeration share that
one scan; a SubsetModel is built only for a reported countermodel and for
the models enumerate_models yields.

A soundness sweep packs each batch of random trials once and forces the
CS on its masks: a constant's evidence rows become the meet of its paired
formulas' truth masks until the meets stop changing. A SubsetModel is
decoded from the forced batch only for a trial with a reported violation
and for random_cs_model's answer.

Nothing here certifies validity: an exhausted search means only that no
countermodel exists within the stated bounds.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .model import ConstantSpec, SubsetModel, model_to_json
from .parse import print_formula, print_term
from .proof import (_peel_an, app_instance, check_proof, funct_instance, indep_instance,
                    norm_instance, pers_instance, up_instance)
from .semantics import (Batch, EvalContext, cs_violations, decoded, false_at_normal, holds,
                        pattern)
from .syntax import (
    App,
    Constant,
    Formula,
    Implies,
    Justifies,
    Not,
    Prop,
    Term,
    Up,
    Update,
    Variable,
    atm,
    conj,
    disj,
    equiv,
    eval_closure,
    is_atomic,
    prop_indices,
    subformulas,
)


@dataclass(frozen=True)
class ModelSignature:
    propositions: tuple  # proposition indices
    atoms: tuple  # atomic terms carrying stored evidence
    max_worlds: int
    max_nonnormal: int
    v1_support: tuple  # formulas a non-normal world may valuate

    def __post_init__(self):
        if self.max_worlds < 1:
            raise ValueError("at least one world is needed (the normal core is nonempty)")
        if self.max_nonnormal < 0:
            raise ValueError("the number of non-normal worlds cannot be negative")
        if not all(is_atomic(t) for t in self.atoms):
            raise ValueError("signature atoms must be atomic terms")
        if not all(isinstance(p, int) and p >= 1 for p in self.propositions):
            raise ValueError("signature propositions must be indices >= 1")
        if not all(isinstance(g, Formula) for g in self.v1_support):
            raise ValueError("the signature's v1 support must be formulas")


def signature_for(f: Formula, max_worlds: int = 2, max_nonnormal: int = 1) -> ModelSignature:
    """Smallest natural signature for refuting f: its propositions, its
    atomic subterms plus the up-terms of whatever it announces, and the
    formulas its evaluation can consult directly."""
    atoms = set(t for t in atm(f) if is_atomic(t))
    for g in subformulas(f):
        if isinstance(g, Update):
            atoms.add(Up(g.announcement))
    support = eval_closure(f)
    return ModelSignature(
        propositions=tuple(sorted(prop_indices(f))),
        atoms=tuple(sorted(atoms, key=print_term)),
        max_worlds=max_worlds,
        max_nonnormal=max_nonnormal,
        v1_support=tuple(sorted(support, key=print_formula)),
    )


def _world_names(n_normal: int, n_nonnormal: int):
    normal = tuple("w%d" % (i + 1) for i in range(n_normal))
    other = tuple("u%d" % (i + 1) for i in range(n_nonnormal))
    return normal, other


# the values of a one-bit digit that set its column
_ONE = frozenset((1,))


class _Shape:
    """The raw models with k normal and m non-normal worlds, bit-sliced.

    A raw model is one binary index in itertools.product order over its
    cells: v0 cells (normal world, proposition) first and most
    significant, then v1 cells (non-normal world, support formula), then
    evidence cells (normal world, atom), each an n-bit digit that picks
    the evidence set from subsets, all the sets of worlds in
    itertools.combinations order. Over a window of indices each digit is
    a periodic pattern (semantics.pattern), so a window of models packs
    into a Batch without building any of them.

    A model is canonical when its encoding is lexicographically no
    larger than that of any world renaming of it (renamings keep the
    normal/non-normal split). The encoding lists, world by world, the v0
    values and the evidence sets, then the v1 values of the non-normal
    worlds; a set counts by the rank of its sorted tuple of world slots.
    Every digit is a function of one cell, so each renaming's encoding
    is a list of columns too, and the comparison is bit-sliced over the
    window.
    """

    def __init__(self, sig: ModelSignature, k: int, m: int):
        self.normal, other = _world_names(k, m)
        self.worlds = worlds = self.normal + other
        self.k = k
        self.n = n = len(worlds)
        self.sig = sig
        self.subsets = [sum(1 << i for i in c)
                        for r in range(n + 1) for c in itertools.combinations(range(n), r)]
        self.cells = ([("v0", i, p, 1) for i in range(k) for p in sig.propositions]
                      + [("v1", i, g, 1) for i in range(k, n) for g in sig.v1_support]
                      + [("ev", i, t, n) for i in range(k) for t in sig.atoms])
        self.lo = {}  # each cell's lowest bit in the index
        lo = 0
        for kind, i, x, size in reversed(self.cells):
            self.lo[kind, i, x] = lo
            lo += size
        self.size = 1 << lo
        # digits whose set contains world slot u
        self.members = [frozenset(d for d, s in enumerate(self.subsets) if s >> u & 1)
                        for u in range(n)]
        by_tuple = sorted(self.subsets, key=lambda s: [u for u in range(n) if s >> u & 1])
        rank = {s: r for r, s in enumerate(by_tuple)}
        perms = [pn + po for pn in itertools.permutations(range(k))
                 for po in itertools.permutations(range(k, n))]
        mine = self._encoding(perms[0], rank)
        # per renaming, the (own, renamed) column pairs that can differ
        self.pairs = [[(a, b) for a, b in zip(mine, self._encoding(p, rank)) if a != b]
                      for p in perms[1:]]

    def _encoding(self, perm, rank) -> list:
        """The encoding of the model renamed by perm (slot i to slot
        perm[i]), as (lo, size, values) columns, most significant first."""
        n, sig = self.n, self.sig
        old = [0] * n
        for i, j in enumerate(perm):
            old[j] = i
        renamed = [rank[sum(1 << perm[u] for u in range(n) if s >> u & 1)]
                   for s in self.subsets]
        bits = [frozenset(d for d, r in enumerate(renamed) if r >> j & 1)
                for j in reversed(range(n))]
        out = []
        for w in range(self.k):
            out += [(self.lo["v0", old[w], p], 1, _ONE) for p in sig.propositions]
            for t in sig.atoms:
                out += [(self.lo["ev", old[w], t], n, values) for values in bits]
        for w in range(self.k, n):
            out += [(self.lo["v1", old[w], g], 1, _ONE) for g in sig.v1_support]
        return out

    def chunks(self):
        """(start, width) windows covering the raw index: 64 models, then
        doubling up to CHUNK, each start a multiple of its width."""
        start, width = 0, min(64, self.size)
        while start < self.size:
            yield start, width
            start += width
            width = min(start, CHUNK)

    def canonical(self, start: int, width: int) -> int:
        """The mask of the window's canonical models: the AND over
        renamings of encoding <= renamed encoding."""
        cols = {}

        def col(spec):
            got = cols.get(spec)
            if got is None:
                got = cols[spec] = pattern(*spec, start, width)
            return got

        keep = (1 << width) - 1
        for pairs in self.pairs:
            tied = keep
            below = 0
            for a, b in pairs:
                a = col(a)
                b = col(b)
                below |= tied & b & ~a
                tied &= ~(a ^ b)
                if not tied:
                    break
            keep = below | tied
            if not keep:
                break
        return keep

    def batch(self, start: int, width: int) -> Batch:
        """The window's models packed for evaluation, in index order."""
        n = self.n
        lanes = (1 << n * width) - 1
        v0 = {}
        v1 = {}
        for kind, i, x, _ in self.cells:
            if kind != "ev":
                table = v0 if kind == "v0" else v1
                col = pattern(self.lo[kind, i, x], 1, _ONE, start, width) << i * width
                table[x] = table.get(x, 0) | col
        evidence = {}
        for t in self.sig.atoms:
            rows = [lanes] * n
            for i in range(self.k):
                lo = self.lo["ev", i, t]
                rows[i] = 0
                for u in range(n):
                    rows[i] |= pattern(lo, n, self.members[u], start, width) << u * width
            evidence[t] = tuple(rows)
        normal = (1 << self.k * width) - 1  # normal worlds take the first slots
        return Batch(width, n, normal, lanes, v0, v1, evidence, lanes)

    def model(self, index: int) -> SubsetModel:
        """The raw model at an index."""
        v0 = {}
        v1 = {}
        evidence = {}
        for kind, i, x, size in self.cells:
            digit = index >> self.lo[kind, i, x] & (1 << size) - 1
            w = self.worlds[i]
            if kind == "v0":
                v0[w, x] = digit == 1
            elif kind == "v1":
                v1[w, x] = digit == 1
            else:
                s = self.subsets[digit]
                evidence[w, x] = frozenset(u for j, u in enumerate(self.worlds) if s >> j & 1)
        return SubsetModel(self.worlds, frozenset(self.normal), v0, v1, evidence, "all")


def _shapes(sig: ModelSignature):
    for n in range(1, sig.max_worlds + 1):
        for nn in range(0, min(sig.max_nonnormal, n - 1) + 1):
            yield _Shape(sig, n - nn, nn)


def _set_bits(mask: int):
    """The positions of the bits set in mask, lowest first."""
    digits = bin(mask)[:1:-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


def enumerate_models(sig: ModelSignature):
    """Every model over the signature with total assignments, one per
    renaming class, worlds named w1.. (normal) and u1.. (non-normal):
    shape by shape, the canonical models in raw index order."""
    for shape in _shapes(sig):
        for start, width in shape.chunks():
            for b in _set_bits(shape.canonical(start, width)):
                yield shape.model(start + b)


def random_cs_model(sig: ModelSignature, cs_universe, seed: int) -> SubsetModel:
    """A random model over the signature, with each listed constant's
    evidence forced into its paired formulas' truth sets; RuntimeError if
    the forcing never settles (see _forced)."""
    return decoded(_forced(sig, cs_universe, [seed]), {c for c, _ in cs_universe})


def _random_model(sig: ModelSignature, constants, seed: int) -> SubsetModel:
    """A random model over the signature, the given constants' evidence
    being every world until forced. Valid by construction."""
    rng = random.Random(seed)
    n = rng.randint(1, sig.max_worlds)
    nn = rng.randint(0, min(sig.max_nonnormal, n - 1))
    normal, other = _world_names(n - nn, nn)
    worlds = normal + other
    v0 = {(w, p): rng.random() < 0.5 for w in normal for p in sig.propositions}
    v1 = {(w, g): rng.random() < 0.5 for w in other for g in sig.v1_support}
    evidence = {
        (w, t): frozenset(u for u in worlds if rng.random() < 0.5)
        for w in normal
        for t in sig.atoms
    }
    for w in normal:
        for c in constants:
            evidence.setdefault((w, c), frozenset(worlds))
    return SubsetModel(worlds, frozenset(normal), v0, v1, evidence, "all")


def _forced(sig: ModelSignature, cs_universe, seeds) -> EvalContext:
    """The random models of the seeds packed as one batch, each listed
    constant's evidence forced to the meet of its paired formulas' truth
    masks.

    Forcing can shift truth sets that mention the constants being forced,
    so it is repeated until the meets stop changing; interdependent
    universes that oscillate are reported rather than half-applied.
    Evaluation never mixes the models of a batch, so each model reaches
    the fixed point it would reach alone. The batch's models keep their
    drawn constant evidence; the forced evidence is in the rows.
    """
    constants = {c for c, _ in cs_universe}
    if not all(is_atomic(c) for c in constants):
        raise ValueError("only atomic terms carry forced evidence")
    ctx = EvalContext(Batch.pack([_random_model(sig, constants, seed) for seed in seeds]))
    met = {}  # what only an empty universe's meets equal
    for _ in range(len(cs_universe) + 2):
        meets = {}
        for c, a in cs_universe:
            meets[c] = meets.get(c, ctx.batch.lanes) & ctx.truth_mask(a)
        if meets == met:
            return ctx
        met = meets
        slots = ctx.batch.slots
        ctx = EvalContext(ctx.batch.with_evidence({c: (meet,) * slots
                                                   for c, meet in meets.items()}))
    raise RuntimeError(
        "constant evidence kept shifting; the specification universe is "
        "too self-referential to force by fixed point"
    )


# models per evaluation batch of the sweep: a bit of every mask each, so
# memory grows with the batch; 64 keeps the peak of a long sweep flat
BATCH = 64

# the most raw models a search evaluates at once; every mask of a window
# has a bit per model and world slot, so the peak memory of a search
# grows with it (figures in BENCH_search.json)
CHUNK = 1 << 16


@dataclass(frozen=True)
class SearchReport:
    outcome: str  # "countermodel" | "exhausted"
    models_scanned: int
    bounds: ModelSignature
    model: SubsetModel = None
    world: str = None


def find_countermodel(f: Formula, sig: ModelSignature, cs_universe=()) -> SearchReport:
    """First enumerated CS-model with a normal world falsifying f.

    Each shape's raw models are evaluated a window at a time, windows
    growing from 64 models up to CHUNK, so a search that stops early
    evaluates at most about as many raw models again as it passed. A
    window's hits are its canonical models with a normal world where f is
    false and with no normal world where c : A is false for a pair (c, A)
    of the CS universe. The first hit in enumeration order is the lowest
    bit, reported at its model's first normal world where f is false;
    models_scanned counts the canonical models up to it, CS-models or
    not. The hit is re-verified on a fresh batch of one, f and the CS
    universe both, before being reported. Exhaustion certifies nothing
    beyond the stated bounds, since no completeness theorem backs this
    logic.
    """
    scanned = 0
    for shape in _shapes(sig):
        for start, width in shape.chunks():
            canonical = shape.canonical(start, width)
            if not canonical:
                continue
            ctx = EvalContext(shape.batch(start, width))
            false = false_at_normal(ctx, f)
            hits = ctx.batch.models_in(false) & canonical
            for c, a in cs_universe:
                if not hits:
                    break
                hits &= ~ctx.batch.models_in(false_at_normal(ctx, Justifies(c, a)))
            if not hits:
                scanned += canonical.bit_count()
                continue
            low = hits & -hits
            b = low.bit_length() - 1
            m = shape.model(start + b)
            w = next(w for i, w in enumerate(m.worlds) if false >> (i * width + b) & 1)
            one = EvalContext(m)  # independent re-check
            if holds(one, w, f) or cs_violations(one, cs_universe):
                raise RuntimeError("countermodel failed re-verification")
            scanned += (canonical & (low - 1)).bit_count() + 1
            return SearchReport("countermodel", scanned, sig, m, w)
    return SearchReport("exhausted", scanned, sig)


def soundness_sweep(theorems, cs: ConstantSpec, sig: ModelSignature, trials: int, seed: int = 0):
    """Evaluates each theorem's conclusion at every normal world of random
    CS-models; returns (formula, model, world) triples that came out false.

    Entries may be Proof objects or bare formulas. Proofs are re-checked
    first, since sweeping an unproved conclusion as a theorem would test
    nothing; bare formulas are swept as given, which is how a deliberately
    bogus claim gets its refutation. The CS universe forced onto the models
    is the set of pairs the proofs' necessitation steps rely on, plus any
    explicit pairs.
    """
    universe = []
    seen = set()
    conclusions = []
    for entry in theorems:
        if isinstance(entry, Formula):
            conclusions.append(entry)
            continue
        fail = check_proof(entry, cs)
        if fail is not None:
            raise ValueError(
                "unproved theorem %s (%s)" % (print_formula(entry.conclusion), fail))
        conclusions.append(entry.conclusion)
        for step in entry.steps:
            if step.rule == "an":
                pair = _peel_an(step.formula)
                if pair not in seen:
                    seen.add(pair)
                    universe.append(pair)
    if cs.mode == "explicit":
        for pair in cs.pairs:
            if pair not in seen:
                seen.add(pair)
                universe.append(pair)
    constants = {c for c, _ in universe}
    violations = []
    for start in range(seed, seed + trials, BATCH):
        ctx = _forced(sig, universe, range(start, min(start + BATCH, seed + trials)))
        false = [(f, mask) for f in conclusions if (mask := false_at_normal(ctx, f))]
        refuted = 0
        for _, mask in false:
            refuted |= mask
        for b in _set_bits(ctx.batch.models_in(refuted)):
            m = decoded(ctx, constants, b)
            for f, mask in false:
                refuting = ctx.unmask(mask, b)
                violations.extend((f, m, w) for w in m.worlds if w in refuting)
    return violations


# -- random instance generation for sweeps --------------------------------

def _rand_formula(rng, depth: int) -> Formula:
    if depth <= 0 or rng.random() < 0.3:
        return Prop(rng.randint(1, 3))
    kind = rng.choice(("not", "imp", "just", "upd"))
    if kind == "not":
        return Not(_rand_formula(rng, depth - 1))
    if kind == "imp":
        return Implies(_rand_formula(rng, depth - 1), _rand_formula(rng, depth - 1))
    if kind == "just":
        return Justifies(_rand_term(rng, depth - 1), _rand_formula(rng, depth - 1))
    return Update(_rand_formula(rng, depth - 1), _rand_formula(rng, depth - 1))


def _rand_term(rng, depth: int) -> Term:
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.5:
            return Constant(rng.randint(1, 3))
        return Variable(rng.randint(1, 3))
    if rng.random() < 0.5:
        return Up(_rand_formula(rng, depth - 1))
    return App(_rand_term(rng, depth - 1), _rand_formula(rng, depth - 1),
               _rand_term(rng, depth - 1))


def random_axiom_instances(schema: str, count: int, seed: int):
    """Seeded instances of one axiom schema, announcement prefixes included.

    Components are drawn from a fixed per-seed pool so that a sweep's
    evaluations share subformulas (and memo entries). Body slots sometimes
    mention the instance's own announcement, including under negation:
    update schemas earn or lose their keep exactly on such couplings, and
    a fuzzer that never generates them tests nothing. Indep and Pers are
    redrawn until their up-independence proviso holds, so their bodies
    never mention the up-term of their own announcement.
    """
    rng = random.Random(seed)
    pool = [_rand_formula(rng, 2) for _ in range(10)] + [Prop(1), Prop(2)]
    terms = [_rand_term(rng, 2) for _ in range(6)] + [Constant(1)]
    patterns = (
        lambda a, b: Implies(a, a),
        lambda a, b: Implies(a, Implies(b, a)),
        lambda a, b: Implies(conj(a, b), a),
        lambda a, b: Implies(a, disj(a, b)),
        lambda a, b: Implies(Not(Not(a)), a),
        lambda a, b: equiv(conj(a, b), conj(b, a)),
        lambda a, b: Implies(Not(a), Implies(a, b)),
    )

    def coupled_body(c):
        roll = rng.random()
        base = rng.choice(pool)
        if roll < 0.25:
            return Justifies(Up(c), base)
        if roll < 0.5:
            return Not(Justifies(Up(c), base))
        if roll < 0.6:
            return Update(c, base)
        return base

    def with_proviso(build, c):
        for _ in range(50):
            try:
                return build(c, coupled_body(c))
            except ValueError:
                c = rng.choice(pool)
        return build(Prop(1), Prop(2))

    out = []
    while len(out) < count:
        c = rng.choice(pool)
        if schema == "Taut":
            f = rng.choice(patterns)(rng.choice(pool), rng.choice(pool))
        elif schema == "App":
            f = app_instance(rng.choice(terms), rng.choice(terms),
                             rng.choice(pool), rng.choice(pool))
        elif schema == "Indep":
            f = with_proviso(indep_instance, c)
        elif schema == "Funct":
            f = funct_instance(c, coupled_body(c))
        elif schema == "Norm":
            f = norm_instance(c, coupled_body(c), coupled_body(c))
        elif schema == "Up":
            f = up_instance(c)
        elif schema == "Pers":
            f = with_proviso(pers_instance, c)
        else:
            raise ValueError("unknown schema %r" % (schema,))
        for _ in range(rng.randint(0, 2)):
            f = Update(rng.choice(pool), f)
        out.append(f)
    return out


# -- signature and report serialization -----------------------------------

def signature_to_json(sig: ModelSignature) -> dict:
    return {
        "propositions": list(sig.propositions),
        "atoms": [print_term(t) for t in sig.atoms],
        "max_worlds": sig.max_worlds,
        "max_nonnormal": sig.max_nonnormal,
        "v1_support": [print_formula(g) for g in sig.v1_support],
    }


def report_to_json(report: SearchReport) -> dict:
    out = {"outcome": report.outcome, "models_scanned": report.models_scanned}
    if report.outcome == "countermodel":
        out["world"] = report.world
        out["model"] = model_to_json(report.model)
    else:
        out["bounds"] = signature_to_json(report.bounds)
    return out
