"""Model enumeration, random CS-model generation, and countermodel search.

Enumeration is bounded by a signature: which propositions, evidence atoms,
and non-normally-valuated formulas exist, and how many worlds of each kind.
Within those bounds every assignment is generated, with one representative
per world-renaming class (renamings must respect the normal/non-normal
split, since evaluation is invariant under any such relabeling).

Nothing here certifies validity: an exhausted search means only that no
countermodel exists within the stated bounds.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass

from .model import ConstantSpec, SubsetModel
from .parse import print_formula, print_term
from .semantics import Batch, EvalContext, cs_violations, false_at_normal, holds, truth_set
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
        if not all(is_atomic(t) for t in self.atoms):
            raise ValueError("signature atoms must be atomic terms")


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


def _encode(m: SubsetModel, normal, other, sig, renaming) -> tuple:
    """Model data under a world renaming, as a comparable tuple. The
    renaming maps old name -> new name within each class."""
    order = {w: i for i, w in enumerate(normal + other)}
    inv = {new: old for old, new in renaming.items()}

    def row(w):
        old = inv[w]
        if w in normal:
            vals = tuple(m.v0[(old, p)] for p in sig.propositions)
            ev = tuple(
                tuple(sorted(order[renaming[u]] for u in m.evidence[(old, t)]))
                for t in sig.atoms
            )
            return (vals, ev)
        return tuple(m.v1[(old, g)] for g in sig.v1_support)

    return tuple(row(w) for w in normal + other)


def enumerate_models(sig: ModelSignature):
    """Every model over the signature with total assignments, one per
    renaming class, worlds named w1.. (normal) and u1.. (non-normal)."""
    for n in range(1, sig.max_worlds + 1):
        for nn in range(0, min(sig.max_nonnormal, n - 1) + 1):
            yield from _enumerate_shape(sig, n - nn, nn)


def _enumerate_shape(sig: ModelSignature, k: int, m: int):
    normal, other = _world_names(k, m)
    worlds = normal + other
    subsets = [frozenset(c) for r in range(len(worlds) + 1)
               for c in itertools.combinations(worlds, r)]
    v0_cells = [(w, p) for w in normal for p in sig.propositions]
    v1_cells = [(w, g) for w in other for g in sig.v1_support]
    ev_cells = [(w, t) for w in normal for t in sig.atoms]
    renamings = [
        {**dict(zip(normal, pn)), **dict(zip(other, po))}
        for pn in itertools.permutations(normal)
        for po in itertools.permutations(other)
    ]
    for v0_bits in itertools.product((False, True), repeat=len(v0_cells)):
        v0 = dict(zip(v0_cells, v0_bits))
        for v1_bits in itertools.product((False, True), repeat=len(v1_cells)):
            v1 = dict(zip(v1_cells, v1_bits))
            for ev_choice in itertools.product(subsets, repeat=len(ev_cells)):
                model = SubsetModel(
                    worlds=worlds,
                    normal=frozenset(normal),
                    v0=v0,
                    v1=v1,
                    evidence=dict(zip(ev_cells, ev_choice)),
                    evidence_default="all",
                )
                if len(renamings) == 1:
                    yield model
                    continue
                mine = _encode(model, normal, other, sig, renamings[0])
                if all(
                    mine <= _encode(model, normal, other, sig, r)
                    for r in renamings[1:]
                ):
                    yield model


def random_cs_model(sig: ModelSignature, cs_universe, seed: int) -> SubsetModel:
    """A random model over the signature, with each listed constant's
    evidence forced into its paired formulas' truth sets.

    The forcing assignment can shift truth sets that mention the constants
    being forced, so it is repeated until a fixed point; interdependent
    universes that oscillate are reported rather than half-applied.
    """
    return random_cs_models(sig, cs_universe, [seed])[0]


def _random_model(sig: ModelSignature, constants, seed: int) -> SubsetModel:
    """A random model over the signature, the given constants' evidence
    being every world until forced."""
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


def random_cs_models(sig: ModelSignature, cs_universe, seeds) -> list:
    """random_cs_model for each seed, forced as one batch. Evaluation never
    mixes the models of a batch, so each model takes the same forcing
    rounds to the same fixed point as it would alone."""
    constants = {c for c, _ in cs_universe}
    models = [_random_model(sig, constants, seed) for seed in seeds]
    if not cs_universe:
        return models
    pending = list(range(len(models)))
    for _ in range(len(cs_universe) + 2):
        ctx = EvalContext([models[k] for k in pending])
        shifted = []
        for b, k in enumerate(pending):
            m = models[k]
            forced = {}
            for c in constants:
                members = set(m.worlds)
                for d, a in cs_universe:
                    if d is c:
                        members &= truth_set(ctx, a, b)
                forced[c] = frozenset(members)
            new_evidence = dict(m.evidence)
            for w in m.worlds:
                if w in m.normal:
                    for c in constants:
                        new_evidence[(w, c)] = forced[c]
            if new_evidence != m.evidence:
                models[k] = SubsetModel(m.worlds, m.normal, m.v0, m.v1, new_evidence, "all")
                shifted.append(k)
        pending = shifted
        if not pending:
            return models
    raise RuntimeError(
        "constant evidence kept shifting; the specification universe is "
        "too self-referential to force by fixed point"
    )


# models per evaluation batch: a bit of every mask each, so memory grows
# with the batch; 64 keeps the peak of a long search flat
BATCH = 64


@dataclass(frozen=True)
class SearchReport:
    outcome: str  # "countermodel" | "exhausted"
    models_scanned: int
    bounds: ModelSignature
    model: SubsetModel = None
    world: str = None


def _batches(items, size=BATCH):
    """Consecutive lists of items, of size items at first and then twice
    as many each time, up to BATCH."""
    it = iter(items)
    while batch := list(itertools.islice(it, size)):
        yield batch
        size = min(2 * size, BATCH)


def find_countermodel(f: Formula, sig: ModelSignature, cs_universe=()) -> SearchReport:
    """First enumerated CS-model with a normal world falsifying f.

    Enumerated models are evaluated in batches that double from one model
    up to BATCH, so a search that stops early enumerates at most about
    as many models again as it scanned. The first hit in enumeration
    order is the lowest model bit of its batch, at that model's first
    normal world where f is false. The hit is re-verified with a fresh
    batch of one before being reported. Exhaustion certifies nothing
    beyond the stated bounds, since no completeness theorem backs this
    logic.
    """
    scanned = 0
    for batch in _batches(enumerate_models(sig), 1):
        ctx = EvalContext(Batch(batch))  # enumerated models are valid by construction
        false = false_at_normal(ctx, f)
        hits = ctx.batch.models_in(false)
        if cs_universe:
            for b in range(len(batch)):
                if cs_violations(ctx, cs_universe, b):
                    hits &= ~(1 << b)
        if not hits:
            scanned += len(batch)
            continue
        b = (hits & -hits).bit_length() - 1
        m = batch[b]
        refuting = ctx.unmask(false, b)
        w = next(w for w in m.worlds if w in refuting)
        if holds(EvalContext(m), w, f):  # independent re-check
            raise RuntimeError("countermodel failed re-verification")
        return SearchReport("countermodel", scanned + b + 1, sig, m, w)
    return SearchReport("exhausted", scanned, sig)


def soundness_sweep(theorems, cs: ConstantSpec, sig: ModelSignature, trials: int, seed=None):
    """Evaluates each theorem's conclusion at every normal world of random
    CS-models; returns (formula, model, world) triples that came out false.

    Entries may be Proof objects or bare formulas. Proofs are re-checked
    first, since sweeping an unproved conclusion as a theorem would test
    nothing; bare formulas are swept as given, which is how a deliberately
    bogus claim gets its refutation. The CS universe forced onto the models
    is the set of pairs the proofs' necessitation steps rely on, plus any
    explicit pairs.
    """
    from .proof import check_proof

    if seed is None:
        seed = int(os.environ.get("JUS_SEED", "0"))
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
                g = step.formula
                while isinstance(g, Update):
                    g = g.body
                pair = (g.term, g.body)
                if pair not in seen:
                    seen.add(pair)
                    universe.append(pair)
    if cs.mode == "explicit":
        for pair in cs.pairs:
            if pair not in seen:
                seen.add(pair)
                universe.append(pair)
    violations = []
    for seeds in _batches(range(seed, seed + trials)):
        batch = random_cs_models(sig, universe, seeds)
        ctx = EvalContext(batch)
        masks = [(f, false_at_normal(ctx, f)) for f in conclusions]
        false = [(f, mask) for f, mask in masks if mask]
        for b, m in enumerate(batch):
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
    from .proof import (app_instance, funct_instance, indep_instance,
                        norm_instance, pers_instance, up_instance)

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
    from .model import model_to_json

    out = {"outcome": report.outcome, "models_scanned": report.models_scanned}
    if report.outcome == "countermodel":
        out["world"] = report.world
        out["model"] = model_to_json(report.model)
    else:
        out["bounds"] = signature_to_json(report.bounds)
    return out
