"""Model enumeration, random CS-model generation, and countermodel search.

Enumeration is bounded by a signature: which propositions, evidence atoms,
and non-normally-valuated formulas exist, and how many worlds of each kind.
Within those bounds every assignment is generated, with one representative
per world-renaming class (renamings must respect the normal/non-normal
split, since evaluation is invariant under any such relabeling).

The raw assignments of one shape (so many normal and non-normal worlds)
form one binary index, laid out in blocks: per world slot, a v0 block of
a bit per proposition, a v1 block of a bit per support formula, or an
evidence block of a digit per atom, whose bit u is set when world slot u
is in the atom's evidence set. A window of that index starts at a
multiple of its width, a power of two, so each index bit over it is a
column of semantics.index_bits: below bit log2(width) a binary counter's,
the same in every window, and above it a constant of the start's. So a
window is evaluated bit-sliced, as one Batch, without building a model.
The representatives are the models whose encoding no renaming makes
lexicographically smaller (lex-leader symmetry breaking), and a window's
are a mask too, computed only where they are needed: for the models
enumerate_models yields, and in a search only in windows where some
model falsifies the query. How many there are in a whole shape follows
from its world and cell counts alone (Burnside's lemma, _orbits), so an
exhausted search counts them without computing a mask. Search and
enumeration share one scan (_windows), which takes each shape in windows
of CHUNK models, so a search that stops early evaluates at most the rest
of its hit's window. A SubsetModel is built only for a reported
countermodel and for the models enumerate_models yields.

A soundness sweep uses the same encoding. Its random trial is a shape
drawn by world counts and a uniform raw index of that shape. A batch of
trials of mixed shapes packs by interleaving their indices' bits into one
integer, from which each shape's blocks are cut with one shift and one
AND by its lanes. Blocks of one kind, world slot and digit size hold the
same keys in every shape, so they are gathered across shapes and split
into columns once. A window and a batch of trials write their masks
through one assembler, _assemble, which takes the columns block by block
and fills the lane layout of semantics.Batch. The CS
is forced on the batch's masks: a constant's evidence rows become the
meet of its paired formulas' truth masks until the meets stop changing.
Only a trial with a reported violation, and random_cs_model's answer,
which is a sweep's trial packed alone, becomes a SubsetModel: its raw
model, with the forced evidence read back by semantics.decoded.

Nothing here certifies validity: an exhausted search means only that no
countermodel exists within the stated bounds.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

from .model import ConstantSpec, SubsetModel, model_to_json
from .parse import _printed, print_formula, print_term
from .proof import (_peel_an, app_instance, check_proof, funct_instance, indep_instance,
                    licensed_pairs, norm_instance, pers_instance, up_instance)
from .semantics import (Batch, EvalContext, cs_violations, decoded, false_at_normal, holds,
                        index_bits, pattern, worlds_in)
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
    _valid_index,
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
        # a bool or float bound would pass the comparisons below and then
        # fail, or be read as 0 or 1, deep in the scan
        if type(self.max_worlds) is not int or type(self.max_nonnormal) is not int:
            raise ValueError("the signature's world bounds must be ints")
        if self.max_worlds < 1:
            raise ValueError("at least one world is needed (the normal core is nonempty)")
        if self.max_nonnormal < 0:
            raise ValueError("the number of non-normal worlds cannot be negative")
        if not all(is_atomic(t) for t in self.atoms):
            raise ValueError("signature atoms must be atomic terms")
        if not all(map(_valid_index, self.propositions)):
            raise ValueError("signature propositions must be indices >= 1")
        if not all(isinstance(g, Formula) for g in self.v1_support):
            raise ValueError("the signature's v1 support must be formulas")


def signature_for(f: Formula, max_worlds: int = 2, max_nonnormal: int = 1) -> ModelSignature:
    """Smallest natural signature for refuting f: its propositions, its
    atomic subterms plus the up-terms of whatever it announces, and the
    formulas its evaluation can consult directly."""
    atoms = set(atm(f))
    for g in subformulas(f):
        if isinstance(g, Update):
            atoms.add(Up(g.announcement))
    support = eval_closure(f)
    formulas, terms = _printed((*atoms, *support))  # the sort keys, from one pass
    return ModelSignature(
        propositions=tuple(sorted(prop_indices(f))),
        atoms=tuple(sorted(atoms, key=terms.__getitem__)),
        max_worlds=max_worlds,
        max_nonnormal=max_nonnormal,
        v1_support=tuple(sorted(support, key=formulas.__getitem__)),
    )


@functools.cache
def _world_sets(k: int, m: int) -> tuple:
    """The normal worlds and all the worlds of k normal and m non-normal
    ones, then every set of worlds as world names, indexed by its member
    bits (bit u for world slot u)."""
    normal = tuple("w%d" % (i + 1) for i in range(k))
    worlds = normal + tuple("u%d" % (i + 1) for i in range(m))
    sets = tuple(frozenset(w for u, w in enumerate(worlds) if s >> u & 1)
                 for s in range(1 << k + m))
    return normal, worlds, sets


# the values of a one-bit digit that set its column
_ONE = frozenset((1,))


@functools.cache
def _renaming_pairs(k: int, m: int, props: int, support: int, atoms: int) -> tuple:
    """Per renaming but the identity of k normal and m non-normal worlds,
    the (own, renamed) encoding columns that can differ, over props
    propositions, support v1 formulas and atoms atoms. A column is (lo,
    size, values) as _Shape lays out its blocks, lowest first: evidence,
    then v1, then v0, each in reverse cell order. An evidence column is
    one bit of the set's rank in sorted-tuple order, so its values are
    the member masks whose set's rank has that bit."""
    n = k + m
    by_tuple = sorted(range(1 << n), key=lambda s: [u for u in range(n) if s >> u & 1])
    rank = {s: r for r, s in enumerate(by_tuple)}
    v1 = k * atoms * n  # the lowest bit of the v1 cells
    v0 = v1 + m * support  # and of the v0 cells

    def encoding(perm):
        # the model renamed by perm (slot i to slot perm[i]), most
        # significant column first
        renamed = [rank[sum(1 << perm[u] for u in range(n) if s >> u & 1)]
                   for s in range(1 << n)]
        bits = [frozenset(d for d, r in enumerate(renamed) if r >> j & 1)
                for j in reversed(range(n))]
        old = sorted(range(n), key=perm.__getitem__)  # the slot renamed to each slot
        out = []
        for i in old[:k]:
            out += [(v0 + (k - 1 - i) * props + p, 1, _ONE) for p in reversed(range(props))]
            out += [(((k - 1 - i) * atoms + t) * n, n, values)
                    for t in reversed(range(atoms)) for values in bits]
        for i in old[k:]:
            out += [(v1 + (n - 1 - i) * support + g, 1, _ONE) for g in reversed(range(support))]
        return out

    perms = [pn + po for pn in itertools.permutations(range(k))
             for po in itertools.permutations(range(k, n))]
    mine = encoding(perms[0])
    return tuple(tuple((a, b) for a, b in zip(mine, encoding(p)) if a != b) for p in perms[1:])


@functools.cache
def _orbits(k: int, m: int, props: int, support: int, atoms: int) -> int:
    """The renaming classes of the raw models of k normal and m non-normal
    worlds over props propositions, support v1 formulas and atoms atoms,
    so the number of their canonical models, by Burnside's lemma: the
    mean over renamings of the models each leaves unchanged. A renaming
    fixes a model when every value is constant along its cycles and the
    evidence set at a normal world of a cycle of length L is a union of
    cycles of the renaming's L-th power on all k + m worlds, into which
    each cycle of length c splits gcd(c, L) ways."""
    def cycles(perm):
        lengths = []
        seen = set()
        for i in perm:
            length = 0
            while i not in seen:
                seen.add(i)
                i = perm[i]
                length += 1
            if length:
                lengths.append(length)
        return lengths

    total = 0
    for pn in itertools.permutations(range(k)):
        normal = cycles(pn)
        for po in itertools.permutations(range(m)):
            every = normal + cycles(po)
            total += 1 << (props * len(normal) + support * (len(every) - len(normal))
                           + atoms * sum(math.gcd(c, n) for n in normal for c in every))
    return total // (math.factorial(k) * math.factorial(m))


class _Shape:
    """The raw models with k normal and m non-normal worlds, bit-sliced.

    A raw model is one binary index in itertools.product order over its
    cells: v0 cells (normal world, proposition) first and most
    significant, then v1 cells (non-normal world, support formula), then
    evidence cells (normal world, atom), each an n-bit digit that is the
    evidence set's member bits (bit u for world slot u). So the index is
    laid out in blocks, one per world slot and kind (blocks): a normal
    slot's v0 block holds a bit per proposition and its evidence block
    an n-bit digit per atom, a non-normal slot's v1 block a bit per
    support formula, and where each block starts follows from the world
    and key counts alone. Over a window of indices each bit is a column
    of semantics.index_bits, and a digit's column stacks its member bits'
    columns, so a window of models packs into a Batch without building
    any of them. A sweep's random trial is a raw index too, and _pack
    packs any list of them, gathering the blocks of one kind, slot and
    digit size from every shape; both go through _assemble, block by
    block.

    A model is canonical when its encoding is lexicographically no
    larger than that of any world renaming of it (renamings keep the
    normal/non-normal split). The encoding lists, world by world, the v0
    values and the evidence sets, then the v1 values of the non-normal
    worlds; a set counts by the rank of its sorted tuple of world slots.
    Every digit is a function of one cell, so each renaming's encoding
    is a list of columns too, and the comparison is bit-sliced over the
    window: a v0 or v1 value's column is an index bit's, and a rank
    bit's column a semantics.pattern of its evidence digit.
    """

    def __init__(self, sig: ModelSignature, k: int, m: int):
        self.normal, self.worlds, self.sets = _world_sets(k, m)
        self.k = k
        self.n = n = k + m
        self.sig = sig
        # what the renaming tables and the class count depend on
        self.counts = k, m, len(sig.propositions), len(sig.v1_support), len(sig.atoms)
        props, support, atoms = self.counts[2:]
        # the evidence blocks fill the lowest bits, then the v1 blocks, then
        # the v0 blocks; within each kind the first slot's block is highest
        v1 = k * atoms * n
        v0 = v1 + m * support
        self.bits = v0 + k * props
        self.size = 1 << self.bits
        blocks = ([("v0", i, sig.propositions, 1, v0 + (k - 1 - i) * props) for i in range(k)]
                  + [("v1", i, sig.v1_support, 1, v1 + (n - 1 - i) * support)
                     for i in range(k, n)]
                  + [("ev", i, sig.atoms, n, (k - 1 - i) * atoms * n) for i in range(k)])
        # (kind, slot, keys, size, lo): a block of one digit of size bits
        # per key from bit lo up, the first key's highest
        self.blocks = [block for block in blocks if block[2]]

    def canonical(self, start: int, width: int) -> int:
        """The mask of the window's canonical models: the AND over
        renamings of encoding <= renamed encoding."""
        bits = index_bits(start, width, self.bits)
        cols = {}

        def col(spec):
            got = cols.get(spec)
            if got is None:
                # a one-bit column, a v0 or v1 value, is an index bit
                lo, size, values = spec
                got = bits[lo] if size == 1 else pattern(lo, size, values, start, width)
                cols[spec] = got
            return got

        keep = (1 << width) - 1
        for pairs in _renaming_pairs(*self.counts):
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
        bits = index_bits(start, width, self.bits)
        # member bit u of a digit from bit d is index bit d + u
        blocks = [(kind, i, keys,
                   [bits[d] if size == 1 else sum(bits[d + u] << u * width for u in range(size))
                    for d in range(lo + (len(keys) - 1) * size, lo - 1, -size)])
                  for kind, i, keys, size, lo in self.blocks]
        return _assemble(width, {self: (1 << width) - 1}, blocks)

    def model(self, index: int) -> SubsetModel:
        """The raw model at an index."""
        v0 = {}
        v1 = {}
        evidence = {}
        for kind, i, keys, size, lo in self.blocks:
            w = self.worlds[i]
            lo += len(keys) * size
            if kind == "ev":
                top = (1 << size) - 1
                for t in keys:
                    lo -= size
                    evidence[w, t] = self.sets[index >> lo & top]
            else:
                table = v0 if kind == "v0" else v1
                for x in keys:
                    lo -= 1
                    table[w, x] = index >> lo & 1 == 1
        return SubsetModel(self.worlds, frozenset(self.normal), v0, v1, evidence, "all")


def _windows(sig: ModelSignature):
    """(shape, start, width) per window of each shape, in enumeration
    order: CHUNK models each, or the whole shape when smaller, so each
    start is a multiple of the width and each shape starts at 0. A
    window's canonical mask is shape.canonical(start, width), and a whole
    shape's canonical models number _orbits(*shape.counts)."""
    for n in range(1, sig.max_worlds + 1):
        for nn in range(0, min(sig.max_nonnormal, n - 1) + 1):
            shape = _Shape(sig, n - nn, nn)
            width = min(CHUNK, shape.size)
            for start in range(0, shape.size, width):
                yield shape, start, width


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
    for shape, start, width in _windows(sig):
        for b in _set_bits(shape.canonical(start, width)):
            yield shape.model(start + b)


def random_cs_model(sig: ModelSignature, cs_universe, seed: int) -> SubsetModel:
    """A random model over the signature, with each listed constant's
    evidence forced into its paired formulas' truth sets; RuntimeError if
    the forcing never settles (see _forced). It is the trial seeded with
    seed of any soundness_sweep over the signature that forces the same
    universe: the proofs' necessitation pairs, then
    proof.licensed_pairs(cs, bare formulas)."""
    shape, index = trial = _draw(sig, seed, {})
    return decoded(_forced(_pack([trial]), cs_universe), shape.model(index),
                   {c for c, _ in cs_universe})


def _draw(sig: ModelSignature, seed: int, shapes: dict) -> tuple:
    """The random trial of a seed: (shape, raw index). The world counts
    come first, then a uniform raw index of their shape, which is a fair
    coin per truth value and a uniform set of worlds per evidence cell.
    shapes holds the shapes built so far, by world counts."""
    rng = random.Random(seed)
    n = rng.randint(1, sig.max_worlds)
    nn = rng.randint(0, min(sig.max_nonnormal, n - 1))
    shape = shapes.get((n, nn))
    if shape is None:
        shape = shapes[n, nn] = _Shape(sig, n - nn, nn)
    return shape, rng.getrandbits(shape.bits)


def _pack(trials) -> Batch:
    """Trials, (shape, raw index) pairs of any shapes over one signature,
    packed as one Batch: lane b is trial b.

    Each index becomes a binary row of one width, in which an evidence
    digit is already its set's member bits. The rows are interleaved
    into one string, row b at every width-th character from the end, so
    one int() puts raw bit j of trial b at bit j * width + b.
    A block of lo and count digits of size bits is then one field of
    count * size * width bits there, cut out with one shift and one AND
    by the shape's lanes repeated over the field. A block's keys, and so
    its field's layout, follow from its kind, world slot and digit size,
    so the fields of all shapes that share those are ORed into one, and
    each gathered field is split into its digits' columns once.
    """
    width = len(trials)
    bits = max(shape.bits for shape, _ in trials) or 1  # format writes a digit at least
    form = "0%db" % bits
    flat = bytearray(bits * width)
    own = {}
    for b, (shape, index) in enumerate(trials):
        own[shape] = own.get(shape, 0) | 1 << b
        flat[width - 1 - b::width] = format(index, form).encode()
    raw = int(flat, 2)
    # per digit count, one lane in each of that many fields of width bits
    units = {}
    fields = {}
    for shape, mine in own.items():
        for kind, i, keys, size, lo in shape.blocks:
            digits = len(keys) * size
            unit = units.get(digits)
            if unit is None:
                unit = units[digits] = ((1 << digits * width) - 1) // ((1 << width) - 1)
            field = fields.setdefault((kind, i, size), [keys, 0])
            field[1] |= raw >> lo * width & mine * unit
    blocks = []
    for (kind, i, size), (keys, field) in fields.items():
        span = size * width
        top = (1 << span) - 1
        blocks.append((kind, i, keys,
                       [field >> d & top for d in range((len(keys) - 1) * span, -1, -span)]))
    return _assemble(width, own, blocks)


def _assemble(width: int, own: dict, blocks) -> Batch:
    """The Batch of width lanes in which own maps each shape, over one
    signature, to its lanes (bit b for lane b). blocks holds (kind, slot,
    keys, columns) per block of digits, as in _Shape.blocks, with the
    column of each key. A digit's column is a mask whose bit u * width + b
    is member bit u of lane b's digit: the truth value itself, or whether
    the evidence set holds world slot u. A column sets bits only in the
    lanes of shapes that have its block. Evidence is stored at normal
    slots only, since it is read nowhere else."""
    slots = max(shape.n for shape in own)
    normal = lanes = 0
    v0 = {}
    v1 = {}
    stored = {t: [0] * slots for t in next(iter(own)).sig.atoms}
    for shape, mine in own.items():
        # the shape's lanes in each of its world slots, the first k normal
        spread = 0
        for i in range(shape.n):
            spread |= mine << i * width
        normal |= spread & (1 << shape.k * width) - 1
        lanes |= spread
    for kind, i, keys, columns in blocks:
        if kind == "ev":
            for t, column in zip(keys, columns):
                stored[t][i] |= column
        else:
            table = v0 if kind == "v0" else v1
            for x, column in zip(keys, columns):
                table[x] = table.get(x, 0) | column << i * width
    evidence = {t: tuple(rows) for t, rows in stored.items()}
    return Batch(width, slots, normal, lanes, v0, v1, evidence, lanes)


def _forced(batch: Batch, cs_universe) -> EvalContext:
    """A context over the batch, each listed constant's evidence forced to
    the meet of its paired formulas' truth masks.

    Forcing can shift truth sets that mention the constants being forced,
    so it is repeated until the meets stop changing; interdependent
    universes that oscillate are reported rather than half-applied.
    Evaluation never mixes the models of a batch, so each model reaches
    the fixed point it would reach alone.
    """
    if not all(is_atomic(c) for c, _ in cs_universe):
        raise ValueError("only atomic terms carry forced evidence")
    ctx = EvalContext(batch)
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

# the raw models of a search window, or all of a smaller shape's: the
# most a search evaluates at once and past its first hit. Every mask of a
# window has a bit per model and world slot, so the peak memory of a
# search grows with it (figures in BENCH_search.json and BENCH_windows.json)
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

    Each shape's raw models are evaluated a window of CHUNK models at a
    time, or all at once when fewer, so a search that stops early
    evaluates at most the rest of its hit's window past the hit. A
    window's hits are its canonical models with a normal world where f is
    false and with no normal world where c : A is false for a pair (c, A)
    of the CS universe; its canonical mask is computed only when some
    model of it falsifies f. The first hit in enumeration order is the
    lowest bit, reported at its model's first normal world where f is
    false. The hit is re-verified on a fresh batch of one, f and the CS
    universe both, before being reported.

    models_scanned counts the canonical models up to the hit, CS-models
    or not: each earlier shape's by its world and cell counts (_orbits),
    and those of the hit's shape window by window, including windows
    skipped as holding no falsifying model. Exhausted, it counts every
    shape's. Exhaustion certifies nothing beyond the stated bounds, since
    no completeness theorem backs this logic.
    """
    scanned = 0  # the canonical models of the shapes before this one
    whole = 0  # and of the shape being scanned
    for shape, start, width in _windows(sig):
        if not start:
            scanned += whole
            whole = _orbits(*shape.counts)
        ctx = EvalContext(shape.batch(start, width))
        false = false_at_normal(ctx, f)
        hits = ctx.batch.models_in(false)
        if not hits:
            continue
        canonical = shape.canonical(start, width)
        hits &= canonical
        for c, a in cs_universe:
            if not hits:
                break
            hits &= ~ctx.batch.models_in(false_at_normal(ctx, Justifies(c, a)))
        if not hits:
            continue
        low = hits & -hits
        b = low.bit_length() - 1
        m = shape.model(start + b)
        w = worlds_in(false, m.worlds, width, b)[0]
        one = EvalContext(m)  # independent re-check
        if holds(one, w, f) or cs_violations(one, cs_universe):
            raise RuntimeError("countermodel failed re-verification")
        scanned += sum(shape.canonical(s, width).bit_count() for s in range(0, start, width))
        scanned += (canonical & (low - 1)).bit_count() + 1
        return SearchReport("countermodel", scanned, sig, m, w)
    return SearchReport("exhausted", scanned + whole, sig)


def soundness_sweep(theorems, cs: ConstantSpec, sig: ModelSignature, trials: int, seed: int = 0):
    """Evaluates each theorem's conclusion at every normal world of random
    CS-models; returns (formula, model, world) triples that came out false.

    Entries may be Proof objects or bare formulas. Proofs are re-checked
    first, since sweeping an unproved conclusion as a theorem would test
    nothing; bare formulas are swept as given, which is how a deliberately
    bogus claim gets its refutation. The CS universe forced onto the models
    is the pairs the proofs' necessitation steps rely on, then
    proof.licensed_pairs of the bare formulas, each once: the pairs search
    forces for the same formula, so a bare formula's violation is a
    CS-model that search would count too. A proof's conclusion adds no
    pairs: once checked, it holds wherever its necessitation pairs do, and
    more pairs would only add forcing rounds and risk their oscillation.
    As in search, only licensed pairs are forced, so an explicit pair that
    licenses nothing cannot hide a violation; validate checks every listed
    pair. RuntimeError if the forcing of some batch never settles (see
    _forced), which a bare formula's own pairs can cause under the full
    CS; ValueError for an unproved theorem or a refused truth table.
    """
    necessitated = []
    conclusions = []
    bare = []
    for entry in theorems:
        if isinstance(entry, Formula):
            conclusions.append(entry)
            bare.append(entry)
            continue
        fail = check_proof(entry, cs)
        if fail is not None:
            raise ValueError("unproved theorem %s (%s)" % (print_formula(entry.conclusion), fail))
        conclusions.append(entry.conclusion)
        necessitated += [_peel_an(step.formula) for step in entry.steps if step.rule == "an"]
    # check_proof has just licensed the necessitation pairs
    universe = list(dict.fromkeys(necessitated + licensed_pairs(cs, bare)))
    constants = {c for c, _ in universe}
    shapes = {}
    violations = []
    for start in range(seed, seed + trials, BATCH):
        drawn = [_draw(sig, s, shapes) for s in range(start, min(start + BATCH, seed + trials))]
        ctx = _forced(_pack(drawn), universe)
        # per refuted lane, the conclusions false in it, in their order
        false = {}
        for f in conclusions:
            mask = false_at_normal(ctx, f)
            if mask:
                for b in _set_bits(ctx.batch.models_in(mask)):
                    false.setdefault(b, []).append((f, mask))
        for b in sorted(false):
            shape, index = drawn[b]
            m = decoded(ctx, shape.model(index), constants, b)
            for f, mask in false[b]:
                violations.extend((f, m, w) for w in worlds_in(mask, m.worlds, ctx.batch.width, b))
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
