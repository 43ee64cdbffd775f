"""Valuation over subset models, with announcement updates, bit-sliced
over a batch of models.

An EvalContext evaluates a batch of models at once; a single model is a
batch of one. A truth value is one integer mask in which each world slot
has a field of one bit per model: with B models, bit i*B + b stands for
slot i of model b, and slot i is the model's i-th world in file order.
Slots run up to the batch's largest world count; a model with fewer
worlds leaves its missing slots out of every set. For a batch of one, bit
i is just the i-th world. The layout is read where a mask meets worlds
or models: worlds_in lists a lane's worlds, evaluate and
evidence_effective take one world's bit or row, truth_mask folds slot
fields in the justification clause and Batch.models_in folds a mask onto
its models. decoded is the one decoder of a lane. A context also
carries a chain of announcements applied left to right. Contexts form a
tree rooted at the plain batch; pushing the same announcement twice gives
contexts that share one memo. Truth values and evidence are memoized
per chain, since the update recursion revisits the same formulas often.

Non-normal worlds read v1 for the whole formula, whatever its shape, so
their bits never depend on the chain: f holds in V1[f] | (normal &
normal_part). Normal worlds follow the recursive clauses, each
connective one integer operation over every world of every model. With
E[t][i] the mask of the worlds that are evidence for t at slot i, t : A
holds at slot i in the models where E[t][i] & ~A is empty; folding that
mask's slot fields onto one another finds them. That is O(slots^2)
integer operations per formula, whatever the batch size. Justification
by an application term s *[A] t is decided by the two component claims
s : (A -> B) and t : A, never by stored evidence.

Evidence for terms: atomic evidence is stored per model, and unlisted
entries follow each model's own evidence_default ("all" meaning that
model's worlds). Pushing announcement C changes the entry for up(C)
only, E[up(C)][i] &= C, with C's truth value taken in the updated
context (the update is well-defined because up(C) cannot occur inside C,
so evaluating C never reads the entry being defined). All other terms,
application terms included, keep the value they had before the push;
application evidence bottoms out at the canonical maximal choice
E[s] & E[t] & wmp in the base models.

Where a value is computed: announcing C changes the entry for up(C) only,
so a formula in which up(C) does not occur keeps its truth value under
[C]; that is Indep, under the proviso jus.proof decides. Its special case
is a formula with no up-term in it at all (the node flag _upfree of
jus.syntax), which has the same truth value under every chain. A pushed
context answers such a formula from the root's memo, computed there once
per batch and stored in both memos, and evaluates [C]B with an up-free B
as B in its own context, without pushing C. So only formulas that read
some up-term are evaluated in a pushed context, and only announcements
whose body reads one are pushed. A pushed context refers to the root; the
root refers to no context.

The memos hold finished values only. Formulas are interned DAGs and no
announcement reads its own up-term, so no query is cyclic, and a query
that fails part-way (a RecursionError on a very deep formula, say)
leaves its context as usable as before.
"""

from __future__ import annotations

from .model import SubsetModel, _require_valid
from .syntax import (
    App,
    Formula,
    Implies,
    Justifies,
    Not,
    Prop,
    Term,
    Up,
    Update,
)


class Batch:
    """Models packed for bit-sliced evaluation.

    With width models, a mask gives each world slot a field of width
    bits: bit i * width + b stands for world slot i of model b. A batch
    is made of masks: the normal worlds, lanes (every world of every
    model), v0 per proposition index, v1 per formula, and per atomic term
    its evidence rows E[t] (row i is the evidence at world slot i). An
    atomic term without rows has the default mask as its evidence at
    every slot. The masks may come from a layout with no SubsetModel
    behind it: the search's windows and the sweep's trials are packed
    from raw indices (jus.explore), and their batches carry no models.
    Batch.pack packs models, as from model files, and only a packed
    batch names worlds: models[b] is model b, whose worlds sit in slot
    order (worlds_in). Evidence is read from the rows
    (evidence_effective), not from models: with_evidence replaces rows
    but keeps the models, stored evidence and all. Neither validates
    anything; EvalContext validates any model handed to it directly, so
    pack only models known to be valid.
    """

    __slots__ = ("width", "slots", "full", "offsets", "normal", "lanes", "v0", "v1",
                 "models", "_evidence", "_default", "_wmp")

    def __init__(self, width, slots, normal, lanes, v0, v1, evidence, default):
        self.width = width
        self.slots = slots
        self.full = (1 << width) - 1
        self.offsets = range(0, slots * width, width)
        self.normal = normal
        self.lanes = lanes
        self.v0 = v0
        self.v1 = v1
        self._evidence = evidence
        self._default = default
        self._wmp = None
        self.models = ()

    @classmethod
    def pack(cls, models) -> "Batch":
        """The batch of the given models, in order: model b is lane b."""
        models = tuple(models)
        if not models:
            raise ValueError("a batch needs at least one model")
        width = len(models)
        slots = max(len(m.worlds) for m in models)
        normal = lanes = default = 0
        v0 = {}
        v1 = {}
        stored = {}
        for b, m in enumerate(models):
            at = {}
            slot = {}
            lane = 0
            bit = 1 << b
            for i, w in enumerate(m.worlds):
                at[w] = bit
                slot[w] = i
                lane |= bit
                bit <<= width
            for w in m.normal:
                normal |= at[w]
            for (w, q), val in m.v0.items():
                if val:
                    v0[q] = v0.get(q, 0) | at[w]
            for (w, f), val in m.v1.items():
                if val:
                    v1[f] = v1.get(f, 0) | at[w]
            for (w, t), members in m.evidence.items():
                row = 0
                for u in members:
                    row |= at[u]
                stored.setdefault(t, []).append((slot[w], lane, row))
            if m.evidence_default == "all":
                default |= lane
            lanes |= lane
        evidence = {}
        for t, entries in stored.items():
            rows = [default] * slots
            for i, lane, row in entries:
                rows[i] = rows[i] & ~lane | row
            evidence[t] = tuple(rows)
        batch = cls(width, slots, normal, lanes, v0, v1, evidence, default)
        batch.models = models
        return batch

    def with_evidence(self, rows: dict) -> "Batch":
        """This batch with the evidence rows of the given atomic terms
        replaced."""
        batch = Batch(self.width, self.slots, self.normal, self.lanes, self.v0, self.v1,
                      {**self._evidence, **rows}, self._default)
        batch.models = self.models
        return batch

    def models_in(self, mask: int) -> int:
        """The models (bit b for model b) with a bit set in some slot."""
        step = self.width
        while step < self.slots * self.width:
            mask |= mask >> step
            step <<= 1
        return mask & self.full

    def atomic_evidence(self, t: Term) -> tuple:
        """E[t][i] for an atomic term: its rows, else the default."""
        rows = self._evidence.get(t)
        return rows if rows is not None else (self._default,) * self.slots

    def wmp(self) -> int:
        """The worlds closed under modus ponens: every world but the
        non-normal ones whose v1 asserts A and A -> B without B. Computed
        on first use, since only application evidence reads it."""
        if self._wmp is None:
            v1 = self.v1
            broken = 0
            for f, mask in v1.items():
                if isinstance(f, Implies) and f.left in v1:
                    broken |= mask & v1[f.left] & ~v1.get(f.right, 0)
            self._wmp = self.lanes & ~broken
        return self._wmp


# the low index-bit columns per window width, kept for widths up to 2^16:
# about 256 KB in all
_COUNTERS = {}
_KEPT = 1 << 16


def index_bits(start: int, width: int, count: int) -> list:
    """The columns of index bits 0 to count - 1 over the window of width
    indices from start: bit b of column j, for b < width, is bit j of the
    index start + b.

    width is a power of two and start a multiple of it, so below bit
    log2(width) the columns are those of a binary counter from 0, the
    same in every window. They come from a per-width table in which each
    column follows from the one above it by one shift and one XOR (the
    "magic masks" of TAOCP 4A, 7.1.3). Every higher column is all ones or
    0, as start's own bit says. A table wider than 2^16 bits, as for a
    truth table of more than 16 atoms, is built for the call and not kept.
    """
    low = _COUNTERS.get(width)
    if low is None:
        half = width >> 1
        column = (1 << width) - (1 << half)  # the top low bit: the upper half
        low = [column] if half else []
        while half > 1:
            half >>= 1
            column ^= column >> half
            low.append(column)
        low.reverse()
        if width <= _KEPT:
            _COUNTERS[width] = low
    full = (1 << width) - 1
    return low[:count] + [full if start >> j & 1 else 0 for j in range(len(low), count)]


def pattern(lo: int, size: int, values, start: int, width: int) -> int:
    """Bit b, for b < width, is set when the digit of size bits at bit lo
    of the index start + b is one of values. It serves digits whose value
    sets are not one bit's (an evidence set's rank bits, say); a single
    index bit is a column of index_bits.

    Over consecutive indices that digit runs through its values in runs
    of 2^lo, so the mask is a periodic pattern, built a run at a time
    and then doubled. width is a power of two and start a multiple of it,
    so a window of 2^lo or fewer indices sees one digit value, and a
    shorter period than width fits into it whole.
    """
    run = 1 << lo
    top = (1 << size) - 1
    first = start >> lo & top
    if run >= width:
        return (1 << width) - 1 if first in values else 0
    runs = min(width >> lo, top + 1)
    ones = (1 << run) - 1
    out = 0
    for q in range(runs):
        if first + q in values:
            out |= ones << (q << lo)
    span = runs << lo
    while span < width:
        out |= out << span
        span <<= 1
    return out


class EvalContext:
    """One node of the update tree over one batch. Do not mutate; push to
    extend.

    base is a SubsetModel, a sequence of them, or a Batch. Models are
    checked against validate_model; a Batch is taken as packed. The
    attribute batch holds the packed layout.
    """

    __slots__ = ("batch", "chain", "_parent", "_root", "_children", "_memo", "_eff")

    def __init__(self, base, _parent: "EvalContext" = None, _c: Formula = None):
        if _parent is None:
            if not isinstance(base, Batch):
                models = (base,) if isinstance(base, SubsetModel) else tuple(base)
                for m in models:
                    _require_valid(m)
                base = Batch.pack(models)
            self.batch = base
            self.chain = ()
            # the root names no root: a context referring to itself would
            # be a reference cycle, kept alive until the cyclic collector ran
            self._root = None
            state = ({}, {}, {})
        else:
            self.batch = _parent.batch
            self.chain = _parent.chain + (_c,)
            self._root = _parent._root or _parent
            # a pushed context's memos live in its parent's _children, so
            # no context refers to its children: without a reference cycle
            # a dropped tree, with its batch of models, is freed at once
            state = _parent._children.get(_c)
            if state is None:
                state = _parent._children[_c] = ({}, {}, {})
        self._parent = _parent
        self._memo, self._eff, self._children = state

    def push(self, c: Formula) -> "EvalContext":
        return EvalContext(self.batch, self, c)

    def truth_mask(self, f: Formula) -> int:
        got = self._memo.get(f)
        if got is not None:
            return got
        root = self._root
        if root is not None and getattr(f, "_upfree", False):
            # no announcement changes it: the root's value, computed once
            got = root._memo.get(f)
            if got is None:
                got = root.truth_mask(f)
            self._memo[f] = got
            return got
        cls = f.__class__
        if cls is Prop:
            got = self.batch.v0.get(f._args[0], 0)
        elif cls is Not:
            got = ~self.truth_mask(f._args[0])
        elif cls is Implies:
            left, right = f._args
            got = ~self.truth_mask(left) | self.truth_mask(right)
        elif cls is Justifies:
            t, body = f._args
            if t.__class__ is App:
                s, a, r = t._args
                got = (self.truth_mask(Justifies(s, Implies(a, body)))
                       & self.truth_mask(Justifies(r, a)))
            else:
                # slot i holds in the models where no evidence escapes the
                # body: fold the escaping bits' slot fields onto the lowest
                outside = ~self.truth_mask(body)
                batch = self.batch
                width = batch.width
                span = batch.slots * width
                full = batch.full
                got = 0
                for row, offset in zip(self.evidence_mask(t), batch.offsets):
                    row &= outside
                    step = width
                    while step < span:
                        row |= row >> step
                        step <<= 1
                    got |= (full & ~row) << offset
        elif cls is Update:
            c, body = f._args
            # an up-free body reads the same under any announcement
            if body._upfree:
                got = self.truth_mask(body)
            else:
                got = self.push(c).truth_mask(body)
        else:
            raise TypeError("expected a formula, got %r" % (f,))
        got = self._memo[f] = self.batch.v1.get(f, 0) | (self.batch.normal & got)
        return got

    def evidence_mask(self, t: Term) -> tuple:
        """E[t] after the whole chain: row i is the mask of the worlds
        that are evidence for t at world slot i (read at normal slots)."""
        got = self._eff.get(t)
        if got is None:
            if self._parent is not None:
                got = self._parent.evidence_mask(t)
                last = self.chain[-1]
                if isinstance(t, Up) and t.body is last:
                    cut = self.truth_mask(last)
                    got = tuple([row & cut for row in got])
            elif isinstance(t, App):
                wm = self.batch.wmp()
                got = tuple([left & right & wm for left, right in
                             zip(self.evidence_mask(t.left), self.evidence_mask(t.right))])
            else:
                got = self.batch.atomic_evidence(t)
            self._eff[t] = got
        return got

    def unmask(self, mask: int, b: int = 0) -> frozenset:
        """The worlds of model b whose bit is set in the mask."""
        return frozenset(worlds_in(mask, self.batch.models[b].worlds, self.batch.width, b))


def worlds_in(mask: int, worlds, width: int, b: int) -> list:
    """The worlds of lane b, in slot order, whose bit is set in a mask of
    a batch of the given width: worlds[i] sits at slot i, bit
    i * width + b."""
    return [w for i, w in enumerate(worlds) if mask >> i * width + b & 1]


def evaluate(ctx: EvalContext, omega: str, f: Formula, b: int = 0) -> int:
    """Truth value in {0, 1} of f at a world of model b under the
    context's chain."""
    worlds = ctx.batch.models[b].worlds
    if omega not in worlds:
        raise ValueError("unknown world %r" % omega)
    return ctx.truth_mask(f) >> worlds.index(omega) * ctx.batch.width + b & 1


def holds(ctx: EvalContext, omega: str, f: Formula, b: int = 0) -> bool:
    return evaluate(ctx, omega, f, b) == 1


def truth_set(ctx: EvalContext, f: Formula, b: int = 0) -> frozenset:
    """The set of worlds of model b (normal and not) where f evaluates to 1."""
    return ctx.unmask(ctx.truth_mask(f), b)


def false_at_normal(ctx: EvalContext, f: Formula) -> int:
    """The mask of the normal worlds where f evaluates to 0."""
    return ctx.batch.normal & ~ctx.truth_mask(f)


def evidence_effective(ctx: EvalContext, omega: str, t: Term, b: int = 0) -> frozenset:
    """Evidence set for any term at a normal world of model b, after the
    whole chain."""
    if omega not in ctx.batch.models[b].normal:
        raise ValueError("world %r is not normal" % omega)
    return ctx.unmask(ctx.evidence_mask(t)[ctx.batch.models[b].worlds.index(omega)], b)


def decoded(ctx: EvalContext, m: SubsetModel, terms, b: int = 0) -> SubsetModel:
    """m with the evidence of the given atomic terms at its normal worlds
    read back from lane b after the whole chain; every other entry is m's
    own. m is lane b's base model, with its worlds in slot order: a
    packed model, or the raw model of a sweep's trial."""
    evidence = dict(m.evidence)
    for t in terms:
        for w, row in zip(m.worlds, ctx.evidence_mask(t)):
            if w in m.normal:
                evidence[w, t] = frozenset(worlds_in(row, m.worlds, ctx.batch.width, b))
    return SubsetModel(m.worlds, m.normal, m.v0, m.v1, evidence, m.evidence_default)


def cs_violations(ctx: EvalContext, universe, b: int = 0) -> list:
    """(world, constant, formula) triples of model b where c : A fails at
    a normal world for a pair (c, A) of the universe, that is where the
    constant's evidence escapes A's truth set, in the given context."""
    worlds = ctx.batch.models[b].worlds
    bad = []
    for c, a in universe:
        false = false_at_normal(ctx, Justifies(c, a))
        bad.extend((w, c, a) for w in worlds_in(false, worlds, ctx.batch.width, b))
    return bad
