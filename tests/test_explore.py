"""Enumeration, random CS-models, countermodel search, soundness sweeps.

The enumeration oracles here are deliberately dumb. One generates every
raw assignment, canonicalizes each by trying all world renamings itself,
and counts distinct classes. The other builds every raw model with
itertools.product and keeps those whose encoding no renaming makes
smaller, one model at a time. The bit-sliced enumerator must agree with
both exactly: the same count, the same models, in the same order.
"""

import itertools
import random

import pytest

from jus import explore
from jus.explore import (
    ModelSignature,
    SearchReport,
    enumerate_models,
    find_countermodel,
    random_axiom_instances,
    random_cs_model,
    report_to_json,
    signature_for,
    signature_to_json,
    soundness_sweep,
)
from jus.model import ConstantSpec, SubsetModel, validate_model
from jus.parse import parse_formula
from jus.proof import Proof, ProofBuilder, ProofStep, match_axiom
from jus.semantics import (Batch, EvalContext, cs_violations, decoded, evaluate, holds,
                           pattern)
from jus.syntax import (
    App,
    Constant,
    Implies,
    Justifies,
    Not,
    Prop,
    Up,
    Update,
    Variable,
    atm,
    falsum,
)

P1, P2 = Prop(1), Prop(2)
PERSIST = parse_formula("x1 : ~ up(P1) : P1 -> [P1] x1 : ~ up(P1) : P1")


def test_signature_validation():
    with pytest.raises(ValueError, match="at least one world"):
        ModelSignature((), (), 0, 0, ())
    with pytest.raises(ValueError, match="atomic"):
        ModelSignature((), (Justifies,), 1, 0, ())
    with pytest.raises(ValueError, match="non-normal"):
        ModelSignature((1,), (), 2, -1, ())
    # random draws and enumerated models are packed unvalidated, so the
    # signature must rule out every invalid model it could describe
    with pytest.raises(ValueError, match="propositions"):
        ModelSignature((0,), (), 1, 0, ())
    with pytest.raises(ValueError, match="formulas"):
        ModelSignature((1,), (), 2, 1, ("P1",))


def test_signature_for_collects_the_needed_pieces():
    sig = signature_for(PERSIST)
    assert sig.propositions == (1,)
    assert Variable(1) in sig.atoms
    assert Up(P1) in sig.atoms  # the announcement's up-term
    assert P1 in sig.v1_support
    assert parse_formula("x1 : ~ up(P1) : P1") in sig.v1_support
    assert sig.max_worlds == 2 and sig.max_nonnormal == 1


def test_enumerate_one_world_one_prop():
    sig = ModelSignature((1,), (), 1, 0, ())
    models = list(enumerate_models(sig))
    assert len(models) == 2
    assert {m.v0[("w1", 1)] for m in models} == {False, True}


def test_enumerate_contains_the_two_world_shape():
    sig = ModelSignature((1,), (Variable(1), Up(P1)), 2, 1, (P1,))
    expected = SubsetModel(
        worlds=("w1", "u1"),
        normal=frozenset({"w1"}),
        v0={("w1", 1): True},
        v1={("u1", P1): False},
        evidence={
            ("w1", Variable(1)): frozenset({"w1"}),
            ("w1", Up(P1)): frozenset({"w1", "u1"}),
        },
        evidence_default="all",
    )
    assert any(m == expected for m in enumerate_models(sig))


def test_enumerate_models_all_validate():
    sig = ModelSignature((1,), (Constant(1),), 2, 1, (P1,))
    count = 0
    for m in enumerate_models(sig):
        count += 1
        assert validate_model(m) == []
        assert m.normal
    assert count > 0


# independent canonicalization: serialize under every renaming, keep the min

def _orbit_key(m, sig):
    normal = sorted(m.normal)
    other = sorted(set(m.worlds) - m.normal)
    keys = []
    for pn in itertools.permutations(normal):
        for po in itertools.permutations(other):
            ren = dict(zip(normal, pn))
            ren.update(zip(other, po))
            order = {w: i for i, w in enumerate(normal + other)}
            rows = []
            for w in normal:
                rows.append(
                    (
                        "n",
                        ren[w],
                        tuple(m.v0[(w, p)] for p in sig.propositions),
                        tuple(
                            tuple(sorted(order[ren[u]] for u in m.evidence[(w, t)]))
                            for t in sig.atoms
                        ),
                    )
                )
            for w in other:
                rows.append(("o", ren[w], tuple(m.v1[(w, g)] for g in sig.v1_support)))
            rows.sort()
            keys.append(tuple(rows))
    return min(keys)


def _oracle_count(sig):
    total = 0
    for n in range(1, sig.max_worlds + 1):
        for nn in range(0, min(sig.max_nonnormal, n - 1) + 1):
            normal = tuple("w%d" % (i + 1) for i in range(n - nn))
            other = tuple("u%d" % (i + 1) for i in range(nn))
            worlds = normal + other
            subsets = [
                frozenset(c)
                for r in range(len(worlds) + 1)
                for c in itertools.combinations(worlds, r)
            ]
            seen = set()
            v0_cells = [(w, p) for w in normal for p in sig.propositions]
            v1_cells = [(w, g) for w in other for g in sig.v1_support]
            ev_cells = [(w, t) for w in normal for t in sig.atoms]
            for v0_bits in itertools.product((False, True), repeat=len(v0_cells)):
                for v1_bits in itertools.product((False, True), repeat=len(v1_cells)):
                    for ev in itertools.product(subsets, repeat=len(ev_cells)):
                        m = SubsetModel(
                            worlds,
                            frozenset(normal),
                            dict(zip(v0_cells, v0_bits)),
                            dict(zip(v1_cells, v1_bits)),
                            dict(zip(ev_cells, ev)),
                            "all",
                        )
                        seen.add(_orbit_key(m, sig))
            total += len(seen)
    return total


# the generate-and-test enumerator: every raw model in itertools.product
# order, kept when no world renaming gives a smaller encoding

def _world_names(k, m):
    return tuple("w%d" % (i + 1) for i in range(k)), tuple("u%d" % (i + 1) for i in range(m))


def _encode(m, normal, other, sig, renaming):
    """Model data under a world renaming (old name -> new name), as a
    comparable tuple."""
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


def _raw_models(sig, k, m):
    """Every raw model of the shape, in index order."""
    normal, other = _world_names(k, m)
    worlds = normal + other
    subsets = [frozenset(c) for r in range(len(worlds) + 1)
               for c in itertools.combinations(worlds, r)]
    v0_cells = [(w, p) for w in normal for p in sig.propositions]
    v1_cells = [(w, g) for w in other for g in sig.v1_support]
    ev_cells = [(w, t) for w in normal for t in sig.atoms]
    for v0_bits in itertools.product((False, True), repeat=len(v0_cells)):
        for v1_bits in itertools.product((False, True), repeat=len(v1_cells)):
            for ev_choice in itertools.product(subsets, repeat=len(ev_cells)):
                yield SubsetModel(worlds, frozenset(normal), dict(zip(v0_cells, v0_bits)),
                                  dict(zip(v1_cells, v1_bits)),
                                  dict(zip(ev_cells, ev_choice)), "all")


def _raw_shape(sig, k, m):
    """(model, canonical) for every raw model of the shape, in index order."""
    normal, other = _world_names(k, m)
    renamings = [
        {**dict(zip(normal, pn)), **dict(zip(other, po))}
        for pn in itertools.permutations(normal)
        for po in itertools.permutations(other)
    ]
    for model in _raw_models(sig, k, m):
        mine = _encode(model, normal, other, sig, renamings[0])
        yield model, all(mine <= _encode(model, normal, other, sig, r)
                         for r in renamings[1:])


def _oracle_shapes(sig):
    for n in range(1, sig.max_worlds + 1):
        for nn in range(0, min(sig.max_nonnormal, n - 1) + 1):
            yield n - nn, nn


def _oracle_models(sig):
    for k, m in _oracle_shapes(sig):
        yield from (model for model, canonical in _raw_shape(sig, k, m) if canonical)


# every shape up to 3 worlds with up to 2 non-normal ones, and 2 atoms
# at 2 worlds; v1 supports with an implication and its parts
SHAPE_SIGS = [
    ModelSignature((1,), (Variable(1),), 3, 2, (P1,)),
    ModelSignature((1, 2), (), 3, 2, (P1, Implies(P1, P2))),
    ModelSignature((), (Constant(1),), 3, 2, (P1, P2, Implies(P1, P2))),
    ModelSignature((1,), (Variable(1), Up(P1)), 2, 1, (P1, Implies(P1, P1))),
    ModelSignature((1, 2), (Constant(1), Variable(1)), 2, 1, ()),
]


# signatures whose shapes leave a kind of block empty or hold one key in
# it, up to 4 worlds: at 3 and 4 worlds, evidence regions of 3, 6, 9, 4,
# 8, 16 and 32 bits among others, none a multiple of 12
BLOCK_SIGS = [
    ModelSignature((1,), (), 4, 3, (P1, P2)),
    ModelSignature((1, 2), (Constant(1),), 4, 3, ()),
    ModelSignature((2,), (Variable(1),), 3, 2, (P1,)),
    ModelSignature((1,), (Constant(1), Up(P1)), 4, 3, (Implies(P1, P2),)),
    ModelSignature((), (Variable(1),), 4, 2, ()),
]


def test_block_signatures_leave_blocks_empty_and_evidence_untiled():
    shapes = [explore._Shape(sig, k, m) for sig in BLOCK_SIGS for k, m in _oracle_shapes(sig)]
    kinds = [{kind: len(keys) for kind, _, keys, *_ in shape.blocks} for shape in shapes]
    assert any("ev" not in got for got in kinds)
    assert any("v1" not in got and shape.n > shape.k for got, shape in zip(kinds, shapes))
    assert any(got.get("v0") == 1 for got in kinds) and any("v0" not in got for got in kinds)
    untiled = {(shape.n, shape.evidence_bits) for shape in shapes
               if shape.n > 2 and shape.evidence_bits % 12}
    assert {bits for n, bits in untiled if n == 3} >= {3, 6, 9}
    assert {bits for n, bits in untiled if n == 4} >= {4, 8, 16, 32}


@pytest.mark.parametrize("sig", SHAPE_SIGS + BLOCK_SIGS)
def test_shape_models_match_the_oracle_at_every_index(sig):
    # the block decoder against the generate-and-test enumerator, at every
    # raw index of each shape of at most 2^12 models
    for k, m in _oracle_shapes(sig):
        shape = explore._Shape(sig, k, m)
        if shape.size > 1 << 12:
            continue
        assert [shape.model(i) for i in range(shape.size)] == list(_raw_models(sig, k, m))


@pytest.mark.parametrize("sig", SHAPE_SIGS)
def test_enumerate_models_matches_the_oracle_in_order(sig):
    assert list(enumerate_models(sig)) == list(_oracle_models(sig))


def test_pattern_matches_the_index_digits():
    for lo, size in ((0, 1), (3, 1), (0, 3), (2, 2), (5, 3), (9, 2)):
        for values in ((1,), (0, 3), (2, 5, 6), range(1 << size)):
            values = frozenset(values)
            for width in (1, 8, 64, 256):
                for start in (0, width, 3 * width, 1024 - width, 4096):
                    got = pattern(lo, size, values, start, width)
                    want = sum(1 << b for b in range(width)
                               if (start + b) >> lo & ((1 << size) - 1) in values)
                    assert got == want, (lo, size, sorted(values), start, width)


@pytest.mark.parametrize("sig", SHAPE_SIGS[:4] + BLOCK_SIGS)
def test_windows_match_the_oracle_index_by_index(sig):
    # the model, canonicity and truth values at each index of a window,
    # against the generate-and-test enumerator and a batch of one; the
    # windows straddle the chunk sequence's boundaries. Shapes of more
    # than 2^12 models, none of SHAPE_SIGS', are left to the cheaper
    # oracle of test_packed_trials_match_packed_models
    formulas = [P1, Justifies(Variable(1), P1), Justifies(Constant(1), Implies(P1, P2)),
                parse_formula("[P1] up(P1) : P1"), parse_formula("up(P1) : ~ x1 : P1"),
                parse_formula("((x1 *[P1] c1) : P2 -> x1 : (P1 -> P2))")]
    for k, m in _oracle_shapes(sig):
        shape = explore._Shape(sig, k, m)
        if shape.size > 1 << 12:
            continue
        raw = list(_raw_shape(sig, k, m))
        assert shape.size == len(raw)
        windows = {(0, min(64, shape.size))}
        for width in (1, 32, 64, 128, 256):
            for start in (0, width, shape.size // 2, shape.size - width):
                if 0 <= start <= shape.size - width and start % width == 0:
                    windows.add((start, width))
        for start, width in sorted(windows):
            canonical = shape.canonical(start, width)
            ctx = EvalContext(shape.batch(start, width))
            masks = [ctx.truth_mask(f) for f in formulas]
            for b in range(width):
                model, is_canonical = raw[start + b]
                assert shape.model(start + b) == model
                assert (canonical >> b & 1) == is_canonical
                one = EvalContext(model)
                for f, mask in zip(formulas, masks):
                    for i, w in enumerate(model.worlds):
                        assert (mask >> (i * width + b) & 1) == holds(one, w, f)


# (formula, max worlds, max non-normal, models scanned). The third's hit
# lies past its shape's first window at every width: the one shape before
# its own holds 128 raw models, so over 164,000 of the canonical models it
# counts lie in its own shape ahead of the hit. The fourth hits
# in a shape with a non-normal world; the second exhausts.
CHUNK_QUERIES = [
    (PERSIST, 3, 2, 4),
    (parse_formula("(up(P1) : P2 -> [P1] up(P1) : P2)"), 3, 2, 39920),
    (parse_formula("([x3 : P1] [P2] P2 -> (P3 -> c1 : P2))"), 2, 1, 164161),
    (parse_formula("((x3 *[P1] c2) : P3 -> c2 : (P3 -> P3))"), 2, 1, 2361),
]


def test_small_chunks_change_nothing(monkeypatch):
    # windows of any width give the same models and the same first hits
    want = [list(enumerate_models(sig)) for sig in SHAPE_SIGS]
    reports = [find_countermodel(f, signature_for(f, worlds, nonnormal))
               for f, worlds, nonnormal, _ in CHUNK_QUERIES]
    assert [r.models_scanned for r in reports] == [scanned for *_, scanned in CHUNK_QUERIES]
    for chunk in (64, 128, explore.CHUNK):
        monkeypatch.setattr(explore, "CHUNK", chunk)
        assert [list(enumerate_models(sig)) for sig in SHAPE_SIGS] == want, chunk
        for (f, worlds, nonnormal, _), r in zip(CHUNK_QUERIES, reports):
            got = find_countermodel(f, signature_for(f, worlds, nonnormal))
            assert ((got.outcome, got.models_scanned, got.model, got.world)
                    == (r.outcome, r.models_scanned, r.model, r.world)), chunk


def _mask_spy(monkeypatch):
    """The (normal, non-normal world counts, start) of every canonical
    mask computed from here on."""
    canonical = explore._Shape.canonical
    calls = []

    def spy(shape, start, width):
        calls.append((shape.k, shape.n - shape.k, start))
        return canonical(shape, start, width)
    monkeypatch.setattr(explore._Shape, "canonical", spy)
    return calls


def test_search_computes_masks_only_in_its_hit_shape(monkeypatch):
    # an exhausted search counts its classes without a mask, and a search
    # with a hit computes masks in its hit's shape alone: where a model
    # falsifies the query, and for the windows before the hit's
    monkeypatch.setattr(explore, "CHUNK", 64)
    calls = _mask_spy(monkeypatch)
    f, worlds, nonnormal, scanned = CHUNK_QUERIES[1]
    report = find_countermodel(f, signature_for(f, worlds, nonnormal))
    assert (report.outcome, report.models_scanned, calls) == ("exhausted", scanned, [])
    f, worlds, nonnormal, scanned = CHUNK_QUERIES[2]
    report = find_countermodel(f, signature_for(f, worlds, nonnormal))
    assert (report.outcome, report.models_scanned) == ("countermodel", scanned)
    shape = len(report.model.normal), len(report.model.worlds) - len(report.model.normal)
    assert calls and {(k, m) for k, m, _ in calls} == {shape}
    # the hit lies past its shape's first window, so every window up to
    # the hit's has its mask, each once
    starts = sorted(start for *_, start in calls)
    assert starts == list(range(0, starts[-1] + 64, 64))


def test_roadmap_targets_scan_their_orbit_counts():
    # the two search targets at library defaults (1 non-normal world)
    for text, worlds, scanned in (("(up(P1) : P2 -> [P1] up(P1) : P2)", 4, 2171136),
                                  ("(x1 : P1 -> [P2] x1 : P1)", 3, 3861296)):
        f = parse_formula(text)
        report = find_countermodel(f, signature_for(f, worlds))
        assert (report.outcome, report.models_scanned) == ("exhausted", scanned), text


def test_signatures_with_the_same_counts_share_renaming_tables(monkeypatch):
    # the renaming tables depend on the world and cell counts alone, so
    # signatures that differ in everything but the counts share each
    # shape's table, and keep the same raw models canonical
    a = ModelSignature((1,), (Variable(1),), 3, 2, (P1,))
    b = ModelSignature((3,), (Up(Implies(P1, P2)),), 3, 2, (Justifies(Constant(1), P2),))
    cached = explore._renaming_pairs
    tables = []
    monkeypatch.setattr(explore, "_renaming_pairs",
                        lambda *counts: tables.append(cached(*counts)) or tables[-1])
    windows = []
    for sig in (a, b):
        windows.append([(shape.k, shape.n, start, width, shape.canonical(start, width))
                        for shape, start, width in explore._windows(sig)])
    assert windows[0] == windows[1]
    half = len(tables) // 2
    assert half == len(windows[0]) > 0
    assert all(x is y for x, y in zip(tables[:half], tables[half:]))


@pytest.mark.parametrize(
    "sig",
    [
        ModelSignature((1,), (), 2, 1, (P1,)),
        ModelSignature((1,), (Variable(1),), 2, 0, ()),
        ModelSignature((1, 2), (), 2, 1, (P1, P2)),
        ModelSignature((), (Constant(1),), 2, 1, (Implies(P1, P1),)),
    ],
)
def test_enumeration_matches_oracle_count(sig):
    got = list(enumerate_models(sig))
    assert len({_orbit_key(m, sig) for m in got}) == len(got)  # no repeats
    assert len(got) == _oracle_count(sig)


def test_random_cs_model_deterministic():
    sig = ModelSignature((1, 2), (Constant(1), Variable(1)), 3, 1, (P1,))
    uni = [(Constant(1), Implies(P1, P1))]
    assert random_cs_model(sig, uni, 7) == random_cs_model(sig, uni, 7)


def test_random_cs_model_guarantee():
    sig = ModelSignature((1, 2), (Constant(1), Constant(2)), 3, 1, (P1, P2))
    uni = [
        (Constant(1), Implies(P1, Implies(P2, P1))),
        (Constant(1), Implies(P1, P1)),
        (Constant(2), P1),
    ]
    for seed in range(25):
        m = random_cs_model(sig, uni, seed)
        assert validate_model(m) == []
        assert cs_violations(EvalContext(m), uni) == []
    with pytest.raises(ValueError, match="atomic"):
        random_cs_model(sig, [(App(Constant(1), P1, Constant(2)), P1)], 0)


def test_random_cs_models_force_like_one_at_a_time():
    # forcing a batch must reach each model's own fixed point
    sig = ModelSignature((1, 2), (Constant(1), Constant(2), Up(P1)), 4, 2, (P1, P2))
    uni = [
        (Constant(1), Implies(P1, Implies(P2, P1))),
        (Constant(2), parse_formula("[P1] up(P1) : P1")),
        (Constant(2), P1),
    ]
    seeds = range(100, 170)
    shapes = {}
    trials = [explore._draw(sig, s, shapes) for s in seeds]
    ctx = explore._forced(explore._pack(trials), uni)
    got = [decoded(ctx, shape.model(index), {c for c, _ in uni}, b)
           for b, (shape, index) in enumerate(trials)]
    assert got == [random_cs_model(sig, uni, s) for s in seeds]


def _seeded_signatures():
    """Signatures of 1 to 4 worlds, with and without constants, up atoms,
    propositions and v1 support."""
    rng = random.Random(12)
    pool = [Constant(1), Constant(2), Variable(1), Up(P1), Up(Implies(P1, P2))]
    support = [P1, P2, Implies(P1, P2), Justifies(Constant(1), P1), Not(P2)]
    sigs = [ModelSignature((1, 2), (Constant(1), Variable(1), Up(P1)), 4, 3,
                           (P1, P2, Implies(P1, P2))),
            ModelSignature((), (), 2, 1, ())]
    for _ in range(10):
        worlds = rng.randint(1, 4)
        sigs.append(ModelSignature(
            tuple(sorted(rng.sample((1, 2, 3), rng.randint(0, 3)))),
            tuple(rng.sample(pool, rng.randint(0, len(pool)))),
            worlds, rng.randint(0, worlds - 1),
            tuple(rng.sample(support, rng.randint(0, len(support))))))
    return sigs


def _assert_read_alike(got, want, atoms):
    """Two batches agree wherever evaluation reads them: every mask, and
    each atomic term's evidence rows at the slots where a model is normal."""
    assert ((got.width, got.slots, got.normal, got.lanes)
            == (want.width, want.slots, want.normal, want.lanes))
    for table, other in ((got.v0, want.v0), (got.v1, want.v1)):
        for x in set(table) | set(other):
            assert table.get(x, 0) == other.get(x, 0), x
    for t in set(atoms) | {Constant(9)}:
        for i, (row, other) in enumerate(zip(got.atomic_evidence(t),
                                             want.atomic_evidence(t))):
            # the models in which slot i is normal, at every slot
            read = got.normal >> i * got.width & got.full
            read = got.lanes & sum(read << offset for offset in got.offsets)
            assert row & read == other & read, (t, i)


def _scan_windows(size):
    """The first, a middle and the last window of a raw index of the
    given size, as the scan lays them out: CHUNK models each, or all of
    them when fewer, each start a multiple of the width."""
    width = min(size, explore.CHUNK)
    return sorted({(0, width), (size // 2 // width * width, width), (size - width, width)})


def test_packed_trials_match_packed_models(monkeypatch):
    # lane b of a packed trial list is the raw model of trial b, as
    # Batch.pack lays it out: mixed shapes, first and last raw indices
    rng = random.Random(3)
    for sig in _seeded_signatures() + BLOCK_SIGS:
        shapes = {}
        for _ in range(12):
            trials = [explore._draw(sig, rng.randrange(1 << 30), shapes)
                      for _ in range(rng.randint(1, 64))]
            for shape in list(shapes.values()):
                trials[rng.randrange(len(trials))] = (shape, 0)
                trials[rng.randrange(len(trials))] = (shape, shape.size - 1)
            want = Batch.pack([shape.model(index) for shape, index in trials])
            _assert_read_alike(explore._pack(trials), want, sig.atoms)
    # and lane b of a window is its raw model start + b; windows of 128
    # models at most keep the reference packing cheap
    monkeypatch.setattr(explore, "CHUNK", 128)
    for sig in _seeded_signatures() + BLOCK_SIGS:
        for k, m in _oracle_shapes(sig):
            shape = explore._Shape(sig, k, m)
            for start, width in _scan_windows(shape.size):
                want = Batch.pack([shape.model(start + b) for b in range(width)])
                _assert_read_alike(shape.batch(start, width), want, sig.atoms)


def test_orbits_count_the_canonical_masks(monkeypatch):
    # a shape's renaming classes are its canonical models, window by
    # window at any width; shapes of up to 2^16 raw models keep the scan
    # cheap, which leaves out only 3- and 4-world shapes of the seeded
    # signatures
    for chunk in (64, explore.CHUNK):
        monkeypatch.setattr(explore, "CHUNK", chunk)
        for sig in SHAPE_SIGS + _seeded_signatures():
            for k, m in _oracle_shapes(sig):
                shape = explore._Shape(sig, k, m)
                if shape.size > 1 << 16:
                    continue
                width = min(chunk, shape.size)
                masks = sum(shape.canonical(start, width).bit_count()
                            for start in range(0, shape.size, width))
                assert masks == explore._orbits(*shape.counts), (sig, k, m, chunk)


def test_orbits_match_the_reference_count(reference):
    # the benchmark's own Burnside count, which shares no code with jus
    for n in range(1, 5):
        for m in range(n):
            for props, support, atoms in itertools.product(range(4), repeat=3):
                assert (explore._orbits(n - m, m, props, support, atoms)
                        == reference.count_shape(props, atoms, support, n - m, m)), \
                    (n - m, m, props, support, atoms)


def test_trials_draw_the_shape_then_a_uniform_index():
    # the world counts come from the same two draws as before raw indices,
    # so a sweep's shapes and its evaluation counts stay comparable
    for sig in (ModelSignature((1, 2), (Constant(1), Up(P1)), 4, 3, (P1, P2)),
                ModelSignature((1,), (Variable(1),), 3, 1, (P1,)),
                ModelSignature((1,), (), 2, 0, ())):
        shapes = {}
        for seed in range(1000):
            shape, index = explore._draw(sig, seed, shapes)
            rng = random.Random(seed)
            n = rng.randint(1, sig.max_worlds)
            nn = rng.randint(0, min(sig.max_nonnormal, n - 1))
            assert (shape.k, shape.n) == (n - nn, n)
            assert index == rng.getrandbits(shape.bits)
        assert len(shapes) == sum(min(sig.max_nonnormal, n - 1) + 1
                                  for n in range(1, sig.max_worlds + 1))


def test_forcing_that_never_settles_raises():
    # c1 : P1 needs c1's evidence inside the worlds where c1 : P1 holds,
    # which shrinks as the evidence does: some draws oscillate
    c1 = Constant(1)
    sig = ModelSignature((1,), (), 2, 1, (P1,))
    uni = [(c1, Justifies(c1, P1))]
    raised = set()
    for seed in range(20):
        try:
            random_cs_model(sig, uni, seed)
        except RuntimeError:
            raised.add(seed)
    assert raised == {0, 1, 2, 3, 4, 7, 9, 10, 11, 14, 16}
    # c1 : P1 is no axiom, so the pair licenses nothing and a sweep drops
    # it rather than forcing it, seed 7's oscillating trial included
    cs = ConstantSpec("explicit", tuple(uni))
    assert (soundness_sweep([P1], cs, sig, 3, seed=5)
            == soundness_sweep([P1], ConstantSpec("empty"), sig, 3, seed=5))


def test_sweep_forces_only_licensed_explicit_pairs():
    # (c1, P1) licenses nothing, as check_proof says, so the sweep forces
    # no model to honour it and refutes c1 : P1 as under the empty CS
    c1, c2 = Constant(1), Constant(2)
    claim = Justifies(c1, P1)
    sig = signature_for(claim, 2, 1)
    empty = soundness_sweep([claim], ConstantSpec("empty"), sig, 200, seed=0)
    assert len(empty) == 103
    cs = ConstantSpec("explicit", ((c1, P1),))
    assert soundness_sweep([claim], cs, sig, 200, seed=0) == empty
    # a licensed pair in the same specification is still forced
    cs = ConstantSpec("explicit", ((c1, P1), (c2, Implies(P1, P1))))
    assert soundness_sweep([Justifies(c2, Implies(P1, P1))], cs, sig, 200, seed=0) == []


def _first_countermodel(f, sig, universe=()):
    """find_countermodel's answer, one model and one context at a time."""
    for scanned, m in enumerate(_oracle_models(sig), 1):
        ctx = EvalContext(m)
        if universe and cs_violations(ctx, universe):
            continue
        for w in m.worlds:
            if w in m.normal and not holds(ctx, w, f):
                return ("countermodel", scanned, m, w)
    return ("exhausted", scanned, None, None)


@pytest.mark.parametrize("text, universe", [
    (PERSIST, ()),
    (parse_formula("(x1 : P1 -> x1 : ~~P1)"), ()),
    (parse_formula("(up(P1) : P2 -> [P1] up(P1) : P2)"), ()),
    (parse_formula("~c1 : (P1 -> P1)"), ((Constant(1), Implies(P1, P1)),)),
    (parse_formula("c1 : (P1 -> P1)"), ((Constant(1), Implies(P1, P1)),)),
    (parse_formula("(c1 : (P1 -> P1) -> c1 : ~~(P1 -> P1))"),
     ((Constant(1), Implies(P1, P1)),)),
])
def test_find_countermodel_matches_a_plain_scan(text, universe):
    sig = signature_for(text)
    report = find_countermodel(text, sig, universe)
    got = (report.outcome, report.models_scanned, report.model, report.world)
    assert got == _first_countermodel(text, sig, universe)


def test_random_cs_model_empty_universe():
    sig = ModelSignature((1,), (Variable(1),), 2, 1, (P1,))
    m = random_cs_model(sig, [], 3)
    assert validate_model(m) == []


def test_find_countermodel_two_world_shape():
    report = find_countermodel(PERSIST, signature_for(PERSIST))
    assert report.outcome == "countermodel"
    assert report.world in report.model.normal
    assert evaluate(EvalContext(report.model), report.world, PERSIST) == 0
    assert report.models_scanned >= 1


def test_find_countermodel_exhausts_on_tautology():
    f = Implies(P1, P1)
    report = find_countermodel(f, signature_for(f))
    assert report.outcome == "exhausted"
    assert report.model is None
    assert report.models_scanned > 0


def test_find_countermodel_exhausts_on_up_axiom():
    f = parse_formula("[P1] up(P1) : P1")
    report = find_countermodel(f, signature_for(f))
    assert report.outcome == "exhausted"


def test_pers_under_the_weaker_proviso_has_no_small_countermodel():
    # up(A) is not in atm(B) here, but A mentions its own up-term, so the
    # checker's proviso refuses this Pers instance; search finds no
    # countermodel among the 9,126,704 models up to 3 worlds
    a = parse_formula("[P2] up(P2) : P2")
    f = Implies(Justifies(Up(a), P1), Update(a, Justifies(Up(a), P1)))
    report = find_countermodel(f, signature_for(f, max_worlds=3, max_nonnormal=2))
    assert (report.outcome, report.models_scanned) == ("exhausted", 9126704)


def test_find_countermodel_respects_cs_universe():
    # without the CS filter, c1 : (P1 -> P1) is refutable; as a CS-model
    # over the pair (c1, P1 -> P1) it is not
    f = Justifies(Constant(1), Implies(P1, P1))
    sig = signature_for(f)
    free = find_countermodel(f, sig)
    assert free.outcome == "countermodel"
    bound = find_countermodel(f, sig, [(Constant(1), Implies(P1, P1))])
    assert bound.outcome == "exhausted"
    assert bound.models_scanned <= free.models_scanned or bound.models_scanned > 0


def test_soundness_sweep_sound_instances_stay_clean():
    sig = ModelSignature((1, 2), (Constant(1), Variable(1), Up(P1)), 3, 1, (P1, P2))
    theorems = random_axiom_instances("Funct", 10, seed=5)
    theorems += random_axiom_instances("Up", 5, seed=6)
    assert soundness_sweep(theorems, ConstantSpec("empty"), sig, 30, seed=1) == []


def test_soundness_sweep_flags_bogus_claim():
    sig = signature_for(parse_formula("up(P1) : P1"))
    bad = parse_formula("up(P1) : P1")
    hits = soundness_sweep([bad], ConstantSpec("empty"), sig, 40, seed=2)
    assert hits
    f, m, w = hits[0]
    assert f is bad
    assert w in m.normal
    assert evaluate(EvalContext(m), w, f) == 0


def test_soundness_sweep_checks_proof_entries():
    b = ProofBuilder()
    b.axiom(parse_formula("[P1] up(P1) : P1"), "Up")
    good = b.proof()
    sig = signature_for(good.conclusion)
    assert soundness_sweep([good], ConstantSpec("empty"), sig, 20, seed=3) == []
    fake = Proof((ProofStep(P1, "axiom"),))
    with pytest.raises(ValueError, match="unproved theorem"):
        soundness_sweep([fake], ConstantSpec("empty"), sig, 1, seed=3)


def test_soundness_sweep_collects_an_universe():
    # the necessitation pair (c1, [P1]up(P1):P1) must be forced onto the
    # random models, or the swept conclusion would have countermodels
    cs = ConstantSpec("explicit", ((Constant(1), parse_formula("[P1] up(P1) : P1")),))
    b = ProofBuilder()
    b.an(parse_formula("c1 : [P1] up(P1) : P1"))
    p = b.proof()
    sig = signature_for(p.conclusion)
    assert soundness_sweep([p], cs, sig, 40, seed=4) == []


def test_soundness_sweep_reports_the_models_random_cs_model_draws():
    # the sweep evaluates packed, forced batches and decodes only the
    # models it reports; each must be its trial's random_cs_model, and
    # the reported worlds those where one model alone says false. The
    # falsum fails in every trial, so no trial of either batch is missed
    pair = (Constant(1), parse_formula("[P1] up(P1) : P1"))
    cs = ConstantSpec("explicit", (pair,))
    bogus = parse_formula("up(P1) : P1")
    claims = [bogus, Justifies(*pair), Implies(P2, Justifies(Constant(1), P1)), falsum()]
    sig = ModelSignature((1, 2), (Constant(1), Up(P1)), 3, 1, (P1, P2))
    seed, trials = 11, 100
    got = soundness_sweep(claims, cs, sig, trials, seed=seed)
    want = []
    for r in range(trials):
        m = random_cs_model(sig, [pair], seed + r)
        ctx = EvalContext(m)
        want += [(f, m, w) for f in claims for w in m.worlds
                 if w in m.normal and not holds(ctx, w, f)]
    assert got == want
    assert {f for f, _, _ in got} == {bogus, claims[2], falsum()}


def test_random_axiom_instances_match_their_schema():
    for schema in ("Taut", "App", "Indep", "Funct", "Norm", "Up", "Pers"):
        for f in random_axiom_instances(schema, 15, seed=9):
            assert any(i.schema == schema for i in match_axiom(f)), schema


def test_random_axiom_instances_couple_announcements():
    # Funct and Norm bodies must sometimes deny the announcement's own
    # up-term: those are the couplings an update schema can get wrong
    def denies_up(body, announcement):
        return (
            isinstance(body, Not)
            and isinstance(body.body, Justifies)
            and body.body.term == Up(announcement)
        )

    def boxed_side(f, schema):
        # [C]X, the left side of the schema's biconditional
        inst = next(i for i in match_axiom(f) if i.schema == schema)
        return inst.body.body.left.left

    funct = 0
    for f in random_axiom_instances("Funct", 40, seed=11):
        x = boxed_side(f, "Funct")  # [C]~A, where ~A or A may deny
        funct += denies_up(x.body, x.announcement) or denies_up(
            x.body.body, x.announcement)
    norm = 0
    for f in random_axiom_instances("Norm", 40, seed=11):
        x = boxed_side(f, "Norm")  # [C](A->B)
        norm += denies_up(x.body.left, x.announcement) or denies_up(
            x.body.right, x.announcement)
    assert funct > 0
    assert norm > 0
    # Pers bodies never mention up(A): its proviso excludes exactly the
    # instances where the announcement could change B
    for f in random_axiom_instances("Pers", 40, seed=11):
        inst = next(i for i in match_axiom(f) if i.schema == "Pers")
        body = inst.body.left.body  # B in up(A):B -> [A]up(A):B
        announcement = inst.body.right.announcement
        assert Up(announcement) not in atm(body)


def test_signature_json_shape():
    sig = signature_for(PERSIST)
    obj = signature_to_json(sig)
    assert obj["propositions"] == [1]
    assert "up(P1)" in obj["atoms"]
    assert obj["max_worlds"] == 2
    assert any("x1" in s for s in obj["v1_support"])


def test_report_json_shapes():
    hit = find_countermodel(PERSIST, signature_for(PERSIST))
    obj = report_to_json(hit)
    assert set(obj) == {"outcome", "models_scanned", "world", "model"}
    assert obj["outcome"] == "countermodel"
    miss = find_countermodel(Implies(P1, P1), signature_for(Implies(P1, P1)))
    obj = report_to_json(miss)
    assert set(obj) == {"outcome", "models_scanned", "bounds"}
    assert obj["bounds"]["max_worlds"] == 2
