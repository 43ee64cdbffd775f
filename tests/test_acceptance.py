"""Acceptance suite: one test per committed behavior, run with -v for a
line-by-line verdict.

Each test states its budget (instances, models, trials, wall-clock) inside
the test itself. Failures are reported with full attribution: which schema,
how many violations, and a concrete witness, so a red line here is a
finding, not a shrug. Nothing in this file weakens a check to stay green;
the expansion axioms are asserted exactly as the checker licenses them,
and any schema the semantics does not actually validate will fail its line
with the evidence attached. Indep and Pers carry the same proviso on
[C]B: up(C) does not occur in B. The instances it excludes are kept as
contrasts that must still fail (criteria 3 and 5), so the proviso is shown
to be needed.
"""

import random
import time
from collections import Counter

from jus.explore import (
    ModelSignature,
    enumerate_models,
    find_countermodel,
    random_axiom_instances,
    random_cs_model,
    signature_for,
    soundness_sweep,
)
from jus.model import ConstantSpec, SubsetModel
from jus.parse import parse_formula, print_formula, print_term
from jus.proof import (
    ProofBuilder,
    check_proof,
    match_axiom,
    prove_box,
    prove_necessitation,
    prove_persistence_fo,
    prove_ramsey,
)
from jus.explore import _rand_formula, _rand_term  # seeded AST fuzzers
from jus.semantics import (
    EvalContext,
    cs_violations,
    evaluate,
    evidence_effective,
    holds,
    truth_set,
)
from jus.syntax import (
    App,
    Constant,
    Formula,
    Implies,
    Justifies,
    Not,
    Prop,
    Up,
    Update,
    Variable,
    atm,
    is_atomic,
    prop_indices,
    subformulas,
)

P1, P2 = Prop(1), Prop(2)
FULL = ConstantSpec("full")
EMPTY = ConstantSpec("empty")


def test_criterion_1_two_world_reproduction(two_world):
    """Exact values on the two-world model: justified disbelief holds, is
    destroyed by announcing its subject, and the announcement pins up(P1)."""
    start = time.perf_counter()
    ctx = EvalContext(two_world)
    assert evaluate(ctx, "w", parse_formula("x1 : ~ up(P1) : P1")) == 1
    assert evaluate(ctx, "w", parse_formula("[P1] x1 : ~ up(P1) : P1")) == 0
    assert evaluate(ctx, "w", parse_formula("[P1] up(P1) : P1")) == 1
    assert evidence_effective(ctx.push(P1), "w", Up(P1)) == frozenset({"w"})
    assert time.perf_counter() - start < 1.0


SCHEMAS = ("Taut", "App", "Indep", "Funct", "Norm", "Up", "Pers")


def _sweep_signature(instances, max_worlds):
    """One signature covering a family of formulas: their propositions, the
    twenty most common atoms and announcement up-terms, and the twenty most
    common justified bodies and announcements as non-normal support."""
    props = set()
    atom_freq = Counter()
    support_freq = Counter()
    for f in instances:
        props |= prop_indices(f)
        for t in atm(f):
            if is_atomic(t):
                atom_freq[t] += 1
        for g in subformulas(f):
            if isinstance(g, Justifies):
                support_freq[g.body] += 1
            elif isinstance(g, Update):
                support_freq[g.announcement] += 1
                atom_freq[Up(g.announcement)] += 1
    atoms = sorted(atom_freq, key=lambda t: (-atom_freq[t], print_term(t)))[:20]
    support = sorted(
        support_freq, key=lambda g: (-support_freq[g], print_formula(g))
    )[:20]
    return ModelSignature(
        propositions=tuple(sorted(props)),
        atoms=tuple(atoms),
        max_worlds=max_worlds,
        max_nonnormal=max_worlds - 1,
        v1_support=tuple(support),
    )


def test_criterion_2_soundness_sweep():
    """200 instances of each schema, swept over 1000 random models with up
    to 4 worlds: every instance must hold at every normal world."""
    start = time.perf_counter()
    per_schema = {s: random_axiom_instances(s, 200, seed=100 + i)
                  for i, s in enumerate(SCHEMAS)}
    everything = [f for fs in per_schema.values() for f in fs]
    sig = _sweep_signature(everything, max_worlds=4)
    counts = {}
    first = {}
    for schema, instances in per_schema.items():
        hits = soundness_sweep(instances, EMPTY, sig, trials=1000, seed=42)
        if hits:
            counts[schema] = len(hits)
            first[schema] = hits[0]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, "sweep took %.1fs" % elapsed
    detail = "; ".join(
        "%s: %d violations, e.g. %s is false at %s of a %d-world model"
        % (s, counts[s], print_formula(first[s][0]), first[s][2],
           len(first[s][1].worlds))
        for s in counts
    )
    assert not counts, detail


def test_criterion_3_axiom_identities_on_enumerated_models():
    """The five update-axiom identities, checked literally on every
    enumerated two-world model over one proposition and two atoms."""
    x1 = Variable(1)
    jx = Justifies(x1, P1)
    jup = Justifies(Up(P1), P1)
    sig = ModelSignature(
        propositions=(1,),
        atoms=(x1, Up(P1)),
        max_worlds=2,
        max_nonnormal=1,
        v1_support=(P1, jup, Not(jup)),
    )
    a_pool = (P1, Not(P1), jx, jup, Not(jup))
    c_pool = (P1, Not(P1), jx)
    counts = Counter()
    first = {}
    # failures of up(C):A -> [C]up(C):A where up(C) occurs in A, which the
    # Pers proviso excludes
    excluded = set()

    def note(schema, model, w, f):
        counts[schema] += 1
        first.setdefault(schema, (model, w, f))

    models = 0
    for m in enumerate_models(sig):
        models += 1
        ctx = EvalContext(m)
        for w in m.worlds:
            if w not in m.normal:
                continue
            for c in c_pool:
                for a in a_pool:
                    lhs = evaluate(ctx, w, Update(c, Not(a)))
                    rhs = 1 - evaluate(ctx, w, Update(c, a))
                    if lhs != rhs:
                        note("Funct", m, w, Update(c, Not(a)))
                    boxed = Update(c, a)
                    proviso = Up(c) not in atm(a)
                    if proviso and evaluate(ctx, w, boxed) != evaluate(ctx, w, a):
                        note("Indep", m, w, boxed)
                    if evaluate(ctx, w, Justifies(Up(c), a)) == 1 and evaluate(
                        ctx, w, Update(c, Justifies(Up(c), a))
                    ) == 0:
                        if proviso:
                            note("Pers", m, w, Justifies(Up(c), a))
                        else:
                            claim = Justifies(Up(c), a)
                            excluded.add(Implies(claim, Update(c, claim)))
                    for b in a_pool:
                        dist = evaluate(ctx, w, Update(c, Implies(a, b)))
                        split = evaluate(
                            ctx, w, Implies(Update(c, a), Update(c, b))
                        )
                        if dist != split:
                            note("Norm", m, w, Update(c, Implies(a, b)))
            for a in a_pool:
                if evaluate(ctx, w, Update(a, Justifies(Up(a), a))) != 1:
                    note("Up", m, w, Update(a, Justifies(Up(a), a)))
    assert models > 100
    detail = "; ".join(
        "%s: %d violations over %d models, e.g. %s at %s"
        % (s, counts[s], models, print_formula(first[s][2]), first[s][1])
        for s in counts
    )
    assert not counts, detail
    # contrast: without the proviso Pers fails, and the checker refuses
    # every failing instance, each of which has up(C) in its B
    assert excluded
    for f in excluded:
        assert match_axiom(f) == [], print_formula(f)


def _qualifying_ramsey_triples(count):
    rng = random.Random(77)
    out = []
    while len(out) < count:
        s = _rand_term(rng, 2)
        c = _rand_formula(rng, 2)
        a = _rand_formula(rng, 2)
        if Up(c) not in atm(Justifies(s, Implies(c, a))):
            out.append((s, c, a))
    return out


def test_criterion_4_ramsey():
    """50 qualifying triples: the constructed proof checks, and the
    biconditional holds at every normal world across the sweep."""
    triples = _qualifying_ramsey_triples(50)
    conclusions = []
    for s, c, a in triples:
        p = prove_ramsey(s, c, a, FULL)
        fail = check_proof(p, FULL)
        assert fail is None, "(%s, %s, %s): %s" % (
            print_term(s), print_formula(c), print_formula(a), fail)
        conclusions.append(p.conclusion)
    sig = _sweep_signature(conclusions, max_worlds=3)
    hits = soundness_sweep(conclusions, EMPTY, sig, trials=150, seed=4)
    assert not hits, "%d violations, e.g. %s at %s" % (
        len(hits), print_formula(hits[0][0]), hits[0][2])


def _justification_free(f):
    return not any(isinstance(g, Justifies) for g in subformulas(f))


def _qualifying_persistence_triples(count):
    rng = random.Random(78)
    out = []
    while len(out) < count:
        t = _rand_term(rng, 2)
        a = _rand_formula(rng, 2)
        c = _rand_formula(rng, 2)
        if not _justification_free(a):
            continue
        annotations_ok = all(
            _justification_free(x.annotation)
            for x in [g for g in [t] if isinstance(g, App)]
        )

        def deep_ok(term):
            if isinstance(term, App):
                return (
                    _justification_free(term.annotation)
                    and deep_ok(term.left)
                    and deep_ok(term.right)
                )
            if isinstance(term, Up) and term.body is c:
                return True
            return Up(c) not in atm(term)

        if annotations_ok and deep_ok(t):
            out.append((t, a, c))
    return out


def test_criterion_5_first_order_persistence():
    """50 justification-free triples: t:A -> [C]t:A is provable, the proof
    checks, and the implication survives the sweep; the higher-order
    counterpart is refuted within two-world bounds as the contrast."""
    triples = _qualifying_persistence_triples(50)
    conclusions = []
    for t, a, c in triples:
        p = prove_persistence_fo(t, a, c, FULL)
        fail = check_proof(p, FULL)
        assert fail is None, "(%s, %s, %s): %s" % (
            print_term(t), print_formula(a), print_formula(c), fail)
        conclusions.append(p.conclusion)
    sig = _sweep_signature(conclusions, max_worlds=3)
    hits = soundness_sweep(conclusions, EMPTY, sig, trials=150, seed=5)
    assert not hits, "%d violations, e.g. %s at %s" % (
        len(hits), print_formula(hits[0][0]), hits[0][2])
    # contrast: with a justification inside the believed formula, the same
    # implication shape has a countermodel
    higher = parse_formula("x1 : ~ up(P1) : P1 -> [P1] x1 : ~ up(P1) : P1")
    report = find_countermodel(higher, signature_for(higher, max_worlds=2))
    assert report.outcome == "countermodel"
    assert len(report.model.worlds) <= 2


def test_criterion_6_application_evidence_bound():
    """On every enumerated two-world model: a justified application claim
    forces the canonical evidence inside the truth set (no exceptions), and
    the converse direction fails somewhere (at least one witness)."""
    x1, c1 = Variable(1), Constant(1)
    jx = Justifies(x1, P1)
    sig = ModelSignature(
        propositions=(1,),
        atoms=(x1, c1),
        max_worlds=2,
        max_nonnormal=1,
        v1_support=(P1, jx),
    )
    terms = [App(x1, P1, c1), App(c1, P1, x1), App(x1, Implies(P1, P1), c1)]
    bodies = [P1, Implies(P1, P1), jx]
    forward_violations = []
    converse_witnesses = 0
    models = 0
    for m in enumerate_models(sig):
        models += 1
        ctx = EvalContext(m)
        for w in m.worlds:
            if w not in m.normal:
                continue
            for t in terms:
                for b in bodies:
                    claimed = evaluate(ctx, w, Justifies(t, b)) == 1
                    contained = evidence_effective(ctx, w, t) <= truth_set(ctx, b)
                    if claimed and not contained:
                        forward_violations.append((m, w, t, b))
                    if contained and not claimed:
                        converse_witnesses += 1
    assert models > 100
    assert not forward_violations, "%d violations, e.g. %s : %s at %s" % (
        len(forward_violations),
        print_term(forward_violations[0][2]),
        print_formula(forward_violations[0][3]),
        forward_violations[0][1],
    )
    assert converse_witnesses > 0


def _fuzz_theorem(rng):
    """A small random proof: axiom instances glued by tautological steps."""
    b = ProofBuilder()
    schema = rng.choice(SCHEMAS)
    inst = random_axiom_instances(schema, 1, seed=rng.randrange(10**6))[0]
    i = b.axiom(inst)
    if rng.random() < 0.5:
        other = random_axiom_instances(
            rng.choice(SCHEMAS), 1, seed=rng.randrange(10**6))[0]
        j = b.axiom(other)
        goal = Not(Implies(b.formula_at(i), Not(b.formula_at(j))))
        b.taut_consequence([i, j], goal)
    else:
        goal = Implies(P2, b.formula_at(i))
        b.taut_consequence([i], goal)
    return b.proof()


def test_criterion_7_transformer_closure():
    """100 fuzzed theorems: boxing and necessitation both emit proofs the
    checker accepts, within half a minute."""
    start = time.perf_counter()
    rng = random.Random(2024)
    for k in range(100):
        p = _fuzz_theorem(rng)
        assert check_proof(p, FULL) is None, "fuzz case %d" % k
        c = _rand_formula(rng, 2)
        boxed = prove_box(p, c, FULL)
        assert check_proof(boxed, FULL) is None, "boxed case %d" % k
        assert boxed.conclusion == Update(c, p.conclusion)
        t, nec = prove_necessitation(p, FULL)
        assert check_proof(nec, FULL) is None, "necessitated case %d" % k
        assert nec.conclusion == Justifies(t, p.conclusion)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, "closure run took %.1fs" % elapsed


def test_criterion_8_parser_round_trip():
    """1000 deep random formulas: printing then parsing is the identity."""
    rng = random.Random(8)
    from jus.parse import print_formula as show, parse_formula as read
    failures = []
    for _ in range(1000):
        f = _rand_formula(rng, 8)
        if read(show(f)) is not f:
            failures.append(show(f))
    assert not failures, "%d round-trip failures, e.g. %s" % (
        len(failures), failures[0])


def test_criterion_9_update_preserves_cs():
    """500 random CS-models, each announced at: the updated context must
    still respect every constant-specification pair."""
    rng = random.Random(9)
    broken = []
    pair_pool = []
    for i, s in enumerate(SCHEMAS):
        pair_pool += random_axiom_instances(s, 6, seed=200 + i)
    sig_cache = {}
    for trial in range(500):
        k = rng.randint(1, 3)
        universe = [
            (Constant(rng.randint(1, 3)), rng.choice(pair_pool)) for _ in range(k)
        ]
        key = tuple(sorted(print_formula(a) for _, a in universe))
        if key not in sig_cache:
            sig_cache[key] = _sweep_signature([a for _, a in universe], max_worlds=3)
        m = random_cs_model(sig_cache[key], universe, seed=trial)
        ctx = EvalContext(m)
        if cs_violations(ctx, universe):
            continue  # the generator's guarantee failed; criterion untested
        announcement = _rand_formula(rng, 3)
        pushed = ctx.push(announcement)
        bad = cs_violations(pushed, universe)
        if bad:
            broken.append((m, announcement, bad[0]))
    assert not broken, (
        "%d of 500 updates broke a CS pair, e.g. announcing %s broke (%s, %s) at %s"
        % (
            len(broken),
            print_formula(broken[0][1]),
            print_term(broken[0][2][1]),
            print_formula(broken[0][2][2]),
            broken[0][2][0],
        )
    )
