"""Axiom matching, proof checking, and the derived-proof constructions.

The cross-check section re-states the seven schemas from scratch (its own
expansion helpers, its own peeling, its own truth tables) and compares the
verdicts with match_axiom on every formula in a bounded universe, and on
seeded instances of every schema together with one-node mutations of them.
The checker itself is trusted nowhere else: every transformer's output goes
back through check_proof here and in the acceptance suite.
"""

import itertools
import random
import time

import pytest

from jus import parse as parse_module
from jus import proof as proof_module
from jus.explore import random_axiom_instances
from jus.model import ConstantSpec
from jus.parse import SourceError, parse_formula, print_formula
from jus.proof import (
    SCHEMAS,
    AxiomInstance,
    CheckFailure,
    Proof,
    ProofBuilder,
    ProofStep,
    app_instance,
    check_proof,
    cs_contains,
    licensed_pairs,
    funct_instance,
    indep_instance,
    match_axiom,
    norm_instance,
    pers_instance,
    proof_from_json,
    proof_to_json,
    prove_aux,
    prove_box,
    prove_necessitation,
    prove_persistence_fo,
    prove_ramsey,
    taut_check,
    up_instance,
)
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
    conj,
    disj,
    equiv,
    length,
    prefix_splits,
)

P1, P2, P3 = Prop(1), Prop(2), Prop(3)
FULL = ConstantSpec("full")
EMPTY = ConstantSpec("empty")


def assert_checks(p, cs=FULL):
    fail = check_proof(p, cs)
    assert fail is None, str(fail)


# -- tautology checking ---------------------------------------------------

def test_taut_check_examples():
    assert taut_check(Implies(P1, P1))
    box = Update(P1, P2)
    assert taut_check(disj(box, Not(box)))  # [P1]P2 is one opaque atom
    assert not taut_check(Justifies(Up(P1), P1))
    deep = P1
    for _ in range(24):  # each level uses the one below twice; deep is P1
        deep = Implies(deep, Not(deep))
    start = time.perf_counter()
    # results kept out of the asserts: a failing one would print deep,
    # whose repr unfolds the whole tree
    valid, falsifiable = taut_check(Implies(deep, P1)), taut_check(deep)
    assert time.perf_counter() - start < 1.0
    assert valid and not falsifiable


def test_taut_check_atom_granularity():
    j = Justifies(Variable(1), P1)
    assert taut_check(Implies(j, j))
    # distinct justification formulas are distinct atoms
    assert not taut_check(Implies(j, Justifies(Variable(2), P1)))


def test_checker_at_depth():
    # built through the library, far past the interpreter's recursion
    # limit: the table, the matcher and the checker walk it all the same
    neg = P1
    for _ in range(5000):
        neg = Not(neg)
    f = Implies(neg, neg)
    assert taut_check(f) and taut_check(Implies(neg, P1)) and not taut_check(neg)
    assert match_axiom(f) == [AxiomInstance("Taut", (), f)]
    for schema in (None, "Taut"):
        assert check_proof(Proof((ProofStep(f, "axiom", schema=schema),)), EMPTY) is None
    fail = check_proof(Proof((ProofStep(neg, "axiom"),)), EMPTY)
    assert (fail.index, fail.reason) == (1, "not an axiom instance")


# -- axiom matching -------------------------------------------------------

def test_match_axiom_up_with_prefix():
    f = parse_formula("[P2][P1] up(P1) : P1")
    hits = match_axiom(f)
    assert any(i.schema == "Up" and i.prefix == (P2,) for i in hits)


def test_match_axiom_indep():
    inner = Justifies(Variable(1), P1)
    hits = match_axiom(equiv(Update(P1, inner), inner))
    assert any(i.schema == "Indep" for i in hits)


def test_match_axiom_indep_side_condition():
    inner = Justifies(Up(P1), P1)
    assert match_axiom(equiv(Update(P1, inner), inner)) == []


def test_match_axiom_pers_side_condition():
    # announcing P1 would earn up(P1) the justification the body denies
    claim = Justifies(Up(P1), Not(Justifies(Up(P1), P1)))
    assert match_axiom(Implies(claim, Update(P1, claim))) == []


def test_match_axiom_builders_round_trip():
    t, s = Constant(1), Variable(1)
    cases = [
        ("App", app_instance(t, s, P1, P2)),
        ("Indep", indep_instance(P1, P2)),
        ("Funct", funct_instance(P1, Justifies(s, P2))),
        ("Norm", norm_instance(P1, P2, P3)),
        ("Up", up_instance(Implies(P1, P2))),
        ("Pers", pers_instance(P1, Not(P2))),
    ]
    for schema, f in cases:
        assert any(i.schema == schema for i in match_axiom(f)), schema
        boxed = Update(P3, f)
        assert any(
            i.schema == schema and i.prefix == (P3,) for i in match_axiom(boxed)
        ), schema


def test_indep_instance_rejects_dependence():
    with pytest.raises(ValueError):
        indep_instance(P1, Justifies(Up(P1), P2))


def test_pers_instance_rejects_dependence():
    with pytest.raises(ValueError):
        pers_instance(P1, Not(Justifies(Up(P1), P1)))


# -- brute-force cross-check ---------------------------------------------
#
# Universe: all formulas over P1, c1, x1 with at most 11 constructor nodes
# and length at most 9 (a node budget is needed because up(C) has length 1
# for every C, so the pure length bound is met by infinitely many formulas).
# 11 nodes is exactly enough for the smallest Pers instance.

def _universe(max_nodes=11, max_len=9):
    terms = {1: [Constant(1), Variable(1)]}
    forms = {1: [P1]}
    for n in range(2, max_nodes + 1):
        ts = [Up(c) for c in forms[n - 1]]
        fs = [Not(g) for g in forms[n - 1]]
        for an in range(1, n - 1):
            bn = n - 1 - an
            for a in forms.get(an, ()):
                for b in forms.get(bn, ()):
                    fs.append(Implies(a, b))
                    fs.append(Update(a, b))
            for t in terms.get(an, ()):
                for b in forms.get(bn, ()):
                    fs.append(Justifies(t, b))
        for an in range(1, n - 2):
            for bn in range(1, n - 1 - an):
                cn = n - 1 - an - bn
                for s in terms.get(an, ()):
                    for a in forms.get(bn, ()):
                        for t in terms.get(cn, ()):
                            ts.append(App(s, a, t))
        terms[n] = ts
        forms[n] = fs
    for bucket in forms.values():
        for f in bucket:
            if length(f) <= max_len:
                yield f


# schema shapes restated with plain constructors, nothing shared with
# the implementation beyond the AST types themselves

def _land(x, y):
    return Not(Implies(x, Not(y)))


def _liff(x, y):
    return Not(Implies(Implies(x, y), Not(Implies(y, x))))


def _brute_atoms_of(x, out):
    if isinstance(x, (Constant, Variable)):
        out.add(x)
    elif isinstance(x, Up):
        out.add(x)
        _brute_atoms_of(x.body, out)
    elif isinstance(x, App):
        _brute_atoms_of(x.left, out)
        _brute_atoms_of(x.annotation, out)
        _brute_atoms_of(x.right, out)
    elif isinstance(x, Not):
        _brute_atoms_of(x.body, out)
    elif isinstance(x, Implies):
        _brute_atoms_of(x.left, out)
        _brute_atoms_of(x.right, out)
    elif isinstance(x, Justifies):
        _brute_atoms_of(x.term, out)
        _brute_atoms_of(x.body, out)
    elif isinstance(x, Update):
        _brute_atoms_of(x.announcement, out)
        _brute_atoms_of(x.body, out)


def _brute_up_independent(f) -> bool:
    # walk formula structure only; term content is not a subformula
    if isinstance(f, Update):
        atoms = set()
        _brute_atoms_of(f.body, atoms)
        if Up(f.announcement) in atoms:
            return False
        return _brute_up_independent(f.announcement) and _brute_up_independent(f.body)
    if isinstance(f, Not):
        return _brute_up_independent(f.body)
    if isinstance(f, Implies):
        return _brute_up_independent(f.left) and _brute_up_independent(f.right)
    if isinstance(f, Justifies):
        return _brute_up_independent(f.body)
    return True


def _brute_taut(f) -> bool:
    atoms = []
    seen = set()

    def walk(g):
        if isinstance(g, Not):
            walk(g.body)
        elif isinstance(g, Implies):
            walk(g.left)
            walk(g.right)
        elif g not in seen:
            seen.add(g)
            atoms.append(g)

    walk(f)

    def val(g, row):
        if isinstance(g, Not):
            return not val(g.body, row)
        if isinstance(g, Implies):
            return val(g.right, row) or not val(g.left, row)
        return row[g]

    for bits in itertools.product((False, True), repeat=len(atoms)):
        if not val(f, dict(zip(atoms, bits))):
            return False
    return True


def _brute_core(g) -> set:
    out = set()
    if _brute_taut(g):
        out.add("Taut")
    if isinstance(g, Update):
        a = g.announcement
        if g == Update(a, Justifies(Up(a), a)):
            out.add("Up")
    if isinstance(g, Implies) and isinstance(g.left, Justifies):
        t = g.left.term
        if isinstance(t, Up):
            a, b = t.body, g.left.body
            if g == Implies(
                Justifies(Up(a), b), Update(a, Justifies(Up(a), b))
            ) and _brute_up_independent(Update(a, b)):
                out.add("Pers")
    if (
        isinstance(g, Not)
        and isinstance(g.body, Implies)
        and isinstance(g.body.left, Implies)
    ):
        x = g.body.left.left
        y = g.body.left.right
        if isinstance(y, Justifies) and isinstance(y.term, App):
            t, a, s, b = y.term.left, y.term.annotation, y.term.right, y.body
            lhs = _land(Justifies(t, Implies(a, b)), Justifies(s, a))
            if g == _liff(lhs, y):
                out.add("App")
        if isinstance(x, Update):
            c, a = x.announcement, x.body
            if g == _liff(Update(c, a), a) and _brute_up_independent(Update(c, a)):
                out.add("Indep")
            if isinstance(a, Not) and g == _liff(
                Update(c, Not(a.body)), Not(Update(c, a.body))
            ):
                out.add("Funct")
            if isinstance(a, Implies) and g == _liff(
                Update(c, a), Implies(Update(c, a.left), Update(c, a.right))
            ):
                out.add("Norm")
    return out


def _brute_schemas(f) -> set:
    out = set()
    depth = 0
    g = f
    while True:
        out |= {(schema, depth) for schema in _brute_core(g)}
        if not isinstance(g, Update):
            return out
        g = g.body
        depth += 1


def _children(x) -> tuple:
    if isinstance(x, (Not, Up)):
        return (x.body,)
    if isinstance(x, Implies):
        return (x.left, x.right)
    if isinstance(x, Justifies):
        return (x.term, x.body)
    if isinstance(x, Update):
        return (x.announcement, x.body)
    if isinstance(x, App):
        return (x.left, x.annotation, x.right)
    return ()


def _dag(f) -> set:
    seen = {f}
    stack = [f]
    while stack:
        for y in _children(stack.pop()):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def _replacements(x, announcements) -> list:
    """Nodes that may stand in for x: other leaves, an added or dropped
    negation, and claims by the up-term of an announcement, which is what
    the Indep and Pers provisos look for."""
    if isinstance(x, (Constant, Variable, Up, App)):
        out = [Constant(1), Variable(2), Up(P2)]
        out += [Up(c) for c in announcements]
    else:
        out = [P2, Not(x), Update(P1, x)]
        out += [Justifies(Up(c), x) for c in announcements]
        out += [Not(Justifies(Up(c), x)) for c in announcements]
        if isinstance(x, Not):
            out.append(x.body)
    return [y for y in out if y is not x]


def _mutate_once(f, rng):
    """One node changed at one tree position; every other occurrence of
    that (interned) node is left as it was."""
    announcements = sorted({g.announcement for g in _dag(f) if isinstance(g, Update)},
                           key=repr)

    def paths(x, here):
        yield here
        for i, y in enumerate(_children(x)):
            yield from paths(y, here + (i,))

    def rebuild(x, path):
        if not path:
            return rng.choice(_replacements(x, announcements))
        kids = list(_children(x))
        kids[path[0]] = rebuild(kids[path[0]], path[1:])
        return type(x)(*kids)

    return rebuild(f, rng.choice(list(paths(f, ()))))


def _mutate_shared(f, rng):
    """One DAG node changed at every position it occupies, so schema shapes
    built from repeated parts often survive while their parts change."""
    nodes = sorted(_dag(f), key=repr)
    old = rng.choice(nodes)
    announcements = sorted({g.announcement for g in nodes if isinstance(g, Update)},
                           key=repr)
    new = rng.choice(_replacements(old, announcements))
    memo = {old: new}

    def subst(x):
        if x not in memo:
            kids = _children(x)
            memo[x] = type(x)(*map(subst, kids)) if kids else x
        return memo[x]

    return subst(f)


def _seeded_corpus():
    """Every schema's seeded instances, each with two one-node mutations."""
    rng = random.Random(5)
    for k, schema in enumerate(SCHEMAS):
        for f in random_axiom_instances(schema, 40, seed=100 + k):
            yield f
            yield _mutate_once(f, rng)
            yield _mutate_shared(f, rng)


def test_match_axiom_cross_check():
    # the bounded universe admits Taut, Up, and Pers instances only: the
    # biconditional expansion alone already costs more than nine, so the
    # seeded corpus and its mutations carry the four biconditional schemas
    for corpus, more_than, present in (
        (_universe(), 30000, ("Taut", "Up", "Pers")),
        (_seeded_corpus(), 800, SCHEMAS),
    ):
        counts = {}
        checked = 0
        for f in corpus:
            checked += 1
            got = {(i.schema, len(i.prefix)) for i in match_axiom(f)}
            want = _brute_schemas(f)
            assert got == want, print_formula(f)
            for schema in {schema for schema, _ in got} or {None}:
                counts[schema] = counts.get(schema, 0) + 1
        assert checked > more_than
        assert set(counts) == set(present) | {None}


def test_checker_agrees_with_match_axiom():
    # one matcher: a one-step axiom proof checks iff match_axiom lists an
    # instance, of the declared schema when one is declared
    rng = random.Random(6)
    more = [g for k, schema in enumerate(SCHEMAS)
            for f in random_axiom_instances(schema, 20, seed=400 + k)
            for g in (f, _mutate_once(f, rng), _mutate_shared(f, rng))]
    checked = 0
    for f in itertools.chain(_universe(), _seeded_corpus(), more):
        found = {i.schema for i in match_axiom(f)}
        for schema in (None,) + SCHEMAS:
            fail = check_proof(Proof((ProofStep(f, "axiom", schema=schema),)), EMPTY)
            if schema in found or (schema is None and found):
                want = None
            elif found:
                want = "not an instance of schema %s" % schema
            else:
                want = "not an axiom instance"
            assert (fail.reason if fail else None) == want, (print_formula(f), schema)
        checked += 1
    assert checked > 31000


def _instances_table_first(f) -> list:
    """match_axiom's list in its order, building every prefix split's
    truth table: per split, Taut, then the split's core schemas."""
    out = []
    for lead, g in prefix_splits(f):
        if taut_check(g):
            out.append(AxiomInstance("Taut", lead, g))
        out.extend(AxiomInstance(s, lead, g) for s in proof_module._core_schemas(g))
    return out


def test_match_axiom_needs_no_table_for_a_core_instance():
    # no core instance is a tautology, so match_axiom skips the table of
    # a split that has a core schema; the list and its order stay those
    # of building every table
    checked = 0
    for f in itertools.chain(_universe(), _seeded_corpus()):
        assert match_axiom(f) == _instances_table_first(f), print_formula(f)
        checked += 1
    assert checked > 30800
    # so a core instance lists past the table's atom limit
    body = Implies(P1, P2)
    for i in range(3, 31):
        body = Implies(body, Prop(i))
    indep = equiv(Update(Prop(31), body), body)
    assert match_axiom(indep) == [AxiomInstance("Indep", (), indep)]
    boxed = Update(Prop(32), indep)
    assert match_axiom(boxed) == [AxiomInstance("Indep", (Prop(32),), indep)]
    # and a formula that matches no core schema still needs its table
    with pytest.raises(ValueError, match="formula has 30 boolean atoms"):
        match_axiom(body)


def test_axiom_checks_stop_at_the_first_suitable_instance():
    # check_proof, ProofBuilder.axiom and cs_contains look only as far as
    # the first instance they need; their verdicts and reasons must be
    # those that the whole match_axiom list gives
    def iterated(g):
        while not match_axiom(g):
            if not (isinstance(g, Justifies) and isinstance(g.term, Constant)):
                return False
            g = g.body
        return True

    for f in _seeded_corpus():
        insts = match_axiom(f)
        for schema in (None,) + SCHEMAS:
            if not insts:
                want = "not an axiom instance"
            elif schema is not None and all(i.schema != schema for i in insts):
                want = "not an instance of schema %s" % schema
            else:
                want = None
            got = check_proof(Proof((ProofStep(f, "axiom", schema=schema),)), EMPTY)
            assert (got.reason if got else None) == want, (print_formula(f), schema)
            b = ProofBuilder()
            if want is None:
                b.axiom(f, schema)
            else:
                with pytest.raises(ValueError, match=want):
                    b.axiom(f, schema)
        for g in (f, Justifies(Constant(2), f)):
            assert cs_contains(FULL, Constant(1), g) == iterated(g)


# -- constant specifications ----------------------------------------------

def test_cs_contains_full_taut():
    assert cs_contains(FULL, Constant(1), Implies(P1, Implies(P2, P1)))


def test_cs_contains_full_iterated():
    f = parse_formula("[P1] c1 : [P2] up(P2) : P2")
    assert cs_contains(FULL, Constant(2), f)


def test_cs_contains_explicit_and_empty():
    assert not cs_contains(ConstantSpec("explicit"), Constant(1), P1)
    assert not cs_contains(EMPTY, Constant(1), Implies(P1, P1))
    cs = ConstantSpec("explicit", ((Constant(1), Implies(P1, P1)),))
    assert cs_contains(cs, Constant(1), Implies(P1, P1))
    assert not cs_contains(cs, Constant(2), Implies(P1, P1))


def test_licensed_pairs_keeps_the_licensed_once_in_first_seen_order():
    c1, c2 = Constant(1), Constant(2)
    a, b = Implies(P1, P1), Implies(P2, P2)
    cs = ConstantSpec("explicit", ((c2, b), (c1, P1), (c1, a), (c2, b)))
    assert licensed_pairs(cs) == [(c2, b), (c1, a)]
    # a candidate adds nothing an explicit specification does not list
    assert licensed_pairs(cs, [(c1, a), (c2, a), (c1, P2)]) == [(c2, b), (c1, a)]
    assert licensed_pairs(FULL, [(c2, P1), (c2, a), (c1, b), (c2, a)]) == [(c2, a), (c1, b)]
    assert licensed_pairs(EMPTY, [(c1, a)]) == []


# -- proof checking -------------------------------------------------------

def test_check_proof_single_axiom():
    p = Proof((ProofStep(parse_formula("[P1] up(P1) : P1"), "axiom"),))
    assert check_proof(p, EMPTY) is None


def test_check_proof_modus_ponens():
    a = Implies(P1, P1)
    b = Implies(P2, a)
    p = Proof(
        (
            ProofStep(a, "axiom"),
            ProofStep(Implies(a, b), "axiom"),
            ProofStep(b, "mp", premises=(1, 2)),
        )
    )
    assert check_proof(p, EMPTY) is None


def test_check_proof_an_needs_cs():
    p = Proof((ProofStep(Justifies(Constant(1), P1), "an"),))
    fail = check_proof(p, EMPTY)
    assert isinstance(fail, CheckFailure)
    assert fail.index == 1
    assert "not in the constant specification" in fail.reason
    # an explicit pair licenses only a formula of axiom shape, and P1 is none
    fail = check_proof(p, ConstantSpec("explicit", ((Constant(1), P1),)))
    assert isinstance(fail, CheckFailure)
    assert fail.index == 1
    assert "not in the constant specification" in fail.reason


def test_check_proof_failure_modes():
    assert check_proof(Proof(()), EMPTY).index == 0
    p = Proof((ProofStep(P1, "axiom"),))
    assert "not an axiom" in check_proof(p, EMPTY).reason
    p = Proof((ProofStep(Implies(P1, P1), "axiom", schema="Up"),))
    assert "schema" in check_proof(p, EMPTY).reason
    p = Proof((ProofStep(P1, "mp", premises=(1, 2)),))
    assert "earlier step" in check_proof(p, EMPTY).reason
    p = Proof(
        (
            ProofStep(Implies(P1, P1), "axiom"),
            ProofStep(Implies(P2, P2), "axiom"),
            ProofStep(P2, "mp", premises=(1, 2)),
        )
    )
    assert check_proof(p, EMPTY).index == 3
    a = Implies(P1, P1)
    b = Implies(P2, a)
    for premises in [(True, 2), (2, True), (1.0, 2)]:
        # (1, 2) yields b; a bool or a float is no step index
        p = Proof((
            ProofStep(a, "axiom"),
            ProofStep(Implies(a, b), "axiom"),
            ProofStep(b, "mp", premises=premises),
        ))
        assert check_proof(p, EMPTY) == CheckFailure(3, "modus ponens needs two earlier step indices")
    p = Proof((ProofStep(P1, "guess"),))
    assert "unknown rule" in check_proof(p, EMPTY).reason


_A = Implies(P1, P1)


@pytest.mark.parametrize("steps, reason", [
    ((ProofStep(P1, "an"),),
     "necessitation step is not of the form [updates]c:A"),
    ((ProofStep(Justifies(Constant(1), _A), "an", constant=Constant(2)),),
     "declared constant does not occur in the step"),
    ((ProofStep(_A, "axiom"), ProofStep(Implies(_A, Implies(P2, _A)), "axiom"),
      ProofStep(P2, "mp", premises=(1, 2))),
     "modus ponens premises do not yield this formula"),
])
def test_check_proof_refusals(steps, reason):
    assert check_proof(Proof(steps), FULL) == CheckFailure(len(steps), reason)


def test_check_proof_reports_first_failure():
    p = Proof(
        (
            ProofStep(Implies(P1, P1), "axiom"),
            ProofStep(P2, "axiom"),
            ProofStep(P3, "axiom"),
        )
    )
    assert check_proof(p, EMPTY).index == 2


# -- the builder ----------------------------------------------------------

def test_taut_consequence_detachment():
    b = ProofBuilder()
    a = Implies(P1, P1)
    goal = Implies(P2, a)
    i = b.axiom(a)
    j = b.axiom(Implies(a, goal))
    b.taut_consequence([i, j], goal)
    p = b.proof()
    assert_checks(p, EMPTY)
    assert p.conclusion is goal


def test_taut_consequence_from_conjunction():
    b = ProofBuilder()
    both = conj(Implies(P1, P1), Implies(P2, P2))
    i = b.axiom(both, "Taut")
    b.taut_consequence([i], Implies(P1, P1))
    p = b.proof()
    assert_checks(p, EMPTY)
    assert p.conclusion == Implies(P1, P1)


def test_taut_consequence_rejects_non_consequence():
    b = ProofBuilder()
    with pytest.raises(ValueError, match="tautological consequence"):
        b.taut_consequence([], P1)


def test_taut_consequence_builds_one_truth_table(monkeypatch):
    # the chain's own check licenses it as a Taut axiom: no second table
    calls = []

    def counted(f):
        calls.append(f)
        return taut_check(f)

    b = ProofBuilder()
    a = Implies(P1, P1)
    i = b.axiom(a)
    monkeypatch.setattr(proof_module, "taut_check", counted)
    j = b.taut_consequence([i], Implies(P2, a))
    assert len(calls) == 1
    b.taut_consequence([i, j], conj(a, Implies(P2, a)))
    assert len(calls) == 2
    with pytest.raises(ValueError, match="tautological consequence"):
        b.taut_consequence([i], P1)
    assert len(calls) == 3
    monkeypatch.undo()
    assert_checks(b.proof(), EMPTY)


def test_builder_validates_axioms_eagerly():
    b = ProofBuilder()
    with pytest.raises(ValueError, match="not an axiom"):
        b.axiom(P1)
    with pytest.raises(ValueError, match="schema"):
        b.axiom(Implies(P1, P1), "Up")
    with pytest.raises(ValueError, match="form"):
        b.an(P1)


def test_builder_deduplicates_repeated_formulas():
    b = ProofBuilder()
    i = b.axiom(Implies(P1, P1))
    j = b.axiom(Implies(P1, P1))
    assert i == j
    assert len(b.proof().steps) == 1


# -- transformers ---------------------------------------------------------

def test_prove_box_on_axiom():
    b = ProofBuilder()
    b.axiom(up_instance(P1), "Up")
    boxed = prove_box(b.proof(), P2, EMPTY)
    assert_checks(boxed, EMPTY)
    assert boxed.conclusion == parse_formula("[P2][P1] up(P1) : P1")


def test_prove_box_on_taut():
    b = ProofBuilder()
    b.axiom(Implies(P1, P1), "Taut")
    boxed = prove_box(b.proof(), P1, EMPTY)
    assert_checks(boxed, EMPTY)
    assert boxed.conclusion == Update(P1, Implies(P1, P1))


def test_prove_box_replays_mp():
    b = ProofBuilder()
    a = Implies(P1, P1)
    goal = Implies(P2, a)
    i = b.axiom(a)
    j = b.axiom(Implies(a, goal))
    b.mp(i, j)
    boxed = prove_box(b.proof(), P3, EMPTY)
    assert_checks(boxed, EMPTY)
    assert boxed.conclusion == Update(P3, goal)


def test_prove_box_of_necessitated_proofs():
    # every step of a necessitated proof is an an step or rests on them,
    # so boxing one replays necessitation under the announcement
    b = ProofBuilder()
    a = Implies(P1, P1)
    b.mp(b.axiom(a), b.axiom(Implies(a, Implies(P2, a))))
    for p in (b.proof(), prove_box(b.proof(), P3, EMPTY),
              prove_ramsey(Variable(1), P1, P2, FULL)):
        t, q = prove_necessitation(p, FULL)
        for c in (P1, parse_formula("up(P2) : P2")):
            boxed = prove_box(q, c, FULL)
            assert any(step.rule == "an" for step in boxed.steps)
            assert_checks(boxed)
            assert boxed.conclusion == Update(c, Justifies(t, p.conclusion))


def test_prove_box_requires_checked_input():
    p = Proof((ProofStep(P1, "axiom"),))
    with pytest.raises(ValueError, match="does not check"):
        prove_box(p, P1, EMPTY)


def test_prove_necessitation_single_axiom():
    b = ProofBuilder()
    b.axiom(Implies(P1, P1), "Taut")
    t, p = prove_necessitation(b.proof(), FULL)
    assert t == Constant(1)  # smallest constant not used by the theorem
    assert_checks(p)
    assert p.conclusion == Justifies(t, Implies(P1, P1))


def test_prove_necessitation_mp_gives_application():
    b = ProofBuilder()
    a = Implies(P1, P1)
    goal = Implies(P2, a)
    i = b.axiom(a)
    j = b.axiom(Implies(a, goal))
    b.mp(i, j)
    t, p = prove_necessitation(b.proof(), FULL)
    assert isinstance(t, App)
    assert t.annotation is a
    assert_checks(p)
    assert p.conclusion == Justifies(t, goal)


def test_prove_necessitation_explicit_needs_witness():
    b = ProofBuilder()
    b.axiom(Implies(P1, P1), "Taut")
    with pytest.raises(ValueError, match="witness"):
        prove_necessitation(b.proof(), ConstantSpec("explicit"))
    cs = ConstantSpec("explicit", ((Constant(7), Implies(P1, P1)),))
    t, p = prove_necessitation(b.proof(), cs)
    assert t == Constant(7)
    assert_checks(p, cs)


def test_prove_aux_checks():
    p = prove_aux(Constant(1), Variable(1), P1, P2, P3)
    assert_checks(p)
    want = equiv(
        conj(
            Update(P3, Justifies(Constant(1), Implies(P1, P2))),
            Update(P3, Justifies(Variable(1), P1)),
        ),
        Update(P3, Justifies(App(Constant(1), P1, Variable(1)), P2)),
    )
    assert p.conclusion == want


def test_prove_aux_empty_prefix():
    p = prove_aux(Constant(1), Variable(1), P1, P2, None)
    assert_checks(p)
    assert p.conclusion == app_instance(Constant(1), Variable(1), P1, P2)


def test_prove_ramsey_checks():
    p = prove_ramsey(Variable(1), P1, P2, FULL)
    assert_checks(p)
    want = equiv(
        Justifies(Variable(1), Implies(P1, P2)),
        Update(P1, Justifies(App(Variable(1), P1, Up(P1)), P2)),
    )
    assert p.conclusion == want


def test_prove_ramsey_side_condition():
    with pytest.raises(ValueError, match="not up-independent"):
        prove_ramsey(Up(P1), P1, P1, FULL)


def test_prove_persistence_fo_variable():
    p = prove_persistence_fo(Variable(1), P1, P2, FULL)
    assert_checks(p)
    claim = Justifies(Variable(1), P1)
    assert p.conclusion == Implies(claim, Update(P2, claim))


def test_prove_persistence_fo_up_term():
    p = prove_persistence_fo(Up(P1), P2, P1, FULL)
    assert_checks(p)
    claim = Justifies(Up(P1), P2)
    assert p.conclusion == Implies(claim, Update(P1, claim))
    # the up(c) case is a single Pers axiom
    assert len(p.steps) == 1


def test_prove_persistence_fo_application():
    t = App(Variable(1), Implies(P1, P1), Variable(2))
    p = prove_persistence_fo(t, P2, P3, FULL)
    assert_checks(p)
    claim = Justifies(t, P2)
    assert p.conclusion == Implies(claim, Update(P3, claim))


def test_prove_persistence_fo_rejections():
    with pytest.raises(ValueError, match="justification"):
        prove_persistence_fo(Variable(1), Justifies(Variable(2), P1), P2, FULL)
    with pytest.raises(ValueError, match="annotation"):
        prove_persistence_fo(
            App(Variable(1), Justifies(Variable(2), P1), Variable(2)), P1, P2, FULL
        )
    with pytest.raises(ValueError, match="occurs inside"):
        # up(P2) hides inside a different up-term, where Indep cannot reach
        prove_persistence_fo(Up(Justifies(Up(P2), P1)), P1, P2, FULL)
    dependent = Update(P2, Justifies(Up(P2), P2))
    with pytest.raises(ValueError, match="not up-independent"):
        # the up(c) leaf is a Pers instance, whose proviso needs c independent
        prove_persistence_fo(Up(dependent), P1, dependent, FULL)


# -- proof files ----------------------------------------------------------

def test_proof_json_round_trip():
    p = prove_ramsey(Variable(1), P1, P2, FULL)
    again = proof_from_json(proof_to_json(p))
    assert [s.formula for s in again.steps] == [s.formula for s in p.steps]
    assert_checks(again)


def _necessitated_ramsey():
    """A proof whose printed steps repeat large groups of earlier steps."""
    return prove_necessitation(prove_ramsey(Variable(1), P1, P2, FULL), FULL)[1]


def test_proof_json_round_trip_gives_the_same_nodes():
    p = _necessitated_ramsey()
    again = proof_from_json(proof_to_json(p))
    assert len(again.steps) == len(p.steps)
    assert all(a.formula is b.formula for a, b in zip(again.steps, p.steps))
    assert_checks(again)


def test_proof_json_reads_repeated_groups_once(monkeypatch):
    # one group memo serves the whole file, so the steps together read far
    # less than each step read on its own
    steps = proof_to_json(_necessitated_ramsey())
    reads = []
    unary = parse_module._Parser.unary

    def counted(self):
        reads.append(self.end - len(self.tok))
        return unary(self)

    monkeypatch.setattr(parse_module._Parser, "unary", counted)
    proof_from_json(steps)
    together = len(reads)
    reads.clear()
    for step in steps:
        parse_formula(step["formula"])
    assert 0 < together * 10 < len(reads)


def test_proof_json_lexes_only_what_the_memo_cannot_serve(monkeypatch):
    # the parser lexes on from just past each memo hit, so the lexemes it
    # matches cover a small share of the file's text
    steps = proof_to_json(_necessitated_ramsey())
    lexed = []
    advance = parse_module._Parser.advance

    def counted(self):
        advance(self)
        lexed.append(len(self.tok))

    monkeypatch.setattr(parse_module._Parser, "advance", counted)
    proof_from_json(steps)
    total = sum(len(step["formula"]) for step in steps)
    assert total > 400000
    assert 0 < sum(lexed) * 10 <= total


def test_proof_json_groups_match_across_spacing():
    # steps spelled with other spacing, tabs and newlines read through one
    # memo give the nodes a fresh parse gives
    steps = proof_to_json(_necessitated_ramsey())
    spaced = [dict(step) for step in steps]
    for k, step in enumerate(spaced):
        if k % 3 == 1:
            step["formula"] = step["formula"].replace(" -> ", "->")
        elif k % 3 == 2:
            step["formula"] = step["formula"].replace(" -> ", "\n\t->  ").replace(" : ", ":")
    again = proof_from_json(spaced)
    assert [s.formula for s in again.steps] == [parse_formula(s["formula"]) for s in spaced]
    assert [s.formula for s in again.steps] == [s.formula for s in proof_from_json(steps).steps]


def test_proof_json_malformed_step_after_shared_groups():
    steps = proof_to_json(_necessitated_ramsey())
    # the last step that contains an earlier step's printed group, the
    # longest such group
    k, shared = max(
        (k, len(early["formula"]), early["formula"])
        for k, step in enumerate(steps, 1)
        for early in steps[:k - 1]
        if early["formula"].startswith("(") and early["formula"] in step["formula"]
    )[::2]
    assert len(shared) > 100
    steps = steps[:k]
    text = steps[-1]["formula"]
    at = text.index(shared) + len(shared) - 1  # that group's ")"
    bad = text[:at] + " ~" + text[at:]
    with pytest.raises(SourceError) as alone:
        parse_formula(bad)
    # read after the earlier steps, through their group memo
    groups = {}
    for step in steps[:-1]:
        parse_formula(step["formula"], _groups=groups)
    with pytest.raises(SourceError) as e:
        parse_formula(bad, _groups=groups)
    assert (e.value.position, e.value.message) == (alone.value.position, alone.value.message)
    assert (e.value.position, e.value.message) == (at + 2, "expected ')'")  # the "~"
    steps[-1]["formula"] = bad
    with pytest.raises(ValueError) as e:
        proof_from_json(steps)
    assert str(e.value) == "step %d formula: %s" % (k, alone.value)


def test_proof_json_rejections():
    with pytest.raises(ValueError, match="nonempty"):
        proof_from_json([])
    with pytest.raises(ValueError, match="formula"):
        proof_from_json([{"rule": "axiom"}])
    with pytest.raises(ValueError, match="rule"):
        proof_from_json([{"formula": "P1", "rule": "hope"}])
    with pytest.raises(ValueError, match="schema"):
        proof_from_json([{"formula": "P1", "rule": "axiom", "schema": "zap"}])
    with pytest.raises(ValueError, match="only axiom steps"):
        proof_from_json([{"formula": "P1", "rule": "mp", "schema": "up", "premises": [1, 2]}])
    with pytest.raises(ValueError, match="premises"):
        proof_from_json([{"formula": "P1", "rule": "mp"}])
    with pytest.raises(ValueError, match="only modus ponens"):
        proof_from_json([{"formula": "P1", "rule": "axiom", "premises": [1, 2]}])
    with pytest.raises(ValueError, match="constant"):
        proof_from_json([{"formula": "c1 : P1", "rule": "an", "constant": "x1"}])
    with pytest.raises(ValueError, match="constant must be a c<n> term"):
        proof_from_json([{"formula": "c1 : P1", "rule": "an", "constant": 1}])
    with pytest.raises(ValueError, match="unknown keys"):
        proof_from_json([{"formula": "P1", "rule": "axiom", "vibe": "good"}])
    # JSON's true is no step index, though Python reads it as 1
    with pytest.raises(ValueError, match="needs premises"):
        proof_from_json([{"formula": "P1", "rule": "mp", "premises": [True, 2]}])


# -- transformer fuzz ------------------------------------------------------

def _random_taut_proof(rng):
    """A checked proof built from random tautology instances glued by MP."""
    pool = [P1, P2, P3, Justifies(Variable(1), P1), Update(P1, P2)]
    b = ProofBuilder()
    idx = b.axiom(Implies(rng.choice(pool), Implies(P1, P1)), None) if rng.random() < 0.3 else None
    a = rng.choice(pool)
    first = b.axiom(Implies(a, a), "Taut")
    goal = disj(rng.choice(pool), Implies(a, a))
    last = b.taut_consequence([first], goal)
    if idx is not None and rng.random() < 0.5:
        last = b.taut_consequence([idx, last], conj(b.formula_at(idx), goal))
    return b.proof()


def test_transformers_fuzzed_against_checker():
    rng = random.Random(11)
    for trial in range(30):
        p = _random_taut_proof(rng)
        assert_checks(p, EMPTY)
        c = rng.choice([P1, P2, Justifies(Variable(2), P3)])
        boxed = prove_box(p, c, FULL)
        assert_checks(boxed)
        assert boxed.conclusion == Update(c, p.conclusion)
        t, nec = prove_necessitation(p, FULL)
        assert_checks(nec)
        assert nec.conclusion == Justifies(t, p.conclusion)
        t2, nec2 = prove_necessitation(boxed, FULL)
        assert_checks(nec2)
        assert nec2.conclusion == Justifies(t2, boxed.conclusion)
