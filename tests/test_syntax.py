import time

import hypothesis.strategies as st
from hypothesis import given, settings

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
    conj,
    disj,
    equiv,
    falsum,
    constants_in,
    is_atomic,
    length,
    prop_indices,
    subformulas,
    up_independent,
)

from strategies import formulas, terms

P1, P2 = Prop(1), Prop(2)
c1, x1 = Constant(1), Variable(1)


def test_atm_atomic_terms():
    assert atm(x1) == {x1}
    assert atm(c1) == {c1}


def test_atm_up_includes_body_atoms():
    assert atm(Up(P1)) == {Up(P1)}
    assert atm(Up(Justifies(x1, P1))) == {Up(Justifies(x1, P1)), x1}


def test_atm_application_with_annotation():
    f = Justifies(App(c1, P1, x1), P2)
    assert atm(f) == {c1, x1}


def test_atm_update_has_no_up_term():
    # announcing P1 does not by itself put up(P1) among the atoms
    assert atm(Update(P1, Justifies(x1, P1))) == {x1}


def test_up_independent_plain_justification():
    assert up_independent(Update(P1, Justifies(x1, P1)))


def test_up_independent_fails_on_up_axiom_shape():
    assert not up_independent(Update(P1, Justifies(Up(P1), P1)))


def test_up_independent_inner_subformula_violates():
    f = Update(P2, Update(P1, Justifies(Up(P1), P1)))
    assert not up_independent(f)


def test_length_atoms():
    assert length(P1) == 1
    assert length(Up(P1)) == 1
    assert length(x1) == 1


def test_length_application_example():
    f = Justifies(App(c1, P1, x1), P2)
    assert length(f) == 6


def test_length_update():
    assert length(Update(P1, P2)) == 3
    assert length(Not(P1)) == 2


def test_length_at_depth():
    # built through the library, far past the interpreter's recursion limit
    f = P1
    for _ in range(5000):
        f = Not(f)
    assert length(f) == 5001
    g, want = P1, 1
    for i in range(5000):
        if i % 3 == 0:
            g, want = Update(P1, g), want + 2
        elif i % 3 == 1:
            g, want = Justifies(App(x1, g, c1), P2), want + 5
        else:
            g, want = Implies(g, g), 2 * want + 1
    assert length(g) == want


def test_sugar_expansions():
    assert conj(P1, P2) == Not(Implies(P1, Not(P2)))
    assert disj(P1, P2) == Implies(Not(P1), P2)
    assert equiv(P1, P2) == Not(Implies(Implies(P1, P2), Not(Implies(P2, P1))))
    assert falsum() == Not(Implies(P1, P1))


def test_interning_gives_identity_equality():
    a = Justifies(App(c1, P1, x1), P2)
    b = Justifies(App(Constant(1), Prop(1), Variable(1)), Prop(2))
    assert a is b


def test_bad_indices_rejected():
    for bad in (0, -1):
        for ctor in (Prop, Constant, Variable):
            try:
                ctor(bad)
            except ValueError:
                continue
            raise AssertionError("%s(%d) should be rejected" % (ctor.__name__, bad))


@given(formulas(4))
def test_atm_elements_are_atomic(f):
    assert all(is_atomic(t) for t in atm(f))


@given(formulas(3), formulas(2), formulas(2))
def test_atm_of_prefix_is_union(f, c1_, c2_):
    assert atm(Update(c1_, Update(c2_, f))) == atm(f) | atm(c1_) | atm(c2_)


@given(formulas(4))
def test_length_dominates_children(f):
    assert length(f) >= 1
    for g in subformulas(f) - {f}:
        assert length(f) > length(g)


@given(formulas(4))
def test_up_independent_restricts_to_subformulas(f):
    if up_independent(f):
        for g in subformulas(f):
            if isinstance(g, Update):
                assert up_independent(g)


def _up_independent_per_update(f):
    """The proviso as defined, without the walk that finds suspects: an
    atm walk under every update subformula."""
    for g in subformulas(f):
        if isinstance(g, Update) and Up(g.announcement) in atm(g.body):
            return False
    return True


# formulas over two propositions, so that up-terms of announced formulas,
# nested in up bodies and application annotations too, turn up often
_COUPLED = st.recursive(
    st.sampled_from([P1, P2]),
    lambda fs: st.one_of(
        fs.map(Not),
        st.tuples(fs, fs).map(lambda x: Implies(*x)),
        st.tuples(st.one_of(st.just(x1), fs.map(Up), st.tuples(fs, fs).map(
            lambda x: App(Up(x[0]), x[1], x1))), fs).map(lambda x: Justifies(*x)),
        st.tuples(fs, fs).map(lambda x: Update(*x)),
        # an update whose body justifies by its own up-term
        st.tuples(fs, fs).map(lambda x: Update(x[0], Justifies(Up(x[0]), x[1]))),
        # and one beside its up-term
        st.tuples(fs, fs).map(lambda x: Implies(Justifies(Up(x[0]), x[1]), Update(*x))),
    ),
    max_leaves=10,
)


@settings(max_examples=300)
@given(st.one_of(formulas(4), _COUPLED))
def test_up_independent_matches_the_per_update_definition(f):
    assert up_independent(f) == _up_independent_per_update(f)


def test_up_independent_looks_at_subformulas_only():
    # an update inside an up-term is no subformula, so it cannot fail
    inner = Update(P1, Justifies(Up(P1), P1))
    assert up_independent(Justifies(Up(inner), P2))
    assert not up_independent(Implies(P2, inner))
    # up(P1) outside the update does not count against it
    assert up_independent(Implies(Justifies(Up(P1), P1), Update(P1, P1)))
    # several announcements have their up-terms in f, and one fails
    fine = [Implies(Justifies(Up(a), P1), Update(a, P2)) for a in (P1, P2, Not(P1), Not(P2))]
    for bad in (Update(a, Justifies(Up(a), P2)) for a in (P1, P2, Not(P1), Not(P2))):
        for f in (Implies(bad, conj(*fine[:2])), Implies(conj(*fine[2:]), bad),
                  Update(P1, Implies(fine[1], Implies(fine[3], bad)))):
            assert not up_independent(f)
            assert up_independent(f) == _up_independent_per_update(f)


def test_up_independent_on_2000_nested_announcements():
    f = g = P1
    for _ in range(2000):
        f = Update(P1, f)
        g = Update(P1, g) if g is not P1 else Update(P1, Justifies(Up(P1), P1))
    for x, want in ((f, True), (Implies(Justifies(Up(P1), P1), f), True), (g, False),
                    (Update(P2, Implies(f, Justifies(Up(P2), P1))), False)):
        start = time.perf_counter()
        assert up_independent(x) == want
        assert time.perf_counter() - start < 0.5


def test_walks_are_linear_in_shared_dags():
    # every level uses the previous formula twice, so the trees unfold to
    # 2^24 copies of P1; the walks must visit each shared node once
    f = g = P1
    for _ in range(24):
        f = Implies(f, Not(Justifies(x1, Update(P2, f))))
        g = Implies(g, Not(g))
    for walk, x, want in ((atm, f, {x1}), (prop_indices, f, {1, 2}),
                          (constants_in, f, set()), (up_independent, f, True),
                          (length, f, 7 * 2 ** 24 - 6), (length, g, 3 * 2 ** 24 - 2)):
        start = time.perf_counter()
        got = walk(x)
        assert time.perf_counter() - start < 1.0, walk.__name__
        assert got == want
    # counted outside the assert: a failing assert would print the
    # formulas, and their repr unfolds the whole tree
    start = time.perf_counter()
    count = len(subformulas(f))
    assert time.perf_counter() - start < 1.0
    assert count == 2 + 24 * 4
