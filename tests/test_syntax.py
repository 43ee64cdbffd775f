import subprocess
import sys
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from jus.syntax import (
    App,
    Constant,
    Formula,
    Implies,
    Justifies,
    Node,
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
)
from jus.proof import indep_instance, pers_instance

from conftest import SUBPROCESS_ENV
from strategies import coupled_formulas, formulas, terms

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


# The proviso of Indep and Pers: [C]B is up-independent when up(C) does
# not occur in B. The builders decide it; the tests below ask them.

def _up_independent(c, b):
    """Whether the Indep and Pers builders accept [c]b; they share one
    proviso, so they must agree."""
    verdicts = set()
    for build in (indep_instance, pers_instance):
        try:
            build(c, b)
            verdicts.add(True)
        except ValueError:
            verdicts.add(False)
    assert len(verdicts) == 1, (c, b)
    return verdicts.pop()


def test_up_independent_plain_justification():
    assert _up_independent(P1, Justifies(x1, P1))


def test_up_independent_fails_on_up_axiom_shape():
    assert not _up_independent(P1, Justifies(Up(P1), P1))


def test_up_independent_inner_subformula_violates():
    # the inner update reads its own up-term, but only up(P2) counts
    # against the outer one
    f = Update(P2, Update(P1, Justifies(Up(P1), P1)))
    assert not _up_independent(f.body.announcement, f.body.body)
    assert _up_independent(f.announcement, f.body)


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
    # each class has its own pool: equal arguments, distinct nodes
    assert len({id(Constant(1)), id(Variable(1)), id(Prop(1))}) == 3
    assert Constant(1) is c1 and Variable(1) is x1 and Prop(1) is P1

    class Atom(Prop):
        pass

    atom = Atom(7)  # built before Prop(7)
    assert type(atom) is Atom and atom is Atom(7)
    assert type(Prop(7)) is Prop and type(Atom(1)) is Atom


def test_each_field_is_a_read_only_property_from_the_table():
    a = App(c1, P1, x1)
    assert (a.left, a.annotation, a.right) == (c1, P1, x1)
    assert (Justifies(x1, P2).term, Justifies(x1, P2).body) == (x1, P2)
    for cls in (Constant, Variable, Up, App, Prop, Not, Implies, Justifies, Update):
        assert issubclass(cls, Node)
        assert all(isinstance(getattr(cls, name), property) for name, _ in cls._fields)
    with pytest.raises(AttributeError):
        a.left = x1


# a fresh import of jus after purging sys.modules, as bench/run.py makes,
# leaves the previous classes, and with them their pools, to the collector
REIMPORT = (
    "import gc, importlib, sys, weakref; "
    "ref = weakref.ref(importlib.import_module('jus').syntax.Prop); "
    "[sys.modules.pop(m) for m in list(sys.modules) if m == 'jus' or m.startswith('jus.')]; "
    "importlib.import_module('jus'); gc.collect(); "
    "sys.exit('the previous jus.syntax.Prop is still alive' if ref() else 0)"
)


def test_a_fresh_import_releases_the_previous_one():
    # in a child interpreter, so this session's jus stays loaded
    proc = subprocess.run([sys.executable, "-c", REIMPORT], capture_output=True,
                          text=True, env=SUBPROCESS_ENV)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_bad_indices_rejected():
    for bad in (0, -1):
        for ctor in (Prop, Constant, Variable):
            try:
                ctor(bad)
            except ValueError:
                continue
            raise AssertionError("%s(%d) should be rejected" % (ctor.__name__, bad))


@pytest.mark.parametrize("build, error, message", [
    (lambda: Constant(0), ValueError, "Constant index must be an int >= 1, got 0"),
    (lambda: Variable(0), ValueError, "Variable index must be an int >= 1, got 0"),
    (lambda: Prop(0), ValueError, "Prop index must be an int >= 1, got 0"),
    # not ints; True and 1.0 equal 1, and would take index 1's node
    (lambda: Constant(True), TypeError, "Constant index must be an int >= 1, got True"),
    (lambda: Variable(1.0), TypeError, "Variable index must be an int >= 1, got 1.0"),
    (lambda: Prop(True), TypeError, "Prop index must be an int >= 1, got True"),
    (lambda: Prop(1.0), TypeError, "Prop index must be an int >= 1, got 1.0"),
    (lambda: Prop("1"), TypeError, "Prop index must be an int >= 1, got '1'"),
    (lambda: Up(x1), TypeError, "Up body must be a Formula, got Variable(1)"),
    (lambda: App(P1, P1, x1), TypeError, "App left must be a Term, got Prop(1)"),
    (lambda: App(x1, x1, x1), TypeError, "App annotation must be a Formula, got Variable(1)"),
    (lambda: Justifies(P1, P1), TypeError, "Justifies term must be a Term, got Prop(1)"),
    # every child is checked, whatever its kind
    (lambda: Not(1), TypeError, "Not body must be a Formula, got 1"),
    (lambda: Not(True), TypeError, "Not body must be a Formula, got True"),
    (lambda: Implies("x", None), TypeError, "Implies left must be a Formula, got 'x'"),
    (lambda: Implies(P1, None), TypeError, "Implies right must be a Formula, got None"),
    (lambda: Update(P1, "x"), TypeError, "Update body must be a Formula, got 'x'"),
    (lambda: Justifies(x1, x1), TypeError, "Justifies body must be a Formula, got Variable(1)"),
    (lambda: Not(Up(P1)), TypeError, "Not body must be a Formula, got Up(Prop(1))"),
    (lambda: Not(P1, P2), TypeError, "Not takes the arguments (body), got 2"),
    (lambda: Implies(P1), TypeError, "Implies takes the arguments (left, right), got 1"),
    (lambda: Prop(), TypeError, "Prop takes the arguments (index), got 0"),
    (lambda: Formula(), TypeError, "Formula is abstract: build one of its subclasses"),
])
def test_constructors_refuse_bad_arguments(build, error, message):
    with pytest.raises(error) as e:
        build()
    assert str(e.value) == message


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
    # a subformula of B has fewer atoms than B
    for g in subformulas(f):
        if isinstance(g, Update) and _up_independent(g.announcement, g.body):
            for h in subformulas(g.body):
                assert _up_independent(g.announcement, h)


def _children(x):
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


def _occurs(u, x):
    """Whether u occurs in x, by a plain walk through every child, term
    content included."""
    return x is u or any(_occurs(u, y) for y in _children(x))


@settings(max_examples=300)
@given(st.one_of(formulas(4), coupled_formulas()))
def test_up_independent_matches_the_per_update_definition(f):
    for g in subformulas(f):
        if isinstance(g, Update):
            c, b = g.announcement, g.body
            assert _up_independent(c, b) == (not _occurs(Up(c), b))


def test_up_independent_looks_at_subformulas_only():
    # up(P1) inside the announcement does not count against it: this is
    # the Pers instance up(A):P2 -> [A]up(A):P2 with A = [P1]up(P1):P1
    inner = Update(P1, Justifies(Up(P1), P1))
    assert _up_independent(inner, P2)
    # but inside an up-term of the body it does
    assert not _up_independent(P1, Justifies(Up(inner), P2))
    assert not _up_independent(P1, Implies(P2, inner))
    assert _up_independent(P2, Implies(P2, inner))
    # up(P1) outside the update does not count against it
    assert _up_independent(P1, P1)
    assert not _up_independent(P1, Implies(Justifies(Up(P1), P1), Update(P1, P1)))
    # several announcements have their up-terms in B, and one is announced
    fine = [Implies(Justifies(Up(a), P1), Update(a, P2)) for a in (P1, P2, Not(P1), Not(P2))]
    for a in (P1, P2, Not(P1), Not(P2)):
        bad = Update(a, Justifies(Up(a), P2))
        assert not _up_independent(a, bad.body)
        for b in (Implies(bad, conj(*fine[:2])), Implies(conj(*fine[2:]), bad),
                  Update(P1, Implies(fine[1], Implies(fine[3], bad)))):
            for d in (P1, P2, Not(P1), Not(P2), Not(Not(P1))):
                assert _up_independent(d, b) == (not _occurs(Up(d), b))
            assert not _up_independent(a, b)
            assert _up_independent(Not(Not(P1)), b)


def test_up_independent_on_2000_nested_announcements():
    f = g = P1
    for _ in range(2000):
        f = Update(P1, f)
        g = Update(P1, g) if g is not P1 else Update(P1, Justifies(Up(P1), P1))
    # whether [P1]B and [P2]B are up-independent, for each B
    for b, want in ((f, (True, True)), (Implies(Justifies(Up(P1), P1), f), (False, True)),
                    (g, (False, True)),
                    (Update(P2, Implies(f, Justifies(Up(P2), P1))), (True, False))):
        start = time.perf_counter()
        assert (_up_independent(P1, b), _up_independent(P2, b)) == want
        assert time.perf_counter() - start < 0.5


def test_walks_are_linear_in_shared_dags():
    # every level uses the previous formula twice, so the trees unfold to
    # 2^24 copies of P1; the walks must visit each shared node once
    f = g = P1
    for _ in range(24):
        f = Implies(f, Not(Justifies(x1, Update(P2, f))))
        g = Implies(g, Not(g))
    def up_independent_under_p2(x):
        return _up_independent(P2, x)

    # up(P1) beside f, so the proviso walks all of f
    for walk, x, want in ((atm, f, {x1}), (prop_indices, f, {1, 2}),
                          (constants_in, f, set()),
                          (up_independent_under_p2, Implies(Justifies(Up(P1), P1), f), True),
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
