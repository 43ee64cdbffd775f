"""The printer and the whole-formula walks on shared and deep DAGs.

print_formula and print_term format each distinct node once, children
first, so a formula whose sugar shares its operands prints in time linear
in its output, and no depth overflows the stack. atm, subformulas,
constants_in, prop_indices and length walk the same way."""

import functools
import time

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from jus import parse
from jus.explore import ModelSignature, signature_for, signature_to_json
from jus.parse import parse_formula, print_formula, print_term
from jus.syntax import (
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
    constants_in,
    disj,
    equiv,
    eval_closure,
    length,
    prop_indices,
    subformulas,
)

from strategies import _DEEP, deep, formulas, terms

P1 = Prop(1)
x1, x2 = Variable(1), Variable(2)


# -- the recursive printer the one-pass printer replaced ---------------------

def _recursive_term(t):
    if isinstance(t, Constant):
        return "c%d" % t.index
    if isinstance(t, Variable):
        return "x%d" % t.index
    if isinstance(t, Up):
        return "up(%s)" % _recursive_formula(t.body)
    if isinstance(t, App):
        return "(%s *[%s] %s)" % (_recursive_term(t.left), _recursive_formula(t.annotation),
                                  _recursive_term(t.right))
    raise TypeError("expected a term, got %r" % (t,))


def _recursive_formula(f):
    if isinstance(f, Prop):
        return "P%d" % f.index
    if isinstance(f, Not):
        return "~%s" % _recursive_formula(f.body)
    if isinstance(f, Implies):
        return "(%s -> %s)" % (_recursive_formula(f.left), _recursive_formula(f.right))
    if isinstance(f, Justifies):
        return "%s : %s" % (_recursive_term(f.term), _recursive_formula(f.body))
    if isinstance(f, Update):
        return "[%s] %s" % (_recursive_formula(f.announcement), _recursive_formula(f.body))
    raise TypeError("expected a formula, got %r" % (f,))


@given(formulas(4))
@settings(max_examples=300)
def test_formulas_print_as_the_recursive_printer_prints_them(f):
    assert print_formula(f) == _recursive_formula(f)


@given(terms(3))
@settings(max_examples=300)
def test_terms_print_as_the_recursive_printer_prints_them(t):
    assert print_term(t) == _recursive_term(t)


@given(st.lists(formulas(2), min_size=1, max_size=7), st.sampled_from([equiv, conj]))
def test_shared_chains_print_as_the_recursive_printer_prints_them(operands, sugar):
    # <-> holds each operand twice and & holds its right one under a
    # shared Not; as the parser builds them, <-> nests to the right and &
    # to the left
    if sugar is equiv:
        f = functools.reduce(lambda right, left: equiv(left, right), reversed(operands))
    else:
        f = functools.reduce(conj, operands)
    assert print_formula(f) == _recursive_formula(f)
    assert parse_formula(print_formula(f)) is f


def test_printing_enters_print_formula_once_per_call(monkeypatch):
    # the chain prints to 2^12 copies of its operands: a printer that
    # called itself per copy would be entered thousands of times
    f = parse_formula(" <-> ".join("P%d" % i for i in range(1, 13)))
    calls = []
    real = parse.print_formula

    def spy(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(parse, "print_formula", spy)
    text = parse.print_formula(f)
    assert calls == [f]
    assert text == _recursive_formula(f)


def test_printing_refuses_what_is_not_of_its_kind():
    with pytest.raises(TypeError, match="expected a term, got Prop"):
        print_term(P1)
    # a child not of its kind is refused when the node is built
    with pytest.raises(TypeError, match="Not body must be a Formula, got 'x'"):
        Not("x")
    with pytest.raises(TypeError, match="Implies left must be a Formula, got Variable"):
        Implies(x1, P1)
    with pytest.raises(TypeError, match="expected a formula"):
        print_formula(x1)
    for walk in (atm, subformulas, constants_in, prop_indices, length):
        with pytest.raises(TypeError, match="expected a term or formula"):
            walk("P1")


# -- every nesting family of strategies._DEEP, built through the library -----

def _nest(step, n, core=P1):
    for _ in range(n):
        core = step(core)
    return core


# per family: the formula of n levels, built as the parser reads deep(family, n)
BUILT = {
    "~": lambda n: _nest(Not, n),
    "(": lambda n: P1,
    "->": lambda n: _nest(lambda f: Implies(P1, f), n),
    "[C]": lambda n: _nest(lambda f: Update(P1, f), n),
    "[[C]...]": lambda n: _nest(lambda f: Update(f, P1), n),
    "t :": lambda n: _nest(lambda f: Justifies(x1, f), n),
    "up(": lambda n: _nest(lambda f: Justifies(Up(f), P1), n),
    "application left": lambda n: Justifies(_nest(lambda t: App(t, P1, x2), n, x1), P1),
    "application annotation": lambda n: _nest(lambda f: Justifies(App(x1, f, x2), P1), n),
    "-> chain": lambda n: _nest(lambda f: Implies(P1, f), n),
    "&": lambda n: _nest(lambda f: conj(f, P1), n),
    "|": lambda n: _nest(lambda f: disj(f, P1), n),
}

# per family, for n >= 1 levels: the printed text, the number of atomic
# subterms, of subformulas, and the length
CLOSED = {
    "~": (lambda n: "~" * n + "P1", lambda n: 0, lambda n: n + 1, lambda n: n + 1),
    "(": (lambda n: "P1", lambda n: 0, lambda n: 1, lambda n: 1),
    "->": (lambda n: deep("->", n), lambda n: 0, lambda n: n + 1, lambda n: 2 * n + 1),
    "[C]": (lambda n: deep("[C]", n), lambda n: 0, lambda n: n + 1, lambda n: 2 * n + 1),
    "[[C]...]": (lambda n: deep("[[C]...]", n), lambda n: 0, lambda n: n + 1,
                 lambda n: 2 * n + 1),
    "t :": (lambda n: deep("t :", n), lambda n: 1, lambda n: n + 1, lambda n: 2 * n + 1),
    # up(A) is atomic, and every level adds one: up(P1), up(up(P1) : P1), ...
    "up(": (lambda n: deep("up(", n), lambda n: n, lambda n: 2, lambda n: 3),
    "application left": (lambda n: deep("application left", n), lambda n: 2, lambda n: 2,
                         lambda n: 3 * n + 3),
    "application annotation": (lambda n: deep("application annotation", n), lambda n: 2,
                               lambda n: 2, lambda n: 5 * n + 1),
    "-> chain": (lambda n: deep("->", n), lambda n: 0, lambda n: n + 1, lambda n: 2 * n + 1),
    "&": (lambda n: "~(" * n + "P1" + " -> ~P1)" * n, lambda n: 0, lambda n: 2 * n + 2,
          lambda n: 4 * n + 1),
    "|": (lambda n: "(~" * n + "P1" + " -> P1)" * n, lambda n: 0, lambda n: 2 * n + 1,
          lambda n: 3 * n + 1),
}


def test_every_deep_family_is_built_and_closed():
    assert set(BUILT) == set(CLOSED) == set(_DEEP)


@pytest.mark.parametrize("family", sorted(_DEEP))
def test_built_families_are_what_the_parser_reads(family):
    printed, atoms, subs, size = CLOSED[family]
    for n in (1, 2, 3, 7):
        f = BUILT[family](n)
        assert f is parse_formula(deep(family, n))
        assert print_formula(f) == printed(n) == _recursive_formula(f)
        assert (len(atm(f)), len(subformulas(f)), length(f)) == (atoms(n), subs(n), size(n))


@pytest.mark.parametrize("family", sorted(_DEEP))
def test_deep_families_print_and_walk_at_5000_levels(family):
    n = 5000
    f = BUILT[family](n)
    printed, atoms, subs, size = CLOSED[family]
    assert print_formula(f) == printed(n)
    got = atm(f)
    assert len(got) == atoms(n)
    if family == "up(":
        assert all(isinstance(t, Up) for t in got)
    elif family == "t :":
        assert got == {x1}
    elif family.startswith("application"):
        assert got == {x1, x2}
    assert len(subformulas(f)) == subs(n)
    assert all(isinstance(g, Formula) for g in subformulas(f))
    assert constants_in(f) == frozenset()
    assert prop_indices(f) == {1}
    assert length(f) == size(n)


def test_deep_terms_print_at_5000_levels():
    t = _nest(lambda s: App(s, P1, x2), 5000, x1)
    assert isinstance(t, Term)
    assert print_term(t) == "(" * 5000 + "x1" + " *[P1] x2)" * 5000
    assert print_term(_nest(lambda s: Up(Justifies(s, P1)), 5000, x1)) == \
        "up(" * 5000 + "x1" + " : P1)" * 5000


def _signature_printing_each(f, max_worlds, max_nonnormal):
    """signature_for with its sort keys printed one by one, as before it
    printed them all in one pass."""
    atoms = set(atm(f)) | {Up(g.announcement) for g in subformulas(f) if isinstance(g, Update)}
    return ModelSignature(tuple(sorted(prop_indices(f))), tuple(sorted(atoms, key=print_term)),
                          max_worlds, max_nonnormal,
                          tuple(sorted(eval_closure(f), key=print_formula)))


@settings(max_examples=300, deadline=None)
@given(formulas(4))
def test_signature_for_sorts_as_printing_each(f):
    got = signature_for(f, 3, 1)
    want = _signature_printing_each(f, 3, 1)
    assert got == want
    assert signature_to_json(got) == signature_to_json(want)


@pytest.mark.parametrize("family", sorted(_DEEP))
def test_signature_for_deep_families_sorts_as_printing_each(family):
    for n in (1, 2, 3, 7, 40):
        f = BUILT[family](n)
        assert signature_to_json(signature_for(f)) == \
            signature_to_json(_signature_printing_each(f, 2, 1)), n


def test_signature_for_1000_application_annotations():
    # (x1 *[(x1 *[...] x2) : P1] x2) : P1: the closure splits each level's
    # application, so it holds 4,001 formulas, each printed once
    f = BUILT["application annotation"](1000)
    start = time.perf_counter()
    sig = signature_for(f)
    assert time.perf_counter() - start < 0.5
    assert sig.atoms == (x1, x2)
    assert len(sig.v1_support) == 4001
    printed = list(map(parse._printed(sig.v1_support)[0].__getitem__, sig.v1_support))
    assert printed == sorted(printed)


@pytest.mark.parametrize("family", ["~", "t :"])
def test_signature_for_a_1000_deep_chain(family):
    f = BUILT[family](1000)
    sig = signature_for(f, max_worlds=1, max_nonnormal=0)
    assert sig.propositions == (1,)
    assert sig.atoms == ((x1,) if family == "t :" else ())
    assert len(sig.v1_support) == 1001
    assert sig.v1_support[0] is P1
