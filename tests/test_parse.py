import time

import pytest
from hypothesis import given, settings

from jus.parse import SourceError, parse_formula, parse_term, print_formula, print_term
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
    falsum,
)

from strategies import formulas

P1, P2 = Prop(1), Prop(2)


def test_parse_update_justification():
    assert parse_formula("[P1] up(P1) : P1") == Update(P1, Justifies(Up(P1), P1))


def test_parse_negated_justification_scope():
    f = parse_formula("x1 : ~ up(P1) : P1")
    assert f == Justifies(Variable(1), Not(Justifies(Up(P1), P1)))


def test_parse_error_position():
    with pytest.raises(SourceError) as e:
        parse_formula("(P1 ->")
    assert e.value.position == 7  # dangling operator: offset one past the last byte


def test_parse_error_reports_the_reading_that_got_further():
    # "(" is read as an application term, which fails at the "]" where its
    # annotation needs a formula, and as a parenthesized formula, which
    # fails already at the "*" after x1
    with pytest.raises(SourceError) as e:
        parse_formula("(x1 *[(] -> P1)] x2) : P1")
    assert (e.value.position, e.value.message) == (8, "expected a formula")
    # the term reading succeeds but no ':' follows it
    for text in ("(x1 *[P1] x2) P1", "(x1 *[P1] x2) -> P1"):
        with pytest.raises(SourceError) as e:
            parse_formula(text)
        assert (e.value.position, e.value.message) == (15, "expected ':' after a term")


def test_parse_term_examples():
    assert parse_term("c1") == Constant(1)
    assert parse_term("(c1 *[P1] x2)") == App(Constant(1), P1, Variable(2))
    assert parse_term("up(P1 -> P2)") == Up(Implies(P1, P2))


def test_print_examples():
    assert print_formula(Update(P1, Justifies(Up(P1), P1))) == "[P1] up(P1) : P1"
    assert print_formula(Not(P1)) == "~P1"
    assert print_formula(Implies(P1, P2)) == "(P1 -> P2)"
    assert print_term(App(Constant(1), P1, Variable(2))) == "(c1 *[P1] x2)"


def test_sugar_parses_to_core():
    assert parse_formula("P1 & P2") == conj(P1, P2)
    assert parse_formula("P1 | P2") == disj(P1, P2)
    assert parse_formula("P1 <-> P2") == equiv(P1, P2)
    assert parse_formula("_|_") == falsum()


def test_precedence_reading():
    # colon, negation and announcement all grab the rest of the unary chain
    f = parse_formula("x1 : ~ [P1] x2 : P1 -> P2")
    want = Implies(
        Justifies(Variable(1), Not(Update(P1, Justifies(Variable(2), P1)))),
        P2,
    )
    assert f == want


def test_arrow_right_associative():
    assert parse_formula("P1 -> P2 -> P1") == Implies(P1, Implies(P2, P1))


def test_trailing_input_rejected():
    with pytest.raises(SourceError):
        parse_formula("P1 P2")
    with pytest.raises(SourceError):
        parse_term("c1 c2")


def test_zero_index_rejected():
    for text in ("P0", "c0 : P1", "x0 : P1"):
        with pytest.raises(SourceError):
            parse_formula(text)


def test_error_positions_inside_input():
    for text in ("", "(P1", "P1 ->", "[P1 P2", "up(", "c1 *", "?"):
        with pytest.raises(SourceError) as e:
            parse_formula(text)
        assert 1 <= e.value.position <= len(text) + 1
        assert e.value.message


def test_nested_annotations_parse_in_linear_time():
    # each "(" first tries the application-term reading and backs off, so
    # without memoised terms every level re-parses the levels inside it
    text = "P1"
    for _ in range(18):
        text = "(x1 *[(%s -> P1)] x2) : P1" % text
    start = time.perf_counter()
    f = parse_formula(text)
    assert time.perf_counter() - start < 1.0
    assert f.term == App(Variable(1), f.term.annotation, Variable(2))
    assert parse_formula(print_formula(f)) is f


@given(formulas(8))
@settings(max_examples=300)
def test_round_trip(f):
    assert parse_formula(print_formula(f)) is f
