import time

import pytest
from hypothesis import given, settings

from jus.cli import main
from jus.parse import (
    MAX_NESTING,
    SourceError,
    parse_formula,
    parse_term,
    print_formula,
    print_term,
)
from jus.semantics import EvalContext, holds
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

from strategies import deep, formulas

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
    # "*" after x1 makes the "(" an application term, which fails at the
    # "]" where its annotation needs a formula
    with pytest.raises(SourceError) as e:
        parse_formula("(x1 *[(] -> P1)] x2) : P1")
    assert (e.value.position, e.value.message) == (8, "expected a formula")
    # a whole application term, but no ':' follows it
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
    # every "(" is read once, whatever nests inside its annotation
    text = "P1"
    for _ in range(18):
        text = "(x1 *[(%s -> P1)] x2) : P1" % text
    start = time.perf_counter()
    f = parse_formula(text)
    assert time.perf_counter() - start < 1.0
    assert f.term == App(Variable(1), f.term.annotation, Variable(2))
    assert parse_formula(print_formula(f)) is f


# Each branch of the "(" decision and the ties between its two readings:
# the printed result, or the (offset, message) of the error
PAREN_CASES = [
    # a term, then "*": an application term
    ("(x1 *[P1] x2) : P1", "(x1 *[P1] x2) : P1"),
    ("((x1 *[P1] x2) *[P2] c1) : P2", "((x1 *[P1] x2) *[P2] c1) : P2"),
    # a term, then ":": a justification the parenthesized formula goes on from
    ("(x1 : P1)", "x1 : P1"),
    ("(x1 : P1 -> P2)", "(x1 : P1 -> P2)"),
    ("((x1 *[P1] x2) : P1 -> P1)", "((x1 *[P1] x2) : P1 -> P1)"),
    ("(up(P1) : P1 | P2)", "(~up(P1) : P1 -> P2)"),
    # a formula first: a parenthesized formula
    ("(~P1 & P2)", "~(~P1 -> ~P2)"),
    ("((P1) -> P2)", "(P1 -> P2)"),
    # a term, then anything else
    ("(x1)", (4, "expected ':' after a term")),
    ("(x1 P1", (5, "expected ':' after a term")),
    ("((x1 *[P1] x2) P1)", (16, "expected ':' after a term")),
    ("(x1 *[P1] x2)", (14, "expected ':' after a term")),
    # a formula, then "*"
    ("((P1) *[P2] x1) : P1", (7, "expected ')'")),
    ("((x1 : P1) *[P2] x1)", (12, "expected ')'")),
    # neither
    ("()", (2, "expected a formula")),
    ("(x1 *", (6, "expected '['")),
]


@pytest.mark.parametrize("text, want", PAREN_CASES)
def test_paren_decision(text, want):
    if isinstance(want, str):
        assert print_formula(parse_formula(text)) == want
        return
    with pytest.raises(SourceError) as e:
        parse_formula(text)
    assert (e.value.position, e.value.message) == want


# The most levels of each family under MAX_NESTING. A level is an open
# unary, "(" or term reading with a part inside, or a binary operator:
# the outermost "(" sits in one more unary level, "up(" and an application
# annotation cost two levels each (the term or "(", and the unary reading
# inside), and a printed implication "(A -> B)" three (unary, "(", "->").
AT_CAP = [
    ("~", MAX_NESTING),
    ("(", MAX_NESTING - 1),
    ("->", MAX_NESTING // 3),
    ("[C]", MAX_NESTING),
    ("[[C]...]", MAX_NESTING),
    ("t :", MAX_NESTING),
    ("up(", MAX_NESTING // 2),
    ("application left", MAX_NESTING - 1),
    ("application annotation", MAX_NESTING // 2),
    ("-> chain", MAX_NESTING),
    ("&", MAX_NESTING),
    ("|", MAX_NESTING),
]


@pytest.mark.parametrize("family, levels", AT_CAP)
def test_nesting_cap(family, levels, two_world, two_world_path, capsys):
    f = parse_formula(deep(family, levels))
    if family not in ("-> chain", "&", "|"):
        # printing adds the parentheses and connectives a chain leaves
        # out, so only these texts print within the cap
        assert parse_formula(print_formula(f)) is f
    value = holds(EvalContext(two_world), "w", f)  # P1 holds at w
    if family == "~":
        assert value == (levels % 2 == 0)
    with pytest.raises(SourceError, match="nested more than %d levels" % MAX_NESTING):
        parse_formula(deep(family, levels + 1))
    assert main(["eval", two_world_path, "w", deep(family, levels + 1)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("formula does not parse: ") and "Traceback" not in err


def test_nesting_counts_one_path():
    # each reading closes its levels when it is read, so three texts five
    # levels short of the cap fit side by side
    for family, levels in AT_CAP:
        text = deep(family, levels - 5)
        parse_formula("[%s] [%s] %s" % (text, text, text))


@given(formulas(8))
@settings(max_examples=300)
def test_round_trip(f):
    assert parse_formula(print_formula(f)) is f
