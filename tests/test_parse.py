import random
import sys
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from jus import parse
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


def _chain(*runs):
    """P1 joined by each run's operator in turn: _chain(("&", 2), ("|", 1))
    is "P1 & P1 & P1 | P1"."""
    return "".join(("P1 %s " % op) * n for op, n in runs) + "P1"


# Chains of binary operators without parentheses, at the cap. Each operator
# opens a level, and a run of one precedence keeps its levels open until a
# looser operator follows: runs that loosen fit the cap one by one, and runs
# that tighten add up. One more operator in the last run is one level past
# the cap. Not in strategies._DEEP, which test_printing prints at 5,000
# levels: a chain of <-> prints 2^n copies of its operands.
CHAINS_AT_CAP = [
    [("<->", MAX_NESTING)],
    [("&", MAX_NESTING), ("|", MAX_NESTING), ("->", MAX_NESTING), ("<->", MAX_NESTING)],
    [("&", 60), ("|", 50), ("<->", MAX_NESTING)],
    [("<->", 40), ("->", 30), ("|", 20), ("&", 10)],
    [("->", 1), ("&", 1), ("<->", 1), ("|", MAX_NESTING - 1)],
    [("|", 50), ("&", 30), ("|", 1), ("&", 49)],
]


@pytest.mark.parametrize("runs", CHAINS_AT_CAP)
def test_nesting_cap_of_operator_runs(runs):
    parse_formula(_chain(*runs))
    op, n = runs[-1]
    past = _chain(*runs[:-1], (op, n + 1))
    with pytest.raises(SourceError) as e:
        parse_formula(past)
    # the fault is at the operator that opens the level past the cap
    at = past.rindex(" %s " % op) + 2
    assert (e.value.position, e.value.message) == (
        at, "nested more than %d levels deep" % MAX_NESTING)


@given(formulas(8))
@settings(max_examples=300)
def test_round_trip(f):
    assert parse_formula(print_formula(f)) is f


# -- lexing and the group memo ----------------------------------------------

def test_offsets_count_characters():
    # 6 characters, 7 bytes in UTF-8: end-of-input is offset 7
    with pytest.raises(SourceError) as e:
        parse_formula("P\u0661 -> ")
    assert (e.value.position, e.value.message) == (7, "expected a formula")


def test_lexical_faults_come_before_grammar_faults():
    for text, want in [
        ("(P1 -> ) P0", (10, "index must be >= 1 in 'P0'")),
        ("P1 # (", (4, "unexpected character '#'")),
        ("P0 #", (1, "index must be >= 1 in 'P0'")),
        ("# P0", (1, "unexpected character '#'")),
        ("P1 -> P\u0660", (7, "index must be >= 1 in 'P\u0660'")),
    ]:
        with pytest.raises(SourceError) as e:
            parse_formula(text)
        assert (e.value.position, e.value.message) == want, text
    # a digit of another script is read by its value
    assert parse_formula("P\u0661 -> P10") == Implies(P1, Prop(10))


def test_overlong_index_is_a_lexical_fault():
    # int() converts at most sys.get_int_max_str_digits() digits; an index
    # with more is refused at its lexeme, in text order with the others
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts indices of any length")
    ones = "1" * (limit + 1)
    too_long = "index of %d digits is too long" % (limit + 1)
    for text, want in [
        ("P" + ones, (1, too_long)),
        ("P" + "0" * (limit + 1), (1, too_long)),
        ("P1 -> P0 -> P" + ones, (7, "index must be >= 1 in 'P0'")),
        ("P1 -> P" + ones + " -> P0 #", (7, too_long)),
        ("(P1 -> c" + ones + " : P1", (8, too_long)),
        ("x1 : P" + "\u0661" * (limit + 1), (6, too_long)),
    ]:
        with pytest.raises(SourceError) as e:
            parse_formula(text)
        assert (e.value.position, e.value.message) == want, text[:20]
    with pytest.raises(SourceError) as e:
        parse_term("(x" + ones + " *[P1] c1)")
    assert (e.value.position, e.value.message) == (2, too_long)
    # the longest index int() converts still parses, in any script
    assert parse_formula("P" + "1" * limit) == Prop(int("1" * limit))
    assert parse_formula("P" + "\u0661" * limit) == Prop(int("1" * limit))


def _outcome(text, groups=None):
    """The node parse_formula returns, or the (offset, message) it raises."""
    try:
        if groups is None:
            return parse_formula(text)
        return parse_formula(text, _groups=groups)
    except SourceError as e:
        return (e.position, e.message)


def _assert_same(got, want, text):
    if isinstance(want, tuple):
        assert got == want, text
    else:
        assert got is want, text


def _random_formula(rng, depth):
    def term(d):
        k = rng.randrange(4 if d > 0 else 2)
        if k == 0:
            return Constant(rng.randint(1, 2))
        if k == 1:
            return Variable(rng.randint(1, 2))
        if k == 2:
            return Up(formula(d - 1))
        return App(term(d - 1), formula(d - 1), term(d - 1))

    def formula(d):
        k = rng.randrange(5 if d > 0 else 1)
        if k == 0:
            return Prop(rng.randint(1, 3))
        if k == 1:
            return Not(formula(d - 1))
        if k == 2:
            return Implies(formula(d - 1), formula(d - 1))
        if k == 3:
            return Justifies(term(d - 1), formula(d - 1))
        return Update(formula(d - 1), formula(d - 1))

    return formula(depth)


def _mutated(rng, text):
    """text with one to three characters deleted, inserted or replaced."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(chars) + 1)
        new = rng.choice("()[]:~&|*-<>_Pcxup01 ")
        edit = rng.randrange(3)
        if edit == 0 and at < len(chars):
            del chars[at]
        elif edit == 1 or at == len(chars):
            chars.insert(at, new)
        else:
            chars[at] = new
    return "".join(chars)


def test_shared_group_memo_agrees_with_fresh_parses():
    # one memo over the whole corpus: every string parses to the same node,
    # or fails at the same offset with the same message, as on its own.
    # The strings are built from a small pool so that their groups repeat,
    # some printed as they are and 50,000 mutated; a run of "~" puts some
    # of them near the cap
    rng = random.Random(13)
    pool = [_random_formula(rng, rng.randint(2, 4)) for _ in range(300)]
    texts = []
    for _ in range(50000):
        f = rng.choice(pool)
        f = rng.choice([f, Not(f), Implies(rng.choice(pool), f), Update(rng.choice(pool), f)])
        printed = print_formula(f)
        texts += [printed] if rng.random() < 0.3 else []
        texts.append(_mutated(rng, printed))
        if rng.random() < 0.1:
            texts[-1] = "~" * rng.randint(80, MAX_NESTING) + texts[-1]
    for family, levels in AT_CAP:
        texts += [deep(family, levels), deep(family, levels + 1)]
    for runs in CHAINS_AT_CAP:
        op, n = runs[-1]
        texts += [_chain(*runs), _chain(*runs[:-1], (op, n + 1))]
    # application terms nested where a term stands, as right and as left
    # operands, at the cap and one level past it: the outermost "(" opens a
    # unary level and a group level, and each nested one a level
    for n in (MAX_NESTING - 1, MAX_NESTING):
        texts += ["(c1 *[P1] " * n + "x1" + ")" * n + " : P1",
                  "(c1 *[P1] " + "(" * (n - 1) + "x1" + " *[P1] x2)" * (n - 1) + ") : P1"]
    groups = {}
    for text in texts:
        _assert_same(_outcome(text, groups), _outcome(text), text)
    assert sum(isinstance(_outcome(t), tuple) for t in texts[:1000]) > 500


def test_group_memo_hits_keep_the_nesting_cap():
    group = "((P1 -> P2))"
    # the group opens 3 levels, so the one enclosing it opens 6
    enclosing = "(~%s)" % group
    groups = {}
    assert _outcome(group, groups) is Implies(P1, P2)
    assert _outcome(enclosing, groups) is Not(Implies(P1, P2))
    texts = ["~" * 98 + group, "(%s -> P3)" % ("~" * 96 + group)]
    texts += ["~" * n + enclosing for n in range(90, MAX_NESTING)]
    for text in texts:
        _assert_same(_outcome(text, groups), _outcome(text), text)
    # the last fit, and the first that does not, read through the memo
    assert isinstance(_outcome("~" * 93 + enclosing, groups), Not)
    with pytest.raises(SourceError, match="nested more than"):
        parse_formula("~" * 94 + enclosing, _groups=groups)
    with pytest.raises(SourceError) as e:
        parse_formula("~" * 98 + group, _groups=groups)
    assert e.value.position == 100  # the inner "(", as without the memo


def test_each_parse_reads_through_a_fresh_memo(monkeypatch):
    reads = []
    unary = parse._Parser.unary

    def counted(self):
        reads.append(self.end - len(self.tok))
        return unary(self)

    monkeypatch.setattr(parse._Parser, "unary", counted)
    text = "((P1 -> P2) -> (P1 -> P2))"
    for _ in range(2):
        reads.clear()
        assert parse_formula(text) is Implies(Implies(P1, P2), Implies(P1, P2))
        # the second "(P1 -> P2)", at offset 15, is a hit within the call,
        # so its P1 and P2 are not read; the first is read in every call
        assert reads == [0, 2, 8, 15]


def test_a_fault_after_a_memo_hit_is_read_in_one_pass(monkeypatch):
    # the fault is raised where the parser meets it, with no second parse
    # of the text without the memo
    reads = []
    unary = parse._Parser.unary

    def counted(self):
        reads.append(None)
        return unary(self)

    monkeypatch.setattr(parse._Parser, "unary", counted)
    group = "((P1 -> P2) -> (P2 -> P1))"
    groups = {}
    assert _outcome(group, groups) is Implies(Implies(P1, P2), Implies(P2, P1))
    for text, want in [
        (group + " ->", (len(group) + 4, "expected a formula")),
        (group + " P1", (len(group) + 2, "unexpected trailing input")),
        ("~" + group + " -> P0", (len(group) + 6, "index must be >= 1 in 'P0'")),
    ]:
        reads.clear()
        assert _outcome(text, groups) == want, text
        # the unaries before the hit, at it, and after it: none inside it
        assert 0 < len(reads) <= 3, text
        assert _outcome(text) == want, text


def test_failed_parses_leave_the_group_memo_sound():
    groups = {}
    failing = [
        "((P1 -> P2) -> )",
        "((P1 -> P2) -> (x1 *[P1] x2)",
        "((x1 *[P1] x2) P1)",
        "~" * 99 + "((P1 -> P2) -> P3)",
        "((P1 -> P2) -> P0)",
    ]
    for text in failing:
        assert isinstance(_outcome(text, groups), tuple)
    later = [
        "((P1 -> P2) -> P3)",
        "(P1 -> P2)",
        "((x1 *[P1] x2) : P1 -> (P1 -> P2))",
        "~" * 96 + "((P1 -> P2) -> P3)",
        "~" * 97 + "((P1 -> P2) -> P3)",
    ] + failing
    for text in later:
        _assert_same(_outcome(text, groups), _outcome(text), text)


# -- memo groups found by their raw text ------------------------------------

@pytest.fixture
def hits(monkeypatch):
    """The text of each memo entry the parser found at a "(", taken or
    not, each call of parse_formula counted afresh by the test."""
    found = []
    find = parse._find

    def counted(groups, text, p):
        hit = find(groups, text, p)
        if hit is not None:
            found.append(hit[0])
        return hit

    monkeypatch.setattr(parse, "_find", counted)
    return found


def test_memo_groups_match_across_spacing(hits):
    group = "((P1 -> P2) -> (c1 : P3 -> [P1] P2))"
    groups = {}
    node = _outcome(group, groups)
    for text in [
        group,
        "((P1->P2)->(c1:P3->[P1]P2))",
        "(\t(P1 ->\nP2)  ->  (c1 : P3\n->\t[P1] P2))",
        " ( (P1 -> P2) -> (c1 : P3 -> [P1] P2) )\n",
    ]:
        assert _outcome(text, groups) is node is _outcome(text)
        # and a group read once in one spacing serves it in the next text
        again = "(%s -> %s)" % (text, text)
        hits.clear()
        assert _outcome(again, groups) is Implies(node, node) is _outcome(again)
        assert hits


def test_memo_group_after_up_or_as_a_term(hits):
    groups = {}
    assert _outcome("((P1 -> P2) -> (x1 *[P1] x2) : P1)", groups) is not None
    assert {"(P1 -> P2)", "(x1 *[P1] x2)"} <= {entry[0] for entry in groups.values()}
    texts = []
    for n in range(MAX_NESTING - 6, MAX_NESTING + 1):
        texts += [
            # the parentheses of up(...) are no group, and are not looked up
            "~" * n + "up(P1 -> P2) : P3",
            "~" * n + "up((P1 -> P2)) : P3",
            # an application term where a term stands, and a formula group
            # where a term stands, which is no term
            "~" * n + "(c1 *[P2] (x1 *[P1] x2)) : P3",
            "~" * n + "(c1 *[P2] (P1 -> P2)) : P3",
            "~" * n + "((x1 *[P1] x2) *[P2] c1) : P3",
            "~" * n + "(x1 *[P1] x2) : P3",
            "~" * n + "(P1 -> P2) : P3",
        ]
    for text in texts:
        hits.clear()
        _assert_same(_outcome(text, dict(groups)), _outcome(text), text)
    hits.clear()
    assert _outcome("(c1 *[P2] (x1 *[P1] x2)) : P3", dict(groups)) is Justifies(
        App(Constant(1), P2, App(Variable(1), P1, Variable(2))), Prop(3))
    assert hits == ["(x1 *[P1] x2)"]


def test_memo_serves_a_term_group_in_formula_position(hits):
    # a "(" is read by one method wherever it stands, so an application
    # term read where a term stands is stored, and then serves a "(" in
    # formula position
    groups = {}
    assert _outcome("(c1 *[P2] (x1 *[P1] x2)) : P3", groups) is Justifies(
        App(Constant(1), P2, App(Variable(1), P1, Variable(2))), Prop(3))
    assert "(x1 *[P1] x2)" in {entry[0] for entry in groups.values()}
    for text in ["(x1 *[P1] x2) : P3", "((x1 *[P1] x2) *[P2] c1) : P3"]:
        hits.clear()
        _assert_same(_outcome(text, groups), _outcome(text), text)
        assert hits == ["(x1 *[P1] x2)"], text


def test_memo_entry_one_level_either_side_of_the_cap(hits):
    group = "((P1 -> P2) -> [P3] ~P1)"
    groups = {}
    assert _outcome(group, groups) is not None
    (levels,) = {entry[2] for entry in groups.values() if entry[0] == group}
    fits = MAX_NESTING - 1 - levels  # the unary reading of "(" opens one level
    for n, taken in [(fits - 1, True), (fits, True), (fits + 1, False)]:
        text = "~" * n + group
        hits.clear()
        got = _outcome(text, groups)
        _assert_same(got, _outcome(text), text)
        assert isinstance(got, tuple) is not taken, n
        # taken, or met and found not to fit: then it is read through, and
        # the groups inside it may be hits in turn
        assert hits[0] == group
    assert got[1] == "nested more than %d levels deep" % MAX_NESTING


def test_faults_around_memo_groups_read_as_without_the_memo(hits):
    first, second = "((P1 -> P2) -> P3)", "(x1 *[P1] x2)"
    groups = {}
    _outcome("(%s -> %s : P1)" % (first, second), groups)
    texts = []
    for before, between, after in [
        ("# ", " -> ", " : P1"),  # a lexical fault before the hits
        ("", " -> P0 -> ", " : P1"),  # one between them
        ("", " -> ", " : P1 #"),  # and one after them
        ("", " -> ", " : P1 -> P0"),
        ("-> ", " -> ", " : P1"),  # grammar faults
        ("", " -> -> ", " : P1"),
        ("", " -> ", " : P1 )"),
        ("", " -> ", " P1"),
        ("", " -> ", " :"),
        ("", " -> P1 -> ", ""),  # the term stands where a formula must
        ("", " -> ", " *[P1] c1) : P2"),
    ]:
        texts.append(before + first + between + second + after)
    for text in texts:
        hits.clear()
        got = _outcome(text, groups)
        want = _outcome(text)
        assert isinstance(want, tuple), text
        assert got == want, text


# -- the precedence loop against the grammar it replaced --------------------

class _NestedGrammar(parse._Parser):
    """The parser with its former reading of binary operators: one method
    per precedence, each calling the next tighter one for its operands."""

    def formula(self, first=None):
        left = self.impl(first)
        if self.tok != "<->":
            return left
        self.open()
        self.advance()
        return self.close(equiv(left, self.formula()))

    def impl(self, first=None):
        left = self.disj(first)
        if self.tok != "->":
            return left
        self.open()
        self.advance()
        return self.close(Implies(left, self.impl()))

    def disj(self, first=None):
        out = self.conj(first)
        depth = self.depth
        while self.tok == "|":
            self.open()
            self.advance()
            out = disj(out, self.conj())
        self.depth = depth
        return out

    def conj(self, first=None):
        out = self.unary() if first is None else first
        depth = self.depth
        while self.tok == "&":
            self.open()
            self.advance()
            out = conj(out, self.unary())
        self.depth = depth
        return out


def _readings(texts, parser):
    """Each text's outcome with parse._Parser swapped for parser: read with
    a fresh memo, and then through one memo shared by all of them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parse, "_Parser", parser)
        groups = {}
        return [_outcome(t) for t in texts] + [_outcome(t, groups) for t in texts]


def _assert_as_the_nested_grammar(texts):
    """Assert that both parsers read texts alike; returns the readings."""
    got = _readings(texts, parse._Parser)
    want = _readings(texts, _NestedGrammar)
    for g, w, text in zip(got, want, texts + texts):
        _assert_same(g, w, text)
    return got


def sugared(depth):
    """Texts of formulas with the derived connectives, each chain of binary
    operators parenthesized or not."""
    atoms = st.sampled_from(["P1", "P2", "_|_", "x1 : P1", "up(P2) : P1"])
    if depth <= 0:
        return atoms
    sub = st.deferred(lambda: sugared(depth - 1))
    links = st.lists(st.tuples(st.sampled_from(["&", "|", "->", "<->"]), sub),
                     min_size=1, max_size=4)
    chains = st.tuples(sub, links).map(
        lambda x: x[0] + "".join(" %s %s" % link for link in x[1]))
    return st.one_of(
        atoms,
        chains,
        chains.map("({})".format),
        sub.map("~{}".format),
        st.tuples(sub, sub).map("[{0[0]}] {0[1]}".format),
        st.tuples(sub, sub).map("(x1 *[{0[0]}] c1) : {0[1]}".format),
    )


@given(st.lists(sugared(3), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_sugar_reads_as_the_nested_grammar(texts):
    _assert_as_the_nested_grammar(texts)


def test_operator_soups_read_as_the_nested_grammar():
    # random token sequences, mostly faults, and chains of runs of the four
    # operators under prefixes and parentheses, some near the cap or past it
    rng = random.Random(21)
    tokens = ["P1", "P2", "x1", "c1", "up", "(", ")", "[", "]", ":", "~", "*", "_|_",
              "&", "|", "->", "<->", "&", "|", "->", "<->"]
    texts = []
    for _ in range(6000):
        texts.append(" ".join(rng.choice(tokens) for _ in range(rng.randint(1, 25))))
    for _ in range(1500):
        runs = [(rng.choice(["&", "|", "->", "<->"]), rng.choice([1, 2, 5, 30, 60, 101]))
                for _ in range(rng.randint(1, 5))]
        text = _chain(*runs).replace("P1 ", rng.choice(["P1 ", "~P1 ", "(P1) ", "x1 : P1 "]))
        if rng.random() < 0.3:
            text = "~" * rng.randint(1, 50) + "(" + text + ")"
        texts.append(_mutated(rng, text) if rng.random() < 0.3 else text)
    for runs in CHAINS_AT_CAP:
        op, n = runs[-1]
        texts += [_chain(*runs), _chain(*runs[:-1], (op, n + 1))]
    got = _assert_as_the_nested_grammar(texts)
    assert 100 < sum(isinstance(x, tuple) and "nested" in x[1] for x in got)
