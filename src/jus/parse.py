"""Concrete syntax: lexer, parser, canonical printer.

Grammar sketch (the three prefix forms bind to the following unary operand):

    formula  :=  unary (binop unary)*
    unary    :=  "~" unary  |  "[" formula "]" unary  |  term ":" unary
              |  "(" formula ")"  |  "P"int  |  "_|_"
    term     :=  "c"int  |  "x"int  |  "up(" formula ")"
              |  "(" term "*[" formula "]" term ")"

A chain of binary operators is read by one precedence loop (Pratt's top
down operator precedence) over the table _BINARY, loosest first:

    <->  0  equiv    right-associative
    ->   1  Implies  right-associative
    |    2  disj     left-associative
    &    3  conj     left-associative

The loop reads the operators of at least its floor precedence, and each
right operand by a loop whose floor is the operator's precedence, or one
more if it is left-associative: P1 -> P2 -> P3 is P1 -> (P2 -> P3).

Derived connectives (&, |, <->, _|_) are expanded while parsing and the
printer never emits them, so printing is injective on stored shapes.

The printer is one children-first pass (syntax._postorder) that formats
each distinct node once, from its children's printed forms. So it prints
each shared node once, its time is linear in its output, and no depth
overflows the stack. One pass may print several roots, as signature_for
does to get the sort keys of a whole evaluation closure. The output
itself repeats a shared node at each of its places, so a chain of <->
prints 2^n copies of its n operands.

The parser lexes one lexeme at a time from its own offset in the text,
with one pattern that matches every lexeme of the language and any other
non-space character alone, so it knows each token's offset and raises a
fault where it meets it. Indices are read with int, so digits of other
scripts count by their value; an index of value 0, or of more digits
than int converts, is a lexical fault. Lexical faults come before
grammar faults: every lexeme the parser has read past is sound, so at a
grammar fault it scans the rest of the text for the first lexical fault,
and raises that one if there is one.

A "(" that opens a group is read by one method, group, wherever it
stands. In formula position the group is an application term or a
parenthesized formula, read once: its first operand is a term, a
formula, or a nested "(" read the same way. After a term, the next token
decides: "*" continues an application term, ":" opens a justification
that the parenthesized formula continues from, and anything else is
"expected ':' after a term" at that token. Where a term stands, the
group is an application term: its first operand is a term, and "*"
follows it.

Nesting is capped at MAX_NESTING levels, so the parser's stack and the
depth of what it returns stay bounded. Each unary, "(" and term reading
with a part inside (all but P1, _|_, c1 and x1) opens a level until it
is read. So does each binary operator, and a run of one precedence keeps
its levels open until a looser operator follows, which opens its level
where the run began: P1 & P1 | P1 | P1 is two levels deep, P1 | P1 & P1 &
P1 three. One level more is a SourceError at the token that opens it.
Printing parenthesizes implications and expands derived connectives, so
a chain near the cap can print deeper than the cap.

Printed formulas repeat their subformulas, so a group memo keeps groups
by their raw text: a group read to its ")", in formula position or where
a term stands, stores the text from the one to the other, what it parsed
to, and the most levels it opened. The memo holds one group per key, the
group's first _LONG characters, or its first _SHORT when it is shorter;
shorter groups are not kept. Where a "(" opens a group (in formula
position, or where a term stands) the parser looks the group up at its
offset p: it tries text[p:p + _LONG] and then text[p:p + _SHORT], and
confirms a group with text.startswith(group, p). Only one group opens at
a "(", and which ")" closes it depends only on the characters between,
so a confirmed group is the group that opens there, and it reads as it
did before. A hit is taken when it is of the kind needed (a term where a
term stands) and fits under the cap at the current depth; its levels
count as those of the reading it replaces, and lexing resumes just past
its text. Otherwise the group is read as if the memo did not hold it. A
hit holds no fault of its own, since only groups read to their ")" are
stored, so a failed parse leaves the memo sound. parse_formula and
parse_term use a fresh memo per call; proof_from_json shares one across
the steps of one file, and it dies with that call.
"""

from __future__ import annotations

import re

from .syntax import (
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
    _PARENTS,
    _postorder,
    conj,
    disj,
    equiv,
    falsum,
)


MAX_NESTING = 100  # see the module docstring


class SourceError(Exception):
    """Rejected input. The offset is 1-based, counting characters from the
    start of the text; end-of-input faults point one past the last
    character."""

    def __init__(self, position: int, message: str):
        super().__init__("at offset %d: %s" % (position, message))
        self.position = position
        self.message = message


# the spaces before a lexeme, and the lexeme: any lexeme of the language,
# or any other non-space character alone
_LEXEMES = re.compile(r"\s*([Pcx]\d+|up|<->|->|_\|_|\S)")
_SYMBOLS = frozenset(["up", "<->", "->", "_|_", "(", ")", "[", "]", ":", "~", "&", "|", "*"])
# group memo key lengths (see the module docstring): "(P1 -> P2)" is kept,
# and the groups of a printed proof seldom share their first 40 characters
_SHORT, _LONG = 10, 40
# binary operator -> (precedence, builder, right-associative); see the module docstring
_BINARY = {"<->": (0, equiv, True), "->": (1, Implies, True),
           "|": (2, disj, False), "&": (3, conj, False)}


def _echo(x) -> str:
    """x's repr for an error line, cut short when long."""
    r = repr(x)
    return r if len(r) <= 60 else r[:57] + "..."


def _fault(lexeme: str):
    """Why a lexeme that _LEXEMES matches is not one of the language, or
    None."""
    if lexeme in _SYMBOLS:
        return None
    if len(lexeme) == 1:
        return "unexpected character %r" % lexeme
    try:
        index = int(lexeme[1:])
    except ValueError:  # more digits than int() converts (sys.set_int_max_str_digits)
        return "index of %d digits is too long" % (len(lexeme) - 1)
    if index < 1:
        return "index must be >= 1 in %s" % _echo(lexeme)
    return None


def _find(groups: dict, text: str, p: int):
    """The memo's entry for the group that opens at offset p of text, or
    None. Only one group opens at p, so a kept group text that text
    continues with at p is that group."""
    hit = groups.get(text[p:p + _LONG])
    if hit is None or not text.startswith(hit[0], p):
        hit = groups.get(text[p:p + _SHORT])
        if hit is None or not text.startswith(hit[0], p):
            return None
    return hit


class _Parser:
    def __init__(self, text: str, groups: dict):
        self.text = text
        # group text[:_LONG] or [:_SHORT] -> (group text, node, most levels it opens)
        self.groups = groups
        self.end = 0  # the offset just past the current token
        self.advance()
        # open levels; a failed parse is never resumed, so only returns close them
        self.depth = 0
        self.peak = 0  # the most levels open since the innermost group began

    def advance(self):
        """Lex the next token, self.tok: "" at the end of the text."""
        m = _LEXEMES.match(self.text, self.end)
        if m is None:  # only spaces are left
            self.tok, self.end = "", len(self.text)
        else:
            self.tok, self.end = m[1], m.end()

    def fail(self, message: str):
        """Raise at the current token, or at the first lexical fault from
        there on: every lexeme before it was read past, so none of them is
        one."""
        at = self.end - len(self.tok)
        for m in _LEXEMES.finditer(self.text, at):
            why = _fault(m[1])
            if why is not None:
                raise SourceError(m.start(1) + 1, why)
        raise SourceError(at + 1, message)

    def expect(self, lexeme, what):
        if self.tok != lexeme:
            self.fail("expected %s" % what)
        self.advance()

    def index(self) -> int:
        """The index of the current token, a numeral, read past it."""
        try:
            index = int(self.tok[1:])
        except ValueError:  # no digits, or more than int() converts
            index = 0
        if index < 1:
            self.fail(_fault(self.tok))
        self.advance()
        return index

    def open(self):
        """Open a level at the current token."""
        depth = self.depth = self.depth + 1
        if depth > self.peak:
            if depth > MAX_NESTING:
                self.fail("nested more than %d levels deep" % MAX_NESTING)
            self.peak = depth

    def close(self, node):
        self.depth -= 1
        return node

    def recall(self, kind):
        """The node of the group that opens at the current "(" if the memo
        holds it, it is of kind, and it fits under the cap, read past it;
        else None (see the module docstring)."""
        p = self.end - 1  # the offset of the "("
        hit = self.groups and _find(self.groups, self.text, p)
        if not hit:
            return None
        group, node, levels = hit
        if not isinstance(node, kind) or self.depth + levels > MAX_NESTING:
            return None
        self.peak = max(self.peak, self.depth + levels)
        self.end = p + len(group)
        self.advance()
        return node

    def formula(self, first=None, floor=0) -> Formula:
        """A chain of operators of precedence floor or more, from its first
        operand on, or from first when the caller has read it."""
        left = self.unary() if first is None else first
        base, run = self.depth, None
        while True:
            row = _BINARY.get(self.tok)
            if row is None or row[0] < floor:
                self.depth = base
                return left
            prec, build, right = row
            if prec != run:  # a looser operator: the run before it is read
                self.depth, run = base, prec
            self.open()
            self.advance()
            left = build(left, self.formula(None, prec if right else prec + 1))

    def unary(self) -> Formula:
        tok = self.tok
        if tok[:1] == "P":
            return Prop(self.index())
        if tok == "_|_":
            self.advance()
            return falsum()
        self.open()
        if tok == "~":
            self.advance()
            return self.close(Not(self.unary()))
        if tok == "[":
            self.advance()
            announcement = self.formula()
            self.expect("]", "']'")
            return self.close(Update(announcement, self.unary()))
        got = self.operand()
        if got is None:
            self.fail("expected a formula")
        return self.close(self.justified(got) if isinstance(got, Term) else got)

    def operand(self):
        """A term, or what group reads; None when neither starts here."""
        tok = self.tok
        if tok == "(":
            return self.group()
        if tok[:1] in ("c", "x") or tok == "up":
            return self.term()
        return None

    def justified(self, term: Term) -> Formula:
        self.expect(":", "':' after a term")
        return Justifies(term, self.unary())

    def group(self, kind=(Formula, Term)):
        """A "(" group of kind, in formula position unless kind is Term,
        found in the group memo or read once (see the module docstring)."""
        node = self.recall(kind)
        if node is not None:
            return node
        p, depth, peak = self.end - 1, self.depth, self.peak
        self.peak = depth
        self.open()
        self.advance()
        first = self.term() if kind is Term else self.operand()
        if kind is Term or isinstance(first, Term) and self.tok == "*":
            node = self.application(first)
        else:
            if isinstance(first, Term):
                first = self.justified(first)
            node = self.formula(first)
        end = self.end  # past the ")" expected here
        self.expect(")", "')'")
        self.depth = depth
        group = self.text[p:end]
        if len(group) >= _SHORT:
            key = group[:_LONG] if len(group) >= _LONG else group[:_SHORT]
            self.groups[key] = (group, node, self.peak - depth)
        self.peak = max(peak, self.peak)
        return node

    def term(self) -> Term:
        tok = self.tok
        if tok[:1] == "c":
            return Constant(self.index())
        if tok[:1] == "x":
            return Variable(self.index())
        if tok == "(":
            return self.group(Term)
        self.open()
        if tok == "up":
            self.advance()
            self.expect("(", "'(' after up")
            body = self.formula()
            self.expect(")", "')'")
            return self.close(Up(body))
        self.fail("expected a term")

    def application(self, left: Term) -> Term:
        """An application term after its left operand, up to its ")"."""
        self.expect("*", "'*'")
        self.expect("[", "'['")
        annotation = self.formula()
        self.expect("]", "']'")
        return App(left, annotation, self.term())


def _whole(text: str, read, groups: dict):
    p = _Parser(text, groups)
    got = read(p)
    if p.tok:
        p.fail("unexpected trailing input")
    return got


def parse_formula(text: str, *, _groups: dict = None) -> Formula:
    """Parse a formula; raises SourceError with a 1-based offset on bad input.

    `_groups` is proof_from_json's group memo for the steps of one file;
    every other call reads through a fresh one."""
    return _whole(text, _Parser.formula, {} if _groups is None else _groups)


def parse_term(text: str) -> Term:
    """Parse a bare term (as used in evidence keys and constant specs)."""
    return _whole(text, _Parser.term, {})


def _printed(roots) -> tuple:
    """The dicts (formulas, terms) from each node reachable from the
    sequence roots to its text, by one children-first pass over them all
    (see the module docstring)."""
    fs, ts = {}, {}
    for y in _postorder(roots, _PARENTS):
        cls = y.__class__
        if cls is Prop:
            fs[y] = "P%d" % y.index
        elif cls is Not:
            fs[y] = "~" + fs[y.body]
        elif cls is Implies:
            fs[y] = "(%s -> %s)" % (fs[y.left], fs[y.right])
        elif cls is Justifies:
            fs[y] = "%s : %s" % (ts[y.term], fs[y.body])
        elif cls is Update:
            fs[y] = "[%s] %s" % (fs[y.announcement], fs[y.body])
        elif cls is Constant:
            ts[y] = "c%d" % y.index
        elif cls is Variable:
            ts[y] = "x%d" % y.index
        elif cls is Up:
            ts[y] = "up(%s)" % fs[y.body]
        elif cls is App:
            ts[y] = "(%s *[%s] %s)" % (ts[y.left], fs[y.annotation], ts[y.right])
    return fs, ts


def print_term(t: Term) -> str:
    if not isinstance(t, Term):
        raise TypeError("expected a term, got %r" % (t,))
    return _printed((t,))[1][t]


def print_formula(f: Formula) -> str:
    """Canonical rendering; parse_formula(print_formula(f)) is f.

    Implications are always parenthesized, every other shape is unambiguous
    without parens, and derived connectives never appear.
    """
    if not isinstance(f, Formula):
        raise TypeError("expected a formula, got %r" % (f,))
    return _printed((f,))[0][f]
