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

Lexing is findall of the re module over the text, or over the stretches
of it that the cover pass below leaves, which yields every lexeme and
any other non-space character alone; the parser works on that list of
strings. Only the distinct matches are checked in Python, so a text with
a fault costs one more pass, which finds the first fault in text order:
a character no lexeme starts with, an index of value 0, or one of more
digits than int converts. Indices are read with int, so digits of other
scripts count by their value, and the parser's own reads cannot fail on
a text that lexed. Offsets are worked out only when an error is raised,
by counting lexemes again.

A "(" in formula position (an application term or a parenthesized
formula) is read once. Its first operand is a term, a formula, or a
nested "(" read the same way. After a term, the next token decides: "*"
continues an application term, ":" opens a justification that the
parenthesized formula continues from, and anything else is "expected ':'
after a term" at that token.

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
by their raw text: a "(" in formula position read to its ")" stores the
text from the one to the other, what it parsed to, and the most levels
it opened. The memo holds one group per key, the group's first _LONG
characters, or its first _SHORT when it is shorter; shorter groups are
not kept. A lookup at offset p tries text[p:p + _LONG] and then
text[p:p + _SHORT], and confirms a group with text.startswith(group, p).
Only one group opens at a "(", and which ")" closes it depends only on
the characters between, so a confirmed group is the group that opens
there, and it reads as it did before.

When the memo is not empty, a cover pass runs before lexing. From each
"(" outside a hit, left to right, it looks the group up; a hit is
replaced by one token, the memo entry itself, and only the text between
hits is lexed. The parser takes such a token where a group stands, or
where a term stands if it read as an application term, when it fits
under the cap at the current depth; its levels count as those of the
reading it replaces. Anywhere else, or when it does not fit, the parse
fails, and the text is parsed again with an empty memo: that parse gives
the fault and its offset, and lexical faults still come before grammar
faults. A hit holds no fault of its own, since only groups read to their
")" are stored, so a failed parse also leaves the memo sound. A "(" that
was lexed is looked up again when the parser reaches it, so a group read
earlier in the same parse is a hit too: if it fits, the parser jumps
over as many tokens as its first reading took; if not, it is read again,
and the nesting error points where it would without the memo.
Parentheses are read in text order, so the parser finds each one's
offset by searching the text from the last one. parse_formula and
parse_term use a fresh memo per call; proof_from_json shares one across
the steps of one file, and it dies with that call.
"""

from __future__ import annotations

import re
from itertools import islice

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


# every lexeme of the language, and any other non-space character alone
_LEXEMES = re.compile(r"[Pcx]\d+|up|<->|->|_\|_|\S")
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
    """Why a match of _LEXEMES is no lexeme of the language, or None."""
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
        # group text[:_LONG] or [:_SHORT] -> (group text, node, most levels it
        # opens, tokens it spans in the parse that read it)
        self.groups = groups
        self.tokens = []  # lexemes, and memo entries in place of their groups
        # the cover pass: the outermost groups the memo holds stand for themselves
        pos = 0
        if groups:
            p = text.find("(")
            while p >= 0:
                hit = _find(groups, text, p)
                if hit is None:
                    p = text.find("(", p + 1)
                else:
                    self.lex(pos, p)
                    self.tokens.append(hit)
                    pos = p + len(hit[0])
                    p = text.find("(", pos)
        self.covered = pos > 0
        self.lex(pos, len(text))
        self.tokens.append("")  # end of input
        self.i = 0
        self.at = 0  # the offset just past the last "(" or ")" read or passed over
        # open levels; a failed parse is never resumed, so only returns close them
        self.depth = 0
        self.peak = 0  # the most levels open since the innermost group began

    def lex(self, start: int, end: int):
        """Append the lexemes of text[start:end]. A lexical fault there is
        raised as the first one of the whole text, which is the first one
        outside the memo hits, as they hold none."""
        text = self.text
        lexemes = _LEXEMES.findall(text, start, end)
        if any(map(_fault, set(lexemes))):
            for m in _LEXEMES.finditer(text):
                why = _fault(m[0])
                if why is not None:
                    raise SourceError(m.start() + 1, why)
        self.tokens += lexemes

    def fail(self, i: int, message: str):
        """Raise at token i. Offsets are only worked out here, and not in a
        covered parse, which _whole repeats without the memo."""
        if self.covered:
            raise SourceError(0, message)
        if i < len(self.tokens) - 1:
            pos = next(islice(_LEXEMES.finditer(self.text), i, None)).start() + 1
        else:
            pos = len(self.text) + 1
        raise SourceError(pos, message)

    def expect(self, lexeme, what):
        i = self.i
        if self.tokens[i] != lexeme:
            self.fail(i, "expected %s" % what)
        self.i = i + 1

    def paren(self, lexeme, what):
        """expect "(" or ")". Parentheses are read in text order, so the
        next one in the text from self.at is this one."""
        self.expect(lexeme, what)
        self.at = self.text.find(lexeme, self.at) + 1

    def open(self, i):
        depth = self.depth = self.depth + 1
        if depth > self.peak:
            if depth > MAX_NESTING:
                self.fail(i, "nested more than %d levels deep" % MAX_NESTING)
            self.peak = depth

    def close(self, node):
        self.depth -= 1
        return node

    def formula(self, first=None, floor=0) -> Formula:
        """A chain of operators of precedence floor or more, from its first
        operand on, or from first when the caller has read it."""
        left = self.unary() if first is None else first
        base, run = self.depth, None
        while True:
            row = _BINARY.get(self.tokens[self.i])
            if row is None or row[0] < floor:
                self.depth = base
                return left
            prec, build, right = row
            if prec != run:  # a looser operator: the run before it is read
                self.depth, run = base, prec
            self.open(self.i)
            self.i += 1
            left = build(left, self.formula(None, prec if right else prec + 1))

    def unary(self) -> Formula:
        i = self.i
        tok = self.tokens[i]
        if tok[:1] == "P":
            self.i = i + 1
            return Prop(int(tok[1:]))
        if tok == "_|_":
            self.i = i + 1
            return falsum()
        self.open(i)
        if tok == "~":
            self.i = i + 1
            return self.close(Not(self.unary()))
        if tok == "[":
            self.i = i + 1
            announcement = self.formula()
            self.expect("]", "']'")
            return self.close(Update(announcement, self.unary()))
        got = self.operand()
        if got is None:
            self.fail(i, "expected a formula")
        return self.close(self.justified(got) if isinstance(got, Term) else got)

    def operand(self):
        """A term, or what group reads; None when neither starts here."""
        tok = self.tokens[self.i]
        if tok == "(":
            return self.group()
        if tok[:1] in ("c", "x") or tok == "up":
            return self.term()
        if tok.__class__ is tuple:
            return self.placed()
        return None

    def justified(self, term: Term) -> Formula:
        self.expect(":", "':' after a term")
        return Justifies(term, self.unary())

    def group(self):
        """A "(" in formula position, read once or found in the group memo
        (see the module docstring)."""
        i = self.i
        p = self.text.find("(", self.at)
        hit = self.groups and _find(self.groups, self.text, p)
        if hit and self.depth + hit[2] <= MAX_NESTING:
            # a group met again in the parse that read it
            self.i = i + hit[3]
            self.at = p + len(hit[0])
            self.peak = max(self.peak, self.depth + hit[2])
            return hit[1]
        depth, peak = self.depth, self.peak
        self.peak = depth
        self.open(i)
        self.i = i + 1
        self.at = p + 1
        first = self.operand()
        if isinstance(first, Term) and self.tokens[self.i] == "*":
            node = self.application(first)
        else:
            if isinstance(first, Term):
                first = self.justified(first)
            node = self.formula(first)
            self.paren(")", "')'")
        self.depth = depth
        group = self.text[p:self.at]
        if len(group) >= _SHORT:
            key = group[:_LONG] if len(group) >= _LONG else group[:_SHORT]
            self.groups[key] = (group, node, self.peak - depth, self.i - i)
        self.peak = max(peak, self.peak)
        return node

    def placed(self):
        """A memo entry the cover pass put in place of its group: taken as
        group takes a hit, and a fault when it does not fit."""
        group, node, levels, _ = self.tokens[self.i]
        if self.depth + levels > MAX_NESTING:
            self.fail(self.i, "nested more than %d levels deep" % MAX_NESTING)
        self.i += 1
        self.at = self.text.find("(", self.at) + len(group)
        self.peak = max(self.peak, self.depth + levels)
        return node

    def term(self) -> Term:
        i = self.i
        tok = self.tokens[i]
        self.i = i + 1
        if tok[:1] == "c":
            return Constant(int(tok[1:]))
        if tok[:1] == "x":
            return Variable(int(tok[1:]))
        if tok.__class__ is tuple and isinstance(tok[1], Term):
            self.i = i
            return self.placed()  # an application term opens as many levels here
        self.open(i)
        if tok == "up":
            self.paren("(", "'(' after up")
            body = self.formula()
            self.paren(")", "')'")
            return self.close(Up(body))
        if tok == "(":
            self.at = self.text.find("(", self.at) + 1
            return self.close(self.application(self.term()))
        self.fail(i, "expected a term")

    def application(self, left: Term) -> Term:
        """The rest of an application term after its left operand."""
        self.expect("*", "'*'")
        self.expect("[", "'['")
        annotation = self.formula()
        self.expect("]", "']'")
        right = self.term()
        self.paren(")", "')'")
        return App(left, annotation, right)


def _whole(text: str, read, groups: dict):
    p = _Parser(text, groups)
    try:
        got = read(p)
        if p.tokens[p.i]:
            p.fail(p.i, "unexpected trailing input")
        return got
    except SourceError:
        if not p.covered:
            raise
    # a fault met through a memo hit: the fault, and its offset, are
    # those of the text read without the memo
    return _whole(text, read, {})


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
    (see the module docstring). Formulas and terms are printed into dicts
    of their own, so a term in a formula position is a KeyError."""
    fs, ts = {}, {}
    try:
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
            else:  # no node, so in a formula position: constructors check the others
                raise TypeError("expected a formula, got %r" % (y,))
    except KeyError as e:
        raise TypeError("expected a formula, got %r" % e.args) from None
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
