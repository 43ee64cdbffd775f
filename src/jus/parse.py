"""Concrete syntax: tokenizer, recursive-descent parser, canonical printer.

Grammar sketch (implication is right-associative and binds loosest among the
core connectives; the three prefix forms bind to the following unary operand):

    formula  :=  iff
    iff      :=  impl ("<->" iff)?
    impl     :=  disj ("->" impl)?
    disj     :=  conj ("|" conj)*
    conj     :=  unary ("&" unary)*
    unary    :=  "~" unary  |  "[" formula "]" unary  |  term ":" unary
              |  "(" formula ")"  |  "P"int  |  "_|_"
    term     :=  "c"int  |  "x"int  |  "up(" formula ")"
              |  "(" term "*[" formula "]" term ")"

Derived connectives (&, |, <->, _|_) are expanded while parsing and the
printer never emits them, so printing is injective on stored shapes.

A "(" in formula position (an application term or a parenthesized
formula) is read once. Its first operand is a term, a formula, or a
nested "(" read the same way. After a term, the next token decides: "*"
continues an application term, ":" opens a justification that the
parenthesized formula continues from, and anything else is "expected ':'
after a term" at that token.

Nesting is capped at MAX_NESTING levels, so the parser's stack and the
depth of what it returns stay bounded. Each unary, "(" and term reading
with a part inside (all but P1, _|_, c1 and x1) opens a level until it
is read, and each binary operator until its chain ends; one level more
is a SourceError at the token that opens it. Printing parenthesizes
implications and expands derived connectives, so a chain near the cap
can print deeper than the cap.
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
    conj,
    disj,
    equiv,
    falsum,
)


MAX_NESTING = 100  # see the module docstring


class SourceError(Exception):
    """Rejected input. The offset is 1-based, counting bytes from the start
    of the text; end-of-input faults point one past the last byte."""

    def __init__(self, position: int, message: str):
        super().__init__("at offset %d: %s" % (position, message))
        self.position = position
        self.message = message


_TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<prop>P\d+)
  | (?P<const>c\d+)
  | (?P<var>x\d+)
  | (?P<up>up)
  | (?P<iff><->)
  | (?P<arrow>->)
  | (?P<bottom>_\|_)
  | (?P<punct>[()\[\]:~&|*])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        value = m.group()
        pos = m.start() + 1
        if kind in ("prop", "const", "var"):
            if int(value[1:]) < 1:
                raise SourceError(pos, "index must be >= 1 in %r" % value)
            value = int(value[1:])
        elif kind == "punct":
            kind = value
        elif kind == "bad":
            raise SourceError(pos, "unexpected character %r" % value)
        if kind != "ws":
            tokens.append((kind, value, pos))
    tokens.append(("eof", None, len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        # open levels; a failed parse is never resumed, so only returns close them
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind, what):
        tok = self.next()
        if tok[0] != kind:
            raise SourceError(tok[2], "expected %s" % what)

    def open(self, pos):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise SourceError(pos, "nested more than %d levels deep" % MAX_NESTING)

    def close(self, node):
        self.depth -= 1
        return node

    def formula(self, first=None) -> Formula:
        left = self.impl(first)
        if self.peek()[0] != "iff":
            return left
        self.open(self.next()[2])
        return self.close(equiv(left, self.formula()))

    def impl(self, first=None) -> Formula:
        left = self.disj(first)
        if self.peek()[0] != "arrow":
            return left
        self.open(self.next()[2])
        return self.close(Implies(left, self.impl()))

    def disj(self, first=None) -> Formula:
        out = self.conj(first)
        depth = self.depth
        while self.peek()[0] == "|":
            self.open(self.next()[2])
            out = disj(out, self.conj())
        self.depth = depth
        return out

    def conj(self, first=None) -> Formula:
        out = self.unary() if first is None else first
        depth = self.depth
        while self.peek()[0] == "&":
            self.open(self.next()[2])
            out = conj(out, self.unary())
        self.depth = depth
        return out

    def unary(self) -> Formula:
        kind, value, pos = self.peek()
        if kind in ("prop", "bottom"):
            self.next()
            return Prop(value) if kind == "prop" else falsum()
        self.open(pos)
        if kind == "~":
            self.next()
            return self.close(Not(self.unary()))
        if kind == "[":
            self.next()
            announcement = self.formula()
            self.expect("]", "']'")
            return self.close(Update(announcement, self.unary()))
        got = self.operand()
        if got is None:
            raise SourceError(pos, "expected a formula")
        return self.close(self.justified(got) if isinstance(got, Term) else got)

    def operand(self):
        """A term, or what group reads; None when neither starts here."""
        kind = self.peek()[0]
        if kind == "(":
            return self.group()
        if kind in ("const", "var", "up"):
            return self.term()
        return None

    def justified(self, term: Term) -> Formula:
        self.expect(":", "':' after a term")
        return Justifies(term, self.unary())

    def group(self):
        """A "(" in formula position, read once (see the module docstring)."""
        self.open(self.next()[2])
        first = self.operand()
        if isinstance(first, Term):
            if self.peek()[0] == "*":
                return self.close(self.application(first))
            first = self.justified(first)
        inner = self.formula(first)
        self.expect(")", "')'")
        return self.close(inner)

    def term(self) -> Term:
        kind, value, pos = self.next()
        if kind in ("const", "var"):
            return Constant(value) if kind == "const" else Variable(value)
        self.open(pos)
        if kind == "up":
            self.expect("(", "'(' after up")
            body = self.formula()
            self.expect(")", "')'")
            return self.close(Up(body))
        if kind == "(":
            return self.close(self.application(self.term()))
        raise SourceError(pos, "expected a term")

    def application(self, left: Term) -> Term:
        """The rest of an application term after its left operand."""
        self.expect("*", "'*'")
        self.expect("[", "'['")
        annotation = self.formula()
        self.expect("]", "']'")
        right = self.term()
        self.expect(")", "')'")
        return App(left, annotation, right)


def _whole(text: str, read):
    p = _Parser(text)
    got = read(p)
    if p.peek()[0] != "eof":
        raise SourceError(p.peek()[2], "unexpected trailing input")
    return got


def parse_formula(text: str) -> Formula:
    """Parse a formula; raises SourceError with a 1-based offset on bad input."""
    return _whole(text, _Parser.formula)


def parse_term(text: str) -> Term:
    """Parse a bare term (as used in evidence keys and constant specs)."""
    return _whole(text, _Parser.term)


def print_term(t: Term) -> str:
    if isinstance(t, Constant):
        return "c%d" % t.index
    if isinstance(t, Variable):
        return "x%d" % t.index
    if isinstance(t, Up):
        return "up(%s)" % print_formula(t.body)
    if isinstance(t, App):
        return "(%s *[%s] %s)" % (
            print_term(t.left),
            print_formula(t.annotation),
            print_term(t.right),
        )
    raise TypeError("expected a term, got %r" % (t,))


def print_formula(f: Formula) -> str:
    """Canonical rendering; parse_formula(print_formula(f)) is f.

    Implications are always parenthesized, every other shape is unambiguous
    without parens, and derived connectives never appear.
    """
    if isinstance(f, Prop):
        return "P%d" % f.index
    if isinstance(f, Not):
        return "~%s" % print_formula(f.body)
    if isinstance(f, Implies):
        return "(%s -> %s)" % (print_formula(f.left), print_formula(f.right))
    if isinstance(f, Justifies):
        return "%s : %s" % (print_term(f.term), print_formula(f.body))
    if isinstance(f, Update):
        return "[%s] %s" % (print_formula(f.announcement), print_formula(f.body))
    raise TypeError("expected a formula, got %r" % (f,))
