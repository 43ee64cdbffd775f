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
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise SourceError(pos + 1, "unexpected character %r" % text[pos])
        kind = m.lastgroup
        value = m.group()
        if kind == "ws":
            pass
        elif kind in ("prop", "const", "var"):
            n = int(value[1:])
            if n < 1:
                raise SourceError(pos + 1, "index must be >= 1 in %r" % value)
            tokens.append((kind, n, pos + 1))
        elif kind == "punct":
            tokens.append((value, value, pos + 1))
        else:
            tokens.append((kind, value, pos + 1))
        pos = m.end()
    tokens.append(("eof", None, len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        # term() by start index: (term, end index) or the SourceError. The
        # "(" of unary tries a term first and backs off, so without it
        # nested application annotations are re-parsed at every level.
        self._terms = {}

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
        return tok

    def at_end(self):
        return self.peek()[0] == "eof"

    def formula(self) -> Formula:
        left = self.impl()
        if self.peek()[0] == "iff":
            self.next()
            return equiv(left, self.formula())
        return left

    def impl(self) -> Formula:
        left = self.disj()
        if self.peek()[0] == "arrow":
            self.next()
            return Implies(left, self.impl())
        return left

    def disj(self) -> Formula:
        out = self.conj()
        while self.peek()[0] == "|":
            self.next()
            out = disj(out, self.conj())
        return out

    def conj(self) -> Formula:
        out = self.unary()
        while self.peek()[0] == "&":
            self.next()
            out = conj(out, self.unary())
        return out

    def unary(self) -> Formula:
        kind, value, pos = self.peek()
        if kind == "~":
            self.next()
            return Not(self.unary())
        if kind == "[":
            self.next()
            announcement = self.formula()
            self.expect("]", "']'")
            return Update(announcement, self.unary())
        if kind == "prop":
            self.next()
            return Prop(value)
        if kind == "bottom":
            self.next()
            return falsum()
        if kind in ("const", "var", "up"):
            term = self.term()
            self.expect(":", "':' after a term")
            return Justifies(term, self.unary())
        if kind == "(":
            # Either a parenthesized formula or an application term followed
            # by ':'. Try the term reading first and back off when it fails
            # or no ':' follows it; when both readings fail, report the one
            # that got further. Only the (position, message) of a failure is
            # kept: the exception's traceback holds this parser's frames, a
            # cycle that keeps them alive until the garbage collector runs.
            mark = self.i
            try:
                term = self.term()
                tok = self.peek()
                term_fault = None if tok[0] == ":" else (tok[2], "expected ':' after a term")
            except SourceError as e:
                term_fault = (e.position, e.message)
            if term_fault is None:
                self.next()
                return Justifies(term, self.unary())
            self.i = mark
            self.next()
            try:
                inner = self.formula()
                self.expect(")", "')'")
                return inner
            except SourceError as e:
                fault = (e.position, e.message)
            raise SourceError(*max(fault, term_fault, key=lambda f: f[0]))
        raise SourceError(pos, "expected a formula")

    def term(self) -> Term:
        start = self.i
        got = self._terms.get(start)
        if got is None:
            try:
                got = (self._term(), self.i)
            except SourceError as e:
                # stored without its traceback and never raised itself: a
                # traceback holds frames, and through them this parser, a
                # cycle that keeps every failed attempt alive until the
                # garbage collector runs
                got = e.with_traceback(None)
            self._terms[start] = got
        if isinstance(got, SourceError):
            raise SourceError(got.position, got.message)
        term, self.i = got
        return term

    def _term(self) -> Term:
        kind, value, pos = self.peek()
        if kind == "const":
            self.next()
            return Constant(value)
        if kind == "var":
            self.next()
            return Variable(value)
        if kind == "up":
            self.next()
            self.expect("(", "'(' after up")
            body = self.formula()
            self.expect(")", "')'")
            return Up(body)
        if kind == "(":
            self.next()
            left = self.term()
            self.expect("*", "'*'")
            self.expect("[", "'['")
            annotation = self.formula()
            self.expect("]", "']'")
            right = self.term()
            self.expect(")", "')'")
            return App(left, annotation, right)
        raise SourceError(pos, "expected a term")


def parse_formula(text: str) -> Formula:
    """Parse a formula; raises SourceError with a 1-based offset on bad input."""
    p = _Parser(text)
    f = p.formula()
    if not p.at_end():
        raise SourceError(p.peek()[2], "unexpected trailing input")
    return f


def parse_term(text: str) -> Term:
    """Parse a bare term (as used in evidence keys and constant specs)."""
    p = _Parser(text)
    t = p.term()
    if not p.at_end():
        raise SourceError(p.peek()[2], "unexpected trailing input")
    return t


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
