"""Reference checkers for the benchmark, written apart from `jus`.

Nothing here imports `jus`. Formulas and terms are hash-consed into small
integers (node ids) over a private table, so shared subformulas cost one
entry and memo keys stay cheap. The three checkers are:

- `Evaluator`: a set-based evaluator that applies the satisfaction clauses
  of subset models directly. Truth sets are Python sets of world names,
  evidence is kept per (world, term), and the evidence of `up(C)` is
  re-derived from the parent context on every announcement of `C`.
- `is_tautology`: a brute-force truth table over the boolean skeleton.
- `count_orbits`: Burnside's lemma for the number of models, up to world
  renaming, that an enumerator with one representative per class must
  produce.

The module also reads and writes the concrete syntax (canonical form only)
and the model-file JSON shape, so CLI payloads can be checked without
going through the library's own parser.
"""

from __future__ import annotations

import itertools
import re

# -- hash-consed syntax ---------------------------------------------------

_table = {}
_nodes = []


def _mk(*key) -> int:
    got = _table.get(key)
    if got is None:
        got = len(_nodes)
        _nodes.append(key)
        _table[key] = got
    return got


def P(i):
    return _mk("P", i)


def NOT(a):
    return _mk("not", a)


def IMP(a, b):
    return _mk("imp", a, b)


def J(t, a):
    return _mk("just", t, a)


def UPD(c, a):
    return _mk("upd", c, a)


def C(i):
    return _mk("c", i)


def X(i):
    return _mk("x", i)


def UP(a):
    return _mk("up", a)


def APP(s, a, t):
    return _mk("app", s, a, t)


def node(n):
    """The (kind, *args) tuple behind a node id."""
    return _nodes[n]


def kind(n):
    return _nodes[n][0]


def is_term(n):
    return kind(n) in ("c", "x", "up", "app")


def AND(a, b):
    return NOT(IMP(a, NOT(b)))


def OR(a, b):
    return IMP(NOT(a), b)


def IFF(a, b):
    return NOT(IMP(IMP(a, b), NOT(IMP(b, a))))


def subterms(n):
    """Every node reachable from n, n included."""
    seen = set()
    stack = [n]
    while stack:
        m = stack.pop()
        if m in seen:
            continue
        seen.add(m)
        k = _nodes[m]
        if k[0] not in ("P", "c", "x"):
            stack.extend(k[1:])
    return seen


# -- concrete syntax ----------------------------------------------------

_printed = {}


def show(n) -> str:
    """Canonical rendering: implications and applications parenthesized,
    every other shape bare, derived connectives never emitted."""
    got = _printed.get(n)
    if got is not None:
        return got
    k = _nodes[n]
    op = k[0]
    if op == "P":
        out = "P%d" % k[1]
    elif op == "c":
        out = "c%d" % k[1]
    elif op == "x":
        out = "x%d" % k[1]
    elif op == "not":
        out = "~" + show(k[1])
    elif op == "imp":
        out = "(%s -> %s)" % (show(k[1]), show(k[2]))
    elif op == "just":
        out = "%s : %s" % (show(k[1]), show(k[2]))
    elif op == "upd":
        out = "[%s] %s" % (show(k[1]), show(k[2]))
    elif op == "up":
        out = "up(%s)" % show(k[1])
    else:
        out = "(%s *[%s] %s)" % (show(k[1]), show(k[2]), show(k[3]))
    _printed[n] = out
    return out


_TOKEN = re.compile(r"\s*(P\d+|c\d+|x\d+|up\(|->|\*\[|[()\[\]:~])")


class ParseError(ValueError):
    pass


def read(text: str) -> int:
    """Parse the canonical syntax `show` emits (core connectives only)."""
    tokens = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError("bad character at %d in %r" % (pos, text))
        tokens.append(m.group(1))
        pos = m.end()
    memo = {}

    def formula(i):
        """(node, next index) for the formula starting at token i."""
        key = ("f", i)
        if key not in memo:
            memo[key] = _formula(i)
        return memo[key]

    def _formula(i):
        if i >= len(tokens):
            raise ParseError("unexpected end of %r" % text)
        tok = tokens[i]
        if tok == "~":
            a, j = formula(i + 1)
            return NOT(a), j
        if tok == "[":
            c, j = formula(i + 1)
            expect(j, "]")
            a, j = formula(j + 1)
            return UPD(c, a), j
        if tok[0] == "P":
            return P(int(tok[1:])), i + 1
        if tok == "(":
            t = term(i)
            if t is not None and t[1] < len(tokens) and tokens[t[1]] == ":":
                a, j = formula(t[1] + 1)
                return J(t[0], a), j
            a, j = formula(i + 1)
            expect(j, "->")
            b, j = formula(j + 1)
            expect(j, ")")
            return IMP(a, b), j + 1
        t = term(i)
        if t is None:
            raise ParseError("expected a formula at token %d of %r" % (i, text))
        expect(t[1], ":")
        a, j = formula(t[1] + 1)
        return J(t[0], a), j

    def term(i):
        """(node, next index) for a term at token i, or None."""
        key = ("t", i)
        if key not in memo:
            try:
                memo[key] = _term(i)
            except ParseError:
                memo[key] = None
        return memo[key]

    def _term(i):
        if i >= len(tokens):
            raise ParseError("unexpected end")
        tok = tokens[i]
        if tok[0] == "c":
            return C(int(tok[1:])), i + 1
        if tok[0] == "x":
            return X(int(tok[1:])), i + 1
        if tok == "up(":
            a, j = formula(i + 1)
            expect(j, ")")
            return UP(a), j + 1
        if tok == "(":
            s = term(i + 1)
            if s is None:
                raise ParseError("not a term")
            expect(s[1], "*[")
            a, j = formula(s[1] + 1)
            expect(j, "]")
            t = term(j + 1)
            if t is None:
                raise ParseError("not a term")
            expect(t[1], ")")
            return APP(s[0], a, t[0]), t[1] + 1
        raise ParseError("not a term")

    def expect(i, tok):
        if i >= len(tokens) or tokens[i] != tok:
            raise ParseError("expected %r at token %d of %r" % (tok, i, text))

    n, end = formula(0)
    if end != len(tokens):
        raise ParseError("trailing input in %r" % text)
    return n


# -- models -----------------------------------------------------------------

class Model:
    """A finite subset model: worlds in file order, a nonempty normal core,
    v0 over (normal world, proposition index), v1 over (non-normal world,
    formula node), evidence over (normal world, atomic term node)."""

    def __init__(self, worlds, normal, v0=None, v1=None, evidence=None, default="all"):
        self.worlds = tuple(worlds)
        self.normal = frozenset(normal)
        self.v0 = dict(v0 or {})
        self.v1 = dict(v1 or {})
        self.evidence = {k: frozenset(v) for k, v in (evidence or {}).items()}
        self.default = default

    def to_json(self) -> dict:
        order = {w: i for i, w in enumerate(self.worlds)}
        out = {"worlds": list(self.worlds),
               "normal": sorted(self.normal, key=order.get),
               "v0": {}, "v1": {}, "evidence": {},
               "evidence_default": self.default}
        for (w, p), val in self.v0.items():
            out["v0"].setdefault(w, {})["P%d" % p] = val
        for (w, f), val in self.v1.items():
            out["v1"].setdefault(w, {})[show(f)] = val
        for (w, t), members in self.evidence.items():
            out["evidence"].setdefault(w, {})[show(t)] = sorted(members, key=order.get)
        return out


def model_from_json(obj) -> Model:
    v0 = {(w, int(key[1:])): val
          for w, row in obj.get("v0", {}).items() for key, val in row.items()}
    v1 = {(w, read(key)): val
          for w, row in obj.get("v1", {}).items() for key, val in row.items()}
    ev = {(w, read_term(key)): members
          for w, row in obj.get("evidence", {}).items() for key, members in row.items()}
    return Model(obj["worlds"], obj["normal"], v0, v1, ev,
                 obj.get("evidence_default", "all"))


def read_term(text: str) -> int:
    """Parse a bare term by reading it as the left side of `t : P1`."""
    n = read(text + " : P1")
    return node(n)[1]


def wmp(m: Model) -> frozenset:
    """Normal worlds plus each non-normal world whose v1 table is closed
    under modus ponens."""
    out = set(m.normal)
    for u in m.worlds:
        if u in m.normal:
            continue
        closed = True
        for (w, f), val in m.v1.items():
            if w == u and val and kind(f) == "imp":
                a, b = node(f)[1:]
                if m.v1.get((u, a), False) and not m.v1.get((u, b), False):
                    closed = False
        if closed:
            out.add(u)
    return frozenset(out)


class Evaluator:
    """Truth sets under announcement chains, from the satisfaction clauses.

    A chain is a tuple of announced formula nodes, applied left to right.
    Non-normal worlds read v1 for the formula being evaluated; normal
    worlds follow the recursive clauses. Evidence of `up(C)` after a chain
    ending in C is the evidence before that announcement, cut down to the
    truth set of C after it; every other term keeps its evidence.
    """

    def __init__(self, m: Model):
        self.m = m
        self.nonnormal = [w for w in m.worlds if w not in m.normal]
        self._wmp = wmp(m)
        self._truth = {}
        self._evidence = {}

    def truth(self, f, chain=()) -> frozenset:
        key = (chain, f)
        got = self._truth.get(key)
        if got is not None:
            return got
        m = self.m
        k = node(f)
        op = k[0]
        if op == "P":
            normal = {w for w in m.normal if m.v0.get((w, k[1]), False)}
        elif op == "not":
            normal = m.normal - self.truth(k[1], chain)
        elif op == "imp":
            normal = (m.normal - self.truth(k[1], chain)) | (m.normal & self.truth(k[2], chain))
        elif op == "just":
            t, a = k[1], k[2]
            if kind(t) == "app":
                s, x, r = node(t)[1:]
                normal = (m.normal & self.truth(J(s, IMP(x, a)), chain)
                          & self.truth(J(r, x), chain))
            else:
                target = self.truth(a, chain)
                normal = {w for w in m.normal if self.evidence(w, t, chain) <= target}
        elif op == "upd":
            normal = m.normal & self.truth(k[2], chain + (k[1],))
        else:
            raise ValueError("not a formula: %r" % (k,))
        got = frozenset(normal) | frozenset(
            u for u in self.nonnormal if self.m.v1.get((u, f), False))
        self._truth[key] = got
        return got

    def evidence(self, w, t, chain=()) -> frozenset:
        key = (chain, w, t)
        got = self._evidence.get(key)
        if got is not None:
            return got
        if chain:
            got = self.evidence(w, t, chain[:-1])
            if t == UP(chain[-1]):
                got = got & self.truth(chain[-1], chain)
        elif kind(t) == "app":
            s, _, r = node(t)[1:]
            got = self.evidence(w, s) & self.evidence(w, r) & self._wmp
        else:
            got = self.m.evidence.get((w, t))
            if got is None:
                got = frozenset(self.m.worlds) if self.m.default == "all" else frozenset()
        self._evidence[key] = got
        return got

    def holds(self, w, f, chain=()) -> bool:
        return w in self.truth(f, chain)

    def cs_violations(self, pairs) -> list:
        """(world, constant, formula) where the constant's evidence at a
        normal world escapes the paired formula's truth set."""
        bad = []
        for c, a in pairs:
            target = self.truth(a)
            for w in self.m.worlds:
                if w in self.m.normal and not self.evidence(w, c) <= target:
                    bad.append((w, c, a))
        return bad


# -- tautologies ------------------------------------------------------------

def is_tautology(f, max_atoms: int = 16) -> bool:
    """Row-by-row truth table over the maximal subformulas that are not
    negations or implications."""
    atoms = []
    stack = [f]
    seen = set()
    while stack:
        g = stack.pop()
        op = kind(g)
        if op == "not":
            stack.append(node(g)[1])
        elif op == "imp":
            stack.extend(node(g)[1:])
        elif g not in seen:
            seen.add(g)
            atoms.append(g)
    if len(atoms) > max_atoms:
        raise ValueError("%d atoms is too many for a brute-force table" % len(atoms))

    def value(g, row):
        op = kind(g)
        if op == "not":
            return not value(node(g)[1], row)
        if op == "imp":
            return (not value(node(g)[1], row)) or value(node(g)[2], row)
        return row[g]

    for bits in itertools.product((False, True), repeat=len(atoms)):
        if not value(f, dict(zip(atoms, bits))):
            return False
    return True


# -- orbit counting ---------------------------------------------------------

def _cycles(perm) -> list:
    """Cycle lengths of a permutation given as a tuple image."""
    seen = set()
    out = []
    for start in range(len(perm)):
        if start in seen:
            continue
        n = 0
        i = start
        while i not in seen:
            seen.add(i)
            i = perm[i]
            n += 1
        out.append(n)
    return out


def _power(perm, k):
    out = tuple(range(len(perm)))
    for _ in range(k):
        out = tuple(perm[i] for i in out)
    return out


def count_shape(n_props: int, n_atoms: int, n_support: int, k: int, m: int) -> int:
    """Models with k normal and m non-normal worlds, up to renamings that
    keep each world in its class, by Burnside's lemma.

    Cells: a truth value per (normal world, proposition), one per
    (non-normal world, support formula), and a subset of all k+m worlds
    per (normal world, atom). A renaming fixes an assignment when values
    are constant along its cycles and each evidence set along a normal
    cycle of length L is fixed by the L-th power of the renaming.
    """
    total = 0
    group = 0
    for sn in itertools.permutations(range(k)):
        for so in itertools.permutations(range(m)):
            group += 1
            whole = sn + tuple(k + j for j in so)
            normal_cycles = _cycles(sn)
            fixed = 2 ** (n_props * len(normal_cycles))
            fixed *= 2 ** (n_support * len(_cycles(so)))
            for length in normal_cycles:
                fixed *= 2 ** (n_atoms * len(_cycles(_power(whole, length))))
            total += fixed
    assert total % group == 0
    return total // group


def shapes(max_worlds: int, max_nonnormal: int):
    """(normal, non-normal) world counts, in the order an enumerator that
    grows the world count first would visit them."""
    for n in range(1, max_worlds + 1):
        for nn in range(0, min(max_nonnormal, n - 1) + 1):
            yield n - nn, nn


def count_orbits(n_props, n_atoms, n_support, max_worlds, max_nonnormal) -> int:
    return sum(count_shape(n_props, n_atoms, n_support, k, m)
               for k, m in shapes(max_worlds, max_nonnormal))


def normal_world_evaluations(n_props, n_atoms, n_support, max_worlds, max_nonnormal) -> int:
    """Normal worlds summed over every model up to renaming: the
    evaluations an exhaustive scan that checks each normal world makes."""
    return sum(k * count_shape(n_props, n_atoms, n_support, k, m)
               for k, m in shapes(max_worlds, max_nonnormal))
