"""Object language: evidence terms and formulas with announcement updates.

Terms justify formulas; `up(A)` names the evidence produced by announcing A,
and `(s *[A] t)` applies an implication's evidence to a premise's evidence.
All nodes are interned: constructing the same shape twice returns the same
object, so equality is identity and hashing is O(1). Treat instances as
immutable. Each node also carries `_upfree`, true when no up-term is
reachable from it, set once from its children's flags when it is interned.

Each node class has its own pool, the class attribute `_pool`, a dict from
the constructor's argument tuple to the node; `__init_subclass__` gives every
subclass a fresh one, so no two classes share a node. A pool lives as long
as its class: as long as this module, or any of the class's nodes, is
referenced. So when a fresh import of `jus` after purging `sys.modules`
replaces this module, the garbage collector frees the old classes with all
their nodes. That is why no `typing` construct that names a node class may
sit at module level, such as an alias `Union[Term, Formula]`: `typing`
caches its subscriptions process-wide, and the cache would keep the classes,
and through their methods' globals this whole module, alive for good.
Annotations are strings here, under `from __future__ import annotations`.
"""

from __future__ import annotations

from typing import Iterator


# Pool keys compare by ==, so the index constructors refuse what equals an
# int without being one: Prop(True) would otherwise be Prop(1)'s node.
def _intern(cls, *args):
    node = cls._pool.get(args)
    if node is None:
        node = object.__new__(cls)
        node._args = args
        # indices and the non-node children some constructors let through
        # have no flag, and count as up-free
        node._upfree = cls is not Up
        for a in args:
            if not getattr(a, "_upfree", True):
                node._upfree = False
        cls._pool[args] = node
    return node


class Term:
    """Base class for evidence terms."""

    __slots__ = ("_args", "_upfree")

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._pool = {}

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(map(repr, self._args)))


class Formula:
    """Base class for formulas."""

    __slots__ = ("_args", "_upfree")

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._pool = {}

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(map(repr, self._args)))


class Constant(Term):
    __slots__ = ()

    def __new__(cls, index: int):
        if type(index) is not int:
            raise TypeError("constant index must be an int")
        if index < 1:
            raise ValueError("constant index must be >= 1")
        return _intern(cls, index)

    @property
    def index(self) -> int:
        return self._args[0]


class Variable(Term):
    __slots__ = ()

    def __new__(cls, index: int):
        if type(index) is not int:
            raise TypeError("variable index must be an int")
        if index < 1:
            raise ValueError("variable index must be >= 1")
        return _intern(cls, index)

    @property
    def index(self) -> int:
        return self._args[0]


class Up(Term):
    """Announcement evidence: the term `up(A)` for an announcement A."""

    __slots__ = ()

    def __new__(cls, body: Formula):
        if not isinstance(body, Formula):
            raise TypeError("up() takes a formula")
        return _intern(cls, body)

    @property
    def body(self) -> Formula:
        return self._args[0]


class App(Term):
    """Application `(s *[A] t)`: evidence for A -> B applied to evidence for A."""

    __slots__ = ()

    def __new__(cls, left: Term, annotation: Formula, right: Term):
        if not (isinstance(left, Term) and isinstance(right, Term)):
            raise TypeError("application combines two terms")
        if not isinstance(annotation, Formula):
            raise TypeError("application annotation must be a formula")
        return _intern(cls, left, annotation, right)

    @property
    def left(self) -> Term:
        return self._args[0]

    @property
    def annotation(self) -> Formula:
        return self._args[1]

    @property
    def right(self) -> Term:
        return self._args[2]


class Prop(Formula):
    __slots__ = ()

    def __new__(cls, index: int):
        if type(index) is not int:
            raise TypeError("proposition index must be an int")
        if index < 1:
            raise ValueError("proposition index must be >= 1")
        return _intern(cls, index)

    @property
    def index(self) -> int:
        return self._args[0]


class Not(Formula):
    __slots__ = ()

    def __new__(cls, body: Formula):
        return _intern(cls, body)

    @property
    def body(self) -> Formula:
        return self._args[0]


class Implies(Formula):
    __slots__ = ()

    def __new__(cls, left: Formula, right: Formula):
        return _intern(cls, left, right)

    @property
    def left(self) -> Formula:
        return self._args[0]

    @property
    def right(self) -> Formula:
        return self._args[1]


class Justifies(Formula):
    """`t : A`, the term t justifies the formula A."""

    __slots__ = ()

    def __new__(cls, term: Term, body: Formula):
        if not isinstance(term, Term):
            raise TypeError("justification needs a term on the left")
        return _intern(cls, term, body)

    @property
    def term(self) -> Term:
        return self._args[0]

    @property
    def body(self) -> Formula:
        return self._args[1]


class Update(Formula):
    """`[C] A`, the formula A after announcing C."""

    __slots__ = ()

    def __new__(cls, announcement: Formula, body: Formula):
        return _intern(cls, announcement, body)

    @property
    def announcement(self) -> Formula:
        return self._args[0]

    @property
    def body(self) -> Formula:
        return self._args[1]


# Derived connectives are not part of the stored syntax. They expand to the
# fixed shapes below at construction or parse time; which expansion is chosen
# matters, because justification is hyperintensional (equivalent but distinct
# shapes are not interchangeable under `t :`).

def conj(a: Formula, b: Formula) -> Formula:
    """A and B, expanded as ~(A -> ~B)."""
    return Not(Implies(a, Not(b)))


def disj(a: Formula, b: Formula) -> Formula:
    """A or B, expanded as ~A -> B."""
    return Implies(Not(a), b)


def equiv(a: Formula, b: Formula) -> Formula:
    """A if and only if B, expanded as ~((A -> B) -> ~(B -> A))."""
    return Not(Implies(Implies(a, b), Not(Implies(b, a))))


def falsum() -> Formula:
    """Bottom, expanded as ~(P1 -> P1)."""
    p = Prop(1)
    return Not(Implies(p, p))


def is_atomic(t: Term) -> bool:
    """Constants, variables, and up-terms are atomic; applications are not."""
    return isinstance(t, (Constant, Variable, Up))


def atm(x: Term | Formula) -> frozenset:
    """The atomic subterms of a term or formula.

    An up-term counts as atomic itself but its announcement body is searched
    too, as are application annotations.
    """
    return frozenset(y for y in _reachable(x) if is_atomic(y))


def subformulas(f: Formula) -> frozenset:
    """Reflexive subformulas, recursing through formula structure only.

    Formulas sitting inside terms (up bodies, application annotations) are
    term content: they contribute to atm but are not subformulas.
    """
    return frozenset(y for y in _reachable(f, _CONNECTIVES) if isinstance(y, Formula))


# which nodes a walk enters: those length counts the children of, every
# node with children, and the formulas whose formula children are
# subformulas
_COMPOUND = (Not, Implies, Justifies, Update, App)
_PARENTS = _COMPOUND + (Up,)
_CONNECTIVES = (Not, Implies, Justifies, Update)


_MARK = object()  # on _postorder's stack, above a node whose children follow


def _postorder(roots, inner) -> dict:
    """The nodes reachable from the sequence roots through the children of
    nodes of the classes in inner, the roots included, each once and after
    all of its children, as the keys of a dict in that order. Iterative: a
    node met the first time goes back on the stack beneath a mark and its
    children, and is done when the mark is popped, so no depth overflows."""
    done = {}
    stack = list(roots)
    while stack:
        y = stack.pop()
        if y is _MARK:
            done[stack.pop()] = None
        elif y not in done:
            if isinstance(y, inner):
                stack.append(y)
                stack.append(_MARK)
                stack += y._args
            else:
                done[y] = None
    return done


def _reachable(x: Term | Formula, inner=_PARENTS) -> dict:
    """_postorder((x,), inner) of a term or formula x."""
    if not isinstance(x, (Term, Formula)):
        raise TypeError("expected a term or formula, got %r" % (x,))
    return _postorder((x,), inner)


def length(x: Term | Formula) -> int:
    """Structural length; atomic terms count 1 regardless of their bodies.
    Each shared node is measured once, so the cost is linear in the DAG."""
    n = _reachable(x, _COMPOUND)  # filled in children first
    for y in n:
        if isinstance(y, _COMPOUND):
            n[y] = 1 + sum(map(n.__getitem__, y._args))
        elif isinstance(y, (Term, Formula)):
            n[y] = 1
        else:
            raise TypeError("expected a term or formula, got %r" % (y,))
    return n[x]


def prefix_splits(f: Formula) -> Iterator[tuple]:
    """All decompositions f = [C1]...[Ck]G, k >= 0, outermost first.

    Yields (prefix, body) pairs starting with ((), f) and peeling one leading
    update at a time.
    """
    lead = []
    g = f
    yield (), g
    while isinstance(g, Update):
        lead.append(g.announcement)
        g = g.body
        yield tuple(lead), g


def eval_closure(f: Formula) -> frozenset:
    """Formulas whose truth can be consulted while evaluating f.

    Subformulas, plus the implication/premise split used to evaluate
    justification by an application term. Useful as a sparse-valuation
    support set: a world that valuates formulas directly only ever sees
    formulas from this closure.
    """
    seen = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        if isinstance(g, Not):
            stack.append(g.body)
        elif isinstance(g, Implies):
            stack.extend((g.left, g.right))
        elif isinstance(g, Justifies):
            t = g.term
            if isinstance(t, App):
                stack.append(Justifies(t.left, Implies(t.annotation, g.body)))
                stack.append(Justifies(t.right, t.annotation))
            else:
                stack.append(g.body)
                if isinstance(t, Up):
                    stack.append(t.body)
        elif isinstance(g, Update):
            stack.extend((g.announcement, g.body))
    return frozenset(seen)


def constants_in(x: Term | Formula) -> frozenset:
    """Indices of all constants occurring anywhere in a term or formula."""
    return frozenset(y.index for y in _reachable(x) if isinstance(y, Constant))


def prop_indices(x: Term | Formula) -> frozenset:
    """Indices of all propositions occurring anywhere, term content included."""
    return frozenset(y.index for y in _reachable(x) if isinstance(y, Prop))
