"""Object language: evidence terms and formulas with announcement updates.

Terms justify formulas; `up(A)` names the evidence produced by announcing A,
and `(s *[A] t)` applies an implication's evidence to a premise's evidence.

One table defines the nodes. Each node class lists its fields in `_fields`,
as (name, kind) pairs in argument order: the kind `int` is an index, a
plain int of at least 1 (`_valid_index`), and any other kind is the node class
the child must be an instance of. `Node`, the base of `Term` and
`Formula`, makes each field a read-only property and holds the one
constructor. That constructor checks every argument against its kind,
raising TypeError for a wrong kind or count and ValueError for an int
below 1, so no node holds a child that is not of its kind. It then sets
`_upfree`, true when no up-term is reachable from the node, from its
children's flags, and interns the node: constructing the same shape twice
returns the same object, so equality is identity and hashing is O(1).
Treat instances as immutable. A node found in its pool holds only checked
children, so only a pool miss is checked, and of a hit only the type of an
index, since `True == 1` would find `Prop(1)`'s node.

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


def _valid_index(x) -> bool:
    """Whether x can index a proposition, constant or variable: a plain int
    of at least 1. A bool or float that equals one is no index."""
    return type(x) is int and x >= 1


class Node:
    """Base class of terms and formulas: see the module docstring."""

    __slots__ = ("_args", "_upfree")
    _fields = ()  # none: the class is abstract
    _pool = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._pool = {}
        cls._indexed = any(kind is int for _, kind in cls._fields)
        for i, (name, _) in enumerate(vars(cls).get("_fields", ())):
            setattr(cls, name, property(lambda self, i=i: self._args[i]))

    def __new__(cls, *args):
        node = cls._pool.get(args)
        # a hit holds checked children, but True == 1 finds Prop(1)'s node
        # (an index is the one field of its class)
        if node is not None and (not cls._indexed or type(args[0]) is int):
            return node
        fields = cls._fields
        if not fields:
            raise TypeError("%s is abstract: build one of its subclasses" % cls.__name__)
        if len(args) != len(fields):
            raise TypeError("%s takes the arguments (%s), got %d" % (
                cls.__name__, ", ".join(name for name, _ in fields), len(args)))
        upfree = cls is not Up
        for a, (name, kind) in zip(args, fields):
            if kind is int:
                if not _valid_index(a):
                    raise (ValueError if type(a) is int else TypeError)(
                        "%s %s must be an int >= 1, got %r" % (cls.__name__, name, a))
            elif isinstance(a, kind):
                upfree = upfree and a._upfree
            else:
                raise TypeError("%s %s must be a %s, got %r"
                                % (cls.__name__, name, kind.__name__, a))
        node = object.__new__(cls)
        node._args = args
        node._upfree = upfree
        cls._pool[args] = node
        return node

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(map(repr, self._args)))


class Term(Node):
    """Base class for evidence terms."""

    __slots__ = ()


class Formula(Node):
    """Base class for formulas."""

    __slots__ = ()


class Constant(Term):
    __slots__ = ()
    _fields = (("index", int),)


class Variable(Term):
    __slots__ = ()
    _fields = (("index", int),)


class Up(Term):
    """Announcement evidence: the term `up(A)` for an announcement A."""

    __slots__ = ()
    _fields = (("body", Formula),)


class App(Term):
    """Application `(s *[A] t)`: evidence for A -> B applied to evidence for A."""

    __slots__ = ()
    _fields = (("left", Term), ("annotation", Formula), ("right", Term))


class Prop(Formula):
    __slots__ = ()
    _fields = (("index", int),)


class Not(Formula):
    __slots__ = ()
    _fields = (("body", Formula),)


class Implies(Formula):
    __slots__ = ()
    _fields = (("left", Formula), ("right", Formula))


class Justifies(Formula):
    """`t : A`, the term t justifies the formula A."""

    __slots__ = ()
    _fields = (("term", Term), ("body", Formula))


class Update(Formula):
    """`[C] A`, the formula A after announcing C."""

    __slots__ = ()
    _fields = (("announcement", Formula), ("body", Formula))


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


def atm(x: Node) -> frozenset:
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


def _reachable(x: Node, inner=_PARENTS) -> dict:
    """_postorder((x,), inner) of a term or formula x."""
    if not isinstance(x, Node):
        raise TypeError("expected a term or formula, got %r" % (x,))
    return _postorder((x,), inner)


def length(x: Node) -> int:
    """Structural length; atomic terms count 1 regardless of their bodies.
    Each shared node is measured once, so the cost is linear in the DAG."""
    n = _reachable(x, _COMPOUND)  # filled in children first
    for y in n:
        n[y] = 1 + sum(map(n.__getitem__, y._args)) if isinstance(y, _COMPOUND) else 1
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


def constants_in(x: Node) -> frozenset:
    """Indices of all constants occurring anywhere in a term or formula."""
    return frozenset(y.index for y in _reachable(x) if isinstance(y, Constant))


def prop_indices(x: Node) -> frozenset:
    """Indices of all propositions occurring anywhere, term content included."""
    return frozenset(y.index for y in _reachable(x) if isinstance(y, Prop))
