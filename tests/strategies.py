"""Hypothesis strategies for object-language ASTs."""

import hypothesis.strategies as st

from jus.syntax import App, Constant, Implies, Justifies, Not, Prop, Up, Update, Variable


def props():
    return st.integers(1, 3).map(Prop)


def atomic_terms():
    return st.one_of(st.integers(1, 3).map(Constant), st.integers(1, 3).map(Variable))


def terms(depth):
    if depth <= 0:
        return atomic_terms()
    sub = st.deferred(lambda: terms(depth - 1))
    fsub = st.deferred(lambda: formulas(depth - 1))
    return st.one_of(
        atomic_terms(),
        fsub.map(Up),
        st.tuples(sub, fsub, sub).map(lambda x: App(*x)),
    )


def formulas(depth):
    if depth <= 0:
        return props()
    sub = st.deferred(lambda: formulas(depth - 1))
    return st.one_of(
        props(),
        sub.map(Not),
        st.tuples(sub, sub).map(lambda x: Implies(*x)),
        st.tuples(terms(depth - 1), sub).map(lambda x: Justifies(*x)),
        st.tuples(sub, sub).map(lambda x: Update(*x)),
    )


def coupled_formulas():
    """Formulas over two propositions in which up-terms of announced
    formulas, nested in up bodies and application annotations too, turn
    up often, under their own announcements and beside them."""
    p1, p2, x1 = Prop(1), Prop(2), Variable(1)
    return st.recursive(
        st.sampled_from([p1, p2]),
        lambda fs: st.one_of(
            fs.map(Not),
            st.tuples(fs, fs).map(lambda x: Implies(*x)),
            st.tuples(st.one_of(st.just(x1), fs.map(Up), st.tuples(fs, fs).map(
                lambda x: App(Up(x[0]), x[1], x1))), fs).map(lambda x: Justifies(*x)),
            st.tuples(fs, fs).map(lambda x: Update(*x)),
            # an update whose body justifies by its own up-term
            st.tuples(fs, fs).map(lambda x: Update(x[0], Justifies(Up(x[0]), x[1]))),
            # and one beside its up-term
            st.tuples(fs, fs).map(lambda x: Implies(Justifies(Up(x[0]), x[1]), Update(*x))),
        ),
        max_leaves=10,
    )


# opening text, core, closing text; a family nests its opening n times
_DEEP = {
    "~": ("~", "P1", ""),
    "(": ("(", "P1", ")"),
    "->": ("(P1 -> ", "P1", ")"),
    "[C]": ("[P1] ", "P1", ""),
    "[[C]...]": ("[", "P1", "] P1"),
    "t :": ("x1 : ", "P1", ""),
    "up(": ("up(", "P1", ") : P1"),
    "application left": ("(", "x1", " *[P1] x2)"),
    "application annotation": ("(x1 *[", "P1", "] x2) : P1"),
    "-> chain": ("P1 -> ", "P1", ""),
    "&": ("P1 & ", "P1", ""),
    "|": ("P1 | ", "P1", ""),
}


def deep(family, n):
    """The text of a formula that nests one construct of the family n
    times: "->" nests printed implications, "[C]" chains announcements,
    "[[C]...]" nests them in announcements, and "-> chain", "&" and "|"
    chain their operator without parentheses."""
    opening, core, closing = _DEEP[family]
    text = opening * n + core + closing * n
    return text + " : P1" if family == "application left" else text
