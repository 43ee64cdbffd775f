"""Hilbert-style proofs: axiom matching, checking, and proof construction.

Axiom schemas (each carries an arbitrary, possibly empty, announcement
prefix; conjunction and biconditional below are the fixed expansions):

    Taut   any propositional tautology
    App    (t:(A->B) & s:A) <-> (t *[A] s):B
    Indep  [C]A <-> A, provided [C]A is up-independent
    Funct  [C]~A <-> ~[C]A
    Norm   [C](A->B) <-> ([C]A -> [C]B)
    Up     [A] up(A):A
    Pers   up(A):B -> [A] up(A):B, provided [A]B is up-independent

Without its proviso Pers is unsound: for B = ~up(A):A, announcing A
shrinks the evidence of up(A) into the truth set of A, which makes
up(A):A true and B false.
Under the proviso B keeps its truth set across the announcement (that is
Indep), non-normal worlds ignore announcements, and the evidence of up(A)
only shrinks, so the containment that makes up(A):B true survives.

The instance builders (app_instance ... pers_instance) own each schema's
shape and proviso. match_axiom accepts a formula as an instance only when
its builder rebuilds that very formula; a builder's ValueError is a failed
proviso.

Rules: modus ponens, and axiom necessitation concluding [updates]c:A for
any (c, A) licensed by the constant specification.

The checker is the only trusted component. Proof transformers (boxing a
proof under an announcement, constructive necessitation, the Ramsey and
persistence derivations) emit ordinary proofs and are expected to be
validated by check_proof; nothing they produce is accepted on faith.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ConstantSpec, _require_keys, _source_text
from .parse import _echo, parse_formula, parse_term, print_formula, print_term
from .semantics import pattern
from .syntax import (
    App,
    Constant,
    Formula,
    Implies,
    Justifies,
    Not,
    Term,
    Up,
    Update,
    _postorder,
    atm,
    conj,
    constants_in,
    equiv,
    is_atomic,
    prefix_splits,
    subformulas,
    up_independent,
)

SCHEMAS = ("Taut", "App", "Indep", "Funct", "Norm", "Up", "Pers")


# -- tautology checking -------------------------------------------------

_MAX_TAUT_ATOMS = 24  # 2^24-bit table columns; enough for every schema here
_SKELETON = (Not, Implies)


def taut_check(f: Formula) -> bool:
    """Truth-table validity of the boolean skeleton, whose atoms are the
    maximal subformulas not headed by negation or implication.

    One children-first pass lists the skeleton's nodes, atoms included.
    Columns of the table are big integers, one bit per assignment row, so
    the connectives reduce to bitwise operations, and each shared node's
    column is computed once, after its children's.
    """
    cols = _postorder((f,), _SKELETON)  # filled in children first
    atoms = [g for g in cols if not isinstance(g, _SKELETON)]
    if len(atoms) > _MAX_TAUT_ATOMS:
        raise ValueError("formula has %d boolean atoms; refusing the 2^%d-row table"
                         % (len(atoms), len(atoms)))
    rows = 1 << len(atoms)
    full = (1 << rows) - 1
    # bit r of an atom's column is its value in assignment row r: bit i of r
    for i, atom in enumerate(atoms):
        cols[atom] = pattern(i, 1, (1,), 0, rows)
    for g in cols:
        if isinstance(g, Not):
            cols[g] = full & ~cols[g.body]
        elif isinstance(g, Implies):
            cols[g] = full & (~cols[g.left] | cols[g.right])
    return cols[f] == full


# -- axiom matching ------------------------------------------------------

@dataclass(frozen=True)
class AxiomInstance:
    schema: str
    prefix: tuple
    body: Formula


def _core_schemas(g: Formula) -> list:
    """Schemas whose prefix-free shape g matches, Taut excluded: g is routed
    by its outer node kinds, and a schema matches when its builder, given
    the parameters at their fixed positions in g, rebuilds g itself. The
    Indep and Pers builders walk g for their proviso, so they are called
    only once the defining identity of their shape holds."""
    tries = []
    if isinstance(g, Update):
        tries.append(("Up", up_instance, g.announcement))
    elif isinstance(g, Implies):
        claim = g.left
        if (isinstance(claim, Justifies) and isinstance(claim.term, Up)
                and isinstance(g.right, Update) and g.right.body is claim):
            tries.append(("Pers", pers_instance, claim.term.body, claim.body))
    elif isinstance(g, Not) and isinstance(g.body, Implies) and isinstance(g.body.left, Implies):
        # the biconditional expansion ~((X -> Y) -> ~(Y -> X))
        x, y = g.body.left.left, g.body.left.right
        if isinstance(y, Justifies) and isinstance(y.term, App):
            t = y.term
            tries.append(("App", app_instance, t.left, t.right, t.annotation, y.body))
        if isinstance(x, Update):
            c, a = x.announcement, x.body
            if a is y:
                tries.append(("Indep", indep_instance, c, a))
            if isinstance(a, Not):
                tries.append(("Funct", funct_instance, c, a.body))
            if isinstance(a, Implies):
                tries.append(("Norm", norm_instance, c, a.left, a.right))
    out = []
    for schema, build, *params in tries:
        try:
            if build(*params) is g:
                out.append(schema)
        except ValueError:  # the builder's proviso failed
            pass
    return out


def match_axiom(f: Formula) -> list:
    """Every (schema, prefix split) under which f is an axiom instance.

    Each decomposition f = [C1]...[Ck]G with k >= 0 is tried against each
    schema; an empty result means f is not an axiom.
    """
    return list(_instances(f))


def _instances(f: Formula, schema: str = None):
    """match_axiom's instances one at a time, or only those of the given
    schema, so that a caller that needs the first suitable one stops there
    and tries no other schema. This is the only axiom matcher: the checker,
    the builder and the constant specifications all ask it."""
    for lead, g in prefix_splits(f):
        cores = [] if schema == "Taut" else _core_schemas(g)
        # no core instance is a tautology: its skeleton is one atom, X -> Y
        # with atoms X and Y distinct, or X <-> B with an atom X that B
        # lacks. So a split with a core schema builds no table, however
        # many atoms it has. A split whose body is an update is one atom
        # too, so only the innermost split can build a real table, or
        # refuse one, and every split's core schemas come before it
        if schema in (None, "Taut") and not cores and taut_check(g):
            yield AxiomInstance("Taut", lead, g)
        for core in cores:
            if schema in (None, core):
                yield AxiomInstance(core, lead, g)


def _axiom_failure(f: Formula, schema: str = None):
    """None when f is an instance of the schema, or of any schema when
    none is given; otherwise why it is not."""
    if next(_instances(f, schema), None) is not None:
        return None
    if schema is not None and next(_instances(f), None) is not None:
        return "not an instance of schema %s" % schema
    return "not an axiom instance"


# -- schema instance builders -------------------------------------------

def _require_up_independent(boxed: Formula) -> Formula:
    """The proviso of Indep and Pers, on the update [C]A they share."""
    if not up_independent(boxed):
        raise ValueError(
            "the update is not up-independent: an announced formula's own "
            "up-term occurs under it"
        )
    return boxed


def app_instance(t: Term, s: Term, a: Formula, b: Formula) -> Formula:
    return equiv(
        conj(Justifies(t, Implies(a, b)), Justifies(s, a)),
        Justifies(App(t, a, s), b),
    )


def indep_instance(c: Formula, a: Formula) -> Formula:
    return equiv(_require_up_independent(Update(c, a)), a)


def funct_instance(c: Formula, a: Formula) -> Formula:
    return equiv(Update(c, Not(a)), Not(Update(c, a)))


def norm_instance(c: Formula, a: Formula, b: Formula) -> Formula:
    return equiv(Update(c, Implies(a, b)), Implies(Update(c, a), Update(c, b)))


def up_instance(a: Formula) -> Formula:
    return Update(a, Justifies(Up(a), a))


def pers_instance(a: Formula, b: Formula) -> Formula:
    _require_up_independent(Update(a, b))
    claim = Justifies(Up(a), b)
    return Implies(claim, Update(a, claim))


# -- constant specifications ---------------------------------------------

def _peel_an(f: Formula):
    """Split [C1]...[Ck]c:A into (c, A); None if not of that shape."""
    g = f
    while isinstance(g, Update):
        g = g.body
    if isinstance(g, Justifies) and isinstance(g.term, Constant):
        return g.term, g.body
    return None


def _iterated_cs_shape(f: Formula) -> bool:
    """[tau1]c1 : [tau2]c2 : ... : A with n >= 0 and A an axiom."""
    g = f
    while True:
        if next(_instances(g), None) is not None:
            return True
        peeled = _peel_an(g)
        if peeled is None:
            return False
        g = peeled[1]


def cs_contains(cs: ConstantSpec, c: Constant, f: Formula) -> bool:
    """Whether the specification licenses c as a reason for f. In full
    mode every constant pairs with every formula of the iterated shape,
    which satisfies both closure clauses of axiomatic appropriateness; an
    explicit pair licenses only a formula of that shape, so a file that
    pairs a constant with a non-axiom licenses nothing by it."""
    if cs.mode == "empty":
        return False
    if cs.mode == "explicit" and (c, f) not in cs.pairs:
        return False
    return _iterated_cs_shape(f)


def licensed_pairs(cs: ConstantSpec, candidates=()) -> list:
    """The pairs a CS-model must honour: the specification's own pairs,
    then the candidates, each once in first-seen order, keeping those
    cs_contains licenses. This is the one rule of search and sweep; an
    explicit pair that licenses nothing is dropped, so it cannot hide a
    countermodel."""
    return [(c, f) for c, f in dict.fromkeys((*cs.pairs, *candidates))
            if cs_contains(cs, c, f)]


# -- proofs and checking --------------------------------------------------

@dataclass(frozen=True)
class ProofStep:
    formula: Formula
    rule: str  # "axiom" | "an" | "mp"
    schema: str = None
    constant: Constant = None
    premises: tuple = None


@dataclass(frozen=True)
class Proof:
    steps: tuple

    @property
    def conclusion(self) -> Formula:
        return self.steps[-1].formula


@dataclass(frozen=True)
class CheckFailure:
    index: int  # 1-based step position
    reason: str

    def __str__(self):
        return "step %d: %s" % (self.index, self.reason)


def _mp_premises(p: Proof, step: ProofStep):
    """An mp step's premises as (i, j), in whichever order makes step j
    the implication from step i to the step's formula; None when neither
    order does. At most one order can: two formulas cannot each be the
    antecedent of the other."""
    for i, j in (step.premises, step.premises[::-1]):
        fj = p.steps[j - 1].formula
        if (isinstance(fj, Implies) and fj.left is p.steps[i - 1].formula
                and fj.right is step.formula):
            return i, j
    return None


def _is_index(i) -> bool:
    """An int that is no bool: JSON's true would read as step 1."""
    return isinstance(i, int) and not isinstance(i, bool)


def check_proof(p: Proof, cs: ConstantSpec):
    """None when every step is justified; otherwise the first failure."""
    if not p.steps:
        return CheckFailure(0, "a proof needs at least one step")
    for k, step in enumerate(p.steps, 1):
        if step.rule == "axiom":
            reason = _axiom_failure(step.formula, step.schema)
            if reason is not None:
                return CheckFailure(k, reason)
        elif step.rule == "an":
            peeled = _peel_an(step.formula)
            if peeled is None:
                return CheckFailure(
                    k, "necessitation step is not of the form [updates]c:A"
                )
            d, body = peeled
            if step.constant is not None and step.constant is not d:
                return CheckFailure(k, "declared constant does not occur in the step")
            if not cs_contains(cs, d, body):
                return CheckFailure(
                    k,
                    "pair (%s, %s) is not in the constant specification"
                    % (print_term(d), print_formula(body)),
                )
        elif step.rule == "mp":
            if (
                step.premises is None
                or len(step.premises) != 2
                or not all(_is_index(i) and 1 <= i < k for i in step.premises)
            ):
                return CheckFailure(k, "modus ponens needs two earlier step indices")
            if _mp_premises(p, step) is None:
                return CheckFailure(k, "modus ponens premises do not yield this formula")
        else:
            return CheckFailure(k, "unknown rule %r" % step.rule)
    return None


class ProofBuilder:
    """Accumulates steps; repeated formulas reuse their first derivation.
    Axiom steps are validated on insertion, so construction errors surface
    at the offending call rather than at check time."""

    def __init__(self):
        self._steps = []
        self._where = {}

    def _add(self, step: ProofStep) -> int:
        have = self._where.get(step.formula)
        if have is not None:
            return have
        self._steps.append(step)
        idx = len(self._steps)
        self._where[step.formula] = idx
        return idx

    def formula_at(self, idx: int) -> Formula:
        return self._steps[idx - 1].formula

    def axiom(self, f: Formula, schema: str = None) -> int:
        reason = _axiom_failure(f, schema)
        if reason is not None:
            raise ValueError("%s is %s" % (print_formula(f), reason))
        return self._add(ProofStep(f, "axiom", schema=schema))

    def an(self, f: Formula) -> int:
        peeled = _peel_an(f)
        if peeled is None:
            raise ValueError("%s is not of the form [updates]c:A" % print_formula(f))
        return self._add(ProofStep(f, "an", constant=peeled[0]))

    def mp(self, premise: int, implication: int) -> int:
        fi = self.formula_at(premise)
        fj = self.formula_at(implication)
        if not (isinstance(fj, Implies) and fj.left is fi):
            raise ValueError("step %d does not apply to step %d" % (implication, premise))
        return self._add(ProofStep(fj.right, "mp", premises=(premise, implication)))

    def taut_consequence(self, premise_indices, goal: Formula) -> int:
        """One Taut instance premise1 -> (... -> goal) plus a modus ponens
        per premise. Rejected unless goal is a boolean consequence; the
        chain's own truth table is its check as an axiom, since a
        tautology is a Taut instance under the empty prefix split."""
        formulas = [self.formula_at(i) for i in premise_indices]
        chain = goal
        for f in reversed(formulas):
            chain = Implies(f, chain)
        if not taut_check(chain):
            raise ValueError(
                "%s is not a tautological consequence of the premises"
                % print_formula(goal)
            )
        idx = self._add(ProofStep(chain, "axiom", schema="Taut"))
        for i in premise_indices:
            idx = self.mp(i, idx)
        return idx

    def proof(self) -> Proof:
        return Proof(tuple(self._steps))


# -- proof transformers ---------------------------------------------------

def _require_checked(p: Proof, cs: ConstantSpec):
    fail = check_proof(p, cs)
    if fail is not None:
        raise ValueError("input proof does not check: %s" % fail)


def prove_box(p: Proof, c: Formula, cs: ConstantSpec) -> Proof:
    """From a proof of A, a proof of [c]A.

    Axiom and necessitation steps absorb the new announcement into their
    prefix; each modus ponens is replayed under the box through a Norm
    instance."""
    _require_checked(p, cs)
    b = ProofBuilder()
    new = {}
    for k, step in enumerate(p.steps, 1):
        g = Update(c, step.formula)
        if step.rule == "axiom":
            new[k] = b.axiom(g, step.schema)
        elif step.rule == "an":
            new[k] = b.an(g)
        else:
            i, j = _mp_premises(p, step)
            x = p.steps[i - 1].formula
            n = b.axiom(norm_instance(c, x, step.formula), "Norm")
            new[k] = b.taut_consequence([n, new[j], new[i]], g)
    return b.proof()


def _fresh_constant(f: Formula) -> Constant:
    used = constants_in(f)
    i = 1
    while i in used:
        i += 1
    return Constant(i)


def _an_witness(cs: ConstantSpec, f: Formula) -> Constant:
    """A constant the specification pairs with f."""
    if cs.mode == "full":
        return _fresh_constant(f)
    if cs.mode == "explicit":
        for d, a in cs.pairs:
            if a is f:
                return d
        raise ValueError(
            "constant specification has no witness for %s; an axiomatically "
            "appropriate specification (or full mode) is required" % print_formula(f)
        )
    raise ValueError("the empty constant specification cannot witness necessitation")


def prove_necessitation(p: Proof, cs: ConstantSpec):
    """From a proof of A, a term t and a proof of t:A.

    Axiom and necessitation steps take constant witnesses from the
    specification; each modus ponens becomes an application term, justified
    through an App instance."""
    _require_checked(p, cs)
    b = ProofBuilder()
    term = {}
    new = {}
    for k, step in enumerate(p.steps, 1):
        if step.rule in ("axiom", "an"):
            d = _an_witness(cs, step.formula)
            term[k] = d
            new[k] = b.an(Justifies(d, step.formula))
        else:
            i, j = _mp_premises(p, step)
            x = p.steps[i - 1].formula
            u, v = term[j], term[i]
            goal = Justifies(App(u, x, v), step.formula)
            a = b.axiom(app_instance(u, v, x, step.formula), "App")
            term[k] = goal.term
            new[k] = b.taut_consequence([a, new[j], new[i]], goal)
    last = len(p.steps)
    return term[last], b.proof()


def _aux_steps(b: ProofBuilder, t: Term, s: Term, a: Formula, bf: Formula, c: Formula) -> int:
    """Derives [c]t:(a->bf) & [c]s:a <-> [c](t *[a] s):bf on the builder.

    One App instance under the announcement, then Funct and Norm instances
    push the box through each boolean layer of the biconditional; a single
    tautological consequence reassembles the goal."""
    x = Justifies(t, Implies(a, bf))
    y = Justifies(s, a)
    z = Justifies(App(t, a, s), bf)
    xy = conj(x, y)
    g = Implies(xy, z)
    h = Implies(z, xy)
    premises = [
        b.axiom(Update(c, app_instance(t, s, a, bf)), "App"),
        b.axiom(funct_instance(c, Implies(g, Not(h))), "Funct"),
        b.axiom(norm_instance(c, g, Not(h)), "Norm"),
        b.axiom(funct_instance(c, h), "Funct"),
        b.axiom(norm_instance(c, xy, z), "Norm"),
        b.axiom(funct_instance(c, Implies(x, Not(y))), "Funct"),
        b.axiom(norm_instance(c, x, Not(y)), "Norm"),
        b.axiom(funct_instance(c, y), "Funct"),
        b.axiom(norm_instance(c, z, xy), "Norm"),
    ]
    goal = equiv(conj(Update(c, x), Update(c, y)), Update(c, z))
    return b.taut_consequence(premises, goal)


def prove_aux(t: Term, s: Term, a: Formula, bf: Formula, c: Formula) -> Proof:
    """Proof of [c]t:(a->bf) & [c]s:a <-> [c](t *[a] s):bf; with no
    announcement the statement is a bare App instance."""
    b = ProofBuilder()
    if c is None:
        b.axiom(app_instance(t, s, a, bf), "App")
    else:
        _aux_steps(b, t, s, a, bf, c)
    return b.proof()


def prove_ramsey(s: Term, c: Formula, a: Formula, cs: ConstantSpec) -> Proof:
    """Proof of s:(c->a) <-> [c](s *[c] up(c)):a.

    Announcing c makes up(c) justify c; applying s's conditional evidence
    to that inside the box yields a, and independence carries s:(c->a)
    itself across the announcement."""
    lhs = Justifies(s, Implies(c, a))
    b = ProofBuilder()
    up_idx = b.axiom(up_instance(c), "Up")
    ind_idx = b.axiom(indep_instance(c, lhs), "Indep")
    aux_idx = _aux_steps(b, s, Up(c), c, a, c)
    goal = equiv(lhs, Update(c, Justifies(App(s, c, Up(c)), a)))
    b.taut_consequence([up_idx, ind_idx, aux_idx], goal)
    return b.proof()


def _justification_free(f: Formula) -> bool:
    return not any(isinstance(g, Justifies) for g in subformulas(f))


def prove_persistence_fo(t: Term, a: Formula, c: Formula, cs: ConstantSpec) -> Proof:
    """Proof of t:a -> [c]t:a for justification-free a.

    By recursion on t: up(c) itself is the Pers axiom; other atomic terms
    go through Indep; an application splits into its two component claims,
    each persisted inductively, and is reassembled under the box.

    Beyond the justification-free requirement on a, the recursion is only
    sound when every application annotation inside t is justification-free
    too, when up(c) is not an atomic subterm of any non-up(c) leaf, and
    when c itself is up-independent, which the Indep and Pers builders
    check at each leaf; these are enforced, not assumed.
    """
    if not _justification_free(a):
        raise ValueError("justified formula %s contains a justification" % print_formula(a))

    def scan(term: Term):
        if isinstance(term, App):
            if not _justification_free(term.annotation):
                raise ValueError(
                    "annotation %s contains a justification"
                    % print_formula(term.annotation)
                )
            scan(term.left)
            scan(term.right)
        elif not (isinstance(term, Up) and term.body is c) and Up(c) in atm(term):
            raise ValueError(
                "up(%s) occurs inside the term %s, so independence fails"
                % (print_formula(c), print_term(term))
            )

    scan(t)
    b = ProofBuilder()

    def derive(term: Term, body: Formula) -> int:
        claim = Justifies(term, body)
        goal = Implies(claim, Update(c, claim))
        if isinstance(term, Up) and term.body is c:
            return b.axiom(pers_instance(c, body), "Pers")
        if is_atomic(term):
            ind = b.axiom(indep_instance(c, claim), "Indep")
            return b.taut_consequence([ind], goal)
        left = derive(term.left, Implies(term.annotation, body))
        right = derive(term.right, term.annotation)
        app_idx = b.axiom(app_instance(term.left, term.right, term.annotation, body), "App")
        aux_idx = _aux_steps(b, term.left, term.right, term.annotation, body, c)
        return b.taut_consequence([app_idx, left, right, aux_idx], goal)

    derive(t, a)
    return b.proof()


# -- proof files -----------------------------------------------------------

_SCHEMA_TAGS = {s.lower(): s for s in SCHEMAS}
_STEP_KEYS = {"formula", "rule", "schema", "constant", "premises"}


def proof_from_json(obj) -> Proof:
    """Decode a proof file: a JSON array of steps with 1-based premise
    indices. Structural problems raise ValueError; whether the proof is
    correct is check_proof's business, not the decoder's."""
    if not isinstance(obj, list) or not obj:
        raise ValueError("a proof file is a nonempty JSON array of steps")
    steps = []
    groups = {}  # printed steps repeat their subformulas: read each once

    def read_formula(text):
        return parse_formula(text, _groups=groups)

    for n, raw in enumerate(obj, 1):
        _require_keys(raw, _STEP_KEYS, "step %d" % n)
        if not isinstance(raw.get("formula"), str):
            raise ValueError("step %d needs a formula string" % n)
        f = _source_text(raw["formula"], read_formula, "step %d formula" % n)
        rule = raw.get("rule")
        if rule not in ("axiom", "an", "mp"):
            raise ValueError("step %d rule must be axiom, an, or mp" % n)
        schema = None
        if raw.get("schema") is not None:
            if rule != "axiom":
                raise ValueError("step %d: only axiom steps take a schema" % n)
            schema = _SCHEMA_TAGS.get(str(raw["schema"]).lower())
            if schema is None:
                raise ValueError("step %d names unknown schema %s" % (n, _echo(raw["schema"])))
        constant = None
        if raw.get("constant") is not None:
            if rule != "an":
                raise ValueError("step %d: only necessitation steps take a constant" % n)
            constant = raw["constant"]
            if isinstance(constant, str):
                constant = _source_text(constant, parse_term, "step %d constant" % n)
            if not isinstance(constant, Constant):
                raise ValueError("step %d constant must be a c<n> term" % n)
        premises = None
        if rule == "mp":
            raw_prem = raw.get("premises")
            if not (
                isinstance(raw_prem, list)
                and len(raw_prem) == 2
                and all(map(_is_index, raw_prem))
            ):
                raise ValueError("step %d needs premises: [i, j]" % n)
            premises = tuple(raw_prem)
        elif raw.get("premises") is not None:
            raise ValueError("step %d: only modus ponens steps take premises" % n)
        steps.append(ProofStep(f, rule, schema=schema, constant=constant, premises=premises))
    return Proof(tuple(steps))


def proof_to_json(p: Proof) -> list:
    out = []
    for step in p.steps:
        entry = {"formula": print_formula(step.formula), "rule": step.rule}
        if step.schema is not None:
            entry["schema"] = step.schema.lower()
        if step.constant is not None:
            entry["constant"] = print_term(step.constant)
        if step.premises is not None:
            entry["premises"] = list(step.premises)
        out.append(entry)
    return out
