"""The benchmark's three workloads: sweep, search and cli.

Each workload builds its inputs from the seed in `setup`, exposes its
operations as `ops` (one round; every round repeats the same operations),
and checks the first round's outputs against the reference checkers in
`check`. An operation is one `soundness_sweep` call, one
`find_countermodel` call or one in-process `jus.cli.main(argv)` call.

Library functions are always looked up through their module at call time
(`jus.explore.soundness_sweep(...)`), so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from collections import Counter

import reference as R

SCHEMAS = ("Taut", "App", "Indep", "Funct", "Norm", "Up", "Pers")


class Raised:
    """An exception that escaped an operation."""

    def __init__(self, exc):
        self.kind = type(exc).__name__
        self.text = str(exc)[:200]

    def __eq__(self, other):
        return isinstance(other, Raised) and self.kind == other.kind

    def __repr__(self):
        return "%s: %s" % (self.kind, self.text)


# -- between jus objects and reference nodes ---------------------------------

def from_jus(x, cache=None):
    """Reference node for a jus term or formula, read through its public
    attributes."""
    if cache is None:
        cache = {}
    key = id(x)
    got = cache.get(key)
    if got is not None:
        return got
    name = type(x).__name__
    if name == "Prop":
        out = R.P(x.index)
    elif name == "Constant":
        out = R.C(x.index)
    elif name == "Variable":
        out = R.X(x.index)
    elif name == "Not":
        out = R.NOT(from_jus(x.body, cache))
    elif name == "Implies":
        out = R.IMP(from_jus(x.left, cache), from_jus(x.right, cache))
    elif name == "Justifies":
        out = R.J(from_jus(x.term, cache), from_jus(x.body, cache))
    elif name == "Update":
        out = R.UPD(from_jus(x.announcement, cache), from_jus(x.body, cache))
    elif name == "Up":
        out = R.UP(from_jus(x.body, cache))
    elif name == "App":
        out = R.APP(from_jus(x.left, cache), from_jus(x.annotation, cache),
                    from_jus(x.right, cache))
    else:
        raise TypeError("not a jus term or formula: %r" % (x,))
    cache[key] = out
    return out


def to_jus(n, syntax, cache=None):
    """The jus object for a reference node, built with the jus constructors."""
    if cache is None:
        cache = {}
    got = cache.get(n)
    if got is not None:
        return got
    k = R.node(n)
    op = k[0]
    S = syntax
    if op == "P":
        out = S.Prop(k[1])
    elif op == "c":
        out = S.Constant(k[1])
    elif op == "x":
        out = S.Variable(k[1])
    elif op == "not":
        out = S.Not(to_jus(k[1], S, cache))
    elif op == "imp":
        out = S.Implies(to_jus(k[1], S, cache), to_jus(k[2], S, cache))
    elif op == "just":
        out = S.Justifies(to_jus(k[1], S, cache), to_jus(k[2], S, cache))
    elif op == "upd":
        out = S.Update(to_jus(k[1], S, cache), to_jus(k[2], S, cache))
    elif op == "up":
        out = S.Up(to_jus(k[1], S, cache))
    else:
        out = S.App(to_jus(k[1], S, cache), to_jus(k[2], S, cache), to_jus(k[3], S, cache))
    cache[n] = out
    return out


def model_from_jus(m) -> R.Model:
    cache = {}
    return R.Model(
        m.worlds, m.normal, dict(m.v0),
        {(w, from_jus(f, cache)): val for (w, f), val in m.v1.items()},
        {(w, from_jus(t, cache)): members for (w, t), members in m.evidence.items()},
        m.evidence_default)


# -- seeded reference-side formulas --------------------------------------------

def rand_formula(rng, depth, props=3, terms=True):
    """Random formula; without terms it is justification-free."""
    if depth <= 0 or rng.random() < 0.3:
        return R.P(rng.randint(1, props))
    kinds = ("not", "imp", "just", "upd") if terms else ("not", "imp", "upd")
    k = rng.choice(kinds)
    if k == "not":
        return R.NOT(rand_formula(rng, depth - 1, props, terms))
    if k == "imp":
        return R.IMP(rand_formula(rng, depth - 1, props, terms),
                     rand_formula(rng, depth - 1, props, terms))
    if k == "just":
        return R.J(rand_term(rng, depth - 1, props), rand_formula(rng, depth - 1, props, terms))
    return R.UPD(rand_formula(rng, depth - 1, props, terms),
                 rand_formula(rng, depth - 1, props, terms))


def rand_term(rng, depth, props=3):
    if depth <= 0 or rng.random() < 0.4:
        return R.C(rng.randint(1, 2)) if rng.random() < 0.5 else R.X(rng.randint(1, 2))
    if rng.random() < 0.5:
        return R.UP(rand_formula(rng, depth - 1, props))
    return R.APP(rand_term(rng, depth - 1, props), rand_formula(rng, depth - 1, props),
                 rand_term(rng, depth - 1, props))


def size(n) -> int:
    """Nodes of the tree form of a formula or term."""
    k = R.node(n)
    if k[0] in ("P", "c", "x"):
        return 1
    return 1 + sum(size(child) for child in k[1:])


def sized(rng, lo, hi, make):
    """make(rng) redrawn until its size is in [lo, hi]. Fixing the size
    keeps the cost of the operations that use it from varying much with
    the seed, while the content does."""
    while True:
        n = make(rng)
        if lo <= size(n) <= hi:
            return n


def unrestricted_pers(a):
    """up(A):B -> [A]up(A):B with B = ~up(A):A, which mentions up(A): the
    Pers instance the up-independence proviso excludes."""
    claim = R.J(R.UP(a), R.NOT(R.J(R.UP(a), a)))
    return R.IMP(claim, R.UPD(a, claim))


def higher_order_persistence():
    """x1 : ~up(P1):P1 -> [P1] x1 : ~up(P1):P1, refuted at two worlds."""
    claim = R.J(R.X(1), R.NOT(R.J(R.UP(R.P(1)), R.P(1))))
    return R.IMP(claim, R.UPD(R.P(1), claim))


def order_key(x):
    return R.show(from_jus(x))


def sweep_signature(jus, formulas, max_worlds):
    """One signature for a family: its propositions, the twenty most common
    atoms and announcement up-terms, and the twenty most common justified
    bodies and announcements as non-normal support (as criterion 2 does)."""
    S = jus.syntax
    props = set()
    atom_freq = Counter()
    support_freq = Counter()
    for f in formulas:
        props |= S.prop_indices(f)
        for t in S.atm(f):
            if S.is_atomic(t):
                atom_freq[t] += 1
        for g in S.subformulas(f):
            if isinstance(g, S.Justifies):
                support_freq[g.body] += 1
            elif isinstance(g, S.Update):
                support_freq[g.announcement] += 1
                atom_freq[S.Up(g.announcement)] += 1
    atoms = sorted(atom_freq, key=lambda t: (-atom_freq[t], order_key(t)))[:20]
    support = sorted(support_freq, key=lambda g: (-support_freq[g], order_key(g)))[:20]
    return jus.explore.ModelSignature(
        propositions=tuple(sorted(props)), atoms=tuple(atoms), max_worlds=max_worlds,
        max_nonnormal=max_worlds - 1, v1_support=tuple(support))


def necessitation_universe(proofs):
    """The (constant, formula) pairs the proofs' necessitation steps use."""
    out = []
    for p in proofs:
        for step in p.steps:
            if step.rule == "an":
                g = step.formula
                while type(g).__name__ == "Update":
                    g = g.body
                if (g.term, g.body) not in out:
                    out.append((g.term, g.body))
    return out


class Workload:
    name = ""
    tail_pct = 90  # the op_tail_ms percentile
    min_ops = 100  # enough operations for ten samples beyond it
    min_rounds = 1

    def __init__(self, jus, seed, workdir):
        self.jus = jus
        self.seed = seed
        self.workdir = workdir
        self.ops = []  # (label, callable)
        self.failed = set()  # indices of operations whose output is wrong
        self.notes = []  # what is wrong, for operations not in KNOWN_FAULTS

    # labels of operations that fail today because of known faults in jus
    KNOWN_FAULTS = ()

    def fail(self, i, why):
        self.failed.add(i)
        if self.ops[i][0] not in self.KNOWN_FAULTS:
            self.notes.append("%s: %s" % (self.ops[i][0], why))

    def same(self, a, b) -> bool:
        return a == b

    def output_bytes(self, outputs) -> int:
        """Bytes the operations printed; only CLI calls print."""
        return 0


# -- sweep ------------------------------------------------------------------

AXIOM_OPS = 32
POOLS = 4  # instance pools per schema per operation
PER_POOL = 3
AXIOM_TRIALS = 40
PROOF_OPS = 8
RAMSEY_PER_OP = 2
PERSISTENCE_PER_OP = 2
PROOF_TRIALS = 30
CONTRAST_OPS = 4
CONTRAST_PERS = 24
CONTRAST_BOGUS = 16
CONTRAST_TRIALS = 40
SAMPLE_TRIPLES = 8  # per operation


class SweepOp:
    def __init__(self, family, theorems, cs, sig, trials, seed, universe=()):
        self.family = family
        self.theorems = theorems
        self.cs = cs
        self.sig = sig
        self.trials = trials
        self.seed = seed
        self.universe = list(universe)

    def conclusions(self):
        return [t if not hasattr(t, "steps") else t.conclusion for t in self.theorems]


class Sweep(Workload):
    """Axiom instances of all seven schemas over random models of up to
    four worlds (empty CS), necessitated Ramsey and persistence proofs under
    the full CS (forced CS-models), and a contrast family that must fail."""

    name = "sweep"
    tail_pct = 90
    min_ops = 100

    def setup(self):
        J = self.jus
        S = J.syntax
        rng = random.Random(self.seed)
        empty = J.model.ConstantSpec("empty")
        full = J.model.ConstantSpec("full")
        self.sweeps = []
        for _ in range(AXIOM_OPS):
            instances = []
            for schema in SCHEMAS:
                for _ in range(POOLS):
                    instances += J.explore.random_axiom_instances(
                        schema, PER_POOL, seed=rng.randrange(1 << 30))
            sig = sweep_signature(J, instances, 4)
            self.sweeps.append(SweepOp("axioms", instances, empty, sig, AXIOM_TRIALS,
                                       rng.randrange(1 << 30)))
        for _ in range(PROOF_OPS):
            proofs = []
            while len(proofs) < RAMSEY_PER_OP:
                s = sized(rng, 3, 5, lambda r: rand_term(r, 2))
                c = sized(rng, 4, 6, lambda r: rand_formula(r, 2))
                a = sized(rng, 4, 6, lambda r: rand_formula(r, 2))
                try:
                    p = J.proof.prove_ramsey(to_jus(s, S), to_jus(c, S), to_jus(a, S), full)
                except ValueError:
                    continue  # the boxed premise is not up-independent
                proofs.append(J.proof.prove_necessitation(p, full)[1])
            for _ in range(PERSISTENCE_PER_OP):
                c = sized(rng, 4, 6, lambda r: rand_formula(r, 2, terms=False))
                t = sized(rng, 3, 7, lambda r: self._persistence_term(r, c, 2))
                a = sized(rng, 4, 6, lambda r: rand_formula(r, 2, terms=False))
                p = J.proof.prove_persistence_fo(to_jus(t, S), to_jus(a, S), to_jus(c, S), full)
                proofs.append(J.proof.prove_necessitation(p, full)[1])
            sig = sweep_signature(J, [p.conclusion for p in proofs], 4)
            self.sweeps.append(SweepOp("proofs", proofs, full, sig, PROOF_TRIALS,
                                       rng.randrange(1 << 30), necessitation_universe(proofs)))
        for _ in range(CONTRAST_OPS):
            pers = [unrestricted_pers(sized(rng, 2, 3, lambda r: rand_formula(r, 1)))
                    for _ in range(CONTRAST_PERS)]
            bogus = [higher_order_persistence()] + [
                sized(rng, 8, 12, lambda r: rand_formula(r, 3))
                for _ in range(CONTRAST_BOGUS - 1)]
            contrast = [to_jus(f, S) for f in pers + bogus]
            sig = sweep_signature(J, contrast, 4)
            self.sweeps.append(SweepOp("contrast", contrast, empty, sig, CONTRAST_TRIALS,
                                       rng.randrange(1 << 30)))
        self.ops = [(op.family, self._runner(op)) for op in self.sweeps]

    @staticmethod
    def _persistence_term(rng, c, depth):
        """A term whose leaves are x1, x2, c1 or up(c), with
        justification-free annotations, so prove_persistence_fo applies."""
        if depth <= 0 or rng.random() < 0.4:
            return rng.choice((R.X(1), R.X(2), R.C(1), R.UP(c)))
        return R.APP(Sweep._persistence_term(rng, c, depth - 1),
                     rand_formula(rng, 1, terms=False),
                     Sweep._persistence_term(rng, c, depth - 1))

    def _runner(self, op):
        jus = self.jus

        def run():
            return jus.explore.soundness_sweep(op.theorems, op.cs, op.sig, trials=op.trials,
                                               seed=op.seed)
        return run

    def same(self, a, b):
        if isinstance(a, Raised) or isinstance(b, Raised):
            return a == b
        return [(f, w) for f, _, w in a] == [(f, w) for f, _, w in b]

    def check(self, outputs):
        """Per-operation (evaluations, models) counts, after checking the
        first round against the reference evaluator."""
        J = self.jus
        rng = random.Random(self.seed ^ 0x5EED)
        counts = []
        for i, (op, out) in enumerate(zip(self.sweeps, outputs)):
            if isinstance(out, Raised):
                self.fail(i, "raised %r" % out)
                counts.append((None, None))
                continue
            conclusions = op.conclusions()
            if op.family == "contrast":
                if not out:
                    self.fail(i, "the contrast family gave no violations")
                self._confirm_violations(i, out)
            elif out:
                f, _, w = out[0]
                self.fail(i, "%d violations of sound formulas, e.g. %s at %s"
                          % (len(out), R.show(from_jus(f))[:80], w))
            # the models soundness_sweep draws: trial r uses seed + r
            models = [J.explore.random_cs_model(op.sig, op.universe, op.seed + r)
                      for r in range(op.trials)]
            if op.universe:
                pairs = [(from_jus(c), from_jus(a)) for c, a in op.universe]
                for r, m in enumerate(models):
                    bad = R.Evaluator(model_from_jus(m)).cs_violations(pairs)
                    if bad:
                        self.fail(i, "forced model %d is no CS-model: %s"
                                  % (r, R.show(bad[0][2])[:80]))
            for _ in range(SAMPLE_TRIPLES):
                m = rng.choice(models)
                w = rng.choice(sorted(m.normal))
                f = rng.choice(conclusions)
                got = J.semantics.holds(J.semantics.EvalContext(m), w, f)
                want = R.Evaluator(model_from_jus(m)).holds(w, from_jus(f))
                if got != want:
                    self.fail(i, "holds disagrees with the reference on %s at %s"
                              % (R.show(from_jus(f))[:80], w))
            evals = len(conclusions) * sum(len(m.normal) for m in models)
            counts.append((evals, op.trials))
        return counts

    def _confirm_violations(self, i, violations):
        cache = {}
        by_model = {}
        for f, m, w in violations:
            by_model.setdefault(id(m), (m, []))[1].append((f, w))
        for m, items in by_model.values():
            ev = R.Evaluator(model_from_jus(m))
            for f, w in items:
                if w not in m.normal or ev.holds(w, from_jus(f, cache)):
                    self.fail(i, "reported violation of %s at %s is not false"
                              % (R.show(from_jus(f, cache))[:80], w))


# -- search -----------------------------------------------------------------

def _search_queries(p, x, c):
    """(formula, max worlds, expected outcome, CS universe) in a fixed
    order; p, x and c rename propositions, variables and constants."""
    P1, P2, P3 = p(1), p(2), p(3)
    X1 = x(1)
    C1 = c(1)
    up_p2 = R.J(R.UP(P1), P2)
    pers = R.IMP(up_p2, R.UPD(P1, up_p2))
    norm = R.IFF(R.UPD(P1, R.IMP(P2, P3)), R.IMP(R.UPD(P1, P2), R.UPD(P1, P3)))
    funct = R.IFF(R.UPD(P1, R.NOT(P2)), R.NOT(R.UPD(P1, P2)))
    xp = R.J(X1, P1)
    indep_x = R.IMP(xp, R.UPD(P2, xp))
    upax = R.UPD(P1, R.J(R.UP(P1), P1))
    higher = R.J(X1, R.NOT(R.J(R.UP(P1), P1)))
    deny = R.J(R.UP(P1), R.NOT(R.J(R.UP(P1), P1)))
    taut = R.IMP(P1, P1)
    cs_claim = R.J(C1, taut)
    return [
        # symmetry-heavy three-world exhaustion: the renaming filter dominates
        (pers, 3, "exhausted", None),
        # nearly symmetry-free two-world exhaustion: per-model set-up dominates
        (norm, 2, "exhausted", None),
        (pers, 2, "exhausted", None),
        (indep_x, 2, "exhausted", None),
        (upax, 2, "exhausted", None),
        (upax, 3, "exhausted", None),
        (R.IMP(P1, R.UPD(P2, P1)), 2, "exhausted", None),
        (R.IMP(R.UPD(P1, P2), P2), 2, "exhausted", None),
        (R.IMP(R.UPD(P1, xp), xp), 2, "exhausted", None),
        (R.IMP(R.NOT(R.UPD(P1, P2)), R.UPD(P1, R.NOT(P2))), 2, "exhausted", None),
        (R.UPD(P1, R.IMP(P2, P2)), 2, "exhausted", None),
        (R.IMP(P1, R.IMP(P2, P1)), 3, "exhausted", None),
        (funct, 1, "exhausted", None),
        (norm, 1, "exhausted", None),
        # countermodels
        (R.IMP(higher, R.UPD(P1, higher)), 2, "countermodel", None),
        (R.IMP(deny, R.UPD(P1, deny)), 2, "countermodel", None),
        (R.UPD(P1, P2), 2, "countermodel", None),
        (R.IMP(xp, P1), 2, "countermodel", None),
        (R.J(X1, taut), 2, "countermodel", None),
        (R.IMP(xp, R.J(X1, R.NOT(R.NOT(P1)))), 2, "countermodel", None),
        (R.IMP(R.J(R.UP(P1), P2), P2), 2, "countermodel", None),
        # filtered by an explicit CS universe
        (R.IMP(cs_claim, R.UPD(P2, cs_claim)), 2, "exhausted", [(C1, taut)]),
    ]


class Search(Workload):
    """`find_countermodel` over a fixed list of queries. The seed renames
    propositions, variables and constants, which leaves every search the
    same size."""

    name = "search"
    tail_pct = 75
    min_ops = 40
    # two long exhaustions make a round; the median of four rounds damps
    # speed drift within them that the calibration around them misses
    min_rounds = 4

    def setup(self):
        J = self.jus
        rng = random.Random(self.seed)
        props = rng.sample(range(1, 10), 3)
        xs = rng.sample(range(1, 10), 1)
        cs = rng.sample(range(1, 10), 1)
        queries = _search_queries(lambda i: R.P(props[i - 1]), lambda i: R.X(xs[i - 1]),
                                  lambda i: R.C(cs[i - 1]))
        self.queries = []
        for n, (f, worlds, expect, universe) in enumerate(queries):
            formula = J.parse.parse_formula(R.show(f))
            sig = J.explore.signature_for(formula, max_worlds=worlds,
                                          max_nonnormal=worlds - 1)
            pairs = []
            if universe is not None:
                path = os.path.join(self.workdir, "search-cs-%d.json" % n)
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump({"mode": "explicit",
                               "pairs": [[R.show(a), R.show(b)] for a, b in universe]}, fh)
                pairs = list(J.model.load_cs(path).pairs)
            self.queries.append((f, formula, sig, expect, pairs, universe))
        self.ops = [("%s @%d" % (R.show(q[0]), q[2].max_worlds), self._runner(q))
                    for q in self.queries]

    def _runner(self, q):
        jus = self.jus
        _, formula, sig, _, pairs, _ = q

        def run():
            return jus.explore.find_countermodel(formula, sig, pairs)
        return run

    def same(self, a, b):
        if isinstance(a, Raised) or isinstance(b, Raised):
            return a == b
        return (a.outcome, a.models_scanned, a.world) == (b.outcome, b.models_scanned, b.world)

    def check(self, outputs):
        counts = []
        for i, ((f, _, sig, expect, _, universe), rep) in enumerate(zip(self.queries, outputs)):
            if isinstance(rep, Raised):
                self.fail(i, "raised %r" % rep)
                counts.append((None, None))
                continue
            if rep.outcome != expect:
                self.fail(i, "gave %s, expected %s" % (rep.outcome, expect))
            sizes = (len(rep.bounds.propositions), len(rep.bounds.atoms),
                     len(rep.bounds.v1_support), rep.bounds.max_worlds,
                     rep.bounds.max_nonnormal)
            evals = None
            if rep.outcome == "exhausted":
                want = R.count_orbits(*sizes)
                if rep.models_scanned != want:
                    self.fail(i, "scanned %d models, orbit count is %d"
                              % (rep.models_scanned, want))
                if universe is None:
                    evals = R.normal_world_evaluations(*sizes)
            else:
                problem = check_countermodel(model_from_jus(rep.model), rep.world, f,
                                             universe)
                if problem:
                    self.fail(i, problem)
            counts.append((evals, rep.models_scanned))
        return counts


def check_countermodel(m: R.Model, world, f, universe) -> str:
    """Empty when the model falsifies f at a normal world and respects the
    CS universe; otherwise what is wrong."""
    ev = R.Evaluator(m)
    if world not in m.normal:
        return "countermodel world %s is not normal" % world
    if ev.holds(world, f):
        return "countermodel does not falsify the formula at %s" % world
    if universe and ev.cs_violations(universe):
        return "countermodel violates the CS universe"
    return ""


# -- cli --------------------------------------------------------------------

DEEP_APP_LEVELS = 11
MODEL_SHAPES = ((1, 1), (2, 1), (2, 2), (3, 1))  # normal, non-normal worlds
DEEP_NEGATIONS = 3000


def deep_application(levels, p, x, y):
    """((x *[F] y) : p -> p), nested: each level hides an application
    term inside an annotation behind one more parenthesis, which the
    library's term-first parse re-reads once per level."""
    f = p
    for _ in range(levels):
        f = R.IMP(R.J(R.APP(x, f, y), p), p)
    return f


class Cli(Workload):
    """In-process `jus.cli.main(argv)` over generated files: eval, update,
    validate --cs, check-proof on valid and corrupted proofs, taut, small
    searches, malformed inputs, and three calls that fail today."""

    name = "cli"
    tail_pct = 99
    min_ops = 1000

    KNOWN_FAULTS = ("search-full-cs-constant", "check-proof-non-axiom-pair",
                    "eval-deep-negation")

    def setup(self):
        J = self.jus
        S = J.syntax
        rng = random.Random(self.seed)
        os.makedirs(self.workdir, exist_ok=True)
        d = self.workdir
        self.calls = []  # (label, argv, expectation)

        def path(name):
            return os.path.join(d, name)

        def write(name, obj):
            with open(path(name), "w", encoding="utf-8") as fh:
                json.dump(obj, fh, indent=2)
            return path(name)

        # models
        self.models = []
        formulas = [sized(rng, 10, 14, lambda r: rand_formula(r, 3)) for _ in range(12)]
        for i, shape in enumerate(MODEL_SHAPES):
            m = self._random_model(rng, formulas, *shape)
            self.models.append((write("model-%d.json" % i, m.to_json()), m))
        for i, f in enumerate(formulas):
            mp, m = self.models[i % len(self.models)]
            w = rng.choice(sorted(m.normal))
            self.calls.append(("eval", ["eval", mp, w, R.show(f)], ("eval", m, w, f)))
        deep = deep_application(DEEP_APP_LEVELS, R.P(rng.randint(1, 3)),
                                R.X(rng.randint(1, 2)), R.X(rng.randint(1, 2)))
        mp, m = self.models[0]
        w = sorted(m.normal)[0]
        self.calls.append(("eval-deep-application", ["eval", mp, w, R.show(deep)],
                           ("eval", m, w, deep)))
        for i in range(4):
            mp, m = self.models[i]
            c = sized(rng, 5, 7, lambda r: rand_formula(r, 2))
            out = path("updated-%d.json" % i)
            self.calls.append(("update", ["update", mp, R.show(c), "--out", out],
                               ("update", m, c, out)))
        # validate against explicit constant specifications
        axioms = [R.IMP(R.P(1), R.P(1)), R.IMP(R.P(1), R.IMP(R.P(2), R.P(1))),
                  R.UPD(R.P(1), R.J(R.UP(R.P(1)), R.P(1))),
                  R.IMP(R.NOT(R.NOT(R.P(2))), R.P(2))]
        for i in range(4):
            mp, m = self.models[i]
            pairs = [(R.C(rng.randint(1, 2)), rng.choice(axioms)) for _ in range(2)]
            cp = write("cs-%d.json" % i, {"mode": "explicit",
                                          "pairs": [[R.show(a), R.show(b)] for a, b in pairs]})
            self.calls.append(("validate", ["validate", mp, "--cs", cp],
                               ("validate", m, pairs)))
        # proofs, valid and corrupted
        full = J.model.ConstantSpec("full")
        proofs = []
        while len(proofs) < 2:
            s = sized(rng, 1, 1, lambda r: rand_term(r, 1))
            c, a = (sized(rng, 3, 3, lambda r: rand_formula(r, 1)) for _ in range(2))
            try:
                proofs.append(J.proof.prove_ramsey(to_jus(s, S), to_jus(c, S),
                                                   to_jus(a, S), full))
            except ValueError:
                continue
        c, x, a = (sized(rng, 3, 3, lambda r: rand_formula(r, 1, terms=False))
                   for _ in range(3))
        t = R.APP(R.X(1), x, R.UP(c))
        proofs.append(J.proof.prove_persistence_fo(
            to_jus(t, S), to_jus(a, S), to_jus(c, S), full))
        small = self._small_proof(rng)
        proofs.append(J.proof.prove_necessitation(small, full)[1])
        box = sized(rng, 3, 3, lambda r: rand_formula(r, 1))
        proofs.append(J.proof.prove_box(small, to_jus(box, S), full))
        for i, p in enumerate(proofs):
            steps = J.proof.proof_to_json(p)
            pp = write("proof-%d.json" % i, steps)
            self.calls.append(("check-proof", ["check-proof", pp, "full"],
                               ("proof-ok", steps)))
            bad, k = self._corrupt(rng, steps)
            pp = write("proof-%d-corrupt.json" % i, bad)
            self.calls.append(("check-proof-corrupt", ["check-proof", pp, "full"],
                               ("proof-bad", bad, k)))
        # tautologies and non-tautologies
        for _ in range(3):
            a, b = (sized(rng, 4, 6, lambda r: rand_formula(r, 2)) for _ in range(2))
            for f in (R.IMP(R.IMP(R.IMP(a, b), a), a), R.IFF(R.AND(a, b), R.AND(b, a)),
                      R.IMP(a, R.OR(b, a))):
                if rng.random() < 0.5:
                    f = R.IMP(f, b)  # usually breaks it; the reference decides
                self.calls.append(("taut", ["taut", R.show(f)], ("taut", f)))
        # small searches
        p1, p2 = R.P(rng.randint(1, 4)), R.P(rng.randint(5, 8))
        taut = R.IMP(p1, p1)
        cp = write("search-cs.json", {"mode": "explicit",
                                      "pairs": [["c1", R.show(taut)]]})
        up_p2 = R.J(R.UP(p1), p2)
        for f, extra, universe in [
                (R.IMP(p1, R.UPD(p2, p1)), ["--cs", "empty"], None),
                (R.UPD(p1, p2), ["--cs", "empty"], None),
                (R.UPD(p1, R.J(R.UP(p1), p1)), ["--cs", "empty"], None),
                (R.IMP(up_p2, R.UPD(p1, up_p2)), ["--cs", "empty"], None),
                (R.IMP(R.UPD(p1, p2), p2), ["--cs", "empty"], None),
                (R.J(R.C(1), taut), ["--cs", cp], [(R.C(1), taut)])]:
            self.calls.append(("search", ["search", R.show(f)] + extra,
                               ("search", f, universe)))
        # malformed input: exit 2
        mp = self.models[0][0]
        bad_json = path("broken.json")
        with open(bad_json, "w", encoding="utf-8") as fh:
            fh.write('{"worlds": ["w"], "normal": ')
        bad_cs = write("bad-cs.json", {"mode": "partial"})
        bad_proof = write("bad-proof.json", [{"formula": "P1", "rule": "guess"}])
        for argv in (["eval", mp, "w1", "(P1 ->"], ["eval", mp, "nowhere", "P1"],
                     ["eval", path("missing.json"), "w1", "P1"], ["eval", bad_json, "w1", "P1"],
                     ["validate", mp, "--cs", bad_cs], ["check-proof", bad_proof, "full"],
                     ["search", "P1", "--max-worlds", "0"]):
            self.calls.append(("malformed", argv, ("exit2",)))
        # known faults
        self.calls.append(("search-full-cs-constant", ["search", "c1 : (P1 -> P1)"],
                           ("search", R.J(R.C(1), R.IMP(R.P(1), R.P(1))), None)))
        cp = write("cs-non-axiom.json", {"mode": "explicit", "pairs": [["c1", "P1"]]})
        pp = write("proof-non-axiom.json", [{"formula": "c1 : P1", "rule": "an",
                                             "constant": "c1"}])
        self.calls.append(("check-proof-non-axiom-pair", ["check-proof", pp, cp],
                           ("proof-non-axiom",)))
        self.calls.append(("eval-deep-negation",
                           ["eval", mp, sorted(self.models[0][1].normal)[0],
                            "~" * DEEP_NEGATIONS + "P1"], ("exit2",)))
        self.ops = [(label, self._runner(argv)) for label, argv, _ in self.calls]

    def _small_proof(self, rng):
        """A Taut and an Up instance, joined by one tautological step."""
        J = self.jus
        S = J.syntax
        a, b = (sized(rng, 3, 3, lambda r: rand_formula(r, 1)) for _ in range(2))
        steps = J.proof.ProofBuilder()
        i = steps.axiom(to_jus(R.IMP(a, R.IMP(b, a)), S), "Taut")
        j = steps.axiom(J.proof.up_instance(to_jus(b, S)), "Up")
        goal = to_jus(R.AND(R.IMP(a, R.IMP(b, a)), R.UPD(b, R.J(R.UP(b), b))), S)
        steps.taut_consequence([i, j], goal)
        return steps.proof()

    def _random_model(self, rng, formulas, k, nn) -> R.Model:
        normal = ["w%d" % (i + 1) for i in range(k)]
        other = ["u%d" % (i + 1) for i in range(nn)]
        worlds = normal + other
        rng.shuffle(worlds)
        v0 = {(w, p): rng.random() < 0.5 for w in normal for p in (1, 2, 3)}
        support = sorted((g for g in set().union(*(R.subterms(f) for f in formulas))
                          if not R.is_term(g)), key=R.show)
        v1 = {(u, g): rng.random() < 0.5 for u in other for g in rng.sample(support, 8)}
        atoms = [R.X(1), R.X(2), R.C(1), R.C(2), R.UP(R.P(1)), R.UP(R.P(2))]
        evidence = {(w, t): {u for u in worlds if rng.random() < 0.6}
                    for w in normal for t in atoms if rng.random() < 0.7}
        return R.Model(worlds, normal, v0, v1, evidence, rng.choice(("all", "all", "empty")))

    @staticmethod
    def _corrupt(rng, steps):
        """A copy of a proof file broken at one step, and that step's index."""
        bad = json.loads(json.dumps(steps))
        k = rng.randrange(len(bad)) + 1
        step = bad[k - 1]
        if step["rule"] == "axiom":
            step["formula"] = "P9"
        elif step["rule"] == "mp":
            step["premises"] = [1, 1]
        else:
            step["constant"] = "c99"
        return bad, k

    def _runner(self, argv):
        jus = self.jus

        def run():
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = jus.cli.main(argv)
            except Exception as e:  # the exit-code contract says this never happens
                return (Raised(e), out.getvalue(), err.getvalue())
            return (rc, out.getvalue(), err.getvalue())
        return run

    def same(self, a, b):
        return a[0] == b[0] and a[1] == b[1]

    def output_bytes(self, outputs):
        return sum(len(o[1].encode()) + len(o[2].encode()) for o in outputs)

    def check(self, outputs):
        """Per-call (evaluations, models) counts, after checking each
        call's exit code and output against the references."""
        counts = []
        for i, ((_, argv, expect), out) in enumerate(zip(self.calls, outputs)):
            problem = self._check_call(expect, out)
            evals = 1 if expect[0] == "eval" and not problem else None
            models = None
            if expect[0] == "search" and not problem:
                models = json.loads(out[1])["models_scanned"]
            counts.append((evals, models))
            if problem:
                self.fail(i, "%s: %s" % (" ".join(argv)[:80], problem))
        return counts

    def _check_call(self, expect, out) -> str:
        rc, stdout, _ = out
        if isinstance(rc, Raised):
            return "raised %r" % rc
        kind = expect[0]
        if kind == "exit2":
            return "" if rc == 2 else "exit %s, expected 2" % rc
        if rc == 2:
            return "exit 2 on well-formed input"
        try:
            payload = json.loads(stdout)
        except ValueError:
            return "output is not JSON"
        if kind == "eval":
            _, m, w, f = expect
            want = R.Evaluator(m).holds(w, f)
            return "" if (payload, rc) == (want, 0 if want else 1) else (
                "got %s (exit %s), reference says %s" % (payload, rc, want))
        if kind == "update":
            _, m, c, target = expect
            with open(target, encoding="utf-8") as fh:
                written = json.load(fh)
            if rc != 0 or payload != {"written": target}:
                return "update reported %r" % (payload,)
            ev = R.Evaluator(m)
            want = {w: ev.evidence(w, R.UP(c), (c,)) for w in m.normal}
            key = R.show(R.UP(c))
            got = {w: frozenset(written["evidence"].get(w, {}).get(key, ()))
                   for w in m.normal}
            if got != want:
                return "written up(C) evidence %r, reference %r" % (got, want)
            before = m.to_json()
            for w in m.normal:
                rest = {k: set(v) for k, v in written["evidence"].get(w, {}).items()
                        if k != key}
                old = {k: set(v) for k, v in before["evidence"].get(w, {}).items() if k != key}
                if rest != old:
                    return "update changed other evidence at %s" % w
            return ""
        if kind == "validate":
            _, m, pairs = expect
            bad = {(w, R.show(c), R.show(a)) for w, c, a in R.Evaluator(m).cs_violations(pairs)}
            if not bad:
                return "" if (rc, payload) == (0, {"ok": True}) else "expected ok"
            got = {(v["world"], v["constant"], v["formula"])
                   for v in payload.get("violations", ())}
            return "" if rc == 1 and got == bad else "violations %r, reference %r" % (got, bad)
        if kind == "proof-ok":
            problem = reference_proof_problem(expect[1])
            if problem:
                return "valid proof fails the reference: " + problem
            return "" if (rc, payload) == (0, {"ok": True}) else "valid proof refused"
        if kind == "proof-bad":
            _, steps, k = expect
            if reference_proof_problem(steps[:k - 1]) or not reference_proof_problem(steps[:k]):
                return "the reference does not place the fault at step %d" % k
            if (rc, payload.get("ok"), payload.get("step")) != (1, False, k):
                return "got exit %s %r, expected a failure at step %d" % (rc, payload, k)
            return ""
        if kind == "proof-non-axiom":
            # the only pair is (c1, P1), and a bare proposition is no axiom
            if R.is_tautology(R.P(1)):
                return "reference calls P1 a tautology"
            return "" if (rc, payload.get("ok"), payload.get("step")) == (1, False, 1) else (
                "got exit %s %r, expected a failure at step 1" % (rc, payload))
        if kind == "taut":
            want = R.is_tautology(expect[1])
            return "" if (payload, rc) == (want, 0 if want else 1) else "taut verdict wrong"
        if kind == "search":
            _, f, universe = expect
            if payload.get("outcome") == "countermodel":
                if rc != 1:
                    return "countermodel with exit %s" % rc
                return check_countermodel(R.model_from_json(payload["model"]),
                                          payload["world"], f, universe)
            if payload.get("outcome") != "exhausted" or rc != 0:
                return "search output %r" % (payload,)
            b = payload["bounds"]
            want = R.count_orbits(len(b["propositions"]), len(b["atoms"]),
                                  len(b["v1_support"]), b["max_worlds"], b["max_nonnormal"])
            if payload["models_scanned"] != want:
                return "scanned %d models, orbit count %d" % (payload["models_scanned"], want)
            return ""
        raise ValueError(kind)


def _taut_under_prefix(f) -> bool:
    """Whether f is [C1]...[Ck]T for a tautology T; a body too wide for a
    brute-force table counts as one."""
    while True:
        try:
            if R.is_tautology(f, max_atoms=12):
                return True
        except ValueError:
            return True
        if R.kind(f) != "upd":
            return False
        f = R.node(f)[2]


def reference_proof_problem(steps) -> str:
    """What a proof file gets wrong by the reference's own checks, which are
    partial: modus ponens shape, Taut steps that are small enough for a
    brute-force table, a declared constant that occurs in its step, and a
    formula that is neither a bare proposition nor its negation."""
    formulas = []
    for k, step in enumerate(steps, 1):
        f = R.read(step["formula"])
        formulas.append(f)
        if R.kind(f) == "P" or (R.kind(f) == "not" and R.kind(R.node(f)[1]) == "P"):
            return "step %d is a literal" % k
        if step["rule"] == "mp":
            i, j = step["premises"]
            if not (1 <= i < k and 1 <= j < k):
                return "step %d cites a later step" % k
            a, b = formulas[i - 1], formulas[j - 1]
            if b != R.IMP(a, f) and a != R.IMP(b, f):
                return "step %d does not follow by modus ponens" % k
        elif step["rule"] == "axiom" and step.get("schema") == "taut":
            if not _taut_under_prefix(f):
                return "step %d is no tautology" % k
        elif step["rule"] == "an" and step.get("constant"):
            if R.read_term(step["constant"]) not in R.subterms(f):
                return "step %d declares a constant it does not use" % k
    return ""


WORKLOADS = {w.name: w for w in (Sweep, Search, Cli)}
