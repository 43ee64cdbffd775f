"""Valuation, truth sets, and announcement updates.

The two-world model from conftest is the workhorse: w normal with
v0(w,P1)=1, v non-normal with v1(v,P1)=0, evidence x1 -> {w} and
up(P1) -> {w,v}. Announcing P1 shrinks up(P1)'s evidence to {w},
which flips the justified-disbelief formula from true to false.
"""

import dataclasses
import gc
import os
import sys
import tokenize

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import jus
from jus.explore import (
    ModelSignature,
    enumerate_models,
    random_axiom_instances,
    random_cs_model,
)
from jus.model import SubsetModel
from jus.parse import parse_formula
from jus.proof import indep_instance
from jus.semantics import (
    EvalContext,
    evaluate,
    evidence_effective,
    holds,
    truth_set,
)
from jus.syntax import (
    App,
    Constant,
    Implies,
    Justifies,
    Not,
    Prop,
    Up,
    Update,
    Variable,
    atm,
    eval_closure,
    subformulas,
)

from conftest import to_reference
from strategies import coupled_formulas, formulas, terms

P1, P2 = Prop(1), Prop(2)
DISBELIEF = parse_formula("x1 : ~ up(P1) : P1")


@pytest.fixture
def ctx(two_world):
    return EvalContext(two_world)


def test_eval_justified_disbelief(ctx):
    assert evaluate(ctx, "w", DISBELIEF) == 1


def test_eval_disbelief_not_persistent(ctx):
    assert evaluate(ctx, "w", parse_formula("[P1] x1 : ~ up(P1) : P1")) == 0


def test_eval_classical_tautology(ctx):
    assert evaluate(ctx, "w", Implies(P1, P1)) == 1


def test_eval_unknown_world(ctx):
    with pytest.raises(ValueError, match="unknown world"):
        evaluate(ctx, "nope", P1)


def test_eval_unknown_world_on_a_later_lane(two_world):
    # each lane names its own model's worlds: "v" is only model 0's, and
    # model 1's one world sits at the same slot as model 0's "w"
    other = SubsetModel(worlds=("u",), normal=frozenset({"u"}), v0={("u", 1): True})
    ctx = EvalContext([two_world, other])
    assert evaluate(ctx, "u", P1, 1) == 1
    assert evaluate(ctx, "w", P1, 0) == 1
    for omega in ("v", "w"):
        with pytest.raises(ValueError, match="unknown world"):
            evaluate(ctx, omega, P1, 1)
    with pytest.raises(ValueError, match="unknown world"):
        evaluate(ctx, "u", P1, 0)


def test_truth_set_prop(ctx):
    assert truth_set(ctx, P1) == frozenset({"w"})


def test_truth_set_splits_by_world_kind():
    # Normal worlds compute the tautology; non-normal ones just read v1.
    m = SubsetModel(
        worlds=("w", "u", "u2"),
        normal=frozenset({"w"}),
        v1={("u", Implies(P1, P1)): True},
    )
    assert truth_set(EvalContext(m), Implies(P1, P1)) == frozenset({"w", "u"})


def test_truth_set_after_announcement(ctx):
    pushed = ctx.push(P1)
    assert "w" in truth_set(pushed, Justifies(Up(P1), P1))


def test_evidence_effective_shrinks_on_announcement(ctx):
    pushed = ctx.push(P1)
    assert evidence_effective(pushed, "w", Up(P1)) == frozenset({"w"})


def test_evidence_effective_base_case(ctx, two_world):
    assert evidence_effective(ctx, "w", Up(P1)) == frozenset({"w", "v"})
    assert evidence_effective(ctx, "w", Variable(1)) == frozenset({"w"})


def test_evidence_effective_other_terms_unchanged(ctx):
    pushed = ctx.push(P2)
    assert evidence_effective(pushed, "w", Up(P1)) == frozenset({"w", "v"})
    assert evidence_effective(pushed, "w", Variable(1)) == frozenset({"w"})


def test_evidence_effective_rejects_nonnormal(ctx):
    with pytest.raises(ValueError, match="not normal"):
        evidence_effective(ctx, "v", Up(P1))


def test_push_update_extends_chain(ctx):
    pushed = ctx.push(P1)
    assert pushed.chain == (P1,)
    assert pushed.batch is ctx.batch
    twice = pushed.push(P1)
    assert twice.chain == (P1, P1)


def test_repeated_announcement_shrinks_monotonically(ctx):
    stages = [ctx]
    for _ in range(3):
        stages.append(stages[-1].push(P1))
    sets = [evidence_effective(s, "w", Up(P1)) for s in stages]
    for earlier, later in zip(sets, sets[1:]):
        assert later <= earlier


def test_update_formula_agrees_with_push(ctx):
    from jus.syntax import Update

    for f in (P1, DISBELIEF, Justifies(Up(P1), P1)):
        assert evaluate(ctx, "w", Update(P1, f)) == evaluate(
            ctx.push(P1), "w", f
        )


def test_holds_up_axiom(ctx):
    assert holds(ctx, "w", parse_formula("[P1] up(P1) : P1"))


def test_holds_nonnormal_reads_v1(ctx):
    assert not holds(ctx, "v", P1)


def test_holds_theorems_at_cs_model(ctx):
    # Sound schemas hold at normal worlds of any model; empty CS suffices
    # for these instances since no axiom-necessitation constant appears.
    for text in (
        "(P1 -> (P2 -> P1))",
        "[P1] up(P1) : P1",
        "([P2] [P1] P2 <-> [P1] P2)",
    ):
        assert holds(ctx, "w", parse_formula(text))


def test_functionality_identity(ctx):
    from jus.syntax import Update

    for a in (P1, DISBELIEF, Justifies(Up(P1), P1)):
        for c in (P1, P2):
            left = evaluate(ctx, "w", Update(c, Not(a)))
            right = 1 - evaluate(ctx, "w", Update(c, a))
            assert left == right


def test_normality_identity(ctx):
    from jus.syntax import Update

    for a, b in ((P1, P2), (DISBELIEF, P1)):
        for c in (P1, P2):
            dist = evaluate(ctx, "w", Update(c, Implies(a, b)))
            split = evaluate(
                ctx, "w", Implies(Update(c, a), Update(c, b))
            )
            assert (dist == 1) == (split == 1)


def test_independence_identity(ctx):
    for a in (P1, Implies(P1, P2), Justifies(Variable(1), P1)):
        f = Update(P2, a)
        indep_instance(P2, a)  # the proviso holds
        assert evaluate(ctx, "w", f) == evaluate(ctx, "w", a)


def test_announcement_can_break_persistence():
    # Belief in a formula that denies up(P1)-justification survives only
    # until P1 is actually announced. This is why Pers carries the proviso
    # that up(A) not occur in B; the checker refuses this instance, and the
    # acceptance suite keeps the same effect as a contrast in criterion 3.
    # Here the smallest witness is pinned.
    body = Not(Justifies(Up(P1), P1))
    m = SubsetModel(
        worlds=("w", "v"),
        normal=frozenset({"w"}),
        v0={("w", 1): True},
        v1={("v", P1): False, ("v", body): True},
        evidence={
            ("w", Variable(1)): frozenset({"w"}),
            ("w", Up(P1)): frozenset({"w", "v"}),
        },
    )
    ctx = EvalContext(m)
    premise = Justifies(Up(P1), body)
    assert holds(ctx, "w", premise)
    assert not holds(ctx, "w", parse_formula("[P1] up(P1) : ~ up(P1) : P1"))


# the model fixture is frozen data, safe to share across generated inputs
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(formulas(5))
def test_nonnormal_worlds_ignore_the_chain(two_world, f):
    ctx = EvalContext(two_world)
    base = evaluate(ctx, "v", f)
    assert evaluate(ctx.push(P1), "v", f) == base
    assert evaluate(ctx.push(P2).push(P1), "v", f) == base


def test_constant_evidence_defaults_all(ctx):
    # Unlisted constants default to all worlds, so c9 justifies exactly
    # the formulas true everywhere.
    assert not holds(ctx, "w", Justifies(Constant(9), P1))
    assert holds(ctx, "w", Justifies(Constant(9), Implies(P1, P1))) == (
        truth_set(ctx, Implies(P1, P1)) == frozenset(ctx.batch.models[0].worlds)
    )


def test_failed_query_leaves_the_memo_usable(ctx):
    # A query too deep for the recursive evaluator fails part-way. Every
    # subformula it touched must still evaluate on the same context; a
    # memo that kept in-progress markers reported them as cycles.
    query = P1
    for _ in range(500):
        query = Not(query)
    try:
        evaluate(ctx, "w", query)
    except RecursionError:
        pass
    assert evaluate(ctx, "w", Not(Not(P1))) == 1
    deep = P1
    for _ in range(2 * sys.getrecursionlimit()):
        deep = Not(deep)
    with pytest.raises(RecursionError):
        evaluate(ctx, "w", deep)
    # bottom-up, each level needs one new memo entry
    f = P1
    for k in range(1, 2 * sys.getrecursionlimit() + 1):
        f = Not(f)
        assert evaluate(ctx, "w", f) == (k + 1) % 2
    assert f is deep


def test_batch_rejects_invalid_models_and_empty_batches(two_world):
    bad = SubsetModel(worlds=("w",), normal=frozenset())
    with pytest.raises(ValueError, match="invalid model"):
        EvalContext([two_world, bad])
    # each distinct violation once, and at most five of them
    others = tuple("v%d" % i for i in range(10))
    many = SubsetModel(("w",) + others, frozenset({"w"}),
                       {(v, p): True for v in others for p in range(1, 101)})
    with pytest.raises(ValueError, match="^invalid model: v0 key 'v0' is not a normal "
                                         "world; .*; and 5 more$") as e:
        EvalContext(many)
    assert str(e.value).count("is not a normal world") == 5
    with pytest.raises(ValueError, match="at least one model"):
        EvalContext([])


def _values(ctx, b, formulas, terms, announcements):
    """Everything the public API reports about model b of the batch: the
    truth of each formula at each world, and the effective evidence of
    each term at each normal world, before and after each announcement."""
    m = ctx.batch.models[b]
    out = [truth_set(ctx, f, b) for f in formulas]
    out += [holds(ctx, w, f, b) for f in formulas for w in m.worlds]
    for sub in [ctx] + [ctx.push(c) for c in announcements]:
        for w in m.worlds:
            if w in m.normal:
                out += [evidence_effective(sub, w, t, b) for t in terms]
    return out


def _assert_batches_agree(models, formulas, size):
    terms = sorted({g.term for f in formulas for g in subformulas(f)
                    if isinstance(g, Justifies)}, key=repr)
    announcements = sorted({g.announcement for f in formulas for g in subformulas(f)
                            if isinstance(g, Update)}, key=repr)
    assert any(isinstance(t, App) for t in terms)
    assert any(isinstance(t, Up) for t in terms)
    for start in range(0, len(models), size):
        chunk = models[start:start + size]
        many = EvalContext(chunk)
        for b, m in enumerate(chunk):
            alone = _values(EvalContext(m), 0, formulas, terms, announcements)
            assert _values(many, b, formulas, terms, announcements) == alone, m


def _wmp_by_definition(m: SubsetModel) -> frozenset:
    """Worlds closed under modus ponens, world by world: every normal one,
    and each non-normal world whose v1 never asserts A and A -> B without
    also asserting B."""
    out = set(m.normal)
    for omega in m.worlds:
        asserted = {f for (w, f), val in m.v1.items() if w == omega and val}
        if all(not (isinstance(f, Implies) and f.left in asserted) or f.right in asserted
               for f in asserted):
            out.add(omega)
    return frozenset(out)


def test_batch_wmp_matches_the_model_definition():
    sig = ModelSignature((1, 2), (), 3, 2, (P1, P2, Implies(P1, P2), Implies(P2, P1)))
    models = list(enumerate_models(sig))
    ctx = EvalContext(models)
    got = [ctx.unmask(ctx.batch.wmp(), b) for b in range(len(models))]
    assert got == [_wmp_by_definition(m) for m in models]
    assert sum(len(w) < len(m.worlds) for w, m in zip(got, models)) > 0


# the unrestricted Pers schema, whose instances fail on some models
PERS_CONTRAST = parse_formula("(up(P1) : ~up(P1) : P1 -> [P1] up(P1) : ~up(P1) : P1)")


def test_batch_agrees_with_batches_of_one_on_enumerated_models():
    jup = Justifies(Up(P1), P1)
    sig = ModelSignature(
        propositions=(1,),
        atoms=(Variable(1), Up(P1)),
        max_worlds=2,
        max_nonnormal=1,
        v1_support=(P1, jup, Not(jup)),
    )
    models = list(enumerate_models(sig))
    assert len(models) == 792
    app = App(Variable(1), P1, Up(P1))
    formulas = [
        PERS_CONTRAST,
        Justifies(app, P2),
        Update(P1, Justifies(app, jup)),
        Update(Not(P1), Justifies(Variable(1), Implies(P1, jup))),
        Update(P1, Update(P1, Not(jup))),
    ] + random_axiom_instances("Pers", 2, seed=1) + random_axiom_instances("App", 2, seed=1)
    _assert_batches_agree(models, formulas, 57)


def test_batch_agrees_with_batches_of_one_on_random_models():
    formulas = [PERS_CONTRAST]
    for schema in ("Taut", "App", "Indep", "Funct", "Norm", "Up", "Pers"):
        formulas += random_axiom_instances(schema, 2, seed=3)
    atoms = sorted({t for f in formulas for g in subformulas(f) if isinstance(g, Justifies)
                    for t in [g.term] if not isinstance(t, App)}, key=repr)
    sig = ModelSignature(
        propositions=(1, 2, 3),
        atoms=tuple(atoms[::2]),  # the rest fall back to each model's default
        max_worlds=4,
        max_nonnormal=2,
        v1_support=tuple(sorted({g.body for f in formulas for g in subformulas(f)
                                 if isinstance(g, Justifies)}, key=repr))[:12],
    )
    models = [random_cs_model(sig, [], seed) for seed in range(200)]
    models = [dataclasses.replace(m, evidence_default="empty") if k % 3 else m
              for k, m in enumerate(models)]
    assert {len(m.worlds) for m in models} == {1, 2, 3, 4}
    _assert_batches_agree(models, formulas, 64)


# -- where memo entries go ---------------------------------------------------
# An up-free formula reads the same under every announcement chain, so a
# pushed context takes it from the root, and [C]B with an up-free B is B
# where it stands; a formula that reads an up-term is evaluated where it
# is asked. Each test below also asks for a formula that reads up(P1), so
# an evaluator that sent every formula to the root fails it.

UP_JUST = Justifies(Up(P1), P1)


def test_an_up_free_formula_under_pushes_is_computed_once_per_batch(two_world):
    # nine copies of the model keep the masks above the small-int cache,
    # so identity tells the root's value from a recomputed equal one
    ctx = EvalContext([two_world] * 9)
    f = Implies(Justifies(Variable(1), P1), Update(P2, Not(P1)))
    pushed = ctx.push(P1)
    twice = pushed.push(P2)
    for sub in (twice, pushed):
        sub.truth_mask(f)
        sub.truth_mask(UP_JUST)
    assert pushed._memo[f] is ctx._memo[f]
    assert twice._memo[f] is ctx._memo[f]
    assert UP_JUST not in ctx._memo
    assert truth_set(pushed, UP_JUST) == frozenset({"w"})
    assert truth_set(ctx, UP_JUST) == frozenset()


def test_an_announcement_over_an_up_free_body_pushes_nothing(ctx):
    for f in (Update(P1, Justifies(Variable(1), P1)), Update(UP_JUST, Not(P1)),
              Update(P2, Update(P1, P1))):
        assert truth_set(ctx, f) == truth_set(ctx, f.body)
    assert ctx._children == {}
    # a body that reads up(P1) is still pushed
    assert holds(ctx, "w", Update(P1, UP_JUST))
    assert list(ctx._children) == [P1]
    assert UP_JUST in ctx.push(P1)._memo


def test_up_terms_keep_their_values_under_the_placement_rule(ctx):
    # [P1] up(P1) : P1 holds at w, up(P1) : P1 does not (module docstring)
    assert truth_set(ctx, Update(P1, UP_JUST)) == frozenset({"w"})
    assert truth_set(ctx, UP_JUST) == frozenset()
    pushed = ctx.push(P2)
    assert truth_set(pushed, Update(P1, UP_JUST)) == frozenset({"w"})
    assert truth_set(pushed, UP_JUST) == frozenset()
    assert truth_set(pushed.push(P1), UP_JUST) == frozenset({"w"})


def test_truth_mask_of_a_non_formula_raises_type_error(ctx):
    pushed = ctx.push(P1)
    for sub in (ctx, pushed, pushed.push(P2)):
        for x in (Variable(1), Up(P1), "x"):
            with pytest.raises(TypeError, match="expected a formula"):
                sub.truth_mask(x)
        # a formula cannot hold a child that is not a formula
        for build in (lambda: Not("x"), lambda: Update(P1, "x"), lambda: Not(Up(P1))):
            with pytest.raises(TypeError, match="must be a Formula"):
                sub.truth_mask(build())
        # and the refused queries leave the context answering as before
        assert holds(sub, "w", Update(P1, UP_JUST))


def test_a_dropped_context_tree_leaves_no_cycle(two_world):
    # contexts refer up the tree, to their parent and the root, never down
    # or to themselves, so dropping the last reference frees the tree at
    # once; a cycle would keep each tree until the cyclic collector ran
    gc.collect()
    gc.disable()
    try:
        ctx = EvalContext([two_world, two_world])
        pushed = ctx.push(P1).push(P2)
        for f in (UP_JUST, Update(P1, UP_JUST), Implies(P1, Update(P2, P1)),
                  Update(UP_JUST, Justifies(Up(UP_JUST), P2))):
            ctx.truth_mask(f)
            pushed.truth_mask(f)
        assert ctx._children and pushed._memo
        del ctx, pushed
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- against the reference evaluator ----------------------------------------

def _oracle(ref, m):
    """The reference evaluator over the model m."""
    return ref.Evaluator(ref.Model(
        m.worlds, m.normal, m.v0,
        {(u, to_reference(ref, f)): val for (u, f), val in m.v1.items()},
        {(w, to_reference(ref, t)): e for (w, t), e in m.evidence.items()},
        m.evidence_default))


@st.composite
def _models(draw, support, atoms):
    """A valid model of 1 to 3 worlds, some of them non-normal, whose v1
    ranges over the support and whose evidence over the atoms."""
    worlds = ("w1", "w2", "w3")[:draw(st.integers(1, 3))]
    normal = frozenset(w for w in worlds if w == "w1" or draw(st.booleans()))
    subsets = st.frozensets(st.sampled_from(worlds))
    return SubsetModel(
        worlds, normal,
        {(w, q): True for w in normal for q in (1, 2, 3) if draw(st.booleans())},
        {(u, f): True for u in worlds if u not in normal for f in support
         if draw(st.booleans())},
        {(w, t): draw(subsets) for w in normal for t in atoms if draw(st.booleans())},
        draw(st.sampled_from(("all", "empty"))))


def _coupled():
    """Formulas that read up(C) under announcements of C, nested or not,
    and justifications by application terms."""
    small = formulas(1)
    return st.one_of(
        st.builds(lambda c, a: Update(c, Justifies(Up(c), a)), small, small),
        st.builds(lambda c, a: Not(Justifies(Up(c), a)), small, small),
        st.builds(lambda c, d, a: Update(c, Update(d, Justifies(Up(c), Justifies(Up(d), a)))),
                  small, small, small),
        st.builds(lambda s, a, t, b: Justifies(App(s, a, t), b), terms(1), small, terms(1), small),
    )


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.lists(st.one_of(formulas(3), _coupled()), min_size=1, max_size=4), st.data())
def test_truth_and_evidence_agree_with_the_reference_evaluator(reference, fs, data):
    closure = sorted({g for f in fs for g in eval_closure(f)}, key=repr)
    terms_in = sorted({g.term for g in closure if isinstance(g, Justifies)}, key=repr)
    atoms = [t for t in terms_in if not isinstance(t, App)]
    models = data.draw(st.lists(_models(closure, atoms), min_size=2, max_size=8))
    # announcements that cut some up-term in the formulas, and others
    chains = data.draw(st.lists(
        st.sampled_from([t.body for t in terms_in if isinstance(t, Up)] + [P1, Not(P2)]),
        max_size=3))
    terms_in += [t for t in data.draw(st.lists(terms(2), max_size=2)) if t not in terms_in]
    ref_fs = [to_reference(reference, f) for f in fs]
    ref_terms = [to_reference(reference, t) for t in terms_in]
    ref_chain = tuple(to_reference(reference, c) for c in chains)
    for batch in [models] + [[m] for m in models]:
        contexts = [EvalContext(batch)]
        for c in chains:
            contexts.append(contexts[-1].push(c))
        for b, m in enumerate(batch):
            oracle = _oracle(reference, m)
            for k, sub in enumerate(contexts):
                chain = ref_chain[:k]
                for f, rf in zip(fs, ref_fs):
                    assert truth_set(sub, f, b) == oracle.truth(rf, chain), (f, chains[:k], m)
                for w in m.normal:
                    for t, rt in zip(terms_in, ref_terms):
                        assert (evidence_effective(sub, w, t, b)
                                == oracle.evidence(w, rt, chain)), (t, w, chains[:k], m)


# -- the proviso of Indep and Pers ------------------------------------------
# Announcing C changes the evidence of up(C) only, so a B in which up(C)
# does not occur keeps its truth set under [C], whatever other up-terms
# and announcements B and C hold. The checker's Indep builder decides
# which B those are; each B it accepts must read the same after the push.

def _bodies(c):
    """Formulas that read up(c), or other up-terms, beside or under
    announcements that read their own up-terms."""
    fs = coupled_formulas()
    return st.one_of(
        fs,
        st.builds(lambda a: Justifies(Up(c), a), fs),
        st.builds(lambda a: Not(Justifies(Up(c), a)), fs),
        st.builds(lambda d, a: Update(d, Justifies(Up(c), a)), fs, fs),
        st.builds(lambda d, a: Update(d, Justifies(Up(d), a)), fs, fs),
        st.builds(lambda d, a: Implies(Justifies(Up(d), a), Update(c, Justifies(Up(d), a))),
                  fs, fs),
        st.builds(lambda s, a: Justifies(App(s, a, Up(c)), a), terms(1), fs),
    )


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.one_of(formulas(2), coupled_formulas()), st.data())
def test_the_proviso_keeps_the_truth_set_under_the_announcement(reference, c, data):
    b = data.draw(_bodies(c))
    try:
        indep_instance(c, b)
    except ValueError:
        assert Up(c) in atm(b)  # refused only when B reads up(C)
        return
    closure = sorted(eval_closure(b) | eval_closure(Update(c, b)), key=repr)
    atoms = sorted({g.term for g in closure if isinstance(g, Justifies)
                    and not isinstance(g.term, App)}, key=repr)
    models = data.draw(st.lists(_models(closure, atoms), min_size=1, max_size=6))
    ctx = EvalContext(models)
    pushed = ctx.push(c)
    assert pushed.truth_mask(b) == ctx.truth_mask(b)
    rb, rc = to_reference(reference, b), to_reference(reference, c)
    for k, m in enumerate(models):
        oracle = _oracle(reference, m)
        want = oracle.truth(rb)
        assert oracle.truth(rb, (rc,)) == want, (c, b, m)
        assert truth_set(pushed, b, k) == truth_set(ctx, b, k) == want, (c, b, m)


def test_the_mask_code_takes_no_bitwise_not():
    # every mask is a non-negative int inside its universe, and a
    # complement is an XOR with it: ~ makes a negative int, on which
    # CPython's bitwise operations run 5 to 15 times slower at window size
    folder = os.path.dirname(jus.__file__)
    for name in ("semantics.py", "explore.py", "proof.py"):
        with open(os.path.join(folder, name), "rb") as fh:
            found = [tok.start for tok in tokenize.tokenize(fh.readline)
                     if tok.type == tokenize.OP and tok.string == "~"]
        assert found == [], name
