"""Model data layer: wmp, stored evidence, validation, JSON files."""

import json
import os

import pytest

from jus.model import (
    ConstantSpec,
    SubsetModel,
    cs_from_json,
    cs_to_json,
    load_cs,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
    validate_model,
)
from jus.semantics import EvalContext, cs_violations, evidence_effective
from jus.syntax import Constant, Implies, Prop, Up, Variable

P1, P2 = Prop(1), Prop(2)


def wmp(m: SubsetModel) -> frozenset:
    ctx = EvalContext(m)
    return ctx.unmask(ctx.batch.wmp())


def test_wmp_contains_normal_worlds():
    m = SubsetModel(worlds=("w",), normal=frozenset({"w"}))
    assert "w" in wmp(m)


def test_wmp_excludes_mp_violator():
    # u asserts P1 and P1 -> P2 but not P2, so u is not closed.
    m = SubsetModel(
        worlds=("w", "u"),
        normal=frozenset({"w"}),
        v1={("u", P1): True, ("u", Implies(P1, P2)): True},
    )
    assert wmp(m) == frozenset({"w"})


def test_wmp_includes_empty_support():
    m = SubsetModel(worlds=("w", "u"), normal=frozenset({"w"}))
    assert wmp(m) == frozenset({"w", "u"})


def test_evidence_atomic_stored(two_world):
    ctx = EvalContext(two_world)
    assert evidence_effective(ctx, "w", Up(P1)) == frozenset({"w", "v"})
    assert evidence_effective(ctx, "w", Variable(1)) == frozenset({"w"})


def test_evidence_atomic_default_all(two_world):
    got = evidence_effective(EvalContext(two_world), "w", Constant(9))
    assert got == frozenset(two_world.worlds)


def test_evidence_atomic_default_empty():
    m = SubsetModel(worlds=("w",), normal=frozenset({"w"}), evidence_default="empty")
    assert evidence_effective(EvalContext(m), "w", Constant(9)) == frozenset()


def test_validate_model_accepts(two_world):
    assert validate_model(two_world) == []


def test_validate_model_empty_normal():
    m = SubsetModel(worlds=("w",), normal=frozenset())
    assert any("nonempty" in v for v in validate_model(m))


def test_validate_model_v0_on_nonnormal():
    m = SubsetModel(
        worlds=("w", "u"),
        normal=frozenset({"w"}),
        v0={("u", 1): True},
    )
    assert any("not a normal world" in v for v in validate_model(m))


def test_validate_model_names_each_violation_once_in_order():
    m = SubsetModel(
        worlds=("w", "u1", "u2"),
        normal=frozenset({"w"}),
        v0={("u1", 1): True, ("u2", 1): True, ("u1", 2): 3, ("u1", 3): True},
    )
    assert validate_model(m) == [
        "v0 key 'u1' is not a normal world",
        "v0 key 'u2' is not a normal world",
        "v0 value for ('u1', P2) must be a boolean",
    ]


def test_validate_model_refuses_an_index_that_only_equals_an_int():
    # ("w", True) would read as P1, since True == 1
    for p in (True, 1.0, 0, "1"):
        m = SubsetModel(worlds=("w",), normal=frozenset({"w"}), v0={("w", p): True})
        assert validate_model(m) == [
            "v0 proposition index %r must be an integer >= 1" % (p,)]


def test_validate_model_refuses_a_v1_key_or_value_of_the_wrong_kind():
    m = SubsetModel(
        worlds=("w", "u"),
        normal=frozenset({"w"}),
        v1={("u", "P1"): True, ("u", P1): 1},
    )
    assert validate_model(m) == [
        "v1 key 'P1' is not a formula",
        "v1 value at 'u' must be a boolean",
    ]


def test_validate_model_more_shapes():
    m = SubsetModel(
        worlds=("w", "w"),
        normal=frozenset({"w", "zzz"}),
        v1={("w", P1): True},
        evidence={("w", Variable(1)): frozenset({"nope"})},
        evidence_default="sometimes",
    )
    bad = validate_model(m)
    assert any("duplicate" in v for v in bad)
    assert any("must all be listed" in v for v in bad)
    assert any("not a non-normal world" in v for v in bad)
    assert any("unknown worlds" in v for v in bad)
    assert any("evidence_default" in v for v in bad)


def test_is_cs_model_explicit_failure():
    # c1's evidence includes a non-normal world that falsifies the axiom.
    ax = Implies(P1, Implies(P2, P1))
    m = SubsetModel(
        worlds=("w", "u"),
        normal=frozenset({"w"}),
        v1={},  # u reads v1, default 0, so ax is false at u
        evidence={("w", Constant(1)): frozenset({"w", "u"})},
    )
    assert cs_violations(EvalContext(m), [(Constant(1), ax)]) == [("w", Constant(1), ax)]


def test_is_cs_model_explicit_success():
    ax = Implies(P1, Implies(P2, P1))
    m = SubsetModel(
        worlds=("w", "u"),
        normal=frozenset({"w"}),
        v1={("u", ax): True},
        evidence={("w", Constant(1)): frozenset({"w", "u"})},
    )
    assert cs_violations(EvalContext(m), [(Constant(1), ax)]) == []


def test_validate_cs_structure():
    ConstantSpec("empty")
    ConstantSpec("explicit", ((Constant(1), P1),))
    with pytest.raises(ValueError, match="mode must be one of"):
        ConstantSpec("emtpy")
    with pytest.raises(ValueError, match="explicit mode"):
        ConstantSpec("full", ((Constant(1), P1),))
    with pytest.raises(ValueError, match="not a constant"):
        ConstantSpec("explicit", ((Variable(1), P1),))
    with pytest.raises(ValueError, match="not a formula"):
        ConstantSpec("explicit", ((Constant(1), "P1"),))


# -- JSON files ----------------------------------------------------------

INTERFACE_MODEL = (
    '{"worlds":["w","v"],"normal":["w"],"v0":{"w":{"P1":true}},'
    '"v1":{"v":{"P1":false,"(P1 -> P2)":true}},'
    '"evidence":{"w":{"x1":["w"],"up(P1)":["w","v"]}},"evidence_default":"all"}'
)


def test_model_from_json_interface_string():
    m = model_from_json(json.loads(INTERFACE_MODEL))
    assert m.worlds == ("w", "v")
    assert m.normal == frozenset({"w"})
    assert m.v0 == {("w", 1): True}
    assert m.v1 == {("v", P1): False, ("v", Implies(P1, P2)): True}
    assert m.evidence == {
        ("w", Variable(1)): frozenset({"w"}),
        ("w", Up(P1)): frozenset({"w", "v"}),
    }
    assert m.evidence_default == "all"


def test_model_json_round_trip():
    m = model_from_json(json.loads(INTERFACE_MODEL))
    again = model_from_json(model_to_json(m))
    assert again == m
    assert model_to_json(again) == model_to_json(m)


def test_model_json_rejects_unknown_keys():
    obj = json.loads(INTERFACE_MODEL)
    obj["flavor"] = "grape"
    with pytest.raises(ValueError, match="unknown keys"):
        model_from_json(obj)


def test_model_json_missing_required():
    with pytest.raises(ValueError, match="missing"):
        model_from_json({"worlds": ["w"]})


def test_model_json_bad_inner_syntax():
    obj = json.loads(INTERFACE_MODEL)
    obj["v1"] = {"v": {"P1 ->": True}}
    with pytest.raises(ValueError, match="bad v1 key"):
        model_from_json(obj)


def test_model_json_bad_key_names_its_offset_and_is_cut_short():
    obj = json.loads(INTERFACE_MODEL)
    key = "(P1 -> P" + "7" * 1000  # the ")" is missing
    obj["v1"] = {"v": {key: True}}
    with pytest.raises(ValueError) as e:
        model_from_json(obj)
    message = str(e.value)
    assert message.startswith("bad v1 key '(P1 -> P777")
    assert message.endswith("at offset %d: expected ')'" % (len(key) + 1))
    assert len(message) < 200


def test_model_json_v0_key_must_be_prop():
    obj = json.loads(INTERFACE_MODEL)
    obj["v0"] = {"w": {"x1 : P1": True}}
    with pytest.raises(ValueError, match="proposition"):
        model_from_json(obj)


def test_model_json_validate_flag():
    obj = {"worlds": ["w"], "normal": []}
    with pytest.raises(ValueError, match="invalid model"):
        model_from_json(obj)
    m = model_from_json(obj, validate=False)
    assert any("nonempty" in v for v in validate_model(m))


def test_cs_json_round_trip():
    obj = {"mode": "explicit", "pairs": [["c1", "(P1 -> (P2 -> P1))"]]}
    cs = cs_from_json(obj)
    assert cs.mode == "explicit"
    assert cs.pairs == ((Constant(1), Implies(P1, Implies(P2, P1))),)
    assert cs_from_json(cs_to_json(cs)) == cs


def test_cs_json_rejections():
    with pytest.raises(ValueError, match="mode"):
        cs_from_json({"mode": "sometimes"})
    with pytest.raises(ValueError, match="constant"):
        cs_from_json({"mode": "explicit", "pairs": [["x1", "P1"]]})
    with pytest.raises(ValueError, match="pair"):
        cs_from_json({"mode": "explicit", "pairs": [["c1"]]})


def test_file_round_trip(tmp_path, two_world):
    p = tmp_path / "m.json"
    save_model(two_world, str(p))
    assert load_model(str(p)) == two_world
    q = tmp_path / "cs.json"
    q.write_text('{"mode": "empty"}')
    assert load_cs(str(q)) == ConstantSpec("empty")


def model_bytes(m: SubsetModel) -> bytes:
    return (json.dumps(model_to_json(m), indent=2) + "\n").encode("utf-8")


def test_save_over_a_longer_file_leaves_only_the_new_bytes(tmp_path, two_world):
    p = tmp_path / "m.json"
    p.write_bytes(b"x" * (3 * len(model_bytes(two_world))))
    save_model(two_world, str(p))
    assert p.read_bytes() == model_bytes(two_world)


def test_saving_twice_onto_one_path_equals_a_fresh_save(tmp_path, two_world):
    p, fresh = tmp_path / "m.json", tmp_path / "fresh.json"
    save_model(two_world, str(p))
    save_model(two_world, str(p))
    save_model(two_world, str(fresh))
    assert p.read_bytes() == fresh.read_bytes() == model_bytes(two_world)


def test_save_model_never_opens_with_truncation(tmp_path, two_world, monkeypatch):
    # truncating to zero on open makes ext4 flush the old data before the
    # next overwrite of the file; the write stays in place instead
    flags = []
    real_open = os.open

    def spy(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    p = tmp_path / "m.json"
    save_model(two_world, str(p))
    save_model(two_world, str(p))
    monkeypatch.undo()
    assert len(flags) == 2
    assert not any(flag & os.O_TRUNC for flag in flags)


def test_load_model_refuses_deep_nesting_in_one_line(tmp_path):
    # nesting past the recursion limit is a ValueError naming the file
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    with pytest.raises(ValueError) as e:
        load_model(str(deep))
    assert str(e.value) == "%s nests too deeply to read" % deep


def test_load_cs_refuses_an_overlong_integer_in_one_line(tmp_path):
    # an integer of more digits than int() converts is a ValueError naming
    # the file and the digit count, with no advice to call
    # sys.set_int_max_str_digits
    big = tmp_path / "big.json"
    big.write_text('{"mode": "explicit", "pairs": [[%s, "P1"]]}' % ("1" * 5001))
    with pytest.raises(ValueError) as e:
        load_cs(str(big))
    assert str(e.value) == "%s is not valid JSON: integer of 5001 digits is too long" % big
