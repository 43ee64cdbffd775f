"""Command-line behavior: outputs, files, and the exit-code contract.

Everything runs in-process through main(argv) so capsys can watch the
streams; one subprocess test at the end confirms the module entry point
wires up the same way.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import jus
from jus import cli, parse
from jus.cli import main
from jus.model import ConstantSpec, model_from_json
from jus.proof import proof_to_json, prove_necessitation, prove_ramsey
from jus.syntax import Prop, Variable

from conftest import data_path

P1 = Prop(1)

# a subprocess imports the same jus as this process, installed or not
SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(jus.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- eval -----------------------------------------------------------------

def test_eval_true(capsys, two_world_path):
    code, out, _ = run_cli(capsys, "eval", two_world_path, "w", "[P1] up(P1) : P1")
    assert code == 0
    assert json.loads(out) is True


def test_eval_false(capsys, two_world_path):
    code, out, _ = run_cli(capsys, "eval", two_world_path, "w", "[P1] x1 : ~ up(P1) : P1")
    assert code == 1
    assert json.loads(out) is False


def test_eval_human(capsys, two_world_path):
    code, out, _ = run_cli(
        capsys, "eval", two_world_path, "w", "x1 : ~ up(P1) : P1", "--human"
    )
    assert code == 0
    assert out.strip() == "true at w"


def test_eval_missing_file(capsys):
    code, _, err = run_cli(capsys, "eval", "no-such-file.json", "w", "P1")
    assert code == 2
    assert "no-such-file.json" in err


def test_eval_unknown_world(capsys, two_world_path):
    code, _, err = run_cli(capsys, "eval", two_world_path, "zz", "P1")
    assert code == 2
    assert "zz" in err


def test_eval_parse_error(capsys, two_world_path):
    code, _, err = run_cli(capsys, "eval", two_world_path, "w", "(P1 ->")
    assert code == 2
    assert "does not parse" in err


# -- update ---------------------------------------------------------------

def test_update_materializes_up_evidence(capsys, two_world_path, tmp_path):
    out_path = str(tmp_path / "updated.json")
    code, out, _ = run_cli(capsys, "update", two_world_path, "P1", "--out", out_path)
    assert code == 0
    assert json.loads(out) == {"written": out_path}
    with open(out_path) as fh:
        obj = json.load(fh)
    assert obj["evidence"]["w"]["up(P1)"] == ["w"]
    assert obj["evidence"]["w"]["x1"] == ["w"]  # untouched
    model_from_json(obj)  # still a valid model file


def test_update_materializes_missing_entry(capsys, two_world_path, tmp_path):
    # up(P2) had no stored entry (default: all); announcing P2 pins it to
    # P2's truth set, which is empty in this model
    out_path = str(tmp_path / "updated.json")
    code, _, _ = run_cli(capsys, "update", two_world_path, "P2", "--out", out_path)
    assert code == 0
    with open(out_path) as fh:
        obj = json.load(fh)
    assert obj["evidence"]["w"]["up(P2)"] == []


def test_update_twice_agrees_with_chain(capsys, two_world_path, tmp_path):
    once = str(tmp_path / "once.json")
    twice = str(tmp_path / "twice.json")
    run_cli(capsys, "update", two_world_path, "P1", "--out", once)
    code, _, _ = run_cli(capsys, "update", once, "P1", "--out", twice)
    assert code == 0
    # evaluating on the materialized file = evaluating under the prefix
    for formula, prefixed in (
        ("up(P1) : P1", "[P1] [P1] up(P1) : P1"),
        ("x1 : P1", "[P1] [P1] x1 : P1"),
    ):
        on_file = run_cli(capsys, "eval", twice, "w", formula)[0]
        chained = run_cli(capsys, "eval", two_world_path, "w", prefixed)[0]
        assert on_file == chained


def test_update_write_failure(capsys, two_world_path, tmp_path):
    code, _, err = run_cli(
        capsys, "update", two_world_path, "P1", "--out", str(tmp_path / "no" / "dir.json")
    )
    assert code == 2
    assert "cannot write" in err


# -- check-proof ------------------------------------------------------------

def write_proof(tmp_path, steps):
    p = tmp_path / "proof.json"
    p.write_text(json.dumps(steps))
    return str(p)


def test_check_proof_ok(capsys, tmp_path):
    path = write_proof(
        tmp_path, [{"formula": "[P1] up(P1) : P1", "rule": "axiom", "schema": "up"}]
    )
    code, out, _ = run_cli(capsys, "check-proof", path, "full")
    assert code == 0
    assert json.loads(out) == {"ok": True}


def test_check_proof_failure(capsys, tmp_path):
    path = write_proof(tmp_path, [{"formula": "c1 : P1", "rule": "an"}])
    code, out, _ = run_cli(capsys, "check-proof", path, "empty")
    assert code == 1
    obj = json.loads(out)
    assert obj["ok"] is False
    assert obj["step"] == 1
    assert "not in the constant specification" in obj["reason"]
    path = write_proof(tmp_path, [{"formula": "c1 : (P1 -> P1)", "rule": "an",
                                   "constant": "c2"}])
    code, out, err = run_cli(capsys, "check-proof", path, "full")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"ok": False, "step": 1,
                               "reason": "declared constant does not occur in the step"}


def test_check_proof_human_failure(capsys, tmp_path):
    path = write_proof(tmp_path, [{"formula": "c1 : P1", "rule": "an"}])
    code, out, _ = run_cli(capsys, "check-proof", path, "empty", "--human")
    assert code == 1
    assert out.startswith("step 1:")


def test_check_proof_missing_cs_file(capsys, tmp_path):
    path = write_proof(tmp_path, [{"formula": "P1 -> P1", "rule": "axiom"}])
    code, _, err = run_cli(capsys, "check-proof", path, str(tmp_path / "cs.json"))
    assert code == 2
    assert "cannot read" in err


def test_check_proof_malformed_proof(capsys, tmp_path):
    path = write_proof(tmp_path, [{"formula": "P1", "rule": "wish"}])
    code, _, err = run_cli(capsys, "check-proof", path, "full")
    assert code == 2
    assert "rule" in err


def test_check_proof_rejects_unsound_pers(capsys, tmp_path):
    # announcing P1 earns up(P1) the justification the body denies, so
    # search refutes the formula and the checker must refuse it as Pers
    witness = "(up(P1) : ~up(P1) : P1 -> [P1] up(P1) : ~up(P1) : P1)"
    path = write_proof(
        tmp_path, [{"formula": witness, "rule": "axiom", "schema": "pers"}]
    )
    code, out, _ = run_cli(capsys, "check-proof", path, "full")
    assert code == 1
    assert json.loads(out)["reason"] == "not an axiom instance"
    code, out, _ = run_cli(capsys, "search", witness)
    assert code == 1
    assert json.loads(out)["outcome"] == "countermodel"


def test_check_proof_refuses_non_axiom_pair(capsys, tmp_path):
    # an explicit CS may list (c1, P1), but P1 is no axiom, so the pair
    # licenses nothing and the necessitation step fails
    path = write_proof(tmp_path, [{"formula": "c1 : P1", "rule": "an", "constant": "c1"}])
    cs = tmp_path / "cs.json"
    cs.write_text(json.dumps({"mode": "explicit", "pairs": [["c1", "P1"]]}))
    code, out, _ = run_cli(capsys, "check-proof", path, str(cs))
    assert code == 1
    obj = json.loads(out)
    assert (obj["ok"], obj["step"]) == (False, 1)
    assert "not in the constant specification" in obj["reason"]


def test_check_proof_refuses_malformed_cs_file(capsys, tmp_path):
    # a mode typo is refused at load, not read as some other mode
    path = write_proof(tmp_path, [{"formula": "c1 : (P1 -> P1)", "rule": "an"}])
    cs = tmp_path / "cs.json"
    cs.write_text(json.dumps({"mode": "emtpy"}))
    code, _, err = run_cli(capsys, "check-proof", path, str(cs))
    assert code == 2
    assert "mode must be one of empty, explicit, full" in err


def test_search_imposes_only_licensed_explicit_pairs(capsys, tmp_path, two_world_path):
    # (c1, P1) licenses nothing, as check-proof says, so search forces no
    # model to honour it and refutes c1 : P1; validate --cs still checks it
    cs = tmp_path / "cs.json"
    cs.write_text(json.dumps({"mode": "explicit", "pairs": [["c1", "P1"]]}))
    path = write_proof(tmp_path, [{"formula": "c1 : P1", "rule": "an", "constant": "c1"}])
    assert run_cli(capsys, "check-proof", path, str(cs))[0] == 1
    code, out, _ = run_cli(capsys, "search", "c1 : P1", "--cs", str(cs))
    assert code == 1
    assert json.loads(out)["outcome"] == "countermodel"
    # a licensed pair in the same file is still imposed
    cs.write_text(json.dumps({"mode": "explicit",
                              "pairs": [["c1", "P1"], ["c2", "(P1 -> P1)"]]}))
    code, out, _ = run_cli(capsys, "search", "c2 : (P1 -> P1)", "--cs", str(cs))
    assert code == 0
    assert json.loads(out)["outcome"] == "exhausted"
    code, out, _ = run_cli(capsys, "validate", two_world_path, "--cs", str(cs))
    assert code == 1
    violations = json.loads(out)["violations"]
    assert {"world": "w", "constant": "c1", "formula": "P1"} in violations


def test_check_proof_and_search_agree_on_iterated_full_cs(capsys, tmp_path):
    # full pairs c1 with c2 : (P1 -> P1), so the one-step proof checks,
    # and search must force that pair onto its models and find no refutation
    f = "c1 : c2 : (P1 -> P1)"
    path = write_proof(tmp_path, [{"formula": f, "rule": "an"}])
    code, _, _ = run_cli(capsys, "check-proof", path, "full")
    assert code == 0
    code, out, _ = run_cli(capsys, "search", f)
    assert code == 0
    assert json.loads(out)["outcome"] == "exhausted"


def test_check_proof_ramsey_round_trip(capsys, tmp_path):
    proof = prove_ramsey(Variable(1), P1, Prop(2), ConstantSpec("full"))
    path = write_proof(tmp_path, proof_to_json(proof))
    code, out, _ = run_cli(capsys, "check-proof", path, "full")
    assert code == 0
    assert json.loads(out) == {"ok": True}


def test_check_proof_calls_share_no_parse_memo(capsys, tmp_path, monkeypatch):
    # the group memo lives for one reading of one file, so a second call
    # on the same file in the same process reads as much as the first
    full = ConstantSpec("full")
    _, proof = prove_necessitation(prove_ramsey(Variable(1), P1, Prop(2), full), full)
    path = write_proof(tmp_path, proof_to_json(proof))
    reads = []
    unary = parse._Parser.unary

    def counted(self):
        reads.append(self.end - len(self.tok))
        return unary(self)

    monkeypatch.setattr(parse._Parser, "unary", counted)
    work = []
    for _ in range(2):
        reads.clear()
        assert run_cli(capsys, "check-proof", path, "full")[0] == 0
        work.append(len(reads))
    assert work[0] == work[1] > 0


# -- search ----------------------------------------------------------------

def test_search_finds_two_world_countermodel(capsys):
    code, out, _ = run_cli(
        capsys, "search", "x1 : ~ up(P1) : P1 -> [P1] x1 : ~ up(P1) : P1"
    )
    assert code == 1
    obj = json.loads(out)
    assert obj["outcome"] == "countermodel"
    assert obj["world"] in obj["model"]["normal"]
    assert obj["models_scanned"] >= 1


def test_search_exhausts_on_tautology(capsys):
    code, out, _ = run_cli(capsys, "search", "(P1 -> P1)", "--max-worlds", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["outcome"] == "exhausted"
    assert "not implied" in obj["note"]


def test_search_simple_prop(capsys):
    code, out, _ = run_cli(capsys, "search", "P1", "--max-worlds", "1")
    assert code == 1
    obj = json.loads(out)
    assert obj["outcome"] == "countermodel"
    assert obj["model"]["worlds"] == ["w1"]


def test_search_bad_input(capsys):
    assert run_cli(capsys, "search", "(P1 ->")[0] == 2
    assert run_cli(capsys, "search", "P1", "--max-worlds", "0")[0] == 2
    # a negative bound would scan nothing and report "exhausted"
    code, out, err = run_cli(capsys, "search", "P1", "--max-nonnormal", "-1")
    assert code == 2
    assert out == "" and "non-normal" in err


def test_search_full_cs_with_constant(capsys):
    # the default full CS pairs the formula's own constants with the
    # axioms its evaluation touches
    code, out, _ = run_cli(capsys, "search", "c1 : (P1 -> P1)")
    assert code == 0
    assert json.loads(out)["outcome"] == "exhausted"


def test_search_human(capsys):
    code, out, _ = run_cli(capsys, "search", "(P1 -> P1)", "--human")
    assert code == 0
    assert "does not certify validity" in out


# -- validate ----------------------------------------------------------------

def test_validate_ok(capsys, two_world_path):
    code, out, _ = run_cli(capsys, "validate", two_world_path)
    assert code == 0
    assert json.loads(out) == {"ok": True}


def test_validate_reports_violations(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"worlds": ["w"], "normal": []}')
    code, out, _ = run_cli(capsys, "validate", str(p))
    assert code == 1
    obj = json.loads(out)
    assert obj["ok"] is False
    assert any("nonempty" in v for v in obj["violations"])


def test_validate_lists_each_violation_once(capsys, tmp_path):
    # 1,000 v0 entries at the non-normal world v all break one rule
    p = tmp_path / "many.json"
    p.write_text(json.dumps({"worlds": ["w", "v"], "normal": ["w"],
                             "v0": {"v": {"P%d" % i: True for i in range(1, 1001)}}}))
    code, out, _ = run_cli(capsys, "validate", str(p))
    assert code == 1
    assert json.loads(out) == {"ok": False, "violations": ["v0 key 'v' is not a normal world"]}
    code, out, _ = run_cli(capsys, "validate", str(p), "--human")
    assert (code, out) == (1, "v0 key 'v' is not a normal world\n")


def test_validate_malformed_file(capsys, tmp_path, two_world_path):
    p = tmp_path / "bad.json"
    p.write_text('{"worlds": ["w"], "normal": ["w"], "flavor": 3}')
    assert run_cli(capsys, "validate", str(p))[0] == 2
    p.write_text("not json")
    assert run_cli(capsys, "validate", str(p))[0] == 2
    # each shape is refused with one line naming what is wrong
    for model, cs, message in [
            (None, {"mode": "explicit", "pairs": "c1"}, "pairs must be a list"),
            (None, {"mode": "explicit", "pairs": [[1, "P1"]]}, "pairs key 1 must be a string"),
            ({"worlds": "w", "normal": ["w"]}, None, "'worlds' must be a list of world names"),
            ({"worlds": ["w", 1], "normal": ["w"]}, None,
             "'worlds' must be a list of world names"),
            ({"worlds": ["w"], "normal": ["w"], "v0": ["w"]}, None,
             "'v0' must map world names to objects"),
            ({"worlds": ["w"], "normal": ["w"], "v0": {"w": True}}, None,
             "'v0' must map world names to objects")]:
        argv = ["validate", two_world_path]
        if model is not None:
            p.write_text(json.dumps(model))
            argv[1] = str(p)
        if cs is not None:
            c = tmp_path / "cs.json"
            c.write_text(json.dumps(cs))
            argv += ["--cs", str(c)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines() == ["%s: %s" % (argv[-1], message)]


def test_validate_against_cs(capsys, tmp_path):
    model = tmp_path / "m.json"
    model.write_text(
        json.dumps(
            {
                "worlds": ["w", "u"],
                "normal": ["w"],
                "v0": {},
                "v1": {},
                "evidence": {"w": {"c1": ["w", "u"]}},
                "evidence_default": "all",
            }
        )
    )
    cs = tmp_path / "cs.json"
    cs.write_text('{"mode":"explicit","pairs":[["c1","(P1 -> (P2 -> P1))"]]}')
    code, out, _ = run_cli(capsys, "validate", str(model), "--cs", str(cs))
    assert code == 1
    obj = json.loads(out)
    assert obj["violations"] == [
        {"world": "w", "constant": "c1", "formula": "(P1 -> (P2 -> P1))"}
    ]
    # the axiom-shape pair holds once u's valuation asserts it
    model.write_text(
        json.dumps(
            {
                "worlds": ["w", "u"],
                "normal": ["w"],
                "v1": {"u": {"(P1 -> (P2 -> P1))": True}},
                "evidence": {"w": {"c1": ["w", "u"]}},
            }
        )
    )
    assert run_cli(capsys, "validate", str(model), "--cs", str(cs))[0] == 0


# -- taut ---------------------------------------------------------------------

def test_taut_verdicts(capsys):
    code, out, _ = run_cli(capsys, "taut", "(P1 -> P1)")
    assert code == 0 and json.loads(out) is True
    code, out, _ = run_cli(capsys, "taut", "P1")
    assert code == 1 and json.loads(out) is False
    code, out, _ = run_cli(capsys, "taut", "up(P1) : P1", "--human")
    assert code == 1 and out.strip() == "not a tautology"


def test_taut_refuses_too_many_atoms(capsys):
    code, out, err = run_cli(capsys, "taut", " -> ".join("P%d" % i for i in range(1, 27)))
    assert (code, out) == (2, "")
    assert err == "formula has 26 boolean atoms; refusing the 2^26-row table\n"


def test_check_proof_refuses_too_many_atoms(capsys, tmp_path):
    formula = " -> ".join("P%d" % i for i in range(1, 27))
    path = write_proof(tmp_path, [{"formula": formula, "rule": "axiom"}])
    code, out, err = run_cli(capsys, "check-proof", path, "full")
    assert (code, out) == (2, "")
    assert err == "%s: formula has 26 boolean atoms; refusing the 2^26-row table\n" % path


def test_search_refuses_too_many_atoms(capsys, tmp_path):
    # the full CS, or a CS file, pairs c1 with a formula the checker's rule
    # would need a 2^26-row table for
    formula = " -> ".join("P%d" % i for i in range(1, 27))
    cs = tmp_path / "cs.json"
    cs.write_text(json.dumps({"mode": "explicit", "pairs": [["c1", formula]]}))
    for argv in (["search", "c1 : P1 -> " + formula, "--max-worlds", "1"],
                 ["search", "c1 : (%s)" % formula, "--max-worlds", "1", "--cs", str(cs)]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "formula has 26 boolean atoms; refusing the 2^26-row table\n"


def test_check_proof_licenses_big_core_schema_instances(capsys, tmp_path):
    # an Indep instance whose skeleton has 31 atoms: the core schemas are
    # tried before any truth table, both for an axiom step with no schema
    # and for the body of a necessitation step
    body = "(%s)" % " -> ".join("P%d" % i for i in range(1, 31))
    indep = "([P31] %s <-> %s)" % (body, body)
    path = write_proof(tmp_path, [{"formula": indep, "rule": "axiom"},
                                  {"formula": "c1 : %s" % indep, "rule": "an"}])
    code, out, _ = run_cli(capsys, "check-proof", path, "full")
    assert (code, json.loads(out)) == (0, {"ok": True})


# -- deep input ----------------------------------------------------------------

def test_deeply_nested_json_exits_2(capsys, tmp_path):
    deep = str(tmp_path / "deep.json")
    with open(deep, "w") as fh:
        fh.write("[" * 200000)
    proof = write_proof(tmp_path, [{"formula": "[P1] up(P1) : P1", "rule": "axiom"}])
    for argv in (["eval", deep, "w", "P1"],
                 ["update", deep, "P1", "--out", str(tmp_path / "out.json")],
                 ["validate", deep],
                 ["check-proof", deep, "full"],
                 ["check-proof", proof, deep]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "%s nests too deeply to read\n" % deep


def test_undecodable_files_exit_2(capsys, two_world_path, tmp_path):
    # bytes that are not UTF-8, and an integer of more digits than int()
    # converts (4,300 by default), are a file that does not read
    model = tmp_path / "model.json"
    model.write_bytes(b'\xff{"worlds": ["w"], "normal": ["w"]}')
    proof = tmp_path / "proof.json"
    proof.write_text('[{"formula": "P1", "rule": "mp", "premises": [%s, 2]}]' % ("1" * 5000))
    negative = tmp_path / "negative.json"
    negative.write_text('[{"formula": "P1", "rule": "mp", "premises": [-%s, 2]}]' % ("1" * 5000))
    for argv, path in [(["eval", str(model), "w", "P1"], model),
                       (["validate", two_world_path, "--cs", str(model)], model),
                       (["check-proof", str(proof), "full"], proof),
                       (["check-proof", str(negative), "full"], negative)]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("%s is not valid JSON: " % path) and err.count("\n") == 1
        # the line names the digit count, with no advice a user cannot act on
        assert "set_int_max_str_digits" not in err
        assert len(err) - len(str(path)) < 100
    for path in (proof, negative):
        err = run_cli(capsys, "check-proof", str(path), "full")[2]
        assert err == "%s is not valid JSON: integer of 5000 digits is too long\n" % path


def test_mutated_files_keep_the_exit_code_contract(capsys, tmp_path):
    # seeded byte edits of model, proof and CS files, read by every
    # subcommand that reads a file: each call answers with 0, 1 or 2, and
    # a refusal is one line on stderr
    rng = random.Random(21)
    model = Path(data_path("two_world.json")).read_bytes()
    proof = json.dumps(proof_to_json(
        prove_ramsey(Variable(1), P1, Prop(2), ConstantSpec("full")))).encode()
    cs = json.dumps({"mode": "explicit",
                     "pairs": [["c1", "(P1 -> P1)"], ["c2", "[P1] up(P1) : P1"]]}).encode()
    good_proof = tmp_path / "good.json"
    good_proof.write_bytes(proof)
    path, out = str(tmp_path / "mutated.json"), str(tmp_path / "out.json")
    reads = {
        model: [["eval", path, "w", "P1"], ["update", path, "P1", "--out", out],
                ["validate", path]],
        proof: [["check-proof", path, "full"]],
        cs: [["check-proof", str(good_proof), path],
             ["validate", data_path("two_world.json"), "--cs", path],
             ["search", "c1 : (P1 -> P1)", "--max-worlds", "1", "--cs", path]],
    }
    codes = set()
    for _ in range(1500):
        original = rng.choice(list(reads))
        data = bytearray(original)
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(data) + 1)
            data[at:at + rng.randint(0, 1)] = rng.choice(
                [b"", bytes([rng.randrange(256)]), b"\xff", b"1", b"[", b'"', b"1" * 4400])
        Path(path).write_bytes(bytes(data))
        argv = rng.choice(reads[original])
        code, _, err = run_cli(capsys, *argv)
        assert code in (0, 1, 2), argv
        assert (err.count("\n") == 1) == (code == 2), (argv, err[:200])
        codes.add(code)
    assert codes == {0, 1, 2}


def test_deep_formulas_exit_2(capsys, two_world_path, tmp_path):
    code, out, err = run_cli(capsys, "eval", two_world_path, "w", "~" * 3000 + "P1")
    assert (code, out) == (2, "")
    assert err == "formula does not parse: at offset 101: nested more than 100 levels deep\n"
    model = tmp_path / "model.json"
    model.write_text(json.dumps(
        {"worlds": ["w", "v"], "normal": ["w"], "v1": {"v": {"~" * 3000 + "P1": True}}}))
    code, out, err = run_cli(capsys, "eval", str(model), "w", "P1")
    assert (code, out) == (2, "")
    assert "nested more than 100 levels deep" in err and err.count("\n") == 1


def test_overlong_index_exits_2(capsys, two_world_path, tmp_path):
    # an index of more digits than int() converts is a parse error, whether
    # it comes as a formula argument, a proof-file step or a model-file key
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts indices of any length")
    ones = "1" * (limit + 1)
    too_long = "index of %d digits is too long\n" % (limit + 1)
    proof = write_proof(tmp_path, [{"formula": "(P1 -> P%s)" % ones, "rule": "axiom"}])
    v1_key = tmp_path / "v1.json"
    v1_key.write_text(json.dumps(
        {"worlds": ["w", "v"], "normal": ["w"], "v1": {"v": {"P" + ones: True}}}))
    evidence_key = tmp_path / "evidence.json"
    evidence_key.write_text(json.dumps(
        {"worlds": ["w"], "normal": ["w"], "evidence": {"w": {"c" + ones: ["w"]}}}))
    for argv, start in [
        (["taut", "P" + ones], "formula does not parse: at offset 1: "),
        (["eval", two_world_path, "w", "P1 -> x" + ones + " : P1"],
         "formula does not parse: at offset 7: "),
        (["check-proof", proof, "full"], "%s: step 1 formula: " % proof),
        (["eval", str(v1_key), "w", "P1"], "%s: bad v1 key " % v1_key),
        (["validate", str(evidence_key)], "%s: bad evidence key " % evidence_key),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv[0]
        assert err.startswith(start) and err.endswith(too_long), err[:120]
        assert err.count("\n") == 1
        # the fault's offset is named, and a long key is echoed cut short
        assert "at offset " in err and len(err) < 200, err[:200]


def test_echoed_input_is_cut_short(capsys, two_world_path, tmp_path):
    # an error line that echoes part of an input file or argument cuts it
    # short, so a 5,000-character value gives a short line, and exit 2
    long = "y" * 5000
    # an index int() converts (4,300 digits by default), spaced out to 5,000
    index = "1" * 4000 + " " * 1000

    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    model = {"worlds": ["w"], "normal": ["w"]}
    cases = [
        (["eval", write("key.json", dict(model, **{long: 1})), "w", "P1"],
         "model file has unknown keys: ['yyy"),
        (["check-proof", write("step-key.json", [{"formula": "P1", "rule": "axiom", long: 1}]),
          "full"], "step 1 has unknown keys: ['yyy"),
        (["check-proof", write("schema.json", [{"formula": "P1", "rule": "axiom",
                                                "schema": long}]), "full"],
         "step 1 names unknown schema 'yyy"),
        (["eval", write("v0-world.json", dict(model, worlds=["w", long],
                                              v0={long: {"P1": True}})), "w", "P1"],
         "invalid model: v0 key 'yyy"),
        (["eval", write("v1-world.json", {"worlds": [long], "normal": [long],
                                          "v1": {long: {"P1": True}}}), long, "P1"],
         "invalid model: v1 key 'yyy"),
        (["eval", write("evidence-world.json", dict(model, evidence={long: {"c1": ["w"]}})),
          "w", "P1"], "invalid model: evidence key 'yyy"),
        (["eval", write("evidence-term.json", dict(model, evidence={"w": {
            "(x1 *[P%s] x2)" % index: ["w"]}})), "w", "P1"],
         "invalid model: evidence term App("),
        (["eval", write("v0-key.json", dict(model, v0={"w": {"~P" + index: True}})), "w", "P1"],
         "v0 key '~P111"),
        (["eval", write("v0-value.json", dict(model, v0={"w": {"P" + index: 1}})), "w", "P1"],
         "v0 value for 'P111"),
        (["eval", write("evidence-set.json", dict(model, evidence={"w": {"c" + index: "w"}})),
          "w", "P1"], "evidence set for 'c111"),
        (["validate", two_world_path, "--cs", write("cs.json", {
            "mode": "explicit", "pairs": [["x" + index, "P1"]]})],
         "paired term Variable(111"),
        (["eval", two_world_path, long, "P1"], "world 'yyy"),
        (["taut", "P" + "0" * 4000], "at offset 1: index must be >= 1 in 'P000"),
    ]
    for argv, part in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), part
        assert part in err and err.count("\n") == 1, err[:200]
        assert len(err) < 200 and "..." in err, err[:300]


def test_invalid_model_line_names_each_violation_once(capsys, tmp_path):
    # 1,000 v0 entries at a non-normal world are one violation, and ten
    # such worlds ten, of which five are named
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"worlds": ["w", "v"], "normal": ["w"],
                                "v0": {"v": {"P%d" % i: True for i in range(1, 1001)}}}))
    code, out, err = run_cli(capsys, "eval", str(path), "w", "P1")
    assert (code, out) == (2, "")
    assert err.endswith(": invalid model: v0 key 'v' is not a normal world\n"), err[:500]
    others = ["v%d" % i for i in range(10)]
    path.write_text(json.dumps({"worlds": ["w"] + others, "normal": ["w"],
                                "v0": {v: {"P%d" % i: True for i in range(1, 101)}
                                       for v in others}}))
    code, out, err = run_cli(capsys, "eval", str(path), "w", "P1")
    assert (code, out) == (2, "")
    assert len(err) < 500 and err.count("\n") == 1, err[:500]
    assert err.count("is not a normal world") == 5 and err.endswith("; and 5 more\n")


def test_check_proof_refuses_boolean_premises(capsys, tmp_path):
    # JSON's true is no step index, though Python reads it as 1
    steps = [
        {"formula": "(P1 -> P1)", "rule": "axiom"},
        {"formula": "((P1 -> P1) -> (P2 -> (P1 -> P1)))", "rule": "axiom"},
        {"formula": "(P2 -> (P1 -> P1))", "rule": "mp", "premises": [1, 2]},
    ]
    assert run_cli(capsys, "check-proof", write_proof(tmp_path, steps), "full")[0] == 0
    steps[2]["premises"] = [True, 2]
    code, out, err = run_cli(capsys, "check-proof", write_proof(tmp_path, steps), "full")
    assert (code, out) == (2, "")
    assert err.endswith(": step 3 needs premises: [i, j]\n")


# -- entry point ---------------------------------------------------------------

def test_module_entry_point(two_world_path):
    proc = subprocess.run(
        [sys.executable, "-m", "jus.cli", "eval", two_world_path, "w", "[P1] up(P1) : P1"],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) is True


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("text, code, out", [("(P1 -> P1)", 0, "true\n"), ("P1", 1, "false\n"),
                                             ("(P1 ->", 2, "")])
def test_console_entry_point_exits_with_the_answer(monkeypatch, capsys, text, code, out):
    # the `jus` script of pyproject.toml calls cli.run, which reads sys.argv
    monkeypatch.setattr(sys, "argv", ["jus", "taut", text])
    with pytest.raises(SystemExit) as exit:
        cli.run()
    assert exit.value.code == code
    got = capsys.readouterr()
    assert got.out == out
    assert (got.err == "") == (code != 2)


def test_closed_pipe_keeps_exit_code_without_traceback():
    # the reader is gone before anything is written, as with `| head -1`
    # on a long answer: no traceback, and the countermodel still exits 1
    proc = subprocess.Popen(
        [sys.executable, "-m", "jus.cli", "search",
         "(up(P1) : ~up(P1) : P1 -> [P1] up(P1) : ~up(P1) : P1)", "--human"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=SUBPROCESS_ENV,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == ""


# -- one parser per process ----------------------------------------------------

@pytest.fixture
def emitted(monkeypatch):
    """The namespace of each call that gets as far as its output."""
    seen = []
    emit = cli._emit

    def spy(args, payload, human):
        seen.append(dict(vars(args)))
        emit(args, payload, human)

    monkeypatch.setattr(cli, "_emit", spy)
    return seen


def test_defaults_do_not_leak_between_calls(emitted, capsys, two_world_path):
    search = ["search", "(P1 -> P1)"]
    for given_first, key, values in [
        (["--cs", "empty"], "cs", ["empty", "full"]),
        (["--max-nonnormal", "0"], "max_nonnormal", [0, None]),
        (["--max-worlds", "1"], "max_worlds", [1, 2]),
    ]:
        run_cli(capsys, *search, *given_first)
        run_cli(capsys, *search)
        assert [args[key] for args in emitted[-2:]] == values
    run_cli(capsys, "validate", two_world_path, "--cs", "empty")
    run_cli(capsys, "validate", two_world_path)
    assert [args["cs"] for args in emitted[-2:]] == ["empty", None]
    eval_argv = ["eval", two_world_path, "w", "[P1] up(P1) : P1"]
    assert run_cli(capsys, *eval_argv, "--human") == (0, "true at w\n", "")
    assert run_cli(capsys, *eval_argv) == (0, "true\n", "")


def test_usage_error_then_valid_call(capsys):
    code, out, err = run_cli(capsys, "taut")
    assert (code, out) == (2, "") and err.endswith(
        "error: the following arguments are required: formula\n")
    assert run_cli(capsys, "taut", "(P1 -> P1)") == (0, "true\n", "")


@pytest.mark.parametrize("argv", [["--help"], ["search", "--help"],
                                  ["search", "P1", "--max-worlds", "two"]])
def test_help_and_usage_errors_print_what_a_fresh_parser_prints(capsys, argv):
    try:
        cli._build_parser.__wrapped__().parse_args(argv)
    except SystemExit as e:
        want_code = 0 if e.code in (0, None) else 2
    fresh = capsys.readouterr()
    assert fresh.out or fresh.err
    for _ in range(3):
        assert run_cli(capsys, *argv) == (want_code, fresh.out, fresh.err)


def test_parser_is_built_on_the_first_call_only():
    # argparse.ArgumentParser is counted in a new process: importing jus.cli
    # builds none; the first main() call builds the top parser and its six
    # subparsers, and later calls build nothing
    script = "\n".join([
        "import argparse, contextlib, io",
        "built = []",
        "init = argparse.ArgumentParser.__init__",
        "def counted(self, *a, **k):",
        "    built.append(1)",
        "    init(self, *a, **k)",
        "argparse.ArgumentParser.__init__ = counted",
        "import jus.cli",
        "counts = [len(built)]",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    for argv in (['taut', 'P1'], ['taut', '(P1 -> P1)'], ['nope']):",
        "        with contextlib.redirect_stderr(io.StringIO()):",
        "            jus.cli.main(argv)",
        "        counts.append(len(built))",
        "print(counts)",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=SUBPROCESS_ENV)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == [0, 7, 7, 7]


def test_subcommands_are_found_by_name_at_each_call(monkeypatch, capsys):
    # the kept parser holds no subcommand function: a cmd_* rebound after
    # the first call, as a tracer or a test rebinds it, is the one that runs
    assert run_cli(capsys, "taut", "(P1 -> P1)") == (0, "true\n", "")
    seen = []
    for name in ("eval", "update", "check-proof", "search", "validate", "taut"):
        monkeypatch.setattr(cli, "cmd_" + name.replace("-", "_"),
                            lambda args, name=name: seen.append(name) or 1)
    for argv in (["taut", "(P1 -> P1)"], ["eval", "m.json", "w", "P1"],
                 ["update", "m.json", "P1", "--out", "o.json"],
                 ["check-proof", "p.json", "full"], ["search", "P1"],
                 ["validate", "m.json"]):
        assert run_cli(capsys, *argv) == (1, "", "")
    assert seen == ["taut", "eval", "update", "check-proof", "search", "validate"]


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """A proof file, a CS file and a path to write models to."""
    d = tmp_path_factory.mktemp("argv")
    proof = d / "proof.json"
    proof.write_text(json.dumps([{"formula": "[P1] up(P1) : P1", "rule": "axiom"},
                                 {"formula": "c1 : [P1] up(P1) : P1", "rule": "an"}]))
    cs = d / "cs.json"
    cs.write_text(json.dumps({"mode": "explicit", "pairs": [["c1", "(P1 -> P1)"]]}))
    return {"proof": str(proof), "cs": str(cs), "missing": str(d / "missing.json"),
            "out": str(d / "out.json")}


@st.composite
def argvs(draw, files, model):
    """An argv over the subcommands: their positionals, sometimes one short
    or one too many, then known and unknown flags. Searches stay within 2
    worlds."""
    formulas = st.sampled_from(["P1", "(P1 -> P1)", "[P1] up(P1) : P1", "x1 : ~ up(P1) : P1",
                                "c1 : (P1 -> P1)", "~P2 & P3", "(P1 ->", "P0", ""])
    models = st.sampled_from([model, files["missing"], files["proof"]])
    specs = st.sampled_from(["full", "empty", "partial", files["cs"], files["missing"]])
    positionals = {
        "eval": [models, st.sampled_from(["w", "v", "zz"]), formulas],
        "update": [models, formulas],
        "check-proof": [st.sampled_from([files["proof"], model, files["missing"]]), specs],
        "search": [formulas],
        "validate": [models],
        "taut": [formulas],
        "nope": [formulas],
    }
    command = draw(st.sampled_from(sorted(positionals) + [None]))
    argv = [] if command is None else [command] + [
        draw(p) for p in positionals[command]]
    change = draw(st.sampled_from(["keep", "keep", "drop", "add"]))
    if change == "drop" and len(argv) > 1:
        del argv[draw(st.integers(1, len(argv) - 1))]
    elif change == "add":
        argv.append(draw(st.one_of(formulas, st.just("-x"))))
    flags = st.one_of(
        st.sampled_from([["--human"], ["--help"], ["--bogus"], ["--out"]]),
        st.tuples(st.just("--out"), st.sampled_from([files["out"], files["missing"] + "/x"])),
        st.tuples(st.just("--cs"), specs),
        st.tuples(st.sampled_from(["--max-worlds", "--max-nonnormal"]),
                  st.sampled_from(["0", "1", "2", "-1", "x"])),
    )
    for flag in draw(st.lists(flags, max_size=3)):
        argv.extend(flag)
    return argv


def called(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_exit_code_contract_across_calls(argv_files, data):
    # one process, one parser: every call keeps the contract, and a call
    # repeated at once answers as it did the first time
    argv = data.draw(argvs(argv_files, data_path("two_world.json")))
    first = called(list(argv))
    assert first[0] in (0, 1, 2), argv
    assert called(list(argv)) == first, argv
