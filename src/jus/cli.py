"""Command-line front door.

Subcommands: eval, update, check-proof, search, validate, taut. Output is
JSON unless --human asks for prose. Exit codes are a contract shared by
every subcommand: 0 affirmative, 1 negative (false / failed / countermodel
/ violations), 2 malformed input. Nothing else is ever returned.
The argparse parser is built on the first main() call and kept for the
rest of the process; main finds a subcommand's function, cmd_<name>, in
this module by name at each call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .explore import find_countermodel, report_to_json, signature_for
from .model import (
    ConstantSpec,
    _read_json,
    cs_from_json,
    model_from_json,
    model_to_json,
    save_model,
    validate_model,
)
from .parse import SourceError, _echo, parse_formula, print_formula, print_term
from .proof import check_proof, licensed_pairs, proof_from_json, taut_check
from .semantics import EvalContext, cs_violations, decoded, holds
from .syntax import Constant, Up, constants_in


class InputError(Exception):
    """Anything wrong with what the user handed us: exit 2."""


def _json_arg(path: str):
    try:
        return _read_json(path)
    except OSError as e:
        raise InputError("cannot read %s: %s" % (path, e.strerror or e)) from e
    except ValueError as e:
        raise InputError(str(e)) from e


def _model_arg(path: str, validate: bool = True):
    obj = _json_arg(path)
    try:
        return model_from_json(obj, validate=validate)
    except ValueError as e:
        raise InputError("%s: %s" % (path, e)) from e


def _formula_arg(text: str):
    try:
        return parse_formula(text)
    except SourceError as e:
        raise InputError("formula does not parse: %s" % e) from e


def _cs_arg(spec: str):
    if spec == "full":
        return ConstantSpec("full")
    if spec == "empty":
        return ConstantSpec("empty")
    obj = _json_arg(spec)
    try:
        return cs_from_json(obj)
    except ValueError as e:
        raise InputError("%s: %s" % (spec, e)) from e


def _emit(args, payload, human: str):
    """Queues the subcommand's output; main writes it once the exit code
    is known."""
    if args.human:
        args.output.append(human)
    else:
        args.output.append(json.dumps(payload, indent=2) if isinstance(payload, dict) else
                           json.dumps(payload))


def cmd_eval(args) -> int:
    m = _model_arg(args.model)
    f = _formula_arg(args.formula)
    if args.world not in m.worlds:
        raise InputError("world %s is not in the model" % _echo(args.world))
    value = holds(EvalContext(m), args.world, f)
    _emit(args, value, "%s at %s" % ("true" if value else "false", args.world))
    return 0 if value else 1


def cmd_update(args) -> int:
    m = _model_arg(args.model)
    c = _formula_arg(args.formula)
    updated = decoded(EvalContext(m).push(c), m, [Up(c)])
    try:
        save_model(updated, args.out)
    except OSError as e:
        raise InputError("cannot write %s: %s" % (args.out, e.strerror or e)) from e
    _emit(args, {"written": args.out}, "wrote %s" % args.out)
    return 0


def cmd_check_proof(args) -> int:
    obj = _json_arg(args.proof)
    try:
        p = proof_from_json(obj)
    except ValueError as e:
        raise InputError("%s: %s" % (args.proof, e)) from e
    cs = _cs_arg(args.cs)
    try:
        fail = check_proof(p, cs)
    except ValueError as e:  # taut_check's refusal of a too-large table
        raise InputError("%s: %s" % (args.proof, e)) from e
    if fail is None:
        _emit(args, {"ok": True}, "ok")
        return 0
    _emit(args, {"ok": False, "step": fail.index, "reason": fail.reason},
          "step %d: %s" % (fail.index, fail.reason))
    return 1


def cmd_search(args) -> int:
    f = _formula_arg(args.formula)
    nonnormal = args.max_nonnormal
    if nonnormal is None:
        nonnormal = max(args.max_worlds - 1, 0)
    try:
        sig = signature_for(f, max_worlds=args.max_worlds, max_nonnormal=nonnormal)
    except ValueError as e:
        raise InputError("bad search bounds: %s" % e) from e
    cs = _cs_arg(args.cs)
    # the pairs that can bear on this formula: its own constants with the
    # formulas its evaluation touches, beside the CS's own
    bearing = [(Constant(i), g) for i in sorted(constants_in(f)) for g in sig.v1_support]
    try:
        universe = licensed_pairs(cs, bearing)
    except ValueError as e:  # taut_check's refusal of a too-large table
        raise InputError(str(e)) from e
    report = find_countermodel(f, sig, universe)
    payload = report_to_json(report)
    if report.outcome == "countermodel":
        _emit(args, payload,
              "countermodel at world %s (scanned %d models):\n%s"
              % (report.world, report.models_scanned,
                 json.dumps(model_to_json(report.model), indent=2)))
        return 1
    payload["note"] = ("exhausted within bounds; this logic has no known "
                       "completeness theorem, so validity is not implied")
    _emit(args, payload,
          "no countermodel within bounds (scanned %d models); "
          "exhaustion does not certify validity" % report.models_scanned)
    return 0


def cmd_validate(args) -> int:
    m = _model_arg(args.model, validate=False)
    problems = validate_model(m)
    cs_problems = []
    if not problems and args.cs is not None:
        # every listed pair, licensed or not; only explicit mode lists any
        pairs = _cs_arg(args.cs).pairs
        cs_problems = [{"world": w, "constant": print_term(c), "formula": print_formula(a)}
                       for w, c, a in cs_violations(EvalContext(m), pairs)]
    if not problems and not cs_problems:
        _emit(args, {"ok": True}, "ok")
        return 0
    payload = {"ok": False, "violations": problems + cs_problems}
    lines = problems + [
        "evidence for %(constant)s at %(world)s exceeds the truth set of %(formula)s" % v
        for v in cs_problems
    ]
    _emit(args, payload, "\n".join(lines))
    return 1


def cmd_taut(args) -> int:
    f = _formula_arg(args.formula)
    try:
        value = taut_check(f)
    except ValueError as e:
        raise InputError(str(e)) from e
    _emit(args, value, "tautology" if value else "not a tautology")
    return 0 if value else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process. Parsing leaves it as it was: each
    call gets a fresh Namespace, and usage, help and errors go to the
    streams current at that call."""
    top = argparse.ArgumentParser(
        prog="jus",
        description="Evaluate, update, prove, and refute over subset models.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--human", action="store_true",
                       help="prose output instead of JSON")

    p = sub.add_parser("eval", help="truth value of a formula at a world")
    p.add_argument("model")
    p.add_argument("world")
    p.add_argument("formula")
    common(p)

    p = sub.add_parser("update", help="write the model updated by an announcement")
    p.add_argument("model")
    p.add_argument("formula")
    p.add_argument("--out", required=True)
    common(p)

    p = sub.add_parser("check-proof", help="check a proof file against a constant specification")
    p.add_argument("proof")
    p.add_argument("cs", help='"full", "empty", or a CS file')
    common(p)

    p = sub.add_parser("search", help="bounded countermodel search")
    p.add_argument("formula")
    p.add_argument("--max-worlds", type=int, default=2)
    p.add_argument("--max-nonnormal", type=int, default=None)
    p.add_argument("--cs", default="full", help='"full", "empty", or a CS file')
    common(p)

    p = sub.add_parser("validate", help="check a model file, optionally against a CS")
    p.add_argument("model")
    p.add_argument("--cs", default=None)
    common(p)

    p = sub.add_parser("taut", help="propositional tautology check")
    p.add_argument("formula")
    common(p)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    args.output = []
    try:
        code = globals()["cmd_" + args.command.replace("-", "_")](args)
    except InputError as e:
        print(str(e), file=sys.stderr)
        return 2
    try:
        for text in args.output:
            print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (say, `| head -1`); what it read stands and
        # the exit code still carries the verdict. Later flushes, the one
        # at interpreter exit included, go to the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
