"""Finite subset models and constant specifications, with JSON files.

A model stores only what the valuation can ever read: a finite world set
with a nonempty normal core, truth assignments v0 (normal worlds,
propositions) and v1 (non-normal worlds, whole formulas), and evidence sets
for atomic terms at normal worlds. Everything unlisted falls back to a
default: 0 for v0/v1, and the model-wide evidence_default for evidence.
Evidence for application terms is never stored; the canonical maximal
choice is computed on demand in the semantics module.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
from dataclasses import dataclass, field

from .parse import SourceError, _echo, parse_formula, parse_term, print_formula, print_term
from .syntax import Constant, Formula, Prop, Term, _valid_index, is_atomic


@dataclass(frozen=True)
class SubsetModel:
    """Worlds are opaque string identifiers, kept in file order.

    v0 maps (normal world, proposition index) to a truth value; v1 maps
    (non-normal world, formula) likewise; evidence maps (normal world,
    atomic term) to a set of worlds. All three are finite supports.
    """

    worlds: tuple[str, ...]
    normal: frozenset[str]
    v0: dict = field(default_factory=dict)
    v1: dict = field(default_factory=dict)
    evidence: dict = field(default_factory=dict)
    evidence_default: str = "all"


@dataclass(frozen=True)
class ConstantSpec:
    """Which constants justify which formulas.

    mode "empty" pairs nothing, "explicit" pairs exactly the listed
    (constant, formula) entries, "full" pairs every constant with every
    formula of iterated axiom shape (membership is decided structurally
    by the proof module; pairs is unused in that mode). A malformed
    specification raises ValueError at construction; whether an explicit
    pair licenses a step is the proof module's decision, not this one's.
    """

    mode: str
    pairs: tuple = ()

    def __post_init__(self):
        if self.mode not in ("empty", "explicit", "full"):
            raise ValueError("mode must be one of empty, explicit, full")
        if self.mode != "explicit" and self.pairs:
            raise ValueError("pairs are only meaningful in explicit mode")
        for c, a in self.pairs:
            if not isinstance(c, Constant):
                raise ValueError("paired term %s is not a constant" % _echo(c))
            if not isinstance(a, Formula):
                raise ValueError("paired value %s is not a formula" % _echo(a))


def validate_model(m: SubsetModel) -> list:
    """Returns a list of violated-invariant descriptions, each distinct one
    once, in the order first met; empty means ok."""
    bad = []
    wset = set(m.worlds)
    if len(wset) != len(m.worlds):
        bad.append("duplicate world identifiers")
    if not m.normal:
        bad.append("set of normal worlds must be nonempty")
    if not m.normal <= wset:
        bad.append("normal worlds must all be listed in worlds")
    for (w, p), val in m.v0.items():
        if w not in m.normal:
            bad.append("v0 key %s is not a normal world" % _echo(w))
        if not _valid_index(p):
            bad.append("v0 proposition index %s must be an integer >= 1" % _echo(p))
        if not isinstance(val, bool):
            bad.append("v0 value for (%s, P%s) must be a boolean" % (_echo(w), _echo(p)))
    for (w, f), val in m.v1.items():
        if w not in wset or w in m.normal:
            bad.append("v1 key %s is not a non-normal world" % _echo(w))
        if not isinstance(f, Formula):
            bad.append("v1 key %s is not a formula" % _echo(f))
        if not isinstance(val, bool):
            bad.append("v1 value at %s must be a boolean" % _echo(w))
    for (w, t), members in m.evidence.items():
        if w not in m.normal:
            bad.append("evidence key %s is not a normal world" % _echo(w))
        if not (isinstance(t, Term) and is_atomic(t)):
            bad.append("evidence term %s is not atomic" % _echo(t))
        if not frozenset(members) <= wset:
            bad.append("evidence set for %s at %s mentions unknown worlds" % (_echo(t), _echo(w)))
    if m.evidence_default not in ("all", "empty"):
        bad.append("evidence_default must be 'all' or 'empty'")
    return list(dict.fromkeys(bad))


def _require_valid(m: SubsetModel):
    """Raise ValueError naming validate_model's violations, if any: at most
    five, so that the line stays short however large the file."""
    bad = validate_model(m)
    if bad:
        more = ["and %d more" % (len(bad) - 5)] if len(bad) > 5 else []
        raise ValueError("invalid model: " + "; ".join(bad[:5] + more))


# -- JSON files ---------------------------------------------------------

_MODEL_KEYS = {"worlds", "normal", "v0", "v1", "evidence", "evidence_default"}


def _json_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts (sys.set_int_max_str_digits)
        raise ValueError("integer of %d digits is too long" % len(digits.lstrip("-"))) from None


def _read_json(path: str):
    """The JSON value in the file at path. A file that does not read as
    JSON raises ValueError with one short line that names path; one that
    cannot be opened or read raises OSError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_int=_json_int)
        except ValueError as e:  # bad JSON, bytes that are not UTF-8, or an overlong integer
            raise ValueError("%s is not valid JSON: %s" % (path, e)) from e
        except RecursionError as e:
            raise ValueError("%s nests too deeply to read" % path) from e


def _require_keys(obj: dict, allowed: set, what: str):
    if not isinstance(obj, dict):
        raise ValueError("%s must be a JSON object" % what)
    unknown = set(obj) - allowed
    if unknown:
        raise ValueError("%s has unknown keys: %s" % (what, _echo(sorted(unknown))))


def _source_text(text: str, read, what: str):
    """read(text), for source text found in a JSON file. A parse fault
    raises ValueError that starts with what and keeps the fault's offset."""
    try:
        return read(text)
    except SourceError as e:
        raise ValueError("%s: %s" % (what, e)) from None


def _parse_inner(text, parser, what):
    """parser(text) for a key of a model or CS file; as _source_text, but
    the message is built only for a key that fails."""
    if not isinstance(text, str):
        raise ValueError("%s key %s must be a string" % (what, _echo(text)))
    try:
        return parser(text)
    except SourceError as e:
        raise ValueError("bad %s key %s: %s" % (what, _echo(text), e)) from None


def model_from_json(obj: dict, validate: bool = True) -> SubsetModel:
    """Decode the model file shape; unknown keys are rejected, and the
    result is checked against validate_model before being returned.

    validate=False skips that last check (decoding errors still raise),
    for callers that want the violation list rather than an exception.
    """
    _require_keys(obj, _MODEL_KEYS, "model file")
    for key in ("worlds", "normal"):
        if key not in obj:
            raise ValueError("model file is missing %r" % key)
        if not (isinstance(obj[key], list) and all(isinstance(w, str) for w in obj[key])):
            raise ValueError("%r must be a list of world names" % key)
    worlds = tuple(obj["worlds"])
    normal = frozenset(obj["normal"])
    v0 = {}
    for w, assign in _json_section(obj, "v0").items():
        for key, val in assign.items():
            f = _parse_inner(key, parse_formula, "v0")
            if not isinstance(f, Prop):
                raise ValueError("v0 key %s must name a proposition" % _echo(key))
            v0[(w, f.index)] = _json_bool(val, "v0", key)
    v1 = {}
    for w, assign in _json_section(obj, "v1").items():
        for key, val in assign.items():
            f = _parse_inner(key, parse_formula, "v1")
            v1[(w, f)] = _json_bool(val, "v1", key)
    evidence = {}
    for w, assign in _json_section(obj, "evidence").items():
        for key, val in assign.items():
            t = _parse_inner(key, parse_term, "evidence")
            if not (isinstance(val, list) and all(isinstance(u, str) for u in val)):
                raise ValueError("evidence set for %s must be a list of world names" % _echo(key))
            evidence[(w, t)] = frozenset(val)
    default = obj.get("evidence_default", "all")
    m = SubsetModel(worlds, normal, v0, v1, evidence, default)
    if validate:
        _require_valid(m)
    return m


def _json_section(obj: dict, key: str) -> dict:
    sec = obj.get(key, {})
    if not isinstance(sec, dict) or not all(
        isinstance(w, str) and isinstance(v, dict) for w, v in sec.items()
    ):
        raise ValueError("%r must map world names to objects" % key)
    return sec


def _json_bool(val, section, key):
    if not isinstance(val, bool):
        raise ValueError("%s value for %s must be true or false" % (section, _echo(key)))
    return val


def model_to_json(m: SubsetModel) -> dict:
    """Inverse of model_from_json up to key order; inner keys are printed
    in canonical concrete syntax and sorted, world sets follow file order."""
    order = {w: i for i, w in enumerate(m.worlds)}
    v0 = {}
    for (w, p), val in m.v0.items():
        v0.setdefault(w, {})["P%d" % p] = val
    v1 = {}
    for (w, f), val in m.v1.items():
        v1.setdefault(w, {})[print_formula(f)] = val
    evidence = {}
    for (w, t), members in m.evidence.items():
        evidence.setdefault(w, {})[print_term(t)] = sorted(members, key=order.get)
    out = {
        "worlds": list(m.worlds),
        "normal": sorted(m.normal, key=order.get),
        "v0": {w: dict(sorted(v0[w].items())) for w in sorted(v0, key=order.get)},
        "v1": {w: dict(sorted(v1[w].items())) for w in sorted(v1, key=order.get)},
        "evidence": {
            w: dict(sorted(evidence[w].items())) for w in sorted(evidence, key=order.get)
        },
        "evidence_default": m.evidence_default,
    }
    return out


_CS_KEYS = {"mode", "pairs"}


def cs_from_json(obj: dict) -> ConstantSpec:
    _require_keys(obj, _CS_KEYS, "constant specification file")
    raw = obj.get("pairs", [])
    if not isinstance(raw, list):
        raise ValueError("pairs must be a list")
    pairs = []
    for entry in raw:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ValueError("each pair must be a [constant, formula] list")
        pairs.append((_parse_inner(entry[0], parse_term, "pairs"),
                      _parse_inner(entry[1], parse_formula, "pairs")))
    return ConstantSpec(obj.get("mode"), tuple(pairs))


def cs_to_json(cs: ConstantSpec) -> dict:
    return {
        "mode": cs.mode,
        "pairs": [[print_term(c), print_formula(a)] for c, a in cs.pairs],
    }


def load_model(path: str) -> SubsetModel:
    return model_from_json(_read_json(path))


def save_model(m: SubsetModel, path: str):
    """Writes the model as indented JSON. An existing file is overwritten
    in place and cut to the new length, and path may name a device such as
    /dev/null, which is written and never cut.

    The file is never opened with O_TRUNC: truncating a file to zero arms
    ext4's replace-via-truncate heuristic (auto_da_alloc), and the next
    overwrite of it then waits for the previous write to reach the disk.
    A cut to a nonzero length arms nothing. If a write fails part-way, a
    regular file is cut to the bytes written before the error propagates,
    so it never holds new bytes followed by the rest of the old file.
    """
    data = (json.dumps(model_to_json(m), indent=2) + "\n").encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        st = os.fstat(fd)
        regular = stat.S_ISREG(st.st_mode)
        done = 0
        try:
            while done < len(data):
                done += os.write(fd, data[done:])
        except OSError:
            if regular:
                with contextlib.suppress(OSError):
                    os.ftruncate(fd, done)
            raise
        if regular and st.st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def load_cs(path: str) -> ConstantSpec:
    return cs_from_json(_read_json(path))
