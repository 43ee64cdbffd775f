import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

import jus
from jus.model import model_from_json

HERE = os.path.dirname(__file__)
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(HERE)), "bench", "reference.py")

# a subprocess imports the same jus as this process, installed or not
SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(jus.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}


def data_path(name):
    return os.path.join(HERE, "data", name)


@pytest.fixture
def two_world_path():
    return data_path("two_world.json")


@pytest.fixture
def two_world(two_world_path):
    with open(two_world_path, encoding="utf-8") as fh:
        return model_from_json(json.load(fh))


@pytest.fixture(scope="session")
def reference():
    """The benchmark's reference checkers, which share no code with jus,
    loaded from their source without writing a bytecode cache beside it."""
    keep = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("reference", REFERENCE)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
    return module


def to_reference(ref, x):
    """The reference node of a jus term or formula, by its public
    attributes."""
    name = type(x).__name__
    if name in ("Prop", "Constant", "Variable"):
        return {"Prop": ref.P, "Constant": ref.C, "Variable": ref.X}[name](x.index)
    if name == "Not":
        return ref.NOT(to_reference(ref, x.body))
    if name == "Implies":
        return ref.IMP(to_reference(ref, x.left), to_reference(ref, x.right))
    if name == "Justifies":
        return ref.J(to_reference(ref, x.term), to_reference(ref, x.body))
    if name == "Update":
        return ref.UPD(to_reference(ref, x.announcement), to_reference(ref, x.body))
    if name == "Up":
        return ref.UP(to_reference(ref, x.body))
    return ref.APP(to_reference(ref, x.left), to_reference(ref, x.annotation),
                   to_reference(ref, x.right))
