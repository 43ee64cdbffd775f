"""The benchmark's layer tracer (bench/layertrace.py) finds the library
functions behind its named per-layer counters by name. A rename in jus
would leave such a counter at 0 without any error, so every name it hooks
must still be a function, or a method of a class, defined in its layer."""

import importlib.util
import inspect
import os

import jus
import jus.cli  # noqa: F401  the tracer wants every layer imported

LAYERTRACE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "bench", "layertrace.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer(jus)


def test_every_tracer_hook_names_a_function_of_its_layer():
    tracer = _tracer()
    hooks = tracer._hooks()
    assert hooks
    for layer, name in hooks:
        module = tracer.modules[layer]
        owner, _, attr = name.rpartition(".")
        if owner:
            cls = vars(module).get(owner)
            assert inspect.isclass(cls) and cls.__module__ == module.__name__, (layer, name)
            fn = vars(cls).get(attr)
        else:
            fn = vars(module).get(attr)
            assert getattr(fn, "__module__", None) == module.__name__, (layer, name)
        assert inspect.isfunction(fn), (layer, name)
