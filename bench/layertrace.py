"""Layer-crossing tracer for the traced benchmark run.

The layers are the modules of `jus`. `Tracer.install` wraps each layer's
public functions, the public methods of its public classes and the
constructors of the syntax classes, and rebinds every module namespace
that imported one of those names, so library code calls the wrappers
too. Nothing in `src/` is edited; `uninstall` puts the originals back.

A span opens where a call crosses from one layer into another. A call
from a layer into itself (recursion, or one public function calling
another in the same module) folds into the open span. Each span's time
is charged to its layer, minus the time of the spans it opened, so the
per-layer self times add up to the traced time. Countermodel enumeration
runs as a generator inside `explore`; each step of it is a span of its
own pseudo-layer, `explore.enumerate`.

Spans are not kept one by one: counts and times are aggregated per
(parent layer, layer, function) in memory and written out at the end.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("syntax", "parse", "model", "semantics", "proof", "explore", "cli")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = {name: sys.modules[package.__name__ + "." + name] for name in LAYERS}
        # open spans: [layer, start, time of child spans]
        self.stack = [["bench", 0.0, 0.0]]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.edges = defaultdict(lambda: [0, 0.0])  # (parent, layer, fn) -> [spans, seconds]
        self.count = defaultdict(int)  # named counters
        self.seconds = defaultdict(float)  # named inclusive timers
        self._depth = defaultdict(int)
        self._context_serial = {}
        self._memo_pairs = set()
        self._patches = []

    # -- spans ---------------------------------------------------------

    def _span(self, layer, name, fn, args, kwargs):
        self.calls[layer] += 1
        top = self.stack[-1]
        if top[0] == layer:
            return fn(*args, **kwargs)
        frame = [layer, perf_counter(), 0.0]
        self.stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            elapsed = end - frame[1]
            self.self_s[layer] += elapsed - frame[2]
            self.stack[-1][2] += elapsed
            edge = self.edges[(self.stack[-1][0], layer, name)]
            edge[0] += 1
            edge[1] += elapsed

    def _timed(self, key, call):
        """Inclusive time of the outermost call of a family of functions."""
        self._depth[key] += 1
        start = perf_counter()
        try:
            return call()
        finally:
            self._depth[key] -= 1
            if not self._depth[key]:
                self.seconds[key] += perf_counter() - start

    def _wrap(self, layer, name, fn, hook=None):
        span = self._span

        if hook is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return span(layer, name, fn, args, kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return hook(lambda: span(layer, name, fn, args, kwargs), args)
        return wrapper

    def _wrap_generator(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)

            def step():
                return next(it)

            while True:
                try:
                    item = tracer._span("explore.enumerate", name, step, (), {})
                except StopIteration:
                    return
                tracer.count["explore.models_enumerated"] += 1
                yield item
        return wrapper

    # -- hooks for the named counters ------------------------------------

    def _hooks(self):
        t = self

        def parse_text(call, args):
            t.count["parse.chars"] += len(args[0]) if args and isinstance(args[0], str) else 0
            return call()

        def decode(call, args):
            return t._timed("model.json_decode_s", call)

        def encode(call, args):
            return t._timed("model.json_encode_s", call)

        def validate(call, args):
            t.count["model.validate_calls"] += 1
            return t._timed("model.validate_s", call)

        def subset_model_init(call, args):
            if t.stack[-1][0] == "explore.enumerate":
                t.count["explore.candidates_built"] += 1
            return call()

        def context_init(call, args):
            parent = args[2] if len(args) > 2 else None
            if parent is None:
                # the library abandons a context tree once it builds the
                # next root, so the distinct pairs so far are final
                t._flush_pairs()
                t.count["semantics.contexts_built"] += 1
                if t._depth["explore.random_model_s"]:
                    t.count["explore.forcing_rounds"] += 1
            else:
                t.count["semantics.contexts_pushed"] += 1
            out = call()
            t.count["_ctx"] += 1
            t._context_serial[id(args[0])] = t.count["_ctx"]
            return out

        def truth_mask(call, args):
            t.count["semantics.truth_mask_calls"] += 1
            t._memo_pairs.add((t._context_serial.get(id(args[0])), id(args[1])))
            return call()

        def evidence_mask(call, args):
            t.count["semantics.evidence_mask_calls"] += 1
            return call()

        def random_model(call, args):
            t.count["explore.random_models"] += 1
            return t._timed("explore.random_model_s", call)

        def find(call, args):
            return t._timed("find_countermodel", call)

        def cs_violations(call, args):
            out = call()
            if out and t._depth["find_countermodel"]:
                t.count["explore.cs_rejected"] += 1
            return out

        def check_proof(call, args):
            out = call()
            steps = len(args[0].steps)
            t.count["proof.steps_checked"] += steps if out is None else max(out.index, 0)
            return out

        def match_axiom(call, args):
            t.count["proof.match_axiom_calls"] += 1
            return call()

        return {
            ("parse", "parse_formula"): parse_text,
            ("parse", "parse_term"): parse_text,
            ("model", "model_from_json"): decode,
            ("model", "cs_from_json"): decode,
            ("model", "load_model"): decode,
            ("model", "load_cs"): decode,
            ("model", "model_to_json"): encode,
            ("model", "cs_to_json"): encode,
            ("model", "save_model"): encode,
            ("model", "validate_model"): validate,
            ("model", "SubsetModel.__init__"): subset_model_init,
            ("semantics", "EvalContext.__init__"): context_init,
            ("semantics", "EvalContext.truth_mask"): truth_mask,
            ("semantics", "EvalContext.evidence_mask"): evidence_mask,
            ("semantics", "cs_violations"): cs_violations,
            ("explore", "random_cs_model"): random_model,
            ("explore", "find_countermodel"): find,
            ("proof", "check_proof"): check_proof,
            ("proof", "match_axiom"): match_axiom,
        }

    # -- installation ------------------------------------------------------

    def install(self):
        hooks = self._hooks()
        replaced = {}
        for layer, mod in self.modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if name == "enumerate_models":
                        new = self._wrap_generator(name, obj)
                    else:
                        new = self._wrap(layer, name, obj, hooks.get((layer, name)))
                    replaced[id(obj)] = (obj, new)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj, hooks)
        # rebind the name in every namespace that imported it
        for mod in [self.package] + list(self.modules.values()):
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced and replaced[id(obj)][0] is obj:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, replaced[id(obj)][1])

    def _wrap_class(self, layer, cls, hooks):
        own = vars(cls)
        names = [n for n, v in own.items()
                 if inspect.isfunction(v) and (not n.startswith("_") or n == "__init__")]
        if "__new__" in own and layer == "syntax":
            names.append("__new__")
        for n in names:
            fn = own[n]
            if n == "__new__":
                fn = fn.__func__ if isinstance(fn, staticmethod) else fn
            key = "%s.%s" % (cls.__name__, n)
            new = self._wrap(layer, key, fn, hooks.get((layer, key)))
            self._patches.append((cls, n, own[n]))
            setattr(cls, n, staticmethod(new) if n == "__new__" else new)

    def uninstall(self):
        for target, name, obj in reversed(self._patches):
            setattr(target, name, obj)
        self._patches.clear()

    def _flush_pairs(self):
        self.count["_distinct_pairs"] += len(self._memo_pairs)
        self._memo_pairs.clear()
        self._context_serial.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        self._flush_pairs()
        c, s = self.count, self.seconds
        calls = c["semantics.truth_mask_calls"]
        built = c["explore.candidates_built"]
        out = {
            "syntax.calls": (self.calls["syntax"], "count"),
            "syntax.self_s": (self.self_s["syntax"], "s"),
            "parse.calls": (self.calls["parse"], "count"),
            "parse.chars": (c["parse.chars"], "count"),
            "parse.self_s": (self.self_s["parse"], "s"),
            "model.json_decode_s": (s["model.json_decode_s"], "s"),
            "model.json_encode_s": (s["model.json_encode_s"], "s"),
            "model.validate_calls": (c["model.validate_calls"], "count"),
            "model.validate_s": (s["model.validate_s"], "s"),
            "semantics.contexts_built": (c["semantics.contexts_built"], "count"),
            "semantics.contexts_pushed": (c["semantics.contexts_pushed"], "count"),
            "semantics.truth_mask_calls": (calls, "count"),
            "semantics.evidence_mask_calls": (c["semantics.evidence_mask_calls"], "count"),
            "semantics.memo_hit_ratio": (
                1.0 - c["_distinct_pairs"] / calls if calls else 0.0, "ratio"),
            "semantics.self_s": (self.self_s["semantics"], "s"),
            "explore.candidates_built": (built, "count"),
            "explore.models_enumerated": (c["explore.models_enumerated"], "count"),
            "explore.canonical_ratio": (
                c["explore.models_enumerated"] / built if built else 0.0, "ratio"),
            "explore.enumerate_self_s": (self.self_s["explore.enumerate"], "s"),
            "explore.cs_rejected": (c["explore.cs_rejected"], "count"),
            "explore.random_models": (c["explore.random_models"], "count"),
            "explore.forcing_rounds": (c["explore.forcing_rounds"], "count"),
            "explore.random_model_s": (s["explore.random_model_s"], "s"),
            "proof.steps_checked": (c["proof.steps_checked"], "count"),
            "proof.match_axiom_calls": (c["proof.match_axiom_calls"], "count"),
            "proof.self_s": (self.self_s["proof"], "s"),
            "cli.calls": (self.calls["cli"], "count"),
            "cli.self_s": (self.self_s["cli"], "s"),
        }
        return out

    def dump(self) -> dict:
        """Aggregated spans and counters, for the trace file."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "spans": [
                {"parent": p, "layer": layer, "fn": fn, "count": n, "seconds": sec}
                for (p, layer, fn), (n, sec) in sorted(self.edges.items())
            ],
            "counters": {k: v for k, v in self.count.items() if not k.startswith("_")},
            "timers": dict(self.seconds),
        }
