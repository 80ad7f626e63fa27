"""Per-layer tracing by wrapping the package's public callables.

``install`` replaces every public function of each wignerexp module (and
the arithmetic methods of ``TruncatedRationalSeries``) with a wrapper that
records a span around the call.  Replacement is by object identity across
all package namespaces, so a function re-imported elsewhere (for example
``catalan`` inside ``series``) is traced under the layer that defines it.

Spans are aggregated in memory as they close rather than kept one by one:
the oracle workload opens about half a million of them.  For each span
name the tracer keeps its call count, busy time (outermost spans of that
name only, so recursion is not counted twice) and self time (duration
minus the time of the spans it caused).  For each layer it keeps busy
time (spans whose caller is another layer, or no layer) and self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

# calls per matrix size behind the per-call build and power figures
MICRO_CALLS = {64: 40, 128: 20, 256: 8}
LAYERS = ("cli", "montecarlo", "walks", "series", "combinatorics", "measure")
# span name per method; reflected operators share their operator's name
SERIES_METHODS = {
    "__add__": "add", "__radd__": "add", "__neg__": "neg", "__sub__": "sub",
    "__rsub__": "sub", "__mul__": "mul", "__rmul__": "mul", "__truediv__": "div",
    "__pow__": "pow", "derivative": "derivative", "truncate": "truncate",
    "first_difference": "first_difference",
}


class Tracer:
    """Span aggregation with a call stack; one instance per traced process."""

    def __init__(self):
        self.stack: list[list] = []  # [name, layer, start, child_time]
        self.depth: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.layer_busy: dict[str, float] = defaultdict(float)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(int)

    def enter(self, name: str, layer: str) -> None:
        self.depth[name] += 1
        self.stack.append([name, layer, time.perf_counter(), 0.0])

    def exit(self) -> float:
        name, layer, start, child = self.stack.pop()
        duration = time.perf_counter() - start
        own = duration - child
        self.depth[name] -= 1
        self.calls[name] += 1
        self.self_time[name] += own
        self.layer_self[layer] += own
        if self.depth[name] == 0:
            self.busy[name] += duration
        if self.stack:
            parent = self.stack[-1]
            parent[3] += duration
            if parent[1] != layer:
                self.layer_busy[layer] += duration
        else:
            self.layer_busy[layer] += duration
        return duration


def _wrap_function(tracer, fn, name, layer, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = tracer.exit()
        if hook is not None:
            hook(tracer, args, kwargs, result, duration)
        return result

    return traced


def _wrap_generator(tracer, fn, name, layer, hook):
    # one span per next(): the consumer's work between items is not ours
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            tracer.enter(name, layer)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                duration = tracer.exit()
            if hook is not None:
                hook(tracer, args, kwargs, item, duration)
            yield item

    return traced


# -- counters measured where the work happens --------------------------------


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _hooks(modules):
    mc, walks = modules["montecarlo"], modules["walks"]
    drawn_per_stream: dict[tuple, int] = {}

    def estimate(tracer, args, kwargs, result, duration):
        a = _bound(mc.estimate_corrections, args, kwargs)
        key = (a["sampler"].preset, a["n"], a["seed"])
        drawn_per_stream[key] = max(drawn_per_stream.get(key, 0), a["samples"])
        tracer.counters["montecarlo.samples_drawn"] += a["samples"]
        tracer.counters["montecarlo.samples_distinct"] = sum(drawn_per_stream.values())

    def per_size(prefix, signature_of):
        def hook(tracer, args, kwargs, result, duration):
            n = signature_of(args, kwargs)
            tracer.counters[f"{prefix}.n{n}.calls"] += 1
            tracer.counters[f"{prefix}.n{n}.busy_s"] += duration

        return hook

    def classes(tracer, args, kwargs, item, duration):
        tracer.counters["walks.classes_yielded"] += 1

    def expectation(tracer, args, kwargs, result, duration):
        if result != 0:
            tracer.counters["walks.expectations_nonzero"] += 1

    return {
        mc.estimate_corrections: estimate,
        mc.sample_matrix: per_size(
            "montecarlo.build", lambda a, kw: _bound(mc.sample_matrix, a, kw)["n"]
        ),
        mc.empirical_moments: per_size(
            "montecarlo.power",
            lambda a, kw: _bound(mc.empirical_moments, a, kw)["x"].shape[0],
        ),
        walks.enumerate_canonical_words: classes,
        walks.expected_word_product: expectation,
    }


def _public_callables(module):
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            yield attr, obj


def install(tracer: Tracer) -> dict:
    """Wrap the package in place; returns the original objects by span name."""
    package = importlib.import_module("wignerexp")
    modules = {layer: importlib.import_module(f"wignerexp.{layer}") for layer in LAYERS}
    hooks = _hooks(modules)
    replacements = {}
    originals = {}
    for layer, module in modules.items():
        for attr, fn in _public_callables(module):
            name = f"{layer}.{attr}"
            wrap = _wrap_generator if inspect.isgeneratorfunction(fn) else _wrap_function
            replacements[id(fn)] = wrap(tracer, fn, name, layer, hooks.get(fn))
            originals[name] = fn
    series_cls = modules["series"].TruncatedRationalSeries
    for method, short in SERIES_METHODS.items():
        fn = series_cls.__dict__[method]
        if id(fn) not in replacements:
            replacements[id(fn)] = _wrap_function(tracer, fn, f"series.{short}", "series", None)
        setattr(series_cls, method, replacements[id(fn)])
    for namespace in (package, *modules.values()):
        for attr, obj in list(vars(namespace).items()):
            if id(obj) in replacements and replacements[id(obj)] is not obj:
                setattr(namespace, attr, replacements[id(obj)])
    return originals


def layer_metrics(tracer: Tracer, originals: dict, bytes_out: int) -> dict:
    """The per-layer figures of one traced workload repetition."""
    calls, busy, counters = tracer.calls, tracer.busy, tracer.counters

    def ratio(num, den):
        return num / den if den else 0.0

    drawn = counters["montecarlo.samples_drawn"]
    estimate_busy = busy["montecarlo.estimate_corrections"]
    evaluated = calls["walks.expected_word_product"]
    metrics = {
        "montecarlo.estimate.calls": calls["montecarlo.estimate_corrections"],
        "montecarlo.estimate.busy_s": estimate_busy,
        "montecarlo.samples_drawn": drawn,
        "montecarlo.sample_us": 1e6 * ratio(estimate_busy, drawn),
        "montecarlo.useful_ratio": ratio(counters["montecarlo.samples_distinct"], drawn),
        "walks.classes_yielded": counters["walks.classes_yielded"],
        "walks.expectations": evaluated,
        "walks.nonzero_ratio": ratio(counters["walks.expectations_nonzero"], evaluated),
        "walks.enumerate.busy_s": busy["walks.enumerate_canonical_words"],
        "walks.expectation.busy_s": busy["walks.expected_word_product"],
        "walks.exact_moment.busy_s": busy["walks.exact_moment"],
        "walks.count_classes.busy_s": busy["walks.count_classes"],
        "series.mul.calls": calls["series.mul"],
        "series.mul.busy_s": busy["series.mul"],
        "series.div.calls": calls["series.div"],
        "series.div.busy_s": busy["series.div"],
        "combinatorics.forest_count.misses": originals[
            "combinatorics.forest_count"
        ].cache_info().misses,
        "cli.bytes_out": bytes_out,
    }
    for layer in LAYERS[:-1]:  # measure is in no workload
        metrics[f"{layer}.busy_s"] = tracer.layer_busy[layer]
        metrics[f"{layer}.self_s"] = tracer.layer_self[layer]
    return metrics


def per_call_us(tracer: Tracer) -> dict:
    """Mean microseconds per sample_matrix / empirical_moments call by size."""
    counters = tracer.counters
    out = {}
    for kind in ("build", "power"):
        for n in MICRO_CALLS:
            calls = counters[f"montecarlo.{kind}.n{n}.calls"]
            busy = counters[f"montecarlo.{kind}.n{n}.busy_s"]
            out[f"montecarlo.{kind}_us.n{n}"] = 1e6 * busy / calls if calls else 0.0
    return out
