"""Out-of-program tracing of gebshrink's public functions.

``install(tracer)`` replaces every public function of the traced modules
with a wrapper that opens a span named ``<module>.<function>``.  gebshrink
binds names with ``from .x import y``, so a function lives in several
module namespaces at once; the wrapper is written into every namespace
that holds the original object, not only the defining module, and
``install`` fails if any binding is left unwrapped.

Spans are kept in memory.  Per-name totals (calls, inclusive time, self
time) accumulate for the whole run; full span records are kept for the
first traced op only, so memory stays bounded on long runs.  Self time is
a span's duration minus the time covered by its child spans.

Counts derived from array sizes (evaluation points, spectrum and
evaluation operations, quadrature points, CSV bytes) are recorded at the
same boundaries and are labelled *computed* in the benchmark's output.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = (
    "kde",
    "blocks",
    "sequence",
    "mixture",
    "quadrature",
    "thresholds",
    "wavelets",
    "io",
    "risklab",
    "cli",
)

# format_float runs once per CSV cell; a span there would cost more than
# the work it times, so its time stays in the io span that calls it
_UNTRACED = frozenset({"io.format_float"})

# full span records kept per run; totals keep accumulating past the cap
SPAN_RECORD_CAP = 200_000


class Tracer:
    """Span stack, per-name totals and computed counters of one process."""

    def __init__(self):
        self._clock = time.perf_counter
        self._stack = []  # open spans: [name, start, child_time, span_id]
        self._next_id = 0
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total, self
        self.counters = defaultdict(float)
        self.spans = []  # (span_id, parent_id, op, name, start, end)
        self.dropped_spans = 0
        self.op = 0
        self.keep_spans = True
        self.origin = self._clock()

    def enter(self, name):
        self._next_id += 1
        self._stack.append([name, self._clock(), 0.0, self._next_id])

    def exit(self):
        end = self._clock()
        name, start, child, span_id = self._stack.pop()
        duration = end - start
        entry = self.stats[name]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        parent_id = 0
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent_id = parent[3]
        if self.keep_spans:
            if len(self.spans) < SPAN_RECORD_CAP:
                self.spans.append(
                    (span_id, parent_id, self.op, name, start - self.origin, end - self.origin)
                )
            else:
                self.dropped_spans += 1

    def call(self, name, fn, *args, **kwargs):
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    def calls(self, name) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def self_s(self, name) -> float:
        return self.stats[name][2] if name in self.stats else 0.0

    def layer_calls(self, layer) -> int:
        prefix = layer + "."
        return sum(v[0] for k, v in self.stats.items() if k.startswith(prefix))

    def merge(self, dump):
        """Add a dump written by another process's tracer."""
        for name, (calls, total, self_time) in dump["stats"].items():
            entry = self.stats[name]
            entry[0] += calls
            entry[1] += total
            entry[2] += self_time
        for name, value in dump["counters"].items():
            self.counters[name] += value
        if self.keep_spans and dump["spans"]:
            self.spans.extend(tuple(s) for s in dump["spans"])
            self.keep_spans = False

    def dump(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in sorted(self.stats.items())},
            "counters": dict(sorted(self.counters.items())),
            "spans": self.spans,
            "dropped_spans": self.dropped_spans,
        }

    def write(self, path, extra=None):
        payload = self.dump()
        if extra:
            payload.update(extra)
        with open(path, "w") as fh:
            json.dump(payload, fh)


# ---------------------------------------------------------------------------
# computed counters, recorded after the wrapped call returns


def _after_kde_eval(tracer, args, kwargs, result, state):
    kde = args[0]
    points = int(getattr(result[0], "size", 1))
    tracer.counters["kde.eval_points"] += points
    nodes = state.pop("nodes", 0)  # set by the spectrum wrapper during this call
    if kde.mode == "direct":
        tracer.counters["kde.eval_ops"] += points * kde.n
    else:
        tracer.counters["kde.eval_ops"] += points * nodes


def _after_hybrid_fit(tracer, args, kwargs, result, state):
    if result.branch == "geb":
        tracer.counters["blocks.geb_fits"] += 1


def _after_monte_carlo_risk(tracer, args, kwargs, result, state):
    tracer.counters["risklab.replicates"] += result.replicates


def _after_csv(tracer, args, kwargs, result, state):
    tracer.counters["io.bytes"] += os.path.getsize(args[0])


_AFTER = {
    "kde.kde_eval": _after_kde_eval,
    "blocks.hybrid_fit": _after_hybrid_fit,
    "risklab.monte_carlo_risk": _after_monte_carlo_risk,
    "io.read_signal_csv": _after_csv,
    "io.write_signal_csv": _after_csv,
}


def _wrap(tracer, name, fn, after=None, state=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        if after is not None:
            after(tracer, args, kwargs, result, state)
        return result

    traced.__traced_original__ = fn
    return traced


def _wrap_spectrum(tracer, fn, state):
    """The fourier route's frequency rule: nodes used, and spectra built.

    This is a private helper of ``kde``; when a refactor removes it the
    spectrum counters read zero and every public span is unaffected.
    """

    def traced(kde, *args, **kwargs):
        cache = getattr(kde, "_spectra", None)
        before = len(cache) if cache is not None else -1
        result = tracer.call("kde.spectrum", fn, kde, *args, **kwargs)
        nodes = int(result[0].size)
        state["nodes"] = nodes
        if cache is None or len(cache) > before:
            tracer.counters["kde.spectra"] += 1
            tracer.counters["kde.spectrum_ops"] += kde.n * nodes
            tracer.counters["kde.spectrum_nodes"] += nodes
            tracer.counters["kde.spectrum_samples"] += kde.n
        return result

    traced.__traced_original__ = fn
    return traced


def _wrap_integrate(tracer, fn, site):
    """quadrature.integrate as bound in ``site``; the integrand becomes a child span."""
    integrand_name = f"{site}.integrand"

    @functools.wraps(fn)
    def traced(f, *args, **kwargs):
        def integrand(x):
            tracer.counters["quadrature.integrand_points"] += x.size
            return tracer.call(integrand_name, f, x)

        return tracer.call("quadrature.integrate", fn, integrand, *args, **kwargs)

    traced.__traced_original__ = fn
    return traced


def _wrap_method(tracer, cls, attr, name):
    original = cls.__dict__[attr]
    traced = _wrap(tracer, name, original)
    setattr(cls, attr, traced)


def _rule_classes(base):
    seen = []
    pending = [base]
    while pending:
        cls = pending.pop()
        seen.append(cls)
        pending.extend(cls.__subclasses__())
    return seen


def install(tracer):
    """Wrap every public function of the traced layers at every binding site.

    Also wraps ``ScalarRule.__call__`` on every rule class (span
    ``mixture.rule_apply``) and ``TruthSource.draw_blocks`` (span
    ``risklab.draw_blocks``).  Returns the number of bindings replaced.
    """
    modules = {layer: importlib.import_module(f"gebshrink.{layer}") for layer in LAYERS}
    targets = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            name = f"{layer}.{attr}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
                and name not in _UNTRACED
            ):
                targets[id(obj)] = (name, obj)

    kde_state = {}
    integrate = modules["quadrature"].integrate
    sites = [m for key, m in sorted(sys.modules.items()) if key == "gebshrink" or key.startswith("gebshrink.")]
    replaced = 0
    for site in sites:
        site_layer = site.__name__.rpartition(".")[2]
        for attr, obj in list(vars(site).items()):
            hit = targets.get(id(obj))
            if hit is None:
                continue
            name, original = hit
            if original is integrate:
                wrapper = _wrap_integrate(tracer, original, site_layer)
            else:
                wrapper = _wrap(tracer, name, original, _AFTER.get(name), kde_state)
            setattr(site, attr, wrapper)
            replaced += 1

    spectrum = getattr(modules["kde"], "_frequency_rule", None)
    if spectrum is not None:
        modules["kde"]._frequency_rule = _wrap_spectrum(tracer, spectrum, kde_state)

    mixture = modules["mixture"]
    for cls in _rule_classes(mixture.ScalarRule):
        if "__call__" in cls.__dict__:
            _wrap_method(tracer, cls, "__call__", "mixture.rule_apply")
    _wrap_method(tracer, modules["risklab"].TruthSource, "draw_blocks", "risklab.draw_blocks")

    left = [
        f"{site.__name__}.{attr}"
        for site in sites
        for attr, obj in vars(site).items()
        if id(obj) in targets and targets[id(obj)][1] is obj
    ]
    if left:
        raise RuntimeError(f"unwrapped bindings remain: {', '.join(left)}")
    return replaced
