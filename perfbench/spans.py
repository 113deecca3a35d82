"""Spans around the public functions of `ncgabor`, and the per-layer metrics.

`instrument(tracer)` wraps each function in TARGETS for the duration of a
`with` block.  A module-level function is rebound in every `ncgabor` module
that holds it, so names taken with `from .algebra import ...` are traced
too; methods and static methods are patched on their class.  Each call
records one span (name, start, end, parent, counters) in memory.

A span's self time is its duration minus the durations of its direct
children.  Self times of all spans of a layer add up to the layer's
`self_s`; an operation's root span is named "op" and its self time is
`cli.self_s`, so the layer self times of a pass add up to its wall time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index, counters or None]
        self._open = []

    def begin(self, name):
        span = [name, perf_counter(), None, self._open[-1] if self._open else None, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span, counters=None):
        span[2] = perf_counter()
        span[4] = counters
        self._open.pop()

    def reset(self):
        """Start a fresh span list (one per pass); no span may be open."""
        if self._open:
            raise RuntimeError("cannot reset a tracer with open spans")
        self.spans = []


def _pairs(args, kwargs):
    return {"pairs": args[0].values.size * args[1].values.size}


def _rows(args, kwargs):
    values = args[3] if len(args) > 3 else kwargs["values"]
    return {"rows": len(values)}   # every caller passes a 1-D array


def _entries(args, kwargs):
    return {"entries": args[0].values.size}


def _phase_nodes(args, kwargs):
    spec = args[0].spec   # x, l, omega, c: N*q*N*q quadrature nodes
    return {"phase_nodes": (spec.q * spec.N) ** 2}


def _chern_terms(signature):
    def count(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        g, step, box = (bound.arguments[k] for k in ("g", "step", "box"))
        spec = g.spec
        stride = max(1, int(round(step / spec.dx)))
        nodes = 2 * int(math.floor(box / (stride * spec.dx) + 1e-12)) + 1
        # nominal size of the double loop, every channel pair counted
        return {"chern_terms": (spec.q ** 2 * nodes ** 2) ** 2}
    return count


# (module, attribute or Class.attribute, span name, counter function).
# Spans without a metric of their own still count toward their layer's
# self_s, so that cli.self_s is only the CLI's own time.
TARGETS = [
    ("ncgabor.algebra", "twisted_conv", "algebra.twisted_conv", _pairs),
    ("ncgabor.algebra", "LatticeSeq.from_entries", "algebra.from_entries", _rows),
    ("ncgabor.algebra", "l1_diff", "algebra.l1_diff", None),
    ("ncgabor.algebra", "twisted_star", "algebra.twisted_star", None),
    ("ncgabor.algebra", "inner_left", "algebra.inner_left", None),
    ("ncgabor.algebra", "act_left", "algebra.act_left", None),
    ("ncgabor.algebra", "inner_right", "algebra.inner_right", None),
    ("ncgabor.frame", "FrameSystem.apply", "frame.apply", None),
    ("ncgabor.frame", "FrameSystem._apply_solve", "frame.apply", None),
    ("ncgabor.frame", "frame_bounds", "frame.bounds", None),
    ("ncgabor.frame", "canonical_dual", "frame.dual", None),
    ("ncgabor.frame", "canonical_tight", "frame.tight", None),
    ("ncgabor.frame", "wexler_raz_residual", "frame.wexler_raz", None),
    ("ncgabor.frame", "reconstruction_residual", "frame.reconstruction", None),
    ("ncgabor.frame", "adjoint_span_residual", "frame.span_residual", None),
    ("ncgabor.frame", "laurent_symbol", "frame.laurent_symbol", None),
    ("ncgabor.geometry", "soliton_experiment", "geometry.soliton_experiment", None),
    ("ncgabor.geometry", "build_window", "geometry.build_window", None),
    ("ncgabor.geometry", "projection_residual", "geometry.projection_residual", None),
    ("ncgabor.geometry", "chern_trace", "geometry.chern_trace", _entries),
    ("ncgabor.geometry", "chern_sum", "geometry.chern_sum", None),
    ("ncgabor.geometry", "energy", "geometry.energy", None),
    ("ncgabor.geometry", "energy_window_form", "geometry.energy_window_form", None),
    ("ncgabor.geometry", "sd_residuals", "geometry.sd_residuals", None),
    ("ncgabor.moyal", "load_corpus_file", "moyal.load_corpus_file", None),
    ("ncgabor.moyal", "moyal_check", "moyal.moyal_check", _phase_nodes),
    ("ncgabor.moyal", "continuous_energy", "moyal.continuous_energy", _phase_nodes),
    ("ncgabor.moyal", "eigen_residual", "moyal.eigen_residual", None),
    ("ncgabor.moyal", "continuous_chern", "moyal.continuous_chern", None),
]

# Per-layer metrics derived from spans, with units.  `.s` is self time.
SPAN_METRICS = {
    "algebra.twisted_conv.calls": "count",
    "algebra.twisted_conv.pairs": "count",
    "algebra.twisted_conv.s": "s",
    "algebra.from_entries.rows": "count",
    "algebra.from_entries.s": "s",
    "algebra.l1_diff.s": "s",
    "algebra.inner_left.calls": "count",
    "algebra.inner_left.s": "s",
    "algebra.act_left.calls": "count",
    "algebra.act_left.s": "s",
    "algebra.inner_right.s": "s",
    "algebra.self_s": "s",
    "frame.apply.calls": "count",
    "frame.apply.ms_p50": "ms",
    "frame.bounds.applies": "count",
    "frame.bounds.s": "s",
    "frame.dual.cg_iters": "count",
    "frame.dual.s": "s",
    "frame.tight.applies": "count",
    "frame.tight.s": "s",
    "frame.tight.failed": "count",
    "frame.wexler_raz.s": "s",
    "frame.reconstruction.s": "s",
    "frame.span_residual.s": "s",
    "frame.self_s": "s",
    "geometry.projection_residual.s": "s",
    "geometry.chern_trace.s": "s",
    "geometry.chern_sum.s": "s",
    "geometry.energy.s": "s",
    "geometry.sd_residuals.s": "s",
    "geometry.p.entries": "count",
    "geometry.self_s": "s",
    "moyal.moyal_check.s": "s",
    "moyal.continuous_energy.s": "s",
    "moyal.eigen_residual.s": "s",
    "moyal.continuous_chern.s": "s",
    "moyal.phase_nodes": "count",
    "moyal.chern.terms": "count",
    "moyal.self_s": "s",
    "cli.self_s": "s",
}

LAYERS = ("algebra", "frame", "geometry", "moyal")
_SOLVES = {"frame.bounds": "frame.bounds.applies",
           "frame.dual": "frame.dual.cg_iters",
           "frame.tight": "frame.tight.applies"}


def _wrap(tracer, name, fn, count):
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        counters = count(args, kwargs) if count else None
        try:
            return fn(*args, **kwargs)
        except BaseException:
            counters = dict(counters or {}, failed=1)
            raise
        finally:
            tracer.end(span, counters)
    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def instrument(tracer):
    """Install the span wrappers of TARGETS; remove them on exit."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "ncgabor" or n.startswith("ncgabor."))]
    undo = []
    try:
        for module_name, attr, name, count in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(_wrap(tracer, name, raw.__func__, count))
                else:
                    new = _wrap(tracer, name, raw, count)
                undo.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            fn = getattr(owner, attr)
            if name == "moyal.continuous_chern":
                count = _chern_terms(inspect.signature(fn))
            wrapper = _wrap(tracer, name, fn, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        undo.append((module, key, fn))
                        setattr(module, key, wrapper)
        yield tracer
    finally:
        for obj, attr, original in reversed(undo):
            setattr(obj, attr, original)


def self_times(spans):
    """Self time of every span: duration minus its direct children's."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out


def summarize(spans):
    """Per-layer metrics (SPAN_METRICS) of one pass's spans."""
    m = {k: 0 if unit == "count" else 0.0 for k, unit in SPAN_METRICS.items()}
    selfs = self_times(spans)
    apply_ms = []
    for i, (name, start, end, parent, counters) in enumerate(spans):
        layer = "cli" if name == "op" else name.split(".", 1)[0]
        m[f"{layer}.self_s"] += selfs[i]
        if f"{name}.s" in m:
            m[f"{name}.s"] += selfs[i]
        if f"{name}.calls" in m:
            m[f"{name}.calls"] += 1
        counters = counters or {}
        m["algebra.twisted_conv.pairs"] += counters.get("pairs", 0)
        m["algebra.from_entries.rows"] += counters.get("rows", 0)
        m["geometry.p.entries"] += counters.get("entries", 0)
        m["moyal.phase_nodes"] += counters.get("phase_nodes", 0)
        m["moyal.chern.terms"] += counters.get("chern_terms", 0)
        if name == "frame.tight":
            m["frame.tight.failed"] += counters.get("failed", 0)
        if name == "frame.apply":
            apply_ms.append(1e3 * (end - start))
            while parent is not None and spans[parent][0] not in _SOLVES:
                parent = spans[parent][3]
            if parent is not None:
                m[_SOLVES[spans[parent][0]]] += 1
    m["frame.apply.calls"] = len(apply_ms)
    m["frame.apply.ms_p50"] = statistics.median(apply_ms) if apply_ms else 0.0
    return m


def write(path, passes):
    """Write the spans of every traced pass as JSON lines."""
    with open(path, "w") as fh:
        for number, spans in enumerate(passes):
            for s in spans:
                fh.write(json.dumps([number, *s]) + "\n")
