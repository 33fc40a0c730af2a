"""Spans around the calls one dpdsvd module makes into the next.

The program is not changed: `installed` swaps the names a module
imported from the next one (rank1's `weights` and `h_value`,
decomposition's `_solve`, sim's and cli's `fit_svd`) for wrappers that
record a span, and puts the originals back on exit. Calls into the
objective are leaves: each adds its count, cells and seconds to the
innermost open span (always a `rank1.solve`) instead of opening one of
its own, because a single study operation makes tens of thousands.

`layer_metrics` turns the spans of one operation into the per-layer
metrics. A layer's self time is its span's duration minus the part its
child spans cover.
"""
import time
from contextlib import contextmanager

LAYERS = 4          # decomposition.layer<k>_* for k < LAYERS

PER_LAYER = (
    ("objective.weights_calls", "count"), ("objective.weights_cells", "count"),
    ("objective.weights_s", "s"), ("objective.h_calls", "count"),
    ("objective.h_cells", "count"), ("objective.h_s", "s"),
    ("rank1.solve_s", "s"), ("rank1.self_s", "s"),
    ("rank1.iterations", "count"),
    ("decomposition.self_s", "s"),
    *((f"decomposition.layer{k}_{m}", u) for k in range(LAYERS)
      for m, u in (("s", "s"), ("iters", "count"))),
    ("decomposition.nonconverged", "count"),
    ("sim.self_s", "s"), ("sim.fit_svd_calls", "count"),
    ("cli.start_s", "s"), ("cli.load_s", "s"), ("cli.fit_s", "s"),
    ("cli.write_s", "s"),
    ("host.ref_s", "s"),
)


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "attrs")

    def __init__(self, sid, name, parent):
        self.id = sid
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.attrs = {}

    @property
    def seconds(self):
        return self.end - self.start

    def as_dict(self):
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, "attrs": self.attrs}

    @classmethod
    def from_dict(cls, d):
        span = cls(d["id"], d["name"], d["parent"])
        span.start, span.end, span.attrs = d["start"], d["end"], d["attrs"]
        return span


class Tracer:
    """Spans kept in memory, in the order they closed."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._next = 0

    def call(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span named `name`; returns
        (span, result)."""
        parent = self._open[-1] if self._open else None
        span = Span(self._next, name, parent.id if parent else None)
        self._next += 1
        self._open.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            self.spans.append(span)
        return span, result

    def add(self, name, start, end):
        """Record a closed top-level span timed by the caller."""
        span = Span(self._next, name, None)
        self._next += 1
        span.start, span.end = start, end
        self.spans.append(span)

    def adopt(self, dicts):
        """Append spans recorded by another process, renumbered."""
        base = self._next
        for d in dicts:
            span = Span.from_dict(d)
            span.id += base
            if span.parent is not None:
                span.parent += base
            self._next = max(self._next, span.id + 1)
            self.spans.append(span)

    def leaf(self, key, fn):
        """Wrap fn(e, ...) so each call adds to `key`_calls, _cells, _s."""
        calls, cells, secs = key + "_calls", key + "_cells", key + "_s"
        clock = time.perf_counter
        open_spans = self._open

        def wrapped(e, *args, **kwargs):
            t0 = clock()
            out = fn(e, *args, **kwargs)
            dt = clock() - t0
            acc = open_spans[-1].attrs
            acc[calls] = acc.get(calls, 0) + 1
            acc[cells] = acc.get(cells, 0) + e.size
            acc[secs] = acc.get(secs, 0.0) + dt
            return out
        return wrapped

    def fit_svd(self, fn):
        """Wrap fit_svd: a span holding the RobustSvd's iteration and
        non-convergence counts, summed from its diagnostics."""
        def wrapped(*args, **kwargs):
            span, dec = self.call("decomposition.fit_svd", fn, *args, **kwargs)
            diags = dec.diagnostics
            span.attrs["iterations"] = sum(d.iterations for d in diags)
            span.attrs["nonconverged"] = sum(not d.converged for d in diags)
            return dec
        return wrapped

    def solve(self, fn):
        """Wrap decomposition's _solve: a span holding the layer index
        within the enclosing fit_svd and the layer's iteration count."""
        def wrapped(*args, **kwargs):
            fit = self._open[-1].attrs if self._open else {}
            layer = fit.get("layers", 0)
            fit["layers"] = layer + 1
            span, out = self.call("rank1.solve", fn, *args, **kwargs)
            span.attrs.update(layer=layer, iterations=out["it"])
            return out
        return wrapped


@contextmanager
def installed(tracer):
    """Route the calls between dpdsvd's modules through `tracer`."""
    import dpdsvd.cli
    import dpdsvd.decomposition
    import dpdsvd.rank1
    import dpdsvd.sim
    patches = [
        (dpdsvd.rank1, "weights", tracer.leaf("objective.weights",
                                              dpdsvd.rank1.weights)),
        (dpdsvd.rank1, "h_value", tracer.leaf("objective.h",
                                              dpdsvd.rank1.h_value)),
        (dpdsvd.decomposition, "_solve",
         tracer.solve(dpdsvd.decomposition._solve)),
        (dpdsvd.sim, "fit_svd", tracer.fit_svd(dpdsvd.sim.fit_svd)),
        (dpdsvd.cli, "fit_svd", tracer.fit_svd(dpdsvd.cli.fit_svd)),
    ]
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    for mod, name, wrapper in patches:
        setattr(mod, name, wrapper)
    try:
        yield tracer
    finally:
        for mod, name, original in saved:
            setattr(mod, name, original)


def layer_metrics(spans):
    """Per-layer metrics of one operation from its spans (any order).

    Layers an operation does not reach report 0.
    """
    m = {name: 0 for name, _ in PER_LAYER}
    by_id = {s.id: s for s in spans}
    for s in spans:
        for key in ("objective.weights", "objective.h"):
            for part in ("calls", "cells", "s"):
                m[f"{key}_{part}"] += s.attrs.get(f"{key}_{part}", 0)
        parent = by_id.get(s.parent)
        if s.name == "rank1.solve":
            m["rank1.solve_s"] += s.seconds
            k = s.attrs["layer"]
            if k < LAYERS:
                m[f"decomposition.layer{k}_s"] += s.seconds
                m[f"decomposition.layer{k}_iters"] += s.attrs["iterations"]
            if parent is not None:
                m["decomposition.self_s"] -= s.seconds
        elif s.name == "decomposition.fit_svd":
            m["decomposition.self_s"] += s.seconds
            m["rank1.iterations"] += s.attrs["iterations"]
            m["decomposition.nonconverged"] += s.attrs["nonconverged"]
            if parent is not None and parent.name == "sim.run_simulation":
                m["sim.fit_svd_calls"] += 1
                m["sim.self_s"] -= s.seconds
            if parent is not None and parent.name == "cli.main":
                m["cli.fit_s"] += s.seconds
                # JSON formatting and writing follow the fit in the CLI
                m["cli.write_s"] += parent.end - s.end
        elif s.name == "sim.run_simulation":
            m["sim.self_s"] += s.seconds
        elif s.name in ("cli.start", "cli.load"):
            m[s.name + "_s"] += s.seconds
    m["rank1.self_s"] = (m["rank1.solve_s"] - m["objective.weights_s"]
                         - m["objective.h_s"])
    return m
