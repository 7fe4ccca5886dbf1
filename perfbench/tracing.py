"""In-memory span tracer for the traced benchmark run.

`install` wraps, from outside the program, the public functions of each
localquant module (the layers) in every module that binds them, plus a few
methods named below. Each call records a span (name, start, end, parent,
operation id) in flat arrays; `metrics` derives per-layer counts and self
time from them once the run is over, and `write_spans` saves them as CSV.

A span's self time is its duration minus the time its child spans cover,
where a child covers its whole wrapper, bookkeeping included; so span
bookkeeping lands in no layer's self time. Hot inner callables (the
integrator and the signal) are only counted, and their counters' cost stays
in the caller's self time. A name that never fires reports 0.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "localquant"
LAYERS = ("rng", "synthetic", "kernels", "weighted", "wq", "qr", "orderstat", "experiments", "cli")

# module-level names wrapped with a call counter instead of a span; the
# integrator's count is split by caller, for calls per oracle cell
_COUNTED = {"synthetic.signal_eval": False, "synthetic.quad": True}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.cover = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.names[self.name[self.stack[-1]]] if self.stack else None

    def span(self, name, fn, after=None, skip=None):
        """Wrap fn so each call records a span; `after` adds work counts."""
        nid = self._id(name)
        clock = time.perf_counter
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if skip is not None and skip(args):
                return fn(*args, **kwargs)
            enter = clock()
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.cover.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
                self.cover[idx] = t1 - enter
            if after is not None:
                after(self, args, kwargs, result)
                self.cover[idx] = clock() - enter
            return result

        return wrapper

    def counter(self, name, fn, by_span=False):
        """Wrap fn with a call counter, also split by the innermost open span."""
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if by_span:
                counts[f"{key}@{self.current()}"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def span_table(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        names = np.asarray(self.name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        covered = np.zeros(len(names))
        child = parent >= 0
        np.add.at(covered, parent[child], np.asarray(self.cover)[child])
        size = len(self.names)
        calls = np.bincount(names, minlength=size)
        total = np.bincount(names, weights=dur, minlength=size)
        own = np.bincount(names, weights=dur - covered, minlength=size)
        return {
            nm: (int(calls[i]), float(total[i]), float(own[i]))
            for i, nm in enumerate(self.names)
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op\n")
            names, parent, op, start, end = self.names, self.parent, self.op, self.start, self.end
            fh.writelines(
                f"{names[nid]},{start[i]!r},{end[i]!r},{parent[i]},{op[i]}\n"
                for i, nid in enumerate(self.name)
            )


# --- work counts recorded after a call returns -----------------------------

def _count_localization(tracer, args, kwargs, ws):
    data = args[0] if args else kwargs["data"]
    tracer.counts["kernels.localization_weights.rows"] += int(data.n)
    tracer.counts["kernels.support_rows"] += int(np.count_nonzero(ws.weights))


def _count_sort(tracer, args, kwargs, result):
    ws = args[0]
    tracer.counts["weighted.sort.rows"] += len(ws.responses)
    tracer.counts["weighted.sort.support_rows"] += int(np.count_nonzero(ws.weights))


def _sort_cached(args) -> bool:
    # only a call that sorts is a span; later calls read the cached order
    return "sorted" in getattr(args[0], "__dict__", {}).get("_cache", ())


def _count_accepted(tracer, args, kwargs, accepted):
    tracer.counts["qr.accepted_rows"] += len(accepted)


def _count_draws(tracer, args, kwargs, result):
    tracer.counts["rng.uniforms.draws"] += len(result)
    if tracer.current() == "qr.rejection_sample":
        tracer.counts["qr.rejection_draws"] += len(result)


def _count_loaded(tracer, args, kwargs, data):
    tracer.counts["cli.load_csv.rows"] += int(data.n)


_AFTER = {
    "kernels.localization_weights": _count_localization,
    "qr.rejection_sample": _count_accepted,
    "cli.load_csv": _count_loaded,
}

# (layer, class, method, span name, after, skip)
_METHODS = (
    ("rng", "RngStream", "uniforms", "rng.uniforms", _count_draws, None),
    ("rng", "RngStream", "normals", "rng.normals", None, None),
    ("rng", "RngStream", "substream", "rng.substream", None, None),
    ("kernels", "LocalizationSpec", "__init__", "kernels.LocalizationSpec", None, None),
    ("weighted", "WeightedSample", "__init__", "weighted.WeightedSample", None, None),
    ("weighted", "WeightedSample", "_sorted", "weighted.sort", _count_sort, _sort_cached),
)


def _layer(layer: str):
    return sys.modules.get(f"{PACKAGE}.{layer}")


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions wherever they are bound."""
    modules = [mod for name, mod in list(sys.modules.items())
               if name == PACKAGE or name.startswith(PACKAGE + ".")]
    wrappers = {}
    for layer in LAYERS:
        mod = _layer(layer)
        if mod is None:
            continue
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            public = inspect.isfunction(obj) and obj.__module__ == mod.__name__
            if name in _COUNTED:
                wrappers[id(obj)] = (obj, tracer.counter(name, obj, _COUNTED[name]))
            elif public and not attr.startswith("_"):
                wrappers[id(obj)] = (obj, tracer.span(name, obj, after=_AFTER.get(name)))
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    for layer, cls_name, method, name, after, skip in _METHODS:
        cls = getattr(_layer(layer), cls_name, None)
        fn = vars(cls).get(method) if cls is not None else None
        if fn is not None:
            setattr(cls, method, tracer.span(name, fn, after=after, skip=skip))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run: name -> (value, unit)."""
    table = tracer.span_table()
    counts = tracer.counts

    def calls(name):
        return table.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return table.get(name, (0, 0.0, 0.0))[2]

    out = {}
    for layer in LAYERS:
        rows = [v for k, v in table.items() if k.startswith(layer + ".")]
        out[f"{layer}.calls"] = (sum(r[0] for r in rows), "count")
        out[f"{layer}.self_s"] = (sum(r[2] for r in rows), "s")
    for name in ("synthetic.sample_dataset", "synthetic.true_theta",
                 "kernels.localization_weights", "weighted.sort", "wq.wq_interval",
                 "qr.qr_interval", "rng.uniforms", "orderstat.df_quantile_ci"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
    for name in ("wq.sigma_hat_p", "qr.rejection_sample", "orderstat.quantile_ci_indices",
                 "experiments.run_experiment", "cli.load_csv"):
        out[f"{name}.self_s"] = (self_s(name), "s")
    for name in ("kernels.LocalizationSpec", "weighted.WeightedSample",
                 "weighted.effective_sample_size"):
        out[f"{name}.calls"] = (calls(name), "count")
    for name in ("synthetic.quad.calls", "synthetic.signal_eval.calls",
                 "kernels.localization_weights.rows", "kernels.support_rows",
                 "weighted.sort.rows", "qr.accepted_rows", "rng.uniforms.draws",
                 "cli.load_csv.rows"):
        out[name] = (counts[name], "count")
    out["synthetic.quad.calls_per_theta"] = (
        _ratio(counts["synthetic.quad.calls@synthetic.true_theta"], calls("synthetic.true_theta")),
        "ratio",
    )
    out["kernels.passes_per_interval"] = (
        _ratio(calls("kernels.localization_weights"),
               calls("wq.wq_interval") + calls("qr.qr_interval")),
        "ratio",
    )
    out["weighted.sort.rows_per_support_row"] = (
        _ratio(counts["weighted.sort.rows"], counts["weighted.sort.support_rows"]), "ratio"
    )
    out["qr.accept_ratio"] = (
        _ratio(counts["qr.accepted_rows"], counts["qr.rejection_draws"]), "ratio"
    )
    cache = getattr(_layer("orderstat"), "_binom_tables", None)
    info = cache.cache_info() if hasattr(cache, "cache_info") else None
    out["orderstat.binom_tables.hits"] = (info.hits if info else 0, "count")
    out["orderstat.binom_tables.misses"] = (info.misses if info else 0, "count")
    out["orderstat.binom_tables.currsize"] = (info.currsize if info else 0, "count")
    out["trace.spans"] = (len(tracer.name), "count")
    return out
