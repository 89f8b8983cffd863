"""Per-layer tracing built from the benchmark's own wrappers.

A layer is one module of ``qkgr``.  ``Tracer.install`` wraps every public
function of each layer module (``@cache`` functions included), and every
public method and constructor of the classes those modules define, then
rebinds each wrapper in every ``qkgr`` namespace that holds the original:
``qk_engine`` binds ``apply_terms`` at import, ``verify`` binds
``product_basis``, ``gr3n`` binds ``context``, and a wrapper installed only
in the defining module would miss those calls.  No file of the program
changes.

Each wrapped call is a span.  Spans are aggregated in memory as they close,
per function (calls, total and self seconds) and per caller/callee edge
(calls, total seconds); the top-level spans, those the benchmark itself
opens, are kept individually with start, end and request id.  Self time is
a span's duration minus the time its child spans cover, so the self times
of all functions of a module add up to the module's own share of the run.
Everything is written out once, by ``Tracer.dump``, when the run ends.

``curve_nbhd`` is deliberately not a layer: its whole Gr(4,12) sweep takes
0.03 s, so no optimisation there can move an end-to-end number.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("partitions", "pieri", "element", "qk_engine", "seidel", "gr3n", "verify", "cli")

# Functions whose result says whether a rewrite applied (None means it did not).
_REDUCERS = ("reduce_lemred", "reduce_deg_one", "reduce_higher", "reduce_dual_shift")

# Process-lifetime caches whose hit ratios the per-layer report reads.
_CACHES = ("partitions.seidel_up1", "pieri.quantum_terms")


class Tracer:
    """Wraps the qkgr layers of this process and aggregates their spans."""

    def __init__(self, request: str = "0", out_dir: Path | None = None):
        self.request = request
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.edges: dict[tuple, list] = {}  # (caller, callee) -> [calls, total_s]
        self.extra = Counter()
        self.pairs: set = set()  # distinct (ctx, lam, mu) reaching an engine product
        self.spans: list[dict] = []  # top-level spans only
        self._root = [0.0, "benchmark"]
        self._stack = [self._root]
        self._originals: dict[str, object] = {}
        self._cache_start: dict[str, tuple] = {}

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        replace = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"qkgr.{layer}")
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(layer, obj)
                elif not attr.startswith("_") and callable(obj):
                    replace[id(obj)] = self._wrapper(f"{layer}.{attr}", obj)
                    self._originals[f"{layer}.{attr}"] = obj
        chunk = sys.modules["qkgr.verify"]._run_chunk
        replace[id(chunk)] = self._chunk_collector(self._wrapper("verify._run_chunk", chunk))
        for name, mod in list(sys.modules.items()):
            if name != "qkgr" and not name.startswith("qkgr."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapped = replace.get(id(obj))
                if wrapped is not None:
                    setattr(mod, attr, wrapped)
        for key in _CACHES:
            self._cache_start[key] = self._cache_counts(key)
        return self

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr != "__init__" and attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self._wrapper(name, obj.__func__)))
            elif isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self._wrapper(name, obj.__func__)))
            elif callable(obj) and not isinstance(obj, type):
                setattr(cls, attr, self._wrapper(name, obj))

    def _wrapper(self, name: str, fn):
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter
        after = self._hook(name)

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                parent[0] += dur
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
                edge = edges.get((parent[1], name))
                if edge is None:
                    edges[(parent[1], name)] = [1, dur]
                else:
                    edge[0] += 1
                    edge[1] += dur
                if parent is self._root:
                    self.spans.append(
                        {"request": self.request, "name": name, "start": t0, "end": t1, "parent": None}
                    )
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__module__ = getattr(fn, "__module__", None)
        traced.__wrapped__ = fn
        return traced

    def _hook(self, name: str):
        """Extra counters recorded where the work happens, for a few functions."""
        extra = self.extra
        short = name.rsplit(".", 1)[-1]
        if name == "pieri.apply_terms":

            def after(args, kwargs, result):
                extra["pieri.apply_terms.terms_in"] += len(args[0])

            return after
        if name.startswith("seidel.") and short in _REDUCERS:

            def after(args, kwargs, result):
                extra["seidel.reduce.calls"] += 1
                if result is not None:
                    extra["seidel.reduce.applicable"] += 1

            return after
        if name in ("qk_engine.LiftEngine.product_basis", "qk_engine.Gr3Engine.product_basis"):
            pairs = self.pairs

            def after(args, kwargs, result):
                eng, lam, mu = args
                pairs.add((eng.ctx, lam, mu) if lam >= mu else (eng.ctx, mu, lam))

            return after
        return None

    # -- verify's fork pool -------------------------------------------------

    def _chunk_collector(self, timed_chunk):
        """Forked sweep workers write their spans to a file the parent merges."""

        def collect(bounds):
            if os.getpid() == self.pid:
                return timed_chunk(bounds)
            self._reset()
            result = timed_chunk(bounds)
            path = self.out_dir / f"chunk-{self.pid}-{os.getpid()}-{bounds[0]}.json"
            path.write_text(json.dumps(self._state()))
            return result

        # Pool.map pickles the function by name, so it must resolve to itself.
        collect.__module__ = "qkgr.verify"
        collect.__qualname__ = collect.__name__ = "_run_chunk"
        return collect

    def _reset(self) -> None:
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0]
        self.edges.clear()
        self.extra.clear()
        self.pairs.clear()
        self.spans.clear()
        for key in _CACHES:
            self._cache_start[key] = self._cache_counts(key)

    def _state(self) -> dict:
        return {
            "stats": self.stats,
            "edges": [[a, b, c, t] for (a, b), (c, t) in self.edges.items()],
            "extra": dict(self.extra),
            "pairs": [repr(p) for p in self.pairs],
            "cache": {key: self._cache_delta(key) for key in _CACHES},
        }

    def merge_children(self) -> None:
        """Fold in the spans written by forked workers since the last merge."""
        for path in sorted(self.out_dir.glob(f"chunk-{self.pid}-*.json")):
            child = json.loads(path.read_text())
            path.unlink()
            for name, (calls, total, own) in child["stats"].items():
                st = self.stats.setdefault(name, [0, 0.0, 0.0])
                st[0] += calls
                st[1] += total
                st[2] += own
            for a, b, calls, total in child["edges"]:
                edge = self.edges.setdefault((a, b), [0, 0.0])
                edge[0] += calls
                edge[1] += total
            self.extra.update(child["extra"])
            # Workers report pairs as repr strings; compare like with like.
            merged = {p if isinstance(p, str) else repr(p) for p in self.pairs}
            self.pairs.clear()
            self.pairs.update(merged, child["pairs"])
            for key, (hits, misses) in child["cache"].items():
                self.extra[f"{key}.child_hits"] += hits
                self.extra[f"{key}.child_misses"] += misses

    # -- reading results ---------------------------------------------------

    def _cache_counts(self, key: str) -> tuple:
        info = self._originals[key].cache_info()
        return (info.hits, info.misses)

    def _cache_delta(self, key: str) -> tuple:
        hits, misses = self._cache_counts(key)
        h0, m0 = self._cache_start[key]
        return (hits - h0, misses - m0)

    def raw(self) -> dict:
        """Summable counters of this process, its merged workers included."""
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for name, (calls, total, own) in self.stats.items():
            out[f"{name.split('.', 1)[0]}.self_s"] += own
        for name in _COUNTED:
            out[f"{name}.calls"] = self.stats.get(name, [0])[0]
        out["cli.main.total_s"] = self.stats.get("cli.main", [0, 0.0])[1]
        out["gr3n.qlr_gr3.delegated"] = self.edges.get(
            ("gr3n.qlr_gr3", "qk_engine.structure_constant"), [0]
        )[0]
        out["qk_engine.product_basis.calls"] = sum(
            self.stats.get(f"qk_engine.{engine}.product_basis", [0])[0] for engine in ("LiftEngine", "Gr3Engine")
        )
        out["qk_engine.product_basis.distinct"] = len(self.pairs)
        for key in _EXTRA:
            out[key] = self.extra[key]
        for key in _CACHES:
            hits, misses = self._cache_delta(key)
            out[f"{key}.hits"] = hits + self.extra[f"{key}.child_hits"]
            out[f"{key}.misses"] = misses + self.extra[f"{key}.child_misses"]
        return out

    def state(self) -> dict:
        """Everything recorded, for the trace file written when the run ends."""
        state = self._state()
        state["pairs"] = len(self.pairs)
        state["spans"] = self.spans
        state["raw"] = self.raw()
        return state


# Calls counted per function, named as "<layer>.<function>".
_COUNTED = (
    "partitions.context",
    "partitions.validate",
    "partitions.seidel_up",
    "pieri.apply_terms",
    "element.QKElement.__init__",
    "qk_engine.structure_constant",
    "qk_engine.LiftEngine.monomial_expansion",
    "seidel.apply_t_power",
    "gr3n.qlr_gr3",
)
_EXTRA = (
    "pieri.apply_terms.terms_in",
    "seidel.reduce.calls",
    "seidel.reduce.applicable",
)

# Measured by the worker around ``run_suite`` and by the CLI shim.
VERIFY_METRICS = (
    "verify.run_suite.wall_s",
    "verify.items",
    "verify.checks",
    "verify.worker_cpu_s",
    "verify.parallel_efficiency",
)
CLI_METRICS = ("cli.import_ms", "cli.main.self_s", "cli.compute_ms")


def sum_raw(raws: list[dict]) -> dict:
    out: dict = {}
    for raw in raws:
        for key, value in raw.items():
            out[key] = out.get(key, 0) + value
    return out


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(raw: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json that come from the wrappers."""
    out = {f"{layer}.self_s": raw[f"{layer}.self_s"] for layer in LAYERS if layer not in ("verify", "cli")}
    for cache in _CACHES:
        out[f"{cache}.hit_ratio"] = _ratio(raw[f"{cache}.hits"], raw[f"{cache}.hits"] + raw[f"{cache}.misses"])
    for name in _COUNTED:
        out[f"{name}.calls"] = raw[f"{name}.calls"]
    out["element.QKElement.constructed"] = out.pop("element.QKElement.__init__.calls")
    out["pieri.apply_terms.terms_in"] = raw["pieri.apply_terms.terms_in"]
    out["qk_engine.product_basis.calls"] = raw["qk_engine.product_basis.calls"]
    out["qk_engine.product_basis.distinct_ratio"] = _ratio(
        raw["qk_engine.product_basis.distinct"], raw["qk_engine.product_basis.calls"]
    )
    out["seidel.reduce.calls"] = raw["seidel.reduce.calls"]
    out["seidel.reduce.applicable_ratio"] = _ratio(raw["seidel.reduce.applicable"], raw["seidel.reduce.calls"])
    out["gr3n.qlr_gr3.delegated_ratio"] = _ratio(raw["gr3n.qlr_gr3.delegated"], raw["gr3n.qlr_gr3.calls"])
    return out
