"""Per-layer spans for the traced benchmark run.

The benchmark wraps the public function at each layer boundary of the
``repro`` package from here, so the program under test is not edited.
Each call through a wrapper becomes one span
``{id, name, pid, thread, parent, t0, t1, ok}`` plus a few attributes
(a point key, a shard ordinal, a specialization key).  ``t0``/``t1`` come
from ``time.monotonic()``, which is one system-wide clock on Linux, so spans
from the orchestrator and from forked pool workers share a time axis.

The orchestrator keeps its spans in memory.  A forked pool worker appends
each span as one line to ``spans-<pid>.jsonl`` the moment it ends, because
``multiprocessing.Pool`` terminates its workers instead of joining them.

These wrappers stand in until the program records its own spans; when it
does, the traced run should read those instead.
"""

from __future__ import annotations

import functools
import glob
import itertools
import json
import math
import os
import statistics
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Per-layer metrics every traced run reports: name -> unit.
#: Layers that only one workload exercises (service, fabric) report counts
#: here; their timings are zero on the other workloads, so they are kept in
#: :data:`FABRIC_TIMINGS` and reported alongside, outside the metric set.
LAYER_METRICS: Dict[str, str] = {
    "rerun.pass_s": "s",
    "grid.expand_s": "s",
    "grid.key_s": "s",
    "workloads.generate_calls": "count",
    "workloads.generate_s": "s",
    "codegen.compiles": "count",
    "codegen.useful_compile_ratio": "ratio",
    "codegen.compile_s": "s",
    "engine.kernel_s": "s",
    "engine.kernel_ns_per_instr": "ns/instr",
    "pipeline.record_s": "s",
    "runner.points": "count",
    "runner.attempts_per_point": "ratio",
    "runner.point_ms_p50": "ms",
    "runner.point_ms_p97": "ms",
    "runner.worker_busy_frac": "ratio",
    "runner.idle_s": "s",
    "runner.flush_lag_ms_p50": "ms",
    "runner.flush_lag_ms_p97": "ms",
    "store.appends": "count",
    "store.append_s": "s",
    "store.append_ms_p50": "ms",
    "store.load_s": "s",
    "service.submits": "count",
    "service.fetches": "count",
    "fabric.shards_local": "count",
    "fabric.shards_peer": "count",
    "fabric.requeues": "count",
    "trace.overhead_frac": "ratio",
}

#: Timings of the layers only ``fabric-energy`` runs: name -> unit.
FABRIC_TIMINGS: Dict[str, str] = {
    "store.merge_s": "s",
    "service.submit_ms_p50": "ms",
    "service.job_s_p50": "s",
    "service.fetch_ms_p50": "ms",
    "fabric.validate_s": "s",
    "fabric.shard_ms_p50_local": "ms",
    "fabric.shard_ms_p50_peer": "ms",
    "fabric.dispatch_gap_ms_p50": "ms",
}

Span = Dict[str, Any]
Attrs = Callable[[tuple, Any], Dict[str, Any]]


class Tracer:
    """Records spans from wrappers installed with :meth:`wrap`."""

    def __init__(self, spill_dir: str) -> None:
        self.spill_dir = spill_dir
        self.spans: List[Span] = []
        self._root_pid = os.getpid()
        self._ids = itertools.count()
        self._local = threading.local()
        self._spill: Optional[Tuple[int, Any]] = None

    def _stack(self) -> List[str]:
        # A forked worker inherits the parent's thread-local stack; the pid
        # check starts it afresh in the new process.
        pid = os.getpid()
        if getattr(self._local, "pid", None) != pid:
            self._local.pid = pid
            self._local.stack = []
        return self._local.stack

    def _emit(self, span: Span) -> None:
        if span["pid"] == self._root_pid:
            self.spans.append(span)
            return
        if self._spill is None or self._spill[0] != span["pid"]:
            path = os.path.join(self.spill_dir, f"spans-{span['pid']}.jsonl")
            self._spill = (span["pid"], open(path, "a", buffering=1))
        self._spill[1].write(json.dumps(span) + "\n")

    def wrap(self, owner: Any, attr: str, name: str,
             attrs: Optional[Attrs] = None) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span.

        ``functools.wraps`` keeps the name and module, so a wrapped
        module-level function still pickles by reference into pool workers
        (which, forked after this call, run the wrapper too).
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            span_id = f"{os.getpid()}-{next(tracer._ids)}"
            parent = stack[-1] if stack else None
            stack.append(span_id)
            ok = False
            result = None
            t0 = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = time.monotonic()
                stack.pop()
                span = {
                    "id": span_id, "name": name, "pid": os.getpid(),
                    "thread": threading.get_ident(), "parent": parent,
                    "t0": t0, "t1": t1, "ok": ok,
                }
                if ok and attrs is not None:
                    span.update(attrs(args, result))
                tracer._emit(span)

        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the layer boundaries of the ``repro`` package."""
        from repro.engine import codegen, pipeline
        from repro.fabric import backends
        from repro.service.client import ServiceClient
        from repro.sweep import grid, runner, store

        def n_instr(_args: tuple, result: Any) -> Dict[str, Any]:
            if isinstance(result, list):  # simulate_batch
                return {"n": sum(r.n_instructions for r in result)}
            return {"n": result.n_instructions}

        def shard(args: tuple, _result: Any) -> Dict[str, Any]:
            return {"shard": args[2].index}

        self.wrap(grid.SweepSpec, "expand", "grid.expand")
        self.wrap(grid.ExperimentPoint, "key", "grid.key")
        self.wrap(runner, "generate_trace", "workloads.generate")
        self.wrap(codegen, "compile_kernel", "codegen.compile",
                  lambda _a, fn: {"key": fn.__specialization_key__})
        for kernel in ("simulate_specialized", "simulate", "simulate_batch"):
            self.wrap(pipeline, kernel, "engine.kernel", n_instr)
        self.wrap(pipeline.Pipeline, "run_record", "pipeline.record")
        self.wrap(runner, "execute_point", "runner.point",
                  lambda _a, r: {"key": r[0]["key"]})
        self.wrap(store.ResultStore, "append", "store.append",
                  lambda a, _r: {"key": a[1]["key"]})
        self.wrap(store.ResultStore, "load", "store.load")
        self.wrap(store.ResultStore, "merge", "store.merge")
        self.wrap(ServiceClient, "submit", "service.submit")
        self.wrap(ServiceClient, "job", "service.job")
        self.wrap(ServiceClient, "result", "service.fetch")
        self.wrap(backends, "validate_record_bytes", "fabric.validate")
        self.wrap(backends.LocalBackend, "run_shard", "fabric.shard.local",
                  shard)
        self.wrap(backends.PeerBackend, "run_shard", "fabric.shard.peer",
                  shard)

    def collect(self) -> List[Span]:
        """Orchestrator spans plus every span the workers spilled."""
        spans = list(self.spans)
        for path in sorted(glob.glob(os.path.join(self.spill_dir,
                                                  "spans-*.jsonl"))):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    try:
                        spans.append(json.loads(line))
                    except ValueError:
                        pass  # a worker terminated mid-line
        return spans


# -- analysis ---------------------------------------------------------------
def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        edge = span["t0"]
        for child in sorted(children.get(span["id"], ()),
                            key=lambda c: c["t0"]):
            lo = max(child["t0"], edge)
            hi = min(child["t1"], span["t1"])
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[span["id"]] = (span["t1"] - span["t0"]) - covered
    return out


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def span_check(spans: Sequence[Span], window: Tuple[float, float]
               ) -> Dict[str, float]:
    """Sanity figures for the spans that start inside ``window``: the least
    self time (must be >= 0) and the summed self time, which cannot exceed
    the window's wall time times the execution lanes (pid, thread) seen."""
    lo, hi = window
    inside = [s for s in spans if lo <= s["t0"] < hi]
    selfs = self_times(inside)
    return {
        "min_self_s": min(selfs.values()) if selfs else 0.0,
        "self_total_s": sum(selfs.values()),
        "wall_s": hi - lo,
        "lanes": len({(s["pid"], s["thread"]) for s in inside}),
    }


def layer_metrics(spans: Sequence[Span], sweep: Tuple[float, float],
                  passes: Sequence[Tuple[float, float]],
                  workers: int) -> Dict[str, float]:
    """Per-layer figures for one traced repeat: every name in
    :data:`LAYER_METRICS` but ``trace.overhead_frac`` (which needs an
    untraced repeat; the caller adds it), and every name in
    :data:`FABRIC_TIMINGS`.

    Sums and counts cover the cold sweep (``sweep`` window, every process).
    ``rerun.pass_s`` is the median warm re-run pass (reload the store,
    expand the grid, every point a cache hit); ``grid.*`` and
    ``store.load_s`` are the median per pass, since those layers are what
    a re-run pays for.
    """
    selfs = self_times(spans)
    lo, hi = sweep
    wall = hi - lo
    cold: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        if lo <= span["t0"] < hi:
            cold[span["name"]].append(span)

    def total(name: str) -> float:
        return sum(selfs[s["id"]] for s in cold[name])

    def durations_ms(name: str) -> List[float]:
        return [(s["t1"] - s["t0"]) * 1e3 for s in cold[name]]

    def per_pass(name: str) -> float:
        return _median([
            sum(selfs[s["id"]] for s in spans
                if s["name"] == name and a <= s["t0"] < b)
            for a, b in passes
        ])

    points = [s for s in cold["runner.point"] if s["ok"]]
    point_end = {s["key"]: s["t1"] for s in points}
    busy = sum(s["t1"] - s["t0"] for s in cold["runner.point"])
    lags = [
        (s["t0"] - point_end[s["key"]]) * 1e3
        for s in cold["store.append"] if s["key"] in point_end
    ]
    n_points = len(point_end)
    compiles = cold["codegen.compile"]
    kernel_s = total("engine.kernel")
    kernel_instr = sum(s.get("n", 0) for s in cold["engine.kernel"])
    shard_calls = cold["fabric.shard.local"] + cold["fabric.shard.peer"]
    shards_done = {s["shard"] for s in shard_calls if s["ok"]}
    # A peer job runs from its submit until PeerBackend asks for the job's
    # state, which it does right after the terminal SSE event.
    job_s = []
    for submit in cold["service.submit"]:
        after = [j["t0"] for j in cold["service.job"]
                 if j["thread"] == submit["thread"] and j["t0"] > submit["t1"]]
        if after:
            job_s.append(min(after) - submit["t0"])
    gaps = []
    for name in ("fabric.shard.local", "fabric.shard.peer"):
        calls = sorted(cold[name], key=lambda s: s["t0"])
        gaps += [(b["t0"] - a["t1"]) * 1e3 for a, b in zip(calls, calls[1:])]
    return {
        "rerun.pass_s": _median([b - a for a, b in passes]),
        "grid.expand_s": per_pass("grid.expand"),
        "grid.key_s": per_pass("grid.key"),
        "workloads.generate_calls": len(cold["workloads.generate"]),
        "workloads.generate_s": total("workloads.generate"),
        "codegen.compiles": len(compiles),
        "codegen.useful_compile_ratio": (
            len({s["key"] for s in compiles if s["ok"]}) / len(compiles)
            if compiles else 0.0),
        "codegen.compile_s": total("codegen.compile"),
        "engine.kernel_s": kernel_s,
        "engine.kernel_ns_per_instr": (
            kernel_s * 1e9 / kernel_instr if kernel_instr else 0.0),
        "pipeline.record_s": total("pipeline.record"),
        "runner.points": n_points,
        "runner.attempts_per_point": (
            len(cold["runner.point"]) / n_points if n_points else 0.0),
        "runner.point_ms_p50": _median(durations_ms("runner.point")),
        "runner.point_ms_p97": percentile(durations_ms("runner.point"), 97),
        "runner.worker_busy_frac": busy / (workers * wall),
        "runner.idle_s": workers * wall - busy,
        "runner.flush_lag_ms_p50": _median(lags),
        "runner.flush_lag_ms_p97": percentile(lags, 97),
        "store.appends": len(cold["store.append"]),
        "store.append_s": total("store.append"),
        "store.append_ms_p50": _median(durations_ms("store.append")),
        "store.load_s": per_pass("store.load"),
        "service.submits": len(cold["service.submit"]),
        "service.fetches": len(cold["service.fetch"]),
        "fabric.shards_local": sum(
            1 for s in cold["fabric.shard.local"] if s["ok"]),
        "fabric.shards_peer": sum(
            1 for s in cold["fabric.shard.peer"] if s["ok"]),
        "fabric.requeues": len(shard_calls) - len(shards_done),
        "store.merge_s": total("store.merge"),
        "service.submit_ms_p50": _median(durations_ms("service.submit")),
        "service.job_s_p50": _median(job_s),
        "service.fetch_ms_p50": _median(durations_ms("service.fetch")),
        "fabric.validate_s": total("fabric.validate"),
        "fabric.shard_ms_p50_local": _median(
            durations_ms("fabric.shard.local")),
        "fabric.shard_ms_p50_peer": _median(
            durations_ms("fabric.shard.peer")),
        "fabric.dispatch_gap_ms_p50": _median(gaps),
    }
