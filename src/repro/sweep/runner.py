"""Fault-tolerant sharded execution of experiment points.

:func:`run_sweep` takes expanded :class:`~repro.sweep.grid.ExperimentPoint`
lists, skips every point whose key is already in the
:class:`~repro.sweep.store.ResultStore` (a *cache hit*), and dispatches the
rest to ``multiprocessing`` workers in *chunks*: each pool task carries up
to :data:`POINTS_PER_TASK` consecutive lowest-index points, run in order
by :func:`execute_chunk`, and up to :data:`TASKS_PER_WORKER` tasks per
worker stay in flight, so a worker that frees up takes its next chunk
straight from the pool's pipe instead of waiting on an orchestrator round
trip.  A chunk is never larger than the dispatchable points divided
evenly over the workers, so small shards still reach every worker.
Dispatch is event-driven: each finished task's ``apply_async`` callback
wakes the orchestrator, which first refills the in-flight window and only
then hands the finished records on, so no worker idles while the
orchestrator appends and fsyncs.  Completions arrive in whatever order the
workers finish; an **expansion-order flush frontier** buffers
out-of-order results and appends each record the moment every earlier
point has been appended, so

* partial progress is durable within moments of being computed — a crash
  at point N of M keeps the N-1 finished prefix on disk, and
* the store's bytes are identical to a single-process fault-free run at
  any worker count, failure pattern, or interrupt point: what reaches the
  file is always an expansion-order prefix of the full sweep, and a re-run
  resumes exactly where that prefix ends via content-key cache hits.

The frontier itself is :class:`repro.exec.frontier.FlushFrontier` — the
shared execution-plane primitive the fabric coordinator's shard merge
frontier is also built on — parameterized here with an emit hook that
appends records to the store.  (Before :mod:`repro.exec` existed this
module carried its own private frontier implementation; anything that
imported those internals should import :mod:`repro.exec` instead.)

Failures are handled per point by a
:class:`~repro.exec.attempts.RetryPolicy`, even inside a chunk: each
point's exception is caught and charged to that point alone.  Failed
attempts retry with deterministic exponential backoff.  A per-point
timeout detects hung *and* hard-died workers (a task whose worker was
killed never completes — the timeout is its obituary); it runs from the
moment a worker *starts* the point, which the worker stamps into shared
memory, so time spent queued behind other chunks never counts.  A pool
with an overdue point is replaced wholesale (the only safe recovery
``multiprocessing.Pool`` allows): the overdue point is charged, and
everything else that was in flight — chunk-mates whose finished results
died with the worker included — is re-dispatched uncharged.  A worker
killed while idle or after its points finished leaves no running point to
time out, and can wedge the pool's task queue; so when chunks are in
flight but for the timeout no point has run and no result has arrived,
the pool is replaced too, and nothing is charged.  The final
permitted attempt runs in-process as graceful degradation so a
pathological pool cannot starve a point.  A point that exhausts its
attempts becomes a :class:`FailureRecord` in :class:`SweepSummary` —
structured provenance (attempts, error class, elapsed) that never enters
the store — and blocks the frontier at its expansion index so the
prefix-layout guarantee survives even permanent failures.

SIGINT/SIGTERM tear the pool down (terminate + join — no leaked workers),
leave the frontier's flushed prefix on disk, and surface as
:class:`SweepInterrupted` carrying the partial summary; re-running the
same sweep resumes from the stored prefix.

Determinism: a point's simulation depends only on ``(config, mix,
n_instructions, seed)`` — trace generation derives its stream from the
point's own seed via :func:`repro.common.rng.spawn_rng` and the kernel is
seedless — so scheduling, retries, and failure order cannot change
results, only wall-clock time.  :mod:`repro.faults` piggybacks on
:func:`execute_point` to inject worker exceptions, hangs, and hard deaths
deterministically; the chaos CI job uses it to prove the byte-identity
claim above instead of merely asserting it.

Each worker process keeps two warm caches: the LRU trace memo here (a grid
that varies only machine config reuses one generated trace for all its
points) and the per-config compiled-kernel registry in
:mod:`repro.engine.codegen` (points sharing a structural specialization key
share one compiled kernel).  Neither affects results — only wall-clock.

Under ``kernel_variant="batch"`` the runner adds a scheduling pre-phase:
pending points are grouped by structural specialization key and every
multi-point group is executed through one
:func:`repro.engine.batch.simulate_batch` call (:func:`execute_batch`),
demuxed back into per-point records that feed the same flush frontier.
Batching is pure scheduling: the store bytes are identical to any other
variant's, and a failed batch charges each member one attempt and falls
back to per-point execution, so the retry/timeout machinery above is
unchanged.
"""

from __future__ import annotations

import functools
import heapq
import multiprocessing
import os
import pickle
import signal
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.common.errors import ReproError, SimulationError
from repro.engine.batch import simulate_batch
from repro.engine.codegen import specialization_key
from repro.engine.kernel import ENGINE_VERSION
from repro.engine.pipeline import Pipeline, resolve_kernel_variant
from repro.engine.trace import Trace
from repro.exec.attempts import RetryPolicy
from repro.exec.frontier import FlushFrontier
from repro.faults import maybe_inject
from repro.sweep.grid import ExperimentPoint, dedup_points
from repro.sweep.store import ResultStore
from repro.workloads import (
    MIX_REGISTRY,
    WorkloadMix,
    generate_trace,
    get_mix,
    register_mix,
)

#: Smallest shard worth forking a worker pool for; below this the fork +
#: import cost dwarfs the simulation work.
MIN_POINTS_PER_WORKER = 2

#: Per-process bound on memoized traces (see :func:`_cached_trace`).
TRACE_CACHE_SIZE = 8

#: Upper bound on lanes per batched kernel call under the ``batch`` variant.
#: Caps the failure domain (one bad lane costs at most this many points one
#: attempt each) and the per-call memory footprint; throughput saturates
#: well before this many lanes for sweep-sized traces.
MAX_BATCH_LANES = 32

#: Most points one pool task carries (see :func:`execute_chunk`).  Chunks
#: amortise the orchestrator round trip over several points; at 2k
#: instructions a point is a few milliseconds of kernel time, so one point
#: per task left pool workers idle a third of the sweep.  Larger chunks
#: delay the frontier (a chunk's records land together) and widen what a
#: pool replacement re-dispatches.
POINTS_PER_TASK = 4

#: Pool tasks kept in flight per worker: one running, one queued in the
#: pool's pipe for the moment the running one finishes.
TASKS_PER_WORKER = 2

#: Cap on the pool loop's wait for a completion.  Completions wake the
#: loop at once, so this only bounds how often it checks ``should_stop``,
#: timeouts and retry backoff while nothing finishes.
_POLL_INTERVAL_S = 0.01

#: ``(mix_name, n_instructions, seed) -> (mix_definition, trace)``.
#: Process-global on purpose: a grid that varies only the config re-uses one
#: generated trace across all its points instead of regenerating it per
#: point, and each pool worker warms its own copy.  The mix definition is
#: kept alongside the trace so a ``register_mix(..., overwrite=True)`` that
#: changes a mix's parameters busts the entry instead of serving a trace
#: generated under the old definition.  (The per-config *kernel* cache lives
#: in :mod:`repro.engine.codegen`'s registry, which is process-global the
#: same way.)
_TRACE_CACHE: "OrderedDict[Tuple[str, int, int], Tuple[WorkloadMix, Trace]]" = (
    OrderedDict()
)


def _cached_trace(mix_name: str, n_instructions: int, seed: int) -> Trace:
    """LRU-memoized :func:`repro.workloads.generate_trace`."""
    mix = get_mix(mix_name)
    key = (mix_name, n_instructions, seed)
    hit = _TRACE_CACHE.get(key)
    if hit is not None and hit[0] == mix:
        _TRACE_CACHE.move_to_end(key)
        return hit[1]
    trace = generate_trace(mix_name, n_instructions, seed=seed)
    _TRACE_CACHE[key] = (mix, trace)
    if len(_TRACE_CACHE) > TRACE_CACHE_SIZE:
        _TRACE_CACHE.popitem(last=False)
    return trace


def clear_trace_cache() -> None:
    """Drop all memoized traces (tests and memory-sensitive embedders)."""
    _TRACE_CACHE.clear()


def default_workers() -> int:
    """Default worker-process count: at least two (so sharding is always
    exercised), at most eight, scaled in between to the CPUs this process
    may run on — its affinity mask where the platform has one (as ``nproc``
    reports), else every CPU in the machine."""
    if hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0))
    else:
        usable = os.cpu_count() or 1
    return max(2, min(8, usable))


def _payload_for(point: ExperimentPoint) -> Dict[str, Any]:
    """Self-contained worker payload for one point.

    Carries the full :class:`~repro.workloads.WorkloadMix` definition, not
    just its name: under the ``spawn`` start method (macOS/Windows default)
    workers re-import the package with a pristine registry, so a mix added
    via :func:`register_mix` in the parent would otherwise be unknown there.
    """
    payload = point.to_dict()
    payload["_mix_definition"] = get_mix(point.mix)
    return payload


def execute_point(payload: Dict[str, Any]) -> Tuple[Dict[str, Any], float]:
    """Run one experiment point; returns ``(record, elapsed_seconds)``.

    Module-level and picklable-in/picklable-out so it crosses process
    boundaries under any start method.  ``payload`` is
    :meth:`ExperimentPoint.to_dict` output, optionally with a
    ``"_mix_definition"`` entry (see :func:`_payload_for`) registered here
    if this interpreter does not know the mix yet, and a ``"_attempt"``
    counter (1-based) identifying which delivery attempt this is.
    """
    t0 = time.perf_counter()
    data = dict(payload)
    mix_definition = data.pop("_mix_definition", None)
    kernel_variant = data.pop("_kernel_variant", None)
    attempt = data.pop("_attempt", 1)
    if mix_definition is not None and mix_definition.name not in MIX_REGISTRY:
        register_mix(mix_definition)
    point = ExperimentPoint.from_dict(data)
    # Fault-injection hook, armed only when a repro.faults plan is active.
    # Placed before any real work so an injected death or hang costs the
    # runner a whole attempt — the honest worst case.
    maybe_inject(point.key(), attempt)
    trace = _cached_trace(point.mix, point.n_instructions, point.seed)
    record = Pipeline(point.config, kernel_variant=kernel_variant).run_record(trace)
    record["key"] = point.key()
    record["point"] = point.to_dict()
    return record, time.perf_counter() - t0


#: In a pool worker, the shared array of point start stamps the pool was
#: created with (see :func:`_worker_init`); ``None`` in any other process.
_START_STAMPS: Optional[Any] = None

#: One :func:`execute_chunk` outcome: ``(record, elapsed)`` or the
#: exception the point raised.
_Outcome = Union[Tuple[Dict[str, Any], float], BaseException]


def _picklable(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round trip, else a
    :class:`RuntimeError` that keeps its type name and message: an
    exception that cannot cross back to the orchestrator would otherwise
    fail its whole chunk."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def execute_chunk(
    items: Sequence[Tuple[int, Dict[str, Any]]],
) -> List[_Outcome]:
    """Run ``(index, payload)`` points in order; one outcome per point.

    The pool's unit of work.  Each point goes through the module-global
    :func:`execute_point`, and its exception is caught and returned in its
    place, so a failing point is charged alone and its chunk-mates still
    complete.  In a pool worker, the moment each point starts is written
    to slot ``index`` of the shared stamp array, and negated when the
    point finishes; the orchestrator times a running point out from its
    stamp, and never charges a finished one.
    """
    outcomes: List[_Outcome] = []
    for index, payload in items:
        if _START_STAMPS is not None:
            _START_STAMPS[index] = time.monotonic()
        try:
            outcomes.append(execute_point(payload))
        except Exception as exc:
            outcomes.append(_picklable(exc))
        if _START_STAMPS is not None:
            _START_STAMPS[index] = -time.monotonic()
    return outcomes


def execute_batch(
    payloads: Sequence[Dict[str, Any]],
) -> List[Tuple[Dict[str, Any], float]]:
    """Run several experiment points through one batched kernel call.

    The batched sibling of :func:`execute_point`: ``payloads`` are point
    payloads (see there) whose configs share one structural specialization
    key — the runner groups them that way — and the whole group is
    simulated as lock-step lanes of :func:`repro.engine.batch.simulate_batch`.
    Returns one ``(record, elapsed_seconds)`` pair per payload, in order;
    every record is field-for-field identical to what :func:`execute_point`
    would produce for that point (stores must not depend on batching), and
    elapsed is the batch wall-clock split evenly across the lanes.

    Any lane's failure (including an injected fault) fails the whole call —
    the caller charges each member one attempt and falls back to per-point
    execution, so one poisoned point cannot permanently wedge its
    batch-mates.
    """
    t0 = time.perf_counter()
    points: List[ExperimentPoint] = []
    for payload in payloads:
        data = dict(payload)
        mix_definition = data.pop("_mix_definition", None)
        data.pop("_kernel_variant", None)
        attempt = data.pop("_attempt", 1)
        if mix_definition is not None and \
                mix_definition.name not in MIX_REGISTRY:
            register_mix(mix_definition)
        point = ExperimentPoint.from_dict(data)
        maybe_inject(point.key(), attempt)
        points.append(point)
    traces = [
        _cached_trace(p.mix, p.n_instructions, p.seed) for p in points
    ]
    results = simulate_batch(traces, [p.config for p in points])
    per_lane = (time.perf_counter() - t0) / len(points) if points else 0.0
    out: List[Tuple[Dict[str, Any], float]] = []
    for point, trace, result in zip(points, traces, results):
        if result.n_instructions and result.cycles <= 0:
            raise SimulationError(
                f"trace {trace.name!r}: simulation produced no forward "
                "progress"
            )
        record = {
            "engine_version": ENGINE_VERSION,
            "config_digest": point.config.config_digest(),
            "trace": trace.name,
            "result": result.to_dict(),
            "key": point.key(),
            "point": point.to_dict(),
        }
        out.append((record, per_lane))
    return out


@dataclass
class FailureRecord:
    """Provenance of one permanently-failed point (summary-only: failures
    never enter the result store, which holds completed records alone)."""

    key: str
    label: str
    attempts: int
    error: str
    message: str
    elapsed_s: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "label": self.label,
            "attempts": self.attempts,
            "error": self.error,
            "message": self.message,
            "elapsed_s": self.elapsed_s,
        }


@dataclass
class SweepSummary:
    """What one :func:`run_sweep` call did.

    The fabric's summary extends this one (same failure schema), so
    :meth:`describe` is assembled from two overridable parts: where the
    work ran (:meth:`_ran_on`) and the trailing notes (:meth:`_notes`).
    """

    n_points: int
    n_cached: int
    n_computed: int
    n_workers: int = 0
    elapsed_s: float = 0.0
    #: ``point key -> wall-clock seconds`` for freshly computed points only.
    timings: Dict[str, float] = field(default_factory=dict)
    #: Resolved kernel variant the computed points ran under.  Summary-only
    #: provenance: the variant never enters the result store (both variants
    #: produce identical records by contract).
    kernel_variant: str = ""
    #: ``point key -> FailureRecord`` for points that exhausted their retry
    #: budget.  Summary-only, like timings: the store must stay a clean
    #: expansion-order prefix of successful records.
    failures: Dict[str, FailureRecord] = field(default_factory=dict)
    #: Points computed successfully but *not* appended because the flush
    #: frontier was blocked by an earlier failed or interrupted point.
    #: They are recomputed (or cache-missed back in) on the next run.
    n_discarded: int = 0
    #: True when the run was cut short by SIGINT/SIGTERM; the summary then
    #: arrives attached to a :class:`SweepInterrupted`.
    interrupted: bool = False

    @property
    def cache_hit_rate(self) -> float:
        return self.n_cached / self.n_points if self.n_points else 0.0

    def describe(self) -> str:
        head = "interrupted: " if self.interrupted else ""
        return (
            f"{head}{self.n_points} points: {self.n_cached} cached, "
            f"{self.n_computed} computed {self._ran_on()} "
            f"in {self.elapsed_s:.2f}s"
            + "".join(f"; {note}" for note in self._notes())
        )

    def _ran_on(self) -> str:
        variant = f" [{self.kernel_variant}]" if self.kernel_variant else ""
        return f"on {self.n_workers} worker(s){variant}"

    def _notes(self) -> List[str]:
        slowest = max(self.timings.values(), default=0.0)
        return [note for shown, note in (
            (self.timings, f"slowest point {slowest*1e3:.0f} ms"),
            (self.failures, f"{len(self.failures)} FAILED"),
            (self.n_discarded, f"{self.n_discarded} computed-but-unflushed"),
        ) if shown]


class SweepInterrupted(ReproError):
    """SIGINT/SIGTERM ended the sweep early; the flushed prefix is durable.

    Carries the partial :class:`SweepSummary` so callers can report what
    was saved before exiting.  Re-running the same sweep resumes from the
    stored prefix via cache hits.
    """

    def __init__(self, summary: "SweepSummary") -> None:
        super().__init__(summary.describe())
        self.summary = summary


class _PointTask:
    """Mutable per-point execution state inside one :func:`run_sweep`."""

    __slots__ = (
        "index", "key", "point", "payload", "attempts", "elapsed", "ready_at",
    )

    def __init__(self, index: int, key: str, point: ExperimentPoint,
                 payload: Dict[str, Any]) -> None:
        self.index = index
        self.key = key
        self.point = point
        self.payload = payload
        self.attempts = 0          # settled (finished or charged) attempts
        self.elapsed = 0.0         # cumulative wall-clock across attempts
        self.ready_at = 0.0        # monotonic time when dispatchable again


class _Chunk:
    """One in-flight pool task: consecutive points run by one worker."""

    __slots__ = ("tasks", "async_result", "settled")

    def __init__(self, tasks: List[_PointTask]) -> None:
        self.tasks = tasks
        self.async_result: Any = None  # multiprocessing AsyncResult
        self.settled = False           # the task's callback has run


def _worker_init(start_stamps: Any = None) -> None:
    """Keep the shared start-stamp array for :func:`execute_chunk` (passed
    through the initializer, so it reaches workers under fork and spawn).

    Pool workers ignore SIGINT: a terminal Ctrl-C reaches the whole
    process group, but only the orchestrator may act on it — it then
    terminates the pool deterministically, so no workers are leaked and
    no worker dies mid-anything it shouldn't.  SIGTERM goes back to the
    default action: forked workers inherit the parent's TERM->interrupt
    handler (see :func:`_convert_sigterm`), and a worker that turned the
    pool's own ``terminate()`` into KeyboardInterrupt would die noisily
    — or, caught mid-``queue.get`` holding the queue lock, wedge the
    teardown."""
    global _START_STAMPS
    _START_STAMPS = start_stamps
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _convert_sigterm() -> Callable[[], None]:
    """Route SIGTERM through the KeyboardInterrupt path for the duration
    of a sweep, so a service manager's TERM flushes the frontier and tears
    the pool down exactly like Ctrl-C.  Returns a restore callable; no-op
    when not on the main thread (signal API restriction)."""
    if threading.current_thread() is not threading.main_thread():
        return lambda: None

    def _raise_interrupt(signum: int, frame: Any) -> None:
        raise KeyboardInterrupt()

    try:
        previous = signal.signal(signal.SIGTERM, _raise_interrupt)
    except ValueError:  # pragma: no cover - embedders with odd threading
        return lambda: None
    return lambda: signal.signal(signal.SIGTERM, previous)


class _FrontierExecutor:
    """Executes pending points under a :class:`RetryPolicy`, appending
    completed records to the store in expansion order as the
    :class:`repro.exec.frontier.FlushFrontier` advances (see the module
    docstring for the layout guarantee)."""

    def __init__(
        self,
        tasks: List[_PointTask],
        store: ResultStore,
        policy: RetryPolicy,
        n_workers: int,
        use_pool: bool,
        say: Callable[[str], None],
        on_point_done: Optional[Callable[[str, Dict[str, Any], int], None]] = None,
        should_stop: Optional[Callable[[], bool]] = None,
        batch: bool = False,
    ) -> None:
        self.tasks = tasks
        self.store = store
        self.policy = policy
        self.n_workers = n_workers
        self.use_pool = use_pool
        self.batch = batch
        self.say = say
        self.on_point_done = on_point_done
        self.should_stop = should_stop
        self.pool: Optional[multiprocessing.pool.Pool] = None
        #: Per-point start stamps (``time.monotonic()`` while running,
        #: negated once finished, 0.0 = not started), written by pool
        #: workers; indexed like ``tasks``.
        self._stamps: Any = None
        #: Last time the pool showed life: spawned, took a chunk, ran a
        #: point or returned a result (see :meth:`_run_pool`).
        self._heard_at = 0.0
        #: How long chunks may sit in flight with no sign of life before
        #: the pool is presumed wedged; starts at the timeout and doubles
        #: after each such replacement, so a pool that is merely slow to
        #: start cannot be replaced forever.
        self._quiet_s = policy.timeout_s
        self._wake = threading.Event()
        self._work: List[_PointTask] = list(tasks)
        self.frontier = FlushFrontier(len(tasks), emit=self._emit)
        self.timings: Dict[str, float] = {}
        self.failures: Dict[str, FailureRecord] = {}
        self.n_discarded = 0

    @property
    def n_flushed(self) -> int:
        return self.frontier.n_flushed

    # -- lifecycle --------------------------------------------------------
    def run(self) -> None:
        self._work = list(self.tasks)
        try:
            if self.batch:
                self._work = self._run_batches(self._work)
            if self.use_pool:
                self._run_pool()
            else:
                self._run_inline()
        finally:
            self._shutdown_pool()
            self.n_discarded = self.frontier.discard()
            if self.n_discarded:
                self.say(
                    f"  {self.n_discarded} computed record(s) past the "
                    "blocked frontier were not persisted; they will be "
                    "recomputed on the next run"
                )

    def _spawn_pool(self) -> None:
        if self.pool is not None:  # carried over from the batch pre-phase
            return
        if self._stamps is None:
            self._stamps = multiprocessing.RawArray("d", len(self.tasks))
        self.pool = multiprocessing.Pool(
            processes=self.n_workers, initializer=_worker_init,
            initargs=(self._stamps,),
        )
        self._heard_at = time.monotonic()

    def _shutdown_pool(self) -> None:
        if self.pool is not None:
            self.pool.terminate()
            self.pool.join()
            self.pool = None

    # -- frontier ---------------------------------------------------------
    def _emit(self, index: int, payload: Tuple[Dict[str, Any], float]) -> None:
        """Append one frontier-reached record durably (the
        :class:`~repro.exec.frontier.FlushFrontier` emit hook: called
        exactly once per completed point, strictly in expansion order —
        a permanently-failed point blocks the frontier there, keeping the
        store an expansion-order prefix of the fault-free sweep)."""
        record, elapsed = payload
        self.store.append(record)
        task = self.tasks[index]
        self.timings[task.key] = elapsed
        self.say(f"  done {task.point.label()} ({elapsed*1e3:.0f} ms)")
        if self.on_point_done is not None:
            # Progress hook, invoked strictly in expansion order and
            # only after the record is durably appended — a subscriber
            # notified of (key, index) may read the store and find it.
            # Exceptions propagate: a broken hook aborts the sweep
            # rather than silently dropping progress events.
            self.on_point_done(task.key, record, task.index)

    def _complete(self, task: _PointTask, record: Dict[str, Any],
                  elapsed: float) -> None:
        self.frontier.complete(task.index, (record, elapsed))

    def _fail(self, task: _PointTask, exc: BaseException) -> None:
        self.frontier.block(task.index)
        self.failures[task.key] = FailureRecord(
            key=task.key,
            label=task.point.label(),
            attempts=task.attempts,
            error=type(exc).__name__,
            message=str(exc),
            elapsed_s=task.elapsed,
        )
        self.say(
            f"  FAILED {task.point.label()} after {task.attempts} "
            f"attempt(s): {type(exc).__name__}: {exc}"
        )

    def _on_error(self, task: _PointTask, exc: BaseException,
                  requeue: List[_PointTask]) -> None:
        """One attempt of ``task`` failed; retry with backoff or give up."""
        if task.attempts >= self.policy.max_attempts:
            self._fail(task, exc)
            return
        delay = self.policy.backoff_for(task.attempts)
        task.ready_at = time.monotonic() + delay
        self.say(
            f"  retry {task.point.label()}: attempt "
            f"{task.attempts}/{self.policy.max_attempts} failed "
            f"({type(exc).__name__}: {exc}); backing off {delay:.2f}s"
        )
        requeue.append(task)

    def _check_stop(self) -> None:
        """Cooperative cancellation: embedders (the service job manager)
        pass ``should_stop``; when it fires the sweep takes the exact
        SIGINT path — pool torn down, frontier flushed, partial summary
        raised as :class:`SweepInterrupted` — so cancel inherits every
        durability guarantee of an interrupt."""
        if self.should_stop is not None and self.should_stop():
            raise KeyboardInterrupt()

    # -- batched execution (kernel_variant="batch") -----------------------
    def _group_batches(
        self, tasks: List["_PointTask"],
    ) -> List[List["_PointTask"]]:
        """Group tasks by structural specialization key, chunked to
        :data:`MAX_BATCH_LANES`; singleton chunks are left to the per-point
        path (which still runs the batch kernel, just with one lane)."""
        groups: "OrderedDict[str, List[_PointTask]]" = OrderedDict()
        for task in tasks:
            key = specialization_key(task.point.config)
            groups.setdefault(key, []).append(task)
        batches: List[List[_PointTask]] = []
        for members in groups.values():
            for start in range(0, len(members), MAX_BATCH_LANES):
                chunk = members[start:start + MAX_BATCH_LANES]
                if len(chunk) >= 2:
                    batches.append(chunk)
        # Earliest expansion index first, so the flush frontier advances
        # as soon as possible.
        batches.sort(key=lambda chunk: chunk[0].index)
        return batches

    def _run_batches(
        self, tasks: List["_PointTask"],
    ) -> List["_PointTask"]:
        """Pre-phase for the batch variant: execute every multi-point
        specialization-key group through one :func:`execute_batch` call
        each, demuxing per-point records into the ordinary flush frontier.

        Returns the tasks still owed to the per-point path: singletons the
        grouping left behind, plus every member of a failed batch — each
        charged one attempt, so a poisoned point converges on its own
        retry budget instead of wedging its batch-mates forever.
        """
        batches = self._group_batches(tasks)
        if not batches:
            return tasks
        self.say(
            f"  batch variant: {sum(len(b) for b in batches)} of "
            f"{len(tasks)} point(s) in {len(batches)} batched kernel "
            "call(s), grouped by specialization key"
        )
        settled: set = set()
        scrap: List[_PointTask] = []   # _on_error's requeue; unused here
        if not self.use_pool:
            for chunk in batches:
                self._check_stop()
                payloads = [
                    dict(task.payload, _attempt=task.attempts + 1)
                    for task in chunk
                ]
                t0 = time.perf_counter()
                try:
                    pairs = execute_batch(payloads)
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    share = (time.perf_counter() - t0) / len(chunk)
                    for task in chunk:
                        task.attempts += 1
                        task.elapsed += share
                        self._on_error(task, exc, scrap)
                else:
                    for task, (record, elapsed) in zip(chunk, pairs):
                        task.attempts += 1
                        task.elapsed += elapsed
                        self._complete(task, record, elapsed)
                        settled.add(task.index)
        else:
            self._spawn_pool()
            assert self.pool is not None
            in_flight = [
                (chunk, self.pool.apply_async(
                    execute_batch,
                    ([dict(task.payload, _attempt=task.attempts + 1)
                      for task in chunk],),
                ))
                for chunk in batches
            ]
            pool_lost = False
            for chunk, async_result in in_flight:
                if pool_lost:
                    # The pool died with this batch's attempt in flight;
                    # nobody is charged — the per-point path recomputes.
                    continue
                deadline = (
                    time.monotonic() + self.policy.timeout_s * len(chunk)
                    if self.policy.timeout_s is not None else None
                )
                while True:
                    self._check_stop()
                    try:
                        pairs = async_result.get(timeout=_POLL_INTERVAL_S)
                    except multiprocessing.TimeoutError:
                        if deadline is not None and \
                                time.monotonic() >= deadline:
                            exc = TimeoutError(
                                f"batch of {len(chunk)} point(s): no "
                                f"result within "
                                f"{self.policy.timeout_s * len(chunk):.1f}s "
                                "(worker hung or died)"
                            )
                            for task in chunk:
                                task.attempts += 1
                                task.elapsed += self.policy.timeout_s
                                self._on_error(task, exc, scrap)
                            self.say(
                                "  pool replaced after batch timeout; "
                                "remaining batches fall back to "
                                "per-point execution"
                            )
                            self._shutdown_pool()
                            pool_lost = True
                            break
                        continue
                    except KeyboardInterrupt:
                        raise
                    except Exception as exc:
                        for task in chunk:
                            task.attempts += 1
                            self._on_error(task, exc, scrap)
                        break
                    else:
                        for task, (record, elapsed) in zip(chunk, pairs):
                            task.attempts += 1
                            task.elapsed += elapsed
                            self._complete(task, record, elapsed)
                            settled.add(task.index)
                        break
        return [
            task for task in tasks
            if task.index not in settled
            and not self.frontier.is_blocked(task.index)
        ]

    # -- inline execution (no pool) ---------------------------------------
    def _run_inline(self) -> None:
        for task in self._work:
            while True:
                self._check_stop()
                if task.ready_at:
                    time.sleep(max(0.0, task.ready_at - time.monotonic()))
                attempt = task.attempts + 1
                t0 = time.perf_counter()
                try:
                    record, elapsed = execute_point(
                        dict(task.payload, _attempt=attempt)
                    )
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    task.attempts = attempt
                    task.elapsed += time.perf_counter() - t0
                    requeue: List[_PointTask] = []
                    self._on_error(task, exc, requeue)
                    if not requeue:
                        break
                else:
                    task.attempts = attempt
                    task.elapsed += elapsed
                    self._complete(task, record, elapsed)
                    break

    # -- pooled execution -------------------------------------------------
    def _on_settled(self, chunk: _Chunk, _outcome: Any) -> None:
        """``apply_async`` callback for either outcome, run on the pool's
        result-handler thread: flag ``chunk`` for collection and wake the
        orchestrator.  The pool runs this just *before* it marks the result
        ready, so collection keys off the flag rather than ``ready()`` (a
        wake-up that ran ahead of ``ready()`` would be lost for a whole
        wait cap), and its ``get()`` waits out the gap."""
        chunk.settled = True
        self._wake.set()

    def _dispatch(self, tasks: List[_PointTask]) -> _Chunk:
        assert self.pool is not None
        # Safe to zero: a task is re-dispatched only after its previous
        # chunk was collected or its pool was replaced and joined, so no
        # worker can still stamp these slots for an older attempt.
        for task in tasks:
            self._stamps[task.index] = 0.0
        items = [
            (task.index, dict(task.payload, _attempt=task.attempts + 1))
            for task in tasks
        ]
        chunk = _Chunk(tasks)
        on_settled = functools.partial(self._on_settled, chunk)
        chunk.async_result = self.pool.apply_async(
            execute_chunk, (items,),
            callback=on_settled, error_callback=on_settled,
        )
        self._heard_at = time.monotonic()
        return chunk

    def _collect(self, chunk: _Chunk,
                 finished: List[Tuple[_PointTask, Dict[str, Any], float]],
                 requeue: List[_PointTask],
                 solo: List[_PointTask]) -> None:
        """Charge each point of a settled chunk its attempt."""
        try:
            outcomes: List[_Outcome] = chunk.async_result.get()
        except Exception as exc:
            # execute_chunk settles every point itself, so an error of the
            # task as a whole cannot be pinned on one point: each point
            # reruns uncharged as a task of its own, where it can be.
            if len(chunk.tasks) > 1:
                solo.extend(chunk.tasks)
                return
            outcomes = [exc]
        for task, outcome in zip(chunk.tasks, outcomes):
            task.attempts += 1
            if isinstance(outcome, BaseException):
                self._on_error(task, outcome, requeue)
            else:
                record, elapsed = outcome
                task.elapsed += elapsed
                finished.append((task, record, elapsed))

    def _last_stamp(self, chunk: _Chunk) -> Tuple[Optional[_PointTask], float]:
        """An unsettled chunk's last-stamped point and its stamp, or
        ``(None, 0.0)`` before the chunk starts.  A chunk runs its points
        in order, so only that point can be running: it is while the stamp
        is positive, and a negated stamp means it finished and the chunk
        is between points or sending its results back."""
        for task in reversed(chunk.tasks):
            stamp = self._stamps[task.index]
            if stamp:
                return task, stamp
        return None, 0.0

    def _unwedge(self) -> None:
        """Free the read lock of the pool's task queue.  An idle worker
        holds it while it waits for a task; a worker killed there (an OOM
        kill, say) leaves it taken, so no other worker can take a task and
        ``Pool.terminate``, which takes the lock itself, blocks forever.
        Only called for a stalled pool with chunks that never started: a
        live worker holding the lock would have taken one of them."""
        assert self.pool is not None
        lock = self.pool._inqueue._rlock  # type: ignore[attr-defined]
        lock.acquire(block=False)
        lock.release()

    def _attempt_in_process(self, task: _PointTask) -> None:
        """Graceful degradation: the final permitted attempt runs in the
        orchestrating process, immune to worker death and pool state."""
        attempt = task.attempts + 1
        self.say(
            f"  last attempt for {task.point.label()} runs in-process "
            "(graceful degradation)"
        )
        t0 = time.perf_counter()
        try:
            record, elapsed = execute_point(
                dict(task.payload, _attempt=attempt)
            )
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            task.attempts = attempt
            task.elapsed += time.perf_counter() - t0
            self._fail(task, exc)
        else:
            task.attempts = attempt
            task.elapsed += elapsed
            self._complete(task, record, elapsed)

    def _run_pool(self) -> None:
        self._spawn_pool()
        # Dispatchable points, lowest expansion index first so the frontier
        # advances soonest; retries wait in ``backoff`` until due.
        ready = [(task.index, task) for task in self._work]
        heapq.heapify(ready)
        backoff: List[Tuple[float, int, _PointTask]] = []
        in_flight: List[_Chunk] = []
        max_in_flight = self.n_workers * TASKS_PER_WORKER
        while ready or backoff or in_flight:
            self._check_stop()
            # Cleared before collecting, so a chunk that settles from here
            # on is either collected below or wakes the wait in step 5.
            self._wake.clear()
            # 1. Collect settled chunks, note overdue points and whether
            #    the pool shows life.  Finished records are held back until
            #    step 4.
            now = time.monotonic()
            timeout = self.policy.timeout_s
            finished: List[Tuple[_PointTask, Dict[str, Any], float]] = []
            requeue: List[_PointTask] = []
            solo: List[_PointTask] = []
            overdue: List[_PointTask] = []
            pending: List[_Chunk] = []
            unstarted = False
            for chunk in in_flight:
                if chunk.settled:
                    self._collect(chunk, finished, requeue, solo)
                    continue
                pending.append(chunk)
                task, stamp = self._last_stamp(chunk)
                if stamp > 0:
                    self._heard_at = now
                    if timeout is not None and now >= stamp + timeout:
                        overdue.append(task)
                unstarted = unstarted or not stamp
            progressed = len(pending) < len(in_flight)
            in_flight = pending
            if progressed:
                self._heard_at = now
            # 2. Timeouts: the worker running an overdue point is hung or
            #    dead (a killed worker's task never completes — this is how
            #    hard death is detected).  A pool whose chunks all sit
            #    unstarted, or finished but undelivered, with no sign of
            #    life for a while is wedged instead: a worker was killed
            #    while idle, or after its points finished.
            #    multiprocessing.Pool cannot reap one worker, so the pool
            #    is replaced wholesale; the overdue points are charged, and
            #    every other in-flight point is re-dispatched without being
            #    charged an attempt.
            stalled = (
                self._quiet_s is not None and bool(in_flight)
                and now >= self._heard_at + self._quiet_s
            )
            if overdue or stalled:
                assert timeout is not None and self._quiet_s is not None
                for task in overdue:
                    task.attempts += 1
                    task.elapsed += timeout
                    exc = TimeoutError(
                        f"no result within {timeout:.1f}s "
                        "(worker hung or died)"
                    )
                    self._on_error(task, exc, requeue)
                collateral = [
                    task for chunk in in_flight for task in chunk.tasks
                    if task not in overdue
                ]
                in_flight = []
                progressed = True
                if overdue:
                    reason = "timeout"
                else:
                    reason = f"{self._quiet_s:.1f}s without progress"
                    self._quiet_s *= 2
                    if unstarted:
                        self._unwedge()
                self.say(
                    f"  pool replaced after {reason} "
                    f"({len(collateral)} in-flight point(s) re-dispatched)"
                )
                self._shutdown_pool()
                self._spawn_pool()
                for task in collateral:
                    heapq.heappush(ready, (task.index, task))
            for task in requeue:
                heapq.heappush(backoff, (task.ready_at, task.index, task))
            # 3. Refill the in-flight window.  Retries whose backoff has
            #    elapsed rejoin the ready heap, except a point on its final
            #    attempt, which runs in-process instead (see above) once
            #    the workers are busy.
            now = time.monotonic()
            last_tries: List[_PointTask] = []
            while backoff and backoff[0][0] <= now:
                task = heapq.heappop(backoff)[2]
                if task.attempts + 1 >= self.policy.max_attempts:
                    last_tries.append(task)
                else:
                    heapq.heappush(ready, (task.index, task))
            for task in solo:
                in_flight.append(self._dispatch([task]))
            size = min(POINTS_PER_TASK, -(-len(ready) // self.n_workers))
            while ready and len(in_flight) < max_in_flight:
                tasks = [heapq.heappop(ready)[1]
                         for _ in range(min(size, len(ready)))]
                in_flight.append(self._dispatch(tasks))
            for task in last_tries:
                self._attempt_in_process(task)
            # 4. Only now, with the workers busy again, hand the finished
            #    records to the frontier (store append + fsync, then
            #    ``on_point_done``).  A chunk's records arrive together, so
            #    ``should_stop`` is checked between them: a cancel lands
            #    within one appended record.
            for n, (task, record, elapsed) in enumerate(finished):
                if n:
                    self._check_stop()
                self._complete(task, record, elapsed)
            # 5. Wait for a completion only if this pass collected nothing.
            #    The cap bounds how late ``should_stop``, deadlines and
            #    backoff are noticed; ``Event.wait`` stays interruptible by
            #    SIGINT/SIGTERM on the main thread.
            if not progressed and (ready or backoff or in_flight):
                self._wake.wait(_POLL_INTERVAL_S)


def run_sweep(
    points: Sequence[ExperimentPoint],
    store: ResultStore,
    workers: Optional[int] = None,
    force: bool = False,
    log: Optional[Callable[[str], None]] = None,
    kernel_variant: Optional[str] = None,
    policy: Optional[RetryPolicy] = None,
    on_point_done: Optional[Callable[[str, Dict[str, Any], int], None]] = None,
    should_stop: Optional[Callable[[], bool]] = None,
) -> SweepSummary:
    """Compute every point not already in ``store``; return a summary.

    ``force=True`` recomputes cached points (their records are appended
    again; last-wins on reload — ``python -m repro.sweep compact``
    deduplicates the file afterwards).  ``workers`` defaults to
    :func:`default_workers`; the pool is skipped entirely when the pending
    shard is too small to amortise process startup.  ``kernel_variant``
    selects the simulation kernel per worker (see
    :class:`repro.engine.Pipeline`); every variant produces identical
    records, so the store contents do not depend on it.  The ``batch``
    variant additionally groups pending points that share a structural
    specialization key into single vectorized kernel calls (see the module
    docstring) — again without touching store bytes.  ``policy``
    configures retry/timeout/backoff handling (default: three attempts,
    0.1 s base backoff, no timeout).

    Completed records are appended incrementally in expansion order (the
    flush frontier), so partial progress survives crashes and interrupts;
    SIGINT/SIGTERM raise :class:`SweepInterrupted` carrying the partial
    summary after the pool is torn down.  Points that exhaust their retry
    budget are reported in :attr:`SweepSummary.failures` and block the
    frontier at their expansion index.

    ``on_point_done(key, record, index)``, when given, is invoked once per
    freshly computed point, strictly in expansion order, immediately after
    the record is durably appended to the store; ``index`` is the point's
    0-based position within the pending (non-cached) shard.  The hook runs
    in the orchestrating thread and must be cheap; leaving it unset changes
    nothing — store bytes, summaries, and timings are identical.

    ``should_stop``, when given, is polled between dispatch iterations and
    between the appends of records that arrive together; returning
    ``True`` cancels the sweep through the interrupt path (pool
    torn down, frontier flushed, :class:`SweepInterrupted` raised with the
    partial summary) — the service's cancel button.
    """
    t0 = time.perf_counter()
    n_workers = default_workers() if workers is None else max(1, int(workers))
    retry_policy = RetryPolicy() if policy is None else policy
    say = log if log is not None else (lambda _msg: None)
    # Resolve (and validate) the variant once, up front: the batch variant
    # changes how work is scheduled, not just what each worker runs.
    resolved_variant = resolve_kernel_variant(kernel_variant)

    # Deduplicate while preserving expansion order: a grid with repeated
    # points (e.g. overlapping specs) must not compute the same key twice.
    # The service job manager and the fabric coordinator number this list.
    unique = list(dedup_points(points).items())

    pending = [
        (key, point) for key, point in unique if force or key not in store
    ]
    n_cached = len(unique) - len(pending)
    say(f"sweep: {len(unique)} points, {n_cached} cache hits, "
        f"{len(pending)} to compute")

    timings: Dict[str, float] = {}
    failures: Dict[str, FailureRecord] = {}
    n_computed = 0
    n_discarded = 0
    interrupted = False
    if pending:
        tasks = []
        for index, (key, point) in enumerate(pending):
            payload = _payload_for(point)
            if kernel_variant is not None:
                payload["_kernel_variant"] = kernel_variant
            tasks.append(_PointTask(index, key, point, payload))
        use_pool = (
            n_workers > 1
            and len(pending) >= n_workers * MIN_POINTS_PER_WORKER
        )
        executor = _FrontierExecutor(
            tasks, store, retry_policy, n_workers, use_pool, say,
            on_point_done=on_point_done, should_stop=should_stop,
            batch=(resolved_variant == "batch"),
        )
        restore_sigterm = _convert_sigterm()
        try:
            executor.run()
        except KeyboardInterrupt:
            interrupted = True
            say("  interrupted: frontier flushed, worker pool torn down")
        finally:
            restore_sigterm()
        timings = executor.timings
        failures = executor.failures
        n_computed = executor.n_flushed
        n_discarded = executor.n_discarded

    summary = SweepSummary(
        n_points=len(unique),
        n_cached=n_cached,
        n_computed=n_computed,
        n_workers=n_workers,
        elapsed_s=time.perf_counter() - t0,
        timings=timings,
        kernel_variant=resolved_variant,
        failures=failures,
        n_discarded=n_discarded,
        interrupted=interrupted,
    )
    if interrupted:
        raise SweepInterrupted(summary)
    return summary


__all__ = [
    "MAX_BATCH_LANES",
    "MIN_POINTS_PER_WORKER",
    "TRACE_CACHE_SIZE",
    "FailureRecord",
    "SweepInterrupted",
    "SweepSummary",
    "clear_trace_cache",
    "default_workers",
    "execute_batch",
    "execute_point",
    "run_sweep",
]
