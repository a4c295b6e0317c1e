"""Fault-tolerant sharded execution of experiment points.

:func:`run_sweep` takes expanded :class:`~repro.sweep.grid.ExperimentPoint`
lists, skips every point whose key is already in the
:class:`~repro.sweep.store.ResultStore` (a *cache hit*), and runs the rest
on worker processes the runner owns: each worker is one
:class:`multiprocessing.Process` fed through its own duplex pipe, one point
per message.  A worker holds at most two points, one running and one
waiting in its pipe, so when it finishes a point it starts the next without
a round trip to the orchestrator.  It reports when it starts a point and
then the point's outcome, so the orchestrator always knows which point
each worker is running.  One :func:`multiprocessing.connection.wait` call
covers every pipe and every worker's exit sentinel; when a point finishes,
the orchestrator first refills the freed worker and only then hands the
record on, so no worker idles while the orchestrator appends.
Completions arrive in whatever order the workers finish; an
**expansion-order flush frontier** buffers out-of-order results and
appends each record the moment every earlier point has been appended, so

* partial progress is on disk within moments of being computed — each
  record is written and flushed when it is appended, so readers and a
  resumed run see it at once and a crash (even SIGKILL) at point N of M
  keeps the N-1 finished prefix; the store is fsynced on a cadence (at
  the first append :data:`_COMMIT_INTERVAL_S` or more after the last
  commit, so a power loss costs at most about one interval of work) and
  always before :func:`run_sweep` returns or raises, and
* the store's bytes are identical to a single-process fault-free run at
  any worker count, failure pattern, or interrupt point: what reaches the
  file is always an expansion-order prefix of the full sweep, and a re-run
  resumes exactly where that prefix ends via content-key cache hits.

The frontier itself is :class:`repro.exec.frontier.FlushFrontier` — the
shared execution-plane primitive the fabric coordinator's shard merge
frontier is also built on — parameterized here with an emit hook that
appends records to the store.

Failures are handled per point by a
:class:`~repro.exec.attempts.RetryPolicy`; failed attempts retry with
deterministic exponential backoff.  A point is charged one attempt when it
raises, when its worker exits while running it (:class:`WorkerDied`, seen
at once through the worker's sentinel, so no timeout is needed), and, with
a per-point timeout, when it is still running ``timeout_s`` after its
worker started it (time spent waiting in the pipe never counts).  A dead
or overdue worker alone is killed, joined and replaced; the point waiting
in its pipe is sent again uncharged, and no other worker or point is
touched.  A point that never started is never charged.  The final
permitted attempt runs in-process as graceful degradation so a
pathological worker cannot starve a point.  A point that exhausts its
attempts becomes a :class:`FailureRecord` in :class:`SweepSummary` —
structured provenance (attempts, error class, elapsed) that never enters
the store — and blocks the frontier at its expansion index so the
prefix-layout guarantee survives even permanent failures.

SIGINT/SIGTERM stop and join every worker (no leaked processes), leave the
frontier's flushed prefix on disk, and surface as :class:`SweepInterrupted`
carrying the partial summary; re-running the same sweep resumes from the
stored prefix.

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
Under the ``native`` variant the orchestrator builds the C kernel
(:func:`repro.engine.native.load`) before it starts any worker, so a sweep
compiles it once and forked workers inherit it.

Under ``kernel_variant="batch"`` pending points are grouped by structural
specialization key and every multi-point group is executed through one
:func:`repro.engine.batch.simulate_batch` call (:func:`execute_batch`) —
one message to a worker, or one call in-process — demuxed back into
per-point records that feed the same flush frontier.  Batching is pure
scheduling: the store bytes are identical to any other variant's.  A batch
times out after ``timeout_s`` per lane, and a failed batch charges each
member one attempt and falls back to per-point execution.
"""

from __future__ import annotations

import heapq
import math
import multiprocessing
import os
import pickle
import signal
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ReproError, SimulationError
from repro.engine import native
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

#: Jobs outstanding per worker: one running and one waiting in its pipe
#: for the moment the running one finishes.
_DEPTH = 2

#: Cap on the worker loop's wait.  Messages, worker exits, deadlines and
#: backoff wake the loop at once, so this only bounds how often it checks
#: ``should_stop`` while nothing else happens.
_POLL_INTERVAL_S = 0.01

#: Least time between two store fsyncs (:meth:`ResultStore.commit`) while
#: a sweep appends.  Each record is written and flushed at once; this
#: bounds only what a power loss can take, and a commit per record cost
#: more than the C kernel on short points.
_COMMIT_INTERVAL_S = 0.25

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

    The :meth:`ExperimentPoint.to_dict` fields, except that ``"config"``
    is the point's :class:`~repro.common.config.ProcessorConfig` itself:
    :meth:`ExperimentPoint.from_dict` takes it as is, so no point pays a
    config parse, and a worker unpickles it with its memoized digest.

    Carries the full :class:`~repro.workloads.WorkloadMix` definition, not
    just its name: under the ``spawn`` start method (macOS/Windows default)
    workers re-import the package with a pristine registry, so a mix added
    via :func:`register_mix` in the parent would otherwise be unknown there.
    """
    return {
        "config": point.config,
        "mix": point.mix,
        "n_instructions": point.n_instructions,
        "seed": point.seed,
        "_mix_definition": get_mix(point.mix),
    }


def execute_point(payload: Dict[str, Any]) -> Tuple[Dict[str, Any], float]:
    """Run one experiment point; returns ``(record, elapsed_seconds)``.

    Module-level and picklable-in/picklable-out so it crosses process
    boundaries under any start method.  ``payload`` is
    :meth:`ExperimentPoint.to_dict` output (its ``"config"`` may be the
    :class:`~repro.common.config.ProcessorConfig` itself), optionally with a
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


#: One unit sent to a worker: a single point, or the members of one batch
#: (see :meth:`_FrontierExecutor._group_batches`).
_Job = List[_PointTask]


class WorkerDied(ReproError):
    """A worker process exited while it ran a point (killed, crashed, or
    ``os._exit``); the point is charged one attempt."""


def _worker_main(conn: Any) -> None:
    """Body of one sweep worker: run each ``(index, payload)`` message
    until ``None`` arrives, replying ``("started", index,
    time.monotonic())`` and then ``("done", index, outcome)``.

    A dict payload is one point, run through the module-global
    :func:`execute_point` (so a wrapper installed on it runs here too); a
    list is one batch for :func:`execute_batch`.  The outcome is what that
    returned or the exception it raised.  An outcome that cannot cross back
    to the orchestrator is sent as a :class:`RuntimeError` naming the
    exception, or why the record would not pickle, so the point is charged
    instead of lost.

    Workers ignore SIGINT: a terminal Ctrl-C reaches the whole process
    group, but only the orchestrator may act on it — it then stops every
    worker itself.  SIGTERM goes back to the default action: a forked
    worker inherits the orchestrator's TERM->interrupt handler (see
    :func:`_convert_sigterm`), and must simply die when terminated."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    for index, payload in iter(conn.recv, None):
        conn.send(("started", index, time.monotonic()))
        run = execute_batch if isinstance(payload, list) else execute_point
        try:
            outcome: Any = run(payload)
        except Exception as exc:
            outcome = exc
        try:
            message = pickle.dumps(("done", index, outcome))
            pickle.loads(message)
        except Exception as exc:
            culprit = outcome if isinstance(outcome, BaseException) else exc
            message = pickle.dumps(("done", index, RuntimeError(
                f"{type(culprit).__name__}: {culprit}")))
        conn.send_bytes(message)


class _Worker:
    """One worker process, the duplex pipe it is fed through, and the jobs
    sent to it, oldest (running, or next to run) first."""

    __slots__ = ("process", "conn", "jobs", "started_at")

    def __init__(self) -> None:
        self.conn, theirs = multiprocessing.Pipe()
        self.process = multiprocessing.Process(
            target=_worker_main, args=(theirs,), daemon=True,
        )
        self.process.start()
        theirs.close()
        self.jobs: Deque[_Job] = deque()
        #: When the worker started ``jobs[0]``, by its clock; 0.0 until then.
        self.started_at = 0.0


def _convert_sigterm() -> Callable[[], None]:
    """Route SIGTERM through the KeyboardInterrupt path for the duration
    of a sweep, so a service manager's TERM flushes the frontier and stops
    the workers exactly like Ctrl-C.  Returns a restore callable; no-op
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
        self.workers: List[_Worker] = []
        self.frontier = FlushFrontier(len(tasks), emit=self._emit)
        self.timings: Dict[str, float] = {}
        self.failures: Dict[str, FailureRecord] = {}
        self.n_discarded = 0
        self.committed_at = time.monotonic()

    @property
    def n_flushed(self) -> int:
        return self.frontier.n_flushed

    # -- lifecycle --------------------------------------------------------
    def run(self) -> None:
        try:
            if self.use_pool:
                self._run_pool()
            else:
                self._run_inline()
        finally:
            self._stop_workers()
            self.store.commit()
            self.n_discarded = self.frontier.discard()
            if self.n_discarded:
                self.say(
                    f"  {self.n_discarded} computed record(s) past the "
                    "blocked frontier were not persisted; they will be "
                    "recomputed on the next run"
                )

    def _stop_workers(self) -> None:
        """Stop and join every worker: an idle one is told to exit, a busy
        one (the sweep was interrupted or failed) is killed."""
        for worker in self.workers:
            try:
                if worker.jobs:
                    worker.process.kill()
                else:
                    worker.conn.send(None)
            except OSError:
                pass  # already gone
        for worker in self.workers:
            worker.process.join()
            worker.conn.close()
        self.workers = []

    # -- frontier ---------------------------------------------------------
    def _emit(self, index: int, payload: Tuple[Dict[str, Any], float]) -> None:
        """Append one frontier-reached record (the
        :class:`~repro.exec.frontier.FlushFrontier` emit hook: called
        exactly once per completed point, strictly in expansion order —
        a permanently-failed point blocks the frontier there, keeping the
        store an expansion-order prefix of the fault-free sweep), and
        commit the store when :data:`_COMMIT_INTERVAL_S` has passed since
        the last commit.

        ``should_stop`` is checked before each append, so a cancel lands
        within one record even when one completion releases several
        buffered ones; the frontier keeps the unappended ones buffered."""
        self._check_stop()
        record, elapsed = payload
        self.store.append(record)
        now = time.monotonic()
        if now - self.committed_at >= _COMMIT_INTERVAL_S:
            self.store.commit()
            self.committed_at = now
        task = self.tasks[index]
        self.timings[task.key] = elapsed
        self.say(f"  done {task.point.label()} ({elapsed*1e3:.0f} ms)")
        if self.on_point_done is not None:
            # Progress hook, invoked strictly in expansion order and
            # only after the record is appended and flushed — a
            # subscriber notified of (key, index) may read the store and
            # find it.
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
        SIGINT path — workers stopped, frontier flushed, partial summary
        raised as :class:`SweepInterrupted` — so cancel inherits every
        durability guarantee of an interrupt."""
        if self.should_stop is not None and self.should_stop():
            raise KeyboardInterrupt()

    # -- batched execution (kernel_variant="batch") -----------------------
    def _group_batches(self) -> List[_Job]:
        """Group the tasks by structural specialization key, chunked to
        :data:`MAX_BATCH_LANES`, earliest expansion index first so the
        flush frontier advances as soon as possible.  Singleton chunks are
        left to the per-point path (which still runs the batch kernel, just
        with one lane)."""
        groups: "OrderedDict[str, List[_PointTask]]" = OrderedDict()
        for task in self.tasks:
            key = specialization_key(task.point.config)
            groups.setdefault(key, []).append(task)
        batches: List[_Job] = []
        for members in groups.values():
            for start in range(0, len(members), MAX_BATCH_LANES):
                chunk = members[start:start + MAX_BATCH_LANES]
                if len(chunk) >= 2:
                    batches.append(chunk)
        batches.sort(key=lambda chunk: chunk[0].index)
        if batches:
            self.say(
                f"  batch variant: {sum(len(b) for b in batches)} of "
                f"{len(self.tasks)} point(s) in {len(batches)} batched "
                "kernel call(s), grouped by specialization key"
            )
        return batches

    def _run_batches(self) -> List[_PointTask]:
        """Inline pre-phase for the batch variant: execute every
        multi-point specialization-key group through one
        :func:`execute_batch` call each, demuxing per-point records into
        the ordinary flush frontier.

        Returns the tasks still owed to the per-point path: singletons the
        grouping left behind, plus every member of a failed batch — each
        charged one attempt, so a poisoned point converges on its own
        retry budget instead of wedging its batch-mates forever.
        """
        settled: set = set()
        scrap: List[_PointTask] = []   # _on_error's requeue; unused here
        for chunk in self._group_batches():
            self._check_stop()
            payloads = [
                dict(task.payload, _attempt=task.attempts + 1)
                for task in chunk
            ]
            t0 = time.perf_counter()
            try:
                pairs = execute_batch(payloads)
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
        return [
            task for task in self.tasks
            if task.index not in settled
            and not self.frontier.is_blocked(task.index)
        ]

    # -- inline execution (no pool) ---------------------------------------
    def _run_inline(self) -> None:
        for task in self._run_batches() if self.batch else self.tasks:
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

    def _attempt_in_process(self, task: _PointTask) -> None:
        """Graceful degradation: the final permitted attempt runs in the
        orchestrating process, immune to worker death and hangs."""
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
        except Exception as exc:
            task.attempts = attempt
            task.elapsed += time.perf_counter() - t0
            self._fail(task, exc)
        else:
            task.attempts = attempt
            task.elapsed += elapsed
            self._complete(task, record, elapsed)

    # -- pooled execution -------------------------------------------------
    def _send(self, worker: _Worker, job: _Job) -> None:
        """Send ``job`` (a point, or a batch as one message) to ``worker``."""
        payloads = [
            dict(task.payload, _attempt=task.attempts + 1) for task in job
        ]
        try:
            worker.conn.send(
                (job[0].index, payloads if len(job) > 1 else payloads[0])
            )
        except OSError:
            pass  # the worker is dead: the loop sees its exit and resends
        worker.jobs.append(job)

    def _settle(self, job: _Job, outcome: Any,
                finished: Deque[Tuple[_PointTask, Dict[str, Any], float]],
                requeue: List[_PointTask], spent: float = 0.0) -> None:
        """Charge each point of ``job`` its attempt: ``outcome`` is the
        job's ``(record, elapsed)`` pair (a list of them for a batch), or
        the exception that failed the whole job after ``spent`` seconds."""
        if isinstance(outcome, BaseException):
            for task in job:
                task.attempts += 1
                task.elapsed += spent / len(job)
                self._on_error(task, outcome, requeue)
            return
        for task, (record, elapsed) in zip(
                job, outcome if len(job) > 1 else [outcome]):
            task.attempts += 1
            task.elapsed += elapsed
            finished.append((task, record, elapsed))

    def _drain(self, worker: _Worker,
               finished: Deque[Tuple[_PointTask, Dict[str, Any], float]],
               requeue: List[_PointTask]) -> None:
        """Act on every message ``worker`` has sent so far."""
        try:
            while worker.conn.poll():
                kind, _index, value = worker.conn.recv()
                if kind == "started":
                    worker.started_at = value
                else:
                    worker.started_at = 0.0
                    self._settle(worker.jobs.popleft(), value,
                                 finished, requeue)
        except (EOFError, OSError):
            pass  # the worker died; the loop sees its exit

    def _deadline(self, worker: _Worker) -> float:
        """When ``worker``'s running job times out: ``timeout_s`` per
        point from the moment the worker started it."""
        if not worker.started_at or self.policy.timeout_s is None:
            return math.inf
        return worker.started_at + self.policy.timeout_s * len(worker.jobs[0])

    def _replace(self, n: int, exc: BaseException,
                 finished: Deque[Tuple[_PointTask, Dict[str, Any], float]],
                 requeue: List[_PointTask],
                 ready: List[Tuple[int, _Job]]) -> None:
        """Kill and join worker ``n`` (dead or overdue), charge ``exc`` to
        the job it was running, if any, re-queue its unstarted job
        uncharged, and start a fresh worker in its place."""
        worker = self.workers[n]
        worker.process.kill()
        worker.process.join()
        worker.conn.close()
        if worker.started_at:
            self._settle(worker.jobs.popleft(), exc, finished, requeue,
                         time.monotonic() - worker.started_at)
        for job in worker.jobs:
            heapq.heappush(ready, (job[0].index, job))
        self.say(f"  worker replaced ({type(exc).__name__}: {exc})")
        self.workers[n] = _Worker()

    def _run_pool(self) -> None:
        # Imported here: it costs every inline sweep ~6 ms of start-up.
        from multiprocessing.connection import wait

        # Dispatchable jobs, lowest expansion index first so the frontier
        # advances soonest; retries wait in ``backoff`` until due.
        jobs = self._group_batches() if self.batch else []
        batched = {task.index for job in jobs for task in job}
        jobs += [[task] for task in self.tasks if task.index not in batched]
        ready = [(job[0].index, job) for job in jobs]
        heapq.heapify(ready)
        backoff: List[Tuple[float, int, _PointTask]] = []
        finished: Deque[Tuple[_PointTask, Dict[str, Any], float]] = deque()
        for _ in range(self.n_workers):
            self.workers.append(_Worker())
        while True:
            self._check_stop()
            requeue: List[_PointTask] = []
            # 1. Act on every message that has arrived.  Finished records
            #    wait for step 4.
            for worker in self.workers:
                self._drain(worker, finished, requeue)
            # 2. Replace each worker that died (reading what it sent before
            #    it did) or overran its running job.
            for n, worker in enumerate(self.workers):
                code = worker.process.exitcode
                if code is not None:
                    self._drain(worker, finished, requeue)
                    exc: BaseException = WorkerDied(
                        f"worker exited with code {code}")
                elif time.monotonic() >= self._deadline(worker):
                    limit = self._deadline(worker) - worker.started_at
                    exc = TimeoutError(
                        f"no result within {limit:.1f}s of its start "
                        "(worker hung)")
                else:
                    continue
                self._replace(n, exc, finished, requeue, ready)
            # 3. Refill every worker to _DEPTH jobs, idle workers first.
            #    Retries whose backoff has elapsed rejoin the ready heap,
            #    except a point on its final attempt, which runs in-process
            #    instead (see above) once the workers are busy.
            for task in requeue:
                heapq.heappush(backoff, (task.ready_at, task.index, task))
            last_tries: List[_PointTask] = []
            while backoff and backoff[0][0] <= time.monotonic():
                task = heapq.heappop(backoff)[2]
                if task.attempts + 1 >= self.policy.max_attempts:
                    last_tries.append(task)
                else:
                    heapq.heappush(ready, (task.index, [task]))
            for depth in range(1, _DEPTH + 1):
                for worker in self.workers:
                    if ready and len(worker.jobs) < depth:
                        self._send(worker, heapq.heappop(ready)[1])
            for task in last_tries:
                self._attempt_in_process(task)
            # 4. Only now, with the workers busy again, hand the oldest
            #    finished record to the frontier (store append, a commit
            #    when one is due, then ``on_point_done``).  The rest wait
            #    for the next pass, so workers are refilled between appends
            #    instead of idling behind a run of them.
            if finished:
                self._complete(*finished.popleft())
                continue
            if not (ready or backoff or any(w.jobs for w in self.workers)):
                return
            # 5. Sleep until a worker sends or exits, or the next deadline
            #    or backoff falls due.
            due = min([self._deadline(w) for w in self.workers]
                      + [backoff[0][0] if backoff else math.inf])
            wait(
                [w.conn for w in self.workers]
                + [w.process.sentinel for w in self.workers],
                max(0.0, min(_POLL_INTERVAL_S, due - time.monotonic())),
            )


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
    flush frontier), so partial progress survives crashes and interrupts.
    Each record is written and flushed when it is appended, the store is
    fsynced whenever :data:`_COMMIT_INTERVAL_S` has passed since the last
    commit, and whatever was appended is fsynced before this returns or
    raises;
    SIGINT/SIGTERM raise :class:`SweepInterrupted` carrying the partial
    summary after the workers are stopped.  Points that exhaust their retry
    budget are reported in :attr:`SweepSummary.failures` and block the
    frontier at their expansion index.

    ``on_point_done(key, record, index)``, when given, is invoked once per
    freshly computed point, strictly in expansion order, immediately after
    the record is appended to the store and flushed — a fresh
    :class:`ResultStore` of the same path finds it then, though its fsync
    may follow later (see above); ``index`` is the point's
    0-based position within the pending (non-cached) shard.  The hook runs
    in the orchestrating thread and must be cheap; leaving it unset changes
    nothing — store bytes, summaries, and timings are identical.

    ``should_stop``, when given, is polled between dispatch iterations and
    between the appends of records that arrive together; returning
    ``True`` cancels the sweep through the interrupt path (workers
    stopped, frontier flushed, :class:`SweepInterrupted` raised with the
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
        if resolved_variant == "native":
            # Build before the first worker starts: forked workers inherit
            # the loaded library instead of each compiling its own.
            native.load()
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
            say("  interrupted: frontier flushed, workers stopped")
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
    "WorkerDied",
    "clear_trace_cache",
    "default_workers",
    "execute_batch",
    "execute_point",
    "run_sweep",
]
