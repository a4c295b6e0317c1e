"""Fault-tolerant sharded execution of experiment points.

:func:`run_sweep` takes expanded :class:`~repro.sweep.grid.ExperimentPoint`
lists, skips every point whose key is already in the
:class:`~repro.sweep.store.ResultStore` (a *cache hit*), and runs the rest
on worker processes the runner owns: each worker is one
:class:`multiprocessing.Process` fed through its own duplex pipe, several
points per message.  Chunks are sized by guided self-scheduling: the
ready points divided by twice the worker count, at least one and at most
:data:`_CHUNK_CAP`, so chunks shrink as the sweep drains and a small shard
still spreads over every worker.  A worker is sent its next chunk as soon
as it holds fewer unstarted points than one chunk, so when it finishes a
point it starts the next without a round trip to the orchestrator.  Each
worker gets every point's payload once, when it starts, so a chunk
message names points by ``(index, attempt)``.  It answers with one
message per point, the point's outcome.  Which point it is running, and
since when by its own clock, it publishes in a slot of shared memory
(:class:`_Slot`) that the orchestrator reads without a message.  One
poller (:mod:`selectors`), kept for the pool's life, covers every pipe and
every worker's exit sentinel; when a point finishes, the orchestrator
first refills the freed worker and only then hands the record on, so no
worker idles while the orchestrator appends.
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
worker started it (time spent waiting in the pipe, behind the points
before it in its chunk, never counts).  A dead or overdue worker alone is
killed, joined and replaced; the unstarted points of its chunks are sent
again uncharged, and no other worker or point is touched.  A point that
never started is never charged; so that workers that die before they
start any point cannot be replaced forever, ``max_attempts`` replacements
in a row with no outcome between them (no point finished, failed or
charged) end the sweep with :class:`WorkerDied`, after the store is
committed.  The final permitted attempt runs
in-process as graceful degradation so a pathological worker cannot
starve a point.  A point that exhausts its
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

Each worker process keeps a warm LRU trace memo (a grid that varies only
machine config reuses one generated trace for all its points); it affects
wall-clock only, never results.  Under the ``native`` variant
:func:`run_sweep` starts the C compiler
(:func:`repro.engine.native.start_build`) as soon as it knows points are
pending: at entry when the store is empty, else after the cache check, so
a fully cached sweep never compiles.  While the compiler runs, the sweep
builds the payloads and each distinct config's C arguments, imports numpy
(before any worker forks, so workers inherit it) and, inline only, warms
the trace memo with the first :data:`TRACE_CACHE_SIZE` traces.  It waits
for the build (:func:`repro.engine.native.load`) before the first kernel
call or fork, so a sweep compiles once and forked workers inherit the
library, and on every exit path, so no compiler outlives a sweep.  The
store's append descriptor is closed (:meth:`ResultStore.close`) before
:func:`run_sweep` returns or raises.
"""

from __future__ import annotations

import heapq
import math
import multiprocessing
import os
import pickle
import selectors
import signal
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ReproError
from repro.engine import native
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
    load_generator,
    register_mix,
)

#: Smallest shard worth forking a worker pool for; below this the fork +
#: import cost dwarfs the simulation work.
MIN_POINTS_PER_WORKER = 2

#: Per-process bound on memoized traces (see :func:`_cached_trace`).
TRACE_CACHE_SIZE = 8

#: Most points sent to a worker in one message.  A chunk saves the pipe
#: round trips of its points; a larger one would let a worker hold back
#: more of the sweep's tail while the others idle.
_CHUNK_CAP = 8

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
#: generated under the old definition.
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
    config parse, and a worker unpickles it with its memoized digest.  The
    point's memoized key (which :func:`~repro.sweep.grid.dedup_points`
    computed) rides along as ``"_key"``, so no point is hashed twice.

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
        "_key": point.key(),
        "_mix_definition": get_mix(point.mix),
    }


def execute_point(payload: Dict[str, Any]) -> Tuple[Dict[str, Any], float]:
    """Run one experiment point; returns ``(record, elapsed_seconds)``.

    Module-level and picklable-in/picklable-out so it crosses process
    boundaries under any start method.  ``payload`` is
    :meth:`ExperimentPoint.to_dict` output (its ``"config"`` may be the
    :class:`~repro.common.config.ProcessorConfig` itself), optionally with
    the point's precomputed ``"_key"`` and a ``"_mix_definition"`` entry
    (see :func:`_payload_for`) registered here if this interpreter does not
    know the mix yet, and a ``"_attempt"`` counter (1-based) identifying
    which delivery attempt this is.
    """
    t0 = time.perf_counter()
    data = dict(payload)
    key = data.pop("_key", None)
    mix_definition = data.pop("_mix_definition", None)
    kernel_variant = data.pop("_kernel_variant", None)
    attempt = data.pop("_attempt", 1)
    if mix_definition is not None and mix_definition.name not in MIX_REGISTRY:
        register_mix(mix_definition)
    point = ExperimentPoint.from_dict(data)
    if key is None:
        key = point.key()
    # Fault-injection hook, armed only when a repro.faults plan is active.
    # Placed before any real work so an injected death or hang costs the
    # runner a whole attempt — the honest worst case.
    maybe_inject(key, attempt)
    trace = _cached_trace(point.mix, point.n_instructions, point.seed)
    record = Pipeline(point.config, kernel_variant=kernel_variant).run_record(trace)
    record["key"] = key
    record["point"] = point.to_dict()
    return record, time.perf_counter() - t0


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


class WorkerDied(ReproError):
    """A worker process exited while it ran a point (killed, crashed, or
    ``os._exit``); the point is charged one attempt.  Raised out of
    :func:`run_sweep` when workers keep exiting before they start any
    point."""


class _Slot:
    """Which point a worker is running, in memory it shares with the
    orchestrator: the point's index and attempt and the worker's
    ``time.monotonic()`` when it started it, behind a sequence counter.

    The worker alone writes: it makes the counter odd, writes the three
    values and makes the counter even again (a seqlock).  A reader that
    sees the same even count before and after its read therefore holds one
    attempt's index with that attempt's own start, never another's; any
    other read, a worker killed mid-write included, reads as "running
    nothing".  The orchestrator charges a point only on a read it makes
    after it has killed and joined the worker, when no write can be in
    flight, so a misread before that can cost at most a needless worker
    restart, never an early charge."""

    __slots__ = ("cells",)

    def __init__(self) -> None:
        #: count, index, attempt, start; index -1 while the worker runs
        #: nothing.
        self.cells = multiprocessing.RawArray("d", 4)
        self.cells[1] = -1.0

    def publish(self, index: int, attempt: int, start: float) -> None:
        cells = self.cells
        cells[0] += 1.0
        cells[1], cells[2], cells[3] = index, attempt, start
        cells[0] += 1.0

    def read(self) -> Optional[Tuple[int, int, float]]:
        """``(index, attempt, start)`` of the running point, or ``None``."""
        cells = self.cells
        count = cells[0]
        index, attempt, start = cells[1], cells[2], cells[3]
        if count % 2 or cells[0] != count or index < 0:
            return None
        return int(index), int(attempt), start


def _worker_main(conn: Any, slot: _Slot,
                 payloads: Sequence[Dict[str, Any]]) -> None:
    """Body of one sweep worker: run each point of each chunk message (a
    list of ``(index, attempt)`` pairs) in order until ``None`` arrives,
    publishing the point in ``slot`` before it starts, replying with its
    outcome, and clearing ``slot`` once the outcome is sent (so a worker
    that dies while sending is still charged for the point).

    ``payloads`` holds every point's payload by index, handed over once
    when the worker starts (inherited under ``fork``, pickled once under
    ``spawn``), so a message carries two integers per point.  Each point
    runs through the module-global :func:`execute_point` (so a wrapper
    installed on it runs here too); the outcome is what that returned or
    the exception it raised.  An outcome that cannot cross back to the
    orchestrator (a record that will not pickle, an exception that will not
    pickle or unpickle) is sent as a :class:`RuntimeError` naming the
    exception, or why the record would not pickle, so the point is charged
    instead of lost.

    Workers ignore SIGINT: a terminal Ctrl-C reaches the whole process
    group, but only the orchestrator may act on it — it then stops every
    worker itself.  SIGTERM goes back to the default action: a forked
    worker inherits the orchestrator's TERM->interrupt handler (see
    :func:`_convert_sigterm`), and must simply die when terminated."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    for chunk in iter(conn.recv, None):
        for index, attempt in chunk:
            slot.publish(index, attempt, time.monotonic())
            try:
                outcome: Any = execute_point(
                    dict(payloads[index], _attempt=attempt))
            except Exception as exc:
                outcome = exc
            try:
                message = pickle.dumps(outcome)
                if isinstance(outcome, BaseException):
                    pickle.loads(message)
            except Exception as exc:
                culprit = outcome if isinstance(outcome, BaseException) else exc
                message = pickle.dumps(RuntimeError(
                    f"{type(culprit).__name__}: {culprit}"))
            conn.send_bytes(message)
            slot.publish(-1, 0, 0.0)


class _Worker:
    """One worker process, the duplex pipe it is fed through, its
    :class:`_Slot`, and the points sent to it, oldest (running, or next to
    run) first."""

    __slots__ = ("process", "conn", "slot", "jobs")

    def __init__(self, payloads: Sequence[Dict[str, Any]]) -> None:
        self.conn, theirs = multiprocessing.Pipe()
        self.slot = _Slot()
        self.process = multiprocessing.Process(
            target=_worker_main, args=(theirs, self.slot, payloads),
            daemon=True,
        )
        self.process.start()
        theirs.close()
        self.jobs: Deque[_PointTask] = deque()


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
        native_build: bool,
        log: Optional[Callable[[str], None]] = None,
        on_point_done: Optional[Callable[[str, Dict[str, Any], int], None]] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> None:
        self.tasks = tasks
        self.store = store
        self.policy = policy
        self.n_workers = n_workers
        self.use_pool = use_pool
        self.native_build = native_build
        self.log = log
        self.on_point_done = on_point_done
        self.should_stop = should_stop
        self.workers: List[_Worker] = []
        #: Every task's payload by index, handed to each pool worker.
        self.payloads: List[Dict[str, Any]] = []
        #: Waits on every worker's pipe and exit sentinel while a pool runs.
        self.poller: Any = None
        self.frontier = FlushFrontier(len(tasks), emit=self._emit)
        self.timings: Dict[str, float] = {}
        self.failures: Dict[str, FailureRecord] = {}
        self.n_discarded = 0
        self.committed_at = time.monotonic()
        #: Worker replacements since the last settled attempt.
        self.barren_replacements = 0

    @property
    def n_flushed(self) -> int:
        return self.frontier.n_flushed

    def say(self, message: str) -> None:
        if self.log is not None:
            self.log(message)

    # -- lifecycle --------------------------------------------------------
    def run(self) -> None:
        try:
            self._prepare()
            if self.use_pool:
                self._run_pool()
            else:
                self._run_inline()
        finally:
            self._stop_workers()
            self.store.close()
            self.n_discarded = self.frontier.discard()
            if self.n_discarded:
                self.say(
                    f"  {self.n_discarded} computed record(s) past the "
                    "blocked frontier were not persisted; they will be "
                    "recomputed on the next run"
                )

    def _prepare(self) -> None:
        """Everything the points need but the kernel, done while the C
        compiler that :func:`run_sweep` started runs: numpy, before any
        worker forks, so no worker imports it again; the C arguments of
        every distinct config; and, inline, the first
        :data:`TRACE_CACHE_SIZE` traces (a pool's workers make their own,
        and the orchestrator keeps none).  Then wait for the build, which
        raises if it failed.  ``should_stop`` is checked between steps."""
        self._check_stop()
        load_generator()
        if self.native_build:
            for config in {id(t.point.config): t.point.config
                           for t in self.tasks}.values():
                native._arguments(config)  # cached per config
        if not self.use_pool:
            warm = {(t.point.mix, t.point.n_instructions, t.point.seed): None
                    for t in self.tasks}
            for key in list(warm)[:TRACE_CACHE_SIZE]:
                self._check_stop()
                _cached_trace(*key)
        self._check_stop()
        if self.native_build:
            native.load()

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
        if self.poller is not None:
            self.poller.close()
            self.poller = None

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
        if self.log is not None:
            self.log(f"  done {task.point.label()} ({elapsed*1e3:.0f} ms)")
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

    # -- attempts -------------------------------------------------------
    def _settle(self, task: _PointTask, outcome: Any,
                finished: Deque[Tuple[_PointTask, Dict[str, Any], float]],
                requeue: List[_PointTask], spent: float = 0.0) -> None:
        """Charge ``task`` its attempt: ``outcome`` is the attempt's
        ``(record, elapsed)`` pair, which joins ``finished``, or the
        exception that failed it after ``spent`` seconds."""
        task.attempts += 1
        self.barren_replacements = 0
        if isinstance(outcome, BaseException):
            task.elapsed += spent
            self._on_error(task, outcome, requeue)
            return
        record, elapsed = outcome
        task.elapsed += elapsed
        finished.append((task, record, elapsed))

    def _attempt_here(self, task: _PointTask,
                      finished: Deque[Tuple[_PointTask, Dict[str, Any], float]],
                      requeue: List[_PointTask]) -> None:
        """Run ``task``'s next attempt in this process and settle it."""
        t0 = time.perf_counter()
        try:
            outcome: Any = execute_point(
                dict(task.payload, _attempt=task.attempts + 1))
        except Exception as exc:
            outcome = exc
        self._settle(task, outcome, finished, requeue,
                     time.perf_counter() - t0)

    # -- inline execution (no pool) ---------------------------------------
    def _run_inline(self) -> None:
        finished: Deque[Tuple[_PointTask, Dict[str, Any], float]] = deque()
        for task in self.tasks:
            requeue = [task]
            while requeue:
                self._check_stop()
                if task.ready_at:
                    time.sleep(max(0.0, task.ready_at - time.monotonic()))
                requeue = []
                self._attempt_here(task, finished, requeue)
            while finished:
                self._complete(*finished.popleft())

    # -- pooled execution -------------------------------------------------
    def _start_worker(self) -> _Worker:
        """A new worker, with its pipe and exit sentinel on the poller."""
        worker = _Worker(self.payloads)
        self.poller.register(worker.conn, selectors.EVENT_READ, worker)
        self.poller.register(worker.process.sentinel, selectors.EVENT_READ)
        return worker

    def _send(self, worker: _Worker, tasks: List[_PointTask]) -> None:
        """Send the next attempt of each of ``tasks`` to ``worker``, in one
        message of ``(index, attempt)`` pairs."""
        try:
            worker.conn.send([(task.index, task.attempts + 1)
                              for task in tasks])
        except OSError:
            pass  # the worker is dead: the loop sees its exit and resends
        worker.jobs.extend(tasks)

    def _chunk_size(self, n_ready: int) -> int:
        """Guided self-scheduling: the ready points over twice the worker
        count, rounded up, and at most :data:`_CHUNK_CAP`."""
        return min(_CHUNK_CAP, -(-n_ready // (2 * self.n_workers)))

    def _receive(self, worker: _Worker,
                 finished: Deque[Tuple[_PointTask, Dict[str, Any], float]],
                 requeue: List[_PointTask]) -> bool:
        """Settle the next outcome ``worker`` sent, waiting for it if need
        be; ``False`` when the pipe has ended instead (the worker died)."""
        try:
            outcome = worker.conn.recv()
        except (EOFError, OSError):
            return False
        self._settle(worker.jobs.popleft(), outcome, finished, requeue)
        return True

    @staticmethod
    def _started(worker: _Worker) -> Optional[float]:
        """When ``worker`` started its oldest point, by its clock, if its
        slot names that point's current attempt; ``None`` otherwise."""
        running = worker.slot.read()
        if running is None or not worker.jobs:
            return None
        task = worker.jobs[0]
        if running[:2] != (task.index, task.attempts + 1):
            return None
        return running[2]

    def _deadline(self, worker: _Worker) -> float:
        """When ``worker``'s running point times out: ``timeout_s`` from
        the moment the worker started it."""
        started = self._started(worker)
        if started is None or self.policy.timeout_s is None:
            return math.inf
        return started + self.policy.timeout_s

    def _replace(self, n: int,
                 finished: Deque[Tuple[_PointTask, Dict[str, Any], float]],
                 requeue: List[_PointTask],
                 ready: List[Tuple[int, _PointTask]]) -> None:
        """Kill and join worker ``n`` (dead or overdue), settle what it sent
        before it died, charge the point it was running, if any, re-queue
        its unstarted points uncharged, and start a fresh worker in its
        place.  An overdue worker's point is charged only if it is still
        the overdue one: a point that finished just before the kill is
        settled by its own outcome, and the next one, just started, goes
        back uncharged.  Raises :class:`WorkerDied` instead of starting
        the new worker once ``max_attempts`` replacements in a row have
        settled nothing."""
        self.barren_replacements += 1
        worker = self.workers[n]
        code = worker.process.exitcode
        self.poller.unregister(worker.conn)
        self.poller.unregister(worker.process.sentinel)
        worker.process.kill()
        worker.process.join()
        # Dead and joined, so its pipe ends after what it sent.
        while self._receive(worker, finished, requeue):
            pass
        worker.conn.close()
        if code is not None:
            exc: BaseException = WorkerDied(f"worker exited with code {code}")
        else:
            exc = TimeoutError(
                f"no result within {self.policy.timeout_s:.1f}s of its start "
                "(worker hung)")
        started = self._started(worker)
        now = time.monotonic()
        if started is not None and (code is not None
                                    or now >= self._deadline(worker)):
            self._settle(worker.jobs.popleft(), exc, finished, requeue,
                         now - started)
        for task in worker.jobs:
            heapq.heappush(ready, (task.index, task))
        if self.barren_replacements >= self.policy.max_attempts:
            raise WorkerDied(
                f"{self.barren_replacements} worker replacements in a row "
                f"settled no point (last: {exc})")
        self.say(f"  worker replaced ({type(exc).__name__}: {exc})")
        self.workers[n] = self._start_worker()

    def _run_pool(self) -> None:
        # Dispatchable points, lowest expansion index first so the frontier
        # advances soonest (``tasks`` is in index order, so already a
        # heap); retries wait in ``backoff`` until due.
        ready = [(task.index, task) for task in self.tasks]
        backoff: List[Tuple[float, int, _PointTask]] = []
        finished: Deque[Tuple[_PointTask, Dict[str, Any], float]] = deque()
        self.payloads = [task.payload for task in self.tasks]
        self.poller = selectors.DefaultSelector()
        for _ in range(self.n_workers):
            self.workers.append(self._start_worker())
        while True:
            self._check_stop()
            requeue: List[_PointTask] = []
            # 1. Settle the next message of every worker that has sent one
            #    (a worker's later ones wait for a later pass).  Finished
            #    records wait for step 4.
            for key, _events in self.poller.select(0):
                if key.data is not None:
                    self._receive(key.data, finished, requeue)
            # 2. Replace each worker that died (reading what it sent before
            #    it did) or overran its running point.
            for n, worker in enumerate(self.workers):
                if (worker.process.exitcode is not None
                        or time.monotonic() >= self._deadline(worker)):
                    self._replace(n, finished, requeue, ready)
            # 3. Refill, idle workers first, every worker that holds fewer
            #    unstarted points than one chunk.  Retries whose backoff has
            #    elapsed rejoin the ready heap, except a point on its final
            #    attempt, which runs in-process once the workers are busy:
            #    graceful degradation, immune to worker death and hangs.
            for task in requeue:
                heapq.heappush(backoff, (task.ready_at, task.index, task))
            last_tries: List[_PointTask] = []
            while backoff and backoff[0][0] <= time.monotonic():
                task = heapq.heappop(backoff)[2]
                if task.attempts + 1 >= self.policy.max_attempts:
                    last_tries.append(task)
                else:
                    heapq.heappush(ready, (task.index, task))
            for worker in sorted(self.workers, key=lambda w: len(w.jobs)):
                if not ready:
                    break
                size = self._chunk_size(len(ready))
                running = self._started(worker) is not None
                if len(worker.jobs) - running < size:
                    self._send(worker, [heapq.heappop(ready)[1]
                                        for _ in range(size)])
            for task in last_tries:
                self.say(f"  last attempt for {task.point.label()} runs "
                         "in-process (graceful degradation)")
                # Its final attempt fails for good, so nothing is requeued.
                self._attempt_here(task, finished, requeue)
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
            self.poller.select(
                max(0.0, min(_POLL_INTERVAL_S, due - time.monotonic())))


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
    records, so the store contents do not depend on it.  ``policy``
    configures retry/timeout/backoff handling (default: three attempts,
    0.1 s base backoff, no timeout).  A pool gets its points in chunks of
    up to :data:`_CHUNK_CAP` (see the module docstring), but each point
    still has its own outcome, attempts and timeout, measured from its own
    start.

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
    # Resolve (and validate) the variant once, up front, so a bad name
    # fails before any worker starts.
    resolved_variant = resolve_kernel_variant(kernel_variant)
    native_build = resolved_variant == "native"
    # With an empty store every point is pending: start the compiler now,
    # so it runs while the points are deduplicated and prepared.
    if native_build and len(points) and not len(store):
        native.start_build()
    try:
        # Deduplicate while preserving expansion order: a grid with
        # repeated points (e.g. overlapping specs) must not compute the
        # same key twice.  The service job manager and the fabric
        # coordinator number this list.
        unique = list(dedup_points(points).items())

        pending = [
            (key, point) for key, point in unique
            if force or key not in store
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
            if native_build:
                native.start_build()
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
                tasks, store, retry_policy, n_workers, use_pool, native_build,
                log, on_point_done=on_point_done, should_stop=should_stop,
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
    finally:
        # A sweep that ends before it needs the kernel leaves no compiler
        # running (after executor.run() this finds nothing to wait for).
        native.join_build()

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
    "MIN_POINTS_PER_WORKER",
    "TRACE_CACHE_SIZE",
    "FailureRecord",
    "SweepInterrupted",
    "SweepSummary",
    "WorkerDied",
    "clear_trace_cache",
    "default_workers",
    "execute_point",
    "run_sweep",
]
