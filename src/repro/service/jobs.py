"""Sweep jobs: content-addressed submissions over the fault-tolerant runner.

A *job* is one :class:`~repro.sweep.grid.SweepSpec` submitted over HTTP.
Jobs are deduplicated by the digest of their effective spec — submitting a
spec that is already queued or running attaches the caller to the existing
job instead of computing anything twice, the service-level mirror of the
store's content-addressed point keys.  Re-submitting a *finished* spec
starts a fresh run under the same job id; because every completed point is
already in the store, that run is a pure cache-hit pass (0 points
recomputed) — which is also exactly how a cancelled job resumes.

Execution is strictly serial: one daemon thread owns the
:class:`~repro.sweep.store.ResultStore` and drains the job queue FIFO,
calling :func:`repro.sweep.runner.run_sweep` — which parallelizes across
*processes* per job.  Serializing jobs keeps the single-writer append
discipline that the store's byte-identity guarantee rests on (the store's
bytes must not depend on which job, worker, or submission order computed
which point), while the HTTP server's request threads serve reads and
streams to any number of clients.

Progress flows out through the runner's ``on_point_done`` hook into each
job's :class:`~repro.service.events.EventBroadcaster`; the ``table``
events render report rows the job keeps as its points complete, so each
record is parsed at most once per run.  Cancellation flows
in through ``should_stop``, riding the runner's interrupt path (frontier
flushed, partial prefix durable, resume-by-resubmission).  The manager's
methods may be called from any thread; a lock guards the job table.

Two extensions serve the distributed fabric:

* **Shard jobs** carry a ``shard: {start, stop}`` half-open range and run
  only that slice of the spec's deduped expansion-order point list — the
  unit a :class:`~repro.fabric.scheduler.FabricCoordinator` dispatches to
  a peer.  The shard participates in the job digest, so two shards of one
  spec are distinct jobs and never dedupe against each other or against a
  whole-spec run.  The manager keeps the deduped expansion of the last
  spec it ran, so a row of shard jobs over one spec expands it once.
* **Restart recovery**: every job's identity (spec, options, shard,
  state) is persisted as one small JSON file next to the store.  On boot
  the manager re-reads them; a job that was queued or running when the
  process died is listed again with ``state: "interrupted"`` instead of
  being forgotten, and resubmitting its spec resumes it through the
  normal cache-hit path.
"""

from __future__ import annotations

import json
import os
import queue
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.errors import ReproError
from repro.common.jsonutil import canonical_json
from repro.exec.attempts import RetryPolicy
from repro.service.events import EventBroadcaster
from repro.service.schemas import SchemaError
from repro.sweep.grid import (
    ExperimentPoint,
    SweepSpec,
    dedup_points,
    spec_digest,
)
from repro.sweep.report import ResultRow, relative_ipc_table, rows_from_records
from repro.sweep.runner import (
    SweepInterrupted,
    SweepSummary,
    run_sweep,
)
from repro.sweep.store import ResultStore

#: Emit an incremental ``table`` event every this many completed points
#: (and always at the end of a run).
TABLE_EVERY = 8

#: Job lifecycle states.  ``queued`` and ``running`` are *active* (new
#: submissions of the same spec dedupe onto them); the rest are terminal
#: (a resubmission starts a fresh run of the same job).
ACTIVE_STATES = ("queued", "running")
TERMINAL_STATES = ("done", "failed", "cancelled")

#: State assigned on boot to a persisted job that was active when the
#: previous process died.  Not in :data:`ACTIVE_STATES` — resubmitting the
#: spec re-runs the job, and the store's cached prefix makes that a resume.
INTERRUPTED_STATE = "interrupted"


class ServiceUnavailable(ReproError):
    """The service is draining for shutdown and accepts no new work."""


class UnknownJob(ReproError):
    """No job with the requested id exists."""

    def __init__(self, job_id: str) -> None:
        super().__init__(f"unknown job {job_id!r}")
        self.job_id = job_id


def summary_to_dict(summary: SweepSummary) -> Dict[str, Any]:
    """A :class:`SweepSummary` as a JSON-ready API object."""
    return {
        "n_points": summary.n_points,
        "n_cached": summary.n_cached,
        "n_computed": summary.n_computed,
        "n_workers": summary.n_workers,
        "elapsed_s": summary.elapsed_s,
        "kernel_variant": summary.kernel_variant,
        "cache_hit_rate": summary.cache_hit_rate,
        "n_discarded": summary.n_discarded,
        "interrupted": summary.interrupted,
        "failures": [f.to_dict() for f in summary.failures.values()],
        "describe": summary.describe(),
    }


class Job:
    """One submitted spec and the state of its latest run."""

    def __init__(self, job_id: str, spec: SweepSpec,
                 options: Dict[str, Any],
                 shard: Optional[Dict[str, int]] = None) -> None:
        self.job_id = job_id
        self.spec = spec
        self.options = options
        self.broadcaster = EventBroadcaster()
        self.shard = dict(shard) if shard else None
        self.state = "queued"
        self.created_s = time.time()
        self.run_count = 0
        # Provisional until _execute expands the spec (a shard indexes the
        # *deduped* point list, whose length n_points() only bounds).
        self.n_points = (
            max(0, min(shard["stop"], spec.n_points()) - shard["start"])
            if shard else spec.n_points()
        )
        self.n_cached_start = 0     # cache hits found when the run began
        self.n_done = 0             # cached_start + points flushed so far
        self.summary: Optional[SweepSummary] = None
        self.error: Optional[str] = None
        self.cancel_event = threading.Event()
        #: Expansion-ordered unique point keys, filled in when the run
        #: starts (expansion is deferred to the job thread — a paper-sized
        #: grid should not be expanded while a request waits).
        self.point_keys: List[str] = []

    def status(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "name": self.spec.name,
            "state": self.state,
            "shard": dict(self.shard) if self.shard else None,
            "run_count": self.run_count,
            "n_points": self.n_points,
            "n_cached_start": self.n_cached_start,
            "n_done": self.n_done,
            "progress": (self.n_done / self.n_points) if self.n_points else 1.0,
            "options": dict(self.options),
            "summary": summary_to_dict(self.summary) if self.summary else None,
            "error": self.error,
        }


def effective_spec(body: Dict[str, Any]) -> SweepSpec:
    """The spec a submission actually runs: body ``spec`` + option folds.

    ``energy: true`` applies :meth:`SweepSpec.with_energy` exactly like
    the CLIs' ``--energy`` flag, *before* the job digest is taken — an
    energy run and a plain run of the same grid are different jobs with
    different point keys, never dedupe collisions.
    """
    spec = SweepSpec.from_dict(body["spec"])
    return spec.with_energy() if body.get("energy") else spec


def job_id_for(spec: SweepSpec,
               shard: Optional[Dict[str, int]] = None) -> str:
    """Content digest identifying a spec's job (dedup key).

    A shard job digests its range too — shard and whole-spec runs of one
    spec are different units of work.  ``shard=None`` reproduces the
    pre-shard digest exactly, so existing job ids are stable.
    """
    if shard is None:
        return spec_digest(spec)
    return spec_digest(
        spec, shard={"start": shard["start"], "stop": shard["stop"]}
    )


class JobManager:
    """Owns the store, the job table, and the single job-runner thread."""

    def __init__(
        self,
        store_path: str,
        sweep_workers: Optional[int] = None,
        kernel_variant: Optional[str] = None,
        table_every: int = TABLE_EVERY,
        persist_jobs: bool = True,
    ) -> None:
        self.store = ResultStore(store_path)
        self.sweep_workers = sweep_workers
        self.kernel_variant = kernel_variant
        self.table_every = max(1, table_every)
        self.persist_jobs = persist_jobs
        self._jobs_dir = os.path.join(
            os.path.dirname(os.path.abspath(store_path)), "jobs"
        )
        self.jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue()
        self._lock = threading.RLock()
        self._thread: Optional[threading.Thread] = None
        self._draining = False
        #: ``(spec digest, deduped expansion)`` of the last spec run — one
        #: entry, read and written only by the job-runner thread.
        self._expansion: Optional[
            Tuple[str, Dict[str, ExperimentPoint]]] = None
        if persist_jobs:
            self._recover_jobs()

    # -- persistence -------------------------------------------------------
    def _job_path(self, job_id: str) -> str:
        return os.path.join(self._jobs_dir, f"{job_id}.json")

    def _persist(self, job: Job) -> None:
        """Write the job's identity + state atomically (tmp + replace).

        Summaries and event history are deliberately *not* persisted —
        they are per-process artifacts; what must survive a crash is
        enough to list the job and re-run it (spec, options, shard).
        """
        if not self.persist_jobs:
            return
        record = {
            "job_id": job.job_id,
            "spec": job.spec.to_dict(),
            "options": dict(job.options),
            "shard": dict(job.shard) if job.shard else None,
            "state": job.state,
            "created_s": job.created_s,
            "run_count": job.run_count,
        }
        # Serialized under the manager lock: a request thread (submit)
        # and the job-runner thread (run-start/settle) both persist the
        # same job, and they must not share one tmp file unsynchronized.
        with self._lock:
            os.makedirs(self._jobs_dir, exist_ok=True)
            path = self._job_path(job.job_id)
            tmp = path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(canonical_json(record) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)

    def _recover_jobs(self) -> None:
        """Re-list persisted jobs; active-at-crash ones become interrupted.

        Malformed or torn job files are skipped (the store, not the job
        table, is the durable truth — losing a listing is an inconvenience,
        refusing to boot would be an outage).  Each recovered job's event
        stream holds one closed event naming its state, so a late
        subscriber learns where the run went.
        """
        if not os.path.isdir(self._jobs_dir):
            return
        recovered: List[Job] = []
        for name in os.listdir(self._jobs_dir):
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(self._jobs_dir, name),
                          encoding="utf-8") as fh:
                    record = json.load(fh)
                spec = SweepSpec.from_dict(record["spec"])
                job = Job(record["job_id"], spec,
                          dict(record.get("options") or {}),
                          shard=record.get("shard"))
            except (OSError, ValueError, KeyError, ReproError):
                continue
            job.created_s = float(record.get("created_s", 0.0))
            job.run_count = int(record.get("run_count", 0))
            state = record.get("state")
            if state in ACTIVE_STATES:
                job.state = INTERRUPTED_STATE
                job.error = ("service restarted while this job was "
                             f"{state}; completed points are cached in the "
                             "store — resubmit the same spec to resume")
            elif state in TERMINAL_STATES + (INTERRUPTED_STATE,):
                job.state = state
            else:
                continue
            recovered.append(job)
        for job in sorted(recovered, key=lambda j: (j.created_s, j.job_id)):
            self.jobs[job.job_id] = job
            self._order.append(job.job_id)
            job.broadcaster.publish(job.state, {
                "job_id": job.job_id,
                "state": job.state,
                "recovered": True,
                "error": job.error,
            })
            job.broadcaster.close()
            self._persist(job)

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Start the job-runner thread."""
        self._thread = threading.Thread(
            target=self._run_jobs, name="sweep-job-runner", daemon=True
        )
        self._thread.start()

    def shutdown(self, drain: bool = True) -> None:
        """Stop accepting work; drain (or cancel) what is queued, then join.

        ``drain=True`` lets every queued and in-flight job run to
        completion — the graceful path.  ``drain=False`` cancels them
        through the interrupt path first; their flushed prefixes stay
        durable and resume on resubmission.  Blocking.  A call with
        ``drain=False`` while another thread drains cancels what that
        drain waits for.
        """
        with self._lock:
            self._draining = True
            if not drain:
                for job in self.jobs.values():
                    if job.state in ACTIVE_STATES:
                        self._request_cancel(job)
        self._queue.put(None)
        if self._thread is not None:
            self._thread.join()

    # -- submission (request threads) --------------------------------------
    def submit(self, body: Dict[str, Any]) -> Tuple[Job, str]:
        """Create, dedupe onto, or re-run the job for ``body``.

        Returns ``(job, disposition)`` with disposition one of
        ``"created"`` (new job), ``"deduplicated"`` (attached to an active
        run) or ``"resubmitted"`` (terminal job re-enqueued — a pure
        cache-hit pass when the previous run completed).
        """
        spec = effective_spec(body)
        shard = body.get("shard")
        if shard is not None and shard["start"] >= shard["stop"]:
            raise SchemaError(
                "body.shard",
                f"start ({shard['start']}) must be < stop ({shard['stop']})"
            )
        job_id = job_id_for(spec, shard)
        options = {
            key: body[key]
            for key in ("workers", "kernel_variant", "energy",
                        "retries", "timeout_s", "backoff_s")
            if key in body
        }
        with self._lock:
            if self._draining:
                raise ServiceUnavailable(
                    "service is shutting down; job submissions are closed"
                )
            job = self.jobs.get(job_id)
            if job is not None and job.state in ACTIVE_STATES:
                return job, "deduplicated"
            if job is not None:
                job.options = options
                job.state = "queued"
                job.n_cached_start = 0
                job.n_done = 0
                job.summary = None
                job.error = None
                job.cancel_event = threading.Event()
                job.broadcaster.reset()
                disposition = "resubmitted"
            else:
                job = Job(job_id, spec, options, shard=shard)
                self.jobs[job_id] = job
                self._order.append(job_id)
                disposition = "created"
            self._persist(job)
            job.broadcaster.publish("queued", {
                "job_id": job_id,
                "name": spec.name,
                "n_points": job.n_points,
                "shard": dict(job.shard) if job.shard else None,
                "run": job.run_count + 1,
            })
            self._queue.put(job)
            return job, disposition

    def get(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise UnknownJob(job_id)
        return job

    def list_jobs(self) -> List[Job]:
        return [self.jobs[job_id] for job_id in self._order]

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Cancel a queued or running job; idempotent error on terminal."""
        with self._lock:
            job = self.get(job_id)
            if job.state not in ACTIVE_STATES:
                return {"job_id": job_id, "state": job.state,
                        "cancelled": False}
            self._request_cancel(job)
            return {"job_id": job_id, "state": job.state, "cancelled": True}

    def _request_cancel(self, job: Job) -> None:
        # Caller holds the lock.  A *queued* job is settled immediately —
        # the runner thread will see the terminal state and skip it; a
        # *running* job is asked to stop via should_stop and settles
        # through the SweepInterrupted path in _execute.
        job.cancel_event.set()
        if job.state == "queued":
            self._settle(job, "cancelled", publish_data={
                "job_id": job.job_id, "reason": "cancelled while queued",
            })

    # -- execution (runner thread) -----------------------------------------
    def _run_jobs(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                break
            with self._lock:
                if job.state != "queued":
                    continue  # cancelled while waiting in the queue
                job.state = "running"
                job.run_count += 1
                self._persist(job)
            try:
                self._execute(job)
            except Exception as exc:  # defensive: the thread must survive
                self._settle(job, "failed", error=f"{type(exc).__name__}: {exc}")

    def _settle(self, job: Job, state: str,
                error: Optional[str] = None,
                summary: Optional[SweepSummary] = None,
                publish_data: Optional[Dict[str, Any]] = None) -> None:
        """Move a job to a terminal state and close its event stream."""
        job.state = state
        job.error = error
        if summary is not None:
            job.summary = summary
        data = {"job_id": job.job_id, "state": state}
        if error is not None:
            data["error"] = error
        if summary is not None:
            data["summary"] = summary_to_dict(summary)
        if publish_data:
            data.update(publish_data)
        job.broadcaster.publish(state if state in TERMINAL_STATES else "done",
                                data)
        job.broadcaster.close()
        self._persist(job)

    def _point_event(self, job: Job, key: str,
                     record: Dict[str, Any], index: int) -> Dict[str, Any]:
        result = record.get("result", {})
        cycles = result.get("cycles", 0)
        n_instr = result.get("n_instructions", 0)
        point = record.get("point", {})
        config = point.get("config", {})
        return {
            "job_id": job.job_id,
            "index": index,
            "key": key,
            "n_done": job.n_done,
            "n_points": job.n_points,
            "mix": point.get("mix"),
            "topology": config.get("topology"),
            "n_clusters": config.get("n_clusters"),
            "steering": config.get("steering"),
            "seed": point.get("seed"),
            "ipc": (n_instr / cycles) if cycles else 0.0,
        }

    @staticmethod
    def _table_event(job: Job, rows: Dict[str, ResultRow]) -> Dict[str, Any]:
        """A ``table`` event: the headline RING/CONV table over the job's
        completed points, from ``rows`` (key -> report row, kept as points
        complete), in job order — this is what makes reports live while a
        job runs."""
        table = relative_ipc_table(
            [rows[key] for key in job.point_keys if key in rows])
        return {
            "job_id": job.job_id,
            "n_done": job.n_done,
            "n_points": job.n_points,
            "markdown": table.to_markdown(),
        }

    def job_records(self, job: Job) -> List[Dict[str, Any]]:
        """The job's completed records, expansion-ordered."""
        out = []
        for key in job.point_keys:
            record = self.store.get(key)
            if record is not None:
                out.append(record)
        return out

    def _expand(self, spec: SweepSpec) -> Dict[str, ExperimentPoint]:
        """Unique points of ``spec`` by key, in expansion order — the same
        dedup run_sweep does, so progress counts line up with its summary.

        Cached for the last spec: a coordinator sends a spec's shards one
        after another, and each would otherwise re-expand the whole grid.
        An expansion that raises is not cached.
        """
        digest = spec_digest(spec)
        if self._expansion is None or self._expansion[0] != digest:
            self._expansion = (digest, dedup_points(spec.expand()))
        return self._expansion[1]

    def _execute(self, job: Job) -> None:
        try:
            keyed = self._expand(job.spec)
        except ReproError as exc:
            self._settle(job, "failed", error=str(exc))
            return
        items = list(keyed.items())
        if job.shard is not None:
            # A shard indexes the deduped expansion-order list — the exact
            # list a coordinator computed from the same spec (expansion is
            # deterministic, so both sides agree on every index).
            start, stop = job.shard["start"], job.shard["stop"]
            if stop > len(keyed):
                self._settle(job, "failed", error=(
                    f"shard [{start}, {stop}) is out of range: spec "
                    f"{job.spec.name!r} expands to {len(keyed)} unique "
                    "point(s)"
                ))
                return
            items = items[start:stop]
        points = [point for _key, point in items]
        job.point_keys = [key for key, _point in items]
        job.n_points = len(items)
        job.n_cached_start = sum(
            1 for key in job.point_keys if key in self.store
        )
        job.n_done = job.n_cached_start
        job.broadcaster.publish("running", {
            "job_id": job.job_id,
            "n_points": job.n_points,
            "n_cached": job.n_cached_start,
            "n_pending": job.n_points - job.n_cached_start,
            "shard": dict(job.shard) if job.shard else None,
        })

        # The job's report rows by key: each record is parsed once, the
        # cached ones before the sweep and the rest as they complete.
        rows: Dict[str, ResultRow] = {}
        where = f"<job {job.job_id}>"
        flushed_since_table = 0

        def on_point_done(key: str, record: Dict[str, Any], index: int) -> None:
            nonlocal flushed_since_table
            job.n_done += 1
            job.broadcaster.publish(
                "point", self._point_event(job, key, record, index)
            )
            rows[key] = rows_from_records([record], where)[0]
            flushed_since_table += 1
            if flushed_since_table >= self.table_every:
                flushed_since_table = 0
                job.broadcaster.publish("table", self._table_event(job, rows))

        options = job.options
        policy = RetryPolicy(
            max_attempts=int(options.get("retries", 2)) + 1,
            backoff_s=float(options.get("backoff_s", 0.1)),
            timeout_s=options.get("timeout_s"),
        )
        try:
            for key in job.point_keys:
                record = self.store.get(key)
                if record is not None:
                    rows[key] = rows_from_records([record], where)[0]
            summary = run_sweep(
                points,
                self.store,
                workers=options.get("workers", self.sweep_workers),
                kernel_variant=options.get("kernel_variant",
                                           self.kernel_variant),
                policy=policy,
                on_point_done=on_point_done,
                should_stop=job.cancel_event.is_set,
            )
        except SweepInterrupted as exc:
            self._settle(job, "cancelled", summary=exc.summary, publish_data={
                "reason": "cancelled; completed prefix is durable — "
                          "resubmit the same spec to resume",
            })
            return
        except ReproError as exc:
            self._settle(job, "failed", error=str(exc))
            return
        # A final table event so late dashboards see the complete picture
        # even when n_points is not a multiple of table_every.
        job.broadcaster.publish("table", self._table_event(job, rows))
        if summary.failures:
            self._settle(
                job, "failed", summary=summary,
                error=f"{len(summary.failures)} point(s) permanently failed",
            )
        else:
            self._settle(job, "done", summary=summary)


__all__ = [
    "ACTIVE_STATES",
    "INTERRUPTED_STATE",
    "Job",
    "JobManager",
    "ServiceUnavailable",
    "TABLE_EVERY",
    "TERMINAL_STATES",
    "UnknownJob",
    "effective_spec",
    "job_id_for",
    "summary_to_dict",
]
