"""Shard scheduler: leases, failover, work stealing, and the merger.

The coordinator turns one sweep spec into the same store bytes a
single-host ``python -m repro.sweep run`` would produce, using however
many backends happen to survive.  It holds no private coordination
machinery: leases come from :class:`repro.exec.lease.LeaseTable`, attempt
budgets from :class:`repro.exec.attempts.AttemptTracker`, the merge
frontier is a :class:`repro.exec.frontier.FlushFrontier` whose emit
callback is ``store.merge``, and checkpoints ride on
:mod:`repro.exec.checkpoint`.  One run's mutable state lives in a
:class:`_Run`, with one method per transition.  The pieces:

**Planning.**  The spec is expanded and deduped into the canonical
expansion-order point list (exactly as the pool runner and the service do
it).  Points already in the store are cache hits; the remaining pending
points — which always form contiguous runs, because the store is an
expansion-order prefix plus whatever earlier fabric runs merged — are
chopped into contiguous :class:`~repro.fabric.backends.Shard` ranges of at
most ``shard_size`` points.

**Dispatch under lease, with work stealing.**  Each available
(health-gated) backend may hold up to ``max_inflight_shards`` leases at
once; the default of 1 preserves the original one-shard-per-backend
behaviour.  Whenever a backend has spare lease capacity it *steals* the
oldest unleased shard (lowest shard ordinal first — the shard the merge
frontier is waiting on), idle-most backends first, so a fast peer
pipelines several shards while a slow one grinds on its first.  A
backend that delivers a shard is handed its next one *before* that shard
is merged, so it never idles through the merge (which writes the shard's
records and fsyncs them once).  The
backend's progress callbacks renew the shard's lease; a lease that misses
heartbeats for ``lease_timeout_s`` is declared expired — the backend is
charged a failure, and the shard is requeued for a surviving backend.
Delivery is therefore *at least once*; a stale worker that eventually
finishes anyway is harmless, because its result is accepted only if the
shard is still open, and record-level dedup (content keys + byte-identical
merge) makes duplicates invisible.

**Deterministic merge.**  Completed shards buffer in the merge frontier
and are folded into the store strictly in shard order (the inter-host
mirror of the runner's flush frontier — literally the same class).
Records therefore land in the file in expansion order no matter which
backend finished first — this is what makes the final store
byte-identical to the fault-free single-host store under any cluster
shape, assignment, failover, or retry history (the abelian-networks
property the reproduction is built around).  A shard that keeps failing
everywhere exhausts ``max_shard_attempts`` and raises
:class:`~repro.common.errors.FabricError` carrying a partial
:class:`FabricSummary` (a :class:`~repro.sweep.runner.SweepSummary`, so
per-point ``failures`` and ``n_discarded`` mean what they mean for a
sweep); everything merged up to that point stays durable, and re-running
resumes from the cached prefix.

**Checkpoint / handoff.**  With ``checkpoint_path`` set, the coordinator
periodically snapshots its plan, merge position, attempt counters, and
completed-but-unmerged shard records (atomic tmp + replace).  A
replacement coordinator started on the same store + checkpoint — e.g.
after the original was SIGKILLed mid-run — resumes where it stopped:
the merged prefix is recomputed from the *store* (never trusted from the
checkpoint, since the coordinator may die between a merge and the next
snapshot), buffered completions are rehydrated instead of recomputed,
and attempt budgets carry over so a failing shard does not get a fresh
budget by crashing its supervisor.  The checkpoint is cleared on any
terminal outcome (success or budget exhaustion); it exists to survive
crashes, not to memoise failures.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError, FabricError, StoreError
from repro.exec.attempts import AttemptTracker
from repro.exec.checkpoint import (
    clear_checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from repro.exec.frontier import FlushFrontier
from repro.exec.lease import Lease, LeaseTable
from repro.fabric.backends import PeerBackend, RunnerBackend, Shard
from repro.fabric.health import DEAD, BackendHealth
from repro.sweep.grid import (
    ExperimentPoint,
    SweepSpec,
    dedup_points,
    spec_digest,
)
from repro.sweep.runner import FailureRecord, SweepSummary
from repro.sweep.store import ResultStore

#: Default shard size: small enough that a lost peer forfeits little work,
#: large enough to amortise one job submission per shard.
DEFAULT_SHARD_SIZE = 8

#: Checkpoint payload schema version; bump on incompatible layout changes
#: (a mismatched version is simply ignored and the run re-plans fresh).
CHECKPOINT_VERSION = 1

#: A backend thread's report: ``(lease ticket, records, exception)``.
Arrival = Tuple[int, Optional[List[Dict[str, Any]]], Optional[BaseException]]


@dataclass
class FabricSummary(SweepSummary):
    """What one coordinated run did, across every backend: a sweep summary
    plus the shard, lease and backend counters."""

    n_shards: int = 0             # shards planned (0 on a pure cache hit)
    n_requeues: int = 0           # shard dispatches beyond the first
    n_expired_leases: int = 0     # leases lost to missed heartbeats
    degraded: bool = False        # peers were configured but all ended dead
    #: backend name -> health/status counters (shards completed included).
    backends: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def _ran_on(self) -> str:
        return (f"over {self.n_shards} shard(s) "
                f"via {len(self.backends)} backend(s)")

    def _notes(self) -> List[str]:
        return [note for shown, note in (
            (self.n_requeues, f"{self.n_requeues} shard requeue(s)"),
            (self.n_expired_leases,
             f"{self.n_expired_leases} lease(s) expired"),
        ) if shown] + super()._notes() + (
            ["degraded to local-only (all peers down)"]
            if self.degraded else [])


def _shard(items: List[Tuple[str, ExperimentPoint]], index: int,
           start: int, stop: int) -> Shard:
    """Shard ``index`` over ``items[start:stop]`` of the deduped expansion."""
    chunk = items[start:stop]
    return Shard(index=index, start=start, stop=stop,
                 points=tuple(point for _key, point in chunk),
                 keys=tuple(key for key, _point in chunk))


def plan_shards(
    keyed: Dict[str, ExperimentPoint],
    store: ResultStore,
    shard_size: int,
) -> List[Shard]:
    """Chop the pending (not-in-store) points into contiguous shards.

    Pending indices are walked in expansion order; each maximal contiguous
    run is split into chunks of at most ``shard_size``.  Shard ordinals
    (``Shard.index``) number the shards in expansion order — the merge
    frontier consumes them in exactly that order.
    """
    if shard_size < 1:
        raise FabricError(f"shard_size must be >= 1, got {shard_size}")
    items = list(keyed.items())
    shards: List[Shard] = []
    run_start: Optional[int] = None
    for position in range(len(items) + 1):
        pending = position < len(items) and items[position][0] not in store
        if pending and run_start is None:
            run_start = position
        elif not pending and run_start is not None:
            for start in range(run_start, position, shard_size):
                stop = min(start + shard_size, position)
                shards.append(_shard(items, len(shards), start, stop))
            run_start = None
    return shards


class FabricCoordinator:
    """Drives one spec to completion across a set of backends."""

    def __init__(
        self,
        backends: Sequence[RunnerBackend],
        shard_size: int = DEFAULT_SHARD_SIZE,
        lease_timeout_s: float = 60.0,
        max_shard_attempts: Optional[int] = None,
        dead_after: int = 3,
        cooldown_s: float = 10.0,
        poll_s: float = 0.05,
        max_inflight_shards: int = 1,
        checkpoint_path: Optional[str] = None,
        checkpoint_interval_s: float = 5.0,
        log: Optional[Callable[[str], None]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not backends:
            raise FabricError(
                "fabric needs at least one backend (local and/or peers)"
            )
        names = [backend.name for backend in backends]
        if len(set(names)) != len(names):
            raise FabricError(f"backend names must be unique, got {names}")
        if max_inflight_shards < 1:
            raise ConfigurationError(
                f"max_inflight_shards must be >= 1, got {max_inflight_shards}"
            )
        if checkpoint_interval_s <= 0:
            raise ConfigurationError(
                f"checkpoint_interval_s must be positive, "
                f"got {checkpoint_interval_s}"
            )
        self.backends = list(backends)
        self.shard_size = shard_size
        self.lease_timeout_s = lease_timeout_s
        # Every shard may fail once per backend and still complete on a
        # second pass somewhere; beyond that the run is hopeless.
        self.max_shard_attempts = (
            max_shard_attempts if max_shard_attempts is not None
            else 2 * len(self.backends) + 2
        )
        self.max_inflight_shards = max_inflight_shards
        self.checkpoint_path = checkpoint_path
        self.checkpoint_interval_s = checkpoint_interval_s
        self.poll_s = poll_s
        self.log = log
        self.clock = clock
        self.health: Dict[str, BackendHealth] = {
            backend.name: BackendHealth(
                backend.name, dead_after=dead_after,
                cooldown_s=cooldown_s, clock=clock,
            )
            for backend in self.backends
        }
        #: Shards completed per backend name (summary bookkeeping).
        self._completed_by: Dict[str, int] = {
            backend.name: 0 for backend in self.backends
        }
        #: The live lease table while a run executes (probe/stats read it).
        self._leases: Optional[LeaseTable] = None

    def _say(self, message: str) -> None:
        if self.log is not None:
            self.log(message)

    def probe(self) -> Dict[str, bool]:
        """One liveness probe per backend (does not change health state)."""
        return {backend.name: backend.probe() for backend in self.backends}

    def lease_counts(self) -> Dict[str, int]:
        """Live in-flight lease count per backend (0s when no run is
        executing) — the numbers the work-stealing cap compares against
        ``max_inflight_shards``."""
        table = self._leases
        return {
            backend.name: (table.held_by(backend.name) if table else 0)
            for backend in self.backends
        }

    def run(self, spec: SweepSpec, store: ResultStore) -> FabricSummary:
        """Compute every pending point of ``spec`` into ``store``.

        Returns a :class:`FabricSummary`; raises
        :class:`~repro.common.errors.FabricError` (with the partial
        summary attached) when a shard exhausts its attempt budget on
        every available backend.  The store's merged prefix is durable
        either way — re-running resumes from it.
        """
        t0 = time.monotonic()
        state = _Run(self, spec, store)
        summary = state.summary
        self._say(
            f"fabric: spec {spec.name!r}: {summary.n_points} points, "
            f"{summary.n_cached} cached, "
            f"{summary.n_points - summary.n_cached} pending in "
            f"{len(state.shards)} shard(s) across {len(self.backends)} "
            "backend(s)"
        )
        try:
            if state.shards:
                state.execute()
        except FabricError as exc:
            self._finish(summary, t0)
            if exc.summary is None:
                exc.summary = summary
            raise
        self._finish(summary, t0)
        return summary

    def _finish(self, summary: FabricSummary, t0: float) -> None:
        # Any terminal outcome clears the checkpoint: it must not memoise
        # an exhausted attempt budget into the next (fresh) run.
        if self.checkpoint_path:
            clear_checkpoint(self.checkpoint_path)
        summary.elapsed_s = time.monotonic() - t0
        # Degradation is snapshotted BEFORE the stats pass: status() reads
        # the promoting ``state`` property, which can flip a dead peer to
        # post-cooldown probation while this very summary is being built —
        # "ended the run dead" must not depend on wall-clock read order.
        peers = [b for b in self.backends if isinstance(b, PeerBackend)]
        # _state (not available()) on purpose: a peer in post-cooldown
        # probation still *ended the run* dead for degradation purposes.
        summary.degraded = bool(peers) and all(
            self.health[peer.name]._state == DEAD for peer in peers
        )
        counts = self.lease_counts()
        for backend in self.backends:
            entry = self.health[backend.name].status()
            entry["kind"] = type(backend).__name__
            entry["shards_completed"] = self._completed_by[backend.name]
            entry["inflight_leases"] = counts[backend.name]
            entry["max_inflight"] = self.max_inflight_shards
            summary.backends[backend.name] = entry


class _Run:
    """One :meth:`FabricCoordinator.run`'s state, one method per transition:
    dispatch, release, arrival, failure, lease expiry, requeue-or-give-up,
    and snapshot.  The checkpoint payload is built (:meth:`snapshot`) and
    parsed (:meth:`_resume_plan`, :meth:`_rehydrate`) side by side here."""

    def __init__(self, coordinator: FabricCoordinator, spec: SweepSpec,
                 store: ResultStore) -> None:
        self.c = coordinator
        self.spec = spec
        self.store = store
        self.digest = spec_digest(spec)
        keyed = dedup_points(spec.expand())
        self.summary = FabricSummary(
            n_points=len(keyed),
            n_cached=sum(1 for key in keyed if key in store),
            n_computed=0,
        )
        self.resume: Optional[Dict[str, Any]] = None
        self.shards = self._resume_plan(keyed)
        if self.shards is None:
            self.shards = plan_shards(keyed, store, coordinator.shard_size)
        self.summary.n_shards = len(self.shards)
        self.frontier = FlushFrontier(len(self.shards), emit=self._merge)
        self.attempts = AttemptTracker(coordinator.max_shard_attempts)
        self.pending: List[Shard] = []
        self.first_dispatch: Dict[int, float] = {}
        self.arrivals: "queue.Queue[Arrival]" = queue.Queue()
        self.threads: List[threading.Thread] = []
        self.dirty = False
        self.last_snapshot = coordinator.clock()

    # -- the loop ----------------------------------------------------------
    def execute(self) -> None:
        c = self.c
        self.leases = LeaseTable(c.lease_timeout_s, clock=c.clock)
        c._leases = self.leases
        if self.resume is not None:
            self._rehydrate()
        self.pending = [shard for shard in self.shards
                        if not self.frontier.is_complete(shard.index)]
        self.snapshot(force=True)
        while not self.frontier.done:
            self._dispatch_idle()
            arrivals = self._drain()
            # Free every backend that delivered and hand it its next shard
            # BEFORE merging: a merge writes its records and fsyncs once,
            # and a backend waiting on it is idle time (the pool's
            # refill-before-append).
            for ticket, records, exc in arrivals:
                if exc is None and records is not None:
                    self._release(ticket)
            self._dispatch_idle()
            for ticket, records, exc in arrivals:
                if exc is None and records is not None:
                    self._arrive(ticket, records)
                else:
                    self._fail(ticket, exc)
            for lease in self.leases.expire_stale():
                self._expire(lease)
            self.snapshot()
        # Give promptly-finishing workers a moment to park; stragglers are
        # daemon threads blocked in bounded (timeout-bearing) I/O.
        for thread in self.threads:
            thread.join(timeout=0.2)

    def _merge(self, index: int, records: List[Dict[str, Any]]) -> None:
        self.summary.n_computed += self.store.merge(records)
        self.c._say(f"fabric: merged {self.shards[index].label()} "
                    f"({len(records)} record(s))")

    # -- transitions -------------------------------------------------------
    def _dispatch_idle(self) -> None:
        """Work-stealing dispatch: every available backend may hold up to
        ``max_inflight_shards`` leases; the idle-most backend (ties broken
        in configured order) steals the oldest unleased shard — the one
        the merge frontier needs next."""
        c = self.c
        while self.pending:
            candidates = [
                backend for backend in c.backends
                if c.health[backend.name].available()
                and self.leases.held_by(backend.name) < c.max_inflight_shards
            ]
            if not candidates:
                return
            backend = min(candidates,
                          key=lambda b: self.leases.held_by(b.name))
            shard = min(self.pending, key=lambda s: s.index)
            self.pending.remove(shard)
            self._dispatch(shard, backend)

    def _dispatch(self, shard: Shard, backend: RunnerBackend) -> None:
        lease = self.leases.issue(shard, backend.name)
        self.first_dispatch.setdefault(shard.index, self.c.clock())
        n = self.attempts.charge(shard.index)
        self.c._say(f"fabric: {shard.label()} -> {backend.name} "
                    f"(attempt {n})")

        def work() -> None:
            try:
                records = backend.run_shard(self.spec, shard, lease.beat)
            except BaseException as exc:
                self.arrivals.put((lease.ticket, None, exc))
            else:
                self.arrivals.put((lease.ticket, records, None))

        thread = threading.Thread(
            target=work, daemon=True,
            name=f"fabric-{backend.name}-s{shard.index}",
        )
        self.threads.append(thread)
        thread.start()

    def _drain(self) -> List[Arrival]:
        """Wait one ``poll_s`` tick for an arrival, then take every other
        queued one: fast backends can finish several shards per tick, and
        one completion per tick would lag the merge and redispatch."""
        arrivals = []
        try:
            arrivals.append(self.arrivals.get(timeout=self.c.poll_s))
        except queue.Empty:
            pass
        while True:
            try:
                arrivals.append(self.arrivals.get_nowait())
            except queue.Empty:
                return arrivals

    def _release(self, ticket: int) -> None:
        """Settle a successful arrival's lease so its backend can take the
        next shard; the records are folded in later by :meth:`_arrive`.

        A late result from an expired lease is still a success — accepted
        iff the shard is still open (at-least-once; the merge dedups the
        rest), so its shard leaves ``pending`` either way.  Health is only
        updated for live leases: the expiry already charged this backend
        a failure, and a late success must not resurrect a DEAD peer
        straight to ALIVE, bypassing the probation trial health.py
        documents.
        """
        lease = self.leases.lookup(ticket)
        if not lease.expired:
            self.leases.release(ticket)
            self.c.health[lease.holder].record_success()
        index = lease.item.index
        self.pending = [s for s in self.pending if s.index != index]

    def _arrive(self, ticket: int, records: List[Dict[str, Any]]) -> None:
        lease = self.leases.lookup(ticket)
        shard = lease.item
        if self.frontier.is_complete(shard.index):
            return
        self.c._completed_by[lease.holder] += 1
        self.dirty = True
        if self.frontier.complete(shard.index, records):
            # The merge frontier advanced: snapshot now — this is the
            # state a handoff must not lose.
            self.snapshot(force=True)

    def _fail(self, ticket: int, exc: Optional[BaseException]) -> None:
        lease = self.leases.lookup(ticket)
        self.c._say(f"fabric: {lease.item.label()} failed on "
                    f"{lease.holder}: {exc}")
        if not lease.expired:
            self.leases.release(ticket)
            self.c.health[lease.holder].record_failure()
            self._requeue(lease.item, f"{type(exc).__name__}: {exc}",
                          type(exc).__name__)

    def _expire(self, lease: Lease) -> None:
        self.c.health[lease.holder].record_failure()
        self.summary.n_expired_leases += 1
        self.dirty = True
        self._requeue(
            lease.item,
            f"lease expired on {lease.holder} "
            f"(no heartbeat for {self.c.lease_timeout_s:.1f}s)",
            "LeaseExpired",
        )

    def _requeue(self, shard: Shard, reason: str, error_kind: str) -> None:
        if self.frontier.is_complete(shard.index):
            return
        if not self.attempts.exhausted(shard.index):
            self.summary.n_requeues += 1
            self.dirty = True
            self.pending.append(shard)
            self.c._say(f"fabric: requeueing {shard.label()}: {reason}")
            return
        n = self.attempts.attempts(shard.index)
        now = self.c.clock()
        elapsed = now - self.first_dispatch.get(shard.index, now)
        for key, point in zip(shard.keys, shard.points):
            self.summary.failures[key] = FailureRecord(
                key=key, label=point.label(), attempts=n,
                error=error_kind, message=reason, elapsed_s=elapsed,
            )
        # Records computed by backends but stuck behind the failed shard:
        # counted (point granularity, like the sweep summary) and dropped —
        # the next run recomputes or cache-hits them.
        self.summary.n_discarded += sum(
            len(records) for records in self.frontier.buffered().values()
        )
        self.frontier.discard()
        raise FabricError(
            f"{shard.label()} failed {n} time(s) across the fabric "
            f"(last: {reason}); giving up — {self.frontier.position} "
            "shard(s) are merged and durable, re-run to resume"
        )

    # -- checkpoint: build and parse ---------------------------------------
    def snapshot(self, force: bool = False) -> None:
        """Write the checkpoint — forced, or when dirty and due."""
        c = self.c
        if not c.checkpoint_path:
            return
        now = c.clock()
        if not force and not (
            self.dirty
            and now - self.last_snapshot >= c.checkpoint_interval_s
        ):
            return
        write_checkpoint(c.checkpoint_path, {
            "version": CHECKPOINT_VERSION,
            "spec_digest": self.digest,
            "shard_size": c.shard_size,
            "shards": [
                {"index": s.index, "start": s.start, "stop": s.stop}
                for s in self.shards
            ],
            "merged_through": self.frontier.position,
            "attempts": self.attempts.snapshot(),
            "completed": {
                str(index): records
                for index, records in self.frontier.buffered().items()
            },
            "n_requeues": self.summary.n_requeues,
            "n_expired_leases": self.summary.n_expired_leases,
        })
        self.dirty = False
        self.last_snapshot = now

    def _resume_plan(
        self, keyed: Dict[str, ExperimentPoint],
    ) -> Optional[List[Shard]]:
        """The shard plan of a live checkpoint written for this spec (its
        ``(start, stop)`` ranges over the deterministic expansion), or
        ``None`` to plan fresh; keeps the payload for :meth:`_rehydrate`."""
        if not self.c.checkpoint_path:
            return None
        data = read_checkpoint(self.c.checkpoint_path)
        if data is None:
            return None
        ranges = data.get("shards")
        if (data.get("version") == CHECKPOINT_VERSION
                and data.get("spec_digest") == self.digest
                and isinstance(ranges, list) and ranges):
            items = list(keyed.items())
            shards: List[Shard] = []
            try:
                for position, entry in enumerate(ranges):
                    index = int(entry["index"])
                    start, stop = int(entry["start"]), int(entry["stop"])
                    prev_stop = shards[-1].stop if shards else 0
                    if index != position or not (
                            prev_stop <= start < stop <= len(items)):
                        break
                    shards.append(_shard(items, index, start, stop))
                else:
                    self.resume = data
                    return shards
            except (KeyError, TypeError, ValueError):
                pass
        self.c._say("fabric: ignoring checkpoint (stale or mismatched); "
                    "planning fresh from the store")
        return None

    def _rehydrate(self) -> None:
        """Restore state from the predecessor's checkpoint on this store.

        The merged prefix is recomputed from the store — the predecessor
        may have died between a merge and its next snapshot, and the
        store (not the checkpoint) is the durable truth.  A checkpointed
        ``completed`` payload that conflicts with the store is dropped and
        recomputed; losing checkpoint state costs work, never bytes.
        """
        data = self.resume
        merged = 0
        for shard in self.shards:
            if not all(key in self.store for key in shard.keys):
                break
            merged += 1
        self.frontier.advance_to(merged)
        try:
            self.attempts.restore(data.get("attempts", {}) or {}, key=int)
            self.summary.n_requeues = int(data.get("n_requeues", 0))
            self.summary.n_expired_leases = int(
                data.get("n_expired_leases", 0))
            completed = data.get("completed", {}) or {}
            rehydrated = sorted(
                (int(raw_index), records)
                for raw_index, records in completed.items()
            )
        except (TypeError, ValueError):
            rehydrated = []
        for index, records in rehydrated:
            if not merged <= index < len(self.shards) \
                    or not isinstance(records, list):
                continue
            try:
                self.frontier.complete(index, records)
            except StoreError:
                self.frontier.drop(index)
        self.c._say(
            f"fabric: resumed from checkpoint: {self.frontier.position}/"
            f"{len(self.shards)} shard(s) already merged, "
            f"{len(self.frontier.buffered())} rehydrated in buffer"
        )


__all__ = [
    "CHECKPOINT_VERSION",
    "DEFAULT_SHARD_SIZE",
    "FabricCoordinator",
    "FabricSummary",
    "plan_shards",
]
