"""Runner backends: where the fabric actually computes a shard.

A :class:`Shard` is the unit of dispatch — a contiguous half-open range of
the spec's deduped expansion-order point list, carrying both the points
themselves (for local execution) and their content keys (for validation
and remote fetch).  A :class:`RunnerBackend` computes one shard at a time
and returns its records *in shard order*; the coordinator owns merging.

Two implementations:

* :class:`LocalBackend` — PR 6's fault-tolerant pool runner, pointed at a
  throwaway scratch store per attempt so a failed or torn shard leaves no
  trace in the real store.
* :class:`PeerBackend` — federates over the PR 7 job protocol: submit the
  spec plus a shard range, follow the SSE stream (every event doubles as a
  liveness heartbeat), then fetch the shard's canonical store lines in one
  ``GET /jobs/<id>/results`` request.

Everything a peer returns is **validated before it is trusted**:
:func:`validate_record_bytes` checks framing, UTF-8, canonical-JSON
byte-round-trip, the claimed key, and — decisively — that the embedded
point re-hashes to the key it was fetched under.  A truncated, corrupted,
or dishonest response fails validation and the whole shard body is
refetched (or the shard recomputed); it can never reach the store.

Backend failures raise :class:`ShardExecutionError` (or its subclass
:class:`ShardValidationError`), which the coordinator treats as
*requeueable* — distinct from :class:`~repro.common.errors.FabricError`,
which is terminal.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ReproError
from repro.common.jsonutil import canonical_json
from repro.service.client import ServiceClient, ServiceError
from repro.service.events import TERMINAL_EVENTS
from repro.sweep.grid import ExperimentPoint, SweepSpec
from repro.exec.attempts import RetryPolicy
from repro.sweep.runner import SweepInterrupted, run_sweep
from repro.sweep.store import ResultStore

#: Heartbeat callback type: the coordinator's lease-renewal hook.
Heartbeat = Callable[[], None]


class ShardExecutionError(ReproError):
    """A backend could not complete a shard; the shard is requeueable."""


class ShardValidationError(ShardExecutionError):
    """A shard's result bytes failed integrity validation.

    Raised for torn (truncated), corrupted, non-canonical, or mislabeled
    records.  The offending bytes are discarded and the shard's records
    refetched (or the shard recomputed) — never merged.
    """


@dataclass(frozen=True)
class Shard:
    """A contiguous slice ``[start, stop)`` of the deduped expansion order."""

    index: int                          # ordinal among this run's shards
    start: int                          # inclusive, into the deduped list
    stop: int                           # exclusive
    points: Tuple[ExperimentPoint, ...]
    keys: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not (0 <= self.start < self.stop):
            raise ValueError(f"bad shard range [{self.start}, {self.stop})")
        if len(self.points) != self.stop - self.start or \
                len(self.keys) != len(self.points):
            raise ValueError("shard points/keys do not match its range")

    @property
    def n_points(self) -> int:
        return self.stop - self.start

    def label(self) -> str:
        return f"shard {self.index} [{self.start}:{self.stop})"


def validate_record_bytes(raw: bytes, expected_key: str) -> Dict[str, Any]:
    """Parse + integrity-check one record's wire bytes; return the record.

    The checks mirror, layer by layer, what could go wrong in transit:

    1. framing — exactly one line, terminated by the store's newline
       (a missing newline is how truncation manifests);
    2. UTF-8 + JSON-object parse;
    3. canonical-JSON round trip — the bytes must be *exactly* what the
       store would write, or merging them would break byte-identity;
    4. the record's ``key`` field matches the key it was fetched under;
    5. the embedded point **re-hashes** to that key — a peer cannot
       relabel one result as another without failing the content digest.

    Raises :class:`ShardValidationError` naming the failed layer.
    """
    def bad(reason: str) -> ShardValidationError:
        return ShardValidationError(
            f"record {expected_key!r}: {reason} "
            f"({len(raw)} byte(s) received)"
        )

    if not raw or not raw.endswith(b"\n"):
        raise bad("truncated: missing trailing newline")
    try:
        body = raw[:-1].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise bad(f"corrupt: not UTF-8 ({exc})") from None
    if "\n" in body:
        raise bad("malformed: more than one line")
    try:
        record = json.loads(body)
    except ValueError as exc:
        raise bad(f"corrupt: not valid JSON ({exc})") from None
    if not isinstance(record, dict):
        raise bad("malformed: not a JSON object")
    if canonical_json(record) != body:
        raise bad("non-canonical bytes: would break store byte-identity")
    if record.get("key") != expected_key:
        raise bad(f"key mismatch: record claims {record.get('key')!r}")
    if "point" not in record or "result" not in record:
        raise bad("malformed: missing 'point' or 'result'")
    try:
        point = ExperimentPoint.from_dict(record["point"])
    except ReproError as exc:
        raise bad(f"malformed point: {exc}") from None
    if point.key() != expected_key:
        raise bad(
            f"digest mismatch: embedded point hashes to {point.key()!r} — "
            "relabeled or tampered record"
        )
    return record


def _split_shard_records(raw: bytes, shard: Shard) -> List[Dict[str, Any]]:
    """Split a shard's fetched body into validated records, in shard order.

    The body must be exactly one newline-terminated line per shard key;
    each line then passes :func:`validate_record_bytes` against its key.
    Raises :class:`ShardValidationError` on the first failure.
    """
    lines = raw.split(b"\n")
    # A well-framed body ends in a newline, leaving one empty tail.
    tail = lines.pop()
    if tail or len(lines) != len(shard.keys):
        raise ShardValidationError(
            f"framing: expected {len(shard.keys)} newline-terminated "
            f"line(s), got {len(lines)} and {len(tail)} unterminated "
            f"byte(s) ({len(raw)} byte(s) received)"
        )
    return [validate_record_bytes(line + b"\n", key)
            for line, key in zip(lines, shard.keys)]


class RunnerBackend:
    """Where one shard gets computed.  Subclasses define the *how*.

    Contract for :meth:`run_shard`: return the shard's records in shard
    order, all keys matching ``shard.keys``, every record already
    integrity-validated; call ``heartbeat()`` at least once per point (or
    progress event) so the coordinator's lease stays fresh; raise
    :class:`ShardExecutionError` for any failure the coordinator should
    requeue.
    """

    name: str = "backend"

    def run_shard(self, spec: SweepSpec, shard: Shard,
                  heartbeat: Heartbeat) -> List[Dict[str, Any]]:
        raise NotImplementedError

    def probe(self) -> bool:
        """Cheap liveness check (no side effects)."""
        return True

    def describe(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class LocalBackend(RunnerBackend):
    """Compute shards in this process via the fault-tolerant pool runner.

    Each attempt runs against a fresh scratch store under ``scratch_dir``
    (deleted afterwards), so a failed attempt leaves nothing behind and a
    successful one hands the coordinator exactly the shard's records —
    the real store is touched only by the coordinator's ordered merge.
    """

    def __init__(self, scratch_dir: str, workers: Optional[int] = None,
                 kernel_variant: Optional[str] = None,
                 policy: Optional[RetryPolicy] = None,
                 name: str = "local") -> None:
        self.scratch_dir = scratch_dir
        self.workers = workers
        self.kernel_variant = kernel_variant
        self.policy = policy
        self.name = name
        self._serial = itertools.count()

    def run_shard(self, spec: SweepSpec, shard: Shard,
                  heartbeat: Heartbeat) -> List[Dict[str, Any]]:
        os.makedirs(self.scratch_dir, exist_ok=True)
        scratch_path = os.path.join(
            self.scratch_dir,
            f"shard-{shard.index}-a{next(self._serial)}.jsonl",
        )
        heartbeat()
        scratch = ResultStore(scratch_path, load=False)
        try:
            try:
                summary = run_sweep(
                    list(shard.points), scratch,
                    workers=self.workers,
                    kernel_variant=self.kernel_variant,
                    policy=self.policy,
                    on_point_done=lambda _k, _r, _i: heartbeat(),
                )
            except SweepInterrupted as exc:
                raise ShardExecutionError(
                    f"{self.name}: {shard.label()} interrupted "
                    f"({exc.summary.describe()})"
                ) from exc
            if summary.failures:
                labels = ", ".join(
                    f.label for f in summary.failures.values()
                )
                raise ShardExecutionError(
                    f"{self.name}: {shard.label()} had "
                    f"{len(summary.failures)} permanently failed point(s): "
                    f"{labels}"
                )
            records = []
            for key in shard.keys:
                record = scratch.get(key)
                if record is None:
                    raise ShardExecutionError(
                        f"{self.name}: {shard.label()} completed without "
                        f"producing record {key!r}"
                    )
                records.append(record)
            return records
        finally:
            try:
                os.remove(scratch_path)
            except OSError:
                pass


class PeerBackend(RunnerBackend):
    """Compute shards on a remote sweep service over the job protocol.

    The peer expands the same spec (expansion is deterministic, so both
    sides agree on every index), runs only its ``[start, stop)`` slice
    against its own store, and serves the shard's records back in one
    response of canonical store lines.  The body must split into exactly
    one line per shard key, and every line must pass
    :func:`validate_record_bytes`; any failure refetches the whole body.
    ``fetch_retries`` counts those whole-shard refetches: a shard whose
    body still fails after them fails, and the coordinator recomputes it
    elsewhere.
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0,
                 retries: int = 2, backoff_s: float = 0.1,
                 workers: Optional[int] = None,
                 fetch_retries: int = 3,
                 job_timeout_s: float = 600.0,
                 name: Optional[str] = None) -> None:
        self.client = ServiceClient(
            host, port, timeout=timeout,
            retries=retries, backoff_s=backoff_s, peer_name=name,
        )
        self.name = self.client.peer_name
        self.workers = workers
        self.fetch_retries = max(0, int(fetch_retries))
        self.job_timeout_s = job_timeout_s

    def probe(self) -> bool:
        try:
            return self.client.health().get("status") == "ok"
        except ReproError:
            return False

    def describe(self) -> str:
        return f"peer http://{self.client.host}:{self.client.port}"

    def run_shard(self, spec: SweepSpec, shard: Shard,
                  heartbeat: Heartbeat) -> List[Dict[str, Any]]:
        try:
            return self._run_shard(spec, shard, heartbeat)
        except ServiceError as exc:
            # Transport/protocol failure after the client's own retry
            # budget: surface as a requeueable shard failure.
            raise ShardExecutionError(
                f"{self.name}: {shard.label()} failed: {exc}"
            ) from exc

    def _run_shard(self, spec: SweepSpec, shard: Shard,
                   heartbeat: Heartbeat) -> List[Dict[str, Any]]:
        response = self.client.submit(
            spec.to_dict(),
            shard={"start": shard.start, "stop": shard.stop},
            workers=self.workers,
        )
        job_id = response["job_id"]
        heartbeat()
        # Follow the run; every SSE event renews the lease.  The stream
        # client reconnects and replays through transient drops on its own.
        for _event_id, name, _data in self.client.stream(
                job_id, timeout=self.job_timeout_s):
            heartbeat()
            if name in TERMINAL_EVENTS:
                break
        status = self.client.job(job_id)
        if status["state"] in ("queued", "running"):
            # Stream ended without a terminal event (e.g. a broadcaster
            # reset on resubmission by another client): fall back to a
            # bounded wait.
            status = self.client.wait(job_id, timeout=self.job_timeout_s)
        if status["state"] != "done":
            raise ShardExecutionError(
                f"{self.name}: {shard.label()} job {job_id} ended "
                f"{status['state']!r}: {status.get('error') or 'no detail'}"
            )
        heartbeat()
        return self._fetch_shard(job_id, shard, heartbeat)

    def _fetch_shard(self, job_id: str, shard: Shard,
                     heartbeat: Heartbeat) -> List[Dict[str, Any]]:
        last: Optional[ShardValidationError] = None
        for attempt in range(1, self.fetch_retries + 2):
            raw = self.client.job_results(job_id, attempt=attempt)
            heartbeat()
            try:
                return _split_shard_records(raw, shard)
            except ShardValidationError as exc:
                # Bad bytes in transit (or a lying peer): refetch with an
                # advanced attempt number so a seeded fault plan moves on.
                last = exc
        raise ShardValidationError(
            f"{self.name}: {shard.label()}: {last} "
            f"(after {self.fetch_retries + 1} fetch attempt(s))"
        )


__all__ = [
    "Heartbeat",
    "LocalBackend",
    "PeerBackend",
    "RunnerBackend",
    "Shard",
    "ShardExecutionError",
    "ShardValidationError",
    "validate_record_bytes",
]
