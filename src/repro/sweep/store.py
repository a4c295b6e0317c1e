"""Append-only JSON-lines result store.

One line per completed :class:`~repro.sweep.grid.ExperimentPoint`, keyed by
the point's content hash.  The format is deliberately dumb — canonical JSON
(sorted keys, no whitespace), one record per line — so that

* a sweep interrupted mid-write loses at most its unfinished last line,
  which :meth:`ResultStore.load` detects, drops from the loaded view, and
  physically truncates just before the next append (an interior corrupt
  line, by contrast, raises :class:`~repro.common.errors.StoreError`
  because silently dropping completed results would be data loss);
* re-running the same spec appends records in the same order with the same
  bytes, so two fresh runs of one spec produce byte-identical stores — the
  property the determinism tests pin.

Wall-clock timings never enter the store (they would break byte-identity);
the runner reports them in its :class:`~repro.sweep.runner.SweepSummary`.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.common.errors import StoreConflictError, StoreError
from repro.common.jsonutil import canonical_json


class ResultStore:
    """A keyed, append-only store of sweep result records.

    Records are plain dicts with at least a ``"key"`` entry.  Appending an
    existing key replaces the in-memory record (last-wins, matching what a
    reload would see) and appends a new line; :meth:`compact` rewrites the
    file with one line per live key.
    """

    def __init__(self, path: str, load: bool = True) -> None:
        self.path = path
        self._records: Dict[str, Dict[str, Any]] = {}
        # key -> the record's serialized line (no newline), maintained by
        # load/append/compact.  This is merge()'s conflict reference: an
        # N-shard merge compares candidate bytes against this cache instead
        # of re-serializing every overlapping existing record per shard, so
        # a full fabric merge costs one serialization per *supplied* record
        # — O(total records), not O(shards x store size).
        self._lines: Dict[str, str] = {}
        #: Bytes of truncated tail detected by the last load.
        self.recovered_bytes = 0
        #: Physical record lines in the file (appends included), which can
        #: exceed ``len(self)`` when ``force=True`` re-runs appended
        #: duplicate records for a key; :meth:`compact` reconciles the two.
        self.physical_records = 0
        # Byte offset the file must be cut back to before the next append.
        # Repair is deferred to append() so that purely reading a store
        # (report/list) never mutates the file — a concurrent writer may be
        # mid-append, and what looks like a truncated tail to a reader is
        # that writer's record in flight.
        self._repair_offset: Optional[int] = None
        # File size this object has accounted for (bytes read by the last
        # load() plus bytes it appended itself).  read_record() compares it
        # against the on-disk size to detect *other* writers cheaply — one
        # stat per miss instead of one full re-read per miss.
        self._seen_size = 0
        # True while records appended by this object await commit().
        self._dirty = False
        # Serializes load/append/compact/read_record across threads: the
        # service appends from its job-runner thread while the event loop
        # serves reads from the same object.  Cross-*process* readers are
        # protected by the append discipline instead (a record line is
        # written and flushed in one call, and the trailing-newline rule
        # makes a torn tail invisible to load()).
        self._lock = threading.RLock()
        if load:
            self.load()

    # -- persistence ------------------------------------------------------
    def load(self) -> "ResultStore":
        """(Re)read the backing file, detecting a truncated final line.

        A truncated tail (interrupted append) is dropped from the in-memory
        view and scheduled for physical truncation on the next
        :meth:`append`; the file itself is not modified by loading.
        """
        with self._lock:
            return self._load_locked()

    def _load_locked(self) -> "ResultStore":
        self._records = {}
        self._lines = {}
        self.recovered_bytes = 0
        self.physical_records = 0
        self._repair_offset = None
        self._seen_size = 0
        if not os.path.exists(self.path):
            return self
        with open(self.path, "rb") as fh:
            raw = fh.read()
        total = len(raw)
        self._seen_size = total
        body = raw
        if body and not body.endswith(b"\n"):
            # A crash after writing a record's bytes but before its newline
            # leaves a final line that may *parse* as a complete record —
            # but it is still an unfinished append: taking it live would
            # make the next append concatenate onto the unterminated line
            # and corrupt the file.  Treat everything after the last
            # newline as a recoverable tail, whatever it contains.
            cut = body.rfind(b"\n") + 1
            self.recovered_bytes = total - cut
            self._repair_offset = cut
            body = body[:cut]
        offset = 0
        entries: List[Tuple[int, bytes]] = []  # (start offset, line bytes)
        for line in body.split(b"\n"):
            entries.append((offset, line))
            offset += len(line) + 1
        for idx, (start, line) in enumerate(entries):
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
                if not isinstance(record, dict) or "key" not in record:
                    raise ValueError("record is not an object with a 'key'")
            except (ValueError, UnicodeDecodeError) as exc:
                is_last = all(not rest.strip() for _s, rest in entries[idx + 1:])
                if is_last:
                    self.recovered_bytes = total - start
                    self._repair_offset = start
                    return self
                raise StoreError(
                    f"result store {self.path!r}: corrupt interior record at "
                    f"byte {start} ({exc}); refusing to load — the file needs "
                    "manual repair (a truncated *final* line would have been "
                    "recovered automatically)"
                ) from None
            self._records[record["key"]] = record
            self._lines[record["key"]] = line.decode("utf-8")
            self.physical_records += 1
        return self

    def append(self, record: Dict[str, Any]) -> None:
        """Write ``record`` (which must carry a ``"key"``) as one line and
        flush it.

        The line is in the file when this returns: readers and a resumed
        run see it at once, and it survives a SIGKILL of this process.  It
        reaches stable storage (survives a power loss) at the next
        :meth:`commit`; the sweep runner commits on a cadence and always
        before :func:`~repro.sweep.runner.run_sweep` returns or raises.
        """
        key = record.get("key")
        if not isinstance(key, str) or not key:
            raise StoreError(
                f"result store {self.path!r}: record must have a non-empty "
                f"string 'key', got {key!r}"
            )
        self._append_line(key, record, canonical_json(record))

    def _append_line(self, key: str, record: Dict[str, Any],
                     line: str) -> None:
        """Append a pre-serialized record (``line`` = its canonical JSON,
        no newline) — merge() passes the line it already computed for the
        conflict scan, so a merged record is serialized exactly once."""
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        with self._lock:
            if self._repair_offset is not None:
                with open(self.path, "r+b") as fh:
                    fh.truncate(self._repair_offset)
                self._seen_size = self._repair_offset
                self._repair_offset = None
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
            self._dirty = True
            self._records[key] = record
            self._lines[key] = line
            self.physical_records += 1
            self._seen_size += len(line.encode("utf-8")) + 1

    def commit(self) -> None:
        """fsync every record this object appended since the last commit;
        a no-op when there is none."""
        with self._lock:
            if not self._dirty:
                return
            with open(self.path, "ab") as fh:
                os.fsync(fh.fileno())
            self._dirty = False

    def merge(self, records: Iterable[Dict[str, Any]]) -> int:
        """Fold shard records in; returns how many were newly appended.

        The merge discipline the distributed fabric rests on:

        * a record whose key is absent is appended (in iteration order, so
          callers control the file layout — the fabric merger feeds records
          strictly in expansion order);
        * a record whose key is present with **byte-identical** canonical
          JSON is skipped silently — at-least-once delivery (a requeued
          shard computed twice, a late result from an expired lease) is
          expected and harmless;
        * a record whose key is present with **different** bytes raises
          :class:`~repro.common.errors.StoreConflictError` before anything
          from this call is appended — a torn, corrupted, or dishonest
          shard must never contaminate the store.

        The conflict scan runs over *all* supplied records first (including
        duplicates within the batch itself), so a failed merge leaves the
        store exactly as it was.  The appended records are written and
        visible at once, and the whole batch is fsynced by one
        :meth:`commit` before this returns.
        """
        batch: List[Tuple[str, Dict[str, Any], str]] = []
        with self._lock:
            staged: Dict[str, str] = {}
            for record in records:
                key = record.get("key")
                if not isinstance(key, str) or not key:
                    raise StoreError(
                        f"result store {self.path!r}: merge record must have "
                        f"a non-empty string 'key', got {key!r}"
                    )
                line = canonical_json(record)
                against = self._lines.get(key)
                if against is None:
                    against = staged.get(key)
                if against is not None:
                    if against != line:
                        raise StoreConflictError(
                            f"result store {self.path!r}: conflicting record "
                            f"for key {key!r} — existing and merged bytes "
                            "differ; refusing to merge (corrupt or dishonest "
                            "producer)"
                        )
                    continue
                staged[key] = line
                batch.append((key, record, line))
            for key, record, line in batch:
                self._append_line(key, record, line)
            self.commit()
        return len(batch)

    def compact(self) -> int:
        """Rewrite the file with exactly one line per live key.

        The live view is *last-wins*: when a key was appended more than
        once (``force=True`` re-runs), the latest record is the one a
        reload would see, and it is the one compaction keeps.  Returns the
        number of shadowed duplicate lines dropped from the file.
        """
        with self._lock:
            dropped = self.physical_records - len(self._records)
            tmp = self.path + ".tmp"
            written = 0
            with open(tmp, "w", encoding="utf-8") as fh:
                for key, record in self._records.items():
                    line = canonical_json(record)
                    self._lines[key] = line
                    fh.write(line + "\n")
                    written += len(line.encode("utf-8")) + 1
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
            self._repair_offset = None
            self._dirty = False
            self.physical_records = len(self._records)
            self._seen_size = written
            return dropped

    # -- queries ----------------------------------------------------------
    def read_record(
        self, key: str, default: Optional[Dict[str, Any]] = None
    ) -> Optional[Dict[str, Any]]:
        """Point lookup that sees records appended by *other* writers.

        :meth:`get` consults only this object's in-memory view; a reader
        following a store that another process is appending to (the
        service's read-side endpoints, a ``report`` run against a live
        sweep) needs the on-disk truth.  On a miss the file size is
        compared against the bytes this object has accounted for, and a
        mismatch triggers a full :meth:`load` — so a hit costs a dict
        probe, a stale miss costs one ``stat`` plus one re-read.

        Safe against a concurrent appender: the trailing-newline recovery
        rule means a torn tail (the writer's record in flight) is simply
        invisible — it becomes visible on a later call, once its newline
        lands — and reading never mutates the file (tail repair stays
        deferred to :meth:`append`, which only the owning writer calls).
        """
        with self._lock:
            hit = self._records.get(key)
            if hit is not None:
                return hit
            try:
                size = os.path.getsize(self.path)
            except OSError:
                return default
            if size != self._seen_size:
                self._load_locked()
            return self._records.get(key, default)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def get(self, key: str, default: Optional[Dict[str, Any]] = None):
        return self._records.get(key, default)

    def keys(self) -> List[str]:
        return list(self._records)

    def records(self) -> Iterator[Dict[str, Any]]:
        """Records in file (= insertion) order."""
        return iter(self._records.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({self.path!r}, {len(self)} records)"


__all__ = ["ResultStore"]
