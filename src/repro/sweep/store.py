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

A :class:`ResultStore` holds each live record once, as its store line: the
exact bytes on disk, trailing newline included.  :meth:`~ResultStore.load`
parses every line once to validate it and keeps only the bytes; a record
read back (:meth:`~ResultStore.get`, :meth:`~ResultStore.records`) is
parsed on demand into a fresh dict, and :meth:`~ResultStore.line` hands out
the bytes themselves, which is what the service serves.  A parsed record
costs about 7.5 times its line in memory, and the sweep service holds its
whole store for its lifetime.

Appends go through one ``O_APPEND`` file descriptor, opened at the first
append and written with one ``os.write`` per line, so no userspace buffer
holds a record (nor can a forked worker inherit one).  Each append first
checks that the path still names the descriptor's file and reopens it when
another process has replaced the file (:meth:`~ResultStore.compact`).
:meth:`~ResultStore.commit` fsyncs it and :meth:`~ResultStore.close`
closes it; the next append reopens it.

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


def _line_of(record: Dict[str, Any]) -> bytes:
    """``record``'s canonical store line, newline included."""
    return (canonical_json(record) + "\n").encode("utf-8")


class ResultStore:
    """A keyed, append-only store of sweep result records.

    Records are plain dicts with at least a ``"key"`` entry.  Appending an
    existing key replaces the held line (last-wins, matching what a reload
    would see) and appends a new line; :meth:`compact` rewrites the file
    with one line per live key.
    """

    def __init__(self, path: str, load: bool = True) -> None:
        self.path = path
        # key -> the record's line as it is in the file (newline included),
        # in file order: the only form a record is held in.  It is also
        # merge()'s conflict reference, so a merge serializes each
        # *supplied* record once and never re-serializes a held one.
        self._lines: Dict[str, bytes] = {}
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
        # load() plus bytes it appended itself).  line() compares it
        # against the on-disk size to detect *other* writers cheaply — one
        # stat per miss instead of one full re-read per miss.
        self._seen_size = 0
        # The append descriptor, opened by the first append after a load,
        # compact or close.
        self._fd: Optional[int] = None
        # (st_dev, st_ino) of the file _fd is open on.
        self._fd_id: Tuple[int, int] = (0, 0)
        # True while records appended by this object await commit().
        self._dirty = False
        # Serializes load/append/compact/line across threads: the service
        # appends from its job-runner thread while request threads serve
        # reads from the same object.  Cross-*process* readers are
        # protected by the append discipline instead (a record line is
        # written in one call, and the trailing-newline rule makes a torn
        # tail invisible to load()).
        self._lock = threading.RLock()
        if load:
            self.load()

    def __del__(self, _close=os.close) -> None:
        # A store dropped without close() must not leak its descriptor
        # (``_close`` is bound here: module globals may be gone at exit).
        fd = getattr(self, "_fd", None)
        if fd is not None:
            _close(fd)

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
        # Commit and drop the append descriptor: the next append reopens
        # the path, which may now name another file (a compaction by
        # another process replaces it).
        self.close()
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
            self._lines[record["key"]] = line + b"\n"
            self.physical_records += 1
        return self

    def append(self, record: Dict[str, Any]) -> None:
        """Write ``record`` (which must carry a ``"key"``) as one line.

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
        self._append_line(key, _line_of(record))

    def _append_line(self, key: str, line: bytes) -> None:
        """Append a serialized record (``line`` = its canonical JSON and
        newline) — merge() passes the line it already computed for the
        conflict scan, so a merged record is serialized exactly once."""
        with self._lock:
            if self._repair_offset is not None:
                self.close()
                os.truncate(self.path, self._repair_offset)
                self._seen_size = self._repair_offset
                self._repair_offset = None
            if self._fd is not None and not self._fd_names_path():
                # Another process replaced the file (compact): append to
                # the file the path names now, not to the unlinked one.
                self.close()
            if self._fd is None:
                parent = os.path.dirname(os.path.abspath(self.path))
                os.makedirs(parent, exist_ok=True)
                self._fd = os.open(
                    self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
                st = os.fstat(self._fd)
                self._fd_id = (st.st_dev, st.st_ino)
            view = memoryview(line)
            while view:  # one write unless the kernel cuts it short
                view = view[os.write(self._fd, view):]
            self._dirty = True
            self._lines[key] = line
            self.physical_records += 1
            self._seen_size += len(line)

    def _fd_names_path(self) -> bool:
        """Whether the path still names the file the descriptor is open on
        (one ``stat`` per append)."""
        try:
            st = os.stat(self.path)
        except FileNotFoundError:
            return False
        return (st.st_dev, st.st_ino) == self._fd_id

    def commit(self) -> None:
        """fsync every record this object appended since the last commit;
        a no-op when there is none."""
        with self._lock:
            if self._dirty:
                os.fsync(self._fd)
                self._dirty = False

    def close(self) -> None:
        """:meth:`commit`, then close the append descriptor.  The store
        stays usable: the next append opens it again."""
        with self._lock:
            self.commit()
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

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
        batch: List[Tuple[str, bytes]] = []
        with self._lock:
            staged: Dict[str, bytes] = {}
            for record in records:
                key = record.get("key")
                if not isinstance(key, str) or not key:
                    raise StoreError(
                        f"result store {self.path!r}: merge record must have "
                        f"a non-empty string 'key', got {key!r}"
                    )
                line = _line_of(record)
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
                batch.append((key, line))
            for key, line in batch:
                self._append_line(key, line)
            self.commit()
        return len(batch)

    def compact(self) -> int:
        """Rewrite the file with exactly one canonical line per live key.

        The live view is *last-wins*: when a key was appended more than
        once (``force=True`` re-runs), the latest record is the one a
        reload would see, and it is the one compaction keeps.  Returns the
        number of shadowed duplicate lines dropped from the file.
        """
        with self._lock:
            dropped = self.physical_records - len(self._lines)
            lines = {key: _line_of(json.loads(line))
                     for key, line in self._lines.items()}
            tmp = self.path + ".tmp"
            with open(tmp, "wb") as fh:
                fh.writelines(lines.values())
                fh.flush()
                os.fsync(fh.fileno())
            # The descriptor names the file being replaced; the next append
            # opens the new one.
            self.close()
            os.replace(tmp, self.path)
            self._lines = lines
            self._repair_offset = None
            self.physical_records = len(lines)
            self._seen_size = sum(map(len, lines.values()))
            return dropped

    # -- queries ----------------------------------------------------------
    def line(self, key: str) -> Optional[bytes]:
        """``key``'s store line, exactly as in the file (newline included),
        or ``None``; sees records appended by *other* writers.

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
            hit = self._lines.get(key)
            if hit is not None:
                return hit
            try:
                size = os.path.getsize(self.path)
            except OSError:
                return None
            if size != self._seen_size:
                self._load_locked()
            return self._lines.get(key)

    def read_record(
        self, key: str, default: Optional[Dict[str, Any]] = None
    ) -> Optional[Dict[str, Any]]:
        """:meth:`line`, parsed: a point lookup that sees records appended
        by other writers."""
        line = self.line(key)
        return default if line is None else json.loads(line)

    def __len__(self) -> int:
        return len(self._lines)

    def __contains__(self, key: str) -> bool:
        return key in self._lines

    def get(self, key: str, default: Optional[Dict[str, Any]] = None):
        """``key``'s record, parsed into a fresh dict, or ``default``."""
        line = self._lines.get(key)
        return default if line is None else json.loads(line)

    def keys(self) -> List[str]:
        return list(self._lines)

    def records(self) -> Iterator[Dict[str, Any]]:
        """Records in file (= insertion) order, each parsed into a fresh
        dict as the iterator reaches it."""
        with self._lock:
            lines = list(self._lines.values())
        return map(json.loads, lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({self.path!r}, {len(self)} records)"


__all__ = ["ResultStore"]
