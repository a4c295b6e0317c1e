"""Per-job event fan-out for Server-Sent-Events streaming.

Each job owns one :class:`EventBroadcaster`.  The job-runner thread
publishes events through :meth:`EventBroadcaster.publish`; any number of
SSE handler threads read them through :meth:`EventBroadcaster.subscribe`,
a blocking iterator.  Every event is kept in one in-order history guarded
by a :class:`threading.Condition`, and each subscriber walks that history
with its own cursor, so one slow client can never stall another, or the
publisher, which never waits for a reader.

Each event is assigned a monotonically increasing id, so a late
subscriber (a client that connects after the job finished, or reconnects
mid-run) replays the full story before going live.  The history is bounded
by :data:`MAX_EVENT_HISTORY`; when a run overflows it, the oldest events
are dropped, and a subscriber whose cursor points at a dropped event gets
a ``truncated`` marker event naming how many it lost — bounded memory,
never a silent gap.

A *run* of events ends with exactly one terminal event (``done``,
``failed`` or ``cancelled``), after which :meth:`close` releases all
subscribers once they have read it.  Re-submitting a finished job starts a
fresh run: :meth:`reset` clears the history and releases any subscriber
still attached to the old run (ids keep increasing across runs, so an SSE
client's ``Last-Event-ID`` bookkeeping stays monotonic).
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import deque
from typing import Any, Deque, Dict, Iterator, List, Tuple

#: Events retained per run for late-subscriber replay.  A sweep emits a
#: handful of events per point, so this covers grids of thousands of
#: points; beyond it, replay is truncated (and says so), never wrong.
MAX_EVENT_HISTORY = 65536

#: Terminal event names: one of these ends every run's stream.
TERMINAL_EVENTS = ("done", "failed", "cancelled")

#: An event as subscribers see it: ``(id, name, data)``.
Event = Tuple[int, str, Dict[str, Any]]


def format_sse(event: Event) -> bytes:
    """One event in SSE wire format (``id:`` / ``event:`` / ``data:``).

    Data is a single JSON line, so the multi-line ``data:`` continuation
    rules never come into play and any spec-compliant client parses it.
    """
    event_id, name, data = event
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return f"id: {event_id}\nevent: {name}\ndata: {payload}\n\n".encode("utf-8")


class EventBroadcaster:
    """One job's ordered, replayable event stream; every method may be
    called from any thread."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._history: Deque[Event] = deque()
        self._first_id = 1         # id of the current run's first event
        self._dropped = 0          # events evicted from history this run
        self._next_id = 1
        self._run = 0              # bumped by reset()
        self._closed = False

    def publish(self, name: str, data: Dict[str, Any]) -> None:
        """Append an event and wake every subscriber."""
        with self._cond:
            if self._closed:
                # A straggler publish after the terminal event (e.g. a log
                # line racing the close) would violate the one-terminal-event
                # contract; drop it.
                return
            self._history.append((self._next_id, name, dict(data)))
            self._next_id += 1
            if len(self._history) > MAX_EVENT_HISTORY:
                self._history.popleft()
                self._dropped += 1
            self._cond.notify_all()

    def close(self) -> None:
        """End the current run's stream; subscribers finish after replay."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def reset(self) -> None:
        """Start a fresh run: clear history, reopen the stream, release the
        previous run's subscribers."""
        with self._cond:
            self._run += 1
            self._history.clear()
            self._first_id = self._next_id
            self._dropped = 0
            self._closed = False
            self._cond.notify_all()

    def subscribe(self) -> Iterator[Event]:
        """Yield the run's events: full history replay, then live.

        Blocks while the run has nothing new.  The iterator ends when the
        run is closed and every event has been yielded, or when a
        :meth:`reset` starts another run.  No lock is held while the
        caller handles an event.
        """
        with self._cond:
            run, cursor = self._run, self._first_id
        while True:
            with self._cond:
                while (run == self._run and cursor == self._next_id
                       and not self._closed):
                    self._cond.wait()
                if run != self._run:
                    return
                oldest = self._first_id + self._dropped
                lost = max(0, oldest - cursor)
                # The unread tail, taken from the right: a live subscriber
                # pays for its new events, not for the whole history.
                batch: List[Event] = list(itertools.islice(
                    reversed(self._history), self._next_id - cursor - lost))
                batch.reverse()
                cursor = self._next_id
            if lost:
                yield (0, "truncated", {"dropped_events": lost})
            if not batch:
                return  # closed, and everything was yielded
            yield from batch

    @property
    def closed(self) -> bool:
        return self._closed

    def history(self) -> List[Event]:
        """Snapshot of the retained events (tests and debugging)."""
        with self._cond:
            return list(self._history)


def is_terminal(name: str) -> bool:
    return name in TERMINAL_EVENTS


__all__ = [
    "Event",
    "EventBroadcaster",
    "MAX_EVENT_HISTORY",
    "TERMINAL_EVENTS",
    "format_sse",
    "is_terminal",
]
