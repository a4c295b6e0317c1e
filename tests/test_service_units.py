"""Unit tests for the service's building blocks: schemas and events.

No HTTP here — these exercise the request-schema validator and the SSE
event broadcaster directly, with subscribers on plain threads.
"""

import json
import sys
import threading
import time

import pytest

from repro.service.events import (
    EventBroadcaster,
    MAX_EVENT_HISTORY,
    format_sse,
    is_terminal,
)
from repro.service.schemas import (
    CANCEL_SCHEMA,
    SUBMIT_SCHEMA,
    SchemaError,
    validate,
)


class TestValidate:
    def test_accepts_matching_object(self):
        validate({"spec": {}, "workers": 4, "energy": True}, SUBMIT_SCHEMA)
        validate({"spec": {}, "retries": 0, "timeout_s": 1.5,
                  "backoff_s": 0}, SUBMIT_SCHEMA)
        validate({}, CANCEL_SCHEMA)

    def test_missing_required_key(self):
        with pytest.raises(SchemaError) as err:
            validate({"workers": 1}, SUBMIT_SCHEMA)
        assert "missing required key 'spec'" in str(err.value)
        assert err.value.path == "body"

    def test_unknown_key_names_path_and_valid_keys(self):
        with pytest.raises(SchemaError) as err:
            validate({"spec": {}, "wrokers": 1}, SUBMIT_SCHEMA)
        assert err.value.path == "body.wrokers"
        assert "workers" in str(err.value)

    def test_type_mismatch_names_both_types(self):
        with pytest.raises(SchemaError) as err:
            validate({"spec": {}, "workers": "four"}, SUBMIT_SCHEMA)
        assert "expected integer, got string" in str(err.value)

    def test_bool_is_not_an_integer(self):
        # bool subclasses int in python; the schema must still reject it.
        with pytest.raises(SchemaError) as err:
            validate({"spec": {}, "workers": True}, SUBMIT_SCHEMA)
        assert "expected integer" in str(err.value)
        with pytest.raises(SchemaError):
            validate({"spec": {}, "timeout_s": False}, SUBMIT_SCHEMA)

    def test_minimum_maximum(self):
        with pytest.raises(SchemaError) as err:
            validate({"spec": {}, "workers": 0}, SUBMIT_SCHEMA)
        assert "must be >= 1" in str(err.value)
        with pytest.raises(SchemaError) as err:
            validate({"spec": {}, "workers": 65}, SUBMIT_SCHEMA)
        assert "must be <= 64" in str(err.value)
        with pytest.raises(SchemaError):
            validate({"spec": {}, "retries": 17}, SUBMIT_SCHEMA)

    def test_enum(self):
        validate({"spec": {}, "kernel_variant": "generic"}, SUBMIT_SCHEMA)
        with pytest.raises(SchemaError) as err:
            validate({"spec": {}, "kernel_variant": "turbo"}, SUBMIT_SCHEMA)
        assert "'turbo'" in str(err.value)

    def test_items_recursion_names_index(self):
        schema = {"type": "array", "items": {"type": "integer"}}
        validate([1, 2, 3], schema)
        with pytest.raises(SchemaError) as err:
            validate([1, "two", 3], schema, path="body.seeds")
        assert err.value.path == "body.seeds[1]"

    def test_nested_path_in_message(self):
        schema = {
            "type": "object",
            "properties": {"inner": {"type": "object",
                                     "properties": {"n": {"type": "integer"}}}},
        }
        with pytest.raises(SchemaError) as err:
            validate({"inner": {"n": "x"}}, schema)
        assert err.value.path == "body.inner.n"

    def test_cancel_schema_rejects_payloads(self):
        with pytest.raises(SchemaError):
            validate({"force": True}, CANCEL_SCHEMA)

    @pytest.mark.parametrize("key", ["timeout_s", "backoff_s"])
    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), float("-inf")])
    def test_number_must_be_finite(self, key, value):
        # Regression: NaN passed every bound (each comparison is false)
        # and Infinity met the minimum with no maximum to stop it.
        with pytest.raises(SchemaError) as err:
            validate({"spec": {}, key: value}, SUBMIT_SCHEMA)
        assert err.value.path == f"body.{key}"
        assert "must be a finite number" in str(err.value)

    @pytest.mark.parametrize("key, too_big", [
        ("timeout_s", 10 ** 400), ("timeout_s", 86_400.5),
        ("backoff_s", 10 ** 400), ("backoff_s", 3_601),
    ])
    def test_timeout_and_backoff_have_a_finite_maximum(self, key, too_big):
        with pytest.raises(SchemaError) as err:
            validate({"spec": {}, key: too_big}, SUBMIT_SCHEMA)
        assert "must be <=" in str(err.value)
        validate({"spec": {}, key: SUBMIT_SCHEMA["properties"][key][
            "maximum"]}, SUBMIT_SCHEMA)


class TestFormatSSE:
    def test_wire_format(self):
        wire = format_sse((7, "point", {"b": 2, "a": 1}))
        assert wire == b'id: 7\nevent: point\ndata: {"a":1,"b":2}\n\n'

    def test_data_is_single_line(self):
        wire = format_sse((1, "x", {"text": "line1\nline2"}))
        # the newline lives escaped inside the JSON, never on the wire
        assert wire.count(b"\n") == 4
        body = wire.split(b"data: ")[1].rstrip(b"\n")
        assert json.loads(body) == {"text": "line1\nline2"}

    def test_is_terminal(self):
        assert is_terminal("done") and is_terminal("failed")
        assert is_terminal("cancelled")
        assert not is_terminal("point") and not is_terminal("table")


class Subscriber(threading.Thread):
    """Collects one subscription's events on its own thread."""

    def __init__(self, broadcaster):
        super().__init__(daemon=True)
        self.stream = broadcaster.subscribe()
        self.events = []

    def run(self):
        for event in self.stream:
            self.events.append(event)

    def result(self, timeout=5):
        self.join(timeout)
        assert not self.is_alive(), "subscriber still blocked"
        return self.events


def collect(broadcaster):
    """Every event of a closed (or reset) run, on this thread."""
    return list(broadcaster.subscribe())


def wait_until_blocked(subscriber, n_events=0, timeout=5):
    """Let ``subscriber`` read ``n_events`` and block for the next one."""
    deadline = time.monotonic() + timeout
    while len(subscriber.events) < n_events:
        assert time.monotonic() < deadline
        time.sleep(0.001)
    time.sleep(0.05)


class TestEventBroadcaster:
    def test_replay_then_live_with_monotonic_ids(self):
        broadcaster = EventBroadcaster()
        broadcaster.publish("queued", {"n": 1})
        broadcaster.publish("running", {"n": 2})
        late = Subscriber(broadcaster)
        late.start()
        wait_until_blocked(late, 2)
        broadcaster.publish("point", {"n": 3})
        broadcaster.publish("done", {"n": 4})
        broadcaster.close()
        assert [(eid, name) for eid, name, _d in late.result()] == [
            (1, "queued"), (2, "running"), (3, "point"), (4, "done"),
        ]

    def test_subscriber_after_close_gets_full_history(self):
        broadcaster = EventBroadcaster()
        broadcaster.publish("queued", {})
        broadcaster.publish("done", {})
        broadcaster.close()
        assert broadcaster.closed
        events = collect(broadcaster)
        assert [name for _eid, name, _d in events] == ["queued", "done"]

    def test_publish_after_close_is_dropped(self):
        broadcaster = EventBroadcaster()
        broadcaster.publish("done", {})
        broadcaster.close()
        broadcaster.publish("straggler", {})
        history = broadcaster.history()
        assert [name for _eid, name, _d in history] == ["done"]

    def test_reset_clears_history_but_ids_keep_increasing(self):
        broadcaster = EventBroadcaster()
        broadcaster.publish("queued", {})
        broadcaster.publish("done", {})
        broadcaster.close()
        broadcaster.reset()
        broadcaster.publish("queued", {"run": 2})
        history = broadcaster.history()
        assert [(eid, name) for eid, name, _d in history] == [(3, "queued")]

    def test_reset_releases_stuck_subscribers(self):
        broadcaster = EventBroadcaster()
        broadcaster.publish("queued", {})
        subscriber = Subscriber(broadcaster)
        subscriber.start()
        wait_until_blocked(subscriber, 1)
        broadcaster.reset()  # no close() first: reset must release
        events = subscriber.result()
        assert [name for _eid, name, _d in events] == ["queued"]

    def test_slow_subscriber_does_not_block_publisher_or_peers(self):
        broadcaster = EventBroadcaster()
        broadcaster.publish("queued", {})
        slow = broadcaster.subscribe()
        assert next(slow)[1] == "queued"
        fast = Subscriber(broadcaster)
        fast.start()
        for n in range(50):
            broadcaster.publish("point", {"n": n})
        broadcaster.publish("done", {})
        broadcaster.close()
        events = fast.result()
        # the slow subscriber read one event and then nothing — each
        # subscriber has its own cursor, so nobody waited on it
        assert len(events) == 52
        assert events[-1][1] == "done"
        assert len(list(slow)) == 51

    def test_history_overflow_yields_truncated_marker(self):
        broadcaster = EventBroadcaster()
        extra = 5
        for n in range(MAX_EVENT_HISTORY + extra):
            broadcaster.publish("point", {"n": n})
        broadcaster.close()
        events = collect(broadcaster)
        assert events[0][1] == "truncated"
        assert events[0][2] == {"dropped_events": extra}
        assert len(events) == MAX_EVENT_HISTORY + 1  # marker + retained

    def test_subscriber_overtaken_by_the_history_bound_is_told(self):
        broadcaster = EventBroadcaster()
        broadcaster.publish("queued", {})
        behind = broadcaster.subscribe()
        assert next(behind)[1] == "queued"
        extra = 3
        for n in range(MAX_EVENT_HISTORY + extra):
            broadcaster.publish("point", {"n": n})
        broadcaster.close()
        events = list(behind)
        # "queued" plus the first `extra` points fell out of the history;
        # "queued" was read, so the marker names the points alone
        assert events[0] == (0, "truncated", {"dropped_events": extra})
        assert events[1][2] == {"n": extra}
        assert len(events) == MAX_EVENT_HISTORY + 1

    def test_stress_concurrent_publishers_and_subscribers(self):
        # More threads than cores and a tiny switch interval, so that a
        # publish or a cursor step that is not atomic would lose, repeat or
        # reorder an event.
        n_publishers, n_events, n_subscribers = 8, 5000, 4
        broadcaster = EventBroadcaster()
        subscribers = [Subscriber(broadcaster) for _ in range(n_subscribers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for subscriber in subscribers:
                subscriber.start()

            def publish(source):
                for n in range(n_events):
                    broadcaster.publish("point", {"source": source, "n": n})

            publishers = [threading.Thread(target=publish, args=(source,))
                          for source in range(n_publishers)]
            for thread in publishers:
                thread.start()
            for thread in publishers:
                thread.join(30)
                assert not thread.is_alive()
            broadcaster.publish("done", {})
            broadcaster.close()
            streams = [subscriber.result(30) for subscriber in subscribers]
        finally:
            sys.setswitchinterval(interval)
        total = n_publishers * n_events + 1
        for events in streams:
            assert [eid for eid, _name, _d in events] == \
                list(range(1, total + 1))
            for source in range(n_publishers):
                assert [d["n"] for _eid, _name, d in events
                        if d.get("source") == source] == list(range(n_events))
        assert all(events == streams[0] for events in streams)

    def test_cross_thread_publish(self):
        broadcaster = EventBroadcaster()
        subscriber = Subscriber(broadcaster)
        subscriber.start()

        def worker():
            for n in range(10):
                broadcaster.publish("point", {"n": n})
            broadcaster.publish("done", {})
            broadcaster.close()

        thread = threading.Thread(target=worker)
        thread.start()
        events = subscriber.result(10)
        thread.join()
        assert [d.get("n") for _eid, name, d in events if name == "point"] \
            == list(range(10))
        assert events[-1][1] == "done"
