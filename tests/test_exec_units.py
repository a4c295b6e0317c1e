"""Units for repro.exec attempts/lease/checkpoint — the shared execution
core the sweep runner, fabric coordinator, and service client draw on."""

import os

import pytest

from repro.common.errors import ConfigurationError
from repro.exec.attempts import AttemptTracker, RetryPolicy, backoff_delay
from repro.exec.checkpoint import (
    clear_checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from repro.exec.lease import LeaseTable


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# -- attempts ---------------------------------------------------------------

class TestBackoffDelay:
    def test_doubles_per_failed_attempt(self):
        assert backoff_delay(0.1, 1) == pytest.approx(0.1)
        assert backoff_delay(0.1, 2) == pytest.approx(0.2)
        assert backoff_delay(0.1, 4) == pytest.approx(0.8)

    def test_cap_clamps_the_curve(self):
        assert backoff_delay(0.1, 10, cap_s=2.0) == pytest.approx(2.0)
        assert backoff_delay(0.1, 1, cap_s=2.0) == pytest.approx(0.1)

    def test_rejects_zero_failed_attempts(self):
        with pytest.raises(ValueError, match=">= 1"):
            backoff_delay(0.1, 0)

    def test_is_the_curve_every_layer_pins(self):
        # The client and the runner policy must produce identical delays —
        # that is the whole point of centralizing the formula.
        policy = RetryPolicy(backoff_s=0.25)
        for failed in (1, 2, 3):
            assert policy.backoff_for(failed) == \
                backoff_delay(0.25, failed)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError, match="backoff_s"):
            RetryPolicy(backoff_s=-1)
        with pytest.raises(ConfigurationError, match="timeout_s"):
            RetryPolicy(timeout_s=0)


class TestAttemptTracker:
    def test_charge_and_exhaustion(self):
        tracker = AttemptTracker(max_attempts=2)
        assert tracker.remaining(7) == 2
        assert tracker.charge(7) == 1
        assert not tracker.exhausted(7)
        assert tracker.charge(7) == 2
        assert tracker.exhausted(7)
        assert tracker.remaining(7) == 0
        assert tracker.attempts(7) == 2
        assert tracker.attempts(8) == 0

    def test_snapshot_restore_round_trip(self):
        tracker = AttemptTracker(max_attempts=3)
        tracker.charge(0)
        tracker.charge(0)
        tracker.charge(5)
        snap = tracker.snapshot()
        assert snap == {"0": 2, "5": 1}
        fresh = AttemptTracker(max_attempts=3)
        fresh.restore(snap, key=int)
        assert fresh.attempts(0) == 2
        assert fresh.attempts(5) == 1
        assert not fresh.exhausted(0)
        fresh.charge(0)
        assert fresh.exhausted(0)

    def test_budget_validation(self):
        with pytest.raises(ConfigurationError, match="max_attempts"):
            AttemptTracker(0)


# -- leases -----------------------------------------------------------------

class TestLeaseTable:
    def test_issue_release_and_held_by(self):
        clock = FakeClock()
        table = LeaseTable(10.0, clock=clock)
        a = table.issue("shard-0", "fast")
        b = table.issue("shard-1", "fast")
        c = table.issue("shard-2", "slow")
        assert len(table) == 3
        assert table.held_by("fast") == 2
        assert table.held_by("slow") == 1
        assert table.held_by("idle") == 0
        assert table.release(b.ticket) is b
        assert table.held_by("fast") == 1
        assert table.release(b.ticket) is None   # already settled
        assert {lease.ticket for lease in table.live()} == \
            {a.ticket, c.ticket}

    def test_heartbeats_keep_a_lease_alive(self):
        clock = FakeClock()
        table = LeaseTable(5.0, clock=clock)
        lease = table.issue("shard-0", "worker")
        clock.advance(4.0)
        lease.beat()
        clock.advance(4.0)
        assert table.expire_stale() == []
        clock.advance(5.1)
        stale = table.expire_stale()
        assert stale == [lease]
        assert lease.expired
        assert table.n_expired == 1
        assert len(table) == 0

    def test_lookup_survives_expiry(self):
        # Completions can arrive after expiry; the orchestrator still
        # needs the lease's identity to judge the late result.
        clock = FakeClock()
        table = LeaseTable(1.0, clock=clock)
        lease = table.issue("shard-0", "straggler")
        clock.advance(2.0)
        table.expire_stale()
        found = table.lookup(lease.ticket)
        assert found is lease
        assert found.expired
        assert found.item == "shard-0"

    def test_age_tracks_the_clock(self):
        clock = FakeClock()
        table = LeaseTable(60.0, clock=clock)
        lease = table.issue("x", "w")
        clock.advance(3.0)
        assert lease.age() == pytest.approx(3.0)

    def test_timeout_validation(self):
        with pytest.raises(ValueError, match="positive"):
            LeaseTable(0.0)


# -- checkpoints ------------------------------------------------------------

class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        payload = {"version": 1, "merged_through": 3,
                   "attempts": {"0": 2}}
        write_checkpoint(path, payload)
        assert read_checkpoint(path) == payload
        # Byte-determinism: identical state, identical file bytes.
        first = open(path, "rb").read()
        write_checkpoint(path, payload)
        assert open(path, "rb").read() == first

    def test_no_tmp_file_left_behind(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        write_checkpoint(path, {"a": 1})
        assert os.listdir(str(tmp_path)) == ["run.ckpt"]

    def test_missing_file_reads_none(self, tmp_path):
        assert read_checkpoint(str(tmp_path / "absent.ckpt")) is None

    def test_torn_or_junk_reads_none(self, tmp_path):
        path = str(tmp_path / "torn.ckpt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"version": 1, "merged')
        assert read_checkpoint(path) is None
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("[1, 2, 3]\n")      # JSON, but not an object
        assert read_checkpoint(path) is None

    def test_clear_is_idempotent(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        write_checkpoint(path, {"a": 1})
        clear_checkpoint(path)
        assert read_checkpoint(path) is None
        clear_checkpoint(path)           # missing is fine

    def test_creates_parent_directories(self, tmp_path):
        path = str(tmp_path / "deep" / "nest" / "run.ckpt")
        write_checkpoint(path, {"a": 1})
        assert read_checkpoint(path) == {"a": 1}
