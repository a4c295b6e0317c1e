"""Store commits: records are written at once and fsynced on a cadence.

``ResultStore.append`` writes and flushes a record; ``commit`` fsyncs what
was appended since the last commit.  The sweep runner commits when
``_COMMIT_INTERVAL_S`` has passed since its last commit and always before
``run_sweep`` returns or raises.  These tests count ``os.fsync`` calls and
check which bytes each one covered.
"""

import os

import pytest

import repro.sweep.runner as runner_mod
from repro.exec import RetryPolicy
from repro.faults import ENV_VARS, FAULT_EXCEPTION, FaultPlan
from repro.sweep.grid import smoke_spec
from repro.sweep.runner import SweepInterrupted, run_sweep
from repro.sweep.store import ResultStore


@pytest.fixture
def fsyncs(monkeypatch):
    """Every ``os.fsync`` call, as the size of the file it synced."""
    sizes = []
    real_fsync = os.fsync

    def counting(fd):
        sizes.append(os.fstat(fd).st_size)
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return sizes


def smoke_points():
    return smoke_spec(n_instructions=300).expand()


class TestStoreCommit:
    def test_append_does_not_fsync_and_commit_syncs_once(self, tmp_path,
                                                         fsyncs):
        path = str(tmp_path / "store.jsonl")
        store = ResultStore(path)
        for key in ("a", "b", "c"):
            store.append({"key": key})
        assert fsyncs == []
        # Written and flushed: a fresh reader sees every record.
        assert ResultStore(path).keys() == ["a", "b", "c"]
        store.commit()
        assert fsyncs == [os.path.getsize(path)]
        store.commit()  # nothing new: no fsync
        assert len(fsyncs) == 1

    def test_merge_of_r_records_fsyncs_once(self, tmp_path, fsyncs):
        path = str(tmp_path / "store.jsonl")
        store = ResultStore(path)
        assert store.merge({"key": k, "v": i} for i, k in enumerate("abcde")) == 5
        assert fsyncs == [os.path.getsize(path)]
        # Duplicates only: nothing appended, nothing to sync.
        assert store.merge([{"key": "a", "v": 0}]) == 0
        assert len(fsyncs) == 1


class TestRunnerCadence:
    def test_long_interval_makes_one_fsync(self, tmp_path, fsyncs,
                                           monkeypatch):
        monkeypatch.setattr(runner_mod, "_COMMIT_INTERVAL_S", 1e9)
        path = str(tmp_path / "store.jsonl")
        summary = run_sweep(smoke_points(), ResultStore(path), workers=1)
        assert summary.n_computed == 24
        assert fsyncs == [os.path.getsize(path)]

    def test_zero_interval_makes_one_fsync_per_record(self, tmp_path, fsyncs,
                                                      monkeypatch):
        monkeypatch.setattr(runner_mod, "_COMMIT_INTERVAL_S", 0.0)
        path = str(tmp_path / "store.jsonl")
        run_sweep(smoke_points(), ResultStore(path), workers=1)
        assert len(fsyncs) == 24
        # Each fsync covered one more record than the one before.
        assert fsyncs == sorted(set(fsyncs))
        assert fsyncs[-1] == os.path.getsize(path)

    def test_interrupt_syncs_flushed_prefix_before_raising(self, tmp_path,
                                                           fsyncs,
                                                           monkeypatch):
        monkeypatch.setattr(runner_mod, "_COMMIT_INTERVAL_S", 1e9)
        path = str(tmp_path / "store.jsonl")
        done = []
        with pytest.raises(SweepInterrupted) as info:
            run_sweep(
                smoke_points(), ResultStore(path), workers=1,
                on_point_done=lambda key, record, index: done.append(key),
                should_stop=lambda: len(done) >= 5,
            )
        assert info.value.summary.n_computed == 5
        assert len(ResultStore(path)) == 5
        assert fsyncs == [os.path.getsize(path)]

    def test_permanent_failure_syncs_flushed_prefix(self, tmp_path, fsyncs,
                                                    monkeypatch):
        monkeypatch.setattr(runner_mod, "_COMMIT_INTERVAL_S", 1e9)
        points = smoke_points()
        monkeypatch.setenv(ENV_VARS["point"], FaultPlan(
            scripted={points[7].key(): [FAULT_EXCEPTION] * 2}).to_env())
        path = str(tmp_path / "store.jsonl")
        summary = run_sweep(points, ResultStore(path), workers=1,
                            policy=RetryPolicy(max_attempts=2, backoff_s=0.0))
        assert list(summary.failures) == [points[7].key()]
        assert len(ResultStore(path)) == 7
        assert fsyncs == [os.path.getsize(path)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_on_point_done_key_is_readable_at_once(self, tmp_path,
                                                   monkeypatch, workers):
        # Nothing is fsynced mid-run, so the hook's record can only be
        # found because append wrote and flushed it.
        monkeypatch.setattr(runner_mod, "_COMMIT_INTERVAL_S", 1e9)
        path = str(tmp_path / "store.jsonl")
        seen = []

        def check(key, record, index):
            assert ResultStore(path).get(key) == record
            seen.append(key)

        run_sweep(smoke_points(), ResultStore(path), workers=workers,
                  on_point_done=check)
        assert len(seen) == 24
