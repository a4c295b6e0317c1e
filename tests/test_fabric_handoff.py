"""Work-stealing shard pipelining and coordinator checkpoint/handoff.

Covers the two behaviors the unified execution core enabled:

* ``max_inflight_shards`` — a live backend may hold several leases and
  steal the oldest unleased shard (default 1 preserves the classic
  one-shard-per-backend dispatch);
* ``checkpoint_path`` — the coordinator snapshots its plan, merge
  position, attempt counters, and completed-but-unmerged shard records,
  and a replacement coordinator on the same store + checkpoint resumes
  mid-run (including after dying *between* a merge and the next
  snapshot) with the merged store byte-identical to a fault-free
  single-host run.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.common.errors import ConfigurationError, FabricError
from repro.exec.checkpoint import read_checkpoint
from repro.fabric import (
    FabricCoordinator,
    LocalBackend,
    RunnerBackend,
    ShardExecutionError,
)
from repro.sweep.grid import SweepSpec
from repro.sweep.runner import FailureRecord, run_sweep
from repro.sweep.store import ResultStore


def tiny_spec(name="fab-handoff", seeds=(1, 2, 3), **kwargs):
    defaults = dict(
        name=name,
        topologies=("ring", "conv"),
        cluster_counts=(2,),
        steerings=("dependence",),
        mixes=("int_heavy",),
        n_instructions=300,
        seeds=seeds,
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def reference_store(spec, path):
    store = ResultStore(str(path))
    run_sweep(spec.expand(), store, workers=1)
    return store


def records_by_key(reference):
    return {record["key"]: record for record in reference.records()}


class _GatedServeBackend(RunnerBackend):
    """Serves precomputed records, but holds every shard (while
    heartbeating) until released — freezing the coordinator mid-run so a
    test can observe its live lease table."""

    def __init__(self, records, name="gated", expect=1):
        self.name = name
        self._records = records
        self.release = threading.Event()
        self.all_started = threading.Event()
        self.expect = expect
        self._lock = threading.Lock()
        self._inflight = 0
        self.peak_inflight = 0

    def run_shard(self, spec, shard, heartbeat):
        with self._lock:
            self._inflight += 1
            self.peak_inflight = max(self.peak_inflight, self._inflight)
            if self._inflight >= self.expect:
                self.all_started.set()
        try:
            while not self.release.wait(timeout=0.02):
                heartbeat()
            heartbeat()
            return [self._records[key] for key in shard.keys]
        finally:
            with self._lock:
                self._inflight -= 1


class _ServeBackend(RunnerBackend):
    """Returns precomputed records instantly, remembering which shard
    ordinals it was asked to run."""

    def __init__(self, records, name="serve"):
        self.name = name
        self._records = records
        self.ran = []

    def run_shard(self, spec, shard, heartbeat):
        heartbeat()
        self.ran.append(shard.index)
        return [self._records[key] for key in shard.keys]


class _FailShardZeroBackend(RunnerBackend):
    """Serves every shard except ordinal 0, which always fails (slowly
    enough that the other shards complete and buffer first)."""

    def __init__(self, records, name="half"):
        self.name = name
        self._records = records

    def run_shard(self, spec, shard, heartbeat):
        heartbeat()
        if shard.index == 0:
            time.sleep(0.05)
            raise ShardExecutionError(f"{self.name}: shard 0 always fails")
        return [self._records[key] for key in shard.keys]


class _CrashLog:
    """A coordinator log callback that raises once a trigger message has
    been seen ``after`` times — simulating the process dying at an exact
    point in the run (log calls happen synchronously on the coordinator
    thread, e.g. right after a merge wrote to the store but before the
    next checkpoint snapshot)."""

    def __init__(self, trigger, after=1):
        self.trigger = trigger
        self.after = after
        self.lines = []

    def __call__(self, message):
        self.lines.append(message)
        if self.trigger in message:
            self.after -= 1
            if self.after == 0:
                raise RuntimeError("simulated coordinator crash")


# -- work stealing ----------------------------------------------------------

class TestWorkStealing:
    def test_backend_pipelines_up_to_the_inflight_cap(self, tmp_path):
        spec = tiny_spec()
        ref = reference_store(spec, tmp_path / "ref.jsonl")
        gated = _GatedServeBackend(records_by_key(ref), expect=3)
        store = ResultStore(str(tmp_path / "fab.jsonl"))
        ckpt = str(tmp_path / "run.ckpt")
        coordinator = FabricCoordinator(
            [gated], shard_size=2, poll_s=0.01,
            max_inflight_shards=3, checkpoint_path=ckpt,
        )
        outcome = {}

        def drive():
            outcome["summary"] = coordinator.run(spec, store)

        thread = threading.Thread(target=drive, daemon=True)
        thread.start()
        try:
            assert gated.all_started.wait(timeout=10.0)
            # One backend, three live leases: the steal loop filled it to
            # the cap instead of stopping at one shard.
            assert coordinator.lease_counts() == {"gated": 3}
            # The run is mid-flight, so the handoff snapshot exists.
            assert read_checkpoint(ckpt) is not None
        finally:
            gated.release.set()
            thread.join(timeout=30.0)
        assert not thread.is_alive()
        summary = outcome["summary"]
        assert gated.peak_inflight == 3
        assert summary.n_computed == 6
        assert summary.backends["gated"]["shards_completed"] == 3
        assert summary.backends["gated"]["max_inflight"] == 3
        assert summary.backends["gated"]["inflight_leases"] == 0
        assert open(ref.path, "rb").read() == open(store.path, "rb").read()
        # Terminal success clears the checkpoint.
        assert read_checkpoint(ckpt) is None

    def test_default_cap_keeps_one_lease_per_backend(self, tmp_path):
        spec = tiny_spec()
        ref = reference_store(spec, tmp_path / "ref.jsonl")
        gated = _GatedServeBackend(records_by_key(ref), expect=1)
        store = ResultStore(str(tmp_path / "fab.jsonl"))
        coordinator = FabricCoordinator([gated], shard_size=2, poll_s=0.01)
        outcome = {}

        def drive():
            outcome["summary"] = coordinator.run(spec, store)

        thread = threading.Thread(target=drive, daemon=True)
        thread.start()
        try:
            assert gated.all_started.wait(timeout=10.0)
            time.sleep(0.1)     # several dispatch ticks
            assert coordinator.lease_counts() == {"gated": 1}
        finally:
            gated.release.set()
            thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert gated.peak_inflight == 1
        assert open(ref.path, "rb").read() == open(store.path, "rb").read()

    def test_inflight_cap_validation(self, tmp_path):
        backend = LocalBackend(str(tmp_path / "s"), workers=1)
        with pytest.raises(ConfigurationError, match="max_inflight_shards"):
            FabricCoordinator([backend], max_inflight_shards=0)
        with pytest.raises(ConfigurationError, match="checkpoint_interval"):
            FabricCoordinator([backend], checkpoint_interval_s=0.0)


# -- checkpoint / handoff ---------------------------------------------------

class TestCheckpointHandoff:
    def test_crash_after_merge_resumes_byte_identical(self, tmp_path):
        # The nastiest window: the coordinator dies right after merging a
        # shard into the store but before snapshotting that progress.  The
        # replacement must trust the store, not the stale checkpoint.
        spec = tiny_spec()
        ref = reference_store(spec, tmp_path / "ref.jsonl")
        records = records_by_key(ref)
        ckpt = str(tmp_path / "run.ckpt")
        crash = _CrashLog("merged", after=1)
        first = FabricCoordinator(
            [_ServeBackend(records)], shard_size=2, poll_s=0.01,
            checkpoint_path=ckpt, checkpoint_interval_s=0.01,
            log=crash,
        )
        store = ResultStore(str(tmp_path / "fab.jsonl"))
        with pytest.raises(RuntimeError, match="simulated coordinator"):
            first.run(spec, store)
        # The crash left a checkpoint and a store whose merged prefix is
        # AHEAD of it (shard 0 merged, snapshot not yet updated).
        stale = read_checkpoint(ckpt)
        assert stale is not None
        assert len(ResultStore(store.path)) >= 2
        assert stale["merged_through"] == 0

        replacement = _ServeBackend(records, name="serve2")
        second = FabricCoordinator(
            [replacement], shard_size=2, poll_s=0.01,
            checkpoint_path=ckpt, checkpoint_interval_s=0.01,
        )
        log_store = ResultStore(store.path)     # fresh process: reload
        summary = second.run(spec, log_store)
        assert open(ref.path, "rb").read() == open(store.path, "rb").read()
        # Shard 0 was already durable: the replacement computed only the
        # other two shards.
        assert sorted(replacement.ran) == [1, 2]
        assert summary.n_computed == 4
        assert read_checkpoint(ckpt) is None

    def test_buffered_completions_rehydrate_instead_of_recompute(
            self, tmp_path):
        # The backend completed shards 1 and 2 out of order; the periodic
        # snapshot carried them while shard 0 was still failing.  The
        # replacement coordinator must recompute ONLY shard 0 and merge
        # the rehydrated records for the rest.
        spec = tiny_spec()
        ref = reference_store(spec, tmp_path / "ref.jsonl")
        records = records_by_key(ref)
        ckpt = str(tmp_path / "run.ckpt")
        crash = _CrashLog("requeueing", after=1)
        first = FabricCoordinator(
            [_FailShardZeroBackend(records)],
            shard_size=2, poll_s=0.01, max_inflight_shards=3,
            checkpoint_path=ckpt, checkpoint_interval_s=0.01,
            log=crash, dead_after=99,
        )
        store = ResultStore(str(tmp_path / "fab.jsonl"))
        with pytest.raises(RuntimeError, match="simulated coordinator"):
            first.run(spec, store)
        stale = read_checkpoint(ckpt)
        assert stale is not None
        assert set(stale["completed"]) == {"1", "2"}
        assert stale["attempts"].get("0") == 1

        replacement = _ServeBackend(records, name="serve2")
        second = FabricCoordinator(
            [replacement], shard_size=2, poll_s=0.01,
            checkpoint_path=ckpt, checkpoint_interval_s=0.01,
        )
        summary = second.run(spec, ResultStore(store.path))
        assert sorted(replacement.ran) == [0]
        assert summary.n_computed == 6
        assert open(ref.path, "rb").read() == open(store.path, "rb").read()
        assert read_checkpoint(ckpt) is None

    def test_mismatched_spec_checkpoint_is_ignored(self, tmp_path):
        spec = tiny_spec()
        ref = reference_store(spec, tmp_path / "ref.jsonl")
        ckpt = str(tmp_path / "run.ckpt")
        # A checkpoint from some other spec (wrong digest): planned fresh.
        from repro.exec.checkpoint import write_checkpoint
        write_checkpoint(ckpt, {
            "version": 1, "spec_digest": "not-this-spec",
            "shards": [{"index": 0, "start": 0, "stop": 99}],
            "merged_through": 0, "attempts": {}, "completed": {},
        })
        said = []
        coordinator = FabricCoordinator(
            [_ServeBackend(records_by_key(ref))], shard_size=2,
            poll_s=0.01, checkpoint_path=ckpt, log=said.append,
        )
        store = ResultStore(str(tmp_path / "fab.jsonl"))
        summary = coordinator.run(spec, store)
        assert any("ignoring checkpoint" in line for line in said)
        assert summary.n_computed == 6
        assert open(ref.path, "rb").read() == open(store.path, "rb").read()

    def test_sigkilled_coordinator_hands_off_to_replacement(self, tmp_path):
        # The end-to-end drill the fabric-handoff CI job runs: a real
        # coordinator process SIGKILLed mid-run, then a replacement
        # invocation on the same store + checkpoint finishing the sweep
        # byte-identically to the single-host reference.
        spec = tiny_spec(n_instructions=2000)
        ref = reference_store(spec, tmp_path / "ref.jsonl")
        spec_path = str(tmp_path / "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec.to_dict(), fh)
        store_path = str(tmp_path / "fab.jsonl")
        ckpt = str(tmp_path / "run.ckpt")
        argv = [
            sys.executable, "-m", "repro.fabric", "run",
            "--spec", spec_path, "--store", store_path,
            "--checkpoint", ckpt, "--checkpoint-interval", "0.05",
            "--shard-size", "1", "--local-workers", "1",
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.Popen(argv, env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        try:
            # Kill as soon as some progress is durable but (on any sanely
            # fast machine) well before all 6 shards finished.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline and proc.poll() is None:
                if os.path.exists(store_path) and \
                        os.path.getsize(store_path) > 0:
                    break
                time.sleep(0.02)
            killed_midrun = proc.poll() is None
            if killed_midrun:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30.0)
        finally:
            if proc.poll() is None:
                proc.kill()
        if killed_midrun:
            # SIGKILL ran no cleanup: the handoff snapshot must survive.
            assert read_checkpoint(ckpt) is not None

        from repro.fabric.cli import main
        assert main([
            "run", "--spec", spec_path, "--store", store_path,
            "--checkpoint", ckpt, "--checkpoint-interval", "0.05",
            "--shard-size", "1", "--local-workers", "1",
        ]) == 0
        assert open(ref.path, "rb").read() == \
            open(store_path, "rb").read()
        assert read_checkpoint(ckpt) is None


# -- failure schema (shared with the sweep summary) -------------------------

class TestFailureSchema:
    def test_exhausted_shard_reports_sweep_style_failures(self, tmp_path):
        spec = tiny_spec()
        ref = reference_store(spec, tmp_path / "ref.jsonl")
        records = records_by_key(ref)
        backend = _FailShardZeroBackend(records)
        coordinator = FabricCoordinator(
            [backend], shard_size=2, poll_s=0.01,
            max_inflight_shards=4, max_shard_attempts=2, dead_after=99,
        )
        store = ResultStore(str(tmp_path / "fab.jsonl"))
        with pytest.raises(FabricError, match="giving up") as excinfo:
            coordinator.run(spec, store)
        summary = excinfo.value.summary
        assert summary is not None
        # Shard 0's two points carry FailureRecords — the same class, the
        # same fields, the sweep summary uses.
        keyed_failures = summary.failures
        assert len(keyed_failures) == 2
        for key, failure in keyed_failures.items():
            assert isinstance(failure, FailureRecord)
            assert failure.key == key
            assert failure.error == "ShardExecutionError"
            assert failure.attempts == 2
            assert set(failure.to_dict()) == {
                "key", "label", "attempts", "error", "message", "elapsed_s",
            }
        # Shards 1 and 2 were computed but blocked behind the failure.
        assert summary.n_discarded == 4
        described = summary.describe()
        assert "2 FAILED" in described
        assert "4 computed-but-unflushed" in described
        # Nothing merged: the store is still an honest (empty) prefix.
        assert len(ResultStore(store.path, load=True)) == 0

    def test_fabric_and_sweep_summaries_share_failure_fields(self):
        import dataclasses

        from repro.fabric.scheduler import FabricSummary
        from repro.sweep.runner import SweepSummary

        fabric_fields = {f.name for f in dataclasses.fields(FabricSummary)}
        sweep_fields = {f.name for f in dataclasses.fields(SweepSummary)}
        shared = {"n_points", "n_cached", "n_computed", "elapsed_s",
                  "failures", "n_discarded"}
        assert shared <= fabric_fields
        assert shared <= sweep_fields

    def test_cli_prints_failure_lines_like_the_sweep_cli(
            self, tmp_path, monkeypatch, capsys):
        from repro.fabric import cli as fabric_cli
        from repro.fabric.scheduler import FabricSummary

        summary = FabricSummary(n_points=2, n_cached=0, n_computed=0,
                                n_shards=1)
        summary.failures["k1"] = FailureRecord(
            key="k1", label="ring/c2", attempts=3,
            error="ShardExecutionError", message="synthetic",
            elapsed_s=1.25,
        )

        def fail_run(self, spec, store):
            raise FabricError("giving up", summary=summary)

        monkeypatch.setattr(fabric_cli.FabricCoordinator, "run", fail_run)
        rc = fabric_cli.main([
            "run", "--smoke", "--store", str(tmp_path / "s.jsonl"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "FAILED ring/c2: ShardExecutionError: synthetic" in err
        assert "(3 attempt(s), 1.25s)" in err


# -- CLI flags --------------------------------------------------------------

class TestCliFlags:
    def test_bad_values_exit_2(self, tmp_path, capsys):
        from repro.fabric.cli import main
        store = str(tmp_path / "s.jsonl")
        assert main(["run", "--smoke", "--store", store,
                     "--max-inflight-shards", "0"]) == 2
        assert main(["run", "--smoke", "--store", store,
                     "--checkpoint", str(tmp_path / "c.ckpt"),
                     "--checkpoint-interval", "0"]) == 2
        capsys.readouterr()
        for workers in ("0", "-1"):
            assert main(["run", "--smoke", "--store", store,
                         "--local-workers", workers]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: --local-workers must be >= 1")

    def test_probe_shows_inflight_lease_counts(self, tmp_path, capsys):
        from repro.fabric.cli import main
        assert main(["probe", "--local",
                     "--max-inflight-shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "local: up" in out
        assert "inflight 0/2" in out
