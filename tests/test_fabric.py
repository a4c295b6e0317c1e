"""repro.fabric units: shard planning, validation, health, coordination."""

import threading
import time

import pytest

from repro.common.errors import FabricError
from repro.common.jsonutil import canonical_json
from repro.fabric import (
    BackendHealth,
    FabricCoordinator,
    LocalBackend,
    PeerBackend,
    RunnerBackend,
    Shard,
    ShardExecutionError,
    ShardValidationError,
    plan_shards,
    validate_record_bytes,
)
from repro.fabric.health import ALIVE, DEAD, PROBATION, SUSPECT
from repro.sweep.grid import SweepSpec, dedup_points
from repro.sweep.runner import run_sweep
from repro.sweep.store import ResultStore


def tiny_spec(name="fab-unit", seeds=(1, 2), **kwargs):
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


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# -- shard planning ---------------------------------------------------------

class TestPlanShards:
    def test_empty_store_one_contiguous_cover(self, tmp_path):
        spec = tiny_spec(seeds=(1, 2, 3, 4))  # 8 points
        keyed = dedup_points(spec.expand())
        store = ResultStore(str(tmp_path / "s.jsonl"))
        shards = plan_shards(keyed, store, shard_size=3)
        assert [(s.start, s.stop) for s in shards] == \
            [(0, 3), (3, 6), (6, 8)]
        assert [s.index for s in shards] == [0, 1, 2]
        covered = [key for s in shards for key in s.keys]
        assert covered == list(keyed)

    def test_cached_prefix_is_skipped(self, tmp_path):
        spec = tiny_spec(seeds=(1, 2, 3))  # 6 points
        keyed = dedup_points(spec.expand())
        store = ResultStore(str(tmp_path / "s.jsonl"))
        for key in list(keyed)[:4]:
            store.append({"key": key, "result": {}})
        shards = plan_shards(keyed, store, shard_size=8)
        assert [(s.start, s.stop) for s in shards] == [(4, 6)]

    def test_interior_gap_makes_separate_shards(self, tmp_path):
        spec = tiny_spec(seeds=(1, 2, 3))
        keyed = dedup_points(spec.expand())
        keys = list(keyed)
        store = ResultStore(str(tmp_path / "s.jsonl"))
        store.append({"key": keys[2], "result": {}})  # hole at index 2
        shards = plan_shards(keyed, store, shard_size=8)
        assert [(s.start, s.stop) for s in shards] == [(0, 2), (3, 6)]

    def test_fully_cached_store_plans_nothing(self, tmp_path):
        spec = tiny_spec()
        keyed = dedup_points(spec.expand())
        store = ResultStore(str(tmp_path / "s.jsonl"))
        for key in keyed:
            store.append({"key": key, "result": {}})
        assert plan_shards(keyed, store, shard_size=2) == []

    def test_bad_shard_size_rejected(self, tmp_path):
        store = ResultStore(str(tmp_path / "s.jsonl"))
        with pytest.raises(FabricError, match="shard_size"):
            plan_shards(dedup_points(tiny_spec().expand()), store, 0)


# -- record validation ------------------------------------------------------

class TestValidateRecordBytes:
    def _good(self, tmp_path):
        spec = tiny_spec()
        store = reference_store(spec, tmp_path / "ref.jsonl")
        key = store.keys()[0]
        raw = (canonical_json(store.get(key)) + "\n").encode("utf-8")
        return key, raw

    def test_accepts_pristine_store_bytes(self, tmp_path):
        key, raw = self._good(tmp_path)
        record = validate_record_bytes(raw, key)
        assert record["key"] == key

    def test_rejects_truncation(self, tmp_path):
        key, raw = self._good(tmp_path)
        with pytest.raises(ShardValidationError, match="truncated"):
            validate_record_bytes(raw[:-5], key)

    def test_rejects_injected_corruption(self, tmp_path):
        from repro.faults import corrupt_bytes
        key, raw = self._good(tmp_path)
        with pytest.raises(ShardValidationError):
            validate_record_bytes(corrupt_bytes(raw), key)

    def test_rejects_non_canonical_bytes(self, tmp_path):
        import json as json_mod
        key, raw = self._good(tmp_path)
        # Same JSON value, default (spaced) separators: still one line,
        # but not the store's canonical bytes.
        pretty = (json_mod.dumps(json_mod.loads(raw)) + "\n").encode()
        with pytest.raises(ShardValidationError, match="non-canonical"):
            validate_record_bytes(pretty, key)

    def test_rejects_relabeled_record(self, tmp_path):
        # A dishonest peer serves a *valid* record under the wrong key:
        # both the key field and the content digest must expose it.
        spec = tiny_spec()
        store = reference_store(spec, tmp_path / "ref.jsonl")
        key_a, key_b = store.keys()[:2]
        raw_b = (canonical_json(store.get(key_b)) + "\n").encode()
        with pytest.raises(ShardValidationError, match="key mismatch"):
            validate_record_bytes(raw_b, key_a)
        forged = dict(store.get(key_b))
        forged["key"] = key_a
        raw_forged = (canonical_json(forged) + "\n").encode()
        with pytest.raises(ShardValidationError, match="digest mismatch"):
            validate_record_bytes(raw_forged, key_a)

    def test_rejects_non_object_and_missing_fields(self, tmp_path):
        key, _raw = self._good(tmp_path)
        with pytest.raises(ShardValidationError):
            validate_record_bytes(b"[1,2]\n", key)
        stub = canonical_json({"key": key}) + "\n"
        with pytest.raises(ShardValidationError, match="missing"):
            validate_record_bytes(stub.encode(), key)


# -- health state machine ---------------------------------------------------

class TestBackendHealth:
    def test_failures_walk_alive_suspect_dead(self):
        clock = FakeClock()
        health = BackendHealth("p", dead_after=3, clock=clock)
        assert health.state == ALIVE
        health.record_failure()
        assert health.state == SUSPECT
        assert health.available()
        health.record_failure()
        health.record_failure()
        assert health.state == DEAD
        assert not health.available()

    def test_success_resets_from_suspect(self):
        health = BackendHealth("p", dead_after=3, clock=FakeClock())
        health.record_failure()
        health.record_success()
        assert health.state == ALIVE
        for _ in range(2):
            health.record_failure()
        assert health.state == SUSPECT  # counter restarted after success

    def test_cooldown_promotes_dead_to_probation(self):
        clock = FakeClock()
        health = BackendHealth("p", dead_after=1, cooldown_s=10.0,
                               clock=clock)
        health.record_failure()
        assert health.state == DEAD
        clock.advance(9.9)
        assert not health.available()
        clock.advance(0.2)
        assert health.state == PROBATION
        assert health.available()
        assert health.n_probations == 1

    def test_probation_success_readmits(self):
        clock = FakeClock()
        health = BackendHealth("p", dead_after=1, cooldown_s=1.0,
                               clock=clock)
        health.record_failure()
        clock.advance(2.0)
        assert health.state == PROBATION
        health.record_success()
        assert health.state == ALIVE

    def test_probation_failure_restarts_cooldown(self):
        clock = FakeClock()
        health = BackendHealth("p", dead_after=3, cooldown_s=1.0,
                               clock=clock)
        for _ in range(3):
            health.record_failure()
        clock.advance(2.0)
        assert health.state == PROBATION
        health.record_failure()  # a single trial failure, not dead_after
        assert health.state == DEAD
        clock.advance(0.5)
        assert not health.available()
        clock.advance(0.6)
        assert health.state == PROBATION


# -- backends ---------------------------------------------------------------

class TestLocalBackend:
    def test_runs_a_shard_and_cleans_up_scratch(self, tmp_path):
        spec = tiny_spec()
        keyed = dedup_points(spec.expand())
        items = list(keyed.items())[:2]
        shard = Shard(index=0, start=0, stop=2,
                      points=tuple(p for _k, p in items),
                      keys=tuple(k for k, _p in items))
        backend = LocalBackend(str(tmp_path / "scratch"), workers=1)
        beats = []
        records = backend.run_shard(spec, shard, lambda: beats.append(1))
        assert [r["key"] for r in records] == list(shard.keys)
        assert len(beats) >= shard.n_points
        import os
        assert os.listdir(str(tmp_path / "scratch")) == []

    def test_point_failure_fails_the_shard(self, tmp_path, monkeypatch):
        from repro.faults import ENV_VARS, FaultPlan
        spec = tiny_spec()
        keyed = dedup_points(spec.expand())
        items = list(keyed.items())
        shard = Shard(index=0, start=0, stop=len(items),
                      points=tuple(p for _k, p in items),
                      keys=tuple(k for k, _p in items))
        # Exception on every attempt: the pool runner's retry budget
        # exhausts and the shard must surface a ShardExecutionError.
        monkeypatch.setenv(
            ENV_VARS["point"],
            FaultPlan(seed=1, rates={"exception": 1.0},
                      max_faults=99).to_env(),
        )
        from repro.exec import RetryPolicy
        backend = LocalBackend(str(tmp_path / "scratch"), workers=1,
                               policy=RetryPolicy(max_attempts=2,
                                                  backoff_s=0.0))
        with pytest.raises(ShardExecutionError, match="failed point"):
            backend.run_shard(spec, shard, lambda: None)


# -- coordinator ------------------------------------------------------------

class _FailingBackend(RunnerBackend):
    """Fails a configurable number of shard attempts, then succeeds by
    delegating to a LocalBackend."""

    def __init__(self, scratch_dir, failures=1, name="flaky"):
        self.name = name
        self.failures = failures
        self._delegate = LocalBackend(scratch_dir, workers=1, name=name)

    def run_shard(self, spec, shard, heartbeat):
        if self.failures > 0:
            self.failures -= 1
            heartbeat()
            raise ShardExecutionError(f"{self.name}: synthetic failure")
        return self._delegate.run_shard(spec, shard, heartbeat)


class _HangingBackend(RunnerBackend):
    """Never heartbeats, never returns (until released) — the lease must
    expire and the shard must complete elsewhere."""

    def __init__(self, name="hung"):
        self.name = name
        self.release = threading.Event()
        self.started = threading.Event()

    def run_shard(self, spec, shard, heartbeat):
        self.started.set()
        self.release.wait(timeout=30.0)
        raise ShardExecutionError(f"{self.name}: released")


class _LateSuccessBackend(RunnerBackend):
    """Holds its shard (never heartbeating) until released, then returns a
    *valid* result — the classic expired-lease straggler."""

    def __init__(self, scratch_dir, name="late"):
        self.name = name
        self.release = threading.Event()
        self.started = threading.Event()
        self._delegate = LocalBackend(scratch_dir, workers=1, name=name)

    def run_shard(self, spec, shard, heartbeat):
        self.started.set()
        if not self.release.wait(timeout=30.0):
            raise ShardExecutionError(f"{self.name}: never released")
        return self._delegate.run_shard(spec, shard, lambda: None)


class _GatedBackend(RunnerBackend):
    """A healthy backend that blocks (while heartbeating) until released,
    keeping the coordinator loop alive for event-sequenced tests."""

    def __init__(self, scratch_dir, name="gated"):
        self.name = name
        self.release = threading.Event()
        self.started = threading.Event()
        self._delegate = LocalBackend(scratch_dir, workers=1, name=name)

    def run_shard(self, spec, shard, heartbeat):
        self.started.set()
        while not self.release.wait(timeout=0.02):
            heartbeat()
        return self._delegate.run_shard(spec, shard, heartbeat)


class _FailingPeer(PeerBackend):
    """Stands in for a peer that dies on its first shard.  Subclasses
    PeerBackend (sans client) so degradation accounting sees it."""

    def __init__(self, name="peer"):
        self.name = name

    def probe(self):
        return False

    def run_shard(self, spec, shard, heartbeat):
        heartbeat()
        raise ShardExecutionError(f"{self.name}: synthetic peer death")


class _InstantBackend(RunnerBackend):
    """Serves precomputed records with zero latency — several of these
    finish many shards inside one coordinator poll interval."""

    def __init__(self, records_by_key, name):
        self.name = name
        self._records = records_by_key

    def run_shard(self, spec, shard, heartbeat):
        heartbeat()
        return [self._records[key] for key in shard.keys]


class TestFabricCoordinator:
    def test_local_only_matches_single_host_bytes(self, tmp_path):
        spec = tiny_spec(seeds=(1, 2, 3))
        ref = reference_store(spec, tmp_path / "ref.jsonl")
        store = ResultStore(str(tmp_path / "fab.jsonl"))
        coordinator = FabricCoordinator(
            [LocalBackend(str(tmp_path / "scratch"), workers=1)],
            shard_size=2,
        )
        summary = coordinator.run(spec, store)
        assert summary.n_computed == 6
        assert open(ref.path, "rb").read() == open(store.path, "rb").read()

    def test_rerun_is_pure_cache_hit(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(str(tmp_path / "fab.jsonl"))
        coordinator = FabricCoordinator(
            [LocalBackend(str(tmp_path / "scratch"), workers=1)],
            shard_size=2,
        )
        coordinator.run(spec, store)
        before = open(store.path, "rb").read()
        summary = coordinator.run(spec, store)
        assert summary.n_computed == 0
        assert summary.n_cached == summary.n_points == 4
        assert summary.n_shards == 0
        assert "4 cached, 0 computed" in summary.describe()
        assert open(store.path, "rb").read() == before

    def test_failed_shard_requeues_and_completes(self, tmp_path):
        spec = tiny_spec(seeds=(1, 2, 3))
        ref = reference_store(spec, tmp_path / "ref.jsonl")
        store = ResultStore(str(tmp_path / "fab.jsonl"))
        flaky = _FailingBackend(str(tmp_path / "scratch"), failures=2)
        coordinator = FabricCoordinator(
            [flaky,
             LocalBackend(str(tmp_path / "scratch2"), workers=1)],
            shard_size=2, dead_after=5,
        )
        summary = coordinator.run(spec, store)
        assert summary.n_requeues >= 2
        assert open(ref.path, "rb").read() == open(store.path, "rb").read()

    def test_shard_attempt_budget_exhaustion_raises(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(str(tmp_path / "fab.jsonl"))
        always_failing = _FailingBackend(str(tmp_path / "scratch"),
                                         failures=10 ** 6)
        coordinator = FabricCoordinator(
            [always_failing], shard_size=2, max_shard_attempts=3,
            dead_after=99,
        )
        with pytest.raises(FabricError, match="giving up"):
            coordinator.run(spec, store)

    def test_lease_expiry_fails_over_to_surviving_backend(self, tmp_path):
        spec = tiny_spec()
        ref = reference_store(spec, tmp_path / "ref.jsonl")
        store = ResultStore(str(tmp_path / "fab.jsonl"))
        hung = _HangingBackend()
        coordinator = FabricCoordinator(
            [hung, LocalBackend(str(tmp_path / "scratch"), workers=1)],
            shard_size=2, lease_timeout_s=0.3, poll_s=0.02,
        )
        try:
            summary = coordinator.run(spec, store)
        finally:
            hung.release.set()
        assert hung.started.is_set()
        assert summary.n_expired_leases >= 1
        assert summary.n_requeues >= 1
        assert open(ref.path, "rb").read() == open(store.path, "rb").read()

    def test_dead_backend_sits_out_until_probation(self, tmp_path):
        spec = tiny_spec(seeds=(1, 2, 3, 4))
        store = ResultStore(str(tmp_path / "fab.jsonl"))
        flaky = _FailingBackend(str(tmp_path / "scratch"), failures=2,
                                name="flaky")
        coordinator = FabricCoordinator(
            [flaky, LocalBackend(str(tmp_path / "scratch2"), workers=1)],
            shard_size=2, dead_after=2, cooldown_s=3600.0,
        )
        summary = coordinator.run(spec, store)
        assert summary.backends["flaky"]["state"] == "dead"
        assert summary.backends["flaky"]["shards_completed"] == 0
        assert summary.backends["local"]["shards_completed"] == 4

    def test_no_backends_rejected(self):
        with pytest.raises(FabricError, match="at least one backend"):
            FabricCoordinator([])

    def test_duplicate_backend_names_rejected(self, tmp_path):
        scratch = str(tmp_path / "s")
        with pytest.raises(FabricError, match="unique"):
            FabricCoordinator([
                LocalBackend(scratch, name="x"),
                LocalBackend(scratch, name="x"),
            ])

    def test_probe_reports_every_backend(self, tmp_path):
        coordinator = FabricCoordinator(
            [LocalBackend(str(tmp_path / "s"), workers=1)]
        )
        assert coordinator.probe() == {"local": True}

    def test_cli_run_local_and_cache_hit(self, tmp_path, capsys):
        import json
        from repro.fabric.cli import main
        spec = tiny_spec()
        spec_path = str(tmp_path / "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec.to_dict(), fh)
        store = str(tmp_path / "store.jsonl")
        assert main(["run", "--spec", spec_path, "--store", store,
                     "--local-workers", "1", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "4 points: 0 cached, 4 computed" in out
        reference = tmp_path / "ref.jsonl"
        reference_store(spec, reference)
        assert reference.read_bytes() == \
            (tmp_path / "store.jsonl").read_bytes()
        assert main(["run", "--spec", spec_path, "--store", store,
                     "--local-workers", "1"]) == 0
        assert "4 cached, 0 computed" in capsys.readouterr().out

    def test_cli_run_with_peer_and_probe(self, tmp_path, capsys):
        from repro.fabric.cli import main
        from repro.service.server import ServiceThread
        spec = tiny_spec()
        peer = ServiceThread(str(tmp_path / "peer" / "store.jsonl"),
                             sweep_workers=1).start()
        address = f"{peer.host}:{peer.port}"
        try:
            assert main(["probe", "--local", "--peer", address]) == 0
            out = capsys.readouterr().out
            assert f"{address}: up" in out
            store = str(tmp_path / "store.jsonl")
            import json
            spec_path = str(tmp_path / "spec.json")
            with open(spec_path, "w", encoding="utf-8") as fh:
                json.dump(spec.to_dict(), fh)
            assert main(["run", "--spec", spec_path, "--store", store,
                         "--peer", address, "--no-local",
                         "--shard-size", "2"]) == 0
            assert "4 computed over 2 shard(s)" in capsys.readouterr().out
        finally:
            peer.stop(drain=False)
        reference = tmp_path / "ref.jsonl"
        reference_store(spec, reference)
        assert reference.read_bytes() == \
            (tmp_path / "store.jsonl").read_bytes()

    def test_cli_probe_reports_down_peer(self, tmp_path, capsys):
        from repro.fabric.cli import main
        from repro.service.server import ServiceThread
        probe = ServiceThread(str(tmp_path / "gone.jsonl"))
        probe.start()
        address = f"{probe.host}:{probe.port}"
        probe.stop(drain=False)
        assert main(["probe", "--peer", address,
                     "--rpc-timeout", "2"]) == 1
        assert f"{address}: DOWN" in capsys.readouterr().out

    def test_cli_error_paths(self, tmp_path, capsys):
        from repro.fabric.cli import main
        store = str(tmp_path / "s.jsonl")
        # exactly one spec source
        assert main(["run", "--store", store]) == 2
        assert "choose exactly one" in capsys.readouterr().err
        assert main(["run", "--smoke", "--paper", "--store", store]) == 2
        # --no-local with no peers leaves nothing to run on
        assert main(["run", "--smoke", "--no-local",
                     "--store", store]) == 2
        assert "at least one --peer" in capsys.readouterr().err
        # malformed peer addresses
        assert main(["run", "--smoke", "--store", store,
                     "--peer", "host:notaport"]) == 2
        assert main(["run", "--smoke", "--store", store,
                     "--peer", "host:99999"]) == 2
        # unreadable spec file
        assert main(["run", "--spec", str(tmp_path / "missing.json"),
                     "--store", store]) == 2
        assert "cannot read sweep spec" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["run", "--spec", str(bad), "--store", store]) == 2
        assert "not valid JSON" in capsys.readouterr().err
        # a non-UTF-8 spec file is an input error (2), not a shard give-up
        bad.write_bytes(b'{"name": "\xff\xfe"}')
        assert main(["run", "--spec", str(bad), "--store", store]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sweep spec") and "not UTF-8" in err
        # a FabricError (bad shard size) exits 1 with the resume hint
        assert main(["run", "--smoke", "--store", store,
                     "--shard-size", "0", "--local-workers", "1"]) == 1
        assert "re-run the same command" in capsys.readouterr().err

    def test_cli_energy_flag_folds_into_spec(self, tmp_path, capsys):
        from repro.fabric.cli import main
        from repro.sweep.runner import run_sweep as _run
        import dataclasses
        import json
        spec = tiny_spec()
        spec_path = str(tmp_path / "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec.to_dict(), fh)
        store = str(tmp_path / "store.jsonl")
        assert main(["run", "--spec", spec_path, "--store", store,
                     "--energy", "--local-workers", "1"]) == 0
        folded = dataclasses.replace(
            spec, base=tuple(spec.base) + (("energy.enabled", True),)
        )
        reference = ResultStore(str(tmp_path / "ref.jsonl"))
        _run(folded.expand(), reference, workers=1)
        assert (tmp_path / "ref.jsonl").read_bytes() == \
            (tmp_path / "store.jsonl").read_bytes()

    def test_late_success_does_not_resurrect_dead_backend(self, tmp_path):
        # Flapping peer: its lease expires (failure -> DEAD), the shard
        # fails over, and THEN its original attempt completes fine.  The
        # late success is accepted as data (at-least-once) but must not
        # touch health — a DEAD backend stays dead until probation, it is
        # not resurrected straight to ALIVE by a stale thread.
        clock = FakeClock()
        spec = tiny_spec()  # 4 points
        ref = reference_store(spec, tmp_path / "ref.jsonl")
        store = ResultStore(str(tmp_path / "fab.jsonl"))
        late = _LateSuccessBackend(str(tmp_path / "scratch-late"))
        gated = _GatedBackend(str(tmp_path / "scratch-gated"))
        coordinator = FabricCoordinator(
            [late, gated], shard_size=2,
            lease_timeout_s=60.0, poll_s=0.02,
            dead_after=1, cooldown_s=100000.0, clock=clock,
        )
        result = {}

        def drive():
            result["summary"] = coordinator.run(spec, store)

        runner = threading.Thread(target=drive, daemon=True)
        runner.start()
        assert late.started.wait(timeout=10.0)
        assert gated.started.wait(timeout=10.0)
        # Walk the fake clock past the lease timeout in sub-timeout steps:
        # the non-beating late backend expires, while the gated one keeps
        # renewing its lease between steps (it beats on wall time).
        for _ in range(3):
            clock.advance(31.0)
            time.sleep(0.15)
        deadline = time.monotonic() + 10.0
        while coordinator.health[late.name]._state != DEAD and \
                time.monotonic() < deadline:
            time.sleep(0.02)
        assert coordinator.health[late.name]._state == DEAD
        # The straggler now finishes its (still-open, since the only other
        # backend is busy) shard successfully...
        late.release.set()
        deadline = time.monotonic() + 10.0
        while coordinator._completed_by[late.name] == 0 and \
                time.monotonic() < deadline:
            time.sleep(0.02)
        assert coordinator._completed_by[late.name] == 1
        # ...and its health must NOT have been reset by that success.
        assert coordinator.health[late.name]._state == DEAD
        gated.release.set()
        runner.join(timeout=30.0)
        assert not runner.is_alive()
        summary = result["summary"]
        assert summary.n_expired_leases == 1
        assert summary.backends[late.name]["state"] == "dead"
        assert summary.backends[late.name]["shards_completed"] == 1
        assert open(ref.path, "rb").read() == open(store.path, "rb").read()

    def test_degraded_snapshot_is_immune_to_cooldown_expiry(self, tmp_path):
        # The peer dies during the run; by the time the summary is built
        # the (fake) clock has moved past its cooldown, so status() will
        # report post-cooldown "probation".  degraded must still be True:
        # it is snapshotted before the stats pass, not re-derived after
        # the promoting state read.
        clock = FakeClock()
        spec = tiny_spec()  # 4 points -> 2 shards of 2
        ref = reference_store(spec, tmp_path / "ref.jsonl")
        store = ResultStore(str(tmp_path / "fab.jsonl"))
        peer = _FailingPeer()

        class _JumpingLocal(LocalBackend):
            """Advances the fake clock past the peer's cooldown while
            computing its final shard."""

            def run_shard(self, spec_, shard, heartbeat):
                records = super().run_shard(spec_, shard, heartbeat)
                if shard.index == 0:  # requeued peer shard runs last
                    clock.advance(10.0)
                return records

        local = _JumpingLocal(str(tmp_path / "scratch"), workers=1)
        coordinator = FabricCoordinator(
            [peer, local], shard_size=2,
            dead_after=1, cooldown_s=5.0, lease_timeout_s=3600.0,
            clock=clock,
        )
        summary = coordinator.run(spec, store)
        assert summary.degraded is True
        assert summary.backends[peer.name]["state"] == "probation"
        assert "degraded to local-only" in summary.describe()
        assert open(ref.path, "rb").read() == open(store.path, "rb").read()

    def test_fast_backends_drain_multiple_completions_per_tick(self, tmp_path):
        # Four instant backends finish whole waves of shards inside one
        # (deliberately long) poll interval; the loop must drain every
        # queued completion per tick instead of consuming one per poll,
        # and the merge must stay byte-identical.
        spec = tiny_spec(seeds=tuple(range(1, 7)))  # 12 points
        ref = reference_store(spec, tmp_path / "ref.jsonl")
        records = {key: ref.get(key) for key in ref.keys()}
        backends = [
            _InstantBackend(records, name=f"fast{i}") for i in range(4)
        ]
        store = ResultStore(str(tmp_path / "fab.jsonl"))
        coordinator = FabricCoordinator(
            backends, shard_size=1, poll_s=0.2,
        )
        t0 = time.monotonic()
        summary = coordinator.run(spec, store)
        elapsed = time.monotonic() - t0
        assert summary.n_computed == 12
        assert summary.n_shards == 12
        # 12 shards at one completion per 0.2s tick would take >= 2.4s;
        # draining finishes in a handful of ticks.
        assert elapsed < 2.0
        assert sum(
            stats["shards_completed"] for stats in summary.backends.values()
        ) == 12
        assert open(ref.path, "rb").read() == open(store.path, "rb").read()

    def test_no_leaked_threads_or_processes(self, tmp_path):
        import multiprocessing
        spec = tiny_spec(seeds=(1, 2, 3))
        store = ResultStore(str(tmp_path / "fab.jsonl"))
        flaky = _FailingBackend(str(tmp_path / "scratch"), failures=1)
        coordinator = FabricCoordinator(
            [flaky, LocalBackend(str(tmp_path / "scratch2"), workers=1)],
            shard_size=2, dead_after=5,
        )
        before = threading.active_count()
        coordinator.run(spec, store)
        deadline = time.monotonic() + 5.0
        while threading.active_count() > before and \
                time.monotonic() < deadline:
            time.sleep(0.02)
        assert threading.active_count() <= before
        assert multiprocessing.active_children() == []
