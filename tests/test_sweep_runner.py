"""Sweep runner: determinism, caching, sharding, correctness vs the engine."""

import os

import pytest

from repro.engine import ENGINE_VERSION, Pipeline
from repro.sweep.grid import SweepSpec
from repro.sweep.runner import execute_point, run_sweep
from repro.sweep.store import ResultStore
from repro.workloads import generate_trace


def small_spec(**kwargs) -> SweepSpec:
    defaults = dict(
        name="small",
        topologies=("ring", "conv"),
        cluster_counts=(2, 4),
        steerings=("dependence",),
        mixes=("int_heavy",),
        n_instructions=300,
        seeds=(7,),
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


class TestRunner:
    def test_computes_every_point(self, tmp_path):
        spec = small_spec()
        store = ResultStore(str(tmp_path / "store.jsonl"))
        summary = run_sweep(spec.expand(), store, workers=1)
        assert summary.n_points == 4
        assert summary.n_computed == 4
        assert summary.n_cached == 0
        assert len(store) == 4
        assert set(summary.timings) == set(store.keys())
        assert all(t >= 0 for t in summary.timings.values())

    def test_second_run_all_cache_hits(self, tmp_path):
        spec = small_spec()
        path = str(tmp_path / "store.jsonl")
        run_sweep(spec.expand(), store=ResultStore(path), workers=1)
        with open(path, "rb") as fh:
            first_bytes = fh.read()
        summary = run_sweep(spec.expand(), store=ResultStore(path), workers=1)
        assert summary.n_computed == 0
        assert summary.n_cached == 4
        assert summary.cache_hit_rate == 1.0
        with open(path, "rb") as fh:
            assert fh.read() == first_bytes

    def test_inline_sweep_parses_no_config(self, tmp_path, monkeypatch):
        # Payloads carry the expanded config objects, so no point pays
        # ProcessorConfig.from_dict on the sweep path.
        from repro.common.config import ProcessorConfig

        points = small_spec(seeds=(7, 8)).expand()
        calls = []
        real = ProcessorConfig.from_dict.__func__

        def counting(cls, data):
            calls.append(data)
            return real(cls, data)

        monkeypatch.setattr(ProcessorConfig, "from_dict",
                            classmethod(counting))
        store = ResultStore(str(tmp_path / "store.jsonl"))
        summary = run_sweep(points, store, workers=1)
        assert summary.n_computed == 8
        assert calls == []

    def test_inline_sweep_hashes_each_key_once(self, tmp_path, monkeypatch):
        # dedup_points hashes each fresh point's key; the payload carries
        # it to execute_point, which must not hash the point again.
        from repro.sweep import grid

        points = small_spec(seeds=(7, 8)).expand()
        hashed = []
        real = grid.content_digest

        def counting(obj, *args):
            if "point" in obj:
                hashed.append(obj)
            return real(obj, *args)

        monkeypatch.setattr(grid, "content_digest", counting)
        store = ResultStore(str(tmp_path / "store.jsonl"))
        summary = run_sweep(points, store, workers=1)
        assert summary.n_computed == len(points) == 8
        assert len(hashed) == len(points)

    def test_two_fresh_runs_byte_identical(self, tmp_path):
        spec = small_spec()
        path_a = str(tmp_path / "a.jsonl")
        path_b = str(tmp_path / "b.jsonl")
        run_sweep(spec.expand(), ResultStore(path_a), workers=1)
        run_sweep(spec.expand(), ResultStore(path_b), workers=1)
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_multiprocess_matches_inline(self, tmp_path):
        spec = small_spec(cluster_counts=(2, 4, 8))  # 6 points >= pool floor
        path_inline = str(tmp_path / "inline.jsonl")
        path_pool = str(tmp_path / "pool.jsonl")
        run_sweep(spec.expand(), ResultStore(path_inline), workers=1)
        summary = run_sweep(spec.expand(), ResultStore(path_pool), workers=2)
        assert summary.n_workers == 2
        assert summary.n_computed == 6
        with open(path_inline, "rb") as fi, open(path_pool, "rb") as fp:
            assert fi.read() == fp.read()

    def test_partial_store_resumes(self, tmp_path):
        spec = small_spec()
        points = spec.expand()
        path = str(tmp_path / "store.jsonl")
        run_sweep(points[:2], ResultStore(path), workers=1)
        summary = run_sweep(points, ResultStore(path), workers=1)
        assert summary.n_cached == 2
        assert summary.n_computed == 2
        assert len(ResultStore(path)) == 4

    def test_force_recomputes(self, tmp_path):
        spec = small_spec()
        store = ResultStore(str(tmp_path / "store.jsonl"))
        run_sweep(spec.expand(), store, workers=1)
        summary = run_sweep(spec.expand(), store, workers=1, force=True)
        assert summary.n_computed == 4
        assert summary.n_cached == 0

    def test_duplicate_points_computed_once(self, tmp_path):
        points = small_spec().expand()
        store = ResultStore(str(tmp_path / "store.jsonl"))
        summary = run_sweep(points + points, store, workers=1)
        assert summary.n_points == 4
        assert summary.n_computed == 4


class TestRecordContents:
    def test_record_matches_direct_engine_run(self, tmp_path):
        spec = small_spec()
        points = spec.expand()
        store = ResultStore(str(tmp_path / "store.jsonl"))
        run_sweep(points, store, workers=1)
        for point in points:
            record = store.get(point.key())
            trace = generate_trace(point.mix, point.n_instructions,
                                   seed=point.seed)
            expected = Pipeline(point.config).run_record(trace)
            assert record["result"] == expected["result"]
            assert record["engine_version"] == ENGINE_VERSION
            assert record["config_digest"] == point.config.config_digest()
            assert record["point"] == point.to_dict()
            # Variant provenance is summary-only: stored records must stay
            # byte-identical whichever kernel variant computed them.
            assert "kernel_variant" not in record

    def test_summary_reports_resolved_kernel_variant(self, tmp_path):
        spec = small_spec()
        store = ResultStore(str(tmp_path / "store.jsonl"))
        summary = run_sweep(spec.expand(), store, workers=1,
                            kernel_variant="generic")
        assert summary.kernel_variant == "generic"
        assert "[generic]" in summary.describe()

    def test_execute_point_round_trips_through_dicts(self):
        point = small_spec().expand()[0]
        record, elapsed = execute_point(point.to_dict())
        assert record["key"] == point.key()
        assert elapsed >= 0
        assert record["result"]["n_instructions"] == point.n_instructions

    def test_custom_mix_survives_fresh_worker_interpreter(self, tmp_path):
        # Under the spawn start method a worker re-imports the package with
        # a pristine registry; the payload must carry the mix definition.
        from repro.common.config import ProcessorConfig
        from repro.common.types import InstrClass
        from repro.sweep.grid import ExperimentPoint
        from repro.sweep.runner import _payload_for
        from repro.workloads import MIX_REGISTRY, WorkloadMix, register_mix

        mix = WorkloadMix(
            name="spawn_test_mix",
            class_weights={InstrClass.INT_ALU: 0.6, InstrClass.LOAD: 0.4},
        )
        register_mix(mix)
        try:
            point = ExperimentPoint(ProcessorConfig(), "spawn_test_mix", 200, 3)
            key = point.key()
            payload = _payload_for(point)
            # Simulate the fresh interpreter: the registry forgets the mix.
            MIX_REGISTRY.pop("spawn_test_mix")
            record, _elapsed = execute_point(payload)
            assert record["key"] == key
            assert record["result"]["n_instructions"] == 200
            # ... and a full sweep over the custom mix works too.
            register_mix(mix, overwrite=True)
            store = ResultStore(str(tmp_path / "store.jsonl"))
            summary = run_sweep([point], store, workers=1)
            assert summary.n_computed == 1
            assert store.get(key)["result"] == record["result"]
        finally:
            MIX_REGISTRY.pop("spawn_test_mix", None)


class TestTraceMemoization:
    """_run-time trace cache: a grid that varies only the config must
    generate each (mix, n, seed) trace once per worker process."""

    def _count_generations(self, monkeypatch):
        import repro.sweep.runner as runner_mod

        calls = []
        real = runner_mod.generate_trace

        def counting(mix, n, seed):
            calls.append((mix, n, seed))
            return real(mix, n, seed=seed)

        monkeypatch.setattr(runner_mod, "generate_trace", counting)
        return calls

    def test_config_only_grid_generates_one_trace(self, tmp_path, monkeypatch):
        from repro.sweep.runner import clear_trace_cache

        clear_trace_cache()
        calls = self._count_generations(monkeypatch)
        spec = small_spec(cluster_counts=(2, 3, 4, 8))  # 8 configs, 1 workload
        store = ResultStore(str(tmp_path / "store.jsonl"))
        summary = run_sweep(spec.expand(), store, workers=1)
        assert summary.n_computed == 8
        assert len(calls) == 1

    def test_distinct_workloads_each_generated(self, tmp_path, monkeypatch):
        from repro.sweep.runner import clear_trace_cache

        clear_trace_cache()
        calls = self._count_generations(monkeypatch)
        spec = small_spec(seeds=(1, 2, 3))
        store = ResultStore(str(tmp_path / "store.jsonl"))
        run_sweep(spec.expand(), store, workers=1)
        assert len(calls) == 3  # one per seed, shared across the 4 configs

    def test_lru_bound_evicts_oldest(self, monkeypatch):
        import repro.sweep.runner as runner_mod
        from repro.sweep.runner import (
            TRACE_CACHE_SIZE,
            _cached_trace,
            clear_trace_cache,
        )

        clear_trace_cache()
        calls = self._count_generations(monkeypatch)
        for seed in range(TRACE_CACHE_SIZE + 1):
            _cached_trace("int_heavy", 100, seed)
        assert len(runner_mod._TRACE_CACHE) == TRACE_CACHE_SIZE
        # Seed 0 was evicted: fetching it again regenerates (and evicts
        # seed 1, now the oldest entry).
        n_before = len(calls)
        _cached_trace("int_heavy", 100, 0)
        assert len(calls) == n_before + 1
        # The most recent seed is still resident: no regeneration.
        _cached_trace("int_heavy", 100, TRACE_CACHE_SIZE)
        assert len(calls) == n_before + 1

    def test_redefined_mix_busts_the_cache(self, monkeypatch):
        from repro.common.types import InstrClass
        from repro.sweep.runner import _cached_trace, clear_trace_cache
        from repro.workloads import MIX_REGISTRY, WorkloadMix, register_mix

        clear_trace_cache()
        calls = self._count_generations(monkeypatch)
        mix = WorkloadMix(
            name="memo_mix",
            class_weights={InstrClass.INT_ALU: 0.7, InstrClass.LOAD: 0.3},
        )
        register_mix(mix)
        try:
            t1 = _cached_trace("memo_mix", 150, 9)
            assert _cached_trace("memo_mix", 150, 9) is t1
            assert len(calls) == 1
            # Same name, different definition: must regenerate.
            register_mix(
                WorkloadMix(
                    name="memo_mix",
                    class_weights={InstrClass.INT_ALU: 0.2,
                                   InstrClass.LOAD: 0.8},
                ),
                overwrite=True,
            )
            t2 = _cached_trace("memo_mix", 150, 9)
            assert len(calls) == 2
            assert t2 is not t1
        finally:
            MIX_REGISTRY.pop("memo_mix", None)


class TestProgressHooks:
    """The on_point_done / should_stop hooks the service is built on."""

    def test_on_point_done_called_in_expansion_order(self, tmp_path):
        spec = small_spec()
        store = ResultStore(str(tmp_path / "store.jsonl"))
        seen = []
        run_sweep(spec.expand(), store, workers=1,
                  on_point_done=lambda key, record, index:
                  seen.append((index, key, record["key"])))
        expected = [point.key() for point in spec.expand()]
        assert [key for _i, key, _rk in seen] == expected
        assert [index for index, _k, _rk in seen] == [0, 1, 2, 3]
        # the record passed to the hook is the durably-appended one
        assert all(key == record_key for _i, key, record_key in seen)

    def test_on_point_done_does_not_change_store_bytes(self, tmp_path):
        spec = small_spec()
        plain = str(tmp_path / "plain.jsonl")
        hooked = str(tmp_path / "hooked.jsonl")
        run_sweep(spec.expand(), ResultStore(plain), workers=1)
        run_sweep(spec.expand(), ResultStore(hooked), workers=1,
                  on_point_done=lambda *args: None)
        with open(plain, "rb") as fa, open(hooked, "rb") as fb:
            assert fa.read() == fb.read()

    def test_on_point_done_skips_cached_points(self, tmp_path):
        spec = small_spec()
        path = str(tmp_path / "store.jsonl")
        run_sweep(spec.expand(), ResultStore(path), workers=1)
        calls = []
        summary = run_sweep(spec.expand(), ResultStore(path), workers=1,
                            on_point_done=lambda *args: calls.append(args))
        assert summary.n_cached == 4
        assert calls == []

    def test_on_point_done_expansion_order_under_pool(self, tmp_path):
        spec = small_spec(cluster_counts=(2, 4, 8))  # 6 points >= pool floor
        store = ResultStore(str(tmp_path / "store.jsonl"))
        indexes = []
        run_sweep(spec.expand(), store, workers=2,
                  on_point_done=lambda _k, _r, index: indexes.append(index))
        assert indexes == sorted(indexes) == list(range(6))

    def test_should_stop_interrupts_with_durable_prefix(self, tmp_path):
        import pytest

        from repro.sweep.runner import SweepInterrupted

        spec = small_spec()
        path = str(tmp_path / "store.jsonl")
        reference = str(tmp_path / "reference.jsonl")
        run_sweep(spec.expand(), ResultStore(reference), workers=1)
        done = []
        store = ResultStore(path)
        with pytest.raises(SweepInterrupted) as err:
            run_sweep(spec.expand(), store, workers=1,
                      on_point_done=lambda *args: done.append(args),
                      should_stop=lambda: len(done) >= 2)
        summary = err.value.summary
        assert summary.interrupted
        assert summary.n_computed == 2
        # the flushed prefix is a byte prefix of the fault-free store...
        with open(reference, "rb") as fh:
            full = fh.read()
        with open(path, "rb") as fh:
            partial = fh.read()
        assert full.startswith(partial) and len(partial) < len(full)
        # ...and a plain re-run resumes it to byte-identical completion
        resumed = run_sweep(spec.expand(), ResultStore(path), workers=1)
        assert resumed.n_cached == 2 and resumed.n_computed == 2
        with open(path, "rb") as fh:
            assert fh.read() == full

    def test_should_stop_false_is_a_no_op(self, tmp_path):
        spec = small_spec()
        plain = str(tmp_path / "plain.jsonl")
        guarded = str(tmp_path / "guarded.jsonl")
        run_sweep(spec.expand(), ResultStore(plain), workers=1)
        summary = run_sweep(spec.expand(), ResultStore(guarded), workers=1,
                            should_stop=lambda: False)
        assert summary.n_computed == 4 and not summary.interrupted
        with open(plain, "rb") as fa, open(guarded, "rb") as fb:
            assert fa.read() == fb.read()


class TestEventDrivenPool:
    """The pool loop is woken by completions, not by its wait cap, and
    refills free workers before it appends finished records."""

    #: Far above the runtime of the whole 12-point sweep below.
    CAP_S = 2.0

    def _spec(self):
        return small_spec(cluster_counts=(2, 4, 8), seeds=(7, 8))  # 12 points

    def test_completions_wake_the_loop(self, tmp_path, monkeypatch):
        import time

        from repro.sweep import runner

        monkeypatch.setattr(runner, "_POLL_INTERVAL_S", self.CAP_S)
        store = ResultStore(str(tmp_path / "store.jsonl"))
        t0 = time.perf_counter()
        summary = run_sweep(self._spec().expand(), store, workers=2)
        assert summary.n_computed == 12
        # A loop that slept one cap per iteration would take >= 12 caps.
        assert time.perf_counter() - t0 < self.CAP_S

    def test_stress_more_workers_than_cores(self, tmp_path, monkeypatch):
        import sys
        import time

        from repro.sweep import runner

        monkeypatch.setattr(runner, "_POLL_INTERVAL_S", self.CAP_S)
        points = self._spec().expand()
        reference = str(tmp_path / "reference.jsonl")
        path = str(tmp_path / "store.jsonl")
        run_sweep(points, ResultStore(reference), workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            t0 = time.perf_counter()
            # 6 workers: the most this 12-point sweep runs a pool with.
            summary = run_sweep(points, ResultStore(path), workers=6)
            elapsed = time.perf_counter() - t0
        finally:
            sys.setswitchinterval(interval)
        assert summary.n_computed == 12
        assert elapsed < self.CAP_S  # no wake-up lost to the interleaving
        with open(reference, "rb") as fa, open(path, "rb") as fb:
            assert fa.read() == fb.read()

    def test_should_stop_noticed_under_a_long_cap(self, tmp_path,
                                                  monkeypatch):
        import time

        import pytest

        from repro.sweep import runner

        monkeypatch.setattr(runner, "_POLL_INTERVAL_S", self.CAP_S)
        points = self._spec().expand()
        reference = str(tmp_path / "reference.jsonl")
        path = str(tmp_path / "store.jsonl")
        run_sweep(points, ResultStore(reference), workers=1)
        done = []
        t0 = time.perf_counter()
        with pytest.raises(runner.SweepInterrupted) as err:
            run_sweep(points, ResultStore(path), workers=2,
                      on_point_done=lambda *args: done.append(args),
                      should_stop=lambda: len(done) >= 3)
        assert time.perf_counter() - t0 < self.CAP_S
        summary = err.value.summary
        assert summary.interrupted and 3 <= summary.n_computed < 12
        with open(reference, "rb") as fh:
            full = fh.read()
        with open(path, "rb") as fh:
            partial = fh.read()
        assert full.startswith(partial) and len(partial) < len(full)

    def test_workers_refilled_before_the_append(self, tmp_path, monkeypatch):
        from repro.sweep import runner

        dispatched = []  # points per chunk sent to a worker, in order
        real_send = runner._FrontierExecutor._send

        def counting_send(executor, worker, tasks):
            dispatched.append(len(tasks))
            real_send(executor, worker, tasks)

        monkeypatch.setattr(runner._FrontierExecutor, "_send", counting_send)
        points = self._spec().expand()
        total, n_workers = len(points), 2
        seen = []  # (points dispatched so far, emitted so far) at each append
        run_sweep(points, ResultStore(str(tmp_path / "store.jsonl")),
                  workers=n_workers,
                  on_point_done=lambda _k, _r, index:
                  seen.append((sum(dispatched), index + 1)))
        assert len(seen) == total
        # on_point_done fires right after the append: by then every worker
        # freed by the appended points already has its next point.
        for n_dispatched, emitted in seen:
            assert n_dispatched >= min(total, emitted + n_workers)

    def test_no_worker_outlives_its_sweep(self, tmp_path, monkeypatch):
        # A plain pooled sweep, one whose hung worker is replaced after a
        # timeout, and one cancelled by should_stop all join every worker
        # they started, the replaced one included.
        import multiprocessing

        from repro.exec import RetryPolicy
        from repro.faults import ENV_VARS, FAULT_HANG, FaultPlan
        from repro.sweep import runner

        points = self._spec().expand()
        run_sweep(points, ResultStore(str(tmp_path / "plain.jsonl")),
                  workers=2)
        assert multiprocessing.active_children() == []

        messages = []
        monkeypatch.setenv(ENV_VARS["point"], FaultPlan(
            sleep_s=30.0, scripted={points[3].key(): [FAULT_HANG]}).to_env())
        summary = run_sweep(
            points, ResultStore(str(tmp_path / "hang.jsonl")), workers=2,
            policy=RetryPolicy(backoff_s=0.01, timeout_s=0.5),
            log=messages.append)
        assert not summary.failures
        assert sum("worker replaced" in m for m in messages) == 1
        assert multiprocessing.active_children() == []

        monkeypatch.delenv(ENV_VARS["point"])
        done = []
        with pytest.raises(runner.SweepInterrupted):
            run_sweep(points, ResultStore(str(tmp_path / "stop.jsonl")),
                      workers=2, on_point_done=lambda *args: done.append(args),
                      should_stop=lambda: len(done) >= 3)
        assert multiprocessing.active_children() == []


class TestChunkedDispatch:
    """Workers take several points per message, sized by guided
    self-scheduling, and answer once per point; every point keeps its own
    outcome, and small shards still spread over every worker."""

    def test_pooled_sweep_sends_few_messages_per_point(self, tmp_path,
                                                       monkeypatch):
        # Every pipe message of a fault-free sweep passes the orchestrator:
        # it sends the chunks (and each worker's stop) and receives each
        # point's outcome.  One point per message plus a "started" report
        # made three messages per point.
        from multiprocessing.connection import Connection

        counts = {"send": 0, "recv": 0}
        for name in counts:
            real = getattr(Connection, name)

            def counting(conn, *args, _name=name, _real=real):
                counts[_name] += 1
                return _real(conn, *args)

            monkeypatch.setattr(Connection, name, counting)
        points = small_spec(cluster_counts=(2, 3, 4, 8),
                            steerings=("dependence", "round_robin", "modulo"),
                            seeds=(7, 8, 9, 10)).expand()
        assert len(points) == 96
        summary = run_sweep(points, ResultStore(str(tmp_path / "s.jsonl")),
                            workers=2)
        assert summary.n_computed == 96
        assert counts["recv"] == 96  # one outcome per point
        assert (counts["send"] + counts["recv"]) / 96 < 1.5

    def test_slot_reads_only_whole_writes(self):
        from repro.sweep import runner

        slot = runner._Slot()
        assert slot.read() is None
        slot.publish(3, 1, 12.5)
        assert slot.read() == (3, 1, 12.5)
        slot.cells[0] += 1  # a write in progress, or a worker killed in one
        assert slot.read() is None
        slot.cells[0] += 1
        slot.publish(-1, 0, 0.0)
        assert slot.read() is None

    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_small_shard_reaches_every_worker(self, tmp_path, monkeypatch,
                                              n_workers):
        from repro.faults import ENV_VARS, FAULT_HANG, FaultPlan
        from repro.sweep import runner

        pids = tmp_path / "pids.txt"
        real_execute = runner.execute_point

        def recording(payload):
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real_execute(payload)

        monkeypatch.setattr(runner, "execute_point", recording)
        # Every point sleeps 0.2 s on its first attempt, so no one worker
        # can drain the shard before the others start.
        monkeypatch.setenv(ENV_VARS["point"], FaultPlan(
            rates={FAULT_HANG: 1.0}, sleep_s=0.2, max_faults=1).to_env())
        points = small_spec(cluster_counts=(2, 4, 8)).expand()[:2 * n_workers]
        summary = run_sweep(points, ResultStore(str(tmp_path / "s.jsonl")),
                            workers=n_workers)
        assert summary.n_computed == 2 * n_workers
        seen = pids.read_text().split()
        assert len(seen) == 2 * n_workers
        assert len(set(seen)) == n_workers
        assert str(os.getpid()) not in seen

    def test_should_stop_lands_within_one_record(self, tmp_path):
        from repro.sweep.runner import SweepInterrupted

        # 12 points on 2 workers: records that arrive together reach the
        # frontier in one pass, and the cancel must land between them.
        points = small_spec(cluster_counts=(2, 4, 8), seeds=(7, 8)).expand()
        reference = str(tmp_path / "reference.jsonl")
        run_sweep(points, ResultStore(reference), workers=1)
        path = str(tmp_path / "store.jsonl")
        done = []
        with pytest.raises(SweepInterrupted) as err:
            run_sweep(points, ResultStore(path), workers=2,
                      on_point_done=lambda *args: done.append(args),
                      should_stop=lambda: len(done) >= 2)
        assert err.value.summary.n_computed == 2
        with open(reference, "rb") as fh:
            full = fh.read()
        with open(path, "rb") as fh:
            partial = fh.read()
        assert partial.count(b"\n") == 2 and full.startswith(partial)

    def test_should_stop_lands_between_records_released_together(
            self, tmp_path, monkeypatch):
        # Point 0 sleeps 0.5 s, so the other worker finishes point 1 (and
        # every point not queued behind 0) first, and they wait in the
        # frontier.  Point 0's completion then releases points 0 and 1 at
        # once; a cancel after the first record must land before the second.
        from repro.faults import ENV_VARS, FAULT_HANG, FaultPlan
        from repro.sweep.runner import SweepInterrupted

        points = small_spec(cluster_counts=(2, 4, 8), seeds=(7, 8)).expand()
        reference = str(tmp_path / "reference.jsonl")
        run_sweep(points, ResultStore(reference), workers=1)
        monkeypatch.setenv(ENV_VARS["point"], FaultPlan(
            sleep_s=0.5, scripted={points[0].key(): [FAULT_HANG]}).to_env())
        path = str(tmp_path / "store.jsonl")
        done = []
        with pytest.raises(SweepInterrupted) as err:
            run_sweep(points, ResultStore(path), workers=2,
                      on_point_done=lambda *args: done.append(args),
                      should_stop=lambda: len(done) >= 1)
        assert err.value.summary.n_computed == 1
        with open(reference, "rb") as fh:
            full = fh.read()
        with open(path, "rb") as fh:
            partial = fh.read()
        assert partial.count(b"\n") == 1 and full.startswith(partial)

    def test_chunk_whose_results_cannot_cross_reruns_point_by_point(
            self, tmp_path, monkeypatch):
        # Point 0's first attempt returns a record pickle rejects, so its
        # worker sends a RuntimeError in its place: point 0 alone is
        # charged, and its retry completes.
        import threading

        from repro.sweep import runner

        points = small_spec().expand()
        assert len(points) == 4
        bad = points[0].key()
        real_execute = runner.execute_point

        def unpicklable_once(payload):
            record, elapsed = real_execute(payload)
            if record["key"] == bad and payload["_attempt"] == 1:
                record = dict(record, lock=threading.Lock())
            return record, elapsed

        reference = str(tmp_path / "reference.jsonl")
        run_sweep(points, ResultStore(reference), workers=1)
        monkeypatch.setattr(runner, "execute_point", unpicklable_once)
        path = str(tmp_path / "store.jsonl")
        messages = []
        summary = run_sweep(points, ResultStore(path), workers=2,
                            log=messages.append)
        assert not summary.failures
        retried = [m for m in messages if "retry" in m]
        assert len(retried) == 1 and points[0].label() in retried[0]
        assert "RuntimeError" in retried[0]
        with open(reference, "rb") as fh, open(path, "rb") as gh:
            assert fh.read() == gh.read()

    def test_unpicklable_exception_is_charged_alone(self, tmp_path,
                                                     monkeypatch):
        # On attempt 1, point 1 raises a ValueError and point 2 an exception
        # pickle cannot carry back; the latter is charged as a RuntimeError
        # naming it, and the points around them complete.
        from repro.sweep import runner

        class LocalError(Exception):
            """Defined in a function, so pickle cannot find it by name."""

        points = small_spec().expand()
        labels = [point.label() for point in points]
        real_execute = runner.execute_point

        def flaky(payload):
            record, elapsed = real_execute(payload)
            if payload["_attempt"] == 1 and record["key"] == points[1].key():
                raise ValueError("bad point")
            if payload["_attempt"] == 1 and record["key"] == points[2].key():
                raise LocalError("cannot cross a process boundary")
            return record, elapsed

        reference = str(tmp_path / "reference.jsonl")
        run_sweep(points, ResultStore(reference), workers=1)
        monkeypatch.setattr(runner, "execute_point", flaky)
        path = str(tmp_path / "store.jsonl")
        messages = []
        summary = run_sweep(points, ResultStore(path), workers=2,
                            log=messages.append)
        assert not summary.failures and summary.n_computed == 4
        retried = {label: m for m in messages if "retry" in m
                   for label in labels if label in m}
        assert sorted(retried) == sorted(labels[1:3])
        assert "ValueError: bad point" in retried[labels[1]]
        assert ("RuntimeError: LocalError: cannot cross"
                in retried[labels[2]])
        with open(reference, "rb") as fh, open(path, "rb") as gh:
            assert fh.read() == gh.read()


class TestDefaultWorkers:
    def test_counts_the_affinity_mask(self, monkeypatch):
        from repro.sweep import runner

        monkeypatch.setattr(runner.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(runner.os, "sched_getaffinity",
                            lambda _pid: {0, 1, 2}, raising=False)
        assert runner.default_workers() == 3
        monkeypatch.setattr(runner.os, "sched_getaffinity",
                            lambda _pid: {5}, raising=False)
        assert runner.default_workers() == 2

    def test_falls_back_to_cpu_count(self, monkeypatch):
        from repro.sweep import runner

        monkeypatch.delattr(runner.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(runner.os, "cpu_count", lambda: 5)
        assert runner.default_workers() == 5
        monkeypatch.setattr(runner.os, "cpu_count", lambda: None)
        assert runner.default_workers() == 2


class TestBatchVariant:
    """kernel_variant="batch" runs one lane per point and writes the same
    bytes as every other variant."""

    def _bytes(self, path):
        with open(path, "rb") as fh:
            return fh.read()

    def test_store_byte_identical_inline_and_pool(self, tmp_path):
        spec = small_spec(cluster_counts=(2, 4, 8), seeds=(1, 2, 3))  # 18
        reference = str(tmp_path / "generic.jsonl")
        run_sweep(spec.expand(), ResultStore(reference), workers=1,
                  kernel_variant="generic")
        inline = str(tmp_path / "batch-inline.jsonl")
        summary = run_sweep(spec.expand(), ResultStore(inline), workers=1,
                            kernel_variant="batch")
        assert summary.kernel_variant == "batch"
        assert summary.n_computed == 18
        pooled = str(tmp_path / "batch-pool.jsonl")
        run_sweep(spec.expand(), ResultStore(pooled), workers=2,
                  kernel_variant="batch")
        assert self._bytes(inline) == self._bytes(reference)
        assert self._bytes(pooled) == self._bytes(reference)
