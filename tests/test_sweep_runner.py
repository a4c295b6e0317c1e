"""Sweep runner: determinism, caching, sharding, correctness vs the engine."""

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

    def test_wake_ahead_of_readiness_is_not_lost(self, tmp_path,
                                                 monkeypatch):
        import time

        from repro.sweep import runner

        # The pool runs a task's callback just before it marks the result
        # ready; widen that gap so the loop always sees the wake first.
        real_on_settled = runner._FrontierExecutor._on_settled

        def late_ready(executor, task, outcome):
            real_on_settled(executor, task, outcome)
            time.sleep(0.02)

        monkeypatch.setattr(runner._FrontierExecutor, "_on_settled",
                            late_ready)
        monkeypatch.setattr(runner, "_POLL_INTERVAL_S", self.CAP_S)
        store = ResultStore(str(tmp_path / "store.jsonl"))
        t0 = time.perf_counter()
        summary = run_sweep(self._spec().expand(), store, workers=2)
        assert summary.n_computed == 12
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
        import multiprocessing.pool

        dispatched = []
        real_apply_async = multiprocessing.pool.Pool.apply_async

        def counting_apply_async(pool, func, *args, **kwargs):
            dispatched.append(func)
            return real_apply_async(pool, func, *args, **kwargs)

        monkeypatch.setattr(multiprocessing.pool.Pool, "apply_async",
                            counting_apply_async)
        points = self._spec().expand()
        total, n_workers = len(points), 2
        seen = []  # (dispatched so far, emitted so far) at each append
        run_sweep(points, ResultStore(str(tmp_path / "store.jsonl")),
                  workers=n_workers,
                  on_point_done=lambda _k, _r, index:
                  seen.append((len(dispatched), index + 1)))
        assert len(seen) == total
        # on_point_done fires right after the append: by then every worker
        # freed by the appended points already has its next point.
        for n_dispatched, emitted in seen:
            assert n_dispatched >= min(total, emitted + n_workers)


class TestBatchVariant:
    """kernel_variant="batch": the runner groups same-specialization-key
    points into single vectorized kernel calls, without touching bytes."""

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

    def test_groups_by_specialization_key(self, tmp_path):
        # 4 distinct machine shapes x 3 seeds: 4 batched calls of 3 lanes.
        spec = small_spec(seeds=(1, 2, 3))
        messages = []
        run_sweep(spec.expand(), ResultStore(str(tmp_path / "s.jsonl")),
                  workers=1, kernel_variant="batch", log=messages.append)
        batched = [m for m in messages if "batch variant:" in m]
        assert len(batched) == 1
        assert "12 of 12 point(s) in 4 batched kernel call(s)" in batched[0]

    def test_oversize_groups_chunk_to_max_lanes(self, tmp_path):
        from repro.sweep.runner import MAX_BATCH_LANES

        n_seeds = MAX_BATCH_LANES + 3
        spec = small_spec(topologies=("ring",), cluster_counts=(2,),
                          n_instructions=60, seeds=tuple(range(n_seeds)))
        reference = str(tmp_path / "generic.jsonl")
        run_sweep(spec.expand(), ResultStore(reference), workers=1,
                  kernel_variant="generic")
        batch = str(tmp_path / "batch.jsonl")
        messages = []
        run_sweep(spec.expand(), ResultStore(batch), workers=1,
                  kernel_variant="batch", log=messages.append)
        joined = "\n".join(messages)
        assert (f"{n_seeds} of {n_seeds} point(s) in 2 "
                "batched kernel call(s)") in joined
        assert self._bytes(batch) == self._bytes(reference)

    def test_singleton_groups_fall_back_to_per_point(self, tmp_path):
        # Every point has its own specialization key: nothing batches, the
        # per-point path runs the batch kernel with one lane, bytes match.
        spec = small_spec()
        reference = str(tmp_path / "generic.jsonl")
        run_sweep(spec.expand(), ResultStore(reference), workers=1,
                  kernel_variant="generic")
        batch = str(tmp_path / "batch.jsonl")
        messages = []
        summary = run_sweep(spec.expand(), ResultStore(batch), workers=1,
                            kernel_variant="batch", log=messages.append)
        assert not any("batch variant:" in m for m in messages)
        assert summary.n_computed == 4
        assert self._bytes(batch) == self._bytes(reference)

    def test_execute_batch_records_match_execute_point(self):
        from repro.sweep.runner import _payload_for, execute_batch

        spec = small_spec(topologies=("conv",), cluster_counts=(4,),
                          seeds=(1, 2, 3))
        points = spec.expand()
        payloads = [_payload_for(point) for point in points]
        batched = execute_batch(payloads)
        assert len(batched) == len(points)
        for payload, (record, elapsed) in zip(payloads, batched):
            reference, _ = execute_point(dict(payload))
            assert record == reference
            assert elapsed >= 0

    def test_failed_batch_demotes_to_per_point(self, tmp_path, monkeypatch):
        # Every point's first attempt raises an injected fault, so every
        # batched call fails wholesale; each member is charged one attempt
        # and recomputed point by point — converging on identical bytes.
        from repro.exec import RetryPolicy
        from repro.faults import ENV_VARS, FaultPlan

        spec = small_spec(seeds=(1, 2, 3))
        reference = str(tmp_path / "generic.jsonl")
        run_sweep(spec.expand(), ResultStore(reference), workers=1,
                  kernel_variant="generic")
        monkeypatch.setenv(
            ENV_VARS["point"],
            FaultPlan(seed=5, rates={"exception": 1.0},
                      max_faults=1).to_env(),
        )
        batch = str(tmp_path / "batch.jsonl")
        messages = []
        summary = run_sweep(
            spec.expand(), ResultStore(batch), workers=1,
            kernel_variant="batch", log=messages.append,
            policy=RetryPolicy(max_attempts=3, backoff_s=0.0),
        )
        assert summary.n_computed == 12
        assert not summary.failures
        assert any("retry" in m for m in messages)
        assert self._bytes(batch) == self._bytes(reference)
