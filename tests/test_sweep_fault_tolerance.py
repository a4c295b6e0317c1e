"""Fault-tolerant sweep execution: flush frontier, retry/timeout/backoff,
resumable interrupts, and chaos determinism under repro.faults injection.

The governing invariant (ISSUE 6 / the abelian-networks correctness bar):
whatever workers crash, hang, raise, or get interrupted, the bytes that
reach the result store are always an expansion-order prefix of the
fault-free sweep — so a resumed run converges on a store byte-identical
to a single fault-free run.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.common.errors import ConfigurationError
from repro.exec import RetryPolicy
from repro.faults import (
    ENV_VARS,
    FAULT_DEATH,
    FAULT_EXCEPTION,
    FAULT_HANG,
    FAULT_OK,
    FaultPlan,
    clear_plan,
    install_plan,
)
from repro.sweep.grid import SweepSpec
from repro.sweep.runner import (
    FailureRecord,
    SweepInterrupted,
    run_sweep,
)
from repro.sweep.store import ResultStore

ENV_VAR = ENV_VARS["point"]
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def _no_leftover_plan(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    clear_plan()
    yield
    clear_plan()


def small_spec(**kwargs) -> SweepSpec:
    defaults = dict(
        name="ft",
        topologies=("ring", "conv"),
        cluster_counts=(2, 4),
        steerings=("dependence",),
        mixes=("int_heavy",),
        n_instructions=300,
        seeds=(7,),
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def reference_bytes(points, tmp_path, name="ref.jsonl") -> bytes:
    """Fault-free single-process store bytes for ``points``."""
    path = str(tmp_path / name)
    run_sweep(points, ResultStore(path), workers=1)
    with open(path, "rb") as fh:
        return fh.read()


def store_bytes(path) -> bytes:
    with open(str(path), "rb") as fh:
        return fh.read()


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert policy.timeout_s is None

    def test_backoff_doubles(self):
        policy = RetryPolicy(backoff_s=0.5)
        assert [policy.backoff_for(n) for n in (1, 2, 3)] == [0.5, 1.0, 2.0]

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError, match="backoff_s"):
            RetryPolicy(backoff_s=-1)
        with pytest.raises(ConfigurationError, match="timeout_s"):
            RetryPolicy(timeout_s=0)


class TestFlushFrontierDurability:
    """Regression for the data-loss bug: the seed runner buffered every
    record in memory and appended only after the full shard completed, so
    one failure at point N of M discarded all N-1 finished results."""

    def test_exception_at_last_point_keeps_prior_points(self, tmp_path):
        points = small_spec().expand()
        doomed = points[-1].key()
        install_plan(FaultPlan(scripted={doomed: [FAULT_EXCEPTION]}))
        store = ResultStore(str(tmp_path / "store.jsonl"))
        summary = run_sweep(
            points, store, workers=1, policy=RetryPolicy(max_attempts=1)
        )
        assert set(summary.failures) == {doomed}
        failure = summary.failures[doomed]
        assert isinstance(failure, FailureRecord)
        assert failure.error == "InjectedFault"
        assert failure.attempts == 1
        # The three finished points survived the failure on disk.
        reloaded = ResultStore(store.path)
        assert set(reloaded.keys()) == {p.key() for p in points[:-1]}
        assert summary.n_computed == 3

    def test_worker_death_mid_sweep_keeps_prior_points(self, tmp_path, monkeypatch):
        # Hard os._exit death of the worker holding point #2, no retries
        # and no timeout: the runner sees the worker exit, fails the point,
        # and the already-flushed prefix (points 0 and 1) stays durable.
        points = small_spec().expand()
        assert len(points) == 4
        doomed = points[2].key()
        plan = FaultPlan(scripted={doomed: [FAULT_DEATH]})
        monkeypatch.setenv(ENV_VAR, plan.to_env())
        store = ResultStore(str(tmp_path / "store.jsonl"))
        summary = run_sweep(
            points, store, workers=2, policy=RetryPolicy(max_attempts=1),
        )
        assert set(summary.failures) == {doomed}
        assert summary.failures[doomed].error == "WorkerDied"
        reloaded = ResultStore(store.path)
        assert points[0].key() in reloaded
        assert points[1].key() in reloaded
        assert doomed not in reloaded
        # Point 3 may have been computed, but the blocked frontier must
        # not have persisted it out of order.
        assert points[3].key() not in reloaded

    def test_failed_prefix_resume_reaches_fault_free_bytes(self, tmp_path):
        # A permanently-failed point blocks the frontier; once the fault
        # clears, re-running the sweep must land the byte-identical store
        # a fault-free run would have produced.
        points = small_spec().expand()
        ref = reference_bytes(points, tmp_path)
        path = str(tmp_path / "store.jsonl")
        install_plan(FaultPlan(scripted={points[1].key(): [FAULT_EXCEPTION]}))
        summary = run_sweep(
            points, ResultStore(path), workers=1,
            policy=RetryPolicy(max_attempts=1),
        )
        assert summary.n_computed == 1  # only point 0 reached the file
        assert summary.n_discarded == 2  # points 2, 3 computed past the block
        assert ref.startswith(store_bytes(path))
        clear_plan()
        resumed = run_sweep(points, ResultStore(path), workers=1)
        assert resumed.n_cached == 1
        assert resumed.n_computed == 3
        assert store_bytes(path) == ref


class TestRetryRecovery:
    def test_transient_exception_is_retried_to_success(self, tmp_path):
        points = small_spec().expand()
        ref = reference_bytes(points, tmp_path)
        flaky = points[2].key()
        install_plan(
            FaultPlan(scripted={flaky: [FAULT_EXCEPTION, FAULT_EXCEPTION]})
        )
        path = str(tmp_path / "store.jsonl")
        messages = []
        summary = run_sweep(
            points, ResultStore(path), workers=1,
            policy=RetryPolicy(max_attempts=3, backoff_s=0.01),
            log=messages.append,
        )
        assert not summary.failures
        assert summary.n_computed == 4
        assert store_bytes(path) == ref
        assert any("retry" in m and "backing off" in m for m in messages)

    def test_inline_demotes_fatal_faults_and_recovers(self, tmp_path):
        # Single-worker runs execute in the orchestrator process, where
        # injected death/hang are demoted to exceptions and retried.
        points = small_spec().expand()
        ref = reference_bytes(points, tmp_path)
        install_plan(
            FaultPlan(scripted={
                points[0].key(): [FAULT_DEATH],
                points[3].key(): [FAULT_HANG],
            })
        )
        path = str(tmp_path / "store.jsonl")
        summary = run_sweep(
            points, ResultStore(path), workers=1,
            policy=RetryPolicy(max_attempts=2, backoff_s=0.01),
        )
        assert not summary.failures
        assert store_bytes(path) == ref

    def test_worker_death_recovered_via_timeout_and_pool_replacement(
            self, tmp_path, monkeypatch):
        points = small_spec().expand()
        ref = reference_bytes(points, tmp_path)
        plan = FaultPlan(scripted={points[1].key(): [FAULT_DEATH]})
        monkeypatch.setenv(ENV_VAR, plan.to_env())
        path = str(tmp_path / "store.jsonl")
        messages = []
        summary = run_sweep(
            points, ResultStore(path), workers=2,
            policy=RetryPolicy(max_attempts=3, backoff_s=0.01, timeout_s=1.0),
            log=messages.append,
        )
        assert not summary.failures
        assert store_bytes(path) == ref
        # The death is seen as a death, not waited out as a timeout.
        retried = [m for m in messages if "retry" in m]
        assert len(retried) == 1 and "WorkerDied" in retried[0]
        assert sum("worker replaced" in m for m in messages) == 1

    def test_worker_death_without_timeout_is_recovered(
            self, tmp_path, monkeypatch):
        # Regression: with no timeout (the default), a worker that died
        # while running a point used to stall the sweep forever.
        import threading

        points = small_spec().expand()
        assert len(points) == 4
        ref = reference_bytes(points, tmp_path)
        plan = FaultPlan(scripted={points[1].key(): [FAULT_DEATH]})
        monkeypatch.setenv(ENV_VAR, plan.to_env())
        path = str(tmp_path / "store.jsonl")
        messages = []
        outcome = {}
        sweep = threading.Thread(target=lambda: outcome.update(
            summary=run_sweep(points, ResultStore(path), workers=2,
                              policy=RetryPolicy(), log=messages.append),
        ), daemon=True)
        sweep.start()
        sweep.join(30.0)
        assert not sweep.is_alive(), "sweep stalled behind a dead worker"
        assert not outcome["summary"].failures
        assert store_bytes(path) == ref
        retried = [m for m in messages if "retry" in m]
        assert len(retried) == 1 and points[1].label() in retried[0]
        assert "WorkerDied" in retried[0]

    def test_hung_worker_recovered_via_timeout(self, tmp_path, monkeypatch):
        points = small_spec().expand()
        ref = reference_bytes(points, tmp_path)
        plan = FaultPlan(
            sleep_s=30.0, scripted={points[2].key(): [FAULT_HANG]}
        )
        monkeypatch.setenv(ENV_VAR, plan.to_env())
        path = str(tmp_path / "store.jsonl")
        t0 = time.monotonic()
        summary = run_sweep(
            points, ResultStore(path), workers=2,
            policy=RetryPolicy(max_attempts=3, backoff_s=0.01, timeout_s=1.0),
        )
        # The 30 s hang must have been cut off by the 1 s timeout, not
        # waited out.
        assert time.monotonic() - t0 < 15.0
        assert not summary.failures
        assert store_bytes(path) == ref

    def test_deadline_runs_from_point_start_not_dispatch(
            self, tmp_path, monkeypatch):
        # Every point sleeps 0.6 x the timeout.  Each worker holds more
        # points in its pipe while it runs one, so a point waits at least
        # 0.6 timeouts before it starts and finishes 1.2 or more timeouts
        # after it was sent; only a clock started when each point starts
        # sees no timeout.  24 points on 2 workers.
        timeout = 0.5
        points = small_spec(cluster_counts=(2, 3, 4, 8),
                            seeds=(7, 8, 9)).expand()
        assert len(points) == 24
        ref = reference_bytes(points, tmp_path)
        plan = FaultPlan(rates={FAULT_HANG: 1.0}, sleep_s=0.6 * timeout,
                         max_faults=1)
        monkeypatch.setenv(ENV_VAR, plan.to_env())
        path = str(tmp_path / "store.jsonl")
        messages = []
        summary = run_sweep(
            points, ResultStore(path), workers=2,
            policy=RetryPolicy(max_attempts=3, backoff_s=0.01,
                               timeout_s=timeout),
            log=messages.append,
        )
        assert not summary.failures
        assert not [m for m in messages
                    if "retry" in m or "worker replaced" in m]
        assert store_bytes(path) == ref

    def test_hang_replaces_only_its_worker(self, tmp_path, monkeypatch):
        # 12 points on 2 workers; point 5 hangs for 30 s on attempt 1.
        # With two attempts allowed, any point charged once runs its last
        # attempt in-process, which the log names.  Only the hung worker
        # is replaced: exactly one new worker pid appears after the hang.
        # Each pool point takes 0.25 s, so the other worker is still busy
        # when the replacement starts, and the replacement gets work.
        import multiprocessing

        from repro.sweep import runner
        from repro.sweep.grid import ExperimentPoint

        points = small_spec(cluster_counts=(2, 4, 8), seeds=(7, 8)).expand()
        ref = reference_bytes(points, tmp_path)
        hung = points[5]
        plan = FaultPlan(sleep_s=30.0, scripted={hung.key(): [FAULT_HANG]})
        monkeypatch.setenv(ENV_VAR, plan.to_env())
        starts = tmp_path / "starts"
        real_execute = runner.execute_point

        def recording(payload):
            point = ExperimentPoint.from_dict(
                {k: v for k, v in payload.items() if not k.startswith("_")})
            with open(starts, "a") as fh:
                fh.write(f"{os.getpid()} {point.key()}\n")
            if multiprocessing.parent_process() is not None:
                time.sleep(0.25)
            return real_execute(payload)

        monkeypatch.setattr(runner, "execute_point", recording)
        path = str(tmp_path / "store.jsonl")
        messages = []
        t0 = time.monotonic()
        summary = run_sweep(
            points, ResultStore(path), workers=2,
            policy=RetryPolicy(max_attempts=2, backoff_s=0.01, timeout_s=1.0),
            log=messages.append,
        )
        assert time.monotonic() - t0 < 15.0
        assert not summary.failures
        retried = [m for m in messages if "retry" in m]
        assert len(retried) == 1 and hung.label() in retried[0]
        assert "TimeoutError" in retried[0]
        in_process = [m for m in messages if "in-process" in m]
        assert len(in_process) == 1 and hung.label() in in_process[0]
        assert sum("worker replaced" in m for m in messages) == 1
        assert store_bytes(path) == ref
        started = [line.split() for line in starts.read_text().splitlines()]
        pids = [int(pid) for pid, _key in started]
        hang_at = [key for _pid, key in started].index(hung.key())
        before = set(pids[:hang_at + 1])
        after = set(pids[hang_at + 1:]) - {os.getpid()}
        assert len(before) == 2 and len(after - before) == 1

    def test_sigkill_mid_chunk_charges_only_the_running_point(
            self, tmp_path, monkeypatch):
        # 16 points on 2 workers: the first chunk is points 0-3 (16 ready
        # points over twice the worker count).  Point 1 SIGKILLs its worker
        # on attempt 1.  Only point 1, which the worker's slot names, is
        # charged; points 2 and 3, sent in the same chunk but never
        # started, run again elsewhere as attempt 1.
        from repro.sweep import runner

        points = small_spec(cluster_counts=(2, 3, 4, 8),
                            seeds=(7, 8)).expand()
        assert len(points) == 16
        ref = reference_bytes(points, tmp_path)
        doomed = points[1]
        starts = tmp_path / "starts"
        chunks = []
        real_send = runner._FrontierExecutor._send
        real_execute = runner.execute_point

        def recording_send(executor, worker, tasks):
            chunks.append((worker.process.pid, [t.index for t in tasks]))
            real_send(executor, worker, tasks)

        def killing(payload):
            with open(starts, "a") as fh:
                fh.write(f"{os.getpid()} {payload['_key']} "
                         f"{payload['_attempt']}\n")
            if payload["_key"] == doomed.key() and payload["_attempt"] == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            return real_execute(payload)

        monkeypatch.setattr(runner._FrontierExecutor, "_send", recording_send)
        monkeypatch.setattr(runner, "execute_point", killing)
        path = str(tmp_path / "store.jsonl")
        messages = []
        summary = run_sweep(points, ResultStore(path), workers=2,
                            log=messages.append,
                            policy=RetryPolicy(max_attempts=3,
                                               backoff_s=0.01))
        assert not summary.failures
        assert store_bytes(path) == ref
        killed, first_chunk = chunks[0]
        assert first_chunk == [0, 1, 2, 3]
        retried = [m for m in messages if "retry" in m]
        assert len(retried) == 1 and doomed.label() in retried[0]
        assert "WorkerDied" in retried[0]
        assert sum("worker replaced" in m for m in messages) == 1
        runs = [line.split() for line in starts.read_text().splitlines()]
        attempts = {}
        for pid, key, attempt in runs:
            attempts.setdefault(key, []).append(int(attempt))
        assert attempts.pop(doomed.key()) == [1, 2]
        assert all(tries == [1] for tries in attempts.values())
        pids = {key: int(pid) for pid, key, _attempt in runs}
        assert pids[points[0].key()] == killed
        assert all(pids[p.key()] != killed for p in points[2:4])

    def test_hang_third_in_its_chunk_times_out_from_its_own_start(
            self, tmp_path, monkeypatch):
        # 16 points on 2 workers, first chunk points 0-3.  Each pool point
        # takes 0.3 s and point 2, third in the chunk, hangs on attempt 1.
        # It starts about 0.6 s after its chunk was sent, so a clock
        # started at the send would charge it 0.4 s into its run; it must
        # be charged no earlier than the timeout after its own start.
        import multiprocessing

        from repro.sweep import runner

        timeout = 1.0
        points = small_spec(cluster_counts=(2, 3, 4, 8),
                            seeds=(7, 8)).expand()
        ref = reference_bytes(points, tmp_path)
        hung = points[2]
        monkeypatch.setenv(ENV_VAR, FaultPlan(
            sleep_s=30.0, scripted={hung.key(): [FAULT_HANG]}).to_env())
        starts = tmp_path / "starts"
        sent_at = []
        real_send = runner._FrontierExecutor._send
        real_execute = runner.execute_point

        def recording_send(executor, worker, tasks):
            sent_at.append(([t.index for t in tasks], time.monotonic()))
            real_send(executor, worker, tasks)

        def recording(payload):
            with open(starts, "a") as fh:
                fh.write(f"{payload['_key']} {payload['_attempt']} "
                         f"{time.monotonic()!r}\n")
            if multiprocessing.parent_process() is not None:
                time.sleep(0.3)
            return real_execute(payload)

        monkeypatch.setattr(runner._FrontierExecutor, "_send", recording_send)
        monkeypatch.setattr(runner, "execute_point", recording)
        charged_at = []

        def log(message):
            if "retry" in message:
                charged_at.append((message, time.monotonic()))

        path = str(tmp_path / "store.jsonl")
        summary = run_sweep(
            points, ResultStore(path), workers=2, log=log,
            policy=RetryPolicy(max_attempts=3, backoff_s=0.01,
                               timeout_s=timeout))
        assert not summary.failures
        assert store_bytes(path) == ref
        first_chunk, chunk_sent = sent_at[0]
        assert first_chunk == [0, 1, 2, 3]
        runs = [line.split() for line in starts.read_text().splitlines()]
        started = {(key, int(attempt)): float(t) for key, attempt, t in runs}
        hang_start = started[(hung.key(), 1)]
        assert hang_start - chunk_sent >= 0.5  # it waited behind two points
        assert len(charged_at) == 1
        message, charged = charged_at[0]
        assert hung.label() in message and "TimeoutError" in message
        assert charged - hang_start >= 0.9 * timeout
        # Point 3 was still unstarted in the hung worker's chunk: it is
        # re-sent uncharged.
        assert [int(attempt) for key, attempt, _t in runs
                if key == points[3].key()] == [1]

    def test_idle_worker_killed_during_backoff_is_recovered(
            self, tmp_path, monkeypatch):
        # Point 0 raises on attempt 1.  While it backs off, both workers
        # sit idle and both are SIGKILLed.  Neither was running a point,
        # so each is replaced and nothing is charged; the retry then runs
        # on a replacement.
        import multiprocessing
        import threading

        from repro.sweep import runner

        points = small_spec().expand()
        assert len(points) == 4
        ref = reference_bytes(points, tmp_path)
        plan = FaultPlan(scripted={points[0].key(): [FAULT_EXCEPTION]})
        monkeypatch.setenv(ENV_VAR, plan.to_env())
        finished = tmp_path / "finished"
        real_execute = runner.execute_point

        def recording(payload):
            outcome = real_execute(payload)
            with open(finished, "a") as fh:
                fh.write("x")
            return outcome

        monkeypatch.setattr(runner, "execute_point", recording)
        messages = []

        def log(message):
            messages.append(message)
            if "retry" in message:
                # Wait for points 1-3, then for their workers to go back
                # to the task queue.
                give_up = time.monotonic() + 10.0
                while time.monotonic() < give_up and not (
                        finished.exists() and len(finished.read_text()) >= 3):
                    time.sleep(0.01)
                time.sleep(0.3)
                for worker in multiprocessing.active_children():
                    os.kill(worker.pid, signal.SIGKILL)

        path = str(tmp_path / "store.jsonl")
        outcome = {}
        sweep = threading.Thread(target=lambda: outcome.update(
            summary=run_sweep(
                points, ResultStore(path), workers=2, log=log,
                policy=RetryPolicy(max_attempts=3, backoff_s=0.01,
                                   timeout_s=1.0),
            )), daemon=True)
        sweep.start()
        sweep.join(30.0)
        assert not sweep.is_alive(), "sweep wedged behind a dead worker"
        assert not outcome["summary"].failures
        assert sum("retry" in m for m in messages) == 1
        assert sum("worker replaced" in m for m in messages) == 2
        assert not [m for m in messages if "in-process" in m]
        assert store_bytes(path) == ref

    def test_death_while_sending_is_charged(self, tmp_path, monkeypatch):
        # Every pool attempt of point 1 dies, as if killed, while pickling
        # its finished record.  Each death is charged, so the point reaches
        # its final attempt, which runs in-process and completes.
        import multiprocessing

        from repro.sweep import runner

        class DieWhenPickled:
            def __reduce__(self):
                os._exit(1)

        points = small_spec().expand()
        assert len(points) == 4
        ref = reference_bytes(points, tmp_path)
        real_execute = runner.execute_point
        doomed = points[1]

        def die_on_send(payload):
            record, elapsed = real_execute(payload)
            if record["key"] == doomed.key() and \
                    multiprocessing.parent_process() is not None:
                record = dict(record, poison=DieWhenPickled())
            return record, elapsed

        monkeypatch.setattr(runner, "execute_point", die_on_send)
        path = str(tmp_path / "store.jsonl")
        messages = []
        summary = run_sweep(
            points, ResultStore(path), workers=2, log=messages.append,
            policy=RetryPolicy(max_attempts=3, backoff_s=0.01),
        )
        assert not summary.failures
        retried = [m for m in messages if "retry" in m]
        assert len(retried) == 2
        assert all(doomed.label() in m and "WorkerDied" in m
                   for m in retried)
        in_process = [m for m in messages if "in-process" in m]
        assert len(in_process) == 1 and doomed.label() in in_process[0]
        assert sum("worker replaced" in m for m in messages) == 2
        assert store_bytes(path) == ref

    def test_final_attempt_runs_in_process(self, tmp_path, monkeypatch):
        # Both pool-dispatched attempts of one point die hard; the point
        # still completes because the last permitted attempt executes in
        # the orchestrator (graceful degradation), where the script has
        # run out of faults to inject.
        points = small_spec().expand()
        ref = reference_bytes(points, tmp_path)
        doomed = points[0].key()
        plan = FaultPlan(scripted={doomed: [FAULT_DEATH, FAULT_DEATH]})
        monkeypatch.setenv(ENV_VAR, plan.to_env())
        path = str(tmp_path / "store.jsonl")
        messages = []
        summary = run_sweep(
            points, ResultStore(path), workers=2,
            policy=RetryPolicy(max_attempts=3, backoff_s=0.01, timeout_s=1.0),
            log=messages.append,
        )
        assert not summary.failures
        assert store_bytes(path) == ref
        assert any("in-process" in m for m in messages)

    def test_summary_describe_names_failures(self, tmp_path):
        points = small_spec().expand()
        install_plan(FaultPlan(scripted={points[0].key(): [FAULT_EXCEPTION]}))
        summary = run_sweep(
            points, ResultStore(str(tmp_path / "s.jsonl")), workers=1,
            policy=RetryPolicy(max_attempts=1),
        )
        assert "1 FAILED" in summary.describe()
        assert "computed-but-unflushed" in summary.describe()


class TestChaosDeterminism:
    """Seeded injection across every fault type must leave the final store
    byte-identical to the fault-free run at every worker count."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_seeded_exception_storm(self, tmp_path, monkeypatch, workers):
        points = small_spec(cluster_counts=(2, 3, 4, 8)).expand()  # 8 points
        ref = reference_bytes(points, tmp_path)
        plan = FaultPlan(seed=2005, rates={FAULT_EXCEPTION: 0.6},
                         max_faults=2)
        monkeypatch.setenv(ENV_VAR, plan.to_env())
        path = str(tmp_path / f"chaos{workers}.jsonl")
        summary = run_sweep(
            points, ResultStore(path), workers=workers,
            policy=RetryPolicy(max_attempts=3, backoff_s=0.01),
        )
        assert not summary.failures
        assert summary.n_computed == 8
        assert store_bytes(path) == ref

    def test_mixed_faults_with_timeouts(self, tmp_path, monkeypatch):
        points = small_spec().expand()
        ref = reference_bytes(points, tmp_path)
        plan = FaultPlan(
            seed=7, max_faults=2, sleep_s=30.0,
            rates={FAULT_EXCEPTION: 0.35, FAULT_HANG: 0.15, FAULT_DEATH: 0.15},
        )
        # The seeded schedule must actually contain at least one fault in
        # the attempt window or this test would assert nothing.
        assert any(
            plan.decide(p.key(), a) for p in points for a in (1, 2)
        )
        monkeypatch.setenv(ENV_VAR, plan.to_env())
        path = str(tmp_path / "chaos.jsonl")
        summary = run_sweep(
            points, ResultStore(path), workers=2,
            policy=RetryPolicy(max_attempts=4, backoff_s=0.01, timeout_s=1.0),
        )
        assert not summary.failures
        assert store_bytes(path) == ref


def _spec_file(tmp_path, n_seeds=20, n_instructions=100_000) -> str:
    spec = {
        "name": "interrupt",
        "topologies": ["ring"],
        "cluster_counts": [4],
        "steerings": ["dependence"],
        "mixes": ["int_heavy"],
        "n_instructions": n_instructions,
        "seeds": list(range(n_seeds)),
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


def _sweep_argv(spec_path, store_path):
    return [
        sys.executable, "-m", "repro.sweep", "run",
        "--spec", spec_path, "--store", store_path, "--workers", "2",
    ]


def _cli_env():
    env = dict(os.environ)
    env.pop(ENV_VAR, None)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _assert_no_leaked_workers(store_path, deadline_s=5.0):
    """No process on the box may still reference our unique store path."""
    own = os.getpid()
    end = time.monotonic() + deadline_s
    while True:
        holders = []
        for pid_dir in os.listdir("/proc"):
            if not pid_dir.isdigit() or int(pid_dir) == own:
                continue
            try:
                with open(f"/proc/{pid_dir}/cmdline", "rb") as fh:
                    cmdline = fh.read()
            except OSError:
                continue
            if store_path.encode() in cmdline:
                holders.append(pid_dir)
        if not holders:
            return
        if time.monotonic() > end:
            raise AssertionError(
                f"leaked sweep processes still alive: {holders}"
            )
        time.sleep(0.1)


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_signal_interrupt_is_clean_and_resumable(tmp_path, signum):
    """Satellite: SIGINT/SIGTERM mid-sweep must tear down the pool (no
    leaked workers), keep the flushed expansion-order prefix, exit 130,
    and leave the store resumable to fault-free byte-identity."""
    spec_path = _spec_file(tmp_path)
    store_path = str(tmp_path / "interrupted.jsonl")
    ref_path = str(tmp_path / "reference.jsonl")
    env = _cli_env()

    proc = subprocess.Popen(
        _sweep_argv(spec_path, store_path), env=env, cwd=REPO_ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        # Let the run make some durable progress before interrupting.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if os.path.exists(store_path) and os.path.getsize(store_path) > 0:
                break
            if proc.poll() is not None:
                break
            time.sleep(0.02)
        if proc.poll() is None:
            proc.send_signal(signum)
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()

    _assert_no_leaked_workers(store_path)
    # Uninterrupted reference for the same spec.
    ref = subprocess.run(
        _sweep_argv(spec_path, ref_path), env=env, cwd=REPO_ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert ref.returncode == 0, ref.stderr
    ref_bytes = store_bytes(ref_path)

    if proc.returncode == 130:
        assert "re-run the same command to resume" in stderr
        # Whatever was flushed is an expansion-order prefix — modulo a
        # final line the interrupt may have cut mid-append, which a resume
        # recovers.
        partial = store_bytes(store_path) if os.path.exists(store_path) else b""
        complete_prefix = partial[: partial.rfind(b"\n") + 1]
        assert ref_bytes.startswith(complete_prefix)
        assert len(complete_prefix) < len(ref_bytes)
    else:
        # The sweep won the race and finished before the signal landed;
        # the resume checks below still verify byte-identity.
        assert proc.returncode == 0, (stdout, stderr)

    resume = subprocess.run(
        _sweep_argv(spec_path, store_path), env=env, cwd=REPO_ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert resume.returncode == 0, resume.stderr
    assert store_bytes(store_path) == ref_bytes


def test_interrupt_mid_run_raises_sweep_interrupted(tmp_path, monkeypatch):
    """API-level interrupt: a KeyboardInterrupt surfacing inside the run
    becomes SweepInterrupted carrying the partial summary, and the flushed
    prefix survives."""
    import repro.sweep.runner as runner_mod

    points = small_spec().expand()
    ref = reference_bytes(points, tmp_path)
    real_execute = runner_mod.execute_point
    calls = []

    def interrupting(payload):
        calls.append(payload)
        if len(calls) == 3:
            raise KeyboardInterrupt()
        return real_execute(payload)

    monkeypatch.setattr(runner_mod, "execute_point", interrupting)
    path = str(tmp_path / "store.jsonl")
    with pytest.raises(SweepInterrupted) as excinfo:
        run_sweep(points, ResultStore(path), workers=1)
    summary = excinfo.value.summary
    assert summary.interrupted
    assert summary.n_computed == 2
    assert "interrupted" in summary.describe()
    assert ref.startswith(store_bytes(path))
    # Resume completes to byte-identity.
    monkeypatch.setattr(runner_mod, "execute_point", real_execute)
    resumed = run_sweep(points, ResultStore(path), workers=1)
    assert resumed.n_cached == 2
    assert store_bytes(path) == ref
