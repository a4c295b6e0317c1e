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
        # Hard os._exit death of the worker holding point #2, no retries:
        # the runner detects it via the per-point timeout, fails the point,
        # and the already-flushed prefix (points 0 and 1) stays durable.
        points = small_spec().expand()
        assert len(points) == 4
        doomed = points[2].key()
        plan = FaultPlan(scripted={doomed: [FAULT_DEATH]})
        monkeypatch.setenv(ENV_VAR, plan.to_env())
        store = ResultStore(str(tmp_path / "store.jsonl"))
        summary = run_sweep(
            points, store, workers=2,
            policy=RetryPolicy(max_attempts=1, timeout_s=1.0),
        )
        assert set(summary.failures) == {doomed}
        assert summary.failures[doomed].error == "TimeoutError"
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
        assert any("pool replaced" in m for m in messages)

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
        # Every point sleeps 0.6 x the timeout.  A chunk of 4 points runs
        # for 2.4 timeouts, and the chunks queued behind it wait longer
        # still; only a clock started when each point starts sees no
        # timeout.  24 points on 2 workers: three chunks per worker.
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
                    if "retry" in m or "pool replaced" in m]
        assert store_bytes(path) == ref

    def test_hang_mid_chunk_charges_only_that_point(
            self, tmp_path, monkeypatch):
        # 12 points on 2 workers travel in chunks of 4; point 5 sits in the
        # middle of the second chunk and hangs for 30 s on attempt 1.  With
        # two attempts allowed, any point charged once runs its last attempt
        # in-process, which the log names.
        from repro.sweep.runner import POINTS_PER_TASK

        assert POINTS_PER_TASK == 4
        points = small_spec(cluster_counts=(2, 4, 8), seeds=(7, 8)).expand()
        ref = reference_bytes(points, tmp_path)
        hung = points[5]
        plan = FaultPlan(sleep_s=30.0, scripted={hung.key(): [FAULT_HANG]})
        monkeypatch.setenv(ENV_VAR, plan.to_env())
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
        assert sum("pool replaced" in m for m in messages) == 1
        assert store_bytes(path) == ref

    def test_idle_worker_killed_during_backoff_is_recovered(
            self, tmp_path, monkeypatch):
        # Point 0 raises on attempt 1.  While it backs off, both workers
        # sit idle in the pool's task queue, and both are SIGKILLed; the
        # one holding the queue's read lock dies with it, so the respawned
        # workers can never take the retry.  No point ever starts, so only
        # the no-progress watchdog can notice; the retry is not charged.
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
        replaced = [m for m in messages if "pool replaced" in m]
        assert len(replaced) == 1 and "without progress" in replaced[0]
        assert not [m for m in messages if "in-process" in m]
        assert store_bytes(path) == ref

    def test_death_after_a_chunk_finished_is_not_charged(
            self, tmp_path, monkeypatch):
        # The worker that runs chunk [0, 1] dies once, as if killed, while
        # pickling its results: both points finished, so neither is
        # charged; the chunk is re-dispatched once the pool has shown no
        # progress for the timeout.
        from repro.sweep import runner

        class DieWhenPickled:
            def __reduce__(self):
                os._exit(1)

        points = small_spec().expand()
        assert len(points) == 4
        ref = reference_bytes(points, tmp_path)
        real_execute = runner.execute_point
        last = points[1].key()
        died = tmp_path / "died"

        def die_on_send(payload):
            record, elapsed = real_execute(payload)
            if record["key"] == last and not died.exists():
                died.touch()
                record = dict(record, poison=DieWhenPickled())
            return record, elapsed

        monkeypatch.setattr(runner, "execute_point", die_on_send)
        path = str(tmp_path / "store.jsonl")
        messages = []
        summary = run_sweep(
            points, ResultStore(path), workers=2, log=messages.append,
            policy=RetryPolicy(max_attempts=2, backoff_s=0.01, timeout_s=1.0),
        )
        assert not summary.failures
        assert not [m for m in messages if "retry" in m]
        replaced = [m for m in messages if "pool replaced" in m]
        assert len(replaced) == 1 and "without progress" in replaced[0]
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
