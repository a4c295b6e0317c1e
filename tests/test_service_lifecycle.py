"""``python -m repro.service serve`` as a process: start, signals, exit.

The server runs in a subprocess on ``--port 0``; the test reads the port
from its ``listening on`` log line, as the benchmark harness and the CI
smoke job do.  SIGTERM and SIGINT must each end it with status 0 within
10 s.  A first signal drains the running job; a second one cancels it,
and the prefix the job had already written stays in the store.
"""

import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.faults import ENV_VARS, FAULT_HANG, FaultPlan
from repro.service import ServiceClient
from repro.sweep.grid import SweepSpec
from repro.sweep.runner import run_sweep
from repro.sweep.store import ResultStore

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src")

#: Seconds a signalled service may take to exit.
EXIT_TIMEOUT_S = 10


def start_service(tmp_path, env_extra=None):
    """The serve process and the port it logged."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop(ENV_VARS["point"], None)
    env.update(env_extra or {})
    log_path = tmp_path / "service.log"
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve", "--port", "0",
             "--store", str(tmp_path / "store.jsonl")],
            stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            env=env, cwd=str(tmp_path),
        )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        found = re.search(r"listening on http://[^:]+:(\d+)",
                          log_path.read_text())
        if found:
            return proc, int(found.group(1)), log_path
        if proc.poll() is not None:
            break
        time.sleep(0.01)
    proc.kill()
    proc.wait()
    pytest.fail(f"no 'listening on' line:\n{log_path.read_text()}")


def wait_for(condition, what, timeout=30):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.01)


@pytest.fixture
def reaper():
    """Kills whatever serve process a failing test left running."""
    procs = []
    yield procs.append
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT],
                         ids=["SIGTERM", "SIGINT"])
def test_signal_stops_an_idle_service(tmp_path, reaper, signum):
    proc, port, log_path = start_service(tmp_path)
    reaper(proc)
    assert ServiceClient("127.0.0.1", port).health()["status"] == "ok"
    proc.send_signal(signum)
    assert proc.wait(EXIT_TIMEOUT_S) == 0, log_path.read_text()
    log = log_path.read_text()
    assert "service: shutting down (draining jobs)" in log
    assert "service: stopped" in log


def test_second_signal_cancels_the_running_job(tmp_path, reaper):
    spec = SweepSpec(name="lifecycle", topologies=("ring", "conv"),
                     cluster_counts=(2, 4), mixes=("int_heavy",),
                     n_instructions=2000, seeds=(1, 2))
    points = spec.expand()
    assert len(points) == 8
    # Point 3 hangs for a minute in its worker: the frontier stops behind
    # points 0-2, and a drain alone would wait the minute out.
    plan = FaultPlan(scripted={points[3].key(): (FAULT_HANG,)}, sleep_s=60)
    proc, port, log_path = start_service(
        tmp_path, {ENV_VARS["point"]: plan.to_env()})
    reaper(proc)
    client = ServiceClient("127.0.0.1", port)
    job_id = client.submit(spec.to_dict(), workers=2)["job_id"]
    store_path = tmp_path / "store.jsonl"
    wait_for(lambda: store_path.exists()
             and store_path.read_bytes().count(b"\n") == 3, "three records")

    proc.send_signal(signal.SIGTERM)
    wait_for(lambda: "(draining jobs)" in log_path.read_text(), "the drain")
    time.sleep(0.2)
    assert proc.poll() is None, "the drain did not wait for the job"
    proc.send_signal(signal.SIGINT)
    assert proc.wait(EXIT_TIMEOUT_S) == 0, log_path.read_text()
    assert "service: shutting down (cancelling jobs)" in log_path.read_text()

    run_sweep(points, ResultStore(str(tmp_path / "ref.jsonl")), workers=1)
    reference = (tmp_path / "ref.jsonl").read_bytes().splitlines(True)
    assert store_path.read_bytes() == b"".join(reference[:3])
    job_file = (tmp_path / "jobs" / f"{job_id}.json").read_text()
    assert '"state":"cancelled"' in job_file
