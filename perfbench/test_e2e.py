"""Self-test of the benchmark harness on tiny (200-instruction) grids.

    python3 -m pytest perfbench/test_e2e.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import e2e  # noqa: E402

TINY = ["--instructions", "200", "--seconds", "1"]


def declared(section: str) -> dict:
    """``{name: unit}`` of one metric section of BENCHMARK.json, in order."""
    with open(os.path.join(e2e.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def printed(line: dict) -> dict:
    return {name: m["unit"] for name, m in line["metrics"].items()}


def run_cli(*args: str, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "e2e.py"), *args],
        capture_output=True, text=True, timeout=120, env=env,
    )


def last_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_untraced_run_prints_the_declared_end_to_end_metrics():
    line = last_line(run_cli("--workload", "sweep-long-inline", *TINY))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert list(printed(line).items()) == list(declared("end_to_end").items())
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_traced_run_prints_the_declared_layer_metrics_and_sane_spans(tmp_path):
    out = tmp_path / "traced.json"
    line = last_line(run_cli("--workload", "sweep-short-pool", "--trace", "1",
                             "--out", str(out), *TINY))
    assert list(printed(line).items()) == list(declared("per_layer").items())
    with open(out, encoding="utf-8") as fh:
        samples = json.load(fh)["results"][0]["samples"]
    checks = [s["span_check"] for s in samples if s["traced"]]
    assert checks
    for check in checks:
        assert check["min_self_s"] >= 0.0
        assert check["lanes"] >= 2  # the orchestrator and pool workers
        assert check["self_total_s"] <= check["wall_s"] * check["lanes"]


def test_a_flipped_store_byte_fails_with_exit_1(monkeypatch, capsys):
    spawn = e2e.spawn_repeat
    spawned = []

    def spawn_then_flip(*args, **kwargs):
        sample = spawn(*args, **kwargs)
        spawned.append(sample)
        if len(spawned) == 2:
            with open(sample["store"], "r+b") as fh:
                fh.seek(len(fh.read()) // 2)
                byte = fh.read(1)
                fh.seek(-1, os.SEEK_CUR)
                fh.write(bytes([byte[0] ^ 1]))
        return sample

    monkeypatch.setattr(e2e, "spawn_repeat", spawn_then_flip)
    assert e2e.main(["--workload", "sweep-long-inline", *TINY]) == 1
    out = capsys.readouterr().out
    assert "INCORRECT" in out
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False


@pytest.mark.parametrize("var", e2e.FAULT_ENV_VARS)
def test_fault_injection_env_is_refused_with_exit_2(var):
    env = dict(os.environ, **{var: "{}"})
    proc = run_cli("--workload", "sweep-long-inline", *TINY, env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
