#!/usr/bin/env python3
"""End-to-end sweep benchmark: the paper grid through the public entry points.

Each workload runs the 360-point paper grid (4 mixes x ring/conv x 2/4/8
clusters x 5 steering policies x seeds S, S+1, S+2) the way a user would,
through ``run_sweep`` or ``FabricCoordinator.run``.  Every repeat is a fresh
subprocess with an empty store, so trace and kernel caches start cold.  The
run repeats until ``--seconds`` have passed (at least three times), reports
the median of each end-to-end metric, and then checks the stores it wrote:
all repeats byte-identical, records in expansion order, a sample of points
re-simulated with the generic kernel, and, at the default seed and size,
the sha256 pinned in ``digests.json``.

    python3 perfbench/e2e.py                          # every workload
    python3 perfbench/e2e.py --workload sweep-short-pool --seed 7
    python3 perfbench/e2e.py --workload fabric-energy --trace 1

``--trace 1`` alternates untraced and traced repeats and reports the
per-layer metrics of :mod:`layers` instead; a traced repeat also re-runs
the grid against its full store (every point a cache hit) for
``rerun.pass_s`` and the grid and store layers behind it.  The last line
of standard output is one JSON object ``{correct, attempted, failed,
metrics}``; the full result, every sample included, goes to ``--out`` when
given.  Exit 0 when the outputs are correct, 1 when they are not, 2 on a
usage or environment error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import random
import re
import resource
import shutil
import signal
import subprocess
import sys
import time
from statistics import median
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
DIGESTS = os.path.join(HERE, "digests.json")

DEFAULT_SEED = 2005
DEFAULT_SECONDS = 40
MIN_REPEATS = 3
#: Warm re-run passes per traced repeat.
RERUN_PASSES = 10
#: Points per workload re-simulated with the generic kernel in the check.
CHECK_SAMPLES = 12
#: A repeat that takes longer than this is killed and fails the run.
CHILD_TIMEOUT_S = 150.0
PEER_START_TIMEOUT_S = 30.0
#: Fault injection would be measured as program time.
FAULT_ENV_VARS = ("REPRO_FAULTS", "REPRO_NET_FAULTS")

#: End-to-end metrics: name -> unit.
E2E_METRICS: Dict[str, str] = {
    "setup_s": "s",
    "sweep_s": "s",
    "sim_minstr_per_s": "Minstr/s",
    "peak_rss_mb": "MiB",
}


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    n_instructions: int
    execution: str          # "pool", "inline" or "fabric"
    energy: bool


#: Why each workload was chosen is in README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("sweep-short-pool", 2_000, "pool", False),
    Workload("sweep-long-inline", 10_000, "inline", False),
    Workload("fabric-energy", 10_000, "fabric", True),
)}


class BenchError(Exception):
    """A usage or environment problem: exit 2, print no result."""


def nproc() -> int:
    return min(4, len(os.sched_getaffinity(0)))


# -- one repeat, in its own process ----------------------------------------
def grid(workload: Workload, seed: int, n_instructions: int):
    """The paper grid at ``n_instructions`` with seeds S, S+1, S+2."""
    from repro.sweep import paper_spec

    spec = dataclasses.replace(
        paper_spec(n_instructions), seeds=(seed, seed + 1, seed + 2))
    if workload.energy:
        spec = dataclasses.replace(spec, base=(("energy.enabled", True),))
    return spec


def _start_peer(workdir: str) -> Tuple[subprocess.Popen, str]:
    log_path = os.path.join(workdir, "peer.log")
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.service", "serve",
             "--host", "127.0.0.1", "--port", "0", "--workers", "1",
             "--store", os.path.join(workdir, "peer.jsonl")],
            stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            cwd=workdir, env=child_env(),
        )
    return proc, log_path


def _await_peer(proc: subprocess.Popen, log_path: str) -> int:
    """Port of a started peer, once it answers ``/healthz``."""
    from repro.service.client import ServiceClient, ServiceError

    deadline = time.monotonic() + PEER_START_TIMEOUT_S
    port = None
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"service peer exited with {proc.returncode}")
        if port is None:
            with open(log_path, encoding="utf-8") as fh:
                found = re.search(r"listening on http://[^:]+:(\d+)", fh.read())
            port = int(found.group(1)) if found else None
        if port is not None:
            try:
                client = ServiceClient("127.0.0.1", port, timeout=5, retries=0)
                if client.health().get("status") == "ok":
                    return port
            except ServiceError:
                pass
        time.sleep(0.005)
    raise RuntimeError("service peer did not come up")


def _stop_peer(proc: subprocess.Popen) -> None:
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=20)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def run_repeat(args: argparse.Namespace) -> Dict[str, Any]:
    """One cold sweep (plus, traced, the warm re-runs); returns the
    sample."""
    tracer = None
    if args.trace:
        from layers import Tracer

        spill = os.path.join(args.workdir, "spans")
        os.makedirs(spill)
        tracer = Tracer(spill)
        tracer.install()
    from repro.fabric import FabricCoordinator, LocalBackend, PeerBackend
    from repro.common.errors import FabricError
    from repro.sweep import ResultStore, run_sweep

    workload = WORKLOADS[args.workload]
    workers = nproc() if workload.execution == "pool" else 1
    store_path = os.path.join(args.workdir, "store.jsonl")
    peer = coordinator = None
    try:
        if workload.execution == "fabric":
            peer, peer_log = _start_peer(args.workdir)
        spec = grid(workload, args.seed, args.instructions)
        points = spec.expand()
        store = ResultStore(store_path)
        if peer is not None:
            port = _await_peer(peer, peer_log)
            coordinator = FabricCoordinator([
                LocalBackend(os.path.join(args.workdir, "scratch"), workers=1),
                PeerBackend("127.0.0.1", port, workers=1),
            ])

        def sweep(store, points) -> None:
            """``points`` is called for the grid; the coordinator expands
            the spec itself."""
            if coordinator is None:
                run_sweep(points(), store, workers=workers)
                return
            try:
                coordinator.run(spec, store)
            except FabricError as exc:  # counted as failed points below
                print(f"fabric: {exc}", file=sys.stderr)

        t_setup = time.monotonic()
        sweep(store, lambda: points)
        t_sweep = time.monotonic()
        n_stored = len(store)
        passes = []
        for _ in range(RERUN_PASSES if tracer else 0):
            a = time.monotonic()
            sweep(ResultStore(store_path), spec.expand)
            passes.append((a, time.monotonic()))
    finally:
        if peer is not None:
            _stop_peer(peer)
    rss_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    sample = {
        "setup_s": t_setup - args.launched,
        "sweep_s": t_sweep - t_setup,
        "peak_rss_mb": rss_kib / 1024.0,
        "n_points": len(points),
        "n_stored": n_stored,
    }
    if tracer is not None:
        from layers import layer_metrics, span_check

        spans = tracer.collect()
        sample["layers"] = layer_metrics(spans, (t_setup, t_sweep), passes,
                                         workers)
        sample["span_check"] = span_check(spans, (t_setup, t_sweep))
    return sample


# -- the orchestrating process ---------------------------------------------
def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def spawn_repeat(workload: Workload, seed: int, n_instructions: int,
                 trace: bool, workdir: str) -> Dict[str, Any]:
    """Run one repeat in a fresh interpreter; kill its process group if it
    overruns, so no pool worker or peer outlives it."""
    os.makedirs(workdir)
    launched = time.monotonic()
    try:
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--repeat",
             "--workload", workload.name, "--seed", str(seed),
             "--instructions", str(n_instructions),
             "--trace", str(int(trace)),
             "--workdir", workdir, "--launched", repr(launched)],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
            cwd=workdir, env=child_env(), start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        if proc.returncode != 0:
            raise RuntimeError(
                f"{workload.name}: repeat exited with {proc.returncode}")
    except BaseException:
        shutil.rmtree(workdir, ignore_errors=True)
        raise
    sample = json.loads(out.strip().splitlines()[-1])
    sample.update(wall_s=time.monotonic() - launched, traced=trace,
                  workdir=workdir,
                  store=os.path.join(workdir, "store.jsonl"))
    return sample


def measure(workload: Workload, seed: int, n_instructions: int,
            seconds: float, trace: bool,
            samples: List[Dict[str, Any]]) -> None:
    """Append samples until ``seconds`` are spent (at least
    :data:`MIN_REPEATS` of them); under ``trace``, alternate untraced and
    traced repeats, starting untraced."""
    start = time.monotonic()
    while True:
        traced = trace and len(samples) % 2 == 1
        workdir = os.path.join(
            WORK, f"{workload.name}-{os.getpid()}-{len(samples)}")
        samples.append(
            spawn_repeat(workload, seed, n_instructions, traced, workdir))
        typical = median([s["wall_s"] for s in samples])
        if len(samples) >= MIN_REPEATS and \
                time.monotonic() - start + typical > seconds:
            return


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_store(workload: Workload, seed: int, n_instructions: int,
                store_bytes: bytes) -> List[str]:
    """Problems with one store, checked against the program itself: every
    grid point present once, in expansion order, with the current engine
    version, and a seeded sample of points re-simulated with the generic
    kernel to the same result."""
    from repro.engine import ENGINE_VERSION, Pipeline
    from repro.sweep import ExperimentPoint
    from repro.workloads import generate_trace

    problems = []
    try:
        records = [json.loads(line) for line in store_bytes.splitlines()]
    except ValueError as exc:
        return [f"store is not JSON lines ({exc})"]
    expected = [p.key() for p in grid(workload, seed, n_instructions).expand()]
    if [r.get("key") for r in records] != expected:
        problems.append(
            f"store holds {len(records)} records, not the {len(expected)} "
            "grid points in expansion order")
        return problems
    if any(r.get("engine_version") != ENGINE_VERSION for r in records):
        problems.append("a record carries another engine version")
    rng = random.Random(seed)
    for record in rng.sample(records, min(CHECK_SAMPLES, len(records))):
        point = ExperimentPoint.from_dict(record["point"])
        trace = generate_trace(point.mix, point.n_instructions,
                               seed=point.seed)
        again = Pipeline(point.config, kernel_variant="generic").run_record(trace)
        if point.key() != record["key"] or again["result"] != record["result"]:
            problems.append(
                f"{point.label()}: the generic kernel disagrees with the "
                "stored record")
    return problems


def verify(workload: Workload, seed: int, n_instructions: int,
           samples: Sequence[Dict[str, Any]]) -> Tuple[List[str], str]:
    """Problems with the outputs of all repeats, and their common digest."""
    digests = [sha256_file(s["store"]) for s in samples]
    problems = []
    if len(set(digests)) != 1:
        problems.append(
            f"repeats wrote different stores: {sorted(set(digests))}")
    with open(samples[0]["store"], "rb") as fh:
        problems += check_store(workload, seed, n_instructions, fh.read())
    with open(DIGESTS, encoding="utf-8") as fh:
        pinned = json.load(fh)
    from repro.engine import ENGINE_VERSION

    if seed == pinned["seed"] and \
            n_instructions == workload.n_instructions:
        if ENGINE_VERSION != pinned["engine_version"]:
            problems.append(
                f"ENGINE_VERSION is {ENGINE_VERSION!r} but the digests "
                f"were pinned at {pinned['engine_version']!r}")
        elif digests[0] != pinned["stores"][workload.name]:
            problems.append(
                f"store sha256 {digests[0]} differs from the pinned "
                f"{pinned['stores'][workload.name]}")
    return problems, digests[0]


def summarize(n_instructions: int, trace: bool,
              samples: Sequence[Dict[str, Any]]
              ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Medians over the samples: the declared metrics, and the fabric-only
    layer timings that are reported beside them under ``trace``."""
    plain = [s for s in samples if not s["traced"]]
    for s in samples:
        s["sim_minstr_per_s"] = s["n_points"] * n_instructions / \
            s["sweep_s"] / 1e6
    if not trace:
        return {name: {"value": median([s[name] for s in plain]),
                       "unit": unit}
                for name, unit in E2E_METRICS.items()}, {}
    from layers import FABRIC_TIMINGS, LAYER_METRICS

    traced = [s for s in samples if s["traced"]]
    values = {name: median([s["layers"][name] for s in traced])
              for name in traced[0]["layers"]}
    values["trace.overhead_frac"] = (
        median([s["sweep_s"] for s in traced])
        / median([s["sweep_s"] for s in plain]) - 1.0)
    return ({name: {"value": values[name], "unit": unit}
             for name, unit in LAYER_METRICS.items()},
            {name: {"value": values[name], "unit": unit}
             for name, unit in FABRIC_TIMINGS.items()})


def meta() -> Dict[str, Any]:
    import numpy
    from repro.engine import ENGINE_VERSION

    return {
        "kernel_variant": os.environ.get("REPRO_KERNEL_VARIANT", "default"),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "engine_version": ENGINE_VERSION,
        "machine": platform.machine(),
    }


def run_workload(workload: Workload, seed: int, n_instructions: int,
                 seconds: float, trace: bool) -> Dict[str, Any]:
    samples: List[Dict[str, Any]] = []
    try:
        measure(workload, seed, n_instructions, seconds, trace, samples)
        problems, digest = verify(workload, seed, n_instructions, samples)
    finally:
        for s in samples:
            shutil.rmtree(s.pop("workdir"), ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run is still using it
    metrics, extra = summarize(n_instructions, trace, samples)
    attempted = sum(s["n_points"] for s in samples)
    failed = sum(s["n_points"] - s["n_stored"] for s in samples)
    return {
        "workload": workload.name, "seed": seed,
        "instructions": n_instructions, "trace": int(trace),
        "correct": not problems, "problems": problems, "digest": digest,
        "attempted": attempted, "failed": failed,
        "metrics": metrics, "extra_metrics": extra,
        "samples": [{k: v for k, v in s.items() if k != "store"}
                    for s in samples],
    }


def report(result: Dict[str, Any]) -> None:
    """Human-readable lines for one workload (before the JSON line)."""
    samples = result["samples"]
    print(f"{result['workload']}: seed {result['seed']}, "
          f"{result['instructions']} instr/point, {len(samples)} repeats "
          f"({sum(s['traced'] for s in samples)} traced), "
          f"{result['failed']}/{result['attempted']} points failed")
    print(f"  store sha256 {result['digest']}")
    for problem in result["problems"]:
        print(f"  INCORRECT: {problem}")
    shown = dict(result["metrics"], **result["extra_metrics"])
    for name, m in shown.items():
        per = [s[name] for s in samples if name in s and not s["traced"]]
        tail = "  [" + ", ".join(f"{v:.4g}" for v in per) + "]" if per else ""
        print(f"  {name:30s} {m['value']:12.6g} {m['unit']}{tail}")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="workload to run (default: all of them)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="first of the three grid seeds "
                             f"(default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measurement time per workload "
                             f"(default {DEFAULT_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced "
                             "repeats")
    parser.add_argument("--instructions", type=int, default=None,
                        help="instructions per point (default: the "
                             "workload's own; other sizes skip the pinned "
                             "digests)")
    parser.add_argument("--out", help="write the full results here (JSON)")
    parser.add_argument("--repeat", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--launched", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(SRC, "repro", "sweep",
                                           "__init__.py")):
            raise BenchError(f"no repro package under {SRC}")
        set_faults = [v for v in FAULT_ENV_VARS if v in os.environ]
        if set_faults:
            raise BenchError(
                f"{', '.join(set_faults)} set: injected faults would be "
                "measured as program time")
        if args.seconds <= 0 or (args.instructions is not None
                                 and args.instructions < 1):
            raise BenchError("--seconds and --instructions must be positive")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.repeat:
        print(json.dumps(run_repeat(args)))
        return 0

    # SIGTERM unwinds like an exception, so a running repeat's process
    # group is still killed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    names = [args.workload] if args.workload else list(WORKLOADS)
    info = meta()
    print("meta: " + json.dumps(info))
    results = []
    for name in names:
        workload = WORKLOADS[name]
        n = args.instructions or workload.n_instructions
        try:
            result = run_workload(workload, args.seed, n, args.seconds,
                                  bool(args.trace))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        results.append(result)
        report(result)
        print(json.dumps({key: result[key] for key in
                          ("correct", "attempted", "failed", "metrics")}),
              flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"meta": info, "results": results}, fh, indent=1)
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
