#!/usr/bin/env python
"""Engine benchmark: kernel-variant throughput, ring vs conv at 2/4/8 clusters.

The ring/conv x cluster-count matrix is declared as a
:class:`repro.sweep.SweepSpec` and computed through the sweep runner against
a persistent result store under ``.benchmarks/`` — so repeat benchmark runs
get their simulation results as cache hits and only re-measure wall-clock
throughput.  Throughput is timed for BOTH kernel variants on every matrix
cell (median of ``--repeats``): the ``generic`` table-driven loop
(:func:`repro.engine.simulate`) and the per-config compiled ``specialized``
kernel (:mod:`repro.engine.codegen`), plus the C ``native`` kernel
(:mod:`repro.engine.native`), and the harness asserts they produce
identical :class:`KernelResult` totals before reporting the speedup ratios.

The harness then races the deliberately naive object-per-instruction
reference (``bench/naive_ref.py``) on the same trace and configuration.  The
naive model is the correctness oracle — the harness asserts agreement on
every result field across all three models — and the acceptance bars are:

* ``generic``   >= ``--min-speedup`` x naive (default 3x, as before);
* ``specialized`` >= ``--min-specialized-speedup`` x generic (default 1.3x;
  the full-size run comfortably clears 1.5x — CI uses the lower bar because
  single-vCPU runners are noisy at smoke sizes);
* ``batch`` (:func:`repro.engine.simulate_batch`) >=
  ``--min-batch-speedup`` x specialized (default 3x) in AGGREGATE
  instructions/sec over the sweep-throughput matrix: each cell races one
  ``simulate_batch`` call over ``--batch-lanes`` traces against a
  specialized-kernel loop over the same traces, and the gate is the
  summed-time ratio across all six cells (per-cell ratios are reported but
  not individually gated).  The gate compares batch with the Python
  ``specialized`` kernel, not with what a sweep runs by default, which is
  now ``native``; every batch lane also runs through ``native``, checked
  and timed, so the report records native against batch at this lane
  count;
* ``native`` >= ``--min-native-speedup`` x specialized (default 3x) in
  AGGREGATE over the matrix: the summed median specialized time over the
  summed median native time across all six cells (per-cell ratios are
  reported, and the worst one is recorded).

Writes ``BENCH_engine.json`` at the repo root (override with ``--out``),
including both variants' instr/sec so the speedup ratio is tracked over time.

Usage::

    python bench/run_bench.py             # full run (~200k-instruction trace)
    python bench/run_bench.py --smoke     # CI-sized quick run
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import sys
import time
from typing import Dict

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.common.config import EnergyConfig, ProcessorConfig
from repro.common.types import Topology
from repro.engine import (
    KernelResult,
    get_kernel,
    simulate,
    simulate_batch,
    simulate_native,
)
from repro.exec import RetryPolicy
from repro.sweep import ResultStore, SweepSpec, run_sweep
from repro.workloads import generate_trace

from naive_ref import NaivePipeline

CLUSTER_COUNTS = (2, 4, 8)
TOPOLOGIES = (Topology.RING, Topology.CONV)

#: KernelResult fields the naive oracle must reproduce exactly — derived
#: from the dataclass so a newly added field is checked automatically (a
#: KeyError on the naive side then means the oracle wasn't taught it).
AGREEMENT_FIELDS = tuple(f.name for f in dataclasses.fields(KernelResult))


def time_variants(fns, repeats: int):
    """Interleaved median timing of several competing callables.

    Rounds alternate across *all* variants so an ambient slowdown (noisy
    single-vCPU CI runners) degrades every variant's round, not just one.
    Returns ``(medians, pairwise)`` where ``medians[i]`` is variant ``i``'s
    median seconds and ``pairwise[i][j]`` is the median of the per-round
    ``fns[i]_seconds / fns[j]_seconds`` ratios — the robust speedup
    estimate used for gating.
    """
    samples = [[] for _ in fns]
    for _ in range(repeats):
        for idx, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            samples[idx].append(time.perf_counter() - t0)
    medians = [statistics.median(s) for s in samples]
    pairwise = [
        [
            statistics.median(a / b for a, b in zip(samples[i], samples[j]))
            for j in range(len(fns))
        ]
        for i in range(len(fns))
    ]
    return medians, pairwise


def assert_variants_agree(topology: Topology, naive_result, kernel_result) -> None:
    """Field-by-field naive-vs-kernel agreement; raises on any mismatch."""
    kernel_dict = dataclasses.asdict(kernel_result)
    for name in AGREEMENT_FIELDS:
        if naive_result[name] != kernel_dict[name]:
            raise AssertionError(
                f"model divergence ({topology.value}): field {name!r} "
                f"naive={naive_result[name]!r} kernel={kernel_dict[name]!r}"
            )


def energy_per_instr(trace, cfg: ProcessorConfig):
    """Joules-proxy per instruction from BOTH kernel variants.

    Runs the trace through the generic and the specialized kernel with the
    per-event energy model enabled (default costs), asserts the breakdowns
    agree to the unit, and returns ``(generic_epi, specialized_epi)``.
    These runs are untimed: the throughput numbers are measured with the
    model off, which the emitted-source identity guarantees is free.
    """
    cfg_energy = cfg.with_(energy=EnergyConfig(enabled=True))
    generic_result = simulate(trace, cfg_energy)
    specialized_result = get_kernel(cfg_energy)(trace)
    if generic_result.energy != specialized_result.energy:
        raise AssertionError(
            f"energy divergence ({cfg.topology.value} x{cfg.n_clusters}): "
            f"generic={generic_result.energy!r} "
            f"specialized={specialized_result.energy!r}"
        )
    return generic_result.energy_per_instr, specialized_result.energy_per_instr


def bench_matrix(trace, args, store_path: str):
    """Drive the ring/conv matrix through the sweep runner, then time it.

    Returns ``(matrix, sweep_meta, worst_spec_speedup, native_aggregate,
    worst_native_speedup)``: the per-config result/throughput matrix keyed
    ``[topology][n_clusters]`` with every variant's throughput, the sweep
    summary fields, the worst specialized-over-generic ratio observed, and
    the native-over-specialized ratio in aggregate and on the worst cell.
    """
    spec = SweepSpec(
        name="bench-matrix",
        topologies=tuple(t.value for t in TOPOLOGIES),
        cluster_counts=CLUSTER_COUNTS,
        steerings=("dependence",),
        mixes=(args.mix,),
        n_instructions=args.n,
        seeds=(args.seed,),
    )
    points = spec.expand()
    store = ResultStore(store_path)
    # Fail fast: a silent retry would fold a failed attempt's wall-clock
    # into the cell it gates, polluting the speedup ratios.
    summary = run_sweep(points, store, workers=1,
                        policy=RetryPolicy(max_attempts=1))

    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    worst_spec_speedup = worst_native_speedup = float("inf")
    total_spec = total_native = 0.0
    n = len(trace)
    for point in points:
        record = store.get(point.key())
        assert record is not None, f"sweep runner left {point.label()} uncomputed"
        cycles = record["result"]["cycles"]
        ipc = n / cycles if cycles else 0.0
        cfg = point.config
        specialized = get_kernel(cfg)
        generic_result = simulate(trace, cfg)
        specialized_result = specialized(trace)
        if generic_result != specialized_result:
            raise AssertionError(
                f"kernel-variant divergence on {point.label()}: generic and "
                f"specialized KernelResult totals differ"
            )
        if generic_result != simulate_native(trace, cfg):
            raise AssertionError(
                f"kernel-variant divergence on {point.label()}: generic and "
                f"native KernelResult totals differ"
            )
        if generic_result.cycles != cycles:
            raise AssertionError(
                f"stored sweep record for {point.label()} disagrees with "
                f"generic kernel ({cycles} vs {generic_result.cycles} cycles)"
            )
        (generic_s, specialized_s, native_s), pairwise = time_variants(
            [lambda c=cfg: simulate(trace, c), lambda: specialized(trace),
             lambda c=cfg: simulate_native(trace, c)],
            args.repeats,
        )
        speedup = pairwise[0][1]
        native_speedup = pairwise[1][2]
        worst_spec_speedup = min(worst_spec_speedup, speedup)
        worst_native_speedup = min(worst_native_speedup, native_speedup)
        total_spec += specialized_s
        total_native += native_s
        generic_epi, specialized_epi = energy_per_instr(trace, cfg)
        topo_key = cfg.topology.value
        out.setdefault(topo_key, {})[str(cfg.n_clusters)] = {
            "instructions": n,
            "cycles": cycles,
            "ipc": round(ipc, 4),
            "generic_seconds": round(generic_s, 4),
            "generic_instr_per_sec": round(n / generic_s),
            "specialized_seconds": round(specialized_s, 4),
            "specialized_instr_per_sec": round(n / specialized_s),
            "specialized_speedup": round(speedup, 2),
            "native_seconds": round(native_s, 5),
            "native_instr_per_sec": round(n / native_s),
            "native_speedup": round(native_speedup, 2),
            "generic_energy_per_instr": round(generic_epi, 4),
            "specialized_energy_per_instr": round(specialized_epi, 4),
        }
        print(
            f"  kern {topo_key:4s} x{cfg.n_clusters}: ipc={ipc:6.3f}  "
            f"generic {n / generic_s / 1e3:7.0f} kinstr/s  "
            f"specialized {n / specialized_s / 1e3:7.0f} kinstr/s  "
            f"native {n / native_s / 1e3:7.0f} kinstr/s  "
            f"-> {speedup:.2f}x / {native_speedup:.2f}x  "
            f"epi={specialized_epi:.2f}"
        )
    sweep_meta = {
        "n_points": summary.n_points,
        "cache_hits": summary.n_cached,
        "computed": summary.n_computed,
    }
    native_aggregate = total_spec / total_native
    print(f"  native aggregate over matrix: {native_aggregate:.2f}x "
          f"specialized (worst cell {worst_native_speedup:.2f}x)")
    return (out, sweep_meta, worst_spec_speedup, native_aggregate,
            worst_native_speedup)


def bench_batch_sweep(args):
    """Batched sweep throughput: one ``simulate_batch`` call per matrix cell.

    The batch kernel's best case (the sweep runner never groups points, so
    no real sweep reaches it): every cell of the ring/conv x 2/4/8 matrix
    gets ``--batch-lanes`` same-key experiment points executed as one
    stacked kernel call, raced against the specialized kernel looped over
    the identical traces.  Rounds are interleaved (spec loop, then batch
    call, repeated) and each variant keeps its best (minimum) time per
    cell: at ~40s total the dominant noise source is ambient machine load,
    which only ever adds time, so min is the stable estimator where a
    median would need many more rounds to settle.

    The trace set is generated once and shared by all six cells.  The
    lane count and trace length are NOT shrunk under ``--smoke``: the batch
    kernel's advantage comes from amortizing per-instruction Python
    dispatch across lanes, so small smoke shapes (e.g. 256 lanes x 1000
    instructions) measure a genuinely different regime that sits well under
    the 3x bar.  Instead the smoke budget is held by capping this section
    at best-of-3 rounds (best-of-2 read 2.91-2.98x against a 3.0x bound
    in 2 of 3 to 2 of 7 runs on a 2-vCPU host).

    Every lane is also run through the C ``native`` kernel, timed the same
    way, so the report records native against batch at this lane count.

    Returns ``(cells, aggregate_speedup, native_vs_batch, repeats_used)``;
    per-lane result equality of batch and native against the specialized
    kernel is asserted on every cell.
    """
    lanes, n = args.batch_lanes, args.batch_n
    repeats = max(1, min(args.repeats, 3))
    print(f"generating {lanes} batch-lane traces (n={n}, shared across cells)")
    traces = [generate_trace(args.mix, n, seed=args.seed + k)
              for k in range(lanes)]

    cells: Dict[str, Dict[str, Dict[str, float]]] = {}
    total_spec = total_batch = total_native = 0.0
    for topology in TOPOLOGIES:
        for n_clusters in CLUSTER_COUNTS:
            cfg = ProcessorConfig(
                topology=topology, n_clusters=n_clusters,
                steering="dependence",
            )
            specialized = get_kernel(cfg)
            best_spec = best_batch = best_native = float("inf")
            spec_results = batch_results = native_results = None
            for _ in range(repeats):
                t0 = time.perf_counter()
                spec_results = [specialized(trace) for trace in traces]
                spec_s = time.perf_counter() - t0
                t0 = time.perf_counter()
                batch_results = simulate_batch(traces, cfg)
                batch_s = time.perf_counter() - t0
                t0 = time.perf_counter()
                native_results = [simulate_native(trace, cfg)
                                  for trace in traces]
                native_s = time.perf_counter() - t0
                best_spec = min(best_spec, spec_s)
                best_batch = min(best_batch, batch_s)
                best_native = min(best_native, native_s)
            for lane, (spec_r, batch_r, native_r) in enumerate(
                    zip(spec_results, batch_results, native_results)):
                for name, other in (("batch", batch_r), ("native", native_r)):
                    if spec_r != other:
                        raise AssertionError(
                            f"{name}-kernel divergence ({topology.value} "
                            f"x{n_clusters}) on lane {lane}: specialized "
                            f"and {name} KernelResult totals differ"
                        )
            total_spec += best_spec
            total_batch += best_batch
            total_native += best_native
            speedup = best_spec / best_batch
            total_instr = lanes * n
            cells.setdefault(topology.value, {})[str(n_clusters)] = {
                "lanes": lanes,
                "instructions_per_lane": n,
                "specialized_seconds": round(best_spec, 4),
                "specialized_instr_per_sec": round(total_instr / best_spec),
                "batch_seconds": round(best_batch, 4),
                "batch_instr_per_sec": round(total_instr / best_batch),
                "batch_speedup": round(speedup, 2),
                "native_seconds": round(best_native, 4),
                "native_instr_per_sec": round(total_instr / best_native),
            }
            print(
                f"  batch {topology.value:4s} x{n_clusters}: "
                f"specialized {total_instr / best_spec / 1e6:5.2f} Minstr/s  "
                f"batch {total_instr / best_batch / 1e6:5.2f} Minstr/s  "
                f"native {total_instr / best_native / 1e6:6.2f} Minstr/s  "
                f"-> {speedup:.2f}x"
            )
    aggregate = total_spec / total_batch
    native_vs_batch = total_batch / total_native
    print(f"  batch aggregate over matrix: {aggregate:.2f}x "
          f"(sum specialized {total_spec:.1f}s / sum batch {total_batch:.1f}s)")
    print(f"  native over batch at {lanes} lanes: {native_vs_batch:.2f}x "
          f"(sum batch {total_batch:.1f}s / sum native {total_native:.2f}s)")
    return cells, aggregate, native_vs_batch, repeats


def bench_naive_comparison(trace, repeats: int, n_clusters: int = 4):
    """Race naive vs generic vs specialized on the same trace/config."""
    n = len(trace)
    comparison = {}
    for topology in TOPOLOGIES:
        cfg = ProcessorConfig(n_clusters=n_clusters, topology=topology)
        naive = NaivePipeline(cfg)
        specialized = get_kernel(cfg)
        naive_result = naive.run(trace)
        generic_result = simulate(trace, cfg)
        specialized_result = specialized(trace)
        if generic_result != specialized_result:
            raise AssertionError(
                f"kernel-variant divergence ({topology.value}): generic and "
                f"specialized KernelResult totals differ"
            )
        assert_variants_agree(topology, naive_result, generic_result)
        # Energy model on: all three models must agree on the breakdown too
        # (the naive oracle charges every cost at its event site).
        cfg_energy = cfg.with_(energy=EnergyConfig(enabled=True))
        naive_energy = NaivePipeline(cfg_energy).run(trace)
        generic_energy = simulate(trace, cfg_energy)
        specialized_energy = get_kernel(cfg_energy)(trace)
        if generic_energy != specialized_energy:
            raise AssertionError(
                f"kernel-variant divergence ({topology.value}): energy-model "
                f"KernelResult totals differ"
            )
        assert_variants_agree(topology, naive_energy, generic_energy)
        epi = generic_energy.energy_per_instr
        (naive_s, generic_s, specialized_s), pairwise = time_variants(
            [
                lambda: naive.run(trace),
                lambda: simulate(trace, cfg),
                lambda: specialized(trace),
            ],
            repeats,
        )
        speedup = pairwise[0][1]
        spec_vs_naive = pairwise[0][2]
        comparison[topology.value] = {
            "n_clusters": n_clusters,
            "instructions": n,
            "results_match": True,
            "naive_instr_per_sec": round(n / naive_s),
            "generic_instr_per_sec": round(n / generic_s),
            "specialized_instr_per_sec": round(n / specialized_s),
            "speedup": round(speedup, 2),
            "specialized_vs_naive_speedup": round(spec_vs_naive, 2),
            "energy_per_instr": round(epi, 4),
        }
        print(
            f"  ref  {topology.value:4s} x{n_clusters}: "
            f"naive {n / naive_s / 1e3:6.0f} vs generic "
            f"{n / generic_s / 1e3:6.0f} vs specialized "
            f"{n / specialized_s / 1e3:6.0f} kinstr/s  "
            f"-> {speedup:.2f}x / {spec_vs_naive:.2f}x"
        )
    return comparison


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=200_000,
                        help="trace length for kernel throughput runs")
    parser.add_argument("--naive-n", type=int, default=50_000,
                        help="trace length for the naive-vs-kernel race")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats; instr/sec numbers are the median")
    parser.add_argument("--mix", default="int_heavy")
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="required generic-over-naive speedup")
    parser.add_argument("--min-specialized-speedup", type=float, default=1.3,
                        help="required specialized-over-generic speedup on "
                             "every matrix cell")
    parser.add_argument("--batch-lanes", type=int, default=1536,
                        help="lanes per simulate_batch call in the batched "
                             "sweep race (not shrunk by --smoke)")
    parser.add_argument("--batch-n", type=int, default=2000,
                        help="instructions per lane in the batched sweep "
                             "race (not shrunk by --smoke)")
    parser.add_argument("--min-batch-speedup", type=float, default=3.0,
                        help="required batch-over-specialized aggregate "
                             "instr/s ratio across the matrix")
    parser.add_argument("--min-native-speedup", type=float, default=3.0,
                        help="required native-over-specialized aggregate "
                             "ratio across the matrix")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (small traces)")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: <repo>/BENCH_engine.json)")
    args = parser.parse_args(argv)

    if args.smoke:
        # 50k instructions keeps the whole smoke run in CI-friendly time
        # while staying big enough that the specialized kernel's fixed
        # per-call cost (the vectorized pre-pass) does not distort the
        # variant speedup ratio the gate checks.
        args.n = min(args.n, 50_000)
        args.naive_n = min(args.naive_n, 10_000)
        # Short runs are noisier; more repeats keeps the median honest.
        args.repeats = max(args.repeats, 5)

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out_path = args.out or os.path.join(repo_root, "BENCH_engine.json")

    print(f"generating {args.mix!r} traces (n={args.n}, naive_n={args.naive_n}, "
          f"seed={args.seed})")
    trace = generate_trace(args.mix, args.n, seed=args.seed)
    naive_trace = generate_trace(args.mix, args.naive_n, seed=args.seed)

    store_path = os.path.join(repo_root, ".benchmarks", "bench_sweep_store.jsonl")
    print(f"kernel throughput via sweep runner (median of {args.repeats}):")
    (matrix, sweep_meta, worst_spec, native_aggregate,
     worst_native) = bench_matrix(trace, args, store_path)
    # Relative to the repo root, so the committed report names no host path.
    sweep_meta["store"] = os.path.relpath(store_path, repo_root)
    print(f"  sweep store: {sweep_meta['cache_hits']}/{sweep_meta['n_points']} "
          f"cache hits ({store_path})")
    print("batched sweep race (best-of interleaved rounds):")
    (batch_cells, batch_aggregate, native_vs_batch,
     batch_repeats) = bench_batch_sweep(args)
    print(f"naive object-per-instruction reference race (median of {args.repeats}):")
    comparison = bench_naive_comparison(naive_trace, args.repeats)

    worst_speedup = min(entry["speedup"] for entry in comparison.values())
    worst_spec_vs_naive = min(
        entry["specialized_vs_naive_speedup"] for entry in comparison.values()
    )
    report = {
        "meta": {
            "mix": args.mix,
            "seed": args.seed,
            "n_instructions": args.n,
            "naive_n_instructions": args.naive_n,
            "repeats": args.repeats,
            "smoke": args.smoke,
            "python": sys.version.split()[0],
        },
        "matrix": matrix,
        "sweep": sweep_meta,
        "batch_sweep": {
            "lanes": args.batch_lanes,
            "instructions_per_lane": args.batch_n,
            "repeats": batch_repeats,
            "cells": batch_cells,
            "aggregate_speedup": round(batch_aggregate, 2),
            "native_over_batch": round(native_vs_batch, 2),
        },
        "naive_comparison": comparison,
        "min_speedup_required": args.min_speedup,
        "worst_speedup": worst_speedup,
        "min_specialized_speedup_required": args.min_specialized_speedup,
        "worst_specialized_speedup": round(worst_spec, 2),
        "worst_specialized_vs_naive_speedup": worst_spec_vs_naive,
        "min_batch_speedup_required": args.min_batch_speedup,
        "batch_aggregate_speedup": round(batch_aggregate, 2),
        "min_native_speedup_required": args.min_native_speedup,
        "native_aggregate_speedup": round(native_aggregate, 2),
        "worst_native_speedup": round(worst_native, 2),
    }
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_path}")

    failed = False
    if worst_speedup < args.min_speedup:
        print(
            f"FAIL: generic kernel is only {worst_speedup:.2f}x faster than "
            f"the naive reference (required: {args.min_speedup:.1f}x)",
            file=sys.stderr,
        )
        failed = True
    if worst_spec < args.min_specialized_speedup:
        print(
            f"FAIL: specialized kernel is only {worst_spec:.2f}x faster than "
            f"the generic kernel on the worst matrix cell "
            f"(required: {args.min_specialized_speedup:.1f}x)",
            file=sys.stderr,
        )
        failed = True
    if batch_aggregate < args.min_batch_speedup:
        print(
            f"FAIL: batch kernel aggregate is only {batch_aggregate:.2f}x the "
            f"specialized kernel across the sweep matrix "
            f"(required: {args.min_batch_speedup:.1f}x)",
            file=sys.stderr,
        )
        failed = True
    if native_aggregate < args.min_native_speedup:
        print(
            f"FAIL: native kernel aggregate is only {native_aggregate:.2f}x "
            f"the specialized kernel across the matrix "
            f"(required: {args.min_native_speedup:.1f}x)",
            file=sys.stderr,
        )
        failed = True
    if failed:
        return 1
    print(f"OK: generic >= {args.min_speedup:.1f}x naive "
          f"(worst {worst_speedup:.2f}x); specialized >= "
          f"{args.min_specialized_speedup:.1f}x generic "
          f"(worst {worst_spec:.2f}x, {worst_spec_vs_naive:.2f}x naive); "
          f"batch aggregate >= {args.min_batch_speedup:.1f}x specialized "
          f"({batch_aggregate:.2f}x); native aggregate >= "
          f"{args.min_native_speedup:.1f}x specialized "
          f"({native_aggregate:.2f}x, worst cell {worst_native:.2f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
