"""Differential fuzzing across all five kernel implementations.

~75 randomized ``(config, mix, seed)`` points, deliberately biased toward
the corners the specializer folds differently — non-power-of-two cluster
counts, ``bus.bandwidth > 1``, ``hop_latency > 1``, ``window_size == 1``,
zero-FP mixes on FP-less clusters — asserting that the naive
object-per-instruction oracle, the generic table-driven loop, the
per-config compiled specialized kernel, and the lane-vectorized batch
kernel agree on **every** :class:`KernelResult` field, not just cycles.
The C ``native`` kernel is held to the generic loop on the same points,
with the energy model as drawn and flipped.
The batch kernel is additionally fuzzed at real batch sizes: ragged lane
groups (mixed lengths, so batches span finished and still-running lanes,
single-instruction and B=1 degenerate shapes included) where every lane
must reproduce the generic kernel exactly, energy components with exact
integer equality.

The steering axis is drawn uniformly from ``repro.steering.list_policies()``
— the live registry — so every registered policy (the three built-ins, the
``load_balance``/``criticality`` plugins, and anything registered before
collection) is automatically under the differential, energy components
included.

Most points run with the per-event energy model enabled under randomized
integer costs, so the agreement extends to every ``energy`` breakdown
component with exact integer equality: the generic loop and the
specializer fold their breakdowns from loop-maintained counters, while the
naive oracle charges every cost at its event site — three independent
accountings of one model.  The remaining points keep the model off, which
keeps the pre-energy codegen path fuzzed too.
"""

import dataclasses
import os
import random
import sys

import pytest

from repro.common.config import BusConfig, ClusterConfig, ProcessorConfig
from repro.common.types import Topology
from repro.energy import ENERGY_COMPONENTS, EnergyConfig, FuEnergy
from repro.engine import (
    KernelResult,
    native,
    simulate,
    simulate_batch,
    simulate_native,
    simulate_specialized,
)
from repro.steering import list_policies
from repro.workloads import generate_trace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))

N_POINTS = 75
TRACE_LEN = 700

#: Every KernelResult field, derived from the dataclass so a newly added
#: field is fuzzed automatically (naive reports the same keys, plus ``ipc``).
FIELDS = tuple(f.name for f in dataclasses.fields(KernelResult))

#: ``int_heavy`` has no FP classes at all, so it must also run on clusters
#: with zero FP units; the remaining mixes keep the default cluster.
ZERO_FP_CLUSTER = ClusterConfig(fu_counts=(1, 1, 0, 0))

#: Policies the native kernel implements in C.
NATIVE_POLICIES = ("dependence", "modulo", "round_robin", "load_balance",
                   "criticality")


def random_energy(rng: random.Random) -> EnergyConfig:
    """Randomized integer cost vector (zero costs included on purpose)."""
    return EnergyConfig(
        enabled=True,
        fetch=rng.randrange(4),
        steer=rng.randrange(3),
        issue=rng.randrange(5),
        operand_read=rng.randrange(3),
        result_write=rng.randrange(3),
        bus_hop=rng.randrange(5),
        l1_hit=rng.randrange(3),
        l1_miss=rng.randrange(9),
        l2_miss=rng.randrange(40),
        wakeup=rng.randrange(3),
        fu=FuEnergy(
            int_alu=rng.randrange(3),
            int_mul=rng.randrange(6),
            int_div=rng.randrange(12),
            fp_add=rng.randrange(4),
            fp_mul=rng.randrange(8),
            fp_div=rng.randrange(16),
            load=rng.randrange(4),
            store=rng.randrange(4),
            branch=rng.randrange(3),
        ),
    )


def random_point(rng: random.Random):
    """One randomized (config, mix, seed) point."""
    mix = rng.choice(["int_heavy", "fp_heavy", "memory_bound", "branchy"])
    fetch_width = rng.choice([1, 2, 3, 4, 8])
    window_size = rng.choice([1, 2, 7, 32, 128, 200])
    if window_size < fetch_width:
        window_size = fetch_width
    if mix == "int_heavy" and rng.random() < 0.4:
        cluster = ZERO_FP_CLUSTER
    else:
        cluster = ClusterConfig(
            issue_width=rng.choice([1, 2, 4]),
            fu_counts=rng.choice([(1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 2, 2)]),
        )
    # ~80% of points fuzz the energy model; the rest keep the pre-energy
    # (model off) codegen path covered.
    energy = random_energy(rng) if rng.random() < 0.8 else EnergyConfig()
    cfg = ProcessorConfig(
        n_clusters=rng.choice([1, 2, 3, 4, 5, 6, 7, 8]),
        topology=rng.choice([Topology.RING, Topology.CONV]),
        fetch_width=fetch_width,
        window_size=window_size,
        frontend_depth=rng.choice([0, 2, 4]),
        # Uniform over the *registry*, so policies added via
        # repro.steering.register_policy (load_balance, criticality, future
        # plugins) are automatically under the differential without this
        # file changing.
        steering=rng.choice(list(list_policies())),
        cluster=cluster,
        bus=BusConfig(
            hop_latency=rng.choice([1, 1, 2, 3]),
            bandwidth=rng.choice([1, 1, 2, 4]),
            writeback_latency=rng.choice([0, 1, 2]),
        ),
        energy=energy,
    )
    return cfg, mix, rng.randrange(10_000)


def kernel_result_fields(result):
    return dataclasses.asdict(result)


@pytest.mark.parametrize("index", range(N_POINTS))
def test_four_way_agreement(index):
    from naive_ref import NaivePipeline

    rng = random.Random(0xA6E11A + index)
    cfg, mix, seed = random_point(rng)
    trace = generate_trace(mix, TRACE_LEN, seed=seed)

    naive = NaivePipeline(cfg).run(trace)
    generic = kernel_result_fields(simulate(trace, cfg))
    specialized = kernel_result_fields(simulate_specialized(trace, cfg))
    batch = kernel_result_fields(simulate_batch([trace], cfg)[0])

    label = f"point {index}: {cfg.describe()} mix={mix} seed={seed}"
    assert generic == specialized, f"generic vs specialized diverge: {label}"
    assert generic == batch, f"generic vs batch diverge: {label}"
    for field in FIELDS:
        assert naive[field] == generic[field], (
            f"naive vs kernel diverge on {field!r}: {label}: "
            f"{naive[field]!r} != {generic[field]!r}"
        )
    if cfg.energy.enabled:
        # Spell the per-component checks out (the dict equality above
        # already covers them) so a divergence names the component.
        for component in ENERGY_COMPONENTS + ("total",):
            assert (
                naive["energy"][component]
                == generic["energy"][component]
                == specialized["energy"][component]
            ), f"energy component {component!r} diverges: {label}"
        assert generic["energy"]["total"] == sum(
            generic["energy"][c] for c in ENERGY_COMPONENTS
        ), f"energy total is not the component sum: {label}"
    else:
        assert naive["energy"] is None
        assert generic["energy"] is None


@pytest.mark.skipif(native.find_compiler() is None,
                    reason="no C compiler on PATH")
@pytest.mark.parametrize("index", range(N_POINTS))
def test_native_agrees_with_generic(index, monkeypatch):
    """The C kernel on the same points, with the energy model both as drawn
    and flipped, equal to the generic loop on every field.  The five
    built-in policies must run in C: their fallback kernels raise here."""
    rng = random.Random(0xA6E11A + index)
    cfg, mix, seed = random_point(rng)
    trace = generate_trace(mix, TRACE_LEN, seed=seed)
    if cfg.steering in NATIVE_POLICIES:
        def no_fallback(*_args):
            raise AssertionError(f"{cfg.steering} fell back to Python")

        monkeypatch.setattr(native, "simulate", no_fallback)
        monkeypatch.setattr(native, "simulate_specialized", no_fallback)
    flipped = EnergyConfig(enabled=not cfg.energy.enabled)
    for point_cfg in (cfg, cfg.with_(energy=flipped)):
        label = f"point {index}: {point_cfg.describe()} mix={mix} seed={seed}"
        assert kernel_result_fields(simulate_native(trace, point_cfg)) == \
            kernel_result_fields(simulate(trace, point_cfg)), (
                f"generic vs native diverge: {label}")


@pytest.mark.parametrize("index", range(20))
def test_batched_ragged_lanes_agree_with_generic(index):
    """Real batch shapes: each randomized point becomes the first lane of
    a ragged batch (companion lanes drawn from the point's own mix, with
    degenerate and mismatched lengths so the batch spans finished and
    still-running lanes), and every lane must equal the generic kernel's
    result for that lane alone — energy components included, exactly."""
    rng = random.Random(0xBA7C4E + index)
    cfg, mix, seed = random_point(rng)
    n0 = rng.randrange(1, 400)
    lanes = [generate_trace(mix, n0, seed=seed)]
    # Companion lanes must share the point's mix: a zero-FP cluster only
    # accepts FP-free traces, and the config is shared batch-wide.
    for k in range(rng.randrange(1, 6)):
        length = rng.choice([1, 2, n0, rng.randrange(1, 500)])
        lanes.append(generate_trace(mix, length, seed=seed + 1000 + k))
    batch = simulate_batch(lanes, cfg)
    assert len(batch) == len(lanes)
    label = f"point {index}: {cfg.describe()} mix={mix} seed={seed}"
    for lane_index, (trace, lane_result) in enumerate(zip(lanes, batch)):
        reference = simulate(trace, cfg)
        assert lane_result == reference, (
            f"lane {lane_index} (n={len(trace)}) diverges: {label}"
        )
        if cfg.energy.enabled:
            for component in ENERGY_COMPONENTS + ("total",):
                assert lane_result.energy[component] == \
                    reference.energy[component], (
                        f"lane {lane_index} energy {component!r}: {label}"
                    )
