"""repro.engine.batch: the lane-vectorized numpy kernel.

The equivalence contract — every lane of :func:`simulate_batch` equals
:func:`repro.engine.kernel.simulate` on that lane alone — is fuzzed
broadly in ``test_fuzz_kernels.py``; this file pins the surface: shapes
(B=1, ragged, empty), error paths (mixed specialization keys, config/lane
count mismatch, interpreted-only steering plugins), and the ``batch``
entry in the :class:`~repro.engine.Pipeline` variant selector.
"""

import pytest

from repro.common.config import ProcessorConfig
from repro.common.errors import ConfigurationError
from repro.common.types import Topology
from repro.energy import EnergyConfig
from repro.engine import (
    KERNEL_VARIANTS,
    Pipeline,
    resolve_kernel_variant,
    simulate,
    simulate_batch,
)
from repro.steering import STEERING_REGISTRY, SteeringPolicy, register_policy
from repro.workloads import generate_trace

RING = ProcessorConfig(topology=Topology.RING, n_clusters=4)
CONV = ProcessorConfig(topology=Topology.CONV, n_clusters=4)


class TestShapes:
    @pytest.mark.parametrize("cfg", [RING, CONV], ids=["ring", "conv"])
    def test_single_lane_equals_generic(self, cfg):
        trace = generate_trace("int_heavy", 500, seed=7)
        assert simulate_batch([trace], cfg) == [simulate(trace, cfg)]

    @pytest.mark.parametrize("cfg", [RING, CONV], ids=["ring", "conv"])
    def test_ragged_lanes_span_finished_and_running(self, cfg):
        # Lane lengths straddle each other: short lanes sit finished (NOP
        # padded) for most of the run while long lanes keep executing, and
        # none of that may leak across lanes.
        lanes = [
            generate_trace("branchy", n, seed=50 + n)
            for n in (300, 1, 300, 64, 2, 177)
        ]
        batch = simulate_batch(lanes, cfg)
        assert len(batch) == len(lanes)
        for trace, lane_result in zip(lanes, batch):
            assert lane_result == simulate(trace, cfg), len(trace)

    def test_empty_trace_lane(self):
        lanes = [
            generate_trace("int_heavy", 0, seed=1),
            generate_trace("int_heavy", 120, seed=2),
        ]
        batch = simulate_batch(lanes, RING)
        for trace, lane_result in zip(lanes, batch):
            assert lane_result == simulate(trace, RING)
        assert batch[0].n_instructions == 0
        assert batch[0].cycles == 0

    def test_all_lanes_empty(self):
        lanes = [generate_trace("int_heavy", 0, seed=s) for s in (1, 2)]
        batch = simulate_batch(lanes, CONV)
        for trace, lane_result in zip(lanes, batch):
            assert lane_result == simulate(trace, CONV)

    def test_empty_batch(self):
        assert simulate_batch([], RING) == []

    def test_identical_lanes_identical_results(self):
        trace = generate_trace("memory_bound", 250, seed=9)
        first, second = simulate_batch([trace, trace], RING)
        assert first == second == simulate(trace, RING)

    def test_per_lane_config_list(self):
        # Distinct config objects are fine as long as they share one
        # structural specialization key (differing only in, say, the
        # disabled energy model's cost fields).
        trace_a = generate_trace("int_heavy", 200, seed=3)
        trace_b = generate_trace("branchy", 150, seed=4)
        cfg_b = ProcessorConfig(
            topology=Topology.RING, n_clusters=4,
            energy=EnergyConfig(bus_hop=9),  # disabled: structurally equal
        )
        batch = simulate_batch([trace_a, trace_b], [RING, cfg_b])
        assert batch[0] == simulate(trace_a, RING)
        assert batch[1] == simulate(trace_b, cfg_b)


class TestErrors:
    def test_mixed_specialization_keys_rejected(self):
        traces = [generate_trace("int_heavy", 50, seed=s) for s in (1, 2)]
        other = ProcessorConfig(topology=Topology.RING, n_clusters=8)
        with pytest.raises(ConfigurationError, match="specialization key"):
            simulate_batch(traces, [RING, other])

    def test_config_count_mismatch_rejected(self):
        traces = [generate_trace("int_heavy", 50, seed=s) for s in (1, 2)]
        with pytest.raises(ConfigurationError, match="2 traces"):
            simulate_batch(traces, [RING])

    def test_interpreted_only_policy_names_the_escape_hatch(self):
        class _InterpretedOnly(SteeringPolicy):
            name = "test_interpreted_only"

            def make_generic(self, ctx):
                return lambda i, s1, s2, fetch_cycle: 0

            def make_naive(self, ctx):
                return lambda instr, fetch_cycle: 0

        register_policy(_InterpretedOnly())
        try:
            cfg = ProcessorConfig(steering="test_interpreted_only")
            trace = generate_trace("int_heavy", 100, seed=1)
            # The generic kernel runs it fine...
            assert simulate(trace, cfg).n_instructions == 100
            # ...but the batch kernel must refuse with a pointer to the
            # interpreted escape hatch, not crash mid-simulation.
            with pytest.raises(ConfigurationError,
                               match="kernel_variant='generic'"):
                simulate_batch([trace], cfg)
        finally:
            STEERING_REGISTRY.pop("test_interpreted_only", None)


class TestPipelineVariant:
    def test_batch_is_a_registered_variant(self):
        assert "batch" in KERNEL_VARIANTS
        assert resolve_kernel_variant("batch") == "batch"

    def test_pipeline_batch_variant_matches_generic(self):
        trace = generate_trace("fp_heavy", 400, seed=12)
        batch = Pipeline(RING, kernel_variant="batch").run(trace)
        generic = Pipeline(RING, kernel_variant="generic").run(trace)
        assert batch == generic

    def test_pipeline_batch_record_attribution(self):
        trace = generate_trace("int_heavy", 200, seed=13)
        record = Pipeline(RING, kernel_variant="batch").run_record(trace)
        reference = Pipeline(RING, kernel_variant="generic").run_record(trace)
        assert record == reference

    def test_env_var_selects_batch(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_VARIANT", "batch")
        assert Pipeline(RING).kernel_variant == "batch"

    def test_unknown_variant_error_lists_batch(self):
        with pytest.raises(ConfigurationError, match="batch"):
            resolve_kernel_variant("vectorised")
