"""Tests for the synthetic workload generator."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.types import FP_CLASSES, InstrClass
from repro.workloads import WorkloadMix, generate_trace, list_mixes


class TestMixRegistry:
    def test_all_four_paper_mixes_present(self):
        assert set(list_mixes()) == {
            "int_heavy", "fp_heavy", "memory_bound", "branchy"
        }

    def test_unknown_mix_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown workload mix"):
            generate_trace("spec2000", 10)

    def test_mix_validation(self):
        with pytest.raises(ConfigurationError):
            WorkloadMix(name="bad", class_weights={})
        with pytest.raises(ConfigurationError):
            WorkloadMix(name="bad", class_weights={InstrClass.INT_ALU: -1.0})
        with pytest.raises(ConfigurationError):
            WorkloadMix(name="bad", class_weights={InstrClass.INT_ALU: 1.0},
                        mispredict_rate=1.5)


class TestGeneration:
    def test_traces_are_structurally_valid(self):
        for mix in list_mixes():
            trace = generate_trace(mix, 2000, seed=1)
            trace.validate()  # raises TraceError on any violation

    def test_deterministic_for_same_arguments(self):
        a = generate_trace("int_heavy", 1500, seed=42)
        b = generate_trace("int_heavy", 1500, seed=42)
        assert a.opclass == b.opclass
        assert a.src1 == b.src1
        assert a.src2 == b.src2
        assert a.dst == b.dst
        assert a.flags == b.flags

    def test_different_seeds_differ(self):
        a = generate_trace("int_heavy", 1500, seed=1)
        b = generate_trace("int_heavy", 1500, seed=2)
        assert a.opclass != b.opclass or a.src1 != b.src1

    def test_length_and_empty(self):
        assert len(generate_trace("branchy", 0, seed=0)) == 0
        assert len(generate_trace("branchy", 333, seed=0)) == 333

    def test_negative_length_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_trace("branchy", -1)


class TestMixCharacter:
    """Each mix must actually stress what its name promises."""

    def test_int_heavy_has_no_fp(self):
        counts = generate_trace("int_heavy", 4000, seed=7).class_counts()
        assert all(counts[k] == 0 for k in FP_CLASSES)

    def test_fp_heavy_is_mostly_fp_datapath(self):
        counts = generate_trace("fp_heavy", 4000, seed=7).class_counts()
        fp = sum(counts[k] for k in FP_CLASSES)
        assert fp / 4000 > 0.35

    def test_memory_bound_memory_share(self):
        counts = generate_trace("memory_bound", 4000, seed=7).class_counts()
        mem = sum(counts[k] for k in InstrClass if k.is_memory)
        assert mem / 4000 > 0.45

    def test_branchy_branch_share_and_mispredicts(self):
        trace = generate_trace("branchy", 4000, seed=7)
        counts = trace.class_counts()
        branches = counts[InstrClass.BRANCH]
        assert branches / 4000 > 0.2
        from repro.engine.trace import FLAG_MISPREDICT
        mispredicted = sum(1 for f in trace.flags if f & FLAG_MISPREDICT)
        # ~12% of branches; loose band to stay seed-robust.
        assert 0.04 < mispredicted / branches < 0.25
