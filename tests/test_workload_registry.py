"""The workload-mix registry: enumeration, lookup errors, registration."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.types import InstrClass
from repro.workloads import (
    MIX_REGISTRY,
    WorkloadMix,
    generate_trace,
    get_mix,
    list_mixes,
    register_mix,
)


class TestRegistry:
    def test_list_mixes_sorted_and_complete(self):
        assert list_mixes() == tuple(sorted(MIX_REGISTRY))
        assert set(list_mixes()) >= {
            "int_heavy", "fp_heavy", "memory_bound", "branchy",
        }

    def test_get_mix_returns_registered(self):
        assert get_mix("int_heavy") is MIX_REGISTRY["int_heavy"]

    def test_get_mix_unknown_lists_valid_names(self):
        with pytest.raises(ConfigurationError) as err:
            get_mix("spec2000")
        message = str(err.value)
        assert "spec2000" in message
        for name in list_mixes():
            assert name in message

    def test_generate_trace_unknown_mix_helpful_error(self):
        with pytest.raises(ConfigurationError, match="int_heavy"):
            generate_trace("nope", 10)


class TestRegisterMix:
    def _mix(self, name="test_only_mix"):
        return WorkloadMix(
            name=name,
            class_weights={InstrClass.INT_ALU: 0.7, InstrClass.LOAD: 0.3},
        )

    def test_register_and_generate(self):
        mix = self._mix()
        try:
            assert register_mix(mix) is mix
            assert "test_only_mix" in list_mixes()
            trace = generate_trace("test_only_mix", 500, seed=3)
            assert len(trace) == 500
        finally:
            MIX_REGISTRY.pop("test_only_mix", None)

    def test_duplicate_registration_rejected(self):
        mix = self._mix()
        try:
            register_mix(mix)
            with pytest.raises(ConfigurationError, match="already registered"):
                register_mix(self._mix())
            replacement = self._mix()
            register_mix(replacement, overwrite=True)
            assert MIX_REGISTRY["test_only_mix"] is replacement
        finally:
            MIX_REGISTRY.pop("test_only_mix", None)

    def test_existing_name_collision_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_mix(self._mix(name="int_heavy"))
