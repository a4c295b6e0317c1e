"""Tests for the configuration dataclasses in repro.common.config."""

import pytest

from repro.common.config import (
    BranchPredictorConfig,
    BusConfig,
    CacheConfig,
    ClusterConfig,
    FuLatencies,
    MemoryHierarchyConfig,
    ProcessorConfig,
)
from repro.common.errors import ConfigurationError
from repro.common.types import FuType, InstrClass, Topology


class TestFuLatencies:
    def test_table_is_indexed_by_instr_class(self):
        table = FuLatencies().table()
        assert len(table) == len(InstrClass)
        assert table[InstrClass.INT_ALU] == 1
        assert table[InstrClass.INT_DIV] == 20
        assert table[InstrClass.LOAD] == table[InstrClass.FP_LOAD]

    def test_divides_not_pipelined(self):
        pipelined = FuLatencies().pipelined_table()
        assert not pipelined[InstrClass.INT_DIV]
        assert not pipelined[InstrClass.FP_DIV]
        assert pipelined[InstrClass.INT_ALU]

    def test_zero_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            FuLatencies(int_alu=0)


class TestClusterConfig:
    def test_fu_counts_length_checked(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(fu_counts=(1, 1, 1))

    def test_needs_an_integer_unit(self):
        with pytest.raises(ConfigurationError, match="integer unit"):
            ClusterConfig(fu_counts=(0, 0, 1, 1))

    def test_default_has_one_unit_per_type(self):
        cfg = ClusterConfig()
        assert all(cfg.fu_counts[fu] == 1 for fu in FuType)


class TestCacheConfig:
    def test_non_power_of_two_line_rejected(self):
        with pytest.raises(ConfigurationError, match="power of two"):
            CacheConfig(line_bytes=48)

    def test_associativity_must_divide_lines(self):
        with pytest.raises(ConfigurationError, match="divisible"):
            CacheConfig(size_kb=1, line_bytes=64, associativity=3)


class TestProcessorConfig:
    def test_defaults_valid(self):
        cfg = ProcessorConfig()
        assert cfg.n_clusters == 4
        assert cfg.topology is Topology.RING

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_clusters": 0},
            {"fetch_width": 0},
            {"window_size": 2, "fetch_width": 4},
            {"steering": "magic"},
            {"topology": "ring"},  # must be the enum, not a string
        ],
    )
    def test_invalid_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            ProcessorConfig(**overrides)

    @pytest.mark.parametrize("build", [
        lambda: ProcessorConfig(fetch_width=True),
        lambda: ProcessorConfig(frontend_depth=False),
        lambda: ProcessorConfig(n_clusters=True),
        lambda: ClusterConfig(fu_counts=(True, 1, 1, 1)),
    ], ids=["fetch_width", "frontend_depth", "n_clusters", "fu_counts"])
    def test_booleans_are_not_counts(self, build):
        # bool is an int subclass; ``true`` would be stored as is and key
        # the point apart from the same machine with ``1``.
        with pytest.raises(ConfigurationError, match="integer"):
            build()

    def test_booleans_rejected_from_dict(self):
        data = ProcessorConfig().to_dict()
        data["bus"]["writeback_latency"] = False
        with pytest.raises(ConfigurationError, match="writeback_latency"):
            ProcessorConfig.from_dict(data)

    def test_with_returns_validated_copy(self):
        cfg = ProcessorConfig()
        ring8 = cfg.with_(n_clusters=8)
        assert ring8.n_clusters == 8
        assert cfg.n_clusters == 4
        with pytest.raises(ConfigurationError):
            cfg.with_(n_clusters=-1)

    def test_describe_is_json_friendly(self):
        desc = ProcessorConfig().describe()
        assert desc["topology"] == "ring"
        assert desc["n_clusters"] == 4
        assert all(isinstance(v, (int, float, str)) for v in desc.values())

    def test_nested_validation_propagates(self):
        with pytest.raises(ConfigurationError):
            ProcessorConfig(bus=BusConfig(hop_latency=0))
        with pytest.raises(ConfigurationError):
            ProcessorConfig(branch=BranchPredictorConfig(mispredict_penalty=0))
        with pytest.raises(ConfigurationError):
            ProcessorConfig(
                memory=MemoryHierarchyConfig(l2_miss_penalty=-1)
            )
