"""Round-trip serialization and digests of the config dataclasses."""

import re

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
from repro.common.types import Topology


def custom_config() -> ProcessorConfig:
    """A config with every field away from its default."""
    return ProcessorConfig(
        n_clusters=6,
        topology=Topology.CONV,
        fetch_width=8,
        window_size=256,
        frontend_depth=6,
        steering="modulo",
        cluster=ClusterConfig(issue_width=4, fu_counts=(2, 1, 2, 1),
                              int_regs=64, fp_regs=48),
        latencies=FuLatencies(int_alu=2, int_mul=4, int_div=24, fp_add=3,
                              fp_mul=5, fp_div=16, load=3, store=2, branch=2),
        bus=BusConfig(hop_latency=2, bandwidth=2, writeback_latency=0),
        branch=BranchPredictorConfig(mispredict_penalty=11),
        memory=MemoryHierarchyConfig(
            l1d=CacheConfig(size_kb=64, line_bytes=32, associativity=8,
                            hit_latency=3, miss_penalty=14),
            l2_miss_penalty=180,
        ),
    )


class TestRoundTrip:
    def test_default_round_trip(self):
        cfg = ProcessorConfig()
        assert ProcessorConfig.from_dict(cfg.to_dict()) == cfg

    def test_custom_round_trip_exact(self):
        cfg = custom_config()
        rebuilt = ProcessorConfig.from_dict(cfg.to_dict())
        assert rebuilt == cfg
        # tuple-vs-list must be normalised, not just equal-by-accident
        assert isinstance(rebuilt.cluster.fu_counts, tuple)
        assert isinstance(rebuilt.topology, Topology)

    def test_to_dict_is_json_serializable(self):
        import json

        json.dumps(custom_config().to_dict())

    def test_from_dict_accepts_partial_nested(self):
        cfg = ProcessorConfig.from_dict({"bus": {"hop_latency": 3}})
        assert cfg.bus.hop_latency == 3
        assert cfg.bus.bandwidth == BusConfig().bandwidth

    def test_from_dict_validates(self):
        with pytest.raises(ConfigurationError):
            ProcessorConfig.from_dict({"n_clusters": 0})

    def test_nested_round_trips(self):
        for obj in (FuLatencies(), ClusterConfig(), BusConfig(), CacheConfig(),
                    BranchPredictorConfig(), MemoryHierarchyConfig()):
            assert type(obj).from_dict(obj.to_dict()) == obj


class TestUnknownKeys:
    def test_top_level_unknown_key(self):
        with pytest.raises(ConfigurationError, match="unknown key.*'frequency'"):
            ProcessorConfig.from_dict({"frequency": 3})

    def test_nested_unknown_key(self):
        with pytest.raises(ConfigurationError, match="ClusterConfig.*'rob_size'"):
            ProcessorConfig.from_dict({"cluster": {"rob_size": 9}})

    def test_deeply_nested_unknown_key(self):
        with pytest.raises(ConfigurationError, match="CacheConfig.*'ways'"):
            ProcessorConfig.from_dict({"memory": {"l1d": {"ways": 2}}})

    def test_unknown_topology(self):
        with pytest.raises(ConfigurationError, match="unknown topology"):
            ProcessorConfig.from_dict({"topology": "mesh"})

    def test_non_mapping(self):
        with pytest.raises(ConfigurationError, match="expects a mapping"):
            ProcessorConfig.from_dict([1, 2, 3])


class TestDigest:
    def test_digest_format(self):
        assert re.fullmatch(r"[0-9a-f]{16}", ProcessorConfig().config_digest())

    def test_digest_pinned(self):
        # Pinned so accidental canonicalisation changes (key order, float
        # formatting, field additions) are caught: any change here silently
        # invalidates every existing sweep store.
        assert ProcessorConfig().config_digest() == "ad0812deeb42a9ef"

    def test_equal_configs_equal_digest(self):
        assert custom_config().config_digest() == custom_config().config_digest()

    def test_any_field_changes_digest(self):
        base = ProcessorConfig().config_digest()
        assert ProcessorConfig(n_clusters=8).config_digest() != base
        assert ProcessorConfig(
            bus=BusConfig(hop_latency=2)
        ).config_digest() != base
        assert ProcessorConfig(
            memory=MemoryHierarchyConfig(l2_miss_penalty=99)
        ).config_digest() != base

    def test_digest_round_trip_stable(self):
        cfg = custom_config()
        assert ProcessorConfig.from_dict(cfg.to_dict()).config_digest() == \
            cfg.config_digest()

    def test_memoized_digest_matches_content_digest(self, monkeypatch):
        import repro.common.config as config_mod
        from repro.common.jsonutil import content_digest

        cfg = custom_config()
        assert cfg.config_digest() == content_digest(cfg.to_dict(), 16)
        monkeypatch.setattr(config_mod, "content_digest", None)
        assert cfg.config_digest() == content_digest(cfg.to_dict(), 16)

    def test_replace_gets_a_fresh_digest(self):
        import dataclasses

        from repro.common.jsonutil import content_digest

        cfg = custom_config()
        cfg.config_digest()
        other = dataclasses.replace(cfg, n_clusters=cfg.n_clusters + 1)
        assert other.config_digest() == content_digest(other.to_dict(), 16)
        assert other.config_digest() != cfg.config_digest()
        assert cfg.with_(window_size=256).config_digest() == \
            ProcessorConfig.from_dict(
                dict(cfg.to_dict(), window_size=256)).config_digest()

    def test_digest_survives_pickling(self, monkeypatch):
        import pickle

        import repro.common.config as config_mod

        cfg = custom_config()
        digest = cfg.config_digest()
        copy = pickle.loads(pickle.dumps(cfg))
        assert copy == cfg
        monkeypatch.setattr(config_mod, "content_digest", None)
        assert copy.config_digest() == digest
