"""Grid expansion: axes, overrides, content keys, spec serialization."""

import pytest

from repro.common.config import ProcessorConfig
from repro.common.errors import ConfigurationError
from repro.common.types import Topology
from repro.sweep.grid import ExperimentPoint, SweepSpec, paper_spec, smoke_spec


def tiny_spec(**kwargs) -> SweepSpec:
    defaults = dict(
        name="tiny",
        topologies=("ring",),
        cluster_counts=(2,),
        steerings=("dependence",),
        mixes=("int_heavy",),
        n_instructions=100,
        seeds=(1,),
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


class TestExpansion:
    def test_smoke_spec_is_24_points(self):
        points = smoke_spec().expand()
        assert len(points) == 24
        assert len({p.key() for p in points}) == 24

    def test_n_points_matches_expand(self):
        for spec in (smoke_spec(), paper_spec(), tiny_spec()):
            assert spec.n_points() == len(spec.expand())

    def test_axes_are_applied(self):
        points = tiny_spec(
            topologies=("ring", "conv"), cluster_counts=(2, 4),
            steerings=("modulo",), seeds=(1, 2),
        ).expand()
        assert len(points) == 8
        assert {p.config.topology for p in points} == {Topology.RING, Topology.CONV}
        assert {p.config.n_clusters for p in points} == {2, 4}
        assert all(p.config.steering == "modulo" for p in points)
        assert {p.seed for p in points} == {1, 2}

    def test_expansion_order_is_deterministic(self):
        a = smoke_spec().expand()
        b = smoke_spec().expand()
        assert [p.key() for p in a] == [p.key() for p in b]


class TestOverrides:
    def test_override_axis_multiplies_grid(self):
        spec = tiny_spec(overrides={"bus.hop_latency": [1, 2]})
        points = spec.expand()
        assert len(points) == 2
        assert {p.config.bus.hop_latency for p in points} == {1, 2}

    def test_top_level_override(self):
        spec = tiny_spec(overrides={"window_size": [64, 128, 256]})
        assert {p.config.window_size for p in spec.expand()} == {64, 128, 256}

    def test_base_applies_to_every_point(self):
        spec = tiny_spec(
            topologies=("ring", "conv"),
            base={"cluster.issue_width": 4},
        )
        assert all(p.config.cluster.issue_width == 4 for p in spec.expand())

    def test_unknown_override_path_rejected(self):
        with pytest.raises(ConfigurationError, match="not a field"):
            tiny_spec(overrides={"bus.width": [1]}).expand()

    def test_axis_field_cannot_be_overridden(self):
        with pytest.raises(ConfigurationError, match="sweep axis"):
            tiny_spec(overrides={"n_clusters": [2]})
        with pytest.raises(ConfigurationError, match="sweep axis"):
            tiny_spec(base={"topology": "ring"})

    def test_empty_override_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="no values"):
            tiny_spec(overrides={"bus.hop_latency": []})


class TestValidation:
    def test_unknown_topology(self):
        with pytest.raises(ConfigurationError, match="unknown topology"):
            tiny_spec(topologies=("mesh",))

    def test_unknown_steering(self):
        with pytest.raises(ConfigurationError, match="unknown steering"):
            tiny_spec(steerings=("magic",))

    def test_unknown_mix(self):
        with pytest.raises(ConfigurationError, match="unknown workload mix"):
            tiny_spec(mixes=("spec2000",))

    def test_empty_axis(self):
        with pytest.raises(ConfigurationError, match="must not be empty"):
            tiny_spec(seeds=())

    @pytest.mark.parametrize("data, match", [
        ([], "must be a JSON object"),
        ("ring", "must be a JSON object"),
        ({"topologies": "ring"}, r"SweepSpec\.topologies must be a list"),
        ({"mixes": 5}, r"SweepSpec\.mixes must be a list"),
        ({"steerings": [["dependence"]]}, r"SweepSpec\.steerings: .* str"),
        ({"seeds": [1.0]}, r"SweepSpec\.seeds: 1\.0 is not of type int"),
        ({"cluster_counts": [False]}, r"SweepSpec\.cluster_counts: False"),
        ({"n_instructions": None}, r"SweepSpec\.n_instructions must be an int"),
        ({"overrides": {"bus.hop_latency": 2}}, r"overrides\['bus\.hop_latency'\]"),
        ({"overrides": 5}, r"SweepSpec\.overrides must map"),
        ({"base": [1]}, r"SweepSpec\.base must map"),
        ({"base": {1: 2}}, r"SweepSpec\.base must map"),
    ])
    def test_malformed_fields_rejected_at_load(self, data, match):
        with pytest.raises(ConfigurationError, match=match):
            SweepSpec.from_dict(data)


class TestSpecSerialization:
    def test_round_trip(self):
        spec = tiny_spec(
            topologies=("ring", "conv"),
            overrides={"bus.hop_latency": [1, 2]},
            base={"cluster.issue_width": 4},
        )
        rebuilt = SweepSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert [p.key() for p in rebuilt.expand()] == \
            [p.key() for p in spec.expand()]

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown key.*'points'"):
            SweepSpec.from_dict({"points": 7})


class TestExperimentPoint:
    def test_round_trip(self):
        point = smoke_spec().expand()[5]
        rebuilt = ExperimentPoint.from_dict(point.to_dict())
        assert rebuilt == point
        assert rebuilt.key() == point.key()

    def test_key_depends_on_each_component(self):
        base = ExperimentPoint(ProcessorConfig(), "int_heavy", 100, 1)
        assert base.key() != ExperimentPoint(
            ProcessorConfig(n_clusters=8), "int_heavy", 100, 1).key()
        assert base.key() != ExperimentPoint(
            ProcessorConfig(), "branchy", 100, 1).key()
        assert base.key() != ExperimentPoint(
            ProcessorConfig(), "int_heavy", 101, 1).key()
        assert base.key() != ExperimentPoint(
            ProcessorConfig(), "int_heavy", 100, 2).key()

    def test_key_includes_engine_version(self, monkeypatch):
        import repro.sweep.grid as grid_mod

        point = ExperimentPoint(ProcessorConfig(), "int_heavy", 100, 1)
        before = point.key()
        monkeypatch.setattr(grid_mod, "ENGINE_VERSION", "999-test")
        assert point.key() != before

    def test_key_is_memoized_per_instance(self, monkeypatch):
        # The runner calls key() on every dispatch/flush/retry step, so the
        # digest is cached on the instance — but the cache must still track
        # ENGINE_VERSION (the version test above re-keys the same object).
        import repro.sweep.grid as grid_mod

        point = ExperimentPoint(ProcessorConfig(), "int_heavy", 100, 1)
        first = point.key()
        calls = []
        real_digest = grid_mod.content_digest

        def counting_digest(*args, **kwargs):
            calls.append(args)
            return real_digest(*args, **kwargs)

        monkeypatch.setattr(grid_mod, "content_digest", counting_digest)
        assert point.key() == first
        assert point.key() == first
        assert calls == []
        # A fresh-but-equal instance computes its own digest once.
        other = ExperimentPoint(ProcessorConfig(), "int_heavy", 100, 1)
        assert other.key() == first
        assert other.key() == first
        assert len(calls) == 1

    def test_unknown_mix_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown workload mix"):
            ExperimentPoint(ProcessorConfig(), "nope", 100, 1)

    def test_label_is_readable(self):
        point = ExperimentPoint(ProcessorConfig(), "int_heavy", 100, 7)
        assert "int_heavy" in point.label()
        assert "ring" in point.label()
