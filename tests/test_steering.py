"""The steering-policy registry: enumeration, registration, plugin contract.

Mirrors ``test_workload_registry.py`` for the registry API itself, then
covers the parts specific to steering: registration is visible to
``ProcessorConfig`` validation and ``SweepSpec.expand``, invalid names are
diagnosed with the live registry contents, a policy returning an illegal
cluster raises :class:`SteeringError` (not an IndexError deep in the loop),
the built-ins routed through the registry keep the pinned specialization
key, and the two shipped plugins (``load_balance``, ``criticality``) agree
across all three kernels deterministically (the fuzz suite covers them
randomly).
"""

import os
import subprocess
import sys

import pytest

from repro.common.config import ProcessorConfig
from repro.common.errors import ConfigurationError, SteeringError
from repro.common.types import Topology
from repro.energy import EnergyConfig
from repro.engine import simulate, simulate_specialized
from repro.engine.codegen import emit_kernel_source, specialization_key
from repro.steering import (
    BUILTIN_POLICIES,
    CriticalityPolicy,
    STEERING_REGISTRY,
    SteeringPolicy,
    get_policy,
    list_policies,
    register_policy,
)
from repro.sweep.grid import SweepSpec
from repro.workloads import generate_trace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))

NEW_POLICIES = ("load_balance", "criticality")


class TestRegistry:
    def test_builtins_and_plugins_registered(self):
        assert set(list_policies()) == set(BUILTIN_POLICIES) | set(NEW_POLICIES)

    def test_list_policies_sorted(self):
        assert list_policies() == tuple(sorted(STEERING_REGISTRY))

    def test_get_policy_returns_registered(self):
        for name in list_policies():
            policy = get_policy(name)
            assert policy is STEERING_REGISTRY[name]
            assert policy.name == name

    def test_steering_importable_first(self):
        # Regression: the README plugin example starts with
        # ``from repro.steering import ...`` — importing this module before
        # repro.common.config must not trip the config<->steering cycle.
        import repro.steering

        src_dir = os.path.dirname(
            os.path.dirname(repro.steering.__file__)
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c",
             "from repro.steering import SteeringPolicy, register_policy\n"
             "from repro.common.config import ProcessorConfig\n"
             "assert ProcessorConfig(steering='load_balance')\n"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_get_policy_unknown_lists_valid_names(self):
        with pytest.raises(ConfigurationError) as err:
            get_policy("dependnce")
        message = str(err.value)
        assert "dependnce" in message
        for name in list_policies():
            assert name in message


class _NullPolicy(SteeringPolicy):
    """Minimal interpreted-only policy for registration tests."""

    name = "test_only_policy"

    def make_generic(self, ctx):
        return lambda i, s1, s2, fetch_cycle: 0

    def make_naive(self, ctx):
        return lambda instr, fetch_cycle: 0


class TestRegisterPolicy:
    def test_register_and_steer(self):
        policy = _NullPolicy()
        try:
            assert register_policy(policy) is policy
            assert "test_only_policy" in list_policies()
            cfg = ProcessorConfig(steering="test_only_policy")
            trace = generate_trace("int_heavy", 300, seed=1)
            result = simulate(trace, cfg)
            # Everything steered to cluster 0.
            assert result.issued_per_cluster == [300, 0, 0, 0]
        finally:
            STEERING_REGISTRY.pop("test_only_policy", None)

    def test_duplicate_registration_rejected(self):
        policy = _NullPolicy()
        try:
            register_policy(policy)
            with pytest.raises(ConfigurationError, match="already registered"):
                register_policy(_NullPolicy())
            replacement = _NullPolicy()
            register_policy(replacement, overwrite=True)
            assert STEERING_REGISTRY["test_only_policy"] is replacement
        finally:
            STEERING_REGISTRY.pop("test_only_policy", None)

    def test_existing_name_collision_rejected(self):
        bad = _NullPolicy()
        bad.name = "dependence"
        with pytest.raises(ConfigurationError, match="already registered"):
            register_policy(bad)

    def test_non_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="SteeringPolicy"):
            register_policy(lambda i: 0)

    def test_unnamed_policy_rejected(self):
        anonymous = _NullPolicy()
        anonymous.name = ""
        with pytest.raises(ConfigurationError, match="name"):
            register_policy(anonymous)

    def test_interpreted_only_policy_diagnosed_under_specialized(self):
        # A policy without codegen emitters must fail with a pointer to
        # kernel_variant="generic", not a bare NotImplementedError.
        try:
            register_policy(_NullPolicy())
            cfg = ProcessorConfig(steering="test_only_policy")
            trace = generate_trace("int_heavy", 50, seed=4)
            with pytest.raises(ConfigurationError) as err:
                simulate_specialized(trace, cfg)
            message = str(err.value)
            assert "test_only_policy" in message
            assert "generic" in message
        finally:
            STEERING_REGISTRY.pop("test_only_policy", None)


class TestConfigValidation:
    def test_all_registered_policies_are_valid(self):
        for name in list_policies():
            assert ProcessorConfig(steering=name).steering == name

    def test_invalid_steering_message_lists_registry(self):
        # The satellite bugfix: a typo'd plugin name is diagnosable because
        # the error enumerates the *live* registry, not the frozen tuple.
        with pytest.raises(ConfigurationError) as err:
            ProcessorConfig(steering="least_loaded")
        message = str(err.value)
        assert "least_loaded" in message
        for name in list_policies():
            assert name in message

    def test_registration_visible_to_config_validation(self):
        with pytest.raises(ConfigurationError):
            ProcessorConfig(steering="test_only_policy")
        try:
            register_policy(_NullPolicy())
            assert ProcessorConfig(steering="test_only_policy")
        finally:
            STEERING_REGISTRY.pop("test_only_policy", None)
        with pytest.raises(ConfigurationError):
            ProcessorConfig(steering="test_only_policy")


class TestSweepVisibility:
    def test_spec_accepts_all_registered_policies(self):
        spec = SweepSpec(steerings=list_policies(), cluster_counts=(2,),
                         topologies=("ring",), n_instructions=100)
        points = spec.expand()
        assert {p.config.steering for p in points} == set(list_policies())

    def test_spec_unknown_steering_lists_registry(self):
        with pytest.raises(ConfigurationError) as err:
            SweepSpec(steerings=("dependence", "least_loaded"))
        message = str(err.value)
        assert "least_loaded" in message
        for name in list_policies():
            assert name in message

    def test_registration_visible_to_expand(self):
        try:
            register_policy(_NullPolicy())
            spec = SweepSpec(steerings=("test_only_policy",),
                             cluster_counts=(2,), topologies=("conv",),
                             n_instructions=100)
            points = spec.expand()
            assert points
            assert all(p.config.steering == "test_only_policy" for p in points)
        finally:
            STEERING_REGISTRY.pop("test_only_policy", None)

    def test_paper_spec_sweeps_every_registered_policy(self):
        from repro.sweep.grid import paper_spec

        assert paper_spec().steerings == list_policies()


class _EscapingPolicy(SteeringPolicy):
    """Deliberately returns ``n_clusters`` (one past the end)."""

    name = "test_escaping_policy"

    def make_generic(self, ctx):
        return lambda i, s1, s2, fetch_cycle: ctx.n_clusters

    def make_naive(self, ctx):
        return lambda instr, fetch_cycle: ctx.n_clusters


class TestSteeringError:
    def test_out_of_range_cluster_raises_generic_and_naive(self):
        from naive_ref import NaivePipeline

        try:
            register_policy(_EscapingPolicy())
            cfg = ProcessorConfig(steering="test_escaping_policy")
            trace = generate_trace("int_heavy", 50, seed=2)
            with pytest.raises(SteeringError, match="returned cluster"):
                simulate(trace, cfg)
            with pytest.raises(SteeringError, match="returned cluster"):
                NaivePipeline(cfg).run(trace)
        finally:
            STEERING_REGISTRY.pop("test_escaping_policy", None)


class TestCodegenIntegration:
    def test_default_specialization_key_unchanged(self):
        # Routing the built-ins through the registry must not move the pin
        # (existing sweep stores and kernel-registry entries keep hitting).
        assert specialization_key(ProcessorConfig()) == "9ea19684a67f019d"

    def test_builtin_sources_carry_no_occupancy_state(self):
        for name in BUILTIN_POLICIES:
            source = emit_kernel_source(ProcessorConfig(steering=name))
            assert "cluster_load" not in source, name
            assert "retire_col" not in source, name

    def test_plugin_sources_inline_occupancy_tracking(self):
        for name in NEW_POLICIES:
            source = emit_kernel_source(ProcessorConfig(steering=name))
            assert "cluster_load" in source, name
            assert "retire_col" in source, name

    def test_specialization_key_folds_policy_name(self):
        keys = {specialization_key(ProcessorConfig(steering=name))
                for name in list_policies()}
        assert len(keys) == len(list_policies())

    def test_emission_deterministic(self):
        for name in NEW_POLICIES:
            cfg = ProcessorConfig(steering=name)
            assert emit_kernel_source(cfg) == emit_kernel_source(cfg)


ENERGY_ON = EnergyConfig(enabled=True)


class TestNewPolicyAgreement:
    """Deterministic three-way differential for the shipped plugins.

    The fuzz suite draws these policies randomly; this pins one readable
    point per (policy, topology, energy) so a regression names itself.
    """

    @pytest.mark.parametrize("name", NEW_POLICIES)
    @pytest.mark.parametrize("topology", [Topology.RING, Topology.CONV])
    @pytest.mark.parametrize("energy", [None, ENERGY_ON])
    def test_three_way_agreement(self, name, topology, energy):
        from naive_ref import NaivePipeline

        cfg = ProcessorConfig(steering=name, topology=topology,
                              n_clusters=3, window_size=24)
        if energy is not None:
            cfg = cfg.with_(energy=energy)
        trace = generate_trace("memory_bound", 900, seed=11)

        generic = simulate(trace, cfg)
        specialized = simulate_specialized(trace, cfg)
        assert generic == specialized

        naive = NaivePipeline(cfg).run(trace)
        assert naive["cycles"] == generic.cycles
        assert naive["communications"] == generic.communications
        assert naive["hop_histogram"] == generic.hop_histogram
        assert naive["issued_per_cluster"] == generic.issued_per_cluster
        if energy is not None:
            assert naive["energy"] == generic.energy

    def test_load_balance_balances_issue(self):
        cfg = ProcessorConfig(steering="load_balance", n_clusters=4)
        trace = generate_trace("int_heavy", 4_000, seed=5)
        per_cluster = simulate(trace, cfg).issued_per_cluster
        # Least-occupied steering keeps the clusters within a few percent
        # of each other on a homogeneous mix.
        assert max(per_cluster) - min(per_cluster) < 0.15 * max(per_cluster)

    def test_criticality_window_share(self):
        assert CriticalityPolicy.window_share(32, 4) == 8
        assert CriticalityPolicy.window_share(3, 8) == 1

    @pytest.mark.parametrize("name", NEW_POLICIES)
    def test_needs_retire(self, name):
        assert get_policy(name).needs_retire is True
        for builtin in BUILTIN_POLICIES:
            assert get_policy(builtin).needs_retire is False
