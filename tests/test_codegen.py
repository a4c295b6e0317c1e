"""Tests for the config-specialized kernel codegen and the variant selector.

The contract under test: for every ``(trace, config)`` the compiled
specialized kernel returns a :class:`KernelResult` equal to the generic
loop's, the registry caches one compiled function per *structural*
specialization key, and the emitted source is genuinely branch-free with
respect to config-invariant conditions.
"""

import traceback

import pytest

from repro.common.config import (
    BusConfig,
    ClusterConfig,
    ProcessorConfig,
)
from repro.common.errors import ConfigurationError
from repro.common.types import Topology
from repro.engine import (
    DEFAULT_KERNEL_VARIANT,
    ENGINE_VERSION,
    KERNEL_VARIANT_ENV,
    Pipeline,
    clear_registry,
    compile_kernel,
    emit_kernel_source,
    get_kernel,
    native,
    registry_size,
    simulate,
    simulate_specialized,
    specialization_key,
)
from repro.engine.kernel import STAGES
from repro.sweep import paper_spec
from repro.workloads import generate_trace


@pytest.fixture(autouse=True)
def _fresh_registry():
    clear_registry()
    yield
    clear_registry()


class TestSpecializationKey:
    def test_stable_and_deterministic(self):
        cfg = ProcessorConfig()
        assert specialization_key(cfg) == specialization_key(ProcessorConfig())

    def test_timing_irrelevant_fields_share_a_key(self):
        """Register-file sizes and cache geometry never reach the kernel, so
        configs differing only there must share one compiled variant."""
        base = ProcessorConfig()
        fat_regs = base.with_(cluster=ClusterConfig(int_regs=128, fp_regs=128))
        assert specialization_key(base) == specialization_key(fat_regs)

    def test_timing_fields_change_the_key(self):
        base = ProcessorConfig()
        assert specialization_key(base) != specialization_key(
            base.with_(n_clusters=8)
        )
        assert specialization_key(base) != specialization_key(
            base.with_(topology=Topology.CONV)
        )
        assert specialization_key(base) != specialization_key(
            base.with_(bus=BusConfig(hop_latency=2))
        )
        assert specialization_key(base) != specialization_key(
            base.with_(steering="modulo")
        )


class TestRegistry:
    def test_same_config_compiles_once(self):
        cfg = ProcessorConfig()
        assert registry_size() == 0
        fn1 = get_kernel(cfg)
        fn2 = get_kernel(ProcessorConfig())
        assert fn1 is fn2
        assert registry_size() == 1

    def test_structurally_equal_configs_share_a_kernel(self):
        fn1 = get_kernel(ProcessorConfig())
        fn2 = get_kernel(
            ProcessorConfig(cluster=ClusterConfig(int_regs=128))
        )
        assert fn1 is fn2
        assert registry_size() == 1

    def test_distinct_configs_compile_separately(self):
        get_kernel(ProcessorConfig(n_clusters=2))
        get_kernel(ProcessorConfig(n_clusters=4))
        assert registry_size() == 2

    def test_compiled_function_carries_provenance(self):
        cfg = ProcessorConfig()
        fn = get_kernel(cfg)
        assert fn.__specialization_key__ == specialization_key(cfg)
        assert "def specialized_kernel" in fn.__source__


class TestEmittedSource:
    def test_source_is_deterministic(self):
        cfg = ProcessorConfig()
        assert emit_kernel_source(cfg) == emit_kernel_source(cfg)

    def test_no_config_invariant_branches_remain(self):
        """The point of the residual program: names the generic loop branches
        on per instruction must not appear in the emitted source."""
        for cfg in (
            ProcessorConfig(),
            ProcessorConfig(n_clusters=3, topology=Topology.CONV,
                            steering="modulo"),
        ):
            src = emit_kernel_source(cfg)
            for dead_name in ("is_ring", "steer_dep", "steer_mod", "pow2",
                              "bw1", "hl1"):
                assert dead_name not in src, (cfg.describe(), dead_name)

    def test_power_of_two_uses_masks_odd_uses_modulo(self):
        pow2_src = emit_kernel_source(ProcessorConfig(n_clusters=4))
        assert "& 3" in pow2_src
        odd_src = emit_kernel_source(ProcessorConfig(n_clusters=3))
        assert "% 3" in odd_src

    def test_literal_folding(self):
        cfg = ProcessorConfig(n_clusters=4)
        src = emit_kernel_source(cfg)
        # Penalties and widths appear as literals, not attribute loads.
        assert str(cfg.branch.mispredict_penalty) in src
        assert "cfg." not in src
        assert "config" not in src

    def test_every_stage_emitted_in_order(self):
        src = emit_kernel_source(ProcessorConfig())
        positions = []
        cursor = 0
        for stage in STAGES:
            marker = f"# ---- {stage} "
            idx = src.find(marker, cursor)
            assert idx >= 0, f"stage {stage!r} missing from emitted source"
            positions.append(idx)
            cursor = idx
        assert positions == sorted(positions)

    @pytest.mark.parametrize("energy", [False, True])
    def test_one_instruction_loop_per_key(self, energy):
        spec = paper_spec(1000)
        if energy:
            spec = spec.with_energy()
        configs = {specialization_key(p.config): p.config
                   for p in spec.expand()}
        for cfg in configs.values():
            src = emit_kernel_source(cfg)
            assert src.count("for k, s1, s2, lat in") == 1, cfg.describe()

    def test_multi_unit_clusters_emit_the_scan_loop(self):
        cfg = ProcessorConfig(
            cluster=ClusterConfig(issue_width=4, fu_counts=(2, 1, 1, 2))
        )
        src = emit_kernel_source(cfg)
        assert "unit_idx" in src
        # And the single-unit fast path indexes flat ints instead.
        flat = emit_kernel_source(ProcessorConfig())
        assert "unit_idx" not in flat


class TestAgreementWithGeneric:
    @pytest.mark.parametrize("topology", [Topology.RING, Topology.CONV])
    @pytest.mark.parametrize("n_clusters", [1, 2, 3, 4, 5, 8])
    def test_matrix_agreement(self, topology, n_clusters):
        t = generate_trace("int_heavy", 3000, seed=77)
        cfg = ProcessorConfig(n_clusters=n_clusters, topology=topology)
        assert simulate_specialized(t, cfg) == simulate(t, cfg)

    @pytest.mark.parametrize("steering", ["dependence", "modulo",
                                          "round_robin"])
    def test_steering_agreement(self, steering):
        t = generate_trace("branchy", 3000, seed=5)
        for topology in (Topology.RING, Topology.CONV):
            cfg = ProcessorConfig(n_clusters=4, topology=topology,
                                  steering=steering)
            assert simulate_specialized(t, cfg) == simulate(t, cfg)

    def test_unusual_machine_shapes_agree(self):
        # branchy contains NOPs, int_heavy contains none.
        traces = [generate_trace(mix, 2500, seed=13)
                  for mix in ("memory_bound", "branchy", "int_heavy")]
        for cfg in (
            ProcessorConfig(window_size=1, fetch_width=1),
            ProcessorConfig(fetch_width=3, window_size=96),
            ProcessorConfig(fetch_width=8, window_size=128),
            ProcessorConfig(fetch_width=4, window_size=100),
            ProcessorConfig(frontend_depth=0),
            ProcessorConfig(bus=BusConfig(hop_latency=3, bandwidth=2,
                                          writeback_latency=0)),
            ProcessorConfig(n_clusters=2, topology=Topology.CONV,
                            bus=BusConfig(bandwidth=1)),
            ProcessorConfig(n_clusters=2, topology=Topology.CONV,
                            bus=BusConfig(bandwidth=2)),
            ProcessorConfig(cluster=ClusterConfig(issue_width=1)),
            ProcessorConfig(cluster=ClusterConfig(issue_width=4,
                                                  fu_counts=(2, 1, 1, 2))),
        ):
            for t in traces:
                assert simulate_specialized(t, cfg) == simulate(t, cfg), (
                    cfg.describe(), t.name
                )

    def test_long_trace_exercises_scoreboard_rebase(self):
        """PRUNE_INTERVAL boundaries (sliding-scoreboard rebase) must be
        invisible in the results."""
        t = generate_trace("int_heavy", 20_000, seed=3)
        for topology in (Topology.RING, Topology.CONV):
            cfg = ProcessorConfig(n_clusters=4, topology=topology)
            assert simulate_specialized(t, cfg) == simulate(t, cfg)

    def test_empty_trace(self):
        from repro.engine.trace import Trace

        t = Trace("empty", [], [], [], [], [])
        cfg = ProcessorConfig()
        assert simulate_specialized(t, cfg) == simulate(t, cfg)

    def test_missing_fu_type_still_rejected(self):
        t = generate_trace("fp_heavy", 500, seed=1)
        cfg = ProcessorConfig(cluster=ClusterConfig(fu_counts=(1, 1, 0, 0)))
        with pytest.raises(ConfigurationError, match="zero units"):
            simulate_specialized(t, cfg)


class TestPipelineVariantSelector:
    @pytest.mark.skipif(native.find_compiler() is None,
                        reason="no C compiler on PATH")
    def test_default_is_native_with_a_compiler(self):
        # The no-compiler default is covered by tests/test_native.py.
        assert Pipeline().kernel_variant == DEFAULT_KERNEL_VARIANT == (
            "native"
        )

    def test_explicit_generic(self):
        assert Pipeline(kernel_variant="generic").kernel_variant == "generic"

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigurationError, match="kernel variant"):
            Pipeline(kernel_variant="vectorized")

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(KERNEL_VARIANT_ENV, "generic")
        assert Pipeline().kernel_variant == "generic"
        # An explicit argument still wins over the environment.
        assert Pipeline(kernel_variant="specialized").kernel_variant == (
            "specialized"
        )

    def test_both_variants_identical_stats(self):
        t = generate_trace("int_heavy", 2000, seed=44)
        cfg = ProcessorConfig(n_clusters=4, topology=Topology.RING)
        generic = Pipeline(cfg, kernel_variant="generic").run(t)
        special = Pipeline(cfg, kernel_variant="specialized").run(t)
        assert generic == special

    def test_run_record_identical_across_variants(self):
        """The sweep store must be byte-identical whichever variant computed
        it — this is what keeps ENGINE_VERSION shared."""
        t = generate_trace("fp_heavy", 1500, seed=21)
        cfg = ProcessorConfig(n_clusters=3, topology=Topology.CONV)
        rec_g = Pipeline(cfg, kernel_variant="generic").run_record(t)
        rec_s = Pipeline(cfg, kernel_variant="specialized").run_record(t)
        assert rec_g == rec_s
        assert rec_s["engine_version"] == ENGINE_VERSION == "1"

    def test_kernel_traceback_shows_source_line(self):
        with pytest.raises(AttributeError) as info:
            get_kernel(ProcessorConfig())(None)
        last = traceback.extract_tb(info.value.__traceback__)[-1]
        assert last.filename.startswith("<repro.engine.codegen ")
        assert last.line and last.line.startswith("opclass = trace.opclass")

    def test_compile_kernel_uncached(self):
        cfg = ProcessorConfig()
        fn1 = compile_kernel(cfg)
        fn2 = compile_kernel(cfg)
        assert fn1 is not fn2
        t = generate_trace("int_heavy", 500, seed=2)
        assert fn1(t) == fn2(t) == simulate(t, cfg)
