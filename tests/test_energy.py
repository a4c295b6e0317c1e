"""repro.energy: config validation, digest stability, and model invariants.

The heart of this module is the set of properties the per-event model must
satisfy no matter the configuration:

* the reported ``total`` is exactly the sum of the breakdown components;
* energy is monotone non-decreasing in trace length (every instruction
  contributes a non-negative amount, and processing is prefix-determined);
* a disabled model is *free*: byte-identical ``KernelResult`` serialization
  and byte-identical sweep stores to the pre-energy behaviour, identical
  emitted kernel source, unchanged config digests;
* enabling the model never changes any timing field.
"""

import dataclasses
import os

import pytest

from repro.common.config import ProcessorConfig
from repro.common.errors import ConfigurationError
from repro.common.jsonutil import canonical_json
from repro.common.types import Topology
from repro.energy import (
    ENERGY_COMPONENTS,
    EnergyConfig,
    FuEnergy,
    fold_breakdown,
)
from repro.engine import (
    ENGINE_VERSION,
    KERNEL_VARIANTS,
    KernelResult,
    Pipeline,
    emit_kernel_source,
    simulate,
    simulate_batch,
    simulate_specialized,
    specialization_key,
)
from repro.engine.trace import Trace
from repro.sweep import ResultStore, SweepSpec, run_sweep
from repro.workloads import generate_trace

ENERGY_ON = EnergyConfig(enabled=True)


def prefix_trace(trace: Trace, m: int) -> Trace:
    """First ``m`` instructions of ``trace`` (dependences point backwards,
    so every prefix is a structurally valid trace)."""
    return Trace(
        f"{trace.name}[:{m}]",
        list(trace.opclass)[:m],
        list(trace.src1)[:m],
        list(trace.src2)[:m],
        list(trace.dst)[:m],
        list(trace.flags)[:m],
    )


class TestEnergyConfig:
    def test_defaults_disabled(self):
        assert EnergyConfig().enabled is False
        assert ProcessorConfig().energy == EnergyConfig()

    def test_round_trip(self):
        cfg = EnergyConfig(enabled=True, bus_hop=7, fu=FuEnergy(int_div=99))
        assert EnergyConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            EnergyConfig.from_dict({"enabled": True, "volts": 3})
        with pytest.raises(ConfigurationError, match="unknown key"):
            FuEnergy.from_dict({"int_alu": 1, "nop": 0})

    @pytest.mark.parametrize("kwargs", [
        {"fetch": -1},
        {"issue": 1.5},
        {"wakeup": True},
        {"enabled": 1},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            EnergyConfig(**kwargs)

    def test_fu_table_covers_every_class_and_zeroes_nop(self):
        from repro.common.types import InstrClass

        table = FuEnergy().table()
        assert len(table) == len(InstrClass)
        assert table[InstrClass.NOP] == 0
        assert table[InstrClass.LOAD] == table[InstrClass.FP_LOAD]

    def test_processor_config_round_trip_with_energy(self):
        cfg = ProcessorConfig(energy=EnergyConfig(enabled=True, l2_miss=99))
        assert ProcessorConfig.from_dict(cfg.to_dict()) == cfg

    def test_nested_unknown_energy_key_rejected(self):
        data = ProcessorConfig(energy=ENERGY_ON).to_dict()
        data["energy"]["volts"] = 3
        with pytest.raises(ConfigurationError, match="volts"):
            ProcessorConfig.from_dict(data)


class TestDigestRules:
    def test_default_digest_unchanged_by_energy_field(self):
        # The pre-energy pin: adding the (disabled) energy model must not
        # invalidate existing sweep stores.
        assert ProcessorConfig().config_digest() == "ad0812deeb42a9ef"
        assert "energy" not in ProcessorConfig().to_dict()

    def test_explicit_default_energy_is_digest_neutral(self):
        data = ProcessorConfig().to_dict()
        data["energy"] = EnergyConfig().to_dict()
        assert ProcessorConfig.from_dict(data).config_digest() == \
            "ad0812deeb42a9ef"

    def test_enabled_energy_changes_digest(self):
        assert ProcessorConfig(energy=ENERGY_ON).config_digest() != \
            ProcessorConfig().config_digest()

    def test_cost_changes_change_digest_when_serialized(self):
        a = ProcessorConfig(energy=EnergyConfig(enabled=True, bus_hop=1))
        b = ProcessorConfig(energy=EnergyConfig(enabled=True, bus_hop=2))
        assert a.config_digest() != b.config_digest()

    def test_specialization_key_ignores_disabled_model(self):
        cfg = ProcessorConfig()
        custom_off = ProcessorConfig(energy=EnergyConfig(bus_hop=9))
        assert specialization_key(cfg) == specialization_key(custom_off)
        assert emit_kernel_source(cfg) == emit_kernel_source(custom_off)

    def test_disabled_model_leaves_no_trace_in_emitted_source(self):
        # The emitted source of an energy-off kernel was verified
        # byte-identical against the pre-energy tree when this PR landed
        # (old config + old codegen on an isolated PYTHONPATH).  A committed
        # test cannot rerun that cross-version diff, so pin its two
        # observable consequences instead: the default config's structural
        # key is unchanged, and no energy artifact appears in the source.
        assert specialization_key(ProcessorConfig()) == "9ea19684a67f019d"
        for cfg in (
            ProcessorConfig(),
            ProcessorConfig(topology=Topology.CONV, n_clusters=3),
        ):
            source = emit_kernel_source(cfg)
            for artifact in ("energy", "wakeup", "retire_col",
                             "weighted_hops", "operand_reads"):
                assert artifact not in source, (cfg.describe(), artifact)
        assert "energy" not in repr(ProcessorConfig().describe())

    def test_specialization_key_folds_enabled_costs(self):
        on = ProcessorConfig(energy=ENERGY_ON)
        assert specialization_key(on) != specialization_key(ProcessorConfig())
        other = ProcessorConfig(energy=EnergyConfig(enabled=True, bus_hop=9))
        assert specialization_key(on) != specialization_key(other)

    def test_enabled_costs_are_literals_in_emitted_source(self):
        cfg = ProcessorConfig(
            energy=EnergyConfig(enabled=True, bus_hop=1234, wakeup=987)
        )
        source = emit_kernel_source(cfg)
        assert "1234 * weighted_hops" in source
        assert "987 * wakeup_units" in source


class TestBreakdownInvariants:
    @pytest.mark.parametrize("topology", [Topology.RING, Topology.CONV])
    @pytest.mark.parametrize("mix", ["int_heavy", "memory_bound", "branchy"])
    def test_total_is_component_sum(self, topology, mix):
        cfg = ProcessorConfig(topology=topology, energy=ENERGY_ON)
        trace = generate_trace(mix, 1200, seed=11)
        for result in (simulate(trace, cfg), simulate_specialized(trace, cfg),
                       simulate_batch([trace], cfg)[0]):
            assert set(result.energy) == set(ENERGY_COMPONENTS) | {"total"}
            assert result.energy["total"] == sum(
                result.energy[c] for c in ENERGY_COMPONENTS
            )
            assert all(units >= 0 for units in result.energy.values())

    @pytest.mark.parametrize("topology", [Topology.RING, Topology.CONV])
    def test_monotone_non_decreasing_in_trace_length(self, topology):
        cfg = ProcessorConfig(topology=topology, window_size=16,
                              energy=ENERGY_ON)
        trace = generate_trace("memory_bound", 600, seed=3)
        previous = {c: 0 for c in ENERGY_COMPONENTS + ("total",)}
        for m in (0, 1, 7, 50, 200, 450, 600):
            energy = simulate(prefix_trace(trace, m), cfg).energy
            for component, units in energy.items():
                assert units >= previous[component], (m, component)
            previous = energy

    def test_wakeup_bounded_by_window_occupancy(self):
        # Occupancy is in [1, window_size] at every fetch event.
        window = 8
        cfg = ProcessorConfig(window_size=window, energy=ENERGY_ON)
        trace = generate_trace("int_heavy", 2000, seed=5)
        wakeup = simulate(trace, cfg).energy["wakeup"]
        n = len(trace)
        assert ENERGY_ON.wakeup * n <= wakeup <= ENERGY_ON.wakeup * n * window

    def test_single_instruction_breakdown_exact(self):
        from repro.common.types import InstrClass

        cfg = ProcessorConfig(energy=ENERGY_ON)
        trace = Trace.from_ops([(InstrClass.INT_ALU, "r1")])
        energy = simulate(trace, cfg).energy
        e = ENERGY_ON
        assert energy == {
            "fetch": e.fetch,
            "steer": e.steer,
            "issue": e.issue,
            # No sources; one produced value; RING injects but nobody reads,
            # so no hops are tallied and the bus component stays zero.
            "operand": e.result_write,
            "fu": e.fu.int_alu,
            "bus": 0,
            "cache": 0,
            "wakeup": e.wakeup,  # occupancy is exactly 1
            "total": e.fetch + e.steer + e.issue + e.result_write
            + e.fu.int_alu + e.wakeup,
        }

    def test_empty_trace_all_zero(self):
        cfg = ProcessorConfig(energy=ENERGY_ON)
        trace = generate_trace("int_heavy", 0, seed=1)
        energy = simulate(trace, cfg).energy
        assert energy == {c: 0 for c in ENERGY_COMPONENTS + ("total",)}

    def test_enabling_energy_never_changes_timing(self):
        for topology in (Topology.RING, Topology.CONV):
            cfg_off = ProcessorConfig(topology=topology)
            cfg_on = cfg_off.with_(energy=ENERGY_ON)
            trace = generate_trace("fp_heavy", 1500, seed=8)
            off = simulate(trace, cfg_off)
            on = simulate(trace, cfg_on)
            assert on.energy is not None
            assert dataclasses.replace(on, energy=None) == off
            assert simulate_specialized(trace, cfg_on) == on
            assert simulate_batch([trace], cfg_on)[0] == on

    def test_fold_breakdown_matches_kernel(self):
        # The shared fold, fed the kernel's own counters, reproduces the
        # kernel's breakdown (sanity for external consumers of the helper).
        cfg = ProcessorConfig(energy=ENERGY_ON)
        trace = generate_trace("memory_bound", 800, seed=2)
        result = simulate(trace, cfg)
        weighted_hops = sum(d * c for d, c in result.hop_histogram.items())
        operand_reads = sum(
            (s >= 0) for col in (trace.src1, trace.src2) for s in col
        )
        wakeup_units = result.energy["wakeup"] // ENERGY_ON.wakeup
        assert fold_breakdown(
            ENERGY_ON,
            n=result.n_instructions,
            class_counts=result.class_counts,
            operand_reads=operand_reads,
            weighted_hops=weighted_hops,
            l1_misses=result.l1_misses,
            l2_misses=result.l2_misses,
            wakeup_units=wakeup_units,
        ) == result.energy


class TestKernelResultSerialization:
    def test_energy_round_trip(self):
        cfg = ProcessorConfig(energy=ENERGY_ON)
        result = simulate(generate_trace("int_heavy", 400, seed=4), cfg)
        data = result.to_dict()
        assert "energy" in data
        assert KernelResult.from_dict(data) == result

    def test_disabled_serializes_without_energy_key(self):
        result = simulate(generate_trace("int_heavy", 400, seed=4),
                          ProcessorConfig())
        data = result.to_dict()
        assert "energy" not in data
        restored = KernelResult.from_dict(data)
        assert restored == result
        assert restored.energy is None

    def test_bad_energy_units_named(self):
        cfg = ProcessorConfig(energy=ENERGY_ON)
        data = simulate(generate_trace("int_heavy", 50, seed=4), cfg).to_dict()
        data["energy"]["bus"] = "lots"
        with pytest.raises(ValueError, match="bus"):
            KernelResult.from_dict(data)

    @pytest.mark.parametrize("missing", ["total", "wakeup"])
    def test_missing_energy_component_named(self, missing):
        cfg = ProcessorConfig(energy=ENERGY_ON)
        data = simulate(generate_trace("int_heavy", 50, seed=4), cfg).to_dict()
        del data["energy"][missing]
        with pytest.raises(ValueError, match=missing):
            KernelResult.from_dict(data)

    def test_unknown_energy_component_named(self):
        cfg = ProcessorConfig(energy=ENERGY_ON)
        data = simulate(generate_trace("int_heavy", 50, seed=4), cfg).to_dict()
        data["energy"]["wakup"] = 7  # typo'd component must not round-trip
        with pytest.raises(ValueError, match="wakup"):
            KernelResult.from_dict(data)

    def test_energy_per_instr(self):
        cfg = ProcessorConfig(energy=ENERGY_ON)
        result = simulate(generate_trace("int_heavy", 300, seed=4), cfg)
        assert result.energy_per_instr == pytest.approx(
            result.energy["total"] / result.n_instructions
        )
        assert simulate(generate_trace("int_heavy", 300, seed=4),
                        ProcessorConfig()).energy_per_instr == 0.0


class TestOffIsByteIdenticalToPrePR:
    """``energy=off`` must reproduce the pre-energy bytes everywhere."""

    SPEC = SweepSpec(
        name="baseline",
        topologies=("ring", "conv"),
        cluster_counts=(2, 4),
        steerings=("dependence",),
        mixes=("int_heavy",),
        n_instructions=400,
        seeds=(2005,),
    )

    def _store_bytes(self, tmp_path, filename, **kwargs) -> bytes:
        store = ResultStore(str(tmp_path / filename))
        run_sweep(self.SPEC.expand(), store, workers=1, **kwargs)
        with open(store.path, "rb") as fh:
            return fh.read()

    def test_store_matches_pre_energy_record_schema(self, tmp_path):
        """The store bytes equal a hand-built pre-PR baseline: the exact
        record schema the sweep wrote before the energy model (and the
        ``kernel_variant`` provenance field) existed."""
        data = self._store_bytes(tmp_path, "store.jsonl")
        expected_lines = []
        for point in self.SPEC.expand():
            trace = generate_trace(point.mix, point.n_instructions,
                                   seed=point.seed)
            result = simulate(trace, point.config)
            record = {
                "engine_version": ENGINE_VERSION,
                "config_digest": point.config.config_digest(),
                "trace": trace.name,
                "result": result.to_dict(),
                "key": point.key(),
                "point": point.to_dict(),
            }
            expected_lines.append(canonical_json(record))
        assert data.decode("utf-8") == "".join(
            line + "\n" for line in expected_lines
        )
        assert b'"energy"' not in data
        assert b"kernel_variant" not in data

    def test_store_identical_across_variants_and_workers(self, tmp_path):
        baseline = self._store_bytes(tmp_path, "spec.jsonl",
                                     kernel_variant="specialized")
        generic = self._store_bytes(tmp_path, "gen.jsonl",
                                    kernel_variant="generic")
        batch = self._store_bytes(tmp_path, "batch.jsonl",
                                  kernel_variant="batch")
        assert baseline == generic
        assert baseline == batch

    def test_energy_store_identical_across_variants(self, tmp_path):
        spec = SweepSpec(
            name="energy-baseline",
            topologies=("ring", "conv"),
            cluster_counts=(2,),
            steerings=("dependence",),
            mixes=("int_heavy",),
            n_instructions=300,
            seeds=(2005,),
            base={"energy.enabled": True},
        )
        stores = []
        for variant in ("specialized", "generic", "batch"):
            store = ResultStore(str(tmp_path / f"{variant}.jsonl"))
            run_sweep(spec.expand(), store, workers=1, kernel_variant=variant)
            with open(store.path, "rb") as fh:
                stores.append(fh.read())
        assert stores[0] == stores[1] == stores[2]
        assert b'"energy"' in stores[0]

    def test_energy_exact_across_ragged_batch(self):
        # One batched call whose lanes finish at different steps; every
        # lane's energy breakdown must match the generic kernel's for that
        # lane alone, component by component, as exact integers.
        cfg = ProcessorConfig(energy=ENERGY_ON)
        lanes = [
            generate_trace("int_heavy", n, seed=300 + n)
            for n in (1, 37, 400, 400, 158)
        ]
        for lane_result, trace in zip(simulate_batch(lanes, cfg), lanes):
            reference = simulate(trace, cfg)
            for component in ENERGY_COMPONENTS + ("total",):
                assert lane_result.energy[component] == \
                    reference.energy[component], (len(trace), component)


class TestPipelineSurface:
    def test_stats_gain_energy_counters(self):
        cfg = ProcessorConfig(energy=ENERGY_ON)
        trace = generate_trace("int_heavy", 500, seed=6)
        reference = simulate(trace, cfg)
        assert set(reference.energy) == set(ENERGY_COMPONENTS) | {"total"}
        for variant in KERNEL_VARIANTS:
            result = Pipeline(cfg, kernel_variant=variant).run(trace)
            assert result.energy == reference.energy, variant
            assert result.energy_per_instr == pytest.approx(
                reference.energy["total"] / len(trace)
            )

    def test_stats_without_energy_have_no_energy_keys(self):
        trace = generate_trace("int_heavy", 500, seed=6)
        for variant in KERNEL_VARIANTS:
            result = Pipeline(ProcessorConfig(), kernel_variant=variant).run(trace)
            assert result.energy is None, variant
            assert result.energy_per_instr == 0.0
            assert "energy" not in result.to_dict()
