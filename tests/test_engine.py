"""Tests for the cycle-level engine: trace handling, topology semantics,
determinism, and agreement with the naive reference model."""

import os
import sys

import pytest

from repro.common.config import ProcessorConfig
from repro.common.errors import TraceError
from repro.common.types import InstrClass, Topology
from repro.engine import (
    FLAG_L1_MISS,
    FLAG_MISPREDICT,
    KERNEL_VARIANTS,
    Pipeline,
    SoAWindow,
    Trace,
    simulate,
)
from repro.workloads import generate_trace

IALU = InstrClass.INT_ALU


def chain_trace(n=200):
    """A single serial dependence chain — maximally bypass-sensitive."""
    ops = [(IALU, f"r{i + 1}", f"r{i}", None, 0) for i in range(n)]
    return Trace.from_ops(ops, name="chain")


def independent_trace(n=400):
    """Fully independent ALU ops — limited only by machine bandwidth."""
    ops = [(IALU, f"r{i}") for i in range(n)]
    return Trace.from_ops(ops, name="independent")


class TestTrace:
    def test_from_ops_renames_registers(self):
        t = Trace.from_ops([
            (IALU, "a"),
            (IALU, "b", "a", None, 0),
            (IALU, "a", "a", "b", 0),
        ])
        assert list(t.src1) == [-1, 0, 0]
        assert list(t.src2) == [-1, -1, 1]

    def test_unwritten_register_is_live_in(self):
        t = Trace.from_ops([(IALU, "x", "never_written", None, 0)])
        assert t.src1[0] == -1

    def test_forward_dependence_rejected(self):
        with pytest.raises(TraceError, match="precede"):
            Trace("bad", [0, 0], [1, -1], [-1, -1], [0, 1], [0, 0])

    def test_source_must_produce_a_value(self):
        branch = int(InstrClass.BRANCH)
        with pytest.raises(TraceError, match="no register value"):
            Trace("bad", [branch, 0], [-1, 0], [-1, -1], [-1, 0], [0, 0])

    def test_mispredict_flag_only_on_branches(self):
        with pytest.raises(TraceError, match="mispredict"):
            Trace("bad", [0], [-1], [-1], [0], [FLAG_MISPREDICT])

    def test_miss_flag_only_on_memory(self):
        with pytest.raises(TraceError, match="cache-miss"):
            Trace("bad", [0], [-1], [-1], [0], [FLAG_L1_MISS])

    def test_from_ops_flags_position_enforced(self):
        branch = InstrClass.BRANCH
        # Correct padded form round-trips the flag.
        t = Trace.from_ops([(IALU, "a"),
                            (branch, None, "a", None, FLAG_MISPREDICT)])
        assert t.flags[1] == FLAG_MISPREDICT
        # An int in a source slot is an error, never a silent register name.
        with pytest.raises(TraceError, match="not a register name"):
            Trace.from_ops([(IALU, "a"), (branch, None, "a", FLAG_MISPREDICT)])

    @pytest.mark.parametrize("opclass", [99, -1, 200])
    def test_from_ops_invalid_opclass_rejected(self, opclass):
        # Regression: with a destination, 99 escaped as a ValueError from
        # InstrClass(99); 200 overflowed the signed-byte opclass column.
        for op in ((opclass, "r1"), (opclass, None)):
            with pytest.raises(TraceError, match="invalid opclass"):
                Trace.from_ops([op])

    def test_window_columns_parallel(self):
        t = chain_trace(10)
        win = SoAWindow(t)
        assert len(win) == 10
        cols = win.columns()
        assert all(len(c) == 10 for c in cols)


class TestFuCoverage:
    def test_missing_fu_type_rejected_up_front(self):
        from repro.common.config import ClusterConfig
        from repro.common.errors import ConfigurationError

        cfg = ProcessorConfig(cluster=ClusterConfig(fu_counts=(1, 1, 0, 0)))
        t = generate_trace("fp_heavy", 200, seed=1)
        with pytest.raises(ConfigurationError, match="zero units"):
            simulate(t, cfg)

    def test_int_only_cluster_runs_int_only_trace(self):
        from repro.common.config import ClusterConfig

        cfg = ProcessorConfig(cluster=ClusterConfig(fu_counts=(1, 1, 0, 0)))
        t = generate_trace("int_heavy", 500, seed=1)
        assert simulate(t, cfg).cycles > 0


class TestTopologySemantics:
    def test_conv_beats_ring_on_dependence_chain(self):
        """The paper's central trade-off: no bypass in the ring means a
        serial chain pays the hop+writeback on every producer->consumer
        edge, while the conventional cluster issues back-to-back."""
        t = chain_trace()
        ipc = {}
        for topo in (Topology.CONV, Topology.RING):
            cfg = ProcessorConfig(n_clusters=4, topology=topo)
            ipc[topo] = Pipeline(cfg).run(t).ipc
        assert ipc[Topology.CONV] > ipc[Topology.RING]
        assert ipc[Topology.CONV] > 0.9  # bypass: ~1 instr/cycle
        assert ipc[Topology.RING] < 0.5  # >= 2 extra cycles per edge

    def test_ring_results_always_communicate(self):
        t = independent_trace(100)
        cfg = ProcessorConfig(n_clusters=4, topology=Topology.RING)
        result = Pipeline(cfg).run(t)
        assert result.communications == 100

    def test_conv_local_values_never_communicate(self):
        t = chain_trace(100)
        cfg = ProcessorConfig(n_clusters=4, topology=Topology.CONV)
        result = Pipeline(cfg).run(t)
        # Dependence steering keeps the chain in one cluster: no traffic.
        assert result.communications == 0

    def test_independent_work_reaches_fetch_limit(self):
        t = independent_trace(800)
        cfg = ProcessorConfig(n_clusters=4, topology=Topology.CONV)
        ipc = Pipeline(cfg).run(t).ipc
        assert ipc == pytest.approx(cfg.fetch_width, rel=0.1)

    def test_more_clusters_do_not_hurt_parallel_work(self):
        t = generate_trace("int_heavy", 5000, seed=11)
        prev = 0.0
        for n_clusters in (1, 2, 4):
            cfg = ProcessorConfig(n_clusters=n_clusters, topology=Topology.CONV)
            ipc = Pipeline(cfg).run(t).ipc
            assert ipc >= prev * 0.95  # allow steering noise, no collapse
            prev = ipc


class TestPenalties:
    def test_smaller_window_cannot_be_faster(self):
        t = generate_trace("int_heavy", 3000, seed=5)
        big = ProcessorConfig(window_size=256)
        small = ProcessorConfig(window_size=8)
        cycles_big = Pipeline(big).run(t).cycles
        cycles_small = Pipeline(small).run(t).cycles
        assert cycles_small >= cycles_big

    def test_mispredicted_branch_costs_cycles(self):
        base_ops = [(IALU, f"r{i}") for i in range(50)]
        branch = int(InstrClass.BRANCH)
        taken = base_ops[:25] + [(branch, None, "r0", None, FLAG_MISPREDICT)] + base_ops[25:]
        clean = base_ops[:25] + [(branch, None, "r0", None, 0)] + base_ops[25:]
        cfg = ProcessorConfig()
        c_taken = Pipeline(cfg).run(Trace.from_ops(taken)).cycles
        c_clean = Pipeline(cfg).run(Trace.from_ops(clean)).cycles
        assert c_taken > c_clean

    def test_load_miss_stalls_consumer(self):
        load = int(InstrClass.LOAD)
        hit = [(load, "r0"), (IALU, "r1", "r0", None, 0)]
        miss = [(load, "r0", None, None, FLAG_L1_MISS),
                (IALU, "r1", "r0", None, 0)]
        cfg = ProcessorConfig()
        c_hit = Pipeline(cfg).run(Trace.from_ops(hit)).cycles
        c_miss = Pipeline(cfg).run(Trace.from_ops(miss)).cycles
        assert c_miss == c_hit + cfg.memory.l1d.miss_penalty


class TestDeterminism:
    def test_identical_runs_identical_stats(self):
        t = generate_trace("branchy", 4000, seed=77)
        cfg = ProcessorConfig(topology=Topology.RING)
        a = Pipeline(cfg).run(t)
        b = Pipeline(cfg).run(t)
        assert a == b

    def test_regenerated_trace_identical_stats(self):
        cfg = ProcessorConfig()
        runs = []
        for _ in range(2):
            t = generate_trace("memory_bound", 4000, seed=13)
            runs.append(Pipeline(cfg).run(t))
        assert runs[0] == runs[1]


class TestStatsAccounting:
    def test_counters_consistent_with_trace(self):
        t = generate_trace("int_heavy", 3000, seed=3)
        cfg = ProcessorConfig()
        result = Pipeline(cfg).run(t)
        assert result.n_instructions == len(t)
        assert len(result.issued_per_cluster) == cfg.n_clusters
        issued = sum(result.issued_per_cluster)
        nops = t.class_counts()[InstrClass.NOP]
        assert issued == len(t) - nops

    def test_class_counters_match_trace(self):
        t = generate_trace("fp_heavy", 2000, seed=9)
        result = Pipeline(ProcessorConfig()).run(t)
        assert result.class_counts == t.class_counts()

    def test_empty_trace(self):
        t = Trace("empty", [], [], [], [], [])
        result = Pipeline(ProcessorConfig()).run(t)
        assert result.cycles == 0
        assert result.ipc == 0.0


class TestNaiveReferenceAgreement:
    """The object-per-instruction model in bench/ is the correctness oracle:
    both implementations must agree cycle-for-cycle on every mix/topology."""

    @classmethod
    def setup_class(cls):
        bench_dir = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
        sys.path.insert(0, bench_dir)

    @pytest.mark.parametrize("mix", ["int_heavy", "fp_heavy", "memory_bound",
                                     "branchy"])
    @pytest.mark.parametrize("topology", [Topology.RING, Topology.CONV])
    def test_cycles_and_comms_agree(self, mix, topology):
        from naive_ref import NaivePipeline

        t = generate_trace(mix, 2000, seed=123)
        cfg = ProcessorConfig(n_clusters=4, topology=topology)
        naive = NaivePipeline(cfg).run(t)
        soa = simulate(t, cfg)
        assert naive["cycles"] == soa.cycles
        assert naive["communications"] == soa.communications
        assert naive["mispredicts"] == soa.mispredicts
        assert naive["l1_misses"] == soa.l1_misses

    @pytest.mark.parametrize("n_clusters", [1, 3, 5])
    @pytest.mark.parametrize("topology", [Topology.RING, Topology.CONV])
    def test_agreement_off_power_of_two(self, n_clusters, topology):
        """The kernel's &-mask modulo fast path only engages for power-of-two
        cluster counts; odd counts must take the % path and still agree."""
        from naive_ref import NaivePipeline

        t = generate_trace("int_heavy", 2000, seed=31)
        cfg = ProcessorConfig(n_clusters=n_clusters, topology=topology)
        naive = NaivePipeline(cfg).run(t)
        soa = simulate(t, cfg)
        assert naive["cycles"] == soa.cycles
        assert naive["communications"] == soa.communications


class TestResultRecord:
    """Serializable result records (consumed by the sweep result store)."""

    def test_kernel_result_round_trip(self):
        from repro.engine import KernelResult

        t = generate_trace("int_heavy", 1500, seed=9)
        result = simulate(t, ProcessorConfig())
        data = result.to_dict()
        rebuilt = KernelResult.from_dict(data)
        assert rebuilt == result
        assert rebuilt.ipc == result.ipc
        # JSON round trip too: histogram keys survive str->int coercion
        import json

        rebuilt2 = KernelResult.from_dict(json.loads(json.dumps(data)))
        assert rebuilt2 == result

    def test_kernel_result_from_dict_rejects_bad_keys(self):
        from repro.engine import KernelResult

        t = generate_trace("int_heavy", 100, seed=9)
        data = simulate(t, ProcessorConfig()).to_dict()
        data["speedup"] = 2.0
        with pytest.raises(ValueError, match="unknown keys"):
            KernelResult.from_dict(data)
        del data["speedup"]
        del data["cycles"]
        with pytest.raises(ValueError, match="missing keys"):
            KernelResult.from_dict(data)

    def test_kernel_result_from_dict_names_bad_histogram_key(self):
        from repro.engine import KernelResult

        t = generate_trace("int_heavy", 100, seed=9)
        data = simulate(t, ProcessorConfig()).to_dict()
        data["hop_histogram"] = {"not-a-number": 3}
        with pytest.raises(ValueError, match="'not-a-number'"):
            KernelResult.from_dict(data)
        data["hop_histogram"] = {"1": None}
        with pytest.raises(ValueError, match="None"):
            KernelResult.from_dict(data)

    def test_kernel_result_empty_histogram_round_trip(self):
        """A one-cluster CONV machine never communicates: the histogram is
        empty and must survive the to_dict/from_dict (and JSON) round trip."""
        import json

        from repro.engine import KernelResult

        t = generate_trace("int_heavy", 500, seed=9)
        cfg = ProcessorConfig(n_clusters=1, topology=Topology.CONV)
        result = simulate(t, cfg)
        assert result.hop_histogram == {}
        data = result.to_dict()
        assert KernelResult.from_dict(data) == result
        assert KernelResult.from_dict(json.loads(json.dumps(data))) == result

    @pytest.mark.parametrize("variant", KERNEL_VARIANTS)
    def test_pipeline_run_returns_the_kernel_result(self, variant):
        from repro.engine import KernelResult

        cfg = ProcessorConfig(n_clusters=4, topology=Topology.RING)
        t = generate_trace("branchy", 800, seed=6)
        result = Pipeline(cfg, kernel_variant=variant).run(t)
        assert isinstance(result, KernelResult)
        assert result == simulate(t, cfg)

    def test_pipeline_run_record(self):
        from repro.engine import ENGINE_VERSION, Pipeline

        cfg = ProcessorConfig(n_clusters=4, topology=Topology.RING)
        t = generate_trace("int_heavy", 1000, seed=5)
        record = Pipeline(cfg).run_record(t)
        assert record["engine_version"] == ENGINE_VERSION
        assert record["config_digest"] == cfg.config_digest()
        assert record["trace"] == t.name
        assert set(record) == {"engine_version", "config_digest", "trace",
                               "result"}
        assert record["result"]["cycles"] == simulate(t, cfg).cycles
        import json

        json.dumps(record)  # fully JSON-serializable
