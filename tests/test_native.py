"""The ``native`` kernel variant: robustness, fallback and build hygiene.

Field-for-field agreement over randomized configs lives in
``tests/test_fuzz_kernels.py``; this file covers what the fuzz suite does
not reach: degenerate and malformed traces, extreme latencies, plugin
fallback, and the build itself (once per sweep, nothing left on disk, no
compiler at all).
"""

import os
import subprocess
import sys
import tempfile

import pytest

from repro.common.config import (
    ClusterConfig,
    MemoryHierarchyConfig,
    ProcessorConfig,
)
from repro.common.errors import ConfigurationError, TraceError
from repro.common.types import InstrClass, Topology
from repro.energy import EnergyConfig
from repro.engine import (
    FLAG_L1_MISS,
    FLAG_L2_MISS,
    Trace,
    native,
    simulate,
    simulate_native,
)
from repro.steering import (
    STEERING_REGISTRY,
    LoadBalancePolicy,
    SteeringPolicy,
    register_policy,
)
from repro.workloads import generate_trace

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
#: Libraries a cold sweep compiles: the kernel, and the trace generator
#: where numpy ships the archive it links.
N_LIBRARIES = 1 + (native.npyrandom_archive() is not None)

pytestmark = pytest.mark.skipif(
    native.find_compiler() is None, reason="no C compiler on PATH")


def run_python(code, path, tmp_path):
    """Run ``code`` in a fresh interpreter with ``PATH`` set to ``path``."""
    env = {k: v for k, v in os.environ.items()
           if k != "REPRO_KERNEL_VARIANT"}
    env.update(PATH=path, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=str(tmp_path),
        capture_output=True, text=True, timeout=120,
    )


class TestAgreement:
    def test_empty_trace_matches_simulate(self):
        empty = Trace("empty", [], [], [], [], [])
        for cfg in (ProcessorConfig(),
                    ProcessorConfig(energy=EnergyConfig(enabled=True))):
            assert simulate_native(empty, cfg) == simulate(empty, cfg)

    @pytest.mark.parametrize("topology", [Topology.RING, Topology.CONV])
    @pytest.mark.parametrize("penalty", [1500, 10**6])
    def test_huge_l2_penalty_matches_simulate(self, topology, penalty):
        # Latencies near and far past the C scoreboards' cycle window.
        cfg = ProcessorConfig(
            topology=topology,
            memory=MemoryHierarchyConfig(l2_miss_penalty=penalty),
            energy=EnergyConfig(enabled=True),
        )
        trace = generate_trace("memory_bound", 3000, seed=11)
        result = simulate_native(trace, cfg)
        assert result.l2_misses > 0
        assert result == simulate(trace, cfg)


    @pytest.mark.parametrize("wrap", [1, 2])
    def test_issue_slots_past_the_cycle_window(self, wrap):
        """Issue slots more than one window of 1024 cycles apart.

        Two consumers of a missing load are ready at cycle ``1024 * wrap +
        1``, whose window row cycle 1 holds: an independent op issued
        there, and a second one probes it after the first consumer.  The
        first consumer's slot must go to the overflow map without evicting
        cycle 1, and come back once cycle 1 retires, or the second consumer
        would issue beside it (each op has an ALU of its own, so only the
        issue slot separates them)."""
        cfg = ProcessorConfig(
            n_clusters=1, topology=Topology.CONV, fetch_width=8,
            frontend_depth=0,
            cluster=ClusterConfig(issue_width=1, fu_counts=(3, 1, 1, 1)),
            memory=MemoryHierarchyConfig(l2_miss_penalty=1024 * wrap - 11),
        )
        miss = FLAG_L1_MISS | FLAG_L2_MISS
        ops = [(InstrClass.LOAD, "r1", None, None, miss),
               (InstrClass.INT_ALU, "r5"),
               (InstrClass.INT_ALU, "r2", "r1"),
               (InstrClass.INT_ALU, "r6")]
        ops += [(InstrClass.NOP, None)] * 24
        ops += [(InstrClass.INT_ALU, "r3", "r1")]
        trace = Trace.from_ops(ops)
        result = simulate_native(trace, cfg)
        assert result.cycles == 1024 * wrap + 4
        assert result == simulate(trace, cfg)

    def test_conv_grant_keeps_a_bus_cycle_behind_fetch(self):
        """A CONV grant 1024 cycles ahead must not evict one just behind
        fetch that a later grant still probes.

        Round robin over two clusters, eight fetched per cycle.  Cluster 0
        issues a missing load (done at 1025) and two ALU ops (done at 1)
        at cycle 0; op 3 takes cluster 0's bus at cycle 2 for the first.
        At fetch cycle 3, op 25 asks for the load's grant at 1026, whose
        window row cycle 2 holds, and op 27 then asks for the second ALU
        op's grant, which must find cycle 2 taken and get cycle 3.  A
        serial chain of divides after op 27 carries the one-cycle
        difference to the end of the run."""
        nop, alu, div, load = (int(InstrClass.NOP), int(InstrClass.INT_ALU),
                               int(InstrClass.INT_DIV), int(InstrClass.LOAD))
        n = 90
        ops, src1 = [nop] * n, [-1] * n
        ops[0] = load
        ops[2] = ops[3] = ops[4] = ops[25] = alu
        src1[3], src1[25] = 2, 0
        for i in range(27, n):
            ops[i], src1[i] = div, i - 1
        src1[27] = 4
        flags = [0] * n
        flags[0] = FLAG_L1_MISS | FLAG_L2_MISS
        trace = Trace("behind-fetch", ops, src1, [-1] * n,
                      [-1 if k == nop else 1 for k in ops], flags)
        cfg = ProcessorConfig(
            n_clusters=2, topology=Topology.CONV, steering="round_robin",
            fetch_width=8, frontend_depth=0,
            cluster=ClusterConfig(issue_width=4, fu_counts=(3, 1, 1, 1)),
            memory=MemoryHierarchyConfig(l2_miss_penalty=1013),
        )
        result = simulate_native(trace, cfg)
        assert result.cycles == 1452
        assert result == simulate(trace, cfg)


class TestManyClusters:
    """The slot windows hold at most a fixed number of cells, so their
    rows shrink as ``n_clusters`` grows and long latencies spill sooner."""

    @pytest.mark.parametrize("n_clusters", [64, 1000])
    @pytest.mark.parametrize("steering", ["dependence", "load_balance"])
    @pytest.mark.parametrize("topology", [Topology.RING, Topology.CONV])
    def test_short_rows_match_simulate(self, n_clusters, steering, topology):
        cfg = ProcessorConfig(
            n_clusters=n_clusters, topology=topology, steering=steering,
            memory=MemoryHierarchyConfig(l2_miss_penalty=300),
            energy=EnergyConfig(enabled=True),
        )
        trace = generate_trace("memory_bound", 2000, seed=5)
        assert simulate_native(trace, cfg) == simulate(trace, cfg)

    def test_huge_cluster_count_fits_in_one_gib(self, tmp_path):
        # Rows of 1024 cycles x n_clusters counts needed 3.2 GB here.
        code = (
            "import os, resource\n"
            "os.environ['OPENBLAS_NUM_THREADS'] = '1'  # per-thread arenas\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from repro.common.config import ProcessorConfig\n"
            "from repro.engine import native, simulate, simulate_native\n"
            "from repro.workloads import generate_trace\n"
            "cfg = ProcessorConfig(n_clusters=200_000)\n"
            "trace = generate_trace('int_heavy', 10, seed=1)\n"
            "assert native._arguments(cfg) is not None\n"
            "assert simulate_native(trace, cfg) == simulate(trace, cfg)\n"
            "print('ok')\n"
        )
        env_path = os.environ.get("PATH", "")
        result = run_python(code, env_path, tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ok"


class TestMalformedTraces:
    """``Trace(validate=False)`` input is rejected before the C loop."""

    @staticmethod
    def unchecked(opclass, src1, src2=None):
        n = len(opclass)
        src2 = [-1] * n if src2 is None else src2
        return Trace("bad", opclass, src1, src2, [-1] * n, [0] * n,
                     validate=False)

    @pytest.mark.parametrize("src1, src2", [([-1, 2], None),
                                            ([-1, -1], [-1, 7])])
    def test_source_past_the_end(self, src1, src2):
        alu = int(InstrClass.INT_ALU)
        with pytest.raises(TraceError, match=r"\[1\]: source index"):
            simulate_native(self.unchecked([alu, alu], src1, src2),
                            ProcessorConfig())

    @pytest.mark.parametrize("opclass", [12, -1])
    def test_opclass_out_of_range(self, opclass):
        alu = int(InstrClass.INT_ALU)
        with pytest.raises(TraceError, match=rf"invalid opclass {opclass}"):
            simulate_native(self.unchecked([alu, opclass], [-1, -1]),
                            ProcessorConfig())

    @pytest.mark.parametrize("store_share", [1.0, 0.5])
    def test_conv_grants_to_sources_that_produce_nothing(self, store_share):
        # Unvalidated sources may name stores, which CONV grants lazily
        # like producers: the bus window must hold them too.
        n = 400
        kinds = [int(InstrClass.STORE) if i % int(1 / store_share) == 0
                 else int(InstrClass.INT_ALU) for i in range(n)]
        trace = self.unchecked(kinds, [-1] + list(range(n - 1)))
        cfg = ProcessorConfig(topology=Topology.CONV, n_clusters=4,
                              steering="round_robin")
        assert simulate_native(trace, cfg) == simulate(trace, cfg)

    @pytest.mark.parametrize("forward", [True, False])
    @pytest.mark.parametrize("steering", ["round_robin", "dependence"])
    def test_conv_grants_with_sources_after_their_consumers(self, forward,
                                                            steering):
        # CONV's lazy grants reuse bus cells tagged before the fetch cycle
        # of instruction i - reach.  A source at or after its consumer
        # (forward) makes reach the whole trace; without one, the last
        # 300 instructions read producers 2,501 back, on another cluster,
        # whose grants land in cycles the window has long since reused.
        n = 3000
        kinds = [int(InstrClass.LOAD) if i % 3 == 0 else
                 int(InstrClass.INT_MUL) if i % 3 == 1 else
                 int(InstrClass.INT_ALU) for i in range(n)]
        src1 = [i - 1 - i % 7 if i > 7 else -1 for i in range(n)]
        src2 = [-1] * (n - 300) + [i - 2501 for i in range(n - 300, n)]
        if forward:
            for i in range(0, n - 5, 50):
                src1[i] = i + 5
            for i in range(0, n, 97):
                src2[i] = i
        flags = [FLAG_L1_MISS | FLAG_L2_MISS if i % 30 == 0 else 0
                 for i in range(n)]
        trace = Trace("reach", kinds, src1, src2, [1] * n, flags,
                      validate=False)
        cfg = ProcessorConfig(topology=Topology.CONV, n_clusters=4,
                              steering=steering)
        assert simulate_native(trace, cfg) == simulate(trace, cfg)

    def test_column_length_mismatch(self):
        alu = int(InstrClass.INT_ALU)
        trace = Trace("bad", [alu, alu], [-1], [-1, -1], [-1, -1], [0, 0],
                      validate=False)
        with pytest.raises(TraceError, match="column src1 has 1 entries"):
            simulate_native(trace, ProcessorConfig())

    def test_missing_fu_type_message_is_exact(self):
        cfg = ProcessorConfig(cluster=ClusterConfig(fu_counts=(1, 1, 0, 0)))
        trace = generate_trace("fp_heavy", 500, seed=1)
        with pytest.raises(ConfigurationError) as native_err:
            simulate_native(trace, cfg)
        with pytest.raises(ConfigurationError) as generic_err:
            simulate(trace, cfg)
        assert str(native_err.value) == str(generic_err.value)


class EvenOdd(SteeringPolicy):
    """The README's interpreted-only plugin."""

    name = "even_odd"

    def make_generic(self, ctx):
        nc = ctx.n_clusters
        return lambda i, s1, s2, fetch_cycle: (i & 1) % nc

    def make_naive(self, ctx):
        nc = ctx.n_clusters
        return lambda instr, fetch_cycle: (instr.index & 1) % nc


class RenamedLoadBalance(LoadBalancePolicy):
    """A plugin with codegen emitters but no C implementation."""

    name = "load_balance_copy"


class TestFallback:
    @pytest.fixture
    def plugin(self, request):
        policy = register_policy(request.param())
        yield policy
        STEERING_REGISTRY.pop(policy.name)

    @pytest.mark.parametrize("plugin, kernel", [
        (EvenOdd, "simulate"),
        (RenamedLoadBalance, "simulate"),
    ], indirect=["plugin"])
    def test_plugin_falls_back_and_matches(self, plugin, kernel,
                                           monkeypatch):
        calls = []
        real = getattr(native, kernel)
        monkeypatch.setattr(native, kernel,
                            lambda *a: calls.append(a) or real(*a))
        cfg = ProcessorConfig(steering=plugin.name)
        trace = generate_trace("int_heavy", 800, seed=3)
        assert simulate_native(trace, cfg) == simulate(trace, cfg)
        assert len(calls) == 1

    @pytest.mark.parametrize("plugin", [RenamedLoadBalance],
                             indirect=True)
    def test_plugin_with_emitters_compiles_no_python_kernel(
            self, plugin, monkeypatch):
        # A plugin with codegen emitters runs the generic loop, even at
        # 1,024 clusters, where a per-config compiled kernel is slowest.
        from repro.engine import codegen

        compiled = []
        monkeypatch.setattr(codegen, "compile_kernel",
                            lambda cfg: compiled.append(cfg))
        cfg = ProcessorConfig(steering=plugin.name, n_clusters=1024)
        trace = generate_trace("int_heavy", 400, seed=3)
        assert simulate_native(trace, cfg) == simulate(trace, cfg)
        assert compiled == []


class TestBuild:
    def test_build_directory_is_removed(self, monkeypatch):
        made = []
        real_mkdtemp = tempfile.mkdtemp

        def recording_mkdtemp(*args, **kwargs):
            made.append(real_mkdtemp(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(native, "_lib", None)
        monkeypatch.setattr(tempfile, "mkdtemp", recording_mkdtemp)
        assert native.load() is native.load()
        assert len(made) == 1
        assert not os.path.exists(made[0])

    def test_failed_build_quotes_the_compiler(self, monkeypatch, tmp_path):
        broken = tmp_path / "broken.c"
        broken.write_text("int repro_simulate( {\n")
        monkeypatch.setattr(native, "_lib", None)
        monkeypatch.setattr(native, "_SOURCE", str(broken))
        with pytest.raises(ConfigurationError, match="broken.c"):
            native.load()

    @staticmethod
    def failing_smoke_sweep(tmp_path, fails):
        """The CLI's smoke sweep with a ``cc`` that fails on the sources
        matching the shell pattern ``fails`` and compiles the rest."""
        fake = tmp_path / "bin"
        fake.mkdir()
        cc = fake / "cc"
        cc.write_text(
            f"#!/bin/sh\ncase \"$*\" in {fails})\n"
            "  echo 'cc: simulated failure' >&2; exit 1;;\nesac\n"
            f"exec '{native.find_compiler()}' \"$@\"\n")
        cc.chmod(0o755)
        return run_python(
            "import sys; from repro.sweep.cli import main; "
            "sys.exit(main(['run', '--smoke', '--workers', '1', "
            "'--store', 's.jsonl']))",
            f"{fake}{os.pathsep}{os.environ.get('PATH', '')}", tmp_path)

    def test_failed_build_exits_2_from_the_cli(self, tmp_path):
        proc = self.failing_smoke_sweep(tmp_path, "*native.c*")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: building the native kernel")
        assert "simulated failure" in proc.stderr

    @pytest.mark.skipif(native.npyrandom_archive() is None,
                        reason="numpy ships no libnpyrandom.a to link")
    def test_failed_trace_generator_build_exits_2_from_the_cli(
            self, tmp_path):
        # The inline sweep needs the trace generator first, and a build
        # that started and failed is an error, not a fallback to numpy.
        proc = self.failing_smoke_sweep(tmp_path, "*")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(
            "error: building the native trace generator")
        assert "simulated failure" in proc.stderr

    def test_one_compile_per_sweep_process_tree(self, tmp_path):
        log = tmp_path / "cc.log"
        fake = tmp_path / "bin"
        fake.mkdir()
        cc = fake / "cc"
        cc.write_text(f"#!/bin/sh\necho cc >> '{log}'\n"
                      f"exec '{native.find_compiler()}' \"$@\"\n")
        cc.chmod(0o755)
        proc = run_python(
            "from repro.sweep import ResultStore, run_sweep, smoke_spec\n"
            "s = run_sweep(smoke_spec().expand(), ResultStore('s.jsonl'), "
            "workers=2)\n"
            "assert s.kernel_variant == 'native' and s.n_computed == 24\n",
            f"{fake}{os.pathsep}{os.environ.get('PATH', '')}", tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert log.read_text().splitlines() == ["cc"] * N_LIBRARIES

    def test_no_compiler_defaults_to_specialized(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        reference = run_python(
            "import sys; from repro.sweep.cli import main; "
            "sys.exit(main(['run', '--smoke', '--workers', '1', "
            "'--store', 'a.jsonl']))",
            os.environ.get("PATH", ""), tmp_path)
        assert reference.returncode == 0, reference.stderr
        proc = run_python(
            "from repro.engine import resolve_kernel_variant\n"
            "assert resolve_kernel_variant(None) == 'specialized'\n"
            "import sys; from repro.sweep.cli import main\n"
            "sys.exit(main(['run', '--smoke', '--workers', '1', "
            "'--store', 'b.jsonl']))",
            str(empty), tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "[specialized]" in proc.stdout
        assert (tmp_path / "a.jsonl").read_bytes() == \
            (tmp_path / "b.jsonl").read_bytes()
