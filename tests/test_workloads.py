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

    @pytest.mark.parametrize("fields", [
        {"n_arch_regs": 0},
        {"n_arch_regs": -3},
        {"n_arch_regs": 2.5},
        {"n_arch_regs": True},
        {"n_arch_regs": 2**63 + 1},
        {"dep_distance_mean": float("inf")},
        {"dep_distance_mean": float("nan")},
        {"dep_distance_mean": 0.5},
        {"class_weights": {InstrClass.INT_ALU: float("nan")}},
        {"class_weights": {InstrClass.INT_ALU: 1.0,
                           InstrClass.LOAD: float("inf")}},
        {"class_weights": {InstrClass.INT_ALU: 1e308,
                           InstrClass.LOAD: 1e308}},
    ], ids=repr)
    def test_mix_rejects_what_a_generator_would(self, fields):
        # Each of these used to fail only inside numpy at generation, with
        # numpy's ValueError, or to generate without any error.
        fields = {"class_weights": {InstrClass.INT_ALU: 1.0}, **fields}
        with pytest.raises(ConfigurationError):
            WorkloadMix(name="bad", **fields)

    def test_mix_accepts_the_extremes(self):
        mix = WorkloadMix(name="edge", class_weights={InstrClass.INT_ALU: 1},
                          dep_distance_mean=1e300, n_arch_regs=2**63)
        trace = generate_trace(mix, 50, seed=1)
        trace.validate()
        assert min(trace.dst) >= 0
        # A distance past every producer clamps to the oldest one.
        assert set(trace.src1) <= {-1, 0}


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


#: sha256 over the five trace columns' bytes (opclass, src1, src2, dst,
#: flags), pinned from the per-instruction reference loop the vectorized
#: generator replaced.  Every stored sweep result depends on these bytes.
PINNED_TRACE_DIGESTS = {
    ("branchy", 1000, 7):
        "6cec6d22fff5f844db1a2d5f8d6dad97e2cf02608d1bbc8a8e22937610c0d408",
    ("branchy", 10000, 2005):
        "c6ec8c20618719abdd80f12609d1cc00b6f3b93aeed699965923c6f7e1cdd595",
    ("fp_heavy", 1000, 7):
        "23491ca9af001241959f9507b4baf1cc7f2c2099f83ab0acadbf02d4016ebb69",
    ("fp_heavy", 10000, 2005):
        "2be08b0171d85adb0475040e5399edf28a0627c0457a1fd8b0f9194c3a84eeeb",
    ("int_heavy", 1000, 7):
        "370fd13d8d6966c1502615dbdcaf7f6d9c2cb7f2c0f3282e8cc357c80e07a08c",
    ("int_heavy", 10000, 2005):
        "6c551afc9dae84dc8733fc096a0548821ee307a0cb0204cb24a8a17e7e659245",
    ("memory_bound", 1000, 7):
        "9817687375dcd2501abd89c28e2850c87166d00cd97d7292602a1a6d7f238a80",
    ("memory_bound", 10000, 2005):
        "753c9274e1500b897a7715a3718e47f61033929af500d0219153b811239fad04",
}


def reference_trace_columns(mix, n, seed):
    """The per-instruction loop the vectorized generator replaced, fed the
    same RNG draws in the same order."""
    from repro.common.rng import spawn_rng
    from repro.common.types import DEST_REGCLASS_FOR_CLASS, RegClass
    from repro.engine.trace import FLAG_L1_MISS, FLAG_L2_MISS, FLAG_MISPREDICT

    rng = spawn_rng(seed, "workload", mix.name, n)
    opclass = rng.choice(len(InstrClass), size=n,
                         p=mix.weight_vector()).tolist()
    want1 = (rng.random(n) < mix.dep_prob).tolist()
    want2 = (rng.random(n) < mix.second_src_prob).tolist()
    p_geo = min(1.0, 1.0 / mix.dep_distance_mean)
    dist1 = rng.geometric(p_geo, size=n).tolist()
    dist2 = rng.geometric(p_geo, size=n).tolist()
    mis = (rng.random(n) < mix.mispredict_rate).tolist()
    l1 = (rng.random(n) < mix.l1_miss_rate).tolist()
    l2 = (rng.random(n) < mix.l2_miss_rate).tolist()
    regs = rng.integers(0, mix.n_arch_regs, size=n).tolist()
    producers = {RegClass.INT: [], RegClass.FP: []}
    src1, src2, dst, flags = [], [], [], []
    for i, k in enumerate(opclass):
        klass = InstrClass(k)
        fp_source = klass.is_fp_compute or klass is InstrClass.FP_STORE
        pool = producers[RegClass.FP if fp_source else RegClass.INT]
        for want, dist, src in ((want1, dist1, src1), (want2, dist2, src2)):
            if pool and want[i] and klass is not InstrClass.NOP:
                src.append(pool[-min(dist[i], len(pool))])
            else:
                src.append(-1)
        f = 0
        if klass.is_branch and mis[i]:
            f = FLAG_MISPREDICT
        elif klass.is_memory and l1[i]:
            f = FLAG_L1_MISS | (FLAG_L2_MISS if l2[i] else 0)
        flags.append(f)
        regclass = DEST_REGCLASS_FOR_CLASS[klass]
        if regclass is None:
            dst.append(-1)
        else:
            producers[regclass].append(i)
            dst.append(regs[i])
    return opclass, src1, src2, dst, flags


#: Every class at once, with short dependence distances: both register
#: classes, NOPs and the clamp to the oldest producer all occur.
EVERY_CLASS_MIX = WorkloadMix(
    name="every_class",
    class_weights={klass: 1.0 for klass in InstrClass},
    dep_distance_mean=1.5,
    mispredict_rate=0.5,
    l1_miss_rate=0.5,
    l2_miss_rate=0.5,
)


@pytest.mark.parametrize("mix", [EVERY_CLASS_MIX, *list_mixes()],
                         ids=lambda m: getattr(m, "name", m))
@pytest.mark.parametrize("n, seed", [(0, 1), (1, 2), (7, 3), (3000, 4)])
def test_vectorized_generator_matches_reference_loop(mix, n, seed):
    from repro.workloads import get_mix

    if isinstance(mix, str):
        mix = get_mix(mix)
    trace = generate_trace(mix, n, seed=seed)
    columns = (trace.opclass, trace.src1, trace.src2, trace.dst, trace.flags)
    assert [list(c) for c in columns] == list(
        reference_trace_columns(mix, n, seed))


def test_pinned_digests_cover_every_registered_mix():
    assert {mix for mix, _n, _seed in PINNED_TRACE_DIGESTS} == set(list_mixes())


@pytest.mark.parametrize("mix, n, seed", sorted(PINNED_TRACE_DIGESTS))
def test_trace_columns_match_pinned_digest(mix, n, seed):
    import hashlib

    trace = generate_trace(mix, n, seed=seed)
    digest = hashlib.sha256()
    for column in (trace.opclass, trace.src1, trace.src2, trace.dst,
                   trace.flags):
        digest.update(column.tobytes())
    assert digest.hexdigest() == PINNED_TRACE_DIGESTS[(mix, n, seed)]


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
