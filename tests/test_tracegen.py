"""The C trace generator (``repro/engine/tracegen.c``) against numpy.

Every stored result depends on the trace bytes, so the C path must draw
numpy's stream and assemble the columns exactly as the numpy reference,
``synthetic._numpy_columns``, does: the same ``SeedSequence`` state, the
same class CDF and the same five columns, for the registered mixes and for
random ones at the edges (zero weights, every geometric algorithm, every
bounded-integer width).
"""

import random

import pytest

np = pytest.importorskip("numpy")

from repro.common.rng import (  # noqa: E402
    generate_state,
    seed_material,
    spawn_rng,
)
from repro.common.types import InstrClass  # noqa: E402
from repro.engine import native  # noqa: E402
from repro.workloads import (  # noqa: E402
    WorkloadMix,
    generate_trace,
    get_mix,
    list_mixes,
    synthetic,
)

needs_c = pytest.mark.skipif(
    native.find_compiler() is None or native.npyrandom_archive() is None,
    reason="no C compiler on PATH or no numpy libnpyrandom.a")

SEEDS = [None, 0, -1, 2**40 + 3]
LENGTHS = [0, 1, 7, 10_000]


def test_generate_state_matches_seed_sequence():
    rng = random.Random(2005)
    for _ in range(300):
        material = [rng.choice([0, 1, rng.getrandbits(32),
                                rng.getrandbits(rng.randint(33, 130))])
                    for _ in range(rng.randint(1, 9))]
        expected = np.random.SeedSequence(material).generate_state(
            4, np.uint64).tolist()
        assert generate_state(material, 4) == expected, material


def test_seed_material_is_what_spawn_rng_seeds():
    # spawn_rng(seed, *keys) is default_rng(SeedSequence(material)).
    for seed in SEEDS:
        material = seed_material(seed, "workload", "int_heavy", 10)
        a = np.random.default_rng(np.random.SeedSequence(material))
        b = spawn_rng(seed, "workload", "int_heavy", 10)
        assert a.integers(0, 2**62, size=4).tolist() == \
            b.integers(0, 2**62, size=4).tolist()


def random_mix(rng, index):
    """A seeded random mix at the generators' edges."""
    weights = {}
    for klass in InstrClass:
        weights[klass] = rng.choice(
            [0.0, 0.0, rng.random(), 10 ** rng.uniform(-9, 9),
             rng.randint(1, 9)])
    weights[InstrClass(rng.randrange(len(InstrClass)))] = 0.5
    return WorkloadMix(
        name=f"random-{index}",
        class_weights=weights,
        dep_prob=rng.random(),
        second_src_prob=rng.random(),
        # p_geo = 1/mean: 1 (mean 1), either side of 1/3 (numpy switches
        # from search to inversion there) and far below it.
        dep_distance_mean=rng.choice(
            [1.0, 2.9, 3.0, 3.1, rng.uniform(1.0, 50.0), 1e9]),
        mispredict_rate=rng.random(),
        l1_miss_rate=rng.random(),
        l2_miss_rate=rng.random(),
        # One value (no draw), 32-bit Lemire draws, and 64-bit ones.
        n_arch_regs=rng.choice([1, 2, 63, 64, 2**33]),
    )


def columns_of(mix, n, seed, draw):
    return [bytes(c) for c in draw(mix, n, seed)]


def c_columns(mix, n, seed):
    return synthetic._c_columns(native.load_tracegen(), mix, n, seed)


CASES = [(name, n, seed) for name in list_mixes()
         for n in LENGTHS for seed in SEEDS]
RANDOM_MIXES = [random_mix(random.Random(i), i) for i in range(24)]


@needs_c
@pytest.mark.parametrize("name, n, seed", CASES)
def test_registered_mixes_match_numpy(name, n, seed):
    mix = get_mix(name)
    assert columns_of(mix, n, seed, c_columns) == \
        columns_of(mix, n, seed, synthetic._numpy_columns)


@needs_c
@pytest.mark.parametrize("mix", RANDOM_MIXES, ids=lambda m: m.name)
def test_random_mixes_match_numpy(mix):
    rng = random.Random(mix.name)
    for n in LENGTHS:
        seed = rng.choice(SEEDS)
        assert columns_of(mix, n, seed, c_columns) == \
            columns_of(mix, n, seed, synthetic._numpy_columns), (n, seed)


@pytest.mark.parametrize("mix", [get_mix(name) for name in list_mixes()]
                         + RANDOM_MIXES, ids=lambda m: m.name)
def test_class_cdf_is_numpys(mix):
    cdf = mix.weight_vector().cumsum()
    cdf /= cdf[-1]
    assert mix.class_cdf() == cdf.tolist()


@needs_c
def test_generate_trace_draws_in_c_for_an_int_seed(monkeypatch):
    monkeypatch.setattr(synthetic, "_numpy_columns", None)
    assert len(generate_trace("branchy", 100, seed=3)) == 100


def test_a_generator_seed_takes_the_numpy_path(monkeypatch):
    def no_c(*_args):
        raise AssertionError("a Generator seed reached the C path")

    monkeypatch.setattr(synthetic, "_c_columns", no_c)
    trace = generate_trace("int_heavy", 500, seed=np.random.default_rng(9))
    expected = synthetic._numpy_columns(get_mix("int_heavy"), 500,
                                        np.random.default_rng(9))
    assert [bytes(c) for c in (trace.opclass, trace.src1, trace.src2,
                               trace.dst, trace.flags)] == \
        [bytes(c) for c in expected]
