"""Synthetic instruction-trace generator.

The paper evaluates on SPEC-like benchmarks; this reproduction ships a
deterministic synthetic generator whose mixes stress the same machine
behaviours: ``int_heavy`` (ALU pressure, short dependence chains),
``fp_heavy`` (long-latency FP chains), ``memory_bound`` (high load/store
share and cache-miss rates) and ``branchy`` (frequent, poorly predicted
branches).  All randomness flows through :func:`repro.common.rng.spawn_rng`,
so ``(mix, n, seed)`` fully determines the trace.

Dependences are drawn as backward distances over the stream of prior
*value-producing* instructions of the matching register class (FP consumers
read FP producers, integer-pipeline consumers read integer producers), which
yields the clustered, chain-like dependence structure steering policies care
about.

numpy, which draws the trace, is imported at the first
:func:`generate_trace` (or :func:`load_generator`), not with this module:
importing the package, listing mixes or expanding a grid never loads it.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.common.errors import ConfigurationError
from repro.common.rng import SeedLike, spawn_rng
from repro.common.types import DEST_REGCLASS_FOR_CLASS, InstrClass, RegClass
from repro.engine.trace import (
    FLAG_L1_MISS,
    FLAG_L2_MISS,
    FLAG_MISPREDICT,
    Trace,
)

_N_CLASSES = len(InstrClass)


@functools.lru_cache(maxsize=None)
def _tables() -> Tuple[Any, ...]:
    """numpy and the per-class lookup tables, indexed by opclass value:
    source register class, destination register class (-1 for none), is a
    branch, is a memory op.  Integer-pipeline consumers read INT producers,
    FP arithmetic reads FP producers, and FP stores read the FP value they
    write to memory.

    When numpy is not loaded yet and ``OPENBLAS_NUM_THREADS`` is unset,
    numpy is imported with that variable at 1 (and the environment restored
    after): the OpenBLAS bundled with numpy otherwise starts a worker
    thread at import that busy-waits for about 0.1 s, which here competed
    with the C compiler a sweep runs at the same time.  The generator does
    no BLAS work; the process's later BLAS calls run on one thread."""
    if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            import numpy
        finally:
            del os.environ["OPENBLAS_NUM_THREADS"]
    import numpy as np

    classes = [InstrClass(k) for k in range(_N_CLASSES)]
    return (
        np,
        np.array([
            int(RegClass.FP) if k.is_fp_compute or k is InstrClass.FP_STORE
            else int(RegClass.INT)
            for k in classes
        ]),
        np.array([
            -1 if DEST_REGCLASS_FOR_CLASS[k] is None
            else int(DEST_REGCLASS_FOR_CLASS[k])
            for k in classes
        ]),
        np.array([k.is_branch for k in classes]),
        np.array([k.is_memory for k in classes]),
    )


def load_generator() -> None:
    """Import numpy and build the generator's tables now instead of at the
    first trace.  Importing this module does neither, so a process that
    generates no trace never loads numpy; one that will (the sweep runner
    before it forks workers, the service and the fabric coordinator when
    they are built) calls this where the cost is hidden or expected."""
    _tables()


def _column(typecode: str, values: Any) -> array:
    """``values`` as an ``array`` of ``typecode``, copied as raw bytes:
    ``tolist`` would box every element on the way.  numpy reads the two
    typecodes used here (``b``, ``q``) as the same dtypes (int8, int64)."""
    return array(typecode, values.astype(typecode).tobytes())


@dataclass(frozen=True)
class WorkloadMix:
    """Parameters of one synthetic workload family."""

    name: str
    class_weights: Dict[InstrClass, float]
    dep_prob: float = 0.8  # probability a source operand exists
    second_src_prob: float = 0.4
    dep_distance_mean: float = 4.0  # geometric mean backward distance
    mispredict_rate: float = 0.05
    l1_miss_rate: float = 0.05
    l2_miss_rate: float = 0.2  # conditional on an L1 miss
    n_arch_regs: int = 64

    def __post_init__(self) -> None:
        if not self.class_weights:
            raise ConfigurationError(f"mix {self.name!r}: empty class weights")
        for klass, weight in self.class_weights.items():
            if weight < 0:
                raise ConfigurationError(
                    f"mix {self.name!r}: negative weight for {klass.name}"
                )
        if sum(self.class_weights.values()) <= 0:
            raise ConfigurationError(f"mix {self.name!r}: weights sum to zero")
        for field_name in ("dep_prob", "second_src_prob", "mispredict_rate",
                           "l1_miss_rate", "l2_miss_rate"):
            v = getattr(self, field_name)
            if not 0.0 <= v <= 1.0:
                raise ConfigurationError(
                    f"mix {self.name!r}: {field_name}={v} outside [0, 1]"
                )
        if self.dep_distance_mean < 1.0:
            raise ConfigurationError(
                f"mix {self.name!r}: dep_distance_mean must be >= 1"
            )

    def weight_vector(self) -> Any:
        """Class probabilities as a numpy array, indexed by opclass."""
        np = _tables()[0]
        w = np.zeros(_N_CLASSES)
        for klass, weight in self.class_weights.items():
            w[int(klass)] = weight
        return w / w.sum()


#: Registry of workload mixes, keyed by name.  The sweep grid and the CLI
#: enumerate this via :func:`list_mixes`; new mixes are added through
#: :func:`register_mix` (or by shipping them in the tuple below) without
#: touching any dispatch site.
MIX_REGISTRY: Dict[str, WorkloadMix] = {
    mix.name: mix
    for mix in (
        WorkloadMix(
            name="int_heavy",
            class_weights={
                InstrClass.INT_ALU: 0.50,
                InstrClass.INT_MUL: 0.05,
                InstrClass.INT_DIV: 0.01,
                InstrClass.LOAD: 0.20,
                InstrClass.STORE: 0.10,
                InstrClass.BRANCH: 0.14,
            },
            dep_distance_mean=3.0,
            mispredict_rate=0.04,
            l1_miss_rate=0.03,
        ),
        WorkloadMix(
            name="fp_heavy",
            class_weights={
                InstrClass.INT_ALU: 0.15,
                InstrClass.FP_ADD: 0.25,
                InstrClass.FP_MUL: 0.20,
                InstrClass.FP_DIV: 0.03,
                InstrClass.FP_LOAD: 0.20,
                InstrClass.FP_STORE: 0.10,
                InstrClass.BRANCH: 0.07,
            },
            dep_distance_mean=5.0,
            mispredict_rate=0.02,
            l1_miss_rate=0.04,
        ),
        WorkloadMix(
            name="memory_bound",
            class_weights={
                InstrClass.INT_ALU: 0.25,
                InstrClass.LOAD: 0.35,
                InstrClass.STORE: 0.20,
                InstrClass.FP_LOAD: 0.05,
                InstrClass.BRANCH: 0.15,
            },
            dep_distance_mean=4.0,
            mispredict_rate=0.05,
            l1_miss_rate=0.15,
            l2_miss_rate=0.3,
        ),
        WorkloadMix(
            name="branchy",
            class_weights={
                InstrClass.INT_ALU: 0.45,
                InstrClass.LOAD: 0.15,
                InstrClass.STORE: 0.08,
                InstrClass.BRANCH: 0.30,
                InstrClass.NOP: 0.02,
            },
            dep_distance_mean=2.5,
            mispredict_rate=0.12,
            l1_miss_rate=0.04,
        ),
    )
}


def list_mixes() -> Tuple[str, ...]:
    """Names of all registered workload mixes, sorted."""
    return tuple(sorted(MIX_REGISTRY))


def get_mix(name: str) -> WorkloadMix:
    """Look up a registered mix; unknown names list the valid ones."""
    try:
        return MIX_REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown workload mix {name!r}; available: {', '.join(list_mixes())}"
        ) from None


def register_mix(mix: WorkloadMix, overwrite: bool = False) -> WorkloadMix:
    """Add ``mix`` to the registry (e.g. from a sweep spec or a plugin).

    Registering a name that already exists raises
    :class:`~repro.common.errors.ConfigurationError` unless ``overwrite=True``,
    so two plugins cannot silently shadow each other.  Returns ``mix`` so the
    call can be used as a decorator-style one-liner.
    """
    if not overwrite and mix.name in MIX_REGISTRY:
        raise ConfigurationError(
            f"workload mix {mix.name!r} is already registered; "
            "pass overwrite=True to replace it"
        )
    MIX_REGISTRY[mix.name] = mix
    return mix


def generate_trace(
    mix: "str | WorkloadMix",
    n: int,
    seed: SeedLike = None,
    validate: bool = False,
) -> Trace:
    """Generate ``n`` dynamic instructions of ``mix`` deterministically.

    ``validate=False`` by default: the generator only emits structurally
    valid traces (covered by the test suite), and validation is an O(n)
    pass the benchmark harness should not pay for.
    """
    if isinstance(mix, str):
        mix = get_mix(mix)
    if n < 0:
        raise ConfigurationError(f"trace length must be non-negative, got {n}")

    np, src_regclass, dst_regclass, is_branch, is_memory = _tables()
    rng = spawn_rng(seed, "workload", mix.name, n)

    opclass = rng.choice(_N_CLASSES, size=n, p=mix.weight_vector())
    want_src1 = rng.random(n) < mix.dep_prob
    want_src2 = rng.random(n) < mix.second_src_prob
    # Geometric backward distances over the per-regclass producer streams.
    p_geo = min(1.0, 1.0 / mix.dep_distance_mean)
    dist1 = rng.geometric(p_geo, size=n)
    dist2 = rng.geometric(p_geo, size=n)
    mispredict_draw = rng.random(n) < mix.mispredict_rate
    l1_draw = rng.random(n) < mix.l1_miss_rate
    l2_draw = rng.random(n) < mix.l2_miss_rate
    dst_regs = rng.integers(0, mix.n_arch_regs, size=n)

    # Source operand j of instruction i reads the producer ``dist_j`` back
    # in the stream of earlier producers of i's source register class,
    # clamped to the oldest one: position ``max(before - dist_j, 0)`` of
    # that stream, where ``before`` counts the class's producers ahead of i.
    src_class = src_regclass[opclass]
    dst_class = dst_regclass[opclass]
    reads = opclass != int(InstrClass.NOP)
    src1 = np.full(n, -1, dtype=np.int64)
    src2 = np.full(n, -1, dtype=np.int64)
    for regclass in RegClass:
        produces = dst_class == int(regclass)
        producers = np.flatnonzero(produces)
        before = np.cumsum(produces) - produces
        consumes = reads & (src_class == int(regclass)) & (before > 0)
        for want, dist, src in ((want_src1, dist1, src1),
                                (want_src2, dist2, src2)):
            sel = consumes & want
            src[sel] = producers[np.maximum(before[sel] - dist[sel], 0)]

    # Branches are never memory ops, so the two flag families are disjoint.
    mem_miss = is_memory[opclass] & l1_draw
    flags = ((is_branch[opclass] & mispredict_draw) * FLAG_MISPREDICT
             | mem_miss * FLAG_L1_MISS
             | (mem_miss & l2_draw) * FLAG_L2_MISS)
    dst = np.where(dst_class >= 0, dst_regs, -1)

    return Trace(f"{mix.name}-{n}", _column("b", opclass), _column("q", src1),
                 _column("q", src2), _column("q", dst), _column("b", flags),
                 validate=validate)


__all__ = [
    "MIX_REGISTRY",
    "WorkloadMix",
    "generate_trace",
    "get_mix",
    "list_mixes",
    "load_generator",
    "register_mix",
]
