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

The columns are drawn from numpy's ``PCG64`` stream seeded by
:func:`repro.common.rng.spawn_rng`'s ``SeedSequence``, with one of two
generators that agree byte for byte.  Where a C compiler and numpy's
``libnpyrandom.a`` are available and the seed is an integer or ``None``,
``repro/engine/tracegen.c`` (built by :mod:`repro.engine.native`) makes
the draws and assembles the columns without importing numpy.  Otherwise,
and for a :class:`numpy.random.Generator` seed, :func:`_numpy_columns`
does, importing numpy on first use; it is also the reference the C path is
tested against.  Importing this module loads neither.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import numbers
from array import array
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.common.errors import ConfigurationError
from repro.common.rng import SeedLike, generate_state, seed_material, spawn_rng
from repro.common.types import DEST_REGCLASS_FOR_CLASS, InstrClass, RegClass
from repro.engine import native
from repro.engine.trace import (
    FLAG_L1_MISS,
    FLAG_L2_MISS,
    FLAG_MISPREDICT,
    Trace,
)

_N_CLASSES = len(InstrClass)


#: Per-class lookup rows, indexed by opclass value: source register class,
#: destination register class (-1 for none), is a branch, is a memory op.
#: Integer-pipeline consumers read INT producers, FP arithmetic reads FP
#: producers, and FP stores read the FP value they write to memory.  The
#: rows are in the order ``tracegen.c`` reads them.
_CLASS_TABLE: Tuple[Tuple[int, ...], ...] = tuple(
    tuple(row(InstrClass(k)) for k in range(_N_CLASSES))
    for row in (
        lambda k: int(RegClass.FP) if k.is_fp_compute
        or k is InstrClass.FP_STORE else int(RegClass.INT),
        lambda k: -1 if DEST_REGCLASS_FOR_CLASS[k] is None
        else int(DEST_REGCLASS_FOR_CLASS[k]),
        lambda k: int(k.is_branch),
        lambda k: int(k.is_memory),
    )
)
_C_CLASS_TABLE = (ctypes.c_int8 * (4 * _N_CLASSES))(
    *(v for row in _CLASS_TABLE for v in row))


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
            if not math.isfinite(weight):
                raise ConfigurationError(
                    f"mix {self.name!r}: weight {weight} for {klass.name} "
                    "is not finite"
                )
            if weight < 0:
                raise ConfigurationError(
                    f"mix {self.name!r}: negative weight for {klass.name}"
                )
        total = sum(self.class_weights.values())
        if not 0 < total < math.inf:
            raise ConfigurationError(
                f"mix {self.name!r}: weights sum to {total}, not to a "
                "positive finite number"
            )
        for field_name in ("dep_prob", "second_src_prob", "mispredict_rate",
                           "l1_miss_rate", "l2_miss_rate"):
            v = getattr(self, field_name)
            if not 0.0 <= v <= 1.0:
                raise ConfigurationError(
                    f"mix {self.name!r}: {field_name}={v} outside [0, 1]"
                )
        if not 1.0 <= self.dep_distance_mean < math.inf:
            raise ConfigurationError(
                f"mix {self.name!r}: dep_distance_mean="
                f"{self.dep_distance_mean} must be finite and >= 1"
            )
        regs = self.n_arch_regs
        if (not isinstance(regs, numbers.Integral) or isinstance(regs, bool)
                or not 1 <= regs <= 2**63):
            raise ConfigurationError(
                f"mix {self.name!r}: n_arch_regs={regs!r} must be an "
                "integer in [1, 2**63]"
            )

    def weight_vector(self) -> Any:
        """Class probabilities as a numpy array, indexed by opclass."""
        import numpy as np

        w = np.zeros(_N_CLASSES)
        for klass, weight in self.class_weights.items():
            w[int(klass)] = weight
        return w / w.sum()

    def class_cdf(self) -> List[float]:
        """The CDF ``Generator.choice`` searches for
        ``p=self.weight_vector()``, in numpy's float order: the weights'
        sum is numpy's pairwise sum of 12 doubles (eight accumulators over
        the first eight, added as a tree, then the last four in turn), each
        probability is a weight over that sum, and the CDF is their running
        sum over its last entry."""
        w = [0.0] * _N_CLASSES
        for klass, weight in self.class_weights.items():
            w[int(klass)] = float(weight)
        total = ((w[0] + w[1]) + (w[2] + w[3])) + ((w[4] + w[5]) + (w[6] + w[7]))
        for x in w[8:]:
            total += x
        cdf = list(itertools.accumulate(x / total for x in w))
        return [c / cdf[-1] for c in cdf]


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
    lib = None
    if seed is None or isinstance(seed, numbers.Integral):
        lib = native.load_tracegen()
    if lib is None:
        columns = _numpy_columns(mix, n, seed)
    else:
        columns = _c_columns(lib, mix, n, seed)
    return Trace(f"{mix.name}-{n}", *columns, validate=validate)


def _c_columns(lib: ctypes.CDLL, mix: WorkloadMix, n: int,
               seed: "int | None") -> Tuple[array, ...]:
    """The trace's five columns, drawn and assembled by ``tracegen.c``."""
    opclass, flags = array("b", bytes(n)), array("b", bytes(n))
    src1, src2, dst = (array("q", bytes(8 * n)) for _ in range(3))
    state = generate_state(seed_material(seed, "workload", mix.name, n), 4)
    rates = (mix.dep_prob, mix.second_src_prob,
             min(1.0, 1.0 / mix.dep_distance_mean), mix.mispredict_rate,
             mix.l1_miss_rate, mix.l2_miss_rate)
    i8, i64 = ctypes.c_int8 * n, ctypes.c_int64 * n
    rc = lib.repro_generate_trace(
        n, (ctypes.c_uint64 * 4)(*state),
        (ctypes.c_double * _N_CLASSES)(*mix.class_cdf()),
        (ctypes.c_double * len(rates))(*rates), int(mix.n_arch_regs) - 1,
        _C_CLASS_TABLE, i8.from_buffer(opclass), i64.from_buffer(src1),
        i64.from_buffer(src2), i64.from_buffer(dst), i8.from_buffer(flags),
    )
    if rc != 0:
        raise MemoryError(f"trace generator: out of memory for {n} "
                          "instructions")
    return opclass, src1, src2, dst, flags


def _numpy_columns(mix: WorkloadMix, n: int,
                   seed: SeedLike) -> Tuple[array, ...]:
    """The trace's five columns, drawn with numpy: the reference the C
    path matches, and the path without a compiler or for a
    :class:`numpy.random.Generator` seed."""
    import numpy as np

    src_regclass, dst_regclass = (np.array(row) for row in _CLASS_TABLE[:2])
    is_branch, is_memory = (np.array(row, dtype=bool)
                            for row in _CLASS_TABLE[2:])
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
    return (_column("b", opclass), _column("q", src1), _column("q", src2),
            _column("q", dst), _column("b", flags))


__all__ = [
    "MIX_REGISTRY",
    "WorkloadMix",
    "generate_trace",
    "get_mix",
    "list_mixes",
    "register_mix",
]
