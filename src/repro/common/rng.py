"""Deterministic random-number helpers.

Every stochastic component of the library (workload generation, profile
sampling, tie-breaking that the paper describes as "random") draws from a
:class:`numpy.random.Generator` created through these helpers so that runs
are reproducible given a seed, and independent components get independent
streams derived from the same master seed.

:func:`spawn_rng`'s stream is numpy's ``PCG64`` seeded by a
``SeedSequence`` over :func:`seed_material`.  :func:`generate_state` is
that ``SeedSequence``'s state in pure Python, so the trace generator's C
path (``repro/engine/tracegen.c``) seeds the same stream without numpy.
numpy is imported on first use, not with this module, so a process that
never draws from a :class:`numpy.random.Generator` (``python -m
repro.sweep list``, a sweep whose traces are drawn in C) does not pay for
it.
"""

from __future__ import annotations

import itertools
import numbers
from typing import TYPE_CHECKING, Iterable, List, Sequence, Union

if TYPE_CHECKING:
    import numpy as np

SeedLike = Union[int, "np.random.Generator", None]

#: Default master seed used across the library when the caller does not
#: provide one.  Chosen arbitrarily; fixed for reproducibility.
DEFAULT_SEED = 0x5EED_2005

# numpy.random.SeedSequence's constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFF_FFFF
_POOL_SIZE = 4
_XSHIFT = 16
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be ``None`` (use :data:`DEFAULT_SEED`), an integer, or an
    existing generator (returned unchanged so callers can thread a single
    stream through several layers).
    """
    import numpy as np

    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(int(seed))


def spawn_rng(seed: SeedLike, *keys: Union[int, str]) -> np.random.Generator:
    """Derive an independent generator from ``seed`` and a sequence of keys.

    The same ``(seed, keys)`` pair always yields the same stream, and
    different key tuples yield streams that are statistically independent.
    String keys are hashed with a stable (non-randomised) scheme so results
    do not depend on ``PYTHONHASHSEED``.
    """
    import numpy as np

    if isinstance(seed, np.random.Generator):
        # Derive from the generator's own bit stream deterministically.
        seed = int(seed.integers(0, 2**31 - 1))
    ss = np.random.SeedSequence(seed_material(seed, *keys))
    return np.random.default_rng(ss)


def seed_material(seed: Union[int, None], *keys: Union[int, str]) -> List[int]:
    """The ``SeedSequence`` entropy :func:`spawn_rng` seeds from: the low 32
    bits of ``seed`` (:data:`DEFAULT_SEED` for ``None``), then one 32-bit
    word per key."""
    base = DEFAULT_SEED if seed is None else int(seed)
    return [base & _MASK32, *(_stable_key(key) for key in keys)]


def _stable_key(key: Union[int, str]) -> int:
    """Map a key to a 32-bit integer in a platform-independent way."""
    if isinstance(key, numbers.Integral):  # numpy integers register here
        return int(key) & _MASK32
    acc = 2166136261  # FNV-1a offset basis
    for byte in str(key).encode("utf-8"):
        acc ^= byte
        acc = (acc * 16777619) & 0xFFFF_FFFF
    return acc


def _uint32_words(material: Sequence[int]) -> List[int]:
    """``material`` as numpy coerces a list of ints: each int as its 32-bit
    words, least significant first, and ``0`` as one zero word."""
    words = []
    for value in material:
        value = int(value)
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.append(value & _MASK32)
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32
    return words


def generate_state(material: Sequence[int], n_words: int) -> List[int]:
    """``numpy.random.SeedSequence(material).generate_state(n_words,
    numpy.uint64)`` as Python ints, computed without numpy: the 32-bit
    hash pool mixed from ``material``, then ``2 * n_words`` output words
    paired little-endian."""
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> _XSHIFT)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> _XSHIFT)

    entropy = _uint32_words(material)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for word in itertools.islice(itertools.cycle(pool), 2 * n_words):
        word ^= hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        word = (word * hash_const) & _MASK32
        state.append(word ^ (word >> _XSHIFT))
    return [lo | hi << 32 for lo, hi in zip(state[::2], state[1::2])]


def choice_index(rng: np.random.Generator, weights: Iterable[float]) -> int:
    """Sample an index proportionally to ``weights``.

    A tiny convenience wrapper used by the workload generator; ``weights``
    need not be normalised but must contain at least one positive entry.
    """
    import numpy as np

    w = np.asarray(list(weights), dtype=float)
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must contain at least one positive entry")
    return int(rng.choice(len(w), p=w / total))


def deterministic_hash(*keys: Union[int, str], bits: int = 32) -> int:
    """Stable hash of a key tuple, independent of ``PYTHONHASHSEED``."""
    acc = 1469598103934665603  # FNV-1a 64-bit offset basis
    for key in keys:
        for byte in str(key).encode("utf-8"):
            acc ^= byte
            acc = (acc * 1099511628211) & 0xFFFF_FFFF_FFFF_FFFF
        acc ^= 0xFF
        acc = (acc * 1099511628211) & 0xFFFF_FFFF_FFFF_FFFF
    return acc & ((1 << bits) - 1)


__all__ = [
    "DEFAULT_SEED",
    "SeedLike",
    "make_rng",
    "spawn_rng",
    "choice_index",
    "deterministic_hash",
    "generate_state",
    "seed_material",
]
