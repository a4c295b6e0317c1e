"""Deterministic random-number helpers.

Every stochastic component of the library (workload generation, profile
sampling, tie-breaking that the paper describes as "random") draws from a
:class:`numpy.random.Generator` created through these helpers so that runs
are reproducible given a seed, and independent components get independent
streams derived from the same master seed.

numpy is imported on first use, not with this module, so a process that
never draws a random number (``python -m repro.sweep list``, a sweep whose
points are all cached) does not pay for it.
"""

from __future__ import annotations

import numbers
from typing import TYPE_CHECKING, Iterable, Union

if TYPE_CHECKING:
    import numpy as np

SeedLike = Union[int, "np.random.Generator", None]

#: Default master seed used across the library when the caller does not
#: provide one.  Chosen arbitrarily; fixed for reproducibility.
DEFAULT_SEED = 0x5EED_2005


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
        base = int(seed.integers(0, 2**31 - 1))
    elif seed is None:
        base = DEFAULT_SEED
    else:
        base = int(seed)
    material = [base & 0xFFFF_FFFF]
    for key in keys:
        material.append(_stable_key(key))
    ss = np.random.SeedSequence(material)
    return np.random.default_rng(ss)


def _stable_key(key: Union[int, str]) -> int:
    """Map a key to a 32-bit integer in a platform-independent way."""
    if isinstance(key, numbers.Integral):  # numpy integers register here
        return int(key) & 0xFFFF_FFFF
    acc = 2166136261  # FNV-1a offset basis
    for byte in str(key).encode("utf-8"):
        acc ^= byte
        acc = (acc * 16777619) & 0xFFFF_FFFF
    return acc


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
]
