"""Declarative design-space grids.

A :class:`SweepSpec` names the axes of a design-space study — topology,
cluster count, steering policy, workload mix, seed, plus arbitrary
:class:`~repro.common.config.ProcessorConfig` fields addressed by dotted
path (``"bus.hop_latency"``) — and :meth:`SweepSpec.expand` takes their
cartesian product into concrete :class:`ExperimentPoint` objects.

Every point is content-addressed: :meth:`ExperimentPoint.key` hashes the
full nested config dict, the workload identity ``(mix, n_instructions,
seed)`` and :data:`~repro.engine.kernel.ENGINE_VERSION`.  The result store
uses this key, which is what makes sweeps resumable and re-runs free.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.common.config import ProcessorConfig
from repro.common.errors import ConfigurationError
from repro.common.jsonutil import canonical_json, content_digest
from repro.common.types import Topology
from repro.energy import EnergyConfig
from repro.engine.kernel import ENGINE_VERSION
from repro.exec.frontier import dedup_ordered
from repro.steering import STEERING_REGISTRY, list_policies
from repro.workloads import get_mix

#: Spec axes that map onto ProcessorConfig fields; they cannot also appear
#: as ``overrides`` paths or the same field would be set from two places.
_AXIS_FIELDS = ("topology", "n_clusters", "steering")


def _set_path(tree: Dict[str, Any], path: str, value: Any) -> None:
    """Set ``tree[a][b]... = value`` for dotted ``path`` ``"a.b...."``.

    Only existing keys may be addressed: an unknown component raises
    :class:`ConfigurationError` naming the valid keys at that level, the
    same fail-loudly contract as :meth:`ProcessorConfig.from_dict`.
    """
    node = tree
    parts = path.split(".")
    for depth, part in enumerate(parts):
        if not isinstance(node, dict) or part not in node:
            where = ".".join(parts[:depth]) or "ProcessorConfig"
            valid = sorted(node) if isinstance(node, dict) else []
            raise ConfigurationError(
                f"override path {path!r}: {part!r} is not a field of {where} "
                f"(valid: {valid})"
            )
        if depth == len(parts) - 1:
            node[part] = value
        else:
            node = node[part]


@dataclass(frozen=True)
class ExperimentPoint:
    """One fully-resolved simulation: a machine config plus a workload."""

    config: ProcessorConfig
    mix: str
    n_instructions: int
    seed: int

    def __post_init__(self) -> None:
        get_mix(self.mix)  # raises ConfigurationError for unknown mixes
        if self.n_instructions < 0:
            raise ConfigurationError(
                f"n_instructions must be non-negative, got {self.n_instructions}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "config": self.config.to_dict(),
            "mix": self.mix,
            "n_instructions": self.n_instructions,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentPoint":
        allowed = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise ConfigurationError(
                f"ExperimentPoint.from_dict: unknown key(s) {unknown}"
            )
        kwargs = dict(data)
        if "config" in kwargs and not isinstance(kwargs["config"], ProcessorConfig):
            kwargs["config"] = ProcessorConfig.from_dict(kwargs["config"])
        return cls(**kwargs)

    def key(self) -> str:
        """Content hash identifying this point in the result store.

        Folds in :data:`ENGINE_VERSION` so results computed by an older
        timing model are cache *misses*, never silently reused.  Memoized
        per instance (all fields are frozen): the runner consults keys on
        every dedup, cache-hit, dispatch, and frontier-flush step, and
        re-hashing the full nested config each time is pure waste.
        """
        cached = self.__dict__.get("_key")
        if cached is not None and cached[0] == ENGINE_VERSION:
            return cached[1]
        digest = content_digest(
            {"point": self.to_dict(), "engine_version": ENGINE_VERSION}, 24
        )
        object.__setattr__(self, "_key", (ENGINE_VERSION, digest))
        return digest

    def label(self) -> str:
        """Short human-readable identity for logs and progress output."""
        return (
            f"{self.mix}/{self.config.topology.value}"
            f"x{self.config.n_clusters}/{self.config.steering}"
            f"/n{self.n_instructions}/s{self.seed}"
        )


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of a design-space sweep.

    ``overrides`` maps a dotted ``ProcessorConfig`` path to the *axis* of
    values it sweeps over (every entry multiplies the grid); ``base`` maps
    dotted paths to a single fixed value applied to every point.
    """

    name: str = "sweep"
    topologies: Tuple[str, ...] = ("ring", "conv")
    cluster_counts: Tuple[int, ...] = (2, 4, 8)
    steerings: Tuple[str, ...] = ("dependence",)
    mixes: Tuple[str, ...] = ("int_heavy",)
    n_instructions: int = 20_000
    seeds: Tuple[int, ...] = (2005,)
    overrides: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    base: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        # Normalise sequences (callers pass lists; JSON specs always do).
        object.__setattr__(self, "topologies", tuple(self.topologies))
        object.__setattr__(self, "cluster_counts", tuple(self.cluster_counts))
        object.__setattr__(self, "steerings", tuple(self.steerings))
        object.__setattr__(self, "mixes", tuple(self.mixes))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if isinstance(self.overrides, Mapping):
            object.__setattr__(
                self,
                "overrides",
                tuple((k, tuple(v)) for k, v in self.overrides.items()),
            )
        else:
            object.__setattr__(
                self, "overrides", tuple((k, tuple(v)) for k, v in self.overrides)
            )
        if isinstance(self.base, Mapping):
            object.__setattr__(self, "base", tuple(self.base.items()))
        else:
            object.__setattr__(self, "base", tuple(tuple(kv) for kv in self.base))

        for axes_name in ("topologies", "cluster_counts", "steerings", "mixes", "seeds"):
            if not getattr(self, axes_name):
                raise ConfigurationError(f"SweepSpec.{axes_name} must not be empty")
        for topo in self.topologies:
            try:
                Topology(topo)
            except ValueError:
                valid = [t.value for t in Topology]
                raise ConfigurationError(
                    f"SweepSpec: unknown topology {topo!r}; valid: {valid}"
                ) from None
        for steering in self.steerings:
            if steering not in STEERING_REGISTRY:
                raise ConfigurationError(
                    f"SweepSpec: unknown steering {steering!r}; "
                    f"registered policies: {list(list_policies())}"
                )
        for mix in self.mixes:
            get_mix(mix)
        for path, _values in tuple(self.overrides) + tuple(self.base):
            root = path.split(".", 1)[0]
            if root in _AXIS_FIELDS:
                raise ConfigurationError(
                    f"SweepSpec: {path!r} cannot be overridden — "
                    f"{root!r} is a sweep axis (use the axis field instead)"
                )
        for path, values in self.overrides:
            if not values:
                raise ConfigurationError(
                    f"SweepSpec: override axis {path!r} has no values"
                )

    # -- serialization ----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "topologies": list(self.topologies),
            "cluster_counts": list(self.cluster_counts),
            "steerings": list(self.steerings),
            "mixes": list(self.mixes),
            "n_instructions": self.n_instructions,
            "seeds": list(self.seeds),
            "overrides": {path: list(values) for path, values in self.overrides},
            "base": {path: value for path, value in self.base},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        allowed = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise ConfigurationError(
                f"SweepSpec.from_dict: unknown key(s) {unknown}; "
                f"valid keys: {sorted(allowed)}"
            )
        return cls(**dict(data))

    def with_energy(self) -> "SweepSpec":
        """This spec with the per-event energy model (default costs) on
        every point.  Appended last, so it wins over any ``energy.*`` entry
        of ``base``; energy-enabled points have their own cache keys."""
        return replace(self, base=self.base + (("energy.enabled", True),))

    # -- expansion --------------------------------------------------------
    def n_points(self) -> int:
        total = (
            len(self.mixes)
            * len(self.topologies)
            * len(self.cluster_counts)
            * len(self.steerings)
            * len(self.seeds)
        )
        for _path, values in self.overrides:
            total *= len(values)
        return total

    def expand(self) -> List[ExperimentPoint]:
        """Materialise the grid, in deterministic (declaration) order."""
        base_tree = ProcessorConfig().to_dict()
        # ``to_dict`` omits an all-default energy block (the digest-stability
        # rule), but dotted override paths like ``energy.enabled`` can only
        # address existing keys — seed the defaults so energy sweeps work.
        # Points that leave the block at its defaults serialize without it,
        # so non-energy grids keep their pre-energy content-hash keys.
        base_tree.setdefault("energy", EnergyConfig().to_dict())
        for path, value in self.base:
            _set_path(base_tree, path, value)
        override_paths = [path for path, _values in self.overrides]
        override_axes = [values for _path, values in self.overrides]

        points: List[ExperimentPoint] = []
        for mix, topo, n_clusters, steering, seed in itertools.product(
            self.mixes, self.topologies, self.cluster_counts,
            self.steerings, self.seeds,
        ):
            for combo in itertools.product(*override_axes):
                tree = json.loads(canonical_json(base_tree))  # deep copy
                for path, value in zip(override_paths, combo):
                    _set_path(tree, path, value)
                tree["topology"] = topo
                tree["n_clusters"] = n_clusters
                tree["steering"] = steering
                points.append(
                    ExperimentPoint(
                        config=ProcessorConfig.from_dict(tree),
                        mix=mix,
                        n_instructions=self.n_instructions,
                        seed=seed,
                    )
                )
        return points


def spec_digest(spec: SweepSpec, **extra: Any) -> str:
    """Content digest of ``spec`` plus any ``extra`` payload entries (a
    shard range): the service's job id and the fabric checkpoint's spec
    binding."""
    return content_digest({"sweep_spec": spec.to_dict(), **extra}, 16)


def dedup_points(
        points: Sequence[ExperimentPoint]) -> Dict[str, ExperimentPoint]:
    """Unique points by key, in expansion order — the canonical list the
    pool runner, service shard jobs and fabric shards number index by
    index."""
    return dedup_ordered((point.key(), point) for point in points)


def smoke_spec(n_instructions: int = 2_000) -> SweepSpec:
    """The CI grid: 2 mixes x 2 topologies x 3 cluster counts x 2 steerings
    = 24 points, small enough to finish in seconds."""
    return SweepSpec(
        name="smoke",
        topologies=("ring", "conv"),
        cluster_counts=(2, 4, 8),
        steerings=("dependence", "round_robin"),
        mixes=("int_heavy", "memory_bound"),
        n_instructions=n_instructions,
        seeds=(2005,),
    )


def paper_spec(n_instructions: int = 100_000) -> SweepSpec:
    """The full paper-style grid: every mix and every *registered* steering
    policy (plugins included), ring and conv, 2/4/8 clusters, three seeds."""
    from repro.workloads import list_mixes

    return SweepSpec(
        name="paper",
        topologies=("ring", "conv"),
        cluster_counts=(2, 4, 8),
        steerings=list_policies(),
        mixes=list_mixes(),
        n_instructions=n_instructions,
        seeds=(2005, 2006, 2007),
    )


__all__ = ["ExperimentPoint", "SweepSpec", "dedup_points", "paper_spec",
           "smoke_spec", "spec_digest"]
