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


#: The list-valued :class:`SweepSpec` axes and the type of their elements.
_AXES = (
    ("topologies", str),
    ("cluster_counts", int),
    ("steerings", str),
    ("mixes", str),
    ("seeds", int),
)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _axis(name: str, values: Any, element: type) -> Tuple[Any, ...]:
    """``values`` as a tuple; a string, a non-sequence or an element that
    is not an ``element`` raises :class:`ConfigurationError` naming
    ``SweepSpec.<name>`` (``bool`` does not count as ``int``)."""
    if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
        raise ConfigurationError(
            f"SweepSpec.{name} must be a list, got {type(values).__name__}"
        )
    for value in values:
        if not (_is_int(value) if element is int else isinstance(value, element)):
            raise ConfigurationError(
                f"SweepSpec.{name}: {value!r} is not of type {element.__name__}"
            )
    return tuple(values)


def _pairs(name: str, value: Any) -> Tuple[Tuple[str, Any], ...]:
    """A mapping (or a sequence of pairs) from dotted paths to values, as a
    tuple of ``(path, value)`` pairs."""
    items = value.items() if isinstance(value, Mapping) else value
    pairs = None
    if not isinstance(items, (str, bytes)):
        try:
            pairs = tuple((path, entry) for path, entry in items)
        except (TypeError, ValueError):
            pass
    if pairs is None or not all(isinstance(path, str) for path, _ in pairs):
        raise ConfigurationError(
            f"SweepSpec.{name} must map dotted config paths to values, "
            f"got {value!r}"
        )
    return pairs


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
        # Normalise sequences (callers pass lists; JSON specs always do),
        # rejecting malformed fields here so a bad spec fails at load time.
        if not isinstance(self.name, str):
            raise ConfigurationError(
                f"SweepSpec.name must be a string, "
                f"got {type(self.name).__name__}"
            )
        for axis_name, element in _AXES:
            values = _axis(axis_name, getattr(self, axis_name), element)
            if not values:
                raise ConfigurationError(f"SweepSpec.{axis_name} must not be empty")
            object.__setattr__(self, axis_name, values)
        if not _is_int(self.n_instructions):
            raise ConfigurationError(
                f"SweepSpec.n_instructions must be an int, "
                f"got {self.n_instructions!r}"
            )
        object.__setattr__(self, "overrides", tuple(
            (path, _axis(f"overrides[{path!r}]", values, object))
            for path, values in _pairs("overrides", self.overrides)
        ))
        object.__setattr__(self, "base", _pairs("base", self.base))

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
        # Every path must name a config field: set each override's first
        # value on a throwaway tree, under the rules expand() applies.
        tree = self._base_tree()
        for path, values in self.overrides:
            _set_path(tree, path, values[0])

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
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"a sweep spec must be a JSON object, got {type(data).__name__}"
            )
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

    def _base_tree(self) -> Dict[str, Any]:
        """The default config as a dict, with ``base`` applied."""
        tree = ProcessorConfig().to_dict()
        # ``to_dict`` omits an all-default energy block (the digest-stability
        # rule), but dotted override paths like ``energy.enabled`` can only
        # address existing keys — seed the defaults so energy sweeps work.
        # Points that leave the block at its defaults serialize without it,
        # so non-energy grids keep their pre-energy content-hash keys.
        tree.setdefault("energy", EnergyConfig().to_dict())
        for path, value in self.base:
            _set_path(tree, path, value)
        return tree

    def expand(self) -> List[ExperimentPoint]:
        """Materialise the grid, in deterministic (declaration) order.

        Each distinct machine config is built once and shared by every
        point that runs it (all mixes and seeds), so its memoized digest
        is computed once too."""
        base_tree = self._base_tree()
        override_paths = [path for path, _values in self.overrides]
        override_axes = [values for _path, values in self.overrides]
        # Override values need not be hashable, so a config is keyed by
        # the indices of its override values.
        combos = list(itertools.product(
            *(range(len(values)) for values in override_axes)))
        configs: Dict[Tuple[Any, ...], ProcessorConfig] = {}

        points: List[ExperimentPoint] = []
        for mix, topo, n_clusters, steering, seed in itertools.product(
            self.mixes, self.topologies, self.cluster_counts,
            self.steerings, self.seeds,
        ):
            for combo in combos:
                config = configs.get((topo, n_clusters, steering, combo))
                if config is None:
                    tree = json.loads(canonical_json(base_tree))  # deep copy
                    for path, values, at in zip(
                            override_paths, override_axes, combo):
                        _set_path(tree, path, values[at])
                    tree["topology"] = topo
                    tree["n_clusters"] = n_clusters
                    tree["steering"] = steering
                    config = ProcessorConfig.from_dict(tree)
                    configs[topo, n_clusters, steering, combo] = config
                points.append(
                    ExperimentPoint(
                        config=config,
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
