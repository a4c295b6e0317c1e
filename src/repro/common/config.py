"""Processor configuration dataclasses.

These dataclasses encode the machine parameters of the paper's evaluation
(Table 2 and Section 4): functional-unit latencies, per-cluster resources,
the inter-cluster bus, the memory hierarchy and the branch predictor.  Every
dataclass validates itself in ``__post_init__`` and raises
:class:`~repro.common.errors.ConfigurationError` on inconsistent values so a
bad configuration fails fast instead of corrupting a multi-hour sweep.

The defaults model the 4-cluster machine of the paper: one integer ALU, one
integer mul/div unit, one FP adder and one FP mul/div unit per cluster
(Section 4.2), a one-cycle-per-hop inter-cluster bus, and the latencies of
Table 2.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple, Type, TypeVar

from repro.common.errors import ConfigurationError
from repro.common.jsonutil import content_digest
from repro.common.types import FuType, InstrClass, Topology
from repro.energy import EnergyConfig
from repro.steering import STEERING_REGISTRY, list_policies

_T = TypeVar("_T")

#: Shared default-equality probe for :meth:`ProcessorConfig.to_dict` — a
#: module-level constant so the hot serialization path (config digests,
#: sweep-point keys) does not rebuild and re-validate an EnergyConfig per
#: call.
_DEFAULT_ENERGY = EnergyConfig()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def _check_keys(cls: Type[Any], data: Mapping[str, Any]) -> None:
    """Reject mappings with keys that are not fields of ``cls``."""
    _require(
        isinstance(data, Mapping),
        f"{cls.__name__}.from_dict expects a mapping, got {type(data).__name__}",
    )
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - allowed)
    _require(
        not unknown,
        f"{cls.__name__}.from_dict: unknown key(s) {unknown}; "
        f"valid keys: {sorted(allowed)}",
    )


def _flat_from_dict(cls: Type[_T], data: Mapping[str, Any]) -> _T:
    """Construct a flat (non-nested) config dataclass from a mapping."""
    _check_keys(cls, data)
    return cls(**dict(data))


def _positive(name: str, value: int) -> None:
    _require(isinstance(value, int) and value >= 1, f"{name} must be a positive integer, got {value!r}")


def _non_negative(name: str, value: int) -> None:
    _require(isinstance(value, int) and value >= 0, f"{name} must be a non-negative integer, got {value!r}")


@dataclass(frozen=True)
class FuLatencies:
    """Execution latencies in cycles per instruction class (Table 2).

    ``int_div`` and ``fp_div`` are executed on non-pipelined units; every
    other class issues back-to-back on a fully pipelined unit.
    """

    int_alu: int = 1
    int_mul: int = 3
    int_div: int = 20
    fp_add: int = 2
    fp_mul: int = 4
    fp_div: int = 12
    load: int = 2  # L1 hit latency; misses add the cache miss penalty
    store: int = 1
    branch: int = 1

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            _positive(f"FuLatencies.{f.name}", getattr(self, f.name))

    def table(self) -> List[int]:
        """Flat latency table indexed by ``int(InstrClass)`` for the hot loop."""
        t = [1] * len(InstrClass)
        t[InstrClass.INT_ALU] = self.int_alu
        t[InstrClass.INT_MUL] = self.int_mul
        t[InstrClass.INT_DIV] = self.int_div
        t[InstrClass.FP_ADD] = self.fp_add
        t[InstrClass.FP_MUL] = self.fp_mul
        t[InstrClass.FP_DIV] = self.fp_div
        t[InstrClass.LOAD] = self.load
        t[InstrClass.FP_LOAD] = self.load
        t[InstrClass.STORE] = self.store
        t[InstrClass.FP_STORE] = self.store
        t[InstrClass.BRANCH] = self.branch
        t[InstrClass.NOP] = 1
        return t

    def pipelined_table(self) -> List[bool]:
        """Whether the unit for each class accepts a new op every cycle."""
        t = [True] * len(InstrClass)
        t[InstrClass.INT_DIV] = False
        t[InstrClass.FP_DIV] = False
        return t

    def to_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FuLatencies":
        return _flat_from_dict(cls, data)


@dataclass(frozen=True)
class ClusterConfig:
    """Resources of a single cluster (Section 4.2)."""

    issue_width: int = 2
    fu_counts: Tuple[int, int, int, int] = (1, 1, 1, 1)  # indexed by FuType
    int_regs: int = 32
    fp_regs: int = 32

    def __post_init__(self) -> None:
        _positive("ClusterConfig.issue_width", self.issue_width)
        _require(
            len(self.fu_counts) == len(FuType),
            f"ClusterConfig.fu_counts must have {len(FuType)} entries "
            f"(one per FuType), got {len(self.fu_counts)}",
        )
        for fu in FuType:
            _non_negative(f"ClusterConfig.fu_counts[{fu.name}]", self.fu_counts[fu])
        _require(
            any(self.fu_counts[fu] > 0 for fu in FuType if fu.is_integer),
            "each cluster needs at least one integer unit (loads/stores/branches "
            "compute their address on the integer datapath)",
        )
        _positive("ClusterConfig.int_regs", self.int_regs)
        _positive("ClusterConfig.fp_regs", self.fp_regs)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "issue_width": self.issue_width,
            "fu_counts": list(self.fu_counts),
            "int_regs": self.int_regs,
            "fp_regs": self.fp_regs,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ClusterConfig":
        _check_keys(cls, data)
        kwargs = dict(data)
        if "fu_counts" in kwargs:
            counts = kwargs["fu_counts"]
            _require(
                isinstance(counts, (list, tuple)),
                f"ClusterConfig.fu_counts must be a list, got {counts!r}",
            )
            kwargs["fu_counts"] = tuple(counts)
        return cls(**kwargs)


@dataclass(frozen=True)
class BusConfig:
    """Inter-cluster interconnect parameters.

    ``RING`` uses unidirectional buses following the ring; ``CONV`` has one
    bus per direction so a value travels the shorter way around.
    ``hop_latency`` is the cycles a value takes to advance one cluster;
    ``bandwidth`` is the number of results a cluster can inject per cycle.
    """

    hop_latency: int = 1
    bandwidth: int = 1
    writeback_latency: int = 1

    def __post_init__(self) -> None:
        _positive("BusConfig.hop_latency", self.hop_latency)
        _positive("BusConfig.bandwidth", self.bandwidth)
        _non_negative("BusConfig.writeback_latency", self.writeback_latency)

    def to_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BusConfig":
        return _flat_from_dict(cls, data)


@dataclass(frozen=True)
class CacheConfig:
    """A single cache level."""

    size_kb: int = 32
    line_bytes: int = 64
    associativity: int = 4
    hit_latency: int = 2
    miss_penalty: int = 10

    def __post_init__(self) -> None:
        _positive("CacheConfig.size_kb", self.size_kb)
        _positive("CacheConfig.line_bytes", self.line_bytes)
        _require(
            self.line_bytes & (self.line_bytes - 1) == 0,
            f"CacheConfig.line_bytes must be a power of two, got {self.line_bytes}",
        )
        _positive("CacheConfig.associativity", self.associativity)
        _positive("CacheConfig.hit_latency", self.hit_latency)
        _non_negative("CacheConfig.miss_penalty", self.miss_penalty)
        lines = self.size_kb * 1024 // self.line_bytes
        _require(
            lines % self.associativity == 0,
            "CacheConfig: line count must be divisible by associativity "
            f"({lines} lines, {self.associativity}-way)",
        )

    def to_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CacheConfig":
        return _flat_from_dict(cls, data)


@dataclass(frozen=True)
class MemoryHierarchyConfig:
    """Data-side memory hierarchy: L1D plus a flat penalty beyond it."""

    l1d: CacheConfig = field(default_factory=CacheConfig)
    l2_miss_penalty: int = 100

    def __post_init__(self) -> None:
        _non_negative("MemoryHierarchyConfig.l2_miss_penalty", self.l2_miss_penalty)

    def to_dict(self) -> Dict[str, Any]:
        return {"l1d": self.l1d.to_dict(), "l2_miss_penalty": self.l2_miss_penalty}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MemoryHierarchyConfig":
        _check_keys(cls, data)
        kwargs: Dict[str, Any] = dict(data)
        if "l1d" in kwargs:
            kwargs["l1d"] = CacheConfig.from_dict(kwargs["l1d"])
        return cls(**kwargs)


@dataclass(frozen=True)
class BranchPredictorConfig:
    """Front-end branch handling.

    The simulator does not model predictor tables; workloads carry a
    per-branch mispredict flag drawn from a configured rate, and this config
    sets the redirect penalty charged when a flagged branch resolves.
    """

    mispredict_penalty: int = 7

    def __post_init__(self) -> None:
        _positive("BranchPredictorConfig.mispredict_penalty", self.mispredict_penalty)

    def to_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BranchPredictorConfig":
        return _flat_from_dict(cls, data)


@dataclass(frozen=True)
class ProcessorConfig:
    """Top-level machine description handed to :class:`repro.engine.Pipeline`."""

    n_clusters: int = 4
    topology: Topology = Topology.RING
    fetch_width: int = 4
    window_size: int = 128
    frontend_depth: int = 4
    steering: str = "dependence"
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    latencies: FuLatencies = field(default_factory=FuLatencies)
    bus: BusConfig = field(default_factory=BusConfig)
    branch: BranchPredictorConfig = field(default_factory=BranchPredictorConfig)
    memory: MemoryHierarchyConfig = field(default_factory=MemoryHierarchyConfig)
    energy: EnergyConfig = field(default_factory=EnergyConfig)

    def __post_init__(self) -> None:
        _positive("ProcessorConfig.n_clusters", self.n_clusters)
        _require(
            isinstance(self.topology, Topology),
            f"ProcessorConfig.topology must be a Topology, got {self.topology!r}",
        )
        _positive("ProcessorConfig.fetch_width", self.fetch_width)
        _positive("ProcessorConfig.window_size", self.window_size)
        _non_negative("ProcessorConfig.frontend_depth", self.frontend_depth)
        _require(
            self.window_size >= self.fetch_width,
            "ProcessorConfig.window_size must be at least fetch_width "
            f"({self.window_size} < {self.fetch_width})",
        )
        _require(
            self.steering in STEERING_REGISTRY,
            f"ProcessorConfig.steering must be a registered steering policy, "
            f"one of {list(list_policies())}; got {self.steering!r}",
        )

    def with_(self, **overrides: object) -> "ProcessorConfig":
        """Return a copy with ``overrides`` applied (sweeps build configs this way)."""
        return dataclasses.replace(self, **overrides)

    def to_dict(self) -> Dict[str, Any]:
        """Full nested, JSON-serializable description; exact inverse of
        :meth:`from_dict` (``from_dict(cfg.to_dict()) == cfg``).

        The ``energy`` block is omitted while it equals the all-default
        (disabled) :class:`~repro.energy.EnergyConfig`: a disabled energy
        model cannot influence any simulation result, so serialized configs
        — and therefore :meth:`config_digest` and every sweep-store cache
        key derived from it — are byte-identical to what they were before
        the energy model existed.  Enabling (or otherwise customising) the
        model serializes it and deliberately changes the digest.
        """
        out = {
            "n_clusters": self.n_clusters,
            "topology": self.topology.value,
            "fetch_width": self.fetch_width,
            "window_size": self.window_size,
            "frontend_depth": self.frontend_depth,
            "steering": self.steering,
            "cluster": self.cluster.to_dict(),
            "latencies": self.latencies.to_dict(),
            "bus": self.bus.to_dict(),
            "branch": self.branch.to_dict(),
            "memory": self.memory.to_dict(),
        }
        if self.energy != _DEFAULT_ENERGY:
            out["energy"] = self.energy.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ProcessorConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys — at any nesting level — raise
        :class:`~repro.common.errors.ConfigurationError` so a typo in a sweep
        spec fails loudly instead of silently falling back to a default.
        """
        _check_keys(cls, data)
        kwargs: Dict[str, Any] = dict(data)
        if "topology" in kwargs and not isinstance(kwargs["topology"], Topology):
            try:
                kwargs["topology"] = Topology(kwargs["topology"])
            except ValueError:
                valid = [t.value for t in Topology]
                raise ConfigurationError(
                    f"unknown topology {kwargs['topology']!r}; valid: {valid}"
                ) from None
        nested = {
            "cluster": ClusterConfig,
            "latencies": FuLatencies,
            "bus": BusConfig,
            "branch": BranchPredictorConfig,
            "memory": MemoryHierarchyConfig,
            "energy": EnergyConfig,
        }
        for name, sub_cls in nested.items():
            if name in kwargs and not isinstance(kwargs[name], sub_cls):
                kwargs[name] = sub_cls.from_dict(kwargs[name])
        return cls(**kwargs)

    def config_digest(self) -> str:
        """Stable 16-hex-char content hash of the full configuration.

        Two configs have equal digests iff their :meth:`to_dict` forms are
        equal; the JSON canonicalisation (sorted keys, no whitespace) keeps
        the digest independent of Python version and dict insertion order.
        Used as (part of) the cache key of the sweep result store.
        Memoized per instance (every field is frozen): a sweep shares one
        config object across all the points that run it.
        """
        digest = self.__dict__.get("_digest")
        if digest is None:
            digest = content_digest(self.to_dict(), 16)
            object.__setattr__(self, "_digest", digest)
        return digest

    def describe(self) -> Dict[str, object]:
        """A flat, JSON-friendly summary used by benchmark/report output.

        The ``energy`` marker appears only when the model is enabled:
        ``describe()`` is embedded verbatim in the header comment of every
        codegen-emitted kernel, and an energy-off config must emit source
        byte-identical to a build without the energy model.
        """
        out: Dict[str, object] = {
            "n_clusters": self.n_clusters,
            "topology": self.topology.value,
            "fetch_width": self.fetch_width,
            "window_size": self.window_size,
            "issue_width_per_cluster": self.cluster.issue_width,
            "steering": self.steering,
            "bus_hop_latency": self.bus.hop_latency,
            "bus_bandwidth": self.bus.bandwidth,
            "mispredict_penalty": self.branch.mispredict_penalty,
            "l1d_miss_penalty": self.memory.l1d.miss_penalty,
        }
        if self.energy.enabled:
            out["energy"] = True
        return out


__all__ = [
    "BranchPredictorConfig",
    "BusConfig",
    "CacheConfig",
    "ClusterConfig",
    "EnergyConfig",
    "FuLatencies",
    "MemoryHierarchyConfig",
    "ProcessorConfig",
]
