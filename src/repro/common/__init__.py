"""Shared building blocks used by every other subpackage.

The :mod:`repro.common` package holds the pieces that do not belong to any
particular pipeline stage: the instruction/functional-unit taxonomy
(:mod:`repro.common.types`), the processor configuration dataclasses that
encode Table 2 of the paper (:mod:`repro.common.config`), deterministic random
number helpers (:mod:`repro.common.rng`) and the exception hierarchy
(:mod:`repro.common.errors`).
"""

from repro.common.types import (
    InstrClass,
    FuType,
    RegClass,
    Topology,
    INT_CLASSES,
    FP_CLASSES,
    MEM_CLASSES,
)
from repro.common.config import (
    BranchPredictorConfig,
    BusConfig,
    CacheConfig,
    ClusterConfig,
    FuLatencies,
    MemoryHierarchyConfig,
    ProcessorConfig,
)
from repro.common.errors import (
    ConfigurationError,
    ReproError,
    SimulationError,
    SteeringError,
    TraceError,
)
from repro.common.rng import make_rng, spawn_rng

__all__ = [
    "InstrClass",
    "FuType",
    "RegClass",
    "Topology",
    "INT_CLASSES",
    "FP_CLASSES",
    "MEM_CLASSES",
    "BranchPredictorConfig",
    "BusConfig",
    "CacheConfig",
    "ClusterConfig",
    "FuLatencies",
    "MemoryHierarchyConfig",
    "ProcessorConfig",
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "SteeringError",
    "TraceError",
    "make_rng",
    "spawn_rng",
]
