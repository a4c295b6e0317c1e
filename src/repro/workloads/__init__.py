"""Workload generation for the simulation engine.

Currently one backend: the deterministic synthetic generator in
:mod:`repro.workloads.synthetic`.  Real-trace readers (e.g. SimpleScalar
EIO or textual traces) plug in here later behind the same
:class:`~repro.engine.trace.Trace` product type.
"""

from repro.workloads.synthetic import (
    MIX_REGISTRY,
    WorkloadMix,
    generate_trace,
    get_mix,
    list_mixes,
    load_generator,
    register_mix,
)

__all__ = [
    "MIX_REGISTRY",
    "WorkloadMix",
    "generate_trace",
    "get_mix",
    "list_mixes",
    "load_generator",
    "register_mix",
]
