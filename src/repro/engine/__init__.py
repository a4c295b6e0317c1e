"""Cycle-level simulation engine.

Performance-first core of the reproduction: struct-of-arrays traces and
window state (:mod:`repro.engine.trace`, :mod:`repro.engine.window`), the
table-driven issue/execute/writeback kernel (:mod:`repro.engine.kernel`)
covering both the paper's ring topology and the conventional clustered
baseline, the per-configuration specializing compiler
(:mod:`repro.engine.codegen`), the lane-vectorized numpy batch kernel
(:mod:`repro.engine.batch`), the same loop compiled from C
(:mod:`repro.engine.native`, the default variant when a C compiler is on
``PATH``), and the public
:class:`~repro.engine.pipeline.Pipeline` facade with its ``kernel_variant``
selector.

``batch`` and ``codegen`` import numpy, which no sweep needs until it
generates a trace, so their names here are loaded on first access
(:pep:`562`), not with the package.
"""

import importlib

from repro.engine.kernel import (
    ENGINE_VERSION,
    KernelResult,
    STAGES,
    build_tables,
    simulate,
)
from repro.engine.native import simulate_native
from repro.engine.pipeline import (
    DEFAULT_KERNEL_VARIANT,
    KERNEL_VARIANTS,
    KERNEL_VARIANT_ENV,
    Pipeline,
    resolve_kernel_variant,
)
from repro.engine.trace import (
    FLAG_L1_MISS,
    FLAG_L2_MISS,
    FLAG_MISPREDICT,
    Trace,
)
from repro.engine.window import SoAWindow

#: Names re-exported from the numpy-backed modules, by module.
_LAZY = {
    "simulate_batch": "repro.engine.batch",
    **{name: "repro.engine.codegen" for name in (
        "clear_registry", "compile_kernel", "emit_kernel_source",
        "get_kernel", "registry_size", "simulate_specialized",
        "specialization_key",
    )},
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_LAZY[name]), name)
    globals()[name] = value
    return value

__all__ = [
    "DEFAULT_KERNEL_VARIANT",
    "ENGINE_VERSION",
    "FLAG_L1_MISS",
    "FLAG_L2_MISS",
    "FLAG_MISPREDICT",
    "KERNEL_VARIANTS",
    "KERNEL_VARIANT_ENV",
    "KernelResult",
    "Pipeline",
    "STAGES",
    "SoAWindow",
    "Trace",
    "build_tables",
    "clear_registry",
    "compile_kernel",
    "emit_kernel_source",
    "get_kernel",
    "registry_size",
    "resolve_kernel_variant",
    "simulate",
    "simulate_batch",
    "simulate_native",
    "simulate_specialized",
    "specialization_key",
]
