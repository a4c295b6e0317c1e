"""Public simulation API: ``Pipeline(config).run(trace) -> KernelResult``.

:class:`Pipeline` is a thin, stable facade over the simulation kernels.  It
validates the variant once, runs the selected kernel, checks the result for
forward progress, and returns the kernel's :class:`KernelResult` totals
(``ipc``, ``cycles``, ``communications``, ``hop_histogram``,
``issued_per_cluster`` and friends).  :meth:`Pipeline.run_record` wraps the
same totals in the JSON record that :mod:`repro.sweep` stores.  The default
kernel is ``native``, the generic loop compiled from C, when a C compiler is
on ``PATH``, and the ``specialized`` Python kernel otherwise
(:data:`DEFAULT_KERNEL_VARIANT`).

``simulate_specialized`` and ``simulate_batch`` are module attributes, as
``simulate`` and ``simulate_native`` are, so a caller may wrap any kernel by
name; the first two are imported on first use (:pep:`562`), since their
modules import numpy and the default ``native`` variant needs neither.
"""

from __future__ import annotations

import importlib
import os
from typing import Any, Callable, Dict, Optional

from repro.common.config import ProcessorConfig
from repro.common.errors import ConfigurationError, SimulationError
from repro.engine.kernel import ENGINE_VERSION, KernelResult, simulate
from repro.engine.native import find_compiler, simulate_native
from repro.engine.trace import Trace

#: Valid values for ``Pipeline(kernel_variant=...)``.  ``native`` runs the
#: generic model compiled from C (:mod:`repro.engine.native`).  ``batch``
#: runs the lane-vectorized numpy kernel (:mod:`repro.engine.batch`) with a
#: single lane per point; the sweep runner groups nothing, so it is the
#: slowest variant everywhere.
KERNEL_VARIANTS = ("generic", "specialized", "batch", "native")

#: Default kernel variant: ``native`` when a C compiler is on ``PATH`` at
#: import (the library itself is built on first use, not here), otherwise
#: ``specialized``, which compiles a branch-free Python kernel per machine
#: configuration (see :mod:`repro.engine.codegen`).  Every variant produces
#: identical :class:`KernelResult` totals by contract.
DEFAULT_KERNEL_VARIANT = "native" if find_compiler() else "specialized"

#: Environment override for the default variant — set
#: ``REPRO_KERNEL_VARIANT=generic`` to force the readable interpreted loop
#: (e.g. when debugging a suspected kernel issue) without touching code.
KERNEL_VARIANT_ENV = "REPRO_KERNEL_VARIANT"

#: Kernels loaded on first use, by the module that defines them.
_LAZY_KERNELS = {
    "simulate_specialized": "repro.engine.codegen",
    "simulate_batch": "repro.engine.batch",
}


def __getattr__(name: str) -> Callable[..., Any]:
    if name not in _LAZY_KERNELS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    kernel = getattr(importlib.import_module(_LAZY_KERNELS[name]), name)
    globals()[name] = kernel
    return kernel


def _kernel(name: str) -> Callable[..., Any]:
    """The module attribute ``name``, loading it on first use; a wrapper
    set on this module in its place is what runs."""
    kernel = globals().get(name)
    return kernel if kernel is not None else __getattr__(name)


def resolve_kernel_variant(kernel_variant: Optional[str]) -> str:
    """Validate/default a variant name, honouring :data:`KERNEL_VARIANT_ENV`."""
    if kernel_variant is None:
        kernel_variant = os.environ.get(KERNEL_VARIANT_ENV, DEFAULT_KERNEL_VARIANT)
    if kernel_variant not in KERNEL_VARIANTS:
        raise ConfigurationError(
            f"unknown kernel variant {kernel_variant!r}; "
            f"valid: {list(KERNEL_VARIANTS)}"
        )
    return kernel_variant


class Pipeline:
    """A configured ring- or conventionally-clustered processor model.

    ``kernel_variant`` selects the simulation kernel (default
    :data:`DEFAULT_KERNEL_VARIANT`): ``"native"`` runs the generic loop
    compiled from C (:mod:`repro.engine.native`); ``"specialized"`` runs
    the per-config compiled Python kernel from :mod:`repro.engine.codegen`;
    ``"generic"`` runs the readable table-driven loop in
    :mod:`repro.engine.kernel`; ``"batch"`` runs the lane-vectorized kernel
    from :mod:`repro.engine.batch` with one lane.  All variants are
    required to produce identical :class:`KernelResult` totals —
    ``generic`` exists as the oracle and debugging surface, not as a
    different model.
    """

    def __init__(
        self,
        config: Optional[ProcessorConfig] = None,
        kernel_variant: Optional[str] = None,
    ) -> None:
        self.config = config if config is not None else ProcessorConfig()
        self.kernel_variant = resolve_kernel_variant(kernel_variant)

    def run(self, trace: Trace) -> KernelResult:
        """Simulate ``trace`` and return its :class:`KernelResult` totals."""
        if self.kernel_variant == "native":
            result = simulate_native(trace, self.config)
        else:
            # The Python kernels trust their trace; reject here what the C
            # kernel's pre-pass rejects, before they read out of bounds.
            trace.check_bounds()
            if self.kernel_variant == "specialized":
                result = _kernel("simulate_specialized")(trace, self.config)
            elif self.kernel_variant == "batch":
                result = _kernel("simulate_batch")([trace], self.config)[0]
            else:
                result = simulate(trace, self.config)
        if result.n_instructions and result.cycles <= 0:
            raise SimulationError(
                f"trace {trace.name!r}: simulation produced no forward progress"
            )
        return result

    def run_record(self, trace: Trace) -> Dict[str, object]:
        """Simulate ``trace`` and return a JSON-serializable result record.

        This is the persistence-friendly form of :meth:`run`: the record
        carries the raw :meth:`KernelResult.to_dict` totals plus the engine
        version and the config digest so a result store can key and later
        invalidate it.  Consumed by :mod:`repro.sweep`.  The record does not
        name the kernel variant: every variant computes the same record, so
        stores are byte-identical whichever variant filled them.
        """
        return {
            "engine_version": ENGINE_VERSION,
            "config_digest": self.config.config_digest(),
            "trace": trace.name,
            "result": self.run(trace).to_dict(),
        }


__all__ = [
    "DEFAULT_KERNEL_VARIANT",
    "KERNEL_VARIANTS",
    "KERNEL_VARIANT_ENV",
    "Pipeline",
    "resolve_kernel_variant",
]
