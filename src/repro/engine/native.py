"""The ``native`` kernel variant: the generic timing model compiled from C.

:func:`simulate_native` has the contract of
:func:`repro.engine.kernel.simulate` and returns an identical
:class:`~repro.engine.kernel.KernelResult`.  Its loop lives in
``native.c``, one static C file that ports the generic loop line for line,
with the five built-in steering policies and the energy model's loop
counters.  What stays in Python is what runs once per call:
:func:`~repro.engine.kernel.build_tables`, the exact
:func:`~repro.engine.kernel.check_fu_coverage` message and
:func:`repro.energy.fold_breakdown`, which is fed the C counters.

Building.  ``native.c`` is compiled with the first of ``cc``, ``gcc`` or
``clang`` on ``PATH``, never at import: :func:`start_build` starts the
compiler as a child process and returns at once, and :func:`load` waits
for that build, or compiles on the spot when none was started, and loads
the result.  The shared object is built in a private
:func:`tempfile.mkdtemp` directory, loaded with ``dlopen`` and deleted at
once, so no build artifact outlives the process and there is no on-disk
cache.  A lock makes the build safe from several threads (the service's
job thread).  Every config value reaches the C side as an argument, so
nothing from a spec or config is ever pasted into the source that the
compiler sees.  A failed build raises
:class:`~repro.common.errors.ConfigurationError` with the tail of the
compiler's stderr.  The sweep runner starts the build as soon as it knows
points are pending, prepares the sweep while the compiler runs, calls
:func:`load` before the first kernel call or worker fork (so forked
workers inherit the library and a sweep compiles once) and
:func:`join_build` on every exit path, so no compiler outlives a sweep.

Fallback.  A steering policy other than the five built-in classes has no C
implementation: :func:`simulate_native` runs it with the generic loop,
:func:`~repro.engine.kernel.simulate`, whatever other kernels the policy
supports.  So does a config with a scalar above ``2**31 - 1``, which
keeps the C side's 64-bit cycle arithmetic far from wrapping.

Safety.  Traces built with ``validate=False`` are checked before the C
loop, or the fallback, starts: a column shorter or longer than
``opclass``, an opclass outside ``[0, 12)`` or a source index ``>= n``
raises :class:`~repro.common.errors.TraceError` instead of reading out of
bounds.
"""

from __future__ import annotations

import ctypes
import functools
import os
import shutil
import subprocess
import tempfile
import threading
from typing import Optional, Tuple

from repro.common.config import ProcessorConfig
from repro.common.errors import ConfigurationError, TraceError
from repro.common.types import Topology
from repro.energy import fold_breakdown
from repro.engine.kernel import (
    KernelResult,
    build_tables,
    check_fu_coverage,
    simulate,
)
from repro.engine.trace import Trace
from repro.steering import (
    CriticalityPolicy,
    DependencePolicy,
    LoadBalancePolicy,
    ModuloPolicy,
    RoundRobinPolicy,
    get_policy,
)

#: Compilers tried, in order, on ``PATH``.
COMPILERS = ("cc", "gcc", "clang")

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "native.c")
#: ``-O1`` builds in half the time of ``-O2`` (0.16 s against 0.27-0.36 s)
#: and ran the 10k-instruction paper grid as fast (2-vCPU x86-64, gcc 12).
_CFLAGS = ("-O1", "-shared", "-fPIC")
#: Characters of compiler stderr quoted in a build error.
_STDERR_TAIL = 2000

#: Policy class -> the C side's steering id (``native.c``).  Keyed by class,
#: not name, so a plugin subclassing a built-in still falls back.  The ids
#: are cached per config, so re-register a name with other behaviour only
#: in a fresh process.
_STEERING_IDS = {
    DependencePolicy: 0,
    ModuloPolicy: 1,
    RoundRobinPolicy: 2,
    LoadBalancePolicy: 3,
    CriticalityPolicy: 4,
}

#: Output slots before the class tally (``native.c``: O_CLASS_COUNTS).
_N_FIXED_OUT = 8
_N_CLASSES = 12
#: Largest config scalar passed to C; larger ones run in Python.
_MAX_SCALAR = 2**31 - 1

_I64P = ctypes.POINTER(ctypes.c_int64)
_I8P = ctypes.POINTER(ctypes.c_int8)

_lib: Optional[ctypes.CDLL] = None
#: The compiler run :func:`start_build` started and no one has joined.
_building: Optional["_Build"] = None
_lock = threading.Lock()


def find_compiler() -> Optional[str]:
    """Path of the first of :data:`COMPILERS` on ``PATH``, or ``None``."""
    for name in COMPILERS:
        path = shutil.which(name)
        if path is not None:
            return path
    return None


class _Build:
    """One compiler run: started by the constructor, awaited by
    :meth:`join`, which always removes the private build directory."""

    def __init__(self) -> None:
        self.compiler = find_compiler()
        if self.compiler is None:
            raise ConfigurationError(
                "kernel variant 'native' needs a C compiler on PATH "
                f"(one of {', '.join(COMPILERS)}); use kernel_variant="
                "'specialized' (or REPRO_KERNEL_VARIANT=specialized) instead"
            )
        self.workdir = tempfile.mkdtemp(prefix="repro-native-")
        self.library = os.path.join(self.workdir, "native.so")
        try:
            self.proc = subprocess.Popen(
                [self.compiler, *_CFLAGS, "-o", self.library, _SOURCE],
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True,
            )
        except OSError as exc:
            shutil.rmtree(self.workdir, ignore_errors=True)
            raise ConfigurationError(
                f"cannot run C compiler {self.compiler}: {exc}") from exc

    def join(self) -> ctypes.CDLL:
        """Wait for the compiler and load what it built."""
        try:
            _stdout, stderr = self.proc.communicate()
            if self.proc.returncode != 0:
                raise ConfigurationError(
                    f"building the native kernel with {self.compiler} failed "
                    f"(exit {self.proc.returncode}): "
                    f"{stderr.strip()[-_STDERR_TAIL:]}"
                )
            try:
                lib = ctypes.CDLL(self.library)
            except OSError as exc:
                raise ConfigurationError(
                    f"cannot load the native kernel built by {self.compiler}: "
                    f"{exc}") from exc
        finally:
            if self.proc.returncode is None:  # interrupted while waiting
                self.proc.kill()
                self.proc.communicate()
            shutil.rmtree(self.workdir, ignore_errors=True)
        lib.repro_simulate.restype = ctypes.c_int
        lib.repro_simulate.argtypes = [
            ctypes.c_int64, _I8P, _I64P, _I64P, _I8P,
            _I64P, _I64P, _I64P, _I64P, _I64P, _I64P, _I64P,
        ]
        return lib


def start_build() -> None:
    """Start the compiler in the background, unless the library is loaded
    or already being built, so the caller can do other work while it runs;
    :func:`load` waits for it.  A build that cannot start is left for
    :func:`load` to attempt again and report."""
    global _building
    with _lock:
        if _lib is None and _building is None:
            try:
                _building = _Build()
            except ConfigurationError:
                pass


def join_build() -> None:
    """Wait for a build :func:`start_build` began and keep the library if
    it loads, so no compiler outlives the caller.  A failed build is
    dropped silently: the next :func:`load` builds again and raises."""
    global _building, _lib
    with _lock:
        build, _building = _building, None
        if build is not None:
            try:
                _lib = build.join()
            except ConfigurationError:
                pass


def load() -> ctypes.CDLL:
    """The compiled kernel library, building it (or waiting for the build
    :func:`start_build` began) on first use."""
    global _building, _lib
    with _lock:
        if _lib is None:
            build, _building = _building or _Build(), None
            _lib = build.join()
        return _lib


@functools.lru_cache(maxsize=1024)
def _arguments(cfg: ProcessorConfig) -> Optional[Tuple[ctypes.Array, ...]]:
    """``cfg``'s scalars and tables as C arrays, or ``None`` when the C
    side cannot run it.  Cached: building them costs more than the C loop
    spends on a 1k-instruction trace."""
    steering = _STEERING_IDS.get(type(get_policy(cfg.steering)))
    latency, occupancy, fu_for, has_dst = build_tables(cfg)
    params = [
        cfg.n_clusters,
        int(cfg.topology is Topology.RING),
        steering,
        cfg.fetch_width,
        cfg.window_size,
        cfg.frontend_depth,
        cfg.cluster.issue_width,
        cfg.bus.hop_latency,
        cfg.bus.bandwidth,
        cfg.bus.writeback_latency,
        cfg.branch.mispredict_penalty,
        cfg.memory.l1d.miss_penalty,
        cfg.memory.l2_miss_penalty,
        int(cfg.energy.enabled),
    ]
    if steering is None or max(params + latency + occupancy) > _MAX_SCALAR:
        return None
    tables = (params, latency, occupancy, fu_for,
              [int(d) for d in has_dst], list(cfg.cluster.fu_counts))
    return tuple((ctypes.c_int64 * len(t))(*t) for t in tables)


def simulate_native(trace: Trace, cfg: ProcessorConfig) -> KernelResult:
    """Drop-in for :func:`repro.engine.kernel.simulate` running in C."""
    n = len(trace)
    for column in ("src1", "src2", "flags"):
        if len(getattr(trace, column)) != n:
            raise TraceError(
                f"trace {trace.name!r}: column {column} has "
                f"{len(getattr(trace, column))} entries, expected {n}")
    arguments = _arguments(cfg)
    if arguments is None:
        # What the C pre-pass rejects would index out of bounds in Python.
        trace.check_bounds()
        return simulate(trace, cfg)
    lib = load()
    nc = cfg.n_clusters
    out = (ctypes.c_int64 * (_N_FIXED_OUT + _N_CLASSES + 2 * nc + 1))()
    rc = lib.repro_simulate(
        n,
        (ctypes.c_int8 * n).from_buffer(trace.opclass),
        (ctypes.c_int64 * n).from_buffer(trace.src1),
        (ctypes.c_int64 * n).from_buffer(trace.src2),
        (ctypes.c_int8 * n).from_buffer(trace.flags),
        *arguments, out,
    )
    (last_retire, mispredicts, l1_misses, l2_misses, communications,
     operand_reads, wakeup_units, bad_index) = out[:_N_FIXED_OUT]
    counts_end = _N_FIXED_OUT + _N_CLASSES
    class_counts = out[_N_FIXED_OUT:counts_end]
    if rc == 1:
        raise MemoryError(f"native kernel: out of memory for {n} instructions")
    if rc == 2:
        raise TraceError(
            f"trace {trace.name!r}[{bad_index}]: invalid opclass "
            f"{trace.opclass[bad_index]}")
    if rc == 3:
        raise TraceError(
            f"trace {trace.name!r}[{bad_index}]: source index out of range "
            f"(src1={trace.src1[bad_index]}, src2={trace.src2[bad_index]}, "
            f"trace length {n})")
    if rc == 4:
        _latency, _occupancy, fu_for, _has_dst = build_tables(cfg)
        check_fu_coverage(trace.name, class_counts, cfg.cluster.fu_counts,
                          fu_for)
    hop_counts = out[counts_end:counts_end + nc + 1]
    energy = None
    if cfg.energy.enabled:
        energy = fold_breakdown(
            cfg.energy,
            n=n,
            class_counts=class_counts,
            operand_reads=operand_reads,
            weighted_hops=sum(d * c for d, c in enumerate(hop_counts)),
            l1_misses=l1_misses,
            l2_misses=l2_misses,
            wakeup_units=wakeup_units,
        )
    return KernelResult(
        n_instructions=n,
        cycles=last_retire + 1 if n else 0,
        mispredicts=mispredicts,
        l1_misses=l1_misses,
        l2_misses=l2_misses,
        communications=communications,
        hop_histogram={d: c for d, c in enumerate(hop_counts) if c},
        issued_per_cluster=out[counts_end + nc + 1:counts_end + 2 * nc + 1],
        class_counts=class_counts,
        energy=energy,
    )


__all__ = [
    "COMPILERS",
    "find_compiler",
    "join_build",
    "load",
    "simulate_native",
    "start_build",
]
