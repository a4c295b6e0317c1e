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
the result.  Next to it, :func:`start_build` starts a second compiler for
the trace generator, ``tracegen.c`` linked with numpy's
``libnpyrandom.a``, which :func:`load_tracegen` loads the same way for
:func:`repro.workloads.generate_trace` (and which is ``None`` when there
is no compiler or no archive, so traces are drawn with numpy).  Each
shared object is built in a private :func:`tempfile.mkdtemp` directory,
loaded with ``dlopen`` and deleted at once, so no build artifact outlives
the process and there is no on-disk cache.  A lock makes the builds safe
from several threads (the service's job thread).  Every config value
reaches the C side as an argument, so nothing from a spec or config is
ever pasted into the source that the compiler sees.  A failed build
raises :class:`~repro.common.errors.ConfigurationError` with the tail of
the compiler's stderr.  The sweep runner starts the builds as soon as it
knows points are pending, prepares the sweep while the compilers run,
waits for them (:func:`load_tracegen`, :func:`load`) before the first
trace, kernel call or worker fork (so forked workers inherit both
libraries and a sweep compiles each once) and calls :func:`join_build` on
every exit path, so no compiler outlives a sweep.

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
import importlib.util
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

_HERE = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_HERE, "native.c")
_TRACEGEN_SOURCE = os.path.join(_HERE, "tracegen.c")
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
_U64P = ctypes.POINTER(ctypes.c_uint64)
_DP = ctypes.POINTER(ctypes.c_double)

_lib: Optional[ctypes.CDLL] = None
_tracegen: Optional[ctypes.CDLL] = None
#: The compiler runs :func:`start_build` started and no one has joined.
_building: Optional["_Build"] = None
_tracegen_building: Optional["_Build"] = None
_lock = threading.Lock()


def find_compiler() -> Optional[str]:
    """Path of the first of :data:`COMPILERS` on ``PATH``, or ``None``."""
    for name in COMPILERS:
        path = shutil.which(name)
        if path is not None:
            return path
    return None


@functools.lru_cache(maxsize=None)
def npyrandom_archive() -> Optional[str]:
    """Path of numpy's ``libnpyrandom.a`` (the C API for extending
    ``numpy.random``), found without importing numpy, or ``None``."""
    spec = importlib.util.find_spec("numpy")
    for root in (spec and spec.submodule_search_locations) or ():
        path = os.path.join(root, "random", "lib", "libnpyrandom.a")
        if os.path.isfile(path):
            return path
    return None


class _Build:
    """One compiler run: started by the constructor, awaited by
    :meth:`join`, which always removes the private build directory."""

    def __init__(self, what: str, compiler: str, *inputs: str) -> None:
        self.what = what
        self.compiler = compiler
        self.workdir = tempfile.mkdtemp(prefix="repro-native-")
        self.library = os.path.join(self.workdir, "native.so")
        try:
            self.proc = subprocess.Popen(
                [compiler, *_CFLAGS, "-o", self.library, *inputs],
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True,
            )
        except OSError as exc:
            shutil.rmtree(self.workdir, ignore_errors=True)
            raise ConfigurationError(
                f"cannot run C compiler {compiler}: {exc}") from exc

    def join(self) -> ctypes.CDLL:
        """Wait for the compiler and load what it built."""
        try:
            _stdout, stderr = self.proc.communicate()
            if self.proc.returncode != 0:
                raise ConfigurationError(
                    f"building the {self.what} with {self.compiler} failed "
                    f"(exit {self.proc.returncode}): "
                    f"{stderr.strip()[-_STDERR_TAIL:]}"
                )
            try:
                return ctypes.CDLL(self.library)
            except OSError as exc:
                raise ConfigurationError(
                    f"cannot load the {self.what} built by {self.compiler}: "
                    f"{exc}") from exc
        finally:
            if self.proc.returncode is None:  # interrupted while waiting
                self.proc.kill()
                self.proc.communicate()
            shutil.rmtree(self.workdir, ignore_errors=True)


def _kernel_build() -> _Build:
    compiler = find_compiler()
    if compiler is None:
        raise ConfigurationError(
            "kernel variant 'native' needs a C compiler on PATH "
            f"(one of {', '.join(COMPILERS)}); use kernel_variant="
            "'specialized' (or REPRO_KERNEL_VARIANT=specialized) instead"
        )
    return _Build("native kernel", compiler, _SOURCE)


def _tracegen_build() -> Optional[_Build]:
    """A build of the trace generator, or ``None`` when there is no
    compiler or no numpy archive to link."""
    compiler, archive = find_compiler(), npyrandom_archive()
    if compiler is None or archive is None:
        return None
    return _Build("native trace generator", compiler, _TRACEGEN_SOURCE,
                  archive, "-lm")


def _bind_kernel(lib: ctypes.CDLL) -> ctypes.CDLL:
    lib.repro_simulate.restype = ctypes.c_int
    lib.repro_simulate.argtypes = [
        ctypes.c_int64, _I8P, _I64P, _I64P, _I8P,
        _I64P, _I64P, _I64P, _I64P, _I64P, _I64P, _I64P,
    ]
    return lib


def _bind_tracegen(lib: ctypes.CDLL) -> ctypes.CDLL:
    lib.repro_generate_trace.restype = ctypes.c_int
    lib.repro_generate_trace.argtypes = [
        ctypes.c_int64, _U64P, _DP, _DP, ctypes.c_uint64, _I8P,
        _I8P, _I64P, _I64P, _I64P, _I8P,
    ]
    return lib


def start_build(kernel: bool = True) -> None:
    """Start the compilers in the background, so the caller can do other
    work while they run: the trace generator's, and the kernel's unless
    ``kernel`` is false, each unless its library is loaded or already being
    built.  :func:`load_tracegen` and :func:`load` wait for them.  A build
    that cannot start is left for those to attempt again and report."""
    global _building, _tracegen_building
    with _lock:
        try:
            if kernel and _lib is None and _building is None:
                _building = _kernel_build()
        except ConfigurationError:
            pass
        try:
            if _tracegen is None and _tracegen_building is None:
                _tracegen_building = _tracegen_build()
        except ConfigurationError:
            pass


def join_build() -> None:
    """Wait for the builds :func:`start_build` began and keep each library
    that loads, so no compiler outlives the caller.  A failed build is
    dropped silently: the next :func:`load` or :func:`load_tracegen`
    builds again and raises."""
    global _building, _lib, _tracegen_building, _tracegen
    with _lock:
        kernel, _building = _building, None
        tracegen, _tracegen_building = _tracegen_building, None
        try:
            if kernel is not None:
                _lib = _bind_kernel(kernel.join())
        except ConfigurationError:
            pass
        finally:
            if tracegen is not None:
                try:
                    _tracegen = _bind_tracegen(tracegen.join())
                except ConfigurationError:
                    pass


def load() -> ctypes.CDLL:
    """The compiled kernel library, building it (or waiting for the build
    :func:`start_build` began) on first use."""
    global _building, _lib
    with _lock:
        if _lib is None:
            build, _building = _building or _kernel_build(), None
            _lib = _bind_kernel(build.join())
        return _lib


def load_tracegen() -> Optional[ctypes.CDLL]:
    """The compiled trace generator, building it (or waiting for the build
    :func:`start_build` began) on first use; ``None`` when it cannot be
    built here (no C compiler on ``PATH``, or numpy ships no
    ``libnpyrandom.a``)."""
    global _tracegen_building, _tracegen
    with _lock:
        if _tracegen is None:
            build, _tracegen_building = (
                _tracegen_building or _tracegen_build(), None)
            if build is None:
                return None
            _tracegen = _bind_tracegen(build.join())
        return _tracegen


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
    "load_tracegen",
    "npyrandom_archive",
    "simulate_native",
    "start_build",
]
