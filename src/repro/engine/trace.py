"""Struct-of-arrays dynamic instruction traces.

A :class:`Trace` stores one dynamic instruction stream as parallel columns
(``array`` module arrays) instead of per-instruction objects: opcode class,
the two source operands, the destination register and an event-flag byte.
Source operands are stored as *producer indices* — the index of the dynamic
instruction that produced the value, ``-1`` for none — so the simulation
kernel never performs register renaming on the hot path.  Register-named
programs (handy in tests) are renamed once, up front, by
:meth:`Trace.from_ops`.

Event flags encode the outcome of stochastic micro-events that the paper's
simulator resolved with predictor/cache models and this reproduction resolves
at generation time (the workload generator draws them from configured rates):

* ``FLAG_MISPREDICT`` — this branch is mispredicted and redirects fetch;
* ``FLAG_L1_MISS`` — this memory access misses the L1 data cache;
* ``FLAG_L2_MISS`` — ... and also misses the L2 (implies ``FLAG_L1_MISS``).
"""

from __future__ import annotations

import operator
from array import array
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import TraceError
from repro.common.types import DEST_REGCLASS_FOR_CLASS, InstrClass

FLAG_MISPREDICT = 1
FLAG_L1_MISS = 2
FLAG_L2_MISS = 4

#: Every flag bit a trace may set.
_ALL_FLAGS = FLAG_MISPREDICT | FLAG_L1_MISS | FLAG_L2_MISS

_N_CLASSES = len(InstrClass)


def _integer(value: object, what: str) -> int:
    """``value`` as an ``int`` (an ``InstrClass`` or numpy integer counts;
    a float, ``bool``, string or ``None`` does not)."""
    if isinstance(value, bool):
        raise TraceError(f"{what} {value!r} is not an integer")
    try:
        return operator.index(value)
    except TypeError:
        raise TraceError(f"{what} {value!r} is not an integer") from None


class Trace:
    """An immutable struct-of-arrays instruction stream."""

    __slots__ = ("name", "opclass", "src1", "src2", "dst", "flags")

    def __init__(
        self,
        name: str,
        opclass: Sequence[int],
        src1: Sequence[int],
        src2: Sequence[int],
        dst: Sequence[int],
        flags: Sequence[int],
        validate: bool = True,
    ) -> None:
        self.name = name
        columns = (("opclass", "b", opclass), ("src1", "q", src1),
                   ("src2", "q", src2), ("dst", "q", dst),
                   ("flags", "b", flags))
        for col_name, typecode, values in columns:
            try:
                setattr(self, col_name, array(typecode, values))
            except (TypeError, ValueError, OverflowError) as exc:
                raise TraceError(
                    f"trace {name!r}: column {col_name}: {exc}") from None
        if validate:
            self.validate()

    def __len__(self) -> int:
        return len(self.opclass)

    def validate(self) -> None:
        """Check structural invariants; raise :class:`TraceError` on violation."""
        n = len(self.opclass)
        for col_name in ("src1", "src2", "dst", "flags"):
            col = getattr(self, col_name)
            if len(col) != n:
                raise TraceError(
                    f"trace {self.name!r}: column {col_name} has {len(col)} "
                    f"entries, expected {n}"
                )
        opclass, src1, src2, flags = self.opclass, self.src1, self.src2, self.flags
        for i in range(n):
            k = opclass[i]
            if not 0 <= k < _N_CLASSES:
                raise TraceError(f"trace {self.name!r}[{i}]: invalid opclass {k}")
            for s in (src1[i], src2[i]):
                if s < -1:
                    raise TraceError(
                        f"trace {self.name!r}[{i}]: source {s} is neither -1 "
                        "(none) nor an instruction index"
                    )
                if s >= i:
                    raise TraceError(
                        f"trace {self.name!r}[{i}]: source {s} does not precede "
                        "its consumer (dependences must point backwards)"
                    )
                if s >= 0 and DEST_REGCLASS_FOR_CLASS[InstrClass(opclass[s])] is None:
                    raise TraceError(
                        f"trace {self.name!r}[{i}]: source {s} "
                        f"({InstrClass(opclass[s]).name}) produces no register value"
                    )
            f = flags[i]
            if f & ~_ALL_FLAGS:
                raise TraceError(
                    f"trace {self.name!r}[{i}]: unknown flag bits in {f}"
                )
            if f & FLAG_MISPREDICT and not InstrClass(k).is_branch:
                raise TraceError(
                    f"trace {self.name!r}[{i}]: mispredict flag on non-branch"
                )
            if f & (FLAG_L1_MISS | FLAG_L2_MISS) and not InstrClass(k).is_memory:
                raise TraceError(
                    f"trace {self.name!r}[{i}]: cache-miss flag on non-memory op"
                )
            if f & FLAG_L2_MISS and not f & FLAG_L1_MISS:
                raise TraceError(
                    f"trace {self.name!r}[{i}]: L2 miss without L1 miss"
                )

    def check_bounds(self) -> None:
        """Raise :class:`TraceError` for what a kernel would read out of
        bounds: a ``src1``, ``src2`` or ``flags`` column whose length is not
        the trace's, an opclass outside ``[0, 12)``, or a source at or past
        the trace's end.  These are the cases the C kernel's pre-pass
        rejects, for a trace built with ``validate=False``.  A few min/max
        passes; :meth:`validate` runs only to name what is wrong."""
        n = len(self.opclass)
        if any(len(getattr(self, column)) != n
               for column in ("src1", "src2", "flags")) or n and (
                   min(self.opclass) < 0 or max(self.opclass) >= _N_CLASSES
                   or max(self.src1) >= n or max(self.src2) >= n):
            self.validate()

    @classmethod
    def from_ops(
        cls,
        ops: Iterable[Tuple],
        name: str = "trace",
    ) -> "Trace":
        """Build a trace from register-named operations, renaming once.

        Each op is ``(opclass, dst_reg[, src1_reg[, src2_reg[, flags]]])``.
        Register names are strings (or ``None`` for "no register"); ``flags``
        is an int and may only appear in fifth position, after *both* source
        slots — pad unused sources with ``None``, e.g.
        ``(InstrClass.BRANCH, None, "r1", None, FLAG_MISPREDICT)``.  An int
        in a source slot raises :class:`TraceError` rather than being
        silently treated as a register name.  Sources that name a register
        no prior op has written are treated as ready from the start
        (live-ins).
        """
        last_writer = {}
        opclass: List[int] = []
        src1: List[int] = []
        src2: List[int] = []
        dst: List[int] = []
        flags: List[int] = []
        reg_ids = {}
        try:
            ops = iter(ops)
        except TypeError:
            raise TraceError(f"ops {ops!r} is not iterable") from None
        for i, op in enumerate(ops):
            if not isinstance(op, (tuple, list)) or not 2 <= len(op) <= 5:
                raise TraceError(
                    f"op {i}: expected (opclass, dst[, src1[, src2[, flags]]]), "
                    f"got {op!r}"
                )
            k = _integer(op[0], f"op {i}: opclass")
            if not 0 <= k < _N_CLASSES:
                raise TraceError(f"op {i}: invalid opclass {k}")
            d = op[1]
            rest = list(op[2:])
            f = 0
            if len(rest) > 2:
                f = _integer(rest.pop(), f"op {i}: flags")
            for r in rest:
                if r is not None and not isinstance(r, str):
                    raise TraceError(
                        f"op {i}: source operand {r!r} is not a register name "
                        "(str or None); to pass flags, fill both source slots "
                        "first: (opclass, dst, src1, src2, flags)"
                    )
            if d is not None and not isinstance(d, str):
                raise TraceError(
                    f"op {i}: destination {d!r} is not a register name (str or None)"
                )
            srcs = [last_writer.get(r, -1) for r in rest if r is not None]
            srcs += [-1] * (2 - len(srcs))
            opclass.append(k)
            src1.append(srcs[0])
            src2.append(srcs[1])
            flags.append(f)
            if d is not None and DEST_REGCLASS_FOR_CLASS[InstrClass(k)] is not None:
                last_writer[d] = i
                dst.append(reg_ids.setdefault(d, len(reg_ids)))
            else:
                dst.append(-1)
        return cls(name, opclass, src1, src2, dst, flags)

    def class_counts(self) -> List[int]:
        """Number of instructions per :class:`InstrClass` value."""
        counts = [0] * _N_CLASSES
        for k in self.opclass:
            counts[k] += 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace({self.name!r}, {len(self)} instructions)"


__all__ = ["Trace", "FLAG_MISPREDICT", "FLAG_L1_MISS", "FLAG_L2_MISS"]
