"""Fuzz the trace constructors: malformed input fails with a clean error.

Seeded malformed columns go through :class:`~repro.engine.trace.Trace`
(validated and not) and malformed register-named programs through
:meth:`Trace.from_ops`: ragged columns, an opclass outside ``[0, 12)``,
negative, too-large or non-integer source indices, unknown flag bits,
``None``, floats, strings and integers too wide for a column.  Whatever the
input, the only exception that may escape is
:class:`~repro.common.errors.TraceError`.  A trace built with
``validate=False`` then goes through :func:`~repro.engine.simulate_native`,
in C and on its Python fallback (a config scalar above ``2**31 - 1``), and
through :class:`~repro.engine.Pipeline` under every kernel variant, whose
checks must stop whatever would index out of bounds, with the same one
exception allowed; a validated trace must simulate identically under the
native and generic kernels.
"""

import random

import pytest

from repro.common.config import MemoryHierarchyConfig, ProcessorConfig
from repro.common.errors import TraceError
from repro.common.types import InstrClass
from repro.engine import (
    FLAG_L1_MISS,
    FLAG_MISPREDICT,
    KERNEL_VARIANTS,
    Pipeline,
    Trace,
    native,
    simulate,
    simulate_native,
)

COLUMNS = ("opclass", "src1", "src2", "dst", "flags")

#: Element values at and past the edges of every column's domain.
JUNK = [
    None, True, 0.5, -2.5, float("nan"), "x", "", b"\x01", [1], -1, -2,
    -(10 ** 6), 0, 1, 11, 12, 127, 128, -129, 200, 2 ** 31, 2 ** 63 - 1,
    2 ** 63, 10 ** 30, -(10 ** 30), 8, 64,
]

#: Whole-column replacements.
BAD_COLUMNS = [None, 5, 1.5, "abc", [[1]], [None], {}, object()]

REGS = ["r0", "r1", "r2", "f0"]


def valid_columns(rng: random.Random) -> dict:
    """Columns of a small valid trace (sources point back at producers)."""
    alu, load, branch = (int(InstrClass.INT_ALU), int(InstrClass.LOAD),
                         int(InstrClass.BRANCH))
    columns = {name: [] for name in COLUMNS}
    for i in range(rng.randint(1, 12)):
        k = rng.choice([alu, alu, load, branch])
        producers = [j for j in range(i) if columns["dst"][j] >= 0]
        src = [rng.choice(producers) if producers and rng.random() < 0.7
               else -1 for _ in range(2)]
        flag = 0
        if k == branch and rng.random() < 0.3:
            flag = FLAG_MISPREDICT
        elif k == load and rng.random() < 0.3:
            flag = FLAG_L1_MISS
        for name, value in zip(COLUMNS, (k, src[0], src[1],
                                         -1 if k == branch else i, flag)):
            columns[name].append(value)
    return columns


def mangle_columns(rng: random.Random) -> dict:
    columns = valid_columns(rng)
    for _ in range(rng.randint(1, 3)):
        name = rng.choice(COLUMNS)
        col = columns[name]
        if not isinstance(col, list):
            continue
        kind = rng.randrange(5)
        if kind == 0 and col:                      # ragged: one short
            col.pop(rng.randrange(len(col)))
        elif kind == 1:                            # ragged: one long
            col.insert(rng.randrange(len(col) + 1), rng.choice([-1, 0, 1]))
        elif kind == 2 and col:                    # one bad element
            col[rng.randrange(len(col))] = rng.choice(JUNK)
        elif kind == 3 and col:                    # a forward source
            i = rng.randrange(len(col))
            col[i] = i + rng.randint(0, 3)
        else:                                      # not a column at all
            columns[name] = rng.choice(BAD_COLUMNS)
    return columns


def outcome(run, *args) -> str:
    """``"ok"`` or ``"rejected"``; any other exception fails the test."""
    try:
        run(*args)
    except TraceError as exc:
        assert str(exc), "a TraceError must say what is wrong"
        return "rejected"
    return "ok"


def build(columns: dict, validate: bool) -> Trace:
    return Trace("fuzz", *(columns[name] for name in COLUMNS),
                 validate=validate)


def build_and_compare(columns: dict) -> None:
    trace = build(columns, validate=True)
    cfg = ProcessorConfig()
    assert simulate_native(trace, cfg) == simulate(trace, cfg)


#: Runs in C, and on the Python fallback (a scalar too wide for C).
NATIVE_CONFIGS = [
    ProcessorConfig(),
    ProcessorConfig(memory=MemoryHierarchyConfig(l2_miss_penalty=2 ** 31)),
]


def build_unchecked_and_simulate(columns: dict, cfg: ProcessorConfig) -> None:
    simulate_native(build(columns, validate=False), cfg)


@pytest.mark.parametrize("seed", range(4))
def test_malformed_columns_raise_only_trace_errors(seed):
    rng = random.Random(seed)
    seen = {outcome(build_and_compare, mangle_columns(rng))
            for _ in range(150)}
    assert seen == {"ok", "rejected"}


@pytest.mark.skipif(native.find_compiler() is None,
                    reason="no C compiler on PATH")
@pytest.mark.parametrize("cfg", NATIVE_CONFIGS, ids=["c", "fallback"])
@pytest.mark.parametrize("seed", range(4))
def test_unvalidated_traces_raise_only_trace_errors_natively(seed, cfg):
    rng = random.Random(100 + seed)
    seen = {outcome(build_unchecked_and_simulate, mangle_columns(rng), cfg)
            for _ in range(150)}
    assert seen == {"ok", "rejected"}


def build_unchecked_and_run(columns: dict, variant: str) -> None:
    Pipeline(ProcessorConfig(), kernel_variant=variant).run(
        build(columns, validate=False))


def runnable(variant: str) -> bool:
    return variant != "native" or native.find_compiler() is not None


@pytest.mark.parametrize("variant", KERNEL_VARIANTS)
@pytest.mark.parametrize("seed", range(2))
def test_unvalidated_traces_raise_only_trace_errors_in_every_variant(
        seed, variant):
    if not runnable(variant):
        pytest.skip("no C compiler on PATH")
    rng = random.Random(300 + seed)
    seen = {outcome(build_unchecked_and_run, mangle_columns(rng), variant)
            for _ in range(100)}
    assert seen == {"ok", "rejected"}


@pytest.mark.parametrize("variant", KERNEL_VARIANTS)
@pytest.mark.parametrize("columns", [
    dict(opclass=[0, 0], src1=[-1, 5], src2=[-1, -1], dst=[0, 1],
         flags=[0, 0]),
    dict(opclass=[12], src1=[-1], src2=[-1], dst=[0], flags=[0]),
    dict(opclass=[0, 0], src1=[-1], src2=[-1, -1], dst=[0, 1],
         flags=[0, 0]),
], ids=["source-past-the-end", "opclass-12", "ragged"])
def test_unvalidated_out_of_bounds_trace_rejected(columns, variant):
    if not runnable(variant):
        pytest.skip("no C compiler on PATH")
    assert outcome(build_unchecked_and_run, columns, variant) == "rejected"


def valid_ops(rng: random.Random) -> list:
    ops = []
    for _ in range(rng.randint(1, 10)):
        k = rng.choice([InstrClass.INT_ALU, InstrClass.FP_ADD,
                        InstrClass.LOAD, InstrClass.BRANCH])
        op = [k, rng.choice(REGS + [None])]
        op += [rng.choice(REGS + [None]) for _ in range(rng.randint(0, 2))]
        if len(op) == 4 and rng.random() < 0.3:
            op.append(FLAG_MISPREDICT if k == InstrClass.BRANCH
                      else FLAG_L1_MISS if k == InstrClass.LOAD else 0)
        ops.append(tuple(op))
    return ops


def mangle_ops(rng: random.Random) -> object:
    ops = valid_ops(rng)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(5)
        at = rng.randrange(len(ops))
        if not isinstance(ops[at], tuple):
            continue
        op = list(ops[at])
        if kind == 0:                              # not an op at all
            ops[at] = rng.choice(JUNK + [(), (1,), tuple(range(6)), "ab"])
            continue
        if kind == 1:                              # a bad opclass
            op[0] = rng.choice(JUNK)
        elif kind == 2:                            # a bad register name
            op[rng.randrange(1, len(op))] = rng.choice(JUNK)
        elif kind == 3:                            # bad flags
            op = (op + [None, None])[:4] + [rng.choice(JUNK)]
        else:
            return rng.choice(JUNK + [iter([(1, "r")]), [None]])
        ops[at] = tuple(op)
    return ops


def from_ops_and_compare(ops: object) -> None:
    trace = Trace.from_ops(ops, name="fuzz")
    cfg = ProcessorConfig()
    assert simulate_native(trace, cfg) == simulate(trace, cfg)


@pytest.mark.parametrize("seed", range(4))
def test_malformed_ops_raise_only_trace_errors(seed):
    rng = random.Random(200 + seed)
    seen = {outcome(from_ops_and_compare, mangle_ops(rng))
            for _ in range(150)}
    assert seen == {"ok", "rejected"}


@pytest.mark.parametrize("columns", [
    dict(opclass=[0, 0], src1=[-1, -2], src2=[-1, -1], dst=[0, 1],
         flags=[0, 0]),
    dict(opclass=[0], src1=[-1], src2=[-1], dst=[0], flags=[8]),
    dict(opclass=[0], src1=[None], src2=[-1], dst=[0], flags=[0]),
    dict(opclass=[0], src1=[1.5], src2=[-1], dst=[0], flags=[0]),
    dict(opclass=[0], src1=[2 ** 63], src2=[-1], dst=[0], flags=[0]),
    dict(opclass=[200], src1=[-1], src2=[-1], dst=[0], flags=[0]),
    dict(opclass=None, src1=[], src2=[], dst=[], flags=[]),
], ids=["source-below-minus-1", "unknown-flag", "none-source",
        "float-source", "huge-source", "wide-opclass", "no-column"])
def test_pathological_columns(columns):
    assert outcome(build, columns, True) == "rejected"


@pytest.mark.parametrize("ops", [
    None,
    [None],
    [(InstrClass.INT_ALU,)],
    [(1.5, "r1")],
    [("1", "r1")],
    [(True, "r1")],
    [(InstrClass.BRANCH, None, None, None, None)],
    [(InstrClass.BRANCH, None, None, None, 2.0)],
    [(InstrClass.BRANCH, None, None, None, 2 ** 70)],
], ids=["none", "none-op", "short-op", "float-opclass", "str-opclass",
        "bool-opclass", "none-flags", "float-flags", "huge-flags"])
def test_pathological_ops(ops):
    assert outcome(Trace.from_ops, ops) == "rejected"
