"""Config-specialized kernel codegen: one branch-free ``simulate()`` per machine.

The generic loop in :mod:`repro.engine.kernel` re-tests, for every dynamic
instruction, conditions that are **loop invariants of the configuration**:
topology (``is_ring``), steering policy, power-of-two cluster counts,
``hop_latency == 1``, ``bus.bandwidth == 1``, single-unit clusters, literal
penalties and widths.  This module closes that interpreter-vs-residual-program
gap by partial evaluation: given a :class:`~repro.common.config.ProcessorConfig`
it *emits the Python source* of a kernel in which every config-dependent
branch has been resolved at codegen time and every config scalar is folded in
as a literal, ``exec``'s it once, and caches the compiled function in a
process-wide registry.

The baseline of every emitted kernel: exactly one steering/topology path (no
``is_ring`` / ``steer_dep`` tests), every width, latency and penalty as an
integer literal, and the per-class occupancy/FU/dest tables bound as
constant tuples in default arguments.

What specialization buys beyond that.  Each fast path below stays because
removing it measured slower: kernel time without the path ÷ with it, summed
over the paper-grid keys it changes (one process, both kernels interleaved,
min of 5 runs per point at 10k instructions and of 3-5 at 100k, identical
:class:`KernelResult` on every point; 2-vCPU x86-64 host, CPython 3.11):

* the fused dependence emitter (:func:`_emit_dependence_fused`) computes
  the critical source's availability while steering: 1.05 at 10k and
  1.03-1.05 at 100k on the dependence-steered keys;
* for single-unit clusters (the paper's machine) the functional-unit
  scoreboard is a flat list of ints indexed ``cluster * n_fu + fu``
  instead of a list-of-lists plus an inner min-scan: 1.14 at 10k and 1.12
  at 100k;
* the issue-slot scoreboard (and, under ``RING``, the bus scoreboard) is a
  sliding list rebased to ``fetch_cycle`` every :data:`PRUNE_INTERVAL`
  instructions instead of a dict: 1.01 at 10k and 1.11 at 100k.  Rebasing
  is exact: both scoreboards are only ever probed at cycles
  ``>= fetch_cycle``, which never decreases.  (The ``CONV`` bus scoreboard
  stays a dict: lazy grants may probe at a long-retired producer's
  completion cycle.);
* power-of-two cluster counts take ``& (n - 1)`` instead of ``% n`` for the
  ring and distance modulo: 1.01 at 10k and 1.01-1.02 at 100k.

Shortcuts that measured neutral or slower were deleted; the general form
runs for every machine shape.

"Branch-free" means free of *config-invariant* branches; data-dependent
control flow (operand presence, cache-miss flags, structural-hazard retry
loops) necessarily remains.

The emitted code is organised stage by stage in exactly the order of
:data:`repro.engine.kernel.STAGES` — the generic loop and this template share
that one authoritative stage structure, and :func:`emit_kernel_source`
asserts it.  Both kernels must produce identical :class:`KernelResult`
totals for every ``(trace, config)``; the differential fuzz tests and the
benchmark agreement gates enforce this, which is why ``ENGINE_VERSION``
is shared and unchanged.

Registry keying: two configs that differ only in fields the timing model
never reads (register-file sizes, cache geometry, L1 hit latency — the load
latency comes from ``latencies.load``) share one compiled variant.  The
:func:`specialization_key` is the canonical-JSON content digest — the same
machinery as ``ProcessorConfig.config_digest()`` — of exactly the values the
template folds in.
"""

from __future__ import annotations

import linecache
from itertools import islice
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.common.config import ProcessorConfig
from repro.common.jsonutil import content_digest
from repro.common.types import Topology
from repro.energy import DST_CLASS_INDICES, MEM_CLASS_INDICES
from repro.steering import get_policy
from repro.engine.kernel import (
    KernelResult,
    STAGES,
    build_tables,
    check_fu_coverage,
)
from repro.engine.trace import Trace

#: Instructions between rebases of the sliding slot scoreboards.
PRUNE_INTERVAL = 4096

#: Minimum number of zero entries appended when a sliding scoreboard grows.
_GROW = 4096

_N_FU = 4
_N_CLASSES = 12
_NOP = 11
_BRANCH = 10
_LOAD = 6
_FP_LOAD = 7
_FLAG_MISPREDICT = 1
_FLAG_L1_MISS = 2
_FLAG_L2_MISS = 4

#: Compiled kernels, keyed by :func:`specialization_key`.  Module-level on
#: purpose: every sweep-worker process compiles each structural variant at
#: most once, no matter how many grid points share it.
_REGISTRY: Dict[str, Callable[[Trace], KernelResult]] = {}


def _spec_values(cfg: ProcessorConfig) -> Dict[str, object]:
    """Everything the template folds in, as a JSON-canonicalisable dict."""
    latency, occupancy, fu_for, has_dst = build_tables(cfg)
    values: Dict[str, object] = {
        "n_clusters": cfg.n_clusters,
        "topology": cfg.topology.value,
        "steering": cfg.steering,
        "fetch_width": cfg.fetch_width,
        "window_size": cfg.window_size,
        "frontend_depth": cfg.frontend_depth,
        "issue_width": cfg.cluster.issue_width,
        "fu_counts": list(cfg.cluster.fu_counts),
        "hop_latency": cfg.bus.hop_latency,
        "bandwidth": cfg.bus.bandwidth,
        "writeback_latency": cfg.bus.writeback_latency,
        "mispredict_penalty": cfg.branch.mispredict_penalty,
        "l1_miss_penalty": cfg.memory.l1d.miss_penalty,
        "l2_miss_penalty": cfg.memory.l2_miss_penalty,
        "latency": list(latency),
        "occupancy": list(occupancy),
        # fu_for / has_dst are config-independent today, but they are part of
        # the residual program, so they belong in the key.
        "fu_for": list(fu_for),
        "has_dst": [int(b) for b in has_dst],
    }
    if cfg.energy.enabled:
        # Every energy cost is a literal in the emitted source, so the whole
        # cost vector belongs in the key.  A disabled model adds NO key at
        # all: the emitted source — and the registry entry — is then
        # byte-identical to a build without the energy model, which is what
        # guarantees ``energy=off`` costs nothing.
        en = cfg.energy
        values["energy"] = {
            "fetch": en.fetch,
            "steer": en.steer,
            "issue": en.issue,
            "operand_read": en.operand_read,
            "result_write": en.result_write,
            "bus_hop": en.bus_hop,
            "l1_hit": en.l1_hit,
            "l1_miss": en.l1_miss,
            "l2_miss": en.l2_miss,
            "wakeup": en.wakeup,
            "fu": en.fu.table(),
        }
    return values


def specialization_key(cfg: ProcessorConfig) -> str:
    """Structural cache key: digest of exactly the folded-in values.

    Computed with the same canonical-JSON content digest as
    ``ProcessorConfig.config_digest()``, but over the *timing-relevant
    projection* of the config — so e.g. register-file sizes or cache
    geometry changes do not multiply compiled variants.
    """
    return content_digest(_spec_values(cfg), 16)


class _Emitter:
    """Tiny indented-source builder used by the stage emitters."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.stages_emitted: List[str] = []

    def emit(self, line: str = "", indent: int = 0) -> None:
        self.lines.append(("    " * indent + line) if line else "")

    def stage(self, name: str, indent: int = 0) -> None:
        self.stages_emitted.append(name)
        self.emit(f"# ---- {name} " + "-" * max(0, 54 - len(name)), indent)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _ring_next(base: str, nc: int, pow2: bool) -> str:
    """Cluster one hop ahead of ``base`` on the ring."""
    if pow2:
        return f"({base} + 1) & {nc - 1}"
    return f"({base} + 1) % {nc}"


def _conv_delta(nc: int) -> str:
    """Index into the CONV shortest-distance table ``_DN``."""
    if nc & (nc - 1) == 0:
        return f"(cluster - pc) & {nc - 1}"
    return f"(cluster - pc) % {nc}"


def _conv_distance_table(nc: int) -> Tuple[int, ...]:
    """``_DN[delta mod nc]`` = shorter way around between two clusters."""
    return tuple(min(m, nc - m) for m in range(nc))


def _ring_hops(pc: str, nc: int, pow2: bool) -> str:
    """Hops from producer cluster ``pc`` to ``cluster`` on the ring (>= 1)."""
    if pow2:
        return f"((cluster - {pc} - 1) & {nc - 1}) + 1"
    return f"((cluster - {pc} - 1) % {nc}) + 1"


def _emit_steering(e: _Emitter, v: Dict[str, object], ind: int) -> None:
    """Steering for the non-fused policies (``modulo`` / ``round_robin``)."""
    nc = v["n_clusters"]
    pow2 = nc & (nc - 1) == 0
    e.stage("steering", ind)
    if v["steering"] == "modulo":
        if pow2:
            e.emit(f"cluster = (i // {v['fetch_width']}) & {nc - 1}", ind)
        else:
            e.emit(f"cluster = (i // {v['fetch_width']}) % {nc}", ind)
    else:  # round_robin
        if pow2:
            e.emit(f"cluster = i & {nc - 1}", ind)
        else:
            e.emit(f"cluster = i % {nc}", ind)
    e.emit("cluster_col[i] = cluster", ind)


def _emit_conv_grant(e: _Emitter, v: Dict[str, object], src: str, ind: int) -> None:
    """Lazy CONV bus grant for producer ``src`` (bandwidth/wb_lat folded)."""
    nc = v["n_clusters"]
    wb = v["writeback_latency"]
    bw = v["bandwidth"]
    e.emit(f"g = grant_col[{src}]", ind)
    e.emit("if g < 0:", ind)
    if wb:
        e.emit(f"g = complete_col[{src}] + {wb}", ind + 1)
    else:
        e.emit(f"g = complete_col[{src}]", ind + 1)
    e.emit(f"key = g * {nc} + pc", ind + 1)
    e.emit("c = bslots_get(key, 0)", ind + 1)
    e.emit(f"while c >= {bw}:", ind + 1)
    e.emit("g += 1", ind + 2)
    e.emit(f"key += {nc}", ind + 2)
    e.emit("c = bslots_get(key, 0)", ind + 2)
    e.emit("bus_slots[key] = c + 1", ind + 1)
    if wb:
        e.emit(f"g += {wb}", ind + 1)
    e.emit(f"grant_col[{src}] = g", ind + 1)
    e.emit("communications += 1", ind + 1)


def _emit_operand(e: _Emitter, v: Dict[str, object], src: str, ind: int,
                  target: str = "avail", accum: str = "ready",
                  guarded: bool = True) -> None:
    """Availability of source ``src`` (``s1`` or ``s2``) into ``target``.

    The computed availability is max-folded into ``accum``.  ``guarded``
    wraps the block in the ``src >= 0`` presence test; the fused dependence
    emitter has already made that test for its non-critical source.
    """
    nc = v["n_clusters"]
    pow2 = nc & (nc - 1) == 0
    hl = v["hop_latency"]
    if guarded:
        e.emit(f"if {src} >= 0:", ind)
        ind += 1
    if v["topology"] == Topology.RING.value:
        e.emit(f"hops = {_ring_hops(f'cluster_col[{src}]', nc, pow2)}", ind)
        e.emit("hop_counts[hops] += 1", ind)
        term = "hops" if hl == 1 else f"hops * {hl}"
        e.emit(f"{target} = grant_col[{src}] + {term}", ind)
    else:
        e.emit(f"pc = cluster_col[{src}]", ind)
        e.emit("if cluster == pc:", ind)
        e.emit(f"{target} = complete_col[{src}]  # intra-cluster bypass",
               ind + 1)
        e.emit("else:", ind)
        _emit_conv_grant(e, v, src, ind + 1)
        e.emit(f"d = _DN[{_conv_delta(nc)}]", ind + 1)
        e.emit("hop_counts[d] += 1", ind + 1)
        term = "d" if hl == 1 else f"d * {hl}"
        e.emit(f"{target} = g + {term}", ind + 1)
    e.emit(f"if {target} > {accum}:", ind)
    e.emit(f"{accum} = {target}", ind + 1)


def _emit_ring_critical(e: _Emitter, v: Dict[str, object], src: str,
                        ind: int) -> None:
    """RING availability of the *critical* source, which is one hop away.

    Dependence steering places the consumer one cluster ahead of its
    critical producer, so that source's ring distance is identically 1 —
    the specializer folds the whole hop computation away and tallies the
    histogram bucket in a plain int (``h1``) folded in after the loop.
    """
    hl = v["hop_latency"]
    nc = v["n_clusters"]
    pow2 = nc & (nc - 1) == 0
    e.emit(f"cluster = {_ring_next(f'cluster_col[{src}]', nc, pow2)}", ind)
    e.emit("h1 += 1", ind)
    e.emit(f"avail = grant_col[{src}] + {hl}", ind)


def _emit_conv_critical(e: _Emitter, v: Dict[str, object], src: str,
                        ind: int) -> None:
    """CONV availability of the *critical* source: the intra-cluster bypass.

    Dependence steering under CONV places the consumer on its critical
    producer's own cluster, so that source always bypasses locally — no
    distance computation, no lazy grant, no histogram entry.
    """
    e.emit(f"cluster = cluster_col[{src}]", ind)
    e.emit(f"avail = complete_col[{src}]  # intra-cluster bypass", ind)


def _emit_dependence_fused(e: _Emitter, v: Dict[str, object], ind: int) -> None:
    """Fused steering + operand availability for dependence steering.

    The generic loop first steers, then walks both sources again through the
    full topology-general availability code.  Specialized to dependence
    steering, the critical source's availability is known *by construction*
    (one ring hop / local bypass — see :func:`_emit_ring_critical` and
    :func:`_emit_conv_critical`), so the fused form computes it inline while
    steering and runs the general path for at most one remaining source.
    Hop-histogram increments commute and at most one CONV lazy grant occurs
    per instruction, so totals are bit-identical to the generic loop.
    """
    nc = v["n_clusters"]
    pow2 = nc & (nc - 1) == 0
    ring = v["topology"] == Topology.RING.value
    critical = _emit_ring_critical if ring else _emit_conv_critical
    e.stage("steering", ind)
    e.emit("if s1 >= 0:", ind)
    e.emit("if s2 >= 0 and complete_col[s2] > complete_col[s1]:", ind + 1)
    critical(e, v, "s2", ind + 2)
    _emit_operand(e, v, "s1", ind + 2, "a", "avail", guarded=False)
    e.emit("else:", ind + 1)
    critical(e, v, "s1", ind + 2)
    _emit_operand(e, v, "s2", ind + 2, "a", "avail")
    e.emit("if avail > ready:", ind + 1)
    e.emit("ready = avail", ind + 2)
    e.stage("operands", ind)
    e.emit("elif s2 >= 0:", ind)
    critical(e, v, "s2", ind + 1)
    e.emit("if avail > ready:", ind + 1)
    e.emit("ready = avail", ind + 2)
    e.emit("else:", ind)
    # rr_counter is non-negative, so the mask is an exact modulo here.
    if pow2:
        e.emit(f"cluster = rr_counter & {nc - 1}", ind + 1)
    else:
        e.emit(f"cluster = rr_counter % {nc}", ind + 1)
    e.emit("rr_counter += 1", ind + 1)
    e.emit("cluster_col[i] = cluster", ind)


def _emit_body(e: _Emitter, v: Dict[str, object], ind: int) -> None:
    """One full per-instruction loop body.

    The reorder-window check needs no index guard: ``rob`` starts zeroed,
    so during the first ``window_size`` instructions its entries can never
    stall fetch.
    """
    nc: int = v["n_clusters"]  # type: ignore[assignment]
    is_ring = v["topology"] == Topology.RING.value
    fu_counts: List[int] = v["fu_counts"]  # type: ignore[assignment]
    single_fu = all(c <= 1 for c in fu_counts)
    iw: int = v["issue_width"]  # type: ignore[assignment]
    window: int = v["window_size"]  # type: ignore[assignment]
    wb: int = v["writeback_latency"]  # type: ignore[assignment]
    bw: int = v["bandwidth"]  # type: ignore[assignment]
    fw: int = v["fetch_width"]  # type: ignore[assignment]
    depth: int = v["frontend_depth"]  # type: ignore[assignment]

    policy = get_policy(v["steering"])  # type: ignore[arg-type]
    e.emit("i += 1", ind)

    # ---- fetch ----------------------------------------------------------
    e.stage("fetch", ind)
    e.emit(f"if fetched_this_cycle >= {fw}:", ind)
    e.emit("fetch_cycle += 1", ind + 1)
    e.emit("fetched_this_cycle = 0", ind + 1)
    e.emit("if redirect > fetch_cycle:", ind)
    e.emit("fetch_cycle = redirect", ind + 1)
    e.emit("fetched_this_cycle = 0", ind + 1)
    e.emit("slot_free = rob[rob_idx]", ind)
    e.emit("if slot_free > fetch_cycle:", ind)
    e.emit("fetch_cycle = slot_free", ind + 1)
    e.emit("fetched_this_cycle = 0", ind + 1)
    e.emit("fetched_this_cycle += 1", ind)
    e.emit(f"ready = fetch_cycle + {depth}" if depth else "ready = fetch_cycle",
           ind)

    # ---- steering + operand availability --------------------------------
    # Emitted by the registered policy object: built-ins delegate to the
    # stage emitters above; plugins inline their own branch-free blocks.
    policy.emit_steering(e, v, ind)

    # ---- issue (NOPs occupy no slot or unit) ----------------------------
    # Issue-slot occupancy lives in a flat *sliding list* instead of a
    # dict: every probe is at a cycle >= fetch_cycle (monotonic), so the
    # window below fetch_cycle is dead and gets rebased away at chunk
    # boundaries, keeping the list small, cache-resident and
    # hash-free.  ``ibase``/``ilen`` are the current base key and length.
    e.stage("issue", ind)
    e.emit(f"if k != {_NOP}:", ind)
    body = ind + 1
    if single_fu:
        e.emit(f"fi = cluster * {_N_FU} + _FU[k]", body)
        e.emit("uf = fu_free[fi]", body)
        e.emit("issue = uf if uf > ready else ready", body)
    else:
        e.emit(f"units = fu_free[cluster * {_N_FU} + _FU[k]]", body)
        e.emit("unit_idx = 0", body)
        e.emit("unit_free = units[0]", body)
        e.emit("for u in range(1, len(units)):", body)
        e.emit("if units[u] < unit_free:", body + 1)
        e.emit("unit_free = units[u]", body + 2)
        e.emit("unit_idx = u", body + 2)
        e.emit("issue = unit_free if unit_free > ready else ready", body)
    e.emit(f"key = issue * {nc} + cluster - ibase", body)
    e.emit("if key >= ilen:", body)
    e.emit(f"islots.extend([0] * (key + {_GROW} - ilen))", body + 1)
    e.emit("ilen = len(islots)", body + 1)
    e.emit("c = islots[key]", body)
    e.emit(f"while c >= {iw}:" if iw > 1 else "while c:", body)
    e.emit("issue += 1", body + 1)
    e.emit(f"key += {nc}", body + 1)
    e.emit("if key >= ilen:", body + 1)
    e.emit(f"islots.extend([0] * (key + {_GROW} - ilen))", body + 2)
    e.emit("ilen = len(islots)", body + 2)
    e.emit("c = islots[key]", body + 1)
    e.emit("islots[key] = c + 1", body)
    if single_fu:
        e.emit("fu_free[fi] = issue + _OCC[k]", body)
    else:
        e.emit("units[unit_idx] = issue + _OCC[k]", body)
    e.emit("issued_per_cluster[cluster] += 1", body)
    e.emit("else:", ind)
    e.emit("issue = ready", ind + 1)

    # ---- execute --------------------------------------------------------
    # Effective latencies (base + cache-miss penalties) and the
    # mispredict/miss totals were vectorized out of the loop; ``lat`` rides
    # in on the zip.
    e.stage("execute", ind)
    e.emit("complete = issue + lat", ind)
    e.emit("complete_col[i] = complete", ind)

    # ---- writeback / interconnect ---------------------------------------
    # RING injects eagerly at a cycle >= fetch_cycle, so its bus occupancy
    # uses the same sliding-list structure as the issue slots.  The
    # mispredict flag is read lazily from the flags column — it is the only
    # remaining use of the flag word in the loop, and only branches
    # (a small minority) ever reach the read.
    e.stage("writeback", ind)
    if is_ring:
        e.emit("if _DST[k]:", ind)
        e.emit("g = complete", ind + 1)
        e.emit(f"key = g * {nc} + cluster - bbase", ind + 1)
        e.emit("if key >= blen:", ind + 1)
        e.emit(f"bslots.extend([0] * (key + {_GROW} - blen))", ind + 2)
        e.emit("blen = len(bslots)", ind + 2)
        e.emit("c = bslots[key]", ind + 1)
        e.emit(f"while c >= {bw}:" if bw > 1 else "while c:", ind + 1)
        e.emit("g += 1", ind + 2)
        e.emit(f"key += {nc}", ind + 2)
        e.emit("if key >= blen:", ind + 2)
        e.emit(f"bslots.extend([0] * (key + {_GROW} - blen))", ind + 3)
        e.emit("blen = len(bslots)", ind + 3)
        e.emit("c = bslots[key]", ind + 2)
        e.emit("bslots[key] = c + 1", ind + 1)
        e.emit(f"grant_col[i] = g + {wb}" if wb else "grant_col[i] = g", ind + 1)
        # Under RING every value producer injects exactly once, so the
        # communications total is derived from class_counts after the loop.
        # Value-producing classes never carry the mispredict flag, so the
        # redirect check lives on the else-path exactly as in the generic loop.
        e.emit(f"elif k == {_BRANCH} and flags[i] & {_FLAG_MISPREDICT}:", ind)
    else:
        # CONV grants lazily on first remote consume (operands stage);
        # branches never produce a register value, so _DST is dead here.
        e.emit(f"if k == {_BRANCH} and flags[i] & {_FLAG_MISPREDICT}:", ind)
    e.emit(f"r = complete + {v['mispredict_penalty']}", ind + 1)
    e.emit("if r > redirect:", ind + 1)
    e.emit("redirect = r", ind + 2)

    # ---- in-order retire ------------------------------------------------
    e.stage("retire", ind)
    e.emit("if complete > last_retire:", ind)
    e.emit("last_retire = complete", ind + 1)
    e.emit("rob[rob_idx] = last_retire", ind)
    e.emit("rob_idx += 1", ind)
    e.emit(f"if rob_idx == {window}:", ind)
    e.emit("rob_idx = 0", ind + 1)
    policy.emit_retire(e, v, ind)

    if "energy" in v:
        # Per-event energy state the aggregate counters cannot reconstruct:
        # reorder-window occupancy at this instruction's fetch cycle (see
        # repro.energy).  retire_col is a running max, so the pointer only
        # ever moves forward.  All other components fold over
        # loop-maintained counters in the epilogue, with the costs as
        # literals.
        e.emit("while rp < i and retire_col[rp] <= fetch_cycle:", ind)
        e.emit("rp += 1", ind + 1)
        e.emit("wakeup_units += i - rp + 1", ind)
        e.emit("retire_col[i] = last_retire", ind)


def emit_kernel_source(cfg: ProcessorConfig) -> str:
    """Return the Python source of the specialized kernel for ``cfg``.

    The emitted function is named ``specialized_kernel`` and has the same
    contract as :func:`repro.engine.kernel.simulate` with the config bound:
    ``specialized_kernel(trace) -> KernelResult``.
    """
    v = _spec_values(cfg)
    policy = get_policy(cfg.steering)
    nc: int = v["n_clusters"]  # type: ignore[assignment]
    fu_counts: List[int] = v["fu_counts"]  # type: ignore[assignment]
    single_fu = all(c <= 1 for c in fu_counts)
    window: int = v["window_size"]  # type: ignore[assignment]
    occ_t = tuple(v["occupancy"])  # type: ignore[arg-type]
    fu_t = tuple(v["fu_for"])  # type: ignore[arg-type]
    dst_t = tuple(v["has_dst"])  # type: ignore[arg-type]

    e = _Emitter()
    e.emit(f"# Specialized kernel for key {specialization_key(cfg)}")
    e.emit(f"# {cfg.describe()!r}")
    # Constant tuples ride in as default arguments: local loads in the loop,
    # no cell/global lookups.
    defaults = "_OCC=%r, _FU=%r, _DST=%r" % (occ_t, fu_t, dst_t)
    if v["topology"] == Topology.CONV.value:
        defaults += ", _DN=%r" % (_conv_distance_table(nc),)
    e.emit(f"def specialized_kernel(trace, {defaults}):")
    # The immutable trace columns are consumed directly: opclass/src1/src2
    # are only ever unpacked by the zip (never indexed), flags is probed on
    # the rare mispredicted branch, and the vectorized pre-pass reads
    # zero-copy numpy views of the array-module storage.  Only the three
    # mutable pipeline columns are allocated per run.
    e.emit("opclass = trace.opclass; src1 = trace.src1; src2 = trace.src2", 1)
    e.emit("flags = trace.flags", 1)
    e.emit("n = len(opclass)", 1)
    e.emit("cluster_col = [0] * n", 1)
    e.emit("complete_col = [0] * n", 1)
    if v["topology"] == Topology.RING.value:
        # RING grants eagerly at writeback, always before any consumer
        # reads grant_col, so the -1 "ungranted" sentinel is never needed.
        e.emit("grant_col = [0] * n", 1)
    else:
        e.emit("grant_col = [-1] * n", 1)
    # Vectorized pre-pass: class tally (bincount beats a Counter by ~20x),
    # per-instruction effective latencies with cache-miss penalties folded
    # in, and the mispredict/miss totals, so the scalar loop never touches
    # the flag word for timing.
    e.emit("op = _np.frombuffer(trace.opclass, dtype=_np.int8)", 1)
    e.emit("fl = _np.frombuffer(trace.flags, dtype=_np.int8)", 1)
    e.emit(f"class_counts = _np.bincount(op, minlength={_N_CLASSES}).tolist()",
           1)
    e.emit("_check_fu(trace.name, class_counts)", 1)
    e.emit(f"l1 = (fl & {_FLAG_L1_MISS}) != 0", 1)
    e.emit(f"l2 = l1 & ((fl & {_FLAG_L2_MISS}) != 0)", 1)
    e.emit(f"ml = l1 & ((op == {_LOAD}) | (op == {_FP_LOAD}))  # missing loads",
           1)
    e.emit(f"mispredicts = int(((fl & {_FLAG_MISPREDICT}) != 0).sum())", 1)
    e.emit("l1_misses = int(l1.sum())", 1)
    e.emit("l2_misses = int(l2.sum())", 1)
    lat_expr = "_LAT_NP[op]"
    if v["l1_miss_penalty"]:
        lat_expr += f" + ml * {v['l1_miss_penalty']}"
    if v["l2_miss_penalty"]:
        lat_expr += f" + (ml & l2) * {v['l2_miss_penalty']}"
    e.emit(f"lat_col = ({lat_expr}).tolist()", 1)
    if single_fu:
        e.emit(f"fu_free = [0] * {nc * _N_FU}", 1)
    else:
        e.emit(f"fu_free = [[0] * _FU_COUNTS[t] for _c in range({nc}) "
               f"for t in range({_N_FU})]", 1)
    e.emit("islots = []  # sliding issue-slot scoreboard", 1)
    e.emit("ibase = 0", 1)
    e.emit("ilen = 0", 1)
    if v["topology"] == Topology.RING.value:
        e.emit("bslots = []  # sliding bus scoreboard (eager RING injection)", 1)
        e.emit("bbase = 0", 1)
        e.emit("blen = 0", 1)
    else:
        e.emit("bus_slots = {}  # lazy CONV grants probe old cycles: dict", 1)
        e.emit("bslots_get = bus_slots.get", 1)
    en = v.get("energy")
    if en:
        # Energy model: the present-source-operand count is exact from the
        # immutable trace columns, so it is vectorized with the rest of the
        # pre-pass; occupancy tracking state rides in the loop.
        e.emit("s1v = _np.frombuffer(trace.src1, dtype=_np.int64)", 1)
        e.emit("s2v = _np.frombuffer(trace.src2, dtype=_np.int64)", 1)
        e.emit("operand_reads = int((s1v >= 0).sum()) + int((s2v >= 0).sum())",
               1)
        e.emit("retire_col = [0] * n", 1)
        e.emit("rp = 0", 1)
        e.emit("wakeup_units = 0", 1)
    e.emit(f"rob = [0] * {window}", 1)
    e.emit(f"issued_per_cluster = [0] * {nc}", 1)
    e.emit(f"hop_counts = [0] * {nc + 1}", 1)
    e.emit("fetch_cycle = 0", 1)
    e.emit("fetched_this_cycle = 0", 1)
    e.emit("redirect = 0", 1)
    e.emit("last_retire = 0", 1)
    e.emit("rr_counter = 0", 1)
    e.emit("h1 = 0", 1)
    policy.emit_setup(e, v)
    e.emit("communications = 0", 1)
    e.emit("i = -1", 1)

    # The instruction loop runs in PRUNE_INTERVAL-sized chunks: at each
    # chunk boundary the sliding scoreboards are rebased to fetch_cycle.
    # Every probe is at a cycle >= fetch_cycle and fetch_cycle never
    # decreases, so the rebased-away prefix is unreachable.
    e.emit("it = zip(opclass, src1, src2, lat_col)", 1)
    e.emit("rob_idx = 0  # == i mod window", 1)
    e.emit("while True:", 1)
    e.emit(f"stop = i + {PRUNE_INTERVAL}", 2)
    e.emit(f"for k, s1, s2, lat in _islice(it, {PRUNE_INTERVAL}):", 2)
    _emit_body(e, v, 3)
    e.emit("if i != stop:", 2)
    e.emit("break  # trace exhausted mid-chunk", 3)
    e.emit(f"cut = fetch_cycle * {nc} - ibase", 2)
    e.emit("if cut > 0:", 2)
    e.emit("del islots[:cut]  # slice clamps when cut > ilen", 3)
    e.emit("ibase += cut", 3)
    e.emit("ilen = len(islots)", 3)
    if v["topology"] == Topology.RING.value:
        e.emit(f"cut = fetch_cycle * {nc} - bbase", 2)
        e.emit("if cut > 0:", 2)
        e.emit("del bslots[:cut]", 3)
        e.emit("bbase += cut", 3)
        e.emit("blen = len(bslots)", 3)

    # Epilogue.
    policy.emit_epilogue(e, v)
    if v["topology"] == Topology.RING.value:
        dst_terms = " + ".join(
            f"class_counts[{k}]" for k, d in enumerate(dst_t) if d
        )
        e.emit(f"communications = {dst_terms}", 1)
    if en:
        # Fold the breakdown from the loop-maintained counters with every
        # cost constant-folded in as a literal (mirrors repro.energy.
        # fold_breakdown; the differential fuzz tests pin the agreement).
        fu_costs: List[int] = en["fu"]  # type: ignore[assignment]
        fu_terms = " + ".join(
            f"{cost} * class_counts[{k}]"
            for k, cost in enumerate(fu_costs) if cost
        ) or "0"
        write_terms = " + ".join(
            f"class_counts[{k}]" for k in DST_CLASS_INDICES
        )
        mem_terms = " + ".join(
            f"class_counts[{k}]" for k in MEM_CLASS_INDICES
        )
        e.emit("weighted_hops = 0", 1)
        e.emit(f"for _d in range(1, {nc + 1}):", 1)
        e.emit("weighted_hops += _d * hop_counts[_d]", 2)
        e.emit("energy = {", 1)
        e.emit(f"\"fetch\": {en['fetch']} * n,", 2)
        e.emit(f"\"steer\": {en['steer']} * n,", 2)
        e.emit(f"\"issue\": {en['issue']} * (n - class_counts[{_NOP}]),", 2)
        e.emit(f"\"operand\": {en['operand_read']} * operand_reads"
               f" + {en['result_write']} * ({write_terms}),", 2)
        e.emit(f"\"fu\": {fu_terms},", 2)
        e.emit(f"\"bus\": {en['bus_hop']} * weighted_hops,", 2)
        e.emit(f"\"cache\": {en['l1_hit']} * ({mem_terms} - l1_misses)"
               f" + {en['l1_miss']} * l1_misses"
               f" + {en['l2_miss']} * l2_misses,", 2)
        e.emit(f"\"wakeup\": {en['wakeup']} * wakeup_units,", 2)
        e.emit("}", 1)
        e.emit("energy[\"total\"] = sum(energy.values())", 1)
    e.emit("hop_histogram = {d: c for d, c in enumerate(hop_counts) if c}", 1)
    e.emit("return _KernelResult(", 1)
    e.emit("n_instructions=n,", 2)
    e.emit("cycles=last_retire + 1 if n else 0,", 2)
    e.emit("mispredicts=mispredicts,", 2)
    e.emit("l1_misses=l1_misses,", 2)
    e.emit("l2_misses=l2_misses,", 2)
    e.emit("communications=communications,", 2)
    e.emit("hop_histogram=hop_histogram,", 2)
    e.emit("issued_per_cluster=issued_per_cluster,", 2)
    e.emit("class_counts=class_counts,", 2)
    if en:
        e.emit("energy=energy,", 2)
    e.emit(")", 1)

    assert tuple(e.stages_emitted) == STAGES, (
        f"codegen stage structure drifted from kernel.STAGES: "
        f"{e.stages_emitted} != {list(STAGES)}"
    )
    return e.source()


def compile_kernel(cfg: ProcessorConfig) -> Callable[[Trace], KernelResult]:
    """Emit, ``exec`` and return the specialized kernel for ``cfg`` (uncached).

    The returned function carries its own source as ``__source__`` and its
    registry key as ``__specialization_key__`` for debugging.
    """
    source = emit_kernel_source(cfg)
    key = specialization_key(cfg)
    latency, _occupancy, fu_for, _has_dst = build_tables(cfg)
    fu_counts = tuple(cfg.cluster.fu_counts)

    def _check_fu(trace_name: str, class_counts: List[int]) -> None:
        check_fu_coverage(trace_name, class_counts, fu_counts, fu_for)

    namespace: Dict[str, object] = {
        "_KernelResult": KernelResult,
        "_check_fu": _check_fu,
        "_FU_COUNTS": fu_counts,
        "_islice": islice,
        "_np": np,
        "_LAT_NP": np.asarray(latency, dtype=np.int64),
    }
    filename = f"<repro.engine.codegen {key}>"
    # Registered with linecache so tracebacks through a kernel show its
    # source lines (mtime None: never invalidated by checkcache).
    linecache.cache[filename] = (
        len(source), None, source.splitlines(True), filename
    )
    exec(compile(source, filename, "exec"), namespace)
    fn = namespace["specialized_kernel"]
    fn.__source__ = source  # type: ignore[attr-defined]
    fn.__specialization_key__ = key  # type: ignore[attr-defined]
    return fn  # type: ignore[return-value]


def get_kernel(cfg: ProcessorConfig) -> Callable[[Trace], KernelResult]:
    """Compiled kernel for ``cfg``, from the registry (compiling on miss)."""
    key = specialization_key(cfg)
    fn = _REGISTRY.get(key)
    if fn is None:
        fn = compile_kernel(cfg)
        _REGISTRY[key] = fn
    return fn


def simulate_specialized(trace: Trace, cfg: ProcessorConfig) -> KernelResult:
    """Drop-in for :func:`repro.engine.kernel.simulate` using codegen."""
    return get_kernel(cfg)(trace)


def registry_size() -> int:
    """Number of compiled variants cached in this process."""
    return len(_REGISTRY)


def clear_registry() -> None:
    """Drop all cached variants (tests and memory-sensitive embedders)."""
    _REGISTRY.clear()


__all__ = [
    "PRUNE_INTERVAL",
    "clear_registry",
    "compile_kernel",
    "emit_kernel_source",
    "get_kernel",
    "registry_size",
    "simulate_specialized",
    "specialization_key",
]
