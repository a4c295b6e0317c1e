"""Table-driven issue/execute/writeback kernel.

This module contains the hot loop of the simulator.  It models, per dynamic
instruction, in program order:

* **fetch** — ``fetch_width`` instructions per cycle, stalled by reorder-window
  occupancy (``window_size`` entries, in-order retire) and redirected on
  mispredicted branches;
* **steering** — dependence-aware (consumer follows its critical producer;
  for ``RING`` it is placed one cluster *ahead* of the producer, where the
  result arrives first), modulo, or round-robin;
* **issue** — bounded by per-cluster issue width and functional-unit
  availability; divide units are not pipelined;
* **execute** — latency from the flat Table-2 latency table, plus cache-miss
  penalties for flagged memory operations;
* **writeback / interconnect** — under ``RING`` every result is injected on
  the unidirectional ring (bandwidth-limited per cluster) and becomes visible
  to cluster ``i+1`` first; there is no intra-cluster bypass, so a consumer
  in the producing cluster waits a full loop.  Under ``CONV`` results bypass
  locally for free and are broadcast on demand over the shortest of the two
  per-direction buses.

Everything the per-instruction body touches is a local name bound to a flat
``list`` or ``dict`` before the loop starts: no attribute lookups, no enum
instances, no per-instruction objects.  The instruction/FU taxonomy enters
only through integer-indexed tables built once from the config
(:meth:`FuLatencies.table`, ``FU_FOR_CLASS``), which is what makes the loop
table-driven rather than branchy.
"""

from __future__ import annotations

import dataclasses
from collections import Counter as _TallyCounter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.config import ProcessorConfig
from repro.common.errors import ConfigurationError, SteeringError
from repro.energy import ENERGY_COMPONENTS, fold_breakdown
from repro.steering import BUILTIN_POLICIES, SteeringContext, get_policy
from repro.common.types import (
    DEST_REGCLASS_FOR_CLASS,
    FU_FOR_CLASS,
    InstrClass,
    Topology,
)
from repro.engine.trace import (
    FLAG_L1_MISS,
    FLAG_L2_MISS,
    FLAG_MISPREDICT,
    Trace,
)
from repro.engine.window import SoAWindow

#: Version tag of the timing model.  The sweep result store folds this into
#: its cache keys, so bump it whenever a change alters simulated cycle counts
#: (and mirror the change in ``bench/naive_ref.py``) — stale cached results
#: then miss instead of being silently reused.
#:
#: The timing model is implemented more than once on purpose: the generic
#: loop below, the per-config specialized variants emitted by
#: :mod:`repro.engine.codegen`, the same loop in C (``native.c``, run by
#: :mod:`repro.engine.native`) and the lane-vectorized
#: :mod:`repro.engine.batch`.  A change to any of them that alters simulated
#: cycles is a timing-model change like any other and must bump this
#: version (and every implementation and ``bench/naive_ref.py`` must be
#: updated to match); changes that keep every :class:`KernelResult` field
#: identical — the normal case, enforced by the differential fuzz tests and
#: the bench agreement gate — must NOT bump it, so cached sweep stores stay
#: valid.
ENGINE_VERSION = "1"

#: Authoritative pipeline stage order.  The generic loop below and the
#: per-stage emitters in :mod:`repro.engine.codegen` are both organised
#: around this exact sequence; codegen asserts it emits these stages in
#: this order, so the two kernels cannot silently drift structurally.
STAGES = (
    "fetch",
    "steering",
    "operands",
    "issue",
    "execute",
    "writeback",
    "retire",
)

_N_CLASSES = len(InstrClass)
_BRANCH = int(InstrClass.BRANCH)
_NOP = int(InstrClass.NOP)
_LOAD = int(InstrClass.LOAD)
_FP_LOAD = int(InstrClass.FP_LOAD)
_N_FU = 4  # FuType cardinality; fu_free is indexed cluster * _N_FU + futype


@dataclass
class KernelResult:
    """Raw totals produced by one :func:`simulate` call.

    ``energy`` is the per-component energy breakdown (every
    :data:`repro.energy.ENERGY_COMPONENTS` key plus ``"total"``, all
    integer units) when the config's energy model is enabled, and ``None``
    otherwise.  A ``None`` breakdown serializes to *no* ``energy`` key at
    all, so results computed with the model off are byte-identical to
    results from before the model existed.
    """

    n_instructions: int
    cycles: int
    mispredicts: int
    l1_misses: int
    l2_misses: int
    communications: int
    hop_histogram: Dict[int, int]
    issued_per_cluster: List[int]
    class_counts: List[int]
    energy: Optional[Dict[str, int]] = None

    @property
    def ipc(self) -> float:
        return self.n_instructions / self.cycles if self.cycles else 0.0

    @property
    def energy_per_instr(self) -> float:
        """Total energy units per instruction (0.0 when the model is off)."""
        if self.energy is None or not self.n_instructions:
            return 0.0
        return self.energy["total"] / self.n_instructions

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable raw totals (derived values like IPC excluded).

        ``hop_histogram`` keys become strings (JSON objects only have string
        keys); :meth:`from_dict` converts them back, so the round trip is
        exact.  The ``energy`` key is present iff the breakdown is.
        """
        out = {
            "n_instructions": self.n_instructions,
            "cycles": self.cycles,
            "mispredicts": self.mispredicts,
            "l1_misses": self.l1_misses,
            "l2_misses": self.l2_misses,
            "communications": self.communications,
            "hop_histogram": {str(d): c for d, c in sorted(self.hop_histogram.items())},
            "issued_per_cluster": list(self.issued_per_cluster),
            "class_counts": list(self.class_counts),
        }
        if self.energy is not None:
            out["energy"] = dict(self.energy)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "KernelResult":
        expected = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - expected)
        # ``energy`` is optional on the wire: records written with the
        # model disabled (or before it existed) simply lack the key.
        missing = sorted(expected - set(data) - {"energy"})
        if unknown or missing:
            raise ValueError(
                f"KernelResult.from_dict: unknown keys {unknown}, missing keys {missing}"
            )
        kwargs = dict(data)
        if kwargs.get("energy") is not None:
            energy: Dict[str, int] = {}
            for comp, units in kwargs["energy"].items():  # type: ignore[union-attr]
                try:
                    energy[str(comp)] = int(units)
                except (TypeError, ValueError) as exc:
                    raise ValueError(
                        f"KernelResult.from_dict: energy entry {comp!r}: "
                        f"{units!r} is not coercible to int units"
                    ) from exc
            expected_comps = set(ENERGY_COMPONENTS) | {"total"}
            missing_comps = sorted(expected_comps - set(energy))
            unknown_comps = sorted(set(energy) - expected_comps)
            if missing_comps or unknown_comps:
                raise ValueError(
                    f"KernelResult.from_dict: energy breakdown has unknown "
                    f"component(s) {unknown_comps}, missing component(s) "
                    f"{missing_comps}"
                )
            kwargs["energy"] = energy
        hop_histogram: Dict[int, int] = {}
        for d, c in kwargs["hop_histogram"].items():  # type: ignore[union-attr]
            try:
                hop_histogram[int(d)] = int(c)
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"KernelResult.from_dict: hop_histogram entry {d!r}: {c!r} "
                    f"is not coercible to int counts"
                ) from exc
        kwargs["hop_histogram"] = hop_histogram
        kwargs["issued_per_cluster"] = list(kwargs["issued_per_cluster"])  # type: ignore[arg-type]
        kwargs["class_counts"] = list(kwargs["class_counts"])  # type: ignore[arg-type]
        return cls(**kwargs)  # type: ignore[arg-type]


def build_tables(cfg: ProcessorConfig):
    """Precompute the integer-indexed dispatch tables for the hot loop."""
    latency = cfg.latencies.table()
    pipelined = cfg.latencies.pipelined_table()
    # Occupancy: cycles a unit is blocked per op (1 when fully pipelined).
    occupancy = [1 if pipelined[k] else latency[k] for k in range(_N_CLASSES)]
    fu_for = [int(FU_FOR_CLASS[InstrClass(k)]) for k in range(_N_CLASSES)]
    has_dst = [DEST_REGCLASS_FOR_CLASS[InstrClass(k)] is not None for k in range(_N_CLASSES)]
    return latency, occupancy, fu_for, has_dst


def check_fu_coverage(trace_name, class_counts, fu_counts, fu_for) -> None:
    """Reject configs that cannot run the tallied instruction classes.

    Shared by the generic loop and every :mod:`repro.engine.codegen` variant:
    every instruction class present in the trace must have at least one unit
    of its FU type (clusters are homogeneous), otherwise the issue stage
    would index an empty unit list deep in the loop.
    """
    for k in range(_N_CLASSES):
        if class_counts[k] and k != _NOP and fu_counts[fu_for[k]] == 0:
            raise ConfigurationError(
                f"trace {trace_name!r} contains {InstrClass(k).name} but the "
                f"cluster configuration has zero units of its functional-unit "
                f"type (fu_counts={tuple(fu_counts)})"
            )


def preflight_class_counts(trace_name, opclass, fu_counts, fu_for) -> List[int]:
    """Tally instruction classes and run :func:`check_fu_coverage`."""
    tally = _TallyCounter(opclass)
    class_counts = [tally.get(k, 0) for k in range(_N_CLASSES)]
    check_fu_coverage(trace_name, class_counts, fu_counts, fu_for)
    return class_counts


def simulate(trace: Trace, cfg: ProcessorConfig) -> KernelResult:
    """Run ``trace`` through the machine described by ``cfg``.

    Deterministic: identical ``(trace, cfg)`` always yields identical totals.
    """
    win = SoAWindow(trace)
    (opclass, src1, src2, dst, flags,
     cluster_col, complete_col, grant_col) = win.columns()
    n = len(win)

    latency, occupancy, fu_for, has_dst = build_tables(cfg)

    n_clusters = cfg.n_clusters
    is_ring = cfg.topology is Topology.RING
    fetch_width = cfg.fetch_width
    window_size = cfg.window_size
    frontend_depth = cfg.frontend_depth
    issue_width = cfg.cluster.issue_width
    hop_lat = cfg.bus.hop_latency
    bus_bw = cfg.bus.bandwidth
    wb_lat = cfg.bus.writeback_latency
    mispredict_pen = cfg.branch.mispredict_penalty
    l1_miss_pen = cfg.memory.l1d.miss_penalty
    l2_miss_pen = cfg.memory.l2_miss_penalty
    # The three original policies stay inlined in the loop below (the
    # generic kernel is performance-gated against the naive oracle); any
    # other registered policy steers through its per-run closure.
    steer_dep = cfg.steering == "dependence"
    steer_mod = cfg.steering == "modulo"
    steer_rr = cfg.steering == "round_robin"
    plugin = None if cfg.steering in BUILTIN_POLICIES else get_policy(cfg.steering)

    fu_counts = cfg.cluster.fu_counts
    class_counts = preflight_class_counts(trace.name, opclass, fu_counts, fu_for)
    # Energy accounting state.  When the model is off the loop pays exactly
    # one dead ``if track_energy`` branch per instruction; when on, the only
    # per-event state the aggregate counters cannot reconstruct is the
    # reorder-window occupancy at each fetch (see repro.energy), tracked via
    # a retire-cycle column and a monotone retire pointer.  Occupancy-aware
    # steering policies read the same retire-cycle column.
    track_energy = cfg.energy.enabled
    track_retire = track_energy or (plugin is not None and plugin.needs_retire)
    retire_col: List[int] = [0] * n if track_retire else []
    retire_ptr = 0
    wakeup_units = 0
    operand_reads = 0
    # fu_free[c * _N_FU + t] -> list of next-free cycles, one entry per unit.
    fu_free: List[List[int]] = [
        [0] * fu_counts[t] for _c in range(n_clusters) for t in range(_N_FU)
    ]
    # grant_col stores the bus-grant cycle ALREADY SHIFTED by wb_lat, so
    # consumer reads pay one add per hop count instead of two.
    # Issue-slot and bus-injection occupancy.  One flat dict each, keyed by
    # ``cycle * n_clusters + cluster`` so the lookup method can be bound to a
    # local once instead of resolved per cluster per instruction.
    issue_slots: Dict[int, int] = {}
    bus_slots: Dict[int, int] = {}
    islots_get = issue_slots.get
    bslots_get = bus_slots.get
    rob: List[int] = [0] * window_size  # retire cycle of instruction i - window_size
    rob_idx = 0

    issued_per_cluster = [0] * n_clusters
    # Hop distances are bounded by n_clusters: count into a flat list.
    hop_counts = [0] * (n_clusters + 1)

    steer_plugin = None
    if plugin is not None:
        steer_plugin = plugin.make_generic(SteeringContext(
            n_clusters=n_clusters,
            is_ring=is_ring,
            window_size=window_size,
            fetch_width=fetch_width,
            cluster_col=cluster_col,
            complete_col=complete_col,
            retire_col=retire_col,
        ))

    nc = n_clusters
    # Power-of-two cluster counts take the &-mask fast path for ring modulo
    # (Python's & yields the positive residue even for negative operands).
    mask = nc - 1
    pow2 = nc & mask == 0
    bw1 = bus_bw == 1
    hl1 = hop_lat == 1
    fetch_cycle = 0
    fetched_this_cycle = 0
    redirect = 0
    last_retire = 0
    rr_counter = 0
    mispredicts = 0
    l1_misses = 0
    l2_misses = 0
    communications = 0

    i = -1
    for k, s1, s2, f in zip(opclass, src1, src2, flags):
        i += 1

        # ---- fetch -------------------------------------------------------
        if fetched_this_cycle >= fetch_width:
            fetch_cycle += 1
            fetched_this_cycle = 0
        if redirect > fetch_cycle:
            fetch_cycle = redirect
            fetched_this_cycle = 0
        if i >= window_size:
            slot_free = rob[rob_idx]
            if slot_free > fetch_cycle:
                fetch_cycle = slot_free
                fetched_this_cycle = 0
        fetched_this_cycle += 1
        ready = fetch_cycle + frontend_depth

        # ---- steering ----------------------------------------------------
        if steer_dep:
            if s1 >= 0:
                if s2 >= 0 and complete_col[s2] > complete_col[s1]:
                    base = cluster_col[s2]
                else:
                    base = cluster_col[s1]
                if is_ring:
                    cluster = (base + 1) & mask if pow2 else (base + 1) % nc
                else:
                    cluster = base
            elif s2 >= 0:
                base = cluster_col[s2]
                if is_ring:
                    cluster = (base + 1) & mask if pow2 else (base + 1) % nc
                else:
                    cluster = base
            else:
                cluster = rr_counter % nc
                rr_counter += 1
        elif steer_mod:
            cluster = (i // fetch_width) % nc
        elif steer_rr:
            cluster = i % nc
        else:
            cluster = steer_plugin(i, s1, s2, fetch_cycle)
            if not 0 <= cluster < nc:
                raise SteeringError(
                    f"steering policy {cfg.steering!r} returned cluster "
                    f"{cluster!r} for instruction {i} "
                    f"(valid: 0..{nc - 1})"
                )
        cluster_col[i] = cluster

        # ---- operand availability (unrolled over the two sources) -------
        if s1 >= 0:
            pc = cluster_col[s1]
            if is_ring:
                hops = ((cluster - pc - 1) & mask if pow2
                        else (cluster - pc - 1) % nc) + 1
                hop_counts[hops] += 1
                avail = grant_col[s1] + (hops if hl1 else hops * hop_lat)
            elif cluster == pc:
                avail = complete_col[s1]  # intra-cluster bypass
            else:
                g = grant_col[s1]
                if g < 0:
                    g = complete_col[s1] + wb_lat
                    key = g * nc + pc
                    if bw1:
                        while key in bus_slots:
                            g += 1
                            key += nc
                        bus_slots[key] = 1
                    else:
                        while bslots_get(key, 0) >= bus_bw:
                            g += 1
                            key += nc
                        bus_slots[key] = bslots_get(key, 0) + 1
                    g += wb_lat
                    grant_col[s1] = g
                    communications += 1
                d = cluster - pc
                if d < 0:
                    d = -d
                if nc - d < d:
                    d = nc - d
                hop_counts[d] += 1
                avail = g + (d if hl1 else d * hop_lat)
            if avail > ready:
                ready = avail
        if s2 >= 0:
            pc = cluster_col[s2]
            if is_ring:
                hops = ((cluster - pc - 1) & mask if pow2
                        else (cluster - pc - 1) % nc) + 1
                hop_counts[hops] += 1
                avail = grant_col[s2] + (hops if hl1 else hops * hop_lat)
            elif cluster == pc:
                avail = complete_col[s2]  # intra-cluster bypass
            else:
                g = grant_col[s2]
                if g < 0:
                    g = complete_col[s2] + wb_lat
                    key = g * nc + pc
                    if bw1:
                        while key in bus_slots:
                            g += 1
                            key += nc
                        bus_slots[key] = 1
                    else:
                        while bslots_get(key, 0) >= bus_bw:
                            g += 1
                            key += nc
                        bus_slots[key] = bslots_get(key, 0) + 1
                    g += wb_lat
                    grant_col[s2] = g
                    communications += 1
                d = cluster - pc
                if d < 0:
                    d = -d
                if nc - d < d:
                    d = nc - d
                hop_counts[d] += 1
                avail = g + (d if hl1 else d * hop_lat)
            if avail > ready:
                ready = avail

        # ---- issue (NOPs occupy no slot or unit) ------------------------
        if k != _NOP:
            units = fu_free[cluster * _N_FU + fu_for[k]]
            unit_idx = 0
            unit_free = units[0]
            if len(units) > 1:
                for u in range(1, len(units)):
                    if units[u] < unit_free:
                        unit_free = units[u]
                        unit_idx = u
            issue = unit_free if unit_free > ready else ready
            key = issue * nc + cluster
            while islots_get(key, 0) >= issue_width:
                issue += 1
                key += nc
            issue_slots[key] = islots_get(key, 0) + 1
            units[unit_idx] = issue + occupancy[k]
            issued_per_cluster[cluster] += 1
        else:
            issue = ready

        # ---- execute -----------------------------------------------------
        lat = latency[k]
        if f:
            if f & FLAG_MISPREDICT:
                mispredicts += 1
            if f & FLAG_L1_MISS:
                l1_misses += 1
                if k == _LOAD or k == _FP_LOAD:  # only loads stall on a miss
                    lat += l1_miss_pen
                    if f & FLAG_L2_MISS:
                        lat += l2_miss_pen
                if f & FLAG_L2_MISS:
                    l2_misses += 1
        complete = issue + lat
        complete_col[i] = complete

        # ---- writeback / interconnect -----------------------------------
        if has_dst[k]:
            if is_ring:
                # Every result enters the unidirectional ring exactly once.
                g = complete
                key = g * nc + cluster
                if bw1:
                    while key in bus_slots:
                        g += 1
                        key += nc
                    bus_slots[key] = 1
                else:
                    while bslots_get(key, 0) >= bus_bw:
                        g += 1
                        key += nc
                    bus_slots[key] = bslots_get(key, 0) + 1
                grant_col[i] = g + wb_lat
                communications += 1
            # CONV grants lazily, on first remote consumer (see above).
        elif k == _BRANCH and f & FLAG_MISPREDICT:
            r = complete + mispredict_pen
            if r > redirect:
                redirect = r

        # ---- in-order retire --------------------------------------------
        if complete > last_retire:
            last_retire = complete
        rob[rob_idx] = last_retire
        rob_idx += 1
        if rob_idx == window_size:
            rob_idx = 0
        if track_retire:
            retire_col[i] = last_retire

        # ---- energy (per-event counters; see repro.energy) --------------
        if track_energy:
            operand_reads += (s1 >= 0) + (s2 >= 0)
            # Occupancy at this instruction's fetch: instructions fetched
            # but not retired by fetch_cycle, itself included.  retire_col
            # is monotone (a running max), so the pointer never backs up.
            while retire_ptr < i and retire_col[retire_ptr] <= fetch_cycle:
                retire_ptr += 1
            wakeup_units += i - retire_ptr + 1

    energy = None
    if track_energy:
        weighted_hops = 0
        for d in range(1, nc + 1):
            weighted_hops += d * hop_counts[d]
        energy = fold_breakdown(
            cfg.energy,
            n=n,
            class_counts=class_counts,
            operand_reads=operand_reads,
            weighted_hops=weighted_hops,
            l1_misses=l1_misses,
            l2_misses=l2_misses,
            wakeup_units=wakeup_units,
        )
    hop_histogram = {d: c for d, c in enumerate(hop_counts) if c}
    return KernelResult(
        n_instructions=n,
        cycles=last_retire + 1 if n else 0,
        mispredicts=mispredicts,
        l1_misses=l1_misses,
        l2_misses=l2_misses,
        communications=communications,
        hop_histogram=hop_histogram,
        issued_per_cluster=issued_per_cluster,
        class_counts=class_counts,
        energy=energy,
    )


__all__ = [
    "ENGINE_VERSION",
    "KernelResult",
    "STAGES",
    "build_tables",
    "check_fu_coverage",
    "preflight_class_counts",
    "simulate",
]
