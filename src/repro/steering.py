"""Steering-policy plugin registry.

The paper's central knob is *how instructions are steered to clusters*: its
evaluation compares steering heuristics across the ring and conventional
interconnects.  This module makes that knob extensible — steering policies
are objects registered in :data:`STEERING_REGISTRY` (the same API shape as
the workload ``MIX_REGISTRY``), and every dispatch site consults the
registry instead of a frozen tuple:

* the **generic kernel** (:func:`repro.engine.kernel.simulate`) asks a
  plugin policy for a per-run steering closure via
  :meth:`SteeringPolicy.make_generic`;
* the **naive oracle** (``bench/naive_ref.py``) does the same through
  :meth:`SteeringPolicy.make_naive` over its object-per-instruction state;
* the **batch kernel** (:func:`repro.engine.batch.simulate_batch`) asks for
  a lane-vectorized closure via :meth:`SteeringPolicy.make_batch` — same
  per-instruction call shape, but every argument and the returned cluster
  are numpy arrays over the batch lanes;
* the **codegen specializer** (:mod:`repro.engine.codegen`) calls the
  policy's stage emitters (:meth:`SteeringPolicy.emit_setup`,
  :meth:`SteeringPolicy.emit_steering`, :meth:`SteeringPolicy.emit_retire`)
  to inline the policy branch-free into the emitted source;
* ``ProcessorConfig.steering`` validation and the sweep grid enumerate
  :func:`list_policies`.

The three policies of the original tuple — ``dependence``, ``modulo``,
``round_robin`` — are the built-in registrations (:data:`BUILTIN_POLICIES`).
The two interpreted kernels (the generic loop and the naive oracle) serve
those three names inline and never ask them for closures (the generic loop
is performance-gated against the oracle), so the built-ins implement only
the batch and codegen backends.  Their codegen emitters delegate to the
specializer's original stage emitters, so routing them through the
registry changes neither results nor a single byte of emitted source.

Two further policies ship registered through the plugin path only:

* ``load_balance`` — steer to the least-occupied cluster, tie-break by
  lowest cluster index;
* ``criticality`` — dependence steering (follow the critical producer),
  falling back to the least-occupied cluster when the preferred cluster
  has no free window slot.

**Occupancy model** (shared by both): the occupancy of cluster ``c`` at
instruction ``i`` is the number of earlier instructions steered to ``c``
that have not retired by ``i``'s fetch cycle — ``retire_cycle(j) >
fetch_cycle(i)``, where ``retire_cycle(j)`` is the running maximum of
completion cycles after ``j`` (the cycle ``j``'s reorder-window entry
frees).  Retirement is in order, so the retired set is always a
program-order prefix and occupancy is maintained with one monotone pointer
plus a per-cluster counter, O(1) amortized per instruction, identically in
all three kernels.  ``criticality`` considers the preferred cluster full
when its occupancy reaches its share of the reorder window,
``max(1, window_size // n_clusters)``.

Registering a policy makes it valid in ``ProcessorConfig``, steerable by
the generic/specialized/naive kernels, sweepable from the grid, and a
first-class row in the comm-by-steering and EPI report tables::

    from repro.steering import SteeringPolicy, register_policy

    class MyPolicy(SteeringPolicy):
        name = "my_policy"
        ...

    register_policy(MyPolicy())

Policy names identify semantics: the codegen specialization key folds in
the *name*, so re-registering a name with different behaviour must only be
done in a fresh process (mirror of the workload-mix contract).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

#: Names of the three original (tuple-era) policies.  The generic kernel and
#: the naive oracle serve these names inline; every other policy goes
#: through its :meth:`SteeringPolicy.make_generic`/``make_naive`` closures.
BUILTIN_POLICIES = ("dependence", "modulo", "round_robin")

#: Registry of steering policies, keyed by name.  ``ProcessorConfig``
#: validation, the sweep grid and all three kernels enumerate this via
#: :func:`list_policies`; new policies are added through
#: :func:`register_policy` without touching any dispatch site.
STEERING_REGISTRY: Dict[str, "SteeringPolicy"] = {}


def list_policies() -> Tuple[str, ...]:
    """Names of all registered steering policies, sorted."""
    return tuple(sorted(STEERING_REGISTRY))


# Everything ``repro.common.config`` pulls from this module is now defined:
# importing ``repro.steering`` first triggers ``repro.common`` package init
# below, which imports config, which imports back into this module while it
# is partially initialised — anything config needs must precede this line.
from repro.common.errors import ConfigurationError  # noqa: E402


@dataclass
class SteeringContext:
    """Per-run state the generic kernel exposes to a steering closure.

    ``cluster_col``/``complete_col`` are the kernel's live SoA columns:
    entries for instructions before the one being steered are final.
    ``retire_col`` is populated (per retired-by contract above) only when
    the policy sets :attr:`SteeringPolicy.needs_retire`.
    """

    n_clusters: int
    is_ring: bool
    window_size: int
    fetch_width: int
    cluster_col: List[int]
    complete_col: List[int]
    retire_col: List[int]


@dataclass
class NaiveSteeringContext:
    """Object-per-instruction twin of :class:`SteeringContext`.

    ``instructions`` is the naive pipeline's materialised instruction list
    (earlier entries carry final ``cluster``/``complete_cycle``);
    ``retire_cycles`` is appended to after each instruction retires and has
    exactly ``instr.index`` entries when ``instr`` is being steered.
    """

    n_clusters: int
    is_ring: bool
    window_size: int
    fetch_width: int
    instructions: List[object]
    retire_cycles: List[int]


@dataclass
class BatchSteeringContext:
    """Lane-vectorized twin of :class:`SteeringContext`.

    The batch kernel simulates ``n_lanes`` traces in lock-step over a shared
    instruction index; all columns are ``(N, n_lanes)`` numpy arrays whose
    rows for instructions before the one being steered are final.
    ``lane_index`` is ``arange(n_lanes)`` (for gather convenience);
    ``retire_col`` is populated only when the policy sets
    :attr:`SteeringPolicy.needs_retire` (or the energy model is active) and
    is a zero-row array otherwise.  ``j1f_col``/``j2f_col`` are the
    kernel's precomputed flat producer addresses ``max(src, 0) * n_lanes +
    lane`` per step — row ``i`` indexes the flat view of any ``(N,
    n_lanes)`` column at the step's (clipped) source-1/source-2 producers,
    so gather-heavy policies need not recompute them.
    ``present1_col``/``present2_col`` are the matching precomputed
    source-present bool columns (``src >= 0``), sparing policies the
    per-step comparisons.
    """

    n_clusters: int
    is_ring: bool
    window_size: int
    fetch_width: int
    n_lanes: int
    lane_index: "object"
    cluster_col: "object"
    complete_col: "object"
    retire_col: "object"
    j1f_col: "object" = None
    j2f_col: "object" = None
    present1_col: "object" = None
    present2_col: "object" = None


class SteeringPolicy:
    """One steering heuristic, pluggable into all three kernels.

    Subclasses set :attr:`name` and implement the three backends:

    * :meth:`make_generic` / :meth:`make_naive` return per-run closures
      ``steer(i, s1, s2, fetch_cycle) -> cluster`` and
      ``steer(instr, fetch_cycle) -> cluster`` respectively; a fresh
      closure is requested for every simulation, so per-run state lives in
      the closure, never on the policy object.  The built-ins
      (:data:`BUILTIN_POLICIES`) do not implement these two: the two
      interpreted kernels serve them inline.
    * :meth:`emit_steering` emits the policy's steering (and operands)
      stage into the specialized-kernel source; :meth:`emit_setup` /
      :meth:`emit_retire` contribute per-run state initialisation and the
      retire-stage bookkeeping.  Emitters receive the specializer's folded
      value dict ``v`` (see ``repro.engine.codegen._spec_values``) and must
      emit deterministic source — the specialization key contains the
      policy *name*, so the same name must always emit the same code.

    :attr:`needs_retire` asks the kernels to maintain the per-instruction
    retire-cycle column (monotone running max of completion) that the
    occupancy model reads; policies that do not track occupancy leave it
    ``False`` and the kernels skip that bookkeeping entirely.
    """

    name: str = ""
    needs_retire: bool = False

    # -- interpreted backends --------------------------------------------
    def make_generic(
        self, ctx: SteeringContext
    ) -> Callable[[int, int, int, int], int]:
        raise NotImplementedError

    def make_naive(
        self, ctx: NaiveSteeringContext
    ) -> Callable[[object, int], int]:
        raise NotImplementedError

    # -- batch backend -----------------------------------------------------
    def make_batch(
        self, ctx: BatchSteeringContext
    ) -> Callable[[int, object, object, object], object]:
        """Return a lane-vectorized ``steer(i, s1, s2, fetch_cycle)``.

        ``s1``/``s2``/``fetch_cycle`` are ``(n_lanes,)`` int arrays and the
        closure must return the chosen cluster per lane as an int array.
        The default raises: a policy without a vectorized backend runs
        under ``kernel_variant="generic"`` (per lane), but cannot batch.
        """
        raise ConfigurationError(
            f"steering policy {self.name!r} does not implement a "
            f"lane-vectorized backend (make_batch), so it cannot run "
            f"under the batch kernel; use kernel_variant='generic' (or "
            f"REPRO_KERNEL_VARIANT=generic), or implement make_batch"
        )

    # -- codegen backend --------------------------------------------------
    def emit_setup(self, e, v) -> None:
        """Emit per-run state initialisation lines (indent 1)."""

    def emit_steering(self, e, v, ind: int) -> None:
        """Emit the ``steering`` and ``operands`` stages of the loop body.

        Must mark both stages via ``e.stage(...)`` (a fused emitter marks
        them around its combined block) — the specializer asserts the
        emitted stage sequence matches ``kernel.STAGES``.

        The default raises: an interpreted-only policy (closures but no
        emitters) runs under ``kernel_variant="generic"`` and the naive
        oracle, but cannot be compiled.
        """
        raise ConfigurationError(
            f"steering policy {self.name!r} does not implement codegen "
            f"(emit_steering), so it cannot run under the specialized "
            f"kernel; use kernel_variant='generic' (or "
            f"REPRO_KERNEL_VARIANT=generic), or implement the policy's "
            f"stage emitters"
        )

    def emit_retire(self, e, v, ind: int) -> None:
        """Emit retire-stage bookkeeping (after the ROB update)."""

    def emit_epilogue(self, e, v) -> None:
        """Emit post-loop fold-up lines (indent 1), before the result."""


# ---------------------------------------------------------------------------
# Built-in policies (served inline by the two interpreted kernels, so they
# have no make_generic/make_naive; codegen delegates to the specializer's
# original emitters, byte for byte).
# ---------------------------------------------------------------------------


class DependencePolicy(SteeringPolicy):
    """Follow the critical producer (latest-completing source operand).

    Under ``RING`` the consumer is placed one cluster *ahead* of the
    producer — where the result arrives first; under ``CONV`` it shares the
    producer's cluster and takes the intra-cluster bypass.  Source-free
    instructions round-robin over the clusters.
    """

    name = "dependence"

    def make_batch(self, ctx):
        import numpy as np

        nc = ctx.n_clusters
        is_ring = ctx.is_ring
        nc_mask = nc - 1 if nc & (nc - 1) == 0 else 0
        # Flat views + take() gathers: measurably cheaper than 2-D
        # advanced indexing in the per-step hot path.
        cluster_flat = ctx.cluster_col.reshape(-1)
        complete_flat = ctx.complete_col.reshape(-1)
        j1f_col = ctx.j1f_col
        j2f_col = ctx.j2f_col
        present1_col = ctx.present1_col
        present2_col = ctx.present2_col
        rr = np.zeros(ctx.n_lanes, dtype=np.int64)

        def steer(i, s1, s2, fetch_cycle):
            j1f = j1f_col[i]
            j2f = j2f_col[i]
            p1 = present1_col[i]
            p2 = present2_col[i]
            # Lanes where a source is absent gather row 0 garbage, but the
            # masks below never select those values.  The critical source
            # is s2 iff s1 is absent or s2 completes strictly later.
            use2 = p2 & (
                ~p1 | (complete_flat.take(j2f) > complete_flat.take(j1f))
            )
            jcrit = j1f + (j2f - j1f) * use2
            has_src = p1 | p2
            base = cluster_flat.take(jcrit)
            if is_ring:
                steered = (base + 1) & nc_mask if nc_mask else (base + 1) % nc
            else:
                steered = base
            fill = rr & nc_mask if nc_mask else rr % nc
            cluster = np.where(has_src, steered, fill)
            np.add(rr, ~has_src, out=rr, casting="unsafe")
            return cluster

        return steer

    def emit_steering(self, e, v, ind):
        from repro.engine import codegen

        codegen._emit_dependence_fused(e, v, ind)

    def emit_epilogue(self, e, v):
        # The fused RING emitter tallies the critical source's (always-1)
        # hop distance in a plain int; fold it into the histogram here.
        if v["topology"] == "ring":
            e.emit("hop_counts[1] += h1", 1)


class _SplitSteeringPolicy(SteeringPolicy):
    """Shared codegen shape: a steering block, then the standard operands."""

    def emit_steering(self, e, v, ind):
        from repro.engine import codegen

        self._emit_cluster_choice(e, v, ind)
        e.stage("operands", ind)
        codegen._emit_operand(e, v, "s1", ind)
        codegen._emit_operand(e, v, "s2", ind)

    def _emit_cluster_choice(self, e, v, ind) -> None:
        raise NotImplementedError


class ModuloPolicy(_SplitSteeringPolicy):
    """Fetch-group modulo: group ``i // fetch_width`` maps round-robin."""

    name = "modulo"

    def make_batch(self, ctx):
        import numpy as np

        nc = ctx.n_clusters
        fw = ctx.fetch_width
        n_lanes = ctx.n_lanes

        def steer(i, s1, s2, fetch_cycle):
            return np.full(n_lanes, (i // fw) % nc, dtype=np.int64)

        return steer

    def _emit_cluster_choice(self, e, v, ind):
        from repro.engine import codegen

        codegen._emit_steering(e, v, ind)


class RoundRobinPolicy(_SplitSteeringPolicy):
    """Pure per-instruction round-robin."""

    name = "round_robin"

    def make_batch(self, ctx):
        import numpy as np

        nc = ctx.n_clusters
        n_lanes = ctx.n_lanes

        def steer(i, s1, s2, fetch_cycle):
            return np.full(n_lanes, i % nc, dtype=np.int64)

        return steer

    def _emit_cluster_choice(self, e, v, ind):
        from repro.engine import codegen

        codegen._emit_steering(e, v, ind)


# ---------------------------------------------------------------------------
# Occupancy-tracking policies (registered through the plugin path only).
# ---------------------------------------------------------------------------


def _emit_occupancy_state(e, v) -> None:
    """Per-run occupancy state; ``retire_col`` is shared with the energy
    model when both are active (the energy block allocates it first)."""
    if "energy" not in v:
        e.emit("retire_col = [0] * n", 1)
    e.emit(f"cluster_load = [0] * {v['n_clusters']}", 1)
    e.emit("sp = 0", 1)


def _emit_occupancy_advance(e, v, ind) -> None:
    """Retire the program-order prefix whose window entries have freed."""
    e.emit("while sp < i and retire_col[sp] <= fetch_cycle:", ind)
    e.emit("cluster_load[cluster_col[sp]] -= 1", ind + 1)
    e.emit("sp += 1", ind + 1)


def _emit_argmin_load(e, v, ind) -> None:
    """``cluster`` = least-occupied cluster, lowest index on ties."""
    nc = v["n_clusters"]
    e.emit("cluster = 0", ind)
    e.emit("best = cluster_load[0]", ind)
    e.emit(f"for cc in range(1, {nc}):", ind)
    e.emit("if cluster_load[cc] < best:", ind + 1)
    e.emit("best = cluster_load[cc]", ind + 2)
    e.emit("cluster = cc", ind + 2)


class _OccupancyPolicy(_SplitSteeringPolicy):
    """Shared machinery of the occupancy-tracking policies."""

    needs_retire = True

    def emit_setup(self, e, v):
        _emit_occupancy_state(e, v)

    def emit_retire(self, e, v, ind):
        # With the energy model on, its accounting block (emitted after the
        # retire stage) already records the retire cycle.
        if "energy" not in v:
            e.emit("retire_col[i] = last_retire", ind)

    @staticmethod
    def _make_tracker(nc, cluster_of, retire_col):
        """(advance, load) pair over ``retire_col``/``cluster_of``."""
        load = [0] * nc
        state = [0]

        def advance(upto, fetch_cycle):
            sp = state[0]
            while sp < upto and retire_col[sp] <= fetch_cycle:
                load[cluster_of(sp)] -= 1
                sp += 1
            state[0] = sp

        return advance, load

    @staticmethod
    def _argmin(load, nc):
        cluster = 0
        best = load[0]
        for c in range(1, nc):
            if load[c] < best:
                best = load[c]
                cluster = c
        return cluster

    @staticmethod
    def _make_batch_tracker(ctx):
        """(advance, load, load_flat, lane_off) over the batch lanes.

        ``load`` is ``(n_lanes, n_clusters)`` with ``load_flat`` its flat
        view and ``lane_off`` the per-lane flat row offsets; ``advance``
        moves every lane's retire pointer independently.  Each vectorized
        sweep advances each lane by at most one slot, so total work stays
        the amortized O(n) of the scalar tracker times the lane count.
        Lanes the mask rejects write their load counts back unchanged.
        """
        import numpy as np

        B = ctx.n_lanes
        lanes = ctx.lane_index
        cluster_flat = ctx.cluster_col.reshape(-1)
        retire_flat = ctx.retire_col.reshape(-1)
        load = np.zeros((B, ctx.n_clusters), dtype=np.int64)
        load_flat = load.reshape(-1)
        lane_off = lanes * ctx.n_clusters
        sp = np.zeros(B, dtype=np.int64)

        def advance(upto, fetch_cycle):
            while True:
                # sp <= upto <= N-1 during steering, so the gathers are
                # in-bounds even for lanes the mask rejects.
                spf = sp * B + lanes
                adv = (sp < upto) & (retire_flat.take(spf) <= fetch_cycle)
                if not adv.any():
                    break
                idx = lane_off + cluster_flat.take(spf)
                load_flat[idx] = load_flat.take(idx) - adv
                np.add(sp, adv, out=sp, casting="unsafe")

        return advance, load, load_flat, lane_off


class LoadBalancePolicy(_OccupancyPolicy):
    """Steer to the least-occupied cluster, tie-break by lowest index."""

    name = "load_balance"

    def make_generic(self, ctx):
        nc = ctx.n_clusters
        cluster_col = ctx.cluster_col
        advance, load = self._make_tracker(
            nc, cluster_col.__getitem__, ctx.retire_col
        )
        argmin = self._argmin

        def steer(i, s1, s2, fetch_cycle):
            advance(i, fetch_cycle)
            cluster = argmin(load, nc)
            load[cluster] += 1
            return cluster

        return steer

    def make_naive(self, ctx):
        nc = ctx.n_clusters
        instructions = ctx.instructions
        advance, load = self._make_tracker(
            nc, lambda j: instructions[j].cluster, ctx.retire_cycles
        )
        argmin = self._argmin

        def steer(instr, fetch_cycle):
            advance(instr.index, fetch_cycle)
            cluster = argmin(load, nc)
            load[cluster] += 1
            return cluster

        return steer

    def make_batch(self, ctx):
        import numpy as np

        advance, load, load_flat, lane_off = self._make_batch_tracker(ctx)

        def steer(i, s1, s2, fetch_cycle):
            advance(i, fetch_cycle)
            # np.argmin returns the first minimum — same lowest-index
            # tie-break as the scalar _argmin scan.
            cluster = np.argmin(load, axis=1)
            idx = lane_off + cluster
            load_flat[idx] = load_flat.take(idx) + 1
            return cluster

        return steer

    def _emit_cluster_choice(self, e, v, ind):
        e.stage("steering", ind)
        _emit_occupancy_advance(e, v, ind)
        _emit_argmin_load(e, v, ind)
        e.emit("cluster_load[cluster] += 1", ind)
        e.emit("cluster_col[i] = cluster", ind)


class CriticalityPolicy(_OccupancyPolicy):
    """Dependence steering with a load-aware fallback.

    Prefer the critical producer's target cluster (one ahead under RING,
    the producer's own under CONV — exactly as ``dependence``); when that
    cluster's occupancy has reached its reorder-window share
    (``max(1, window_size // n_clusters)``), or the instruction has no
    source operands, steer to the least-occupied cluster instead.
    """

    name = "criticality"

    @staticmethod
    def window_share(window_size: int, n_clusters: int) -> int:
        """Per-cluster window capacity used by the fallback test."""
        return max(1, window_size // n_clusters)

    def make_generic(self, ctx):
        nc = ctx.n_clusters
        is_ring = ctx.is_ring
        cap = self.window_share(ctx.window_size, nc)
        cluster_col = ctx.cluster_col
        complete_col = ctx.complete_col
        advance, load = self._make_tracker(
            nc, cluster_col.__getitem__, ctx.retire_col
        )
        argmin = self._argmin

        def steer(i, s1, s2, fetch_cycle):
            advance(i, fetch_cycle)
            if s1 >= 0:
                if s2 >= 0 and complete_col[s2] > complete_col[s1]:
                    base = cluster_col[s2]
                else:
                    base = cluster_col[s1]
            elif s2 >= 0:
                base = cluster_col[s2]
            else:
                base = -1
            if base >= 0:
                cluster = (base + 1) % nc if is_ring else base
                if load[cluster] >= cap:
                    cluster = argmin(load, nc)
            else:
                cluster = argmin(load, nc)
            load[cluster] += 1
            return cluster

        return steer

    def make_naive(self, ctx):
        nc = ctx.n_clusters
        is_ring = ctx.is_ring
        cap = self.window_share(ctx.window_size, nc)
        instructions = ctx.instructions
        advance, load = self._make_tracker(
            nc, lambda j: instructions[j].cluster, ctx.retire_cycles
        )
        argmin = self._argmin

        def steer(instr, fetch_cycle):
            advance(instr.index, fetch_cycle)
            critical = instr.src1
            if critical is not None:
                if (
                    instr.src2 is not None
                    and instr.src2.complete_cycle > instr.src1.complete_cycle
                ):
                    critical = instr.src2
            else:
                critical = instr.src2
            if critical is not None:
                base = critical.cluster
                cluster = (base + 1) % nc if is_ring else base
                if load[cluster] >= cap:
                    cluster = argmin(load, nc)
            else:
                cluster = argmin(load, nc)
            load[cluster] += 1
            return cluster

        return steer

    def make_batch(self, ctx):
        import numpy as np

        nc = ctx.n_clusters
        is_ring = ctx.is_ring
        cap = self.window_share(ctx.window_size, nc)
        cluster_flat = ctx.cluster_col.reshape(-1)
        complete_flat = ctx.complete_col.reshape(-1)
        j1f_col = ctx.j1f_col
        j2f_col = ctx.j2f_col
        advance, load, load_flat, lane_off = self._make_batch_tracker(ctx)

        def steer(i, s1, s2, fetch_cycle):
            advance(i, fetch_cycle)
            j1f = j1f_col[i]
            j2f = j2f_col[i]
            use2 = (s2 >= 0) & (
                (s1 < 0) | (complete_flat.take(j2f) > complete_flat.take(j1f))
            )
            jcrit = j1f + (j2f - j1f) * use2
            has_src = (s1 >= 0) | (s2 >= 0)
            base = cluster_flat.take(jcrit)
            preferred = (base + 1) % nc if is_ring else base
            fallback = np.argmin(load, axis=1)
            over_cap = load_flat.take(lane_off + preferred) >= cap
            cluster = np.where(has_src & ~over_cap, preferred, fallback)
            idx = lane_off + cluster
            load_flat[idx] = load_flat.take(idx) + 1
            return cluster

        return steer

    def _emit_cluster_choice(self, e, v, ind):
        from repro.engine.codegen import _ring_next

        nc = v["n_clusters"]
        pow2 = nc & (nc - 1) == 0
        ring = v["topology"] == "ring"
        cap = self.window_share(v["window_size"], nc)
        e.stage("steering", ind)
        _emit_occupancy_advance(e, v, ind)
        e.emit("if s1 >= 0:", ind)
        e.emit("if s2 >= 0 and complete_col[s2] > complete_col[s1]:", ind + 1)
        e.emit("base = cluster_col[s2]", ind + 2)
        e.emit("else:", ind + 1)
        e.emit("base = cluster_col[s1]", ind + 2)
        e.emit("elif s2 >= 0:", ind)
        e.emit("base = cluster_col[s2]", ind + 1)
        e.emit("else:", ind)
        e.emit("base = -1", ind + 1)
        e.emit("if base >= 0:", ind)
        if ring:
            e.emit(f"cluster = {_ring_next('base', nc, pow2)}", ind + 1)
        else:
            e.emit("cluster = base", ind + 1)
        e.emit(f"if cluster_load[cluster] >= {cap}:", ind + 1)
        _emit_argmin_load(e, v, ind + 2)
        e.emit("else:", ind)
        _emit_argmin_load(e, v, ind + 1)
        e.emit("cluster_load[cluster] += 1", ind)
        e.emit("cluster_col[i] = cluster", ind)


# ---------------------------------------------------------------------------
# Registry (API mirrors repro.workloads.MIX_REGISTRY; the registry dict and
# list_policies live at the top of the module, before the first
# repro.common import).
# ---------------------------------------------------------------------------


def get_policy(name: str) -> SteeringPolicy:
    """Look up a registered policy; unknown names list the valid ones."""
    try:
        return STEERING_REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown steering policy {name!r}; "
            f"available: {', '.join(list_policies())}"
        ) from None


def register_policy(
    policy: SteeringPolicy, overwrite: bool = False
) -> SteeringPolicy:
    """Add ``policy`` to the registry (e.g. from a plugin or a test).

    Registering a name that already exists raises
    :class:`~repro.common.errors.ConfigurationError` unless
    ``overwrite=True``, so two plugins cannot silently shadow each other.
    Returns ``policy`` so the call can be used as a one-liner.
    """
    if not isinstance(policy, SteeringPolicy):
        raise ConfigurationError(
            f"register_policy expects a SteeringPolicy, "
            f"got {type(policy).__name__}"
        )
    if not policy.name or not isinstance(policy.name, str):
        raise ConfigurationError(
            f"steering policy {policy!r} has no usable name "
            f"({policy.name!r})"
        )
    if not overwrite and policy.name in STEERING_REGISTRY:
        raise ConfigurationError(
            f"steering policy {policy.name!r} is already registered; "
            "pass overwrite=True to replace it"
        )
    STEERING_REGISTRY[policy.name] = policy
    return policy


for _policy in (
    DependencePolicy(),
    ModuloPolicy(),
    RoundRobinPolicy(),
    LoadBalancePolicy(),
    CriticalityPolicy(),
):
    register_policy(_policy)
del _policy


__all__ = [
    "BUILTIN_POLICIES",
    "BatchSteeringContext",
    "CriticalityPolicy",
    "DependencePolicy",
    "LoadBalancePolicy",
    "ModuloPolicy",
    "NaiveSteeringContext",
    "RoundRobinPolicy",
    "STEERING_REGISTRY",
    "SteeringContext",
    "SteeringPolicy",
    "get_policy",
    "list_policies",
    "register_policy",
]
