"""Deterministic fault injection for sweep execution and peer RPCs.

The fault-tolerant runner in :mod:`repro.sweep.runner` promises that the
result store ends up byte-identical to a fault-free run no matter which
workers crash, hang, or raise along the way, and the fabric promises the
same across hosts whatever the network does.  Those promises are only
worth anything if they are *tested* against real failure modes, so this
module gives tests and the CI chaos jobs one seeded :class:`FaultPlan`
type that serves two domains:

* ``point`` plans sabotage *point execution* (worker exceptions, hangs,
  hard deaths) through :func:`maybe_inject`, hooked inside
  :func:`repro.sweep.runner.execute_point`;
* ``net`` plans sabotage *peer RPCs* (connection refused, mid-body
  disconnects, stalled responses, corrupted result bytes, flapping peers)
  through :func:`net_fault`, hooked inside
  :class:`repro.service.client.ServiceClient`.

A plan decides, per ``(key, attempt)``, whether to inject and what: a
point key, or ``"{peer} {op}"`` for an RPC.  Decisions are pure functions
of the plan's ``seed`` and the key (sha256-derived, not Python's
randomized ``hash``), so the same plan injects the same faults in every
process, at every worker count, on every platform — the precondition for
asserting byte-identical stores under chaos.

A plan is activated either in-process via :func:`install_plan` (tests) or
through its domain's environment variable (:data:`ENV_VARS`) holding the
plan as JSON — the CI chaos jobs, and what carries a plan into pool
workers under both the ``fork`` and ``spawn`` start methods.  The JSON
shape is :meth:`FaultPlan.to_dict`'s; ``domain`` may be left out there.

Fatal point faults (``hang``, ``death``) only manifest literally inside
pool worker processes.  When the runner executes a point in the
orchestrating process — single-worker runs, small inline shards, or the
final graceful-degradation attempt — they are demoted to an
:class:`InjectedFault` exception: killing or stalling the orchestrator is
not a *worker* fault, and would take the flush frontier down with it.

Every injected fault consumes one attempt, so a plan whose ``max_faults``
is below the caller's retry budget is guaranteed to let every point (or
RPC) eventually succeed — which is how the chaos CI jobs can demand a
byte-identical final store.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError

#: Fault domains: point execution and peer RPCs.
POINT = "point"
NET = "net"

#: Environment variable per domain, read by :func:`active_plan`: a JSON
#: object with :meth:`FaultPlan.from_dict` keys.  Environment wiring is
#: what lets the CI chaos jobs arm ``python -m repro.sweep run`` and
#: ``python -m repro.fabric run`` without a dedicated CLI flag.
ENV_VARS = {POINT: "REPRO_FAULTS", NET: "REPRO_NET_FAULTS"}

#: Point actions.  ``ok`` is only meaningful inside scripted action lists
#: ("this attempt succeeds"), in either domain.
FAULT_EXCEPTION = "exception"
FAULT_HANG = "hang"
FAULT_DEATH = "death"
FAULT_OK = "ok"

#: Network actions.  ``refuse`` fails before anything is sent (connection
#: refused); ``disconnect`` kills the connection after the request went
#: out (mid-body reset — the caller cannot know whether the server acted);
#: ``stall`` blocks for ``sleep_s`` and then times out; ``corrupt``
#: delivers the response with truncated/flipped bytes (the receiver's
#: digest validation must catch it); ``flap`` is a peer that is down
#: across *every* sabotaged attempt of the operation, not just one —
#: transient retry cannot ride it out, only failover can.
NET_REFUSE = "refuse"
NET_DISCONNECT = "disconnect"
NET_STALL = "stall"
NET_CORRUPT = "corrupt"
NET_FLAP = "flap"

#: Per domain, the per-attempt actions in the threshold order a seeded
#: draw is mapped onto (the first action's band starts at 0).
_THRESHOLDS = {
    POINT: (FAULT_DEATH, FAULT_HANG, FAULT_EXCEPTION),
    NET: (NET_REFUSE, NET_DISCONNECT, NET_STALL, NET_CORRUPT),
}
#: Per domain, rate-bearing actions drawn once per key instead of per
#: attempt (excluded from the per-attempt sum).
_STICKY = {POINT: (), NET: (NET_FLAP,)}
#: Per domain, the prefix of the per-attempt draw key.
_DRAW_PREFIX = {POINT: "", NET: "net|"}
#: Per domain, the default ``sleep_s`` (a hang, a stall).
_DEFAULT_SLEEP_S = {POINT: 30.0, NET: 5.0}

#: Exit status used for injected hard worker death — distinctive enough to
#: recognise in CI logs and process tables.
DEATH_EXIT_CODE = 86


class InjectedFault(RuntimeError):
    """Raised by an injected ``exception`` fault (or a demoted fatal one).

    Deliberately *not* a :class:`~repro.common.errors.ReproError`: injected
    faults stand in for arbitrary defects in user code and plugins, which
    the retry layer must survive without special-casing the library's own
    exception hierarchy.
    """


class InjectedNetworkFault(ConnectionError):
    """Raised for injected ``refuse``/``flap``/``disconnect`` faults.

    A :class:`ConnectionError` (hence :class:`OSError`) subclass on
    purpose: the client's transient-retry layer must treat injected faults
    exactly like the real network errors they stand in for, without any
    knowledge of this module.
    """


class InjectedNetworkTimeout(TimeoutError):
    """Raised after an injected ``stall`` fault's sleep elapses.

    A :class:`TimeoutError` (hence :class:`OSError`) subclass, matching
    what a socket timeout raises on a genuinely stalled response.
    """


def _unit(seed: int, key: str, attempt: int) -> float:
    """Deterministic uniform draw in ``[0, 1)`` for one (key, attempt)."""
    digest = hashlib.sha256(f"{seed}:{key}:{attempt}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serializable schedule of faults for one domain.

    ``rates`` maps actions to per-attempt probabilities (their sum must not
    exceed 1); a ``net`` plan's ``flap`` rate is instead drawn once per
    ``(peer, op)`` and, when it fires, makes every capped attempt of that
    operation fail.  ``max_faults`` caps how many *attempts* of one key may
    be sabotaged: attempts beyond the cap always run clean, so a caller
    allowed ``max_faults + 1`` attempts is guaranteed to finish.
    ``sleep_s`` is how long a ``hang`` or ``stall`` lasts (default 30 s for
    points, 5 s for the network).  ``scripted`` pins exact per-attempt
    actions for chosen keys (tests targeting "kill attempt 1 of point X"),
    taking precedence over the seeded draw; attempts past the end of a
    script run clean.
    """

    domain: str = POINT
    seed: int = 0
    rates: Mapping[str, float] = field(default_factory=dict)
    max_faults: int = 2
    sleep_s: Optional[float] = None
    scripted: Mapping[str, Sequence[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.domain not in ENV_VARS:
            raise ConfigurationError(
                f"FaultPlan.domain must be one of {sorted(ENV_VARS)}, "
                f"got {self.domain!r}"
            )
        rated = _THRESHOLDS[self.domain] + _STICKY[self.domain]
        object.__setattr__(self, "rates", dict(self.rates))
        object.__setattr__(self, "scripted", {
            key: tuple(actions) for key, actions in dict(self.scripted).items()
        })
        if self.sleep_s is None:
            object.__setattr__(self, "sleep_s", _DEFAULT_SLEEP_S[self.domain])
        for action, rate in self.rates.items():
            if action not in rated:
                raise ConfigurationError(
                    f"FaultPlan.rates: unknown {self.domain} action "
                    f"{action!r}; valid: {list(rated)}"
                )
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"FaultPlan.rates[{action!r}] must be in [0, 1], "
                    f"got {rate!r}"
                )
        total = sum(self.rates.get(a, 0.0) for a in _THRESHOLDS[self.domain])
        if total > 1.0:
            raise ConfigurationError(
                "FaultPlan per-attempt rates must sum to at most 1, "
                f"got {total}"
            )
        if self.max_faults < 0:
            raise ConfigurationError(
                "FaultPlan.max_faults must be non-negative, "
                f"got {self.max_faults}"
            )
        if self.sleep_s < 0:
            raise ConfigurationError(
                f"FaultPlan.sleep_s must be non-negative, got {self.sleep_s}"
            )
        for key, actions in self.scripted.items():
            for action in actions:
                if action not in rated + (FAULT_OK,):
                    raise ConfigurationError(
                        f"FaultPlan.scripted[{key!r}]: unknown action "
                        f"{action!r}; valid: {list(rated + (FAULT_OK,))}"
                    )

    def decide(self, key: str, attempt: int) -> Optional[str]:
        """Action to inject for ``attempt`` (1-based) of ``key``, or ``None``
        for a clean attempt.  Pure and process-independent: the runner, the
        workers, the client, and the tests all see the same schedule."""
        if attempt < 1:
            raise ConfigurationError(
                f"FaultPlan.decide: attempt is 1-based, got {attempt}"
            )
        actions = self.scripted.get(key)
        if actions is not None:
            if attempt <= len(actions) and actions[attempt - 1] != FAULT_OK:
                return actions[attempt - 1]
            return None
        if attempt > self.max_faults:
            return None
        # A sticky action is a key-level condition: one draw decides it for
        # the key's whole sabotage window, so retrying the same RPC cannot
        # succeed until the cap lifts it — the caller must fail over.
        for action in _STICKY[self.domain]:
            rate = self.rates.get(action)
            if rate and _unit(self.seed, f"{action}|{key}", 0) < rate:
                return action
        draw = _unit(self.seed, _DRAW_PREFIX[self.domain] + key, attempt)
        edge = 0.0
        for action in _THRESHOLDS[self.domain]:
            edge += self.rates.get(action, 0.0)
            if draw < edge:
                return action
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "domain": self.domain,
            "seed": self.seed,
            "rates": dict(self.rates),
            "max_faults": self.max_faults,
            "sleep_s": self.sleep_s,
            "scripted": {key: list(a) for key, a in self.scripted.items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        allowed = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise ConfigurationError(
                f"FaultPlan.from_dict: unknown key(s) {unknown}; "
                f"valid keys: {sorted(allowed)}"
            )
        return cls(**dict(data))

    def to_env(self) -> str:
        """JSON form for the domain's environment variable."""
        return json.dumps(self.to_dict(), sort_keys=True)


# -- activation -----------------------------------------------------------
#: Plans installed in-process, by domain (they take precedence over the
#: environment).
_installed: Dict[str, FaultPlan] = {}
#: Memoized parse of each domain's env var: ``domain -> (raw, plan)``.
_env_cache: Dict[str, Tuple[str, FaultPlan]] = {}


def install_plan(plan: FaultPlan) -> None:
    """Activate ``plan`` for its domain in this process (and ``fork``
    children created afterwards).  Use :data:`ENV_VARS` instead to reach
    ``spawn`` workers."""
    if not isinstance(plan, FaultPlan):
        raise ConfigurationError(
            f"install_plan expects a FaultPlan, got {type(plan).__name__}"
        )
    _installed[plan.domain] = plan


def clear_plan() -> None:
    """Deactivate every in-process plan (the environment still applies)."""
    _installed.clear()


def active_plan(domain: str = POINT) -> Optional[FaultPlan]:
    """The ``domain`` plan in effect: installed one first, then its env var.

    A malformed environment value raises :class:`ConfigurationError` — a
    chaos harness that silently fails to arm would let a broken runner pass
    its determinism gate.
    """
    plan = _installed.get(domain)
    if plan is not None:
        return plan
    var = ENV_VARS[domain]
    raw = os.environ.get(var)
    if not raw:
        return None
    cached = _env_cache.get(domain)
    if cached is not None and cached[0] == raw:
        return cached[1]
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{var} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"{var} must be a JSON object, got {type(data).__name__}"
        )
    plan = FaultPlan.from_dict({"domain": domain, **data})
    if plan.domain != domain:
        raise ConfigurationError(f"{var} holds a {plan.domain!r} plan")
    _env_cache[domain] = (raw, plan)
    return plan


def maybe_inject(
    key: str, attempt: int, fatal_ok: Optional[bool] = None
) -> Optional[str]:
    """Point hook: act on the active plan's decision for this attempt.

    * ``exception`` — raise :class:`InjectedFault`.
    * ``hang`` — sleep ``sleep_s`` seconds, then *continue normally* (a hung
      worker that eventually wakes; the runner's per-point timeout decides
      whether anyone is still listening).
    * ``death`` — ``os._exit(DEATH_EXIT_CODE)``: no cleanup, no exception
      propagation, exactly like an OOM kill or segfault.

    ``fatal_ok`` gates the two fatal actions; by default they are allowed
    only when running inside a child process (``multiprocessing``'s
    ``parent_process`` is set).  In the orchestrating process both are
    demoted to :class:`InjectedFault` so the frontier survives to handle
    them.  Returns the action taken-and-survived (``"hang"`` after its
    sleep) or ``None`` for a clean attempt.
    """
    plan = active_plan(POINT)
    if plan is None:
        return None
    action = plan.decide(key, attempt)
    if action is None:
        return None
    if fatal_ok is None:
        fatal_ok = multiprocessing.parent_process() is not None
    if action == FAULT_DEATH:
        if fatal_ok:
            os._exit(DEATH_EXIT_CODE)
            return FAULT_DEATH  # only reachable with a stubbed os._exit
        raise InjectedFault(
            f"injected worker death (demoted to exception in-process) "
            f"for point {key} attempt {attempt}"
        )
    if action == FAULT_HANG:
        if fatal_ok:
            time.sleep(plan.sleep_s)
            return FAULT_HANG
        raise InjectedFault(
            f"injected hang (demoted to exception in-process) "
            f"for point {key} attempt {attempt}"
        )
    raise InjectedFault(
        f"injected exception for point {key} attempt {attempt}"
    )


def net_fault(peer: str, op: str, attempt: int, sent: bool = False) -> Optional[str]:
    """RPC hook: inject this attempt's network fault at one stage.

    Before the request goes out (``sent=False``), ``refuse`` and ``flap``
    raise :class:`InjectedNetworkFault` and ``stall`` sleeps the plan's
    ``sleep_s``, then raises :class:`InjectedNetworkTimeout`.  Once the
    response arrived (``sent=True``), ``disconnect`` raises
    :class:`InjectedNetworkFault` — the server may well have acted, which
    retrying must (and does) tolerate.  Returns ``corrupt`` when the caller
    must damage what it received (:func:`corrupt_bytes`: a corruption that
    never reaches the validator tests nothing), else ``None``.
    """
    plan = active_plan(NET)
    if plan is None:
        return None
    action = plan.decide(f"{peer} {op}", attempt)
    where = f"{op} at {peer} (attempt {attempt})"
    if not sent and action in (NET_REFUSE, NET_FLAP):
        raise InjectedNetworkFault(
            f"injected connection refused ({action}) for {where}"
        )
    if not sent and action == NET_STALL:
        time.sleep(plan.sleep_s)
        raise InjectedNetworkTimeout(f"injected stalled response for {where}")
    if sent and action == NET_DISCONNECT:
        raise InjectedNetworkFault(f"injected mid-body disconnect for {where}")
    return NET_CORRUPT if sent and action == NET_CORRUPT else None


def corrupt_bytes(payload: bytes) -> bytes:
    """Deterministically damage ``payload`` the way a torn transfer would.

    Truncates the tail (the classic mid-stream cut) and flips the high bit
    of a middle byte (line noise / bad proxy).  Both damages are chosen to
    be *detectable* — truncation breaks JSON framing, the flipped byte
    breaks UTF-8 or the canonical-bytes round-trip — because the point of
    injecting corruption is to prove the receiver's validation catches it.
    """
    if not payload:
        return payload
    cut = max(1, len(payload) - 3)
    damaged = bytearray(payload[:cut])
    damaged[len(damaged) // 2] ^= 0x80
    return bytes(damaged)


__all__ = [
    "DEATH_EXIT_CODE",
    "ENV_VARS",
    "FAULT_DEATH",
    "FAULT_EXCEPTION",
    "FAULT_HANG",
    "FAULT_OK",
    "FaultPlan",
    "InjectedFault",
    "InjectedNetworkFault",
    "InjectedNetworkTimeout",
    "NET",
    "NET_CORRUPT",
    "NET_DISCONNECT",
    "NET_FLAP",
    "NET_REFUSE",
    "NET_STALL",
    "POINT",
    "active_plan",
    "clear_plan",
    "corrupt_bytes",
    "install_plan",
    "maybe_inject",
    "net_fault",
]
