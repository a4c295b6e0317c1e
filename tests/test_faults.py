"""repro.faults: deterministic injection decisions, env wiring, demotion."""

import hashlib
import json

import pytest

from repro.common.errors import ConfigurationError
from repro.faults import (
    ENV_VARS,
    FAULT_DEATH,
    FAULT_EXCEPTION,
    FAULT_HANG,
    FAULT_OK,
    NET,
    NET_CORRUPT,
    NET_DISCONNECT,
    NET_FLAP,
    NET_REFUSE,
    NET_STALL,
    POINT,
    FaultPlan,
    InjectedFault,
    InjectedNetworkFault,
    InjectedNetworkTimeout,
    active_plan,
    clear_plan,
    corrupt_bytes,
    install_plan,
    maybe_inject,
    net_fault,
)

ENV_VAR = ENV_VARS[POINT]
NET_ENV_VAR = ENV_VARS[NET]

#: sha256 over the decisions of the fault plans on the fixed grid in
#: :func:`_schedule_lines`.  The value was computed with the two
#: pre-merge plan classes (per-domain fields ``*_rate``,
#: ``max_faults_per_point`` / ``max_faults_per_op``); the merged plan must
#: reproduce it exactly, so CI chaos runs inject the same faults as before.
SCHEDULE_DIGEST = (
    "fd31db5302c6cbb2a74cfffefe34c29cc91f2af5579387366215b9102bdc55ef"
)


@pytest.fixture(autouse=True)
def _no_leftover_plan(monkeypatch):
    for var in ENV_VARS.values():
        monkeypatch.delenv(var, raising=False)
    clear_plan()
    yield
    clear_plan()


def _schedule_lines():
    """One ``plan|seed|key|attempt|action`` line per decision on the grid:
    seeds {0, 2005} x 40 keys x attempts 1-4, for rate mixes that reach
    every action, scripted overrides, both caps, and ``flap``."""
    lines = []
    for seed in (0, 2005):
        point_plans = {
            "p-all": FaultPlan(
                seed=seed, max_faults=2,
                rates={FAULT_EXCEPTION: 0.3, FAULT_HANG: 0.2,
                       FAULT_DEATH: 0.1},
                scripted={"k3": [FAULT_DEATH, FAULT_OK, FAULT_HANG],
                          "k7": [FAULT_EXCEPTION]},
            ),
            "p-one": FaultPlan(seed=seed, max_faults=3,
                               rates={FAULT_EXCEPTION: 0.5}),
        }
        for name, plan in point_plans.items():
            for i in range(40):
                for attempt in (1, 2, 3, 4):
                    lines.append(f"{name}|{seed}|k{i}|{attempt}|"
                                 f"{plan.decide(f'k{i}', attempt)}")
        net_plans = {
            "n-all": FaultPlan(
                domain=NET, seed=seed, max_faults=3,
                rates={NET_REFUSE: 0.2, NET_DISCONNECT: 0.15,
                       NET_STALL: 0.1, NET_CORRUPT: 0.15, NET_FLAP: 0.2},
                scripted={"p2 GET /r5": [FAULT_OK, NET_STALL, NET_CORRUPT]},
            ),
            "n-one": FaultPlan(domain=NET, seed=seed, max_faults=1,
                               rates={NET_REFUSE: 0.3, NET_CORRUPT: 0.3}),
        }
        for name, plan in net_plans.items():
            for i in range(40):
                key = f"p{i % 3} GET /r{i}"
                for attempt in (1, 2, 3, 4):
                    lines.append(f"{name}|{seed}|{key}|{attempt}|"
                                 f"{plan.decide(key, attempt)}")
    return lines


def test_schedule_matches_the_pinned_digest():
    lines = _schedule_lines()
    actions = {line.rsplit("|", 1)[1] for line in lines}
    assert actions == {"None", FAULT_EXCEPTION, FAULT_HANG, FAULT_DEATH,
                       NET_REFUSE, NET_DISCONNECT, NET_STALL, NET_CORRUPT,
                       NET_FLAP}
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SCHEDULE_DIGEST


class _DecideCases:
    """Decision properties shared by both domains (``domain``, ``key``)."""

    domain = POINT

    def key(self, i):
        return f"key{i}"

    def test_no_rates_means_no_faults(self):
        plan = FaultPlan(domain=self.domain, seed=1)
        assert all(
            plan.decide(self.key(i), attempt) is None
            for i in range(50) for attempt in (1, 2)
        )

    def test_attempt_is_one_based(self):
        with pytest.raises(ConfigurationError, match="1-based"):
            FaultPlan(domain=self.domain).decide(self.key(0), 0)


class TestDecide(_DecideCases):
    def test_deterministic_across_instances(self):
        rates = {FAULT_EXCEPTION: 0.3, FAULT_HANG: 0.2, FAULT_DEATH: 0.1}
        a = FaultPlan(seed=7, rates=rates)
        b = FaultPlan(seed=7, rates=dict(rates))
        decisions = [a.decide(f"k{i}", t) for i in range(200) for t in (1, 2)]
        assert decisions == [
            b.decide(f"k{i}", t) for i in range(200) for t in (1, 2)
        ]
        # With these rates a 400-draw sample must exercise every action.
        assert FAULT_EXCEPTION in decisions
        assert FAULT_HANG in decisions
        assert FAULT_DEATH in decisions
        assert None in decisions

    def test_seed_changes_schedule(self):
        a = FaultPlan(seed=1, rates={FAULT_EXCEPTION: 0.5})
        b = FaultPlan(seed=2, rates={FAULT_EXCEPTION: 0.5})
        decisions_a = [a.decide(f"k{i}", 1) for i in range(100)]
        decisions_b = [b.decide(f"k{i}", 1) for i in range(100)]
        assert decisions_a != decisions_b

    def test_max_faults_per_point_guarantees_eventual_success(self):
        plan = FaultPlan(seed=3, rates={FAULT_EXCEPTION: 1.0}, max_faults=2)
        assert plan.decide("k", 1) == FAULT_EXCEPTION
        assert plan.decide("k", 2) == FAULT_EXCEPTION
        assert plan.decide("k", 3) is None
        assert plan.decide("k", 99) is None

    def test_scripted_overrides_rates(self):
        plan = FaultPlan(
            seed=0,
            rates={FAULT_EXCEPTION: 1.0},
            scripted={"target": [FAULT_DEATH, FAULT_OK, FAULT_HANG]},
        )
        assert plan.decide("target", 1) == FAULT_DEATH
        assert plan.decide("target", 2) is None
        assert plan.decide("target", 3) == FAULT_HANG
        assert plan.decide("target", 4) is None  # past the script: clean
        assert plan.decide("other", 1) == FAULT_EXCEPTION


class TestValidation:
    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError, match="exception"):
            FaultPlan(rates={FAULT_EXCEPTION: 1.5})
        with pytest.raises(ConfigurationError, match="death"):
            FaultPlan(rates={FAULT_DEATH: -0.1})

    def test_rates_must_sum_to_at_most_one(self):
        with pytest.raises(ConfigurationError, match="sum"):
            FaultPlan(rates={FAULT_EXCEPTION: 0.5, FAULT_HANG: 0.4,
                             FAULT_DEATH: 0.2})

    def test_bad_scripted_action_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown action"):
            FaultPlan(scripted={"k": ["explode"]})
        # Actions are per domain: a network action is no point fault.
        with pytest.raises(ConfigurationError, match="unknown action"):
            FaultPlan(scripted={"k": [NET_REFUSE]})
        with pytest.raises(ConfigurationError, match="unknown point action"):
            FaultPlan(rates={NET_FLAP: 0.5})

    def test_negative_knobs_rejected(self):
        with pytest.raises(ConfigurationError, match="max_faults"):
            FaultPlan(max_faults=-1)
        with pytest.raises(ConfigurationError, match="sleep_s"):
            FaultPlan(sleep_s=-1.0)
        with pytest.raises(ConfigurationError, match="domain"):
            FaultPlan(domain="disk")


class TestSerialization:
    def test_round_trip(self):
        plan = FaultPlan(
            seed=11, max_faults=3, sleep_s=4.5,
            rates={FAULT_EXCEPTION: 0.25, FAULT_HANG: 0.1, FAULT_DEATH: 0.05},
            scripted={"k1": [FAULT_DEATH, FAULT_OK]},
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        assert FaultPlan.from_dict(json.loads(plan.to_env())) == plan

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            FaultPlan.from_dict({"seed": 1, "lightning_rate": 0.5})


class TestActivation:
    def test_inactive_by_default(self):
        assert active_plan() is None
        assert maybe_inject("any-key", 1) is None

    def test_install_and_clear(self):
        plan = FaultPlan(seed=5, rates={FAULT_EXCEPTION: 1.0})
        install_plan(plan)
        assert active_plan() is plan
        assert active_plan(NET) is None  # domains are independent
        clear_plan()
        assert active_plan() is None

    def test_install_rejects_non_plan(self):
        with pytest.raises(ConfigurationError, match="FaultPlan"):
            install_plan({"seed": 1})

    def test_env_var_activates(self, monkeypatch):
        plan = FaultPlan(seed=9, rates={FAULT_EXCEPTION: 1.0})
        monkeypatch.setenv(ENV_VAR, plan.to_env())
        assert active_plan() == plan
        # The parse is memoized per raw value but tracks changes.
        other = FaultPlan(seed=10, rates={FAULT_EXCEPTION: 1.0})
        monkeypatch.setenv(ENV_VAR, other.to_env())
        assert active_plan() == other
        # The domain key is optional: the variable implies it.
        monkeypatch.setenv(ENV_VAR, '{"seed": 12, "rates": {"hang": 0.5}}')
        assert active_plan() == FaultPlan(seed=12, rates={FAULT_HANG: 0.5})

    def test_installed_plan_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, FaultPlan(seed=1).to_env())
        installed = FaultPlan(seed=2)
        install_plan(installed)
        assert active_plan() is installed

    def test_malformed_env_raises_loudly(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            active_plan()
        monkeypatch.setenv(ENV_VAR, "[1, 2]")
        with pytest.raises(ConfigurationError, match="JSON object"):
            active_plan()
        monkeypatch.setenv(ENV_VAR, FaultPlan(domain=NET).to_env())
        with pytest.raises(ConfigurationError, match="holds a 'net' plan"):
            active_plan()


class TestMaybeInject:
    def test_exception_action_raises(self):
        install_plan(FaultPlan(scripted={"k": [FAULT_EXCEPTION]}))
        with pytest.raises(InjectedFault, match="injected exception"):
            maybe_inject("k", 1)
        assert maybe_inject("k", 2) is None

    def test_fatal_actions_demoted_in_process(self):
        # This test process is an orchestrator, not a pool worker: death
        # and hang must arrive as exceptions, not kill or stall pytest.
        install_plan(
            FaultPlan(sleep_s=60.0, scripted={"k": [FAULT_DEATH, FAULT_HANG]})
        )
        with pytest.raises(InjectedFault, match="injected worker death"):
            maybe_inject("k", 1, fatal_ok=False)
        with pytest.raises(InjectedFault, match="injected hang"):
            maybe_inject("k", 2, fatal_ok=False)

    def test_default_fatal_gate_is_parent_process(self):
        # In the main process multiprocessing.parent_process() is None, so
        # the default gate demotes fatal faults exactly like fatal_ok=False.
        install_plan(FaultPlan(scripted={"k": [FAULT_DEATH]}))
        with pytest.raises(InjectedFault, match="demoted"):
            maybe_inject("k", 1)

    def test_hang_sleeps_then_continues_when_fatal_ok(self, monkeypatch):
        import repro.faults as faults_mod

        naps = []
        monkeypatch.setattr(faults_mod.time, "sleep", naps.append)
        install_plan(FaultPlan(sleep_s=7.5, scripted={"k": [FAULT_HANG]}))
        assert maybe_inject("k", 1, fatal_ok=True) == FAULT_HANG
        assert naps == [7.5]

    def test_death_exits_hard_when_fatal_ok(self, monkeypatch):
        import repro.faults as faults_mod

        exits = []
        monkeypatch.setattr(faults_mod.os, "_exit", exits.append)
        install_plan(FaultPlan(scripted={"k": [FAULT_DEATH]}))
        maybe_inject("k", 1, fatal_ok=True)
        assert exits == [faults_mod.DEATH_EXIT_CODE]


# -- network domain ---------------------------------------------------------

class TestNetworkDecide(_DecideCases):
    domain = NET

    def key(self, i):
        return f"p GET /x{i}"

    def test_deterministic_across_instances(self):
        rates = {NET_REFUSE: 0.3, NET_DISCONNECT: 0.2, NET_CORRUPT: 0.2}
        a = FaultPlan(domain=NET, seed=9, rates=rates)
        b = FaultPlan(domain=NET, seed=9, rates=dict(rates))
        ops = [("peer%d GET /r%d" % (i % 3, i), 1 + i % 3)
               for i in range(60)]
        assert [a.decide(*op) for op in ops] == [b.decide(*op) for op in ops]

    def test_seed_changes_decisions(self):
        rates = {NET_REFUSE: 0.4, NET_DISCONNECT: 0.3, NET_CORRUPT: 0.3}
        a = FaultPlan(domain=NET, seed=1, rates=rates)
        b = FaultPlan(domain=NET, seed=2, rates=rates)
        ops = [(f"p GET /r{i}", 1) for i in range(80)]
        assert [a.decide(*op) for op in ops] != [b.decide(*op) for op in ops]

    def test_attempts_beyond_cap_run_clean(self):
        plan = FaultPlan(domain=NET, seed=3, rates={NET_REFUSE: 1.0},
                         max_faults=2)
        assert plan.decide("p GET /r", 1) == NET_REFUSE
        assert plan.decide("p GET /r", 2) == NET_REFUSE
        assert plan.decide("p GET /r", 3) is None

    def test_flap_is_sticky_per_operation(self):
        plan = FaultPlan(domain=NET, seed=5, rates={NET_FLAP: 1.0},
                         max_faults=3)
        # Every capped attempt of the op sees the peer down.
        assert [plan.decide("p GET /r", a) for a in (1, 2, 3)] == \
            [NET_FLAP] * 3
        assert plan.decide("p GET /r", 4) is None

    def test_scripted_actions_take_precedence(self):
        plan = FaultPlan(
            domain=NET, seed=1, rates={NET_REFUSE: 1.0},
            scripted={"p GET /r": (FAULT_OK, NET_STALL)},
        )
        assert plan.decide("p GET /r", 1) is None        # scripted ok
        assert plan.decide("p GET /r", 2) == NET_STALL
        assert plan.decide("p GET /r", 3) is None        # past the script
        assert plan.decide("p GET /other", 1) == NET_REFUSE  # unscripted

    def test_rates_must_sum_to_at_most_one(self):
        with pytest.raises(ConfigurationError, match="sum to at most 1"):
            FaultPlan(domain=NET,
                      rates={NET_REFUSE: 0.6, NET_DISCONNECT: 0.6})
        # flap is drawn per operation, outside the per-attempt sum.
        FaultPlan(domain=NET, rates={NET_REFUSE: 0.6, NET_FLAP: 0.6})

    def test_bad_scripted_action_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown action"):
            FaultPlan(domain=NET, scripted={"p GET /r": ("explode",)})


class TestNetworkPlanWiring:
    def test_roundtrip_through_dict_and_env(self, monkeypatch):
        plan = FaultPlan(domain=NET, seed=4,
                         rates={NET_REFUSE: 0.2, NET_STALL: 0.1},
                         scripted={"p GET /r": (NET_REFUSE,)})
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        assert plan.sleep_s == 5.0  # the network domain's default stall
        monkeypatch.setenv(NET_ENV_VAR, plan.to_env())
        assert active_plan(NET) == plan

    def test_installed_plan_beats_env(self, monkeypatch):
        monkeypatch.setenv(NET_ENV_VAR, FaultPlan(domain=NET, seed=1).to_env())
        install_plan(FaultPlan(domain=NET, seed=2, rates={NET_REFUSE: 1.0},
                               max_faults=1))
        with pytest.raises(InjectedNetworkFault, match="refused"):
            net_fault("p", "GET /r", 1)

    def test_no_plan_means_no_action(self):
        assert net_fault("p", "GET /r", 1) is None
        assert net_fault("p", "GET /r", 1, sent=True) is None

    def test_malformed_env_raises(self, monkeypatch):
        monkeypatch.setenv(NET_ENV_VAR, "{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            active_plan(NET)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            FaultPlan.from_dict({"domain": NET, "nope": 1})


class TestNetworkInjection:
    def test_refuse_and_flap_raise_connection_error(self):
        for action in (NET_REFUSE, NET_FLAP):
            install_plan(FaultPlan(domain=NET,
                                   scripted={"p GET /r": (action,)}))
            with pytest.raises(InjectedNetworkFault):
                net_fault("p", "GET /r", 1)
        # ...and they are OSErrors, so the client's generic transient
        # retry handles them with no knowledge of the faults module.
        assert issubclass(InjectedNetworkFault, OSError)
        assert issubclass(InjectedNetworkTimeout, OSError)

    def test_stall_sleeps_then_times_out(self):
        install_plan(FaultPlan(domain=NET, rates={NET_STALL: 1.0},
                               sleep_s=0.0))
        with pytest.raises(InjectedNetworkTimeout):
            net_fault("p", "GET /r", 1)

    def test_corrupt_is_not_raised(self):
        # Post-flight actions strike only after the request went out:
        # disconnect raises then, corrupt is handed back to the caller.
        install_plan(FaultPlan(domain=NET, scripted={
            "p GET /r": (NET_CORRUPT,), "p GET /d": (NET_DISCONNECT,),
        }))
        assert net_fault("p", "GET /r", 1) is None
        assert net_fault("p", "GET /r", 1, sent=True) == NET_CORRUPT
        assert net_fault("p", "GET /d", 1) is None
        with pytest.raises(InjectedNetworkFault, match="mid-body"):
            net_fault("p", "GET /d", 1, sent=True)


class TestCorruptBytes:
    def test_damage_is_deterministic_and_detectable(self):
        payload = b'{"key":"abcdef","result":{"cycles":12}}\n'
        damaged = corrupt_bytes(payload)
        assert damaged == corrupt_bytes(payload)
        assert damaged != payload
        # Truncation strips the framing newline: the validator's first
        # check catches it.
        assert not damaged.endswith(b"\n")

    def test_empty_payload_passthrough(self):
        assert corrupt_bytes(b"") == b""
