"""Chaos matrix for the distributed sweep fabric.

Every test here asserts the tentpole property end to end: whatever the
cluster shape (1/2/3 peers plus the local pool), whatever the seeded
network fault storm, and whoever dies mid-run, the merged store is
**byte-identical** to the fault-free single-host store — and nothing
(worker processes, threads) leaks.

Peers are real :class:`~repro.service.server.ServiceThread` instances on
ephemeral ports with ``sweep_workers=1`` (tiny shards run inline, so a
hard kill cannot orphan pool workers).  Network faults come from a seeded
``net`` :class:`~repro.faults.FaultPlan` installed process-wide, which the
``ServiceClient`` inside each :class:`~repro.fabric.backends.PeerBackend`
consults on every RPC.
"""

import multiprocessing
import threading
import time

import pytest

from repro.fabric import FabricCoordinator, LocalBackend, PeerBackend
from repro.faults import ENV_VARS, NET, FaultPlan, clear_plan, install_plan
from repro.service.server import ServiceThread
from repro.sweep.grid import SweepSpec
from repro.sweep.runner import run_sweep
from repro.sweep.store import ResultStore


@pytest.fixture(autouse=True)
def _clean_net_plan(monkeypatch):
    monkeypatch.delenv(ENV_VARS[NET], raising=False)
    clear_plan()
    yield
    clear_plan()


def chaos_spec(name="fab-chaos"):
    # 6 points, ~milliseconds each: big enough for several shards, small
    # enough that the whole matrix stays CI-friendly.
    return SweepSpec(
        name=name,
        topologies=("ring", "conv"),
        cluster_counts=(2,),
        steerings=("dependence",),
        mixes=("int_heavy",),
        n_instructions=300,
        seeds=(1, 2, 3),
    )


def reference_bytes(spec, tmp_path):
    """The fault-free single-host store — the byte-identity oracle."""
    path = tmp_path / "reference.jsonl"
    run_sweep(spec.expand(), ResultStore(str(path)), workers=1)
    return path.read_bytes()


def start_peers(tmp_path, count):
    peers = []
    for ordinal in range(count):
        store = tmp_path / f"peer-{ordinal}" / "store.jsonl"
        store.parent.mkdir(parents=True)
        peers.append(ServiceThread(str(store), sweep_workers=1).start())
    return peers


def stop_peers(peers):
    for peer in peers:
        try:
            peer.stop(drain=False)
        except RuntimeError:
            pass


def peer_backend(peer, **kwargs):
    kwargs.setdefault("retries", 3)
    kwargs.setdefault("backoff_s", 0.01)
    kwargs.setdefault("timeout", 30.0)
    return PeerBackend(peer.host, peer.port, **kwargs)


def assert_no_leaks(threads_before):
    assert multiprocessing.active_children() == []
    deadline = time.monotonic() + 5.0
    while threading.active_count() > threads_before and \
            time.monotonic() < deadline:
        time.sleep(0.02)
    assert threading.active_count() <= threads_before


# -- the seeded chaos matrix -------------------------------------------------

STORMS = [
    pytest.param(
        1,
        dict(seed=7, rates={"refuse": 0.2, "disconnect": 0.1}),
        id="1peer-refuse-disconnect",
    ),
    pytest.param(
        2,
        dict(seed=11, rates={"refuse": 0.15, "disconnect": 0.1,
                            "corrupt": 0.1}),
        id="2peers-refuse-disconnect-corrupt",
    ),
    pytest.param(
        3,
        dict(seed=23, rates={"refuse": 0.1, "disconnect": 0.1,
                            "corrupt": 0.15, "flap": 0.2}),
        id="3peers-full-storm",
    ),
]


class TestChaosMatrix:
    @pytest.mark.parametrize("n_peers,storm", STORMS)
    def test_merged_store_is_byte_identical(self, tmp_path, n_peers, storm):
        spec = chaos_spec(f"fab-chaos-{n_peers}")
        reference = reference_bytes(spec, tmp_path)
        threads_before = threading.active_count()
        peers = start_peers(tmp_path, n_peers)
        install_plan(FaultPlan(domain=NET, **storm))
        store = ResultStore(str(tmp_path / "merged.jsonl"))
        try:
            coordinator = FabricCoordinator(
                [LocalBackend(str(tmp_path / "scratch"), workers=1)]
                + [peer_backend(p) for p in peers],
                shard_size=2,
                lease_timeout_s=30.0,
            )
            summary = coordinator.run(spec, store)
        finally:
            clear_plan()
            stop_peers(peers)
        assert summary.n_cached == 0
        assert summary.n_computed == 6
        assert (tmp_path / "merged.jsonl").read_bytes() == reference
        assert_no_leaks(threads_before)

    @pytest.mark.parametrize("n_peers,storm", STORMS)
    def test_rerun_after_storm_is_pure_cache_hit(self, tmp_path, n_peers,
                                                 storm):
        spec = chaos_spec(f"fab-rerun-{n_peers}")
        reference = reference_bytes(spec, tmp_path)
        peers = start_peers(tmp_path, n_peers)
        install_plan(FaultPlan(domain=NET, **storm))
        store_path = tmp_path / "merged.jsonl"
        try:
            backends = (
                [LocalBackend(str(tmp_path / "scratch"), workers=1)]
                + [peer_backend(p) for p in peers]
            )
            FabricCoordinator(backends, shard_size=2).run(
                spec, ResultStore(str(store_path)))
            # Resubmission: a fresh coordinator over the merged store must
            # find nothing to do and change nothing.
            summary = FabricCoordinator(backends, shard_size=2).run(
                spec, ResultStore(str(store_path)))
        finally:
            clear_plan()
            stop_peers(peers)
        assert summary.n_computed == 0
        assert summary.n_shards == 0
        assert summary.cache_hit_rate == 1.0
        assert "6 cached, 0 computed" in summary.describe()
        assert store_path.read_bytes() == reference


# -- failure-domain isolation ------------------------------------------------

class TestPeerDeathMidRun:
    def test_hard_killed_peer_does_not_change_bytes(self, tmp_path):
        spec = chaos_spec("fab-kill")
        reference = reference_bytes(spec, tmp_path)
        threads_before = threading.active_count()
        peers = start_peers(tmp_path, 2)
        victim, survivor = peers
        victim_name = f"{victim.host}:{victim.port}"
        trigger = threading.Event()
        killer = threading.Thread(
            target=lambda: (trigger.wait(timeout=30.0),
                            victim.stop(drain=False)),
            daemon=True,
        )
        killer.start()

        def pull_the_plug(message):
            # First dispatch to the victim arms the kill: the service dies
            # (cancelling shutdown, no drain) while its shard is in flight.
            if f"-> {victim_name}" in message:
                trigger.set()

        store = ResultStore(str(tmp_path / "merged.jsonl"))
        try:
            coordinator = FabricCoordinator(
                [LocalBackend(str(tmp_path / "scratch"), workers=1),
                 peer_backend(victim, retries=1),
                 peer_backend(survivor)],
                shard_size=1,
                lease_timeout_s=30.0,
                log=pull_the_plug,
            )
            summary = coordinator.run(spec, store)
        finally:
            trigger.set()
            stop_peers(peers)
            killer.join(timeout=10.0)
        assert summary.n_computed == 6
        assert (tmp_path / "merged.jsonl").read_bytes() == reference
        assert_no_leaks(threads_before)

    def test_all_peers_down_degrades_to_local(self, tmp_path):
        spec = chaos_spec("fab-degraded")
        reference = reference_bytes(spec, tmp_path)
        # A port that was bound and released: nothing listens there now.
        probe = ServiceThread(str(tmp_path / "gone" / "store.jsonl"))
        (tmp_path / "gone").mkdir()
        probe.start()
        dead_host, dead_port = probe.host, probe.port
        probe.stop(drain=False)

        store = ResultStore(str(tmp_path / "merged.jsonl"))
        coordinator = FabricCoordinator(
            [LocalBackend(str(tmp_path / "scratch"), workers=1),
             PeerBackend(dead_host, dead_port, timeout=2.0,
                         retries=0, backoff_s=0.01)],
            shard_size=2,
            dead_after=2,
        )
        summary = coordinator.run(spec, store)
        assert summary.degraded
        assert "degraded to local-only" in summary.describe()
        assert (tmp_path / "merged.jsonl").read_bytes() == reference


# -- probation re-admission --------------------------------------------------

class TestProbationReadmission:
    def test_restarted_peer_is_readmitted_and_finishes_the_run(
            self, tmp_path):
        spec = chaos_spec("fab-readmit")
        reference = reference_bytes(spec, tmp_path)
        store_dir = tmp_path / "peer"
        store_dir.mkdir()
        first = ServiceThread(str(store_dir / "store.jsonl"),
                              sweep_workers=1).start()
        host, port = first.host, first.port
        first.stop(drain=False)  # the peer is down when the run begins

        second_holder = {}

        def restart_peer():
            time.sleep(0.3)
            second_holder["peer"] = ServiceThread(
                str(store_dir / "store.jsonl"), port=port,
                sweep_workers=1,
            ).start()

        restarter = threading.Thread(target=restart_peer, daemon=True)
        restarter.start()

        # The peer is the ONLY backend: the run can finish only if the
        # health machine walks dead -> probation -> alive once the service
        # is back, with no race against a faster local backend.
        backend = PeerBackend(host, port, timeout=5.0, retries=0,
                              backoff_s=0.01)
        coordinator = FabricCoordinator(
            [backend],
            shard_size=2,
            dead_after=1,
            cooldown_s=0.6,
            max_shard_attempts=20,
            lease_timeout_s=30.0,
        )
        store = ResultStore(str(tmp_path / "merged.jsonl"))
        try:
            summary = coordinator.run(spec, store)
        finally:
            restarter.join(timeout=10.0)
            stop_peers([second_holder.get("peer")]
                       if second_holder.get("peer") else [])
        stats = summary.backends[backend.name]
        assert stats["n_probations"] >= 1
        assert stats["shards_completed"] == 3
        assert stats["state"] == "alive"
        assert summary.n_requeues >= 1
        assert (tmp_path / "merged.jsonl").read_bytes() == reference
