"""Service-side fabric support: shard jobs, restart recovery, client retry.

Everything here runs against a real :class:`ServiceThread` over real
sockets, with network faults injected through the seeded plan in
:mod:`repro.faults` — the same wire paths the distributed fabric uses.
"""

import json
import os
import threading

import pytest

from repro.faults import (
    FAULT_OK as NET_OK,
    NET,
    NET_CORRUPT,
    NET_DISCONNECT,
    NET_REFUSE,
    FaultPlan,
    clear_plan,
    install_plan,
)
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import JobManager, job_id_for
from repro.service.server import ServiceThread
from repro.sweep.grid import SweepSpec
from repro.sweep.store import ResultStore


def spec_dict(name="fab-tiny", seeds=(1, 2), **kwargs):
    defaults = dict(
        name=name,
        topologies=("ring", "conv"),
        cluster_counts=(2,),
        steerings=("dependence",),
        mixes=("int_heavy",),
        n_instructions=300,
        seeds=seeds,
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults).to_dict()


@pytest.fixture(autouse=True)
def _no_leftover_net_plan():
    clear_plan()
    yield
    clear_plan()


@pytest.fixture()
def service(tmp_path):
    svc = ServiceThread(str(tmp_path / "store.jsonl")).start()
    try:
        yield svc, ServiceClient(svc.host, svc.port)
    finally:
        svc.stop()


class TestShardJobs:
    def test_shard_job_runs_only_its_slice(self, service):
        svc, client = service
        spec = spec_dict(seeds=(1, 2, 3, 4))  # 8 points
        sub = client.submit(spec, workers=1, shard={"start": 2, "stop": 5})
        assert sub["job"]["shard"] == {"start": 2, "stop": 5}
        done = client.wait(sub["job_id"])
        assert done["state"] == "done"
        assert done["summary"]["n_points"] == 3
        assert done["summary"]["n_computed"] == 3

    def test_shard_changes_job_identity(self, service):
        _svc, client = service
        spec = spec_dict(seeds=(1, 2, 3, 4))
        a = client.submit(spec, workers=1, shard={"start": 0, "stop": 2})
        b = client.submit(spec, workers=1, shard={"start": 2, "stop": 4})
        whole = client.submit(spec, workers=1)
        assert len({a["job_id"], b["job_id"], whole["job_id"]}) == 3
        for sub in (a, b, whole):
            assert client.wait(sub["job_id"])["state"] == "done"

    def test_shardless_digest_is_unchanged(self):
        spec = SweepSpec.from_dict(spec_dict())
        assert job_id_for(spec) == job_id_for(spec, None)
        assert job_id_for(spec) != job_id_for(spec, {"start": 0, "stop": 1})

    def test_two_shards_cover_the_spec_like_one_run(self, tmp_path):
        spec = spec_dict(seeds=(1, 2, 3))  # 6 points
        ref_store = ResultStore(str(tmp_path / "ref.jsonl"))
        from repro.sweep.runner import run_sweep
        run_sweep(SweepSpec.from_dict(spec).expand(), ref_store, workers=1)

        svc = ServiceThread(str(tmp_path / "peer.jsonl")).start()
        try:
            client = ServiceClient(svc.host, svc.port)
            for start, stop in ((0, 3), (3, 6)):
                sub = client.submit(spec, workers=1,
                                    shard={"start": start, "stop": stop})
                assert client.wait(sub["job_id"])["state"] == "done"
            # The peer's records are fetchable and byte-identical to the
            # single-host run's store lines.
            ref_bytes = open(ref_store.path, "rb").read()
            fetched = b"".join(
                client.result(record["key"])
                for record in ref_store.records()
            )
            assert fetched == ref_bytes
        finally:
            svc.stop()

    def test_out_of_range_shard_fails_cleanly(self, service):
        _svc, client = service
        sub = client.submit(spec_dict(), workers=1,
                            shard={"start": 0, "stop": 999})
        done = client.wait(sub["job_id"])
        assert done["state"] == "failed"
        assert "out of range" in done["error"]

    def test_inverted_shard_rejected_at_submit(self, service):
        _svc, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.submit(spec_dict(), shard={"start": 5, "stop": 2})
        assert excinfo.value.status == 400

    def test_negative_shard_rejected_by_schema(self, service):
        _svc, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.submit(spec_dict(), shard={"start": -1, "stop": 2})
        assert excinfo.value.status == 400


class TestRestartRecovery:
    def _boot(self, tmp_path):
        return ServiceThread(str(tmp_path / "store.jsonl")).start()

    def test_active_job_listed_as_interrupted_after_reboot(self, tmp_path):
        svc = self._boot(tmp_path)
        client = ServiceClient(svc.host, svc.port)
        sub = client.submit(spec_dict(), workers=1)
        client.wait(sub["job_id"])
        svc.stop()

        # Simulate dying mid-run: rewrite the persisted state to "running"
        # (stopping cleanly settles the job, as it should).
        job_file = tmp_path / "jobs" / f"{sub['job_id']}.json"
        record = json.loads(job_file.read_text())
        record["state"] = "running"
        job_file.write_text(json.dumps(record))

        svc2 = self._boot(tmp_path)
        try:
            client2 = ServiceClient(svc2.host, svc2.port)
            jobs = client2.jobs()
            assert [j["job_id"] for j in jobs] == [sub["job_id"]]
            assert jobs[0]["state"] == "interrupted"
            # The recovered stream has an explanatory terminal history.
            events = list(client2.stream(sub["job_id"]))
            assert events and events[-1][1] == "interrupted"
        finally:
            svc2.stop()

    def test_interrupted_job_resumes_as_cache_hit(self, tmp_path):
        svc = self._boot(tmp_path)
        client = ServiceClient(svc.host, svc.port)
        sub = client.submit(spec_dict(), workers=1)
        client.wait(sub["job_id"])
        svc.stop()
        job_file = tmp_path / "jobs" / f"{sub['job_id']}.json"
        record = json.loads(job_file.read_text())
        record["state"] = "queued"
        job_file.write_text(json.dumps(record))

        svc2 = self._boot(tmp_path)
        try:
            client2 = ServiceClient(svc2.host, svc2.port)
            again = client2.submit(spec_dict(), workers=1)
            assert again["disposition"] == "resubmitted"
            done = client2.wait(again["job_id"])
            assert done["state"] == "done"
            assert done["summary"]["n_computed"] == 0
            assert done["summary"]["n_cached"] == 4
        finally:
            svc2.stop()

    def test_terminal_job_state_survives_reboot(self, tmp_path):
        svc = self._boot(tmp_path)
        client = ServiceClient(svc.host, svc.port)
        sub = client.submit(spec_dict(), workers=1)
        client.wait(sub["job_id"])
        svc.stop()
        svc2 = self._boot(tmp_path)
        try:
            jobs = ServiceClient(svc2.host, svc2.port).jobs()
            assert jobs[0]["state"] == "done"
        finally:
            svc2.stop()

    def test_torn_job_file_is_skipped(self, tmp_path):
        jobs_dir = tmp_path / "jobs"
        jobs_dir.mkdir()
        (jobs_dir / "deadbeef.json").write_text('{"job_id": "dead')
        manager = JobManager(str(tmp_path / "store.jsonl"))
        assert manager.list_jobs() == []

    def test_persistence_can_be_disabled(self, tmp_path):
        manager = JobManager(str(tmp_path / "store.jsonl"),
                             persist_jobs=False)
        assert not os.path.isdir(str(tmp_path / "jobs"))
        assert manager.list_jobs() == []


class TestClientRetry:
    def test_request_rides_out_scripted_refusals(self, service, tmp_path):
        svc, _ = service
        client = ServiceClient(svc.host, svc.port, retries=2,
                               backoff_s=0.01, peer_name="pA")
        install_plan(FaultPlan(domain=NET, scripted={
            "pA GET /healthz": (NET_REFUSE, NET_REFUSE, NET_OK),
        }))
        assert client.health()["status"] == "ok"

    def test_retry_budget_exhaustion_raises_unreachable(self, service):
        svc, _ = service
        client = ServiceClient(svc.host, svc.port, retries=1,
                               backoff_s=0.01, peer_name="pA")
        install_plan(FaultPlan(domain=NET, scripted={
            "pA GET /healthz": (NET_REFUSE, NET_REFUSE, NET_REFUSE),
        }))
        with pytest.raises(ServiceError) as excinfo:
            client.health()
        assert excinfo.value.code == "unreachable"

    def test_submit_retry_is_idempotent(self, service):
        svc, _ = service
        client = ServiceClient(svc.host, svc.port, retries=2,
                               backoff_s=0.01, peer_name="pA")
        # Disconnect AFTER the request reaches the server: the retry hits
        # the dedup path instead of starting a second run.
        install_plan(FaultPlan(domain=NET, scripted={
            "pA POST /jobs": (NET_DISCONNECT, NET_OK),
        }))
        sub = client.submit(spec_dict(), workers=1)
        # The retried submit lands on the job the first (disconnected)
        # attempt created: deduplicated while it runs, resubmitted if the
        # tiny grid already finished — never a second job.
        assert sub["disposition"] in ("deduplicated", "resubmitted")
        clear_plan()
        assert client.wait(sub["job_id"])["state"] == "done"
        assert len(client.jobs()) == 1

    def test_result_attempt_advances_fault_schedule(self, service):
        svc, client0 = service
        sub = client0.submit(spec_dict(), workers=1)
        client0.wait(sub["job_id"])
        key = ResultStore(str(svc.service.manager.store.path)).keys()[0]
        client = ServiceClient(svc.host, svc.port, retries=0,
                               backoff_s=0.01, peer_name="pA")
        install_plan(FaultPlan(domain=NET, scripted={
            f"pA GET /results/{key}": (NET_CORRUPT, NET_OK),
        }))
        first = client.result(key, attempt=1)
        second = client.result(key, attempt=2)
        assert not first.endswith(b"\n")      # corrupted in flight
        assert second.endswith(b"\n")         # schedule advanced past it
        assert json.loads(second)["key"] == key

    def test_stream_reconnects_and_replays_without_duplicates(self, service):
        svc, client0 = service
        sub = client0.submit(spec_dict(), workers=1)
        client0.wait(sub["job_id"])
        job_id = sub["job_id"]
        # Baseline: the full event history, cleanly.
        baseline = list(client0.stream(job_id))
        assert baseline[-1][1] == "done"

        client = ServiceClient(svc.host, svc.port, retries=2,
                               backoff_s=0.01, peer_name="pA")
        install_plan(FaultPlan(domain=NET, scripted={
            f"pA SSE /jobs/{job_id}/events": (NET_DISCONNECT, NET_OK),
        }))
        events = list(client.stream(job_id))
        assert events == baseline
        ids = [event_id for event_id, _n, _d in events]
        assert ids == sorted(set(ids))  # strictly increasing, no dups

    def test_stream_gives_up_after_retry_budget(self, service):
        svc, client0 = service
        sub = client0.submit(spec_dict(), workers=1)
        client0.wait(sub["job_id"])
        job_id = sub["job_id"]
        client = ServiceClient(svc.host, svc.port, retries=1,
                               backoff_s=0.01, peer_name="pA")
        install_plan(FaultPlan(domain=NET, scripted={
            f"pA SSE /jobs/{job_id}/events":
                (NET_DISCONNECT, NET_DISCONNECT),
        }))
        with pytest.raises(ServiceError) as excinfo:
            list(client.stream(job_id))
        assert excinfo.value.code == "stream_interrupted"

    def test_wait_falls_back_to_polling_when_stream_dies(self, service):
        svc, client0 = service
        sub = client0.submit(spec_dict(), workers=1)
        client0.wait(sub["job_id"])
        job_id = sub["job_id"]
        client = ServiceClient(svc.host, svc.port, retries=0,
                               backoff_s=0.01, peer_name="pA")
        install_plan(FaultPlan(domain=NET, scripted={
            f"pA SSE /jobs/{job_id}/events": (NET_DISCONNECT,),
        }))
        assert client.wait(job_id)["state"] == "done"

    def test_unknown_job_is_not_retried(self, service):
        svc, _ = service
        client = ServiceClient(svc.host, svc.port, retries=3,
                               backoff_s=0.2, peer_name="pA")
        with pytest.raises(ServiceError) as excinfo:
            list(client.stream("feedfacedeadbeef"))
        assert excinfo.value.status == 404
