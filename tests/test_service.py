"""Sweep service end-to-end: endpoint matrix, SSE, dedup, determinism.

Every test runs a real :class:`~repro.service.server.ServiceThread` on a
loopback port and drives it through the blocking
:class:`~repro.service.client.ServiceClient` (plus raw sockets for the
malformed-request paths) — the same wire the CI smoke job uses.
"""

import json
import random
import socket
import threading

import pytest

from repro.common.errors import ConfigurationError
from repro.engine import KERNEL_VARIANTS
from repro.service import MAX_BODY_BYTES, ServiceClient, ServiceError, ServiceThread
from repro.service.jobs import ServiceUnavailable, effective_spec, job_id_for
from repro.steering import list_policies
from repro.sweep.grid import SweepSpec
from repro.sweep.report import build_tables, load_rows, render_markdown
from repro.sweep.runner import run_sweep
from repro.sweep.store import ResultStore
from repro.workloads import list_mixes


def spec_dict(name="svc-tiny", n_instructions=400, seeds=(1, 2), **kwargs):
    defaults = dict(
        name=name,
        topologies=("ring", "conv"),
        cluster_counts=(2,),
        steerings=("dependence",),
        mixes=("int_heavy",),
        n_instructions=n_instructions,
        seeds=seeds,
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults).to_dict()


def slow_spec_dict(name="svc-slow"):
    """A grid slow enough (~1-2 s inline) to cancel or observe mid-run."""
    return spec_dict(
        name=name,
        cluster_counts=(2, 4, 8),
        mixes=("int_heavy", "memory_bound"),
        n_instructions=20_000,
        seeds=(1, 2),
    )


@pytest.fixture
def service(tmp_path):
    svc = ServiceThread(str(tmp_path / "store.jsonl")).start()
    try:
        yield svc, ServiceClient(svc.host, svc.port)
    finally:
        svc.stop()


def raw_http(svc: ServiceThread, payload: bytes) -> bytes:
    """Send raw bytes, half-close, read the full response."""
    with socket.create_connection((svc.host, svc.port), timeout=30) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            block = sock.recv(65536)
            if not block:
                break
            chunks.append(block)
    return b"".join(chunks)


def raw_status_and_error(response: bytes):
    head, _sep, body = response.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    error = json.loads(body.decode("utf-8"))["error"]
    return status, error


class TestEndpointMatrix:
    def test_health_and_index(self, service):
        _svc, client = service
        health = client.health()
        assert health["status"] == "ok"
        assert health["records"] == 0 and health["jobs"] == 0
        index = client.index()
        assert index["service"] == "repro.sweep"
        assert "POST /jobs" in index["endpoints"]

    def test_submit_status_results_report(self, service):
        svc, client = service
        response = client.submit(spec_dict(), workers=1)
        assert response["disposition"] == "created"
        job_id = response["job_id"]
        status = client.wait(job_id)
        assert status["state"] == "done"
        assert status["summary"]["n_computed"] == 4
        assert status["n_done"] == status["n_points"] == 4
        # results: every key is served as its exact store line
        store = svc.service.manager.store
        for key in store.keys():
            from repro.common.jsonutil import canonical_json
            assert client.result(key) == (
                canonical_json(store.get(key)) + "\n").encode()
        # report markdown carries the standard tables
        markdown = client.report(job_id)
        assert "# Sweep report" in markdown
        assert "IPC vs cluster count" in markdown
        csv_text = client.report(job_id, fmt="csv", table="ipc_vs_clusters")
        assert csv_text.splitlines()[0].startswith("mix,steering")

    def test_jobs_listing(self, service):
        _svc, client = service
        a = client.submit(spec_dict(name="a"), workers=1)
        b = client.submit(spec_dict(name="b", seeds=(3,)), workers=1)
        client.wait(a["job_id"])
        client.wait(b["job_id"])
        listed = client.jobs()
        assert [job["job_id"] for job in listed] == [a["job_id"], b["job_id"]]
        assert all(job["state"] == "done" for job in listed)

    def test_job_status_unknown_job_404(self, service):
        _svc, client = service
        with pytest.raises(ServiceError) as err:
            client.job("deadbeefdeadbeef")
        assert err.value.status == 404
        assert err.value.code == "unknown_job"

    def test_result_unknown_key_404(self, service):
        _svc, client = service
        with pytest.raises(ServiceError) as err:
            client.result("deadbeefdeadbeefdeadbeef")
        assert err.value.status == 404

    def test_cancel_endpoint_on_terminal_job_conflicts(self, service):
        _svc, client = service
        response = client.submit(spec_dict(), workers=1)
        client.wait(response["job_id"])
        outcome = client.cancel(response["job_id"])
        assert outcome["cancelled"] is False
        assert outcome["state"] == "done"

    def test_discovery_endpoints_enumerate_registries(self, service):
        _svc, client = service
        steerings = client.steering_policies()
        assert [p["name"] for p in steerings] == sorted(list_policies())
        assert all("description" in p and "needs_retire" in p
                   for p in steerings)
        mixes = client.mixes()
        assert [m["name"] for m in mixes] == sorted(list_mixes())
        assert all("class_weights" in m for m in mixes)

    def test_unknown_path_404_and_wrong_method_405(self, service):
        svc, _client = service
        status, error = raw_status_and_error(raw_http(
            svc, b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n"))
        assert (status, error["code"]) == (404, "not_found")
        status, error = raw_status_and_error(raw_http(
            svc, b"DELETE /jobs HTTP/1.1\r\nHost: x\r\n\r\n"))
        assert (status, error["code"]) == (405, "method_not_allowed")


class TestValidation:
    def test_malformed_json_400(self, service):
        svc, _client = service
        body = b"{not json"
        payload = (
            b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
        )
        status, error = raw_status_and_error(raw_http(svc, payload))
        assert (status, error["code"]) == (400, "bad_json")

    def test_oversized_body_413(self, service):
        svc, _client = service
        payload = (
            b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: " + str(MAX_BODY_BYTES + 1).encode()
            + b"\r\n\r\n"
        )
        status, error = raw_status_and_error(raw_http(svc, payload))
        assert (status, error["code"]) == (413, "body_too_large")

    def test_oversized_body_fully_sent_413(self, service):
        # The pathological client that pushes the whole megabyte before
        # reading: the server must drain it (no deadlock) and refuse.
        svc, _client = service
        body = b"x" * (MAX_BODY_BYTES + 1)
        payload = (
            b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
        )
        status, error = raw_status_and_error(raw_http(svc, payload))
        assert (status, error["code"]) == (413, "body_too_large")

    def test_malformed_request_line_400(self, service):
        svc, _client = service
        status, error = raw_status_and_error(raw_http(svc, b"GARBAGE\r\n\r\n"))
        assert status == 400

    def test_schema_violations_400(self, service):
        _svc, client = service
        with pytest.raises(ServiceError) as err:
            client.submit(spec_dict(), nonsense=True)
        assert err.value.status == 400
        assert err.value.code == "invalid_request"
        assert "nonsense" in str(err.value)
        with pytest.raises(ServiceError) as err:
            client.submit(spec_dict(), workers="four")
        assert err.value.code == "invalid_request"
        with pytest.raises(ServiceError) as err:
            client.submit(spec_dict(), kernel_variant="turbo")
        assert err.value.status == 400
        assert err.value.code == "invalid_request"

    @pytest.mark.parametrize("variant", KERNEL_VARIANTS)
    def test_every_kernel_variant_accepted(self, service, variant):
        _svc, client = service
        response = client.submit(spec_dict(name=f"svc-{variant}"),
                                 kernel_variant=variant)
        assert client.wait(response["job_id"])["state"] == "done"

    def test_missing_spec_400(self, service):
        svc, _client = service
        body = json.dumps({"workers": 1}).encode()
        payload = (
            b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
        )
        status, error = raw_status_and_error(raw_http(svc, payload))
        assert (status, error["code"]) == (400, "invalid_request")
        assert "spec" in error["message"]

    def test_invalid_spec_400(self, service):
        _svc, client = service
        bad = spec_dict()
        bad["steerings"] = ["warp_drive"]
        with pytest.raises(ServiceError) as err:
            client.submit(bad)
        assert err.value.status == 400
        assert err.value.code == "invalid_spec"
        assert "warp_drive" in str(err.value)

    @pytest.mark.parametrize("patch, field", [
        ([], "JSON object"),
        ({"mixes": 5}, "SweepSpec.mixes"),
        ({"seeds": 3}, "SweepSpec.seeds"),
        ({"steerings": "dependence"}, "SweepSpec.steerings"),
        ({"seeds": ["a"]}, "SweepSpec.seeds"),
        ({"n_instructions": True}, "SweepSpec.n_instructions"),
    ])
    def test_malformed_spec_400(self, service, patch, field):
        # Regression: these answered 500 internal, or 201 created and then
        # failed every point.
        _svc, client = service
        bad = {**spec_dict(), **patch} if isinstance(patch, dict) else patch
        with pytest.raises(ServiceError) as err:
            client.submit(bad)
        assert (err.value.status, err.value.code) == (400, "invalid_spec")
        assert field in str(err.value)

    def test_report_format_validation(self, service):
        _svc, client = service
        response = client.submit(spec_dict(), workers=1)
        client.wait(response["job_id"])
        with pytest.raises(ServiceError) as err:
            client.report(response["job_id"], fmt="pdf")
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            client.report(response["job_id"], fmt="csv")  # no table
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            client.report(response["job_id"], fmt="csv", table="no_such")
        assert err.value.status == 404


def post(path: str, body: bytes) -> bytes:
    return (f"POST {path} HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


def deep(depth: int) -> str:
    return "[" * depth + "]" * depth


def malformed_body(rng: random.Random) -> bytes:
    """A request body no JSON endpoint may accept: broken JSON, JSON that
    breaks the submit schema, or a spec that ``SweepSpec`` rejects."""
    valid = json.dumps({"spec": spec_dict(), "workers": 1})
    kind = rng.randrange(9)
    if kind == 0:                                  # a cut-off object
        return valid[:rng.randrange(1, len(valid))].encode()
    if kind == 1:                                  # not UTF-8
        raw = bytearray(valid.encode())
        raw[rng.randrange(len(raw))] = rng.choice([0x80, 0xC3, 0xFF])
        return bytes(raw)
    if kind == 2:                                  # nested past any limit
        return rng.choice(["[", '{"a":', '{"spec":[']).encode() * 100_000
    if kind == 3:                                  # a 5,000-digit integer
        number = "9" * 5_000
        return rng.choice([number, f'{{"spec": {number}}}',
                           f'{{"spec": {{}}, "workers": {number}}}']).encode()
    if kind == 4:                                  # random bytes
        return bytes(rng.randrange(256) for _ in range(rng.randint(1, 40)))
    if kind == 5:                                  # JSON, but not an object
        return rng.choice(["1", "null", '"spec"', "[]", deep(500),
                           "NaN", "-Infinity", "1e999"]).encode()
    body = json.loads(valid)
    junk = rng.choice([None, "x", -1, 0, 65, 10 ** 4_000, 1.5, float("nan"),
                       float("inf"), [], {}, [None], {"a": [1]},
                       json.loads(deep(rng.choice([300, 900])))])
    if kind == 6:                                  # a key the schema lacks
        body[rng.choice(["nonsense", "", "Spec", "\ud800"])] = junk
    elif kind == 7:                                # a bad option value
        body[rng.choice(["workers", "kernel_variant", "energy", "retries",
                         "shard"])] = rng.choice(
            [None, "x", -1, 65, 10 ** 4_000, float("nan"), [], {"a": 1},
             json.loads(deep(900))])
    elif rng.random() < 0.5:                       # a key SweepSpec lacks
        body["spec"][rng.choice(["nonsense", "Name", "seed"])] = junk
    else:                                          # a bad spec field
        body["spec"][rng.choice(["mixes", "seeds", "topologies",
                                 "overrides", "base"])] = rng.choice(
            [None, "abc", json.loads(deep(900))])
    return json.dumps(body).encode()


class TestBodyFuzz:
    """Seeded malformed bodies against every endpoint that reads JSON: each
    answer is a 4xx carrying an error object, never a 500, and the service
    stays up and creates no job."""

    @pytest.mark.parametrize("seed", range(2))
    def test_malformed_bodies_answer_4xx(self, service, seed):
        svc, client = service
        rng = random.Random(seed)
        for _ in range(100):
            path = rng.choice(["/jobs", "/jobs/0123abcd/cancel"])
            body = malformed_body(rng)
            status, error = raw_status_and_error(raw_http(svc, post(path,
                                                                  body)))
            assert 400 <= status < 500, (path, body[:200], status, error)
            assert error["code"] and error["message"]
        assert client.health()["status"] == "ok"
        assert client.jobs() == []
        response = client.submit(spec_dict(name="after-fuzz"), workers=1)
        assert client.wait(response["job_id"])["state"] == "done"

    @pytest.mark.parametrize("body", [
        b"[" * 100_000,
        ("9" * 5_000).encode(),
        b'{"spec": ' + b"9" * 5_000 + b"}",
    ], ids=["nested-100k", "integer-5000-digits", "spec-5000-digits"])
    def test_json_the_parser_refuses_is_bad_json(self, service, body):
        # Regression: a RecursionError and a ValueError escaped the body
        # parser and answered 500 internal.
        svc, _client = service
        status, error = raw_status_and_error(raw_http(svc, post("/jobs",
                                                               body)))
        assert (status, error["code"]) == (400, "bad_json")


class TestDedupAndResubmission:
    def test_duplicate_spec_dedupes_onto_active_job(self, service):
        _svc, client = service
        first = client.submit(slow_spec_dict(), workers=1)
        second = client.submit(slow_spec_dict(), workers=1)
        assert second["job_id"] == first["job_id"]
        assert second["disposition"] == "deduplicated"
        status = client.wait(first["job_id"])
        assert status["state"] == "done"
        assert status["run_count"] == 1

    def test_resubmitting_finished_spec_is_pure_cache_hit(self, service):
        _svc, client = service
        first = client.submit(spec_dict(), workers=1)
        done = client.wait(first["job_id"])
        assert done["summary"]["n_computed"] == 4
        second = client.submit(spec_dict(), workers=1)
        assert second["disposition"] == "resubmitted"
        assert second["job_id"] == first["job_id"]
        rerun = client.wait(first["job_id"])
        assert rerun["state"] == "done"
        assert rerun["run_count"] == 2
        assert rerun["summary"]["n_computed"] == 0
        assert rerun["summary"]["n_cached"] == rerun["summary"]["n_points"]
        assert rerun["summary"]["cache_hit_rate"] == 1.0

    def test_energy_flag_changes_job_identity(self, service):
        _svc, client = service
        plain = client.submit(spec_dict(), workers=1)
        energy = client.submit(spec_dict(), workers=1, energy=True)
        assert energy["job_id"] != plain["job_id"]
        status = client.wait(energy["job_id"])
        assert status["state"] == "done"
        # energy job ids match the CLI's --energy spec fold
        body = {"spec": spec_dict(), "energy": True}
        assert energy["job_id"] == job_id_for(effective_spec(body))
        client.wait(plain["job_id"])


class TestExpansionCache:
    """The job runner expands a spec once for a row of its shard jobs."""

    @pytest.fixture
    def expansions(self, monkeypatch):
        """Count ``SweepSpec.expand`` calls by spec name; a spec named
        ``boom`` fails to expand."""
        counts = {}
        real_expand = SweepSpec.expand

        def expand(spec):
            counts[spec.name] = counts.get(spec.name, 0) + 1
            if spec.name == "boom":
                raise ConfigurationError("boom: cannot expand")
            return real_expand(spec)

        monkeypatch.setattr(SweepSpec, "expand", expand)
        return counts

    def _run(self, client, spec, **options):
        sub = client.submit(spec, workers=1, **options)
        return client.wait(sub["job_id"])

    def test_shards_of_one_spec_expand_once(self, service, expansions):
        _svc, client = service
        spec = spec_dict(name="rowed", seeds=(1, 2, 3))
        for start, stop in ((0, 2), (2, 4), (4, 6)):
            done = self._run(client, spec,
                             shard={"start": start, "stop": stop})
            assert done["state"] == "done"
            assert done["summary"]["n_computed"] == 2
        assert expansions == {"rowed": 1}

    def test_other_spec_or_energy_fold_expands_again(self, service,
                                                     expansions):
        _svc, client = service
        first = spec_dict(name="first")
        shard = {"start": 0, "stop": 2}
        assert self._run(client, first, shard=shard)["state"] == "done"
        assert self._run(client, spec_dict(name="second"),
                         shard=shard)["state"] == "done"
        assert self._run(client, first, shard=shard,
                         energy=True)["state"] == "done"
        assert self._run(client, first, energy=True)["state"] == "done"
        assert expansions == {"first": 2, "second": 1}

    def test_failed_expansion_is_not_cached(self, service, expansions):
        _svc, client = service
        for _run in range(2):
            failed = self._run(client, spec_dict(name="boom"),
                               shard={"start": 0, "stop": 2})
            assert failed["state"] == "failed"
            assert failed["error"] == "boom: cannot expand"
        assert expansions == {"boom": 2}
        done = self._run(client, spec_dict(name="after"))
        assert done["state"] == "done"
        assert done["summary"]["n_computed"] == 4


class TestDeterminism:
    def test_http_store_byte_identical_to_cli_store(self, service, tmp_path):
        svc, client = service
        response = client.submit(spec_dict(name="det"), workers=1)
        client.wait(response["job_id"])
        cli_store = ResultStore(str(tmp_path / "cli.jsonl"))
        run_sweep(SweepSpec.from_dict(spec_dict(name="det")).expand(),
                  cli_store, workers=1)
        with open(svc.service.manager.store.path, "rb") as fh:
            service_bytes = fh.read()
        with open(cli_store.path, "rb") as fh:
            cli_bytes = fh.read()
        assert service_bytes == cli_bytes

    def test_results_endpoint_reconstructs_cli_store(self, service, tmp_path):
        svc, client = service
        response = client.submit(spec_dict(name="det2"), workers=1)
        client.wait(response["job_id"])
        cli_store = ResultStore(str(tmp_path / "cli.jsonl"))
        run_sweep(SweepSpec.from_dict(spec_dict(name="det2")).expand(),
                  cli_store, workers=1)
        reconstructed = b"".join(
            client.result(key) for key in cli_store.keys()
        )
        with open(cli_store.path, "rb") as fh:
            assert reconstructed == fh.read()

    def test_report_matches_offline_rendering(self, service):
        svc, client = service
        response = client.submit(spec_dict(name="det3"), workers=1)
        job_id = response["job_id"]
        client.wait(job_id)
        job = svc.service.manager.get(job_id)
        tables = build_tables(load_rows(svc.service.manager.store))
        expected = render_markdown(tables, meta={
            "job": job_id, "state": "done",
            "records": f"{job.n_points}/{job.n_points}",
        })
        assert client.report(job_id) == expected


class TestCancelResume:
    def test_cancel_running_job_then_resume(self, service, tmp_path):
        svc, client = service
        response = client.submit(slow_spec_dict(name="cancelme"), workers=1)
        job_id = response["job_id"]
        saw_points = 0
        for _eid, name, _data in client.stream(job_id, timeout=120):
            if name == "point":
                saw_points += 1
                if saw_points == 1:
                    outcome = client.cancel(job_id)
                    assert outcome["cancelled"] is True
            if name in ("done", "failed", "cancelled"):
                terminal = name
                break
        status = client.job(job_id)
        # The sweep may complete before the cancel lands on a fast box —
        # but when it was cancelled, the store must hold a clean prefix
        # that a resubmission extends to the full byte-identical result.
        assert terminal == status["state"]
        cli_store = ResultStore(str(tmp_path / "ref.jsonl"))
        run_sweep(
            SweepSpec.from_dict(slow_spec_dict(name="cancelme")).expand(),
            cli_store, workers=1,
        )
        with open(cli_store.path, "rb") as fh:
            reference = fh.read()
        with open(svc.service.manager.store.path, "rb") as fh:
            partial = fh.read()
        assert reference.startswith(partial)
        if status["state"] == "cancelled":
            assert len(partial) < len(reference)
            assert status["summary"]["interrupted"] is True
            resumed = client.submit(slow_spec_dict(name="cancelme"),
                                    workers=1)
            assert resumed["disposition"] == "resubmitted"
            final = client.wait(job_id)
            assert final["state"] == "done"
            with open(svc.service.manager.store.path, "rb") as fh:
                assert fh.read() == reference

    def test_cancel_queued_job(self, service):
        _svc, client = service
        running = client.submit(slow_spec_dict(name="head"), workers=1)
        queued = client.submit(spec_dict(name="tail", seeds=(9,)), workers=1)
        outcome = client.cancel(queued["job_id"])
        assert outcome["cancelled"] is True
        status = client.wait(queued["job_id"], timeout=60)
        assert status["state"] == "cancelled"
        head = client.wait(running["job_id"], timeout=120)
        assert head["state"] == "done"


class TestShutdown:
    def test_graceful_shutdown_drains_in_flight_job(self, tmp_path):
        store_path = str(tmp_path / "drain.jsonl")
        svc = ServiceThread(store_path).start()
        client = ServiceClient(svc.host, svc.port)
        response = client.submit(slow_spec_dict(name="drainme"), workers=1)
        job_id = response["job_id"]
        svc.stop(drain=True)  # blocks until the job completed
        job = svc.service.manager.jobs[job_id]
        assert job.state == "done"
        assert job.summary is not None and not job.summary.failures
        reference = ResultStore(store_path)
        assert len(reference) == job.n_points

    def test_cancelling_shutdown_interrupts_but_keeps_prefix(self, tmp_path):
        store_path = str(tmp_path / "hard.jsonl")
        svc = ServiceThread(store_path).start()
        client = ServiceClient(svc.host, svc.port)
        response = client.submit(slow_spec_dict(name="hardstop"), workers=1)
        job_id = response["job_id"]
        # wait for the first point so the run is demonstrably in flight
        for _eid, name, _data in client.stream(job_id, timeout=120):
            if name in ("point", "done", "failed", "cancelled"):
                break
        svc.stop(drain=False)
        job = svc.service.manager.jobs[job_id]
        assert job.state in ("cancelled", "done")
        # whatever was flushed must be a loadable, clean store
        reference = ResultStore(store_path)
        assert len(reference) <= job.n_points

    def test_submission_while_draining_rejected(self, tmp_path):
        svc = ServiceThread(str(tmp_path / "x.jsonl")).start()
        try:
            manager = svc.service.manager
            manager.shutdown(drain=True)
            with pytest.raises(ServiceUnavailable):
                manager.submit({"spec": spec_dict()})
        finally:
            svc.stop()


class TestConcurrentStreams:
    def test_eight_concurrent_sse_clients_see_identical_streams(self, service):
        _svc, client = service
        response = client.submit(slow_spec_dict(name="fanout"), workers=1)
        job_id = response["job_id"]
        n_clients = 8
        streams = [None] * n_clients
        errors = []

        def consume(slot):
            try:
                own = ServiceClient(client.host, client.port)
                streams[slot] = [
                    (eid, name, data.get("index"), data.get("key"))
                    for eid, name, data in own.stream(job_id, timeout=120)
                ]
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=consume, args=(slot,))
                   for slot in range(n_clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=180)
        assert not errors
        assert all(stream is not None for stream in streams)
        # identical event sequences for every client, replay included
        assert all(stream == streams[0] for stream in streams[1:])
        terminal = streams[0][-1]
        assert terminal[1] == "done"


class TestModuleCli:
    """python -m repro.service submit — the scriptable front door CI uses."""

    def _spec_file(self, tmp_path, name="cli-spec"):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_dict(name=name)))
        return str(path)

    def test_submit_follows_to_done(self, service, tmp_path, capsys):
        from repro.service.__main__ import main

        svc, _client = service
        rc = main(["submit", "--host", svc.host, "--port", str(svc.port),
                   "--spec", self._spec_file(tmp_path), "--workers", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "created (4 points)" in out
        assert "point 4/4" in out
        assert "done:" in out and "4 computed" in out

    def test_submit_no_follow(self, service, tmp_path, capsys):
        from repro.service.__main__ import main

        svc, client = service
        rc = main(["submit", "--host", svc.host, "--port", str(svc.port),
                   "--spec", self._spec_file(tmp_path, name="nf"),
                   "--no-follow"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "point 1/" not in out  # no event streaming happened
        # the job still runs to completion server-side
        job_id = out.split()[1].rstrip(":")
        assert client.wait(job_id)["state"] == "done"

    def test_submit_missing_spec_file_exits_2(self, service, capsys):
        from repro.service.__main__ import main

        svc, _client = service
        rc = main(["submit", "--host", svc.host, "--port", str(svc.port),
                   "--spec", "/no/such/spec.json"])
        assert rc == 2
        assert "error: cannot read sweep spec" in capsys.readouterr().err

    def test_submit_invalid_json_spec_exits_2(self, service, tmp_path, capsys):
        from repro.service.__main__ import main

        svc, _client = service
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        rc = main(["submit", "--host", svc.host, "--port", str(svc.port),
                   "--spec", str(bad)])
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err
        bad.write_bytes(b'{"name": "\xff\xfe"}')
        rc = main(["submit", "--host", svc.host, "--port", str(svc.port),
                   "--spec", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sweep spec") and "not UTF-8" in err

    @pytest.mark.parametrize("variant", KERNEL_VARIANTS)
    def test_serve_accepts_every_kernel_variant(self, variant):
        from repro.service.__main__ import build_parser

        args = build_parser().parse_args(
            ["serve", "--kernel-variant", variant])
        assert args.kernel_variant == variant

    def test_submit_requires_exactly_one_spec_source(self, capsys):
        from repro.service.__main__ import main

        rc = main(["submit", "--smoke", "--paper"])
        assert rc == 2
        assert "exactly one of" in capsys.readouterr().err

    def test_non_positive_workers_exit_2(self, tmp_path, capsys):
        from repro.service.__main__ import main

        # Rejected before any server starts or any connection is made.
        for workers in ("0", "-1"):
            for argv in (
                ["serve", "--port", "0", "--store",
                 str(tmp_path / "store.jsonl")],
                ["submit", "--smoke"],
            ):
                assert main(argv + ["--workers", workers]) == 2
                err = capsys.readouterr().err
                assert err.startswith("error: --workers must be >= 1")
        assert not (tmp_path / "store.jsonl").exists()

    def test_submit_unreachable_service_exits_2(self, tmp_path, capsys):
        from repro.service.__main__ import main

        # a port nothing listens on: grab one and close it
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        rc = main(["submit", "--host", "127.0.0.1", "--port", str(port),
                   "--spec", self._spec_file(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
