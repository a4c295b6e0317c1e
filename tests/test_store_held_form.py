"""The store holds each record once, as its line, and appends through one
descriptor.

:class:`~repro.sweep.store.ResultStore` keeps every live record as the
exact bytes of its store line and parses on demand, so what it holds is
about the size of the file, a reader gets a fresh dict it may change, and
the service serves the held bytes as they are.  Appends reuse one
``O_APPEND`` descriptor that :meth:`~ResultStore.close` releases, and the
service's job table keeps its report rows as points complete instead of
re-reading the job's records for every ``table`` event.
"""

import os
import tracemalloc

import pytest

from repro.common.jsonutil import canonical_json
from repro.service import ServiceClient, ServiceThread
from repro.sweep.grid import SweepSpec
from repro.sweep.report import relative_ipc_table, rows_from_records
from repro.sweep.runner import run_sweep
from repro.sweep.store import ResultStore

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "store.jsonl")


def record(key, value=0):
    return {"key": key, "value": value, "nested": {"list": [1, 2, value]}}


def spec_dict(name="held", seeds=(1, 2, 3, 4)):
    return SweepSpec(
        name=name,
        topologies=("ring", "conv"),
        cluster_counts=(2,),
        steerings=("dependence",),
        mixes=("int_heavy",),
        n_instructions=300,
        seeds=seeds,
    ).to_dict()


def open_fds():
    return len(os.listdir("/proc/self/fd"))


class TestHeldForm:
    def test_golden_store_is_held_in_at_most_twice_its_size(self):
        size = os.path.getsize(GOLDEN)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            store = ResultStore(GOLDEN)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(store) == 80
        assert held <= 2 * size, (held, size)

    def test_held_lines_are_the_file_bytes(self):
        store = ResultStore(GOLDEN)
        with open(GOLDEN, "rb") as fh:
            assert b"".join(store.line(key) for key in store.keys()) == \
                fh.read()

    def test_get_and_records_return_fresh_dicts(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        store = ResultStore(path)
        store.append(record("a", 1))
        got = store.get("a")
        got["value"] = 99
        got["nested"]["list"].append(7)
        next(store.records())["nested"]["list"].clear()
        store.read_record("a")["value"] = -1
        assert store.get("a") == record("a", 1)
        assert store.line("a") == (canonical_json(record("a", 1)) +
                                   "\n").encode()
        with open(path, "rb") as fh:
            assert fh.read() == store.line("a")

    def test_line_follows_another_writer(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        reader = ResultStore(path)
        ResultStore(path).append(record("a", 1))
        assert reader.get("a") is None
        assert reader.line("a") == (canonical_json(record("a", 1)) +
                                    "\n").encode()
        assert reader.line("missing") is None


class TestAppendDescriptor:
    def test_append_after_compact_lands_in_the_new_file(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        store = ResultStore(path)
        store.append(record("a", 1))
        store.append(record("a", 2))
        store.append(record("b", 3))
        assert store.compact() == 1
        store.append(record("c", 4))
        store.commit()
        reloaded = ResultStore(path)
        assert reloaded.keys() == ["a", "b", "c"]
        assert reloaded.physical_records == 3
        assert reloaded.get("a") == record("a", 2)
        with open(path, "rb") as fh:
            assert fh.read() == b"".join(store.line(k) for k in "abc")

    def test_append_after_another_writer_compacts_lands_in_the_new_file(
            self, tmp_path):
        # The writer's descriptor is open on the file another store object
        # (another process, in practice) replaces; later appends must go
        # to the file the path names, and stay there across a reload.
        path = str(tmp_path / "s.jsonl")
        writer = ResultStore(path)
        writer.append(record("a", 1))
        writer.append(record("a", 2))
        assert ResultStore(path).compact() == 1
        writer.append(record("b", 3))
        writer.commit()
        assert ResultStore(path).keys() == ["a", "b"]
        assert writer.line("missing") is None  # the size check reloads
        assert writer.get("b") == record("b", 3)
        writer.close()

    def test_append_after_tail_repair_follows_the_cut(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        store = ResultStore(path)
        store.append(record("a", 1))
        with open(path, "ab") as fh:
            fh.write(b'{"key": "torn"')
        store.load()
        store.append(record("b", 2))
        store.close()
        with open(path, "rb") as fh:
            assert fh.read() == store.line("a") + store.line("b")

    def test_close_commits_and_the_store_stays_usable(self, tmp_path,
                                                      monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: synced.append(fd) or real_fsync(fd))
        path = str(tmp_path / "s.jsonl")
        store = ResultStore(path)
        fds = open_fds()
        store.append(record("a", 1))
        assert open_fds() == fds + 1
        store.close()
        assert len(synced) == 1 and open_fds() == fds
        store.close()
        store.append(record("b", 2))
        store.close()
        assert len(synced) == 2 and open_fds() == fds
        assert ResultStore(path).keys() == ["a", "b"]

    def test_fifty_sweeps_on_one_store_leave_no_descriptor_open(
            self, tmp_path):
        # The service's pattern: one long-lived store, one sweep per job.
        points = SweepSpec.from_dict(spec_dict(seeds=(1, 2))).expand()
        store = ResultStore(str(tmp_path / "s.jsonl"))
        # A first pool sweep opens what multiprocessing keeps for the
        # process (the shared-memory arena); count from after it.
        run_sweep(points, store, workers=2)
        fds = open_fds()
        for n in range(50):
            run_sweep(points, store, workers=1 + n % 2, force=True)
            assert open_fds() == fds, n
        assert store.physical_records == 51 * len(points)


@pytest.fixture
def service(tmp_path):
    svc = ServiceThread(str(tmp_path / "store.jsonl"), sweep_workers=1)
    svc.start()
    try:
        yield svc, ServiceClient(svc.host, svc.port)
    finally:
        svc.stop()


class TestServedBytes:
    def test_results_are_the_store_file_after_callers_mutate_records(
            self, service):
        svc, client = service
        job_id = client.submit(spec_dict(), workers=1)["job_id"]
        assert client.wait(job_id)["state"] == "done"
        store = svc.service.manager.store
        for key in store.keys():
            store.get(key)["result"]["cycles"] = -1
        with open(store.path, "rb") as fh:
            file_bytes = fh.read()
        assert client.job_results(job_id) == file_bytes
        assert b"".join(client.result(key) for key in store.keys()) == \
            file_bytes

    def test_table_events_parse_each_record_at_most_once(self, service,
                                                         monkeypatch):
        svc, client = service
        manager = svc.service.manager
        manager.table_every = 1
        parsed = []
        real_get = ResultStore.get

        def counting(self, key, default=None):
            got = real_get(self, key, default)
            if got is not None:
                parsed.append(key)
            return got

        monkeypatch.setattr(ResultStore, "get", counting)
        job_id = client.submit(spec_dict(), workers=1)["job_id"]
        assert client.wait(job_id)["state"] == "done"
        # Computed records reach the table as the runner hands them over.
        assert parsed == []
        job = manager.get(job_id)
        records = [real_get(manager.store, key) for key in job.point_keys]
        tables = [data for _id, kind, data in job.broadcaster.history()
                  if kind == "table"]
        # One per completed point, plus the final one.
        assert [t["n_done"] for t in tables] == \
            list(range(1, len(records) + 1)) + [len(records)]
        for table in tables:
            done = records[:table["n_done"]]
            assert table["markdown"] == relative_ipc_table(
                rows_from_records(done)).to_markdown()
        # A resubmission is all cache hits: each record is parsed once.
        assert client.submit(spec_dict(), workers=1)["job_id"] == job_id
        assert client.wait(job_id)["state"] == "done"
        assert sorted(parsed) == sorted(job.point_keys)
