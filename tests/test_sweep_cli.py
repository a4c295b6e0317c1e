"""``python -m repro.sweep`` CLI: run/report/list/compact wiring, --energy,
and the retry/timeout fault-handling flags."""

import json
import os

import pytest

from repro.faults import FaultPlan, clear_plan, install_plan
from repro.sweep.cli import main
from repro.sweep.grid import SweepSpec
from repro.sweep.store import ResultStore


def tiny_spec_file(tmp_path) -> str:
    spec = SweepSpec(
        name="tiny",
        topologies=("ring", "conv"),
        cluster_counts=(2,),
        steerings=("dependence",),
        mixes=("int_heavy",),
        n_instructions=200,
        seeds=(7,),
    )
    path = str(tmp_path / "spec.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec.to_dict(), fh)
    return path


class TestRun:
    def test_run_spec_file_and_cache_hits(self, tmp_path, capsys):
        spec = tiny_spec_file(tmp_path)
        store = str(tmp_path / "store.jsonl")
        assert main(["run", "--spec", spec, "--store", store,
                     "--workers", "1", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "2 points" in out
        assert len(ResultStore(store)) == 2
        assert main(["run", "--spec", spec, "--store", store,
                     "--workers", "1"]) == 0
        assert "2 cached, 0 computed" in capsys.readouterr().out

    def test_exactly_one_spec_source_required(self, tmp_path, capsys):
        assert main(["run", "--store", str(tmp_path / "s.jsonl")]) == 2
        assert "choose exactly one" in capsys.readouterr().err
        assert main(["run", "--smoke", "--paper",
                     "--store", str(tmp_path / "s.jsonl")]) == 2

    def test_missing_spec_file_clean_error(self, tmp_path, capsys):
        # Regression: used to dump a raw FileNotFoundError traceback.
        missing = str(tmp_path / "missing.json")
        assert main(["run", "--spec", missing,
                     "--store", str(tmp_path / "s.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read sweep spec")
        assert missing in err
        assert "Traceback" not in err

    def test_non_utf8_spec_file_clean_error(self, tmp_path, capsys):
        bad = str(tmp_path / "bad.json")
        with open(bad, "wb") as fh:
            fh.write(b"\xff\xfe{}")
        assert main(["run", "--spec", bad,
                     "--store", str(tmp_path / "s.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sweep spec")
        assert "not UTF-8" in err
        assert "Traceback" not in err

    def test_malformed_spec_file_clean_error(self, tmp_path, capsys):
        # Regression: used to dump a raw json.JSONDecodeError traceback.
        bad = str(tmp_path / "bad.json")
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write('{"name": "broken",')
        assert main(["run", "--spec", bad,
                     "--store", str(tmp_path / "s.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sweep spec")
        assert "not valid JSON" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("spec, field", [
        ([], "JSON object"),
        ({"mixes": 5}, "SweepSpec.mixes"),
        ({"seeds": 3}, "SweepSpec.seeds"),
        ({"steerings": "dependence"}, "SweepSpec.steerings"),
        ({"seeds": ["a"]}, "SweepSpec.seeds"),
        ({"cluster_counts": [True]}, "SweepSpec.cluster_counts"),
        ({"n_instructions": "200"}, "SweepSpec.n_instructions"),
    ])
    def test_malformed_spec_fields_clean_error(self, tmp_path, capsys,
                                               spec, field):
        # Regression: these ran the default grid, crashed with a TypeError
        # traceback, or failed every point at run time.
        bad = str(tmp_path / "bad.json")
        with open(bad, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        store = tmp_path / "s.jsonl"
        assert main(["run", "--spec", bad, "--store", str(store),
                     "--workers", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert field in err
        assert "Traceback" not in err
        assert not store.exists()

    def test_energy_flag_enables_model_on_every_point(self, tmp_path):
        spec = tiny_spec_file(tmp_path)
        store_path = str(tmp_path / "store.jsonl")
        assert main(["run", "--spec", spec, "--store", store_path,
                     "--workers", "1", "--energy"]) == 0
        records = list(ResultStore(store_path).records())
        assert records, "energy run stored nothing"
        for record in records:
            assert record["result"]["energy"]["total"] > 0
            assert record["point"]["config"]["energy"]["enabled"] is True

    def test_energy_points_have_distinct_cache_keys(self, tmp_path, capsys):
        spec = tiny_spec_file(tmp_path)
        store = str(tmp_path / "store.jsonl")
        assert main(["run", "--spec", spec, "--store", store,
                     "--workers", "1"]) == 0
        assert main(["run", "--spec", spec, "--store", store,
                     "--workers", "1", "--energy"]) == 0
        assert "0 cached, 2 computed" in capsys.readouterr().out
        assert len(ResultStore(store)) == 4


class TestReport:
    def test_report_empty_store_fails(self, tmp_path, capsys):
        assert main(["report", "--store", str(tmp_path / "none.jsonl"),
                     "--out", str(tmp_path / "report")]) == 1
        assert "empty" in capsys.readouterr().err

    def test_report_without_energy_has_no_energy_tables(self, tmp_path, capsys):
        spec = tiny_spec_file(tmp_path)
        store = str(tmp_path / "store.jsonl")
        out_dir = str(tmp_path / "report")
        main(["run", "--spec", spec, "--store", store, "--workers", "1"])
        assert main(["report", "--store", store, "--out", out_dir]) == 0
        stdout = capsys.readouterr().out
        assert "RING/CONV relative IPC" in stdout
        assert "Energy per instruction" not in stdout
        with open(os.path.join(out_dir, "report.md"), encoding="utf-8") as fh:
            assert "Energy per instruction" not in fh.read()
        assert not os.path.exists(os.path.join(out_dir, "epi_vs_clusters.csv"))

    def test_report_with_energy_emits_epi_tables(self, tmp_path, capsys):
        spec = tiny_spec_file(tmp_path)
        store = str(tmp_path / "store.jsonl")
        out_dir = str(tmp_path / "report")
        main(["run", "--spec", spec, "--store", store, "--workers", "1",
              "--energy"])
        assert main(["report", "--store", store, "--out", out_dir]) == 0
        assert "Energy per instruction vs cluster count" in \
            capsys.readouterr().out
        epi_csv = os.path.join(out_dir, "epi_vs_clusters.csv")
        with open(epi_csv, encoding="utf-8") as fh:
            lines = [line for line in fh.read().splitlines() if line]
        assert len(lines) > 1, "EPI table is empty"
        with open(os.path.join(out_dir, "report.md"), encoding="utf-8") as fh:
            report_md = fh.read()
        assert "Energy breakdown by steering policy" in report_md


class TestList:
    def test_list_store_and_mixes(self, tmp_path, capsys):
        spec = tiny_spec_file(tmp_path)
        store = str(tmp_path / "store.jsonl")
        main(["run", "--spec", spec, "--store", store, "--workers", "1"])
        assert main(["list", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "2 record(s)" in out
        assert "int_heavy" in out
        assert main(["list", "--mixes"]) == 0
        assert "memory_bound" in capsys.readouterr().out


class TestCompact:
    def test_compact_after_force_rerun_dedups(self, tmp_path, capsys):
        spec = tiny_spec_file(tmp_path)
        store = str(tmp_path / "store.jsonl")
        assert main(["run", "--spec", spec, "--store", store,
                     "--workers", "1"]) == 0
        assert main(["run", "--spec", spec, "--store", store,
                     "--workers", "1", "--force"]) == 0
        with open(store) as fh:
            assert len(fh.read().splitlines()) == 4
        capsys.readouterr()
        assert main(["compact", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "2 live record(s)" in out
        assert "2 shadowed duplicate line(s) dropped" in out
        with open(store) as fh:
            assert len(fh.read().splitlines()) == 2
        assert len(ResultStore(store)) == 2

    def test_compact_is_idempotent(self, tmp_path, capsys):
        spec = tiny_spec_file(tmp_path)
        store = str(tmp_path / "store.jsonl")
        main(["run", "--spec", spec, "--store", store, "--workers", "1"])
        assert main(["compact", "--store", store]) == 0
        capsys.readouterr()
        assert main(["compact", "--store", store]) == 0
        assert "0 shadowed duplicate line(s) dropped" in capsys.readouterr().out

    def test_compact_help_documents_last_wins(self, capsys):
        with pytest.raises(SystemExit):
            main(["compact", "--help"])
        help_text = capsys.readouterr().out
        assert "last-wins" in help_text
        assert "--force" in help_text


class TestFaultHandlingFlags:
    @pytest.fixture(autouse=True)
    def _clean_faults(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        clear_plan()
        yield
        clear_plan()

    def test_permanent_failure_exits_1_with_diagnostics(self, tmp_path, capsys):
        spec = tiny_spec_file(tmp_path)
        store = str(tmp_path / "store.jsonl")
        install_plan(FaultPlan(seed=1, rates={"exception": 1.0},
                               max_faults=5))
        assert main(["run", "--spec", spec, "--store", store,
                     "--workers", "1", "--retries", "0"]) == 1
        err = capsys.readouterr().err
        assert "FAILED" in err
        assert "InjectedFault" in err
        assert "re-run the same command" in err

    def test_retries_recover_from_transient_faults(self, tmp_path):
        spec = tiny_spec_file(tmp_path)
        store = str(tmp_path / "store.jsonl")
        # Every point faults exactly once; one retry absorbs it.
        install_plan(FaultPlan(seed=1, rates={"exception": 1.0},
                               max_faults=1))
        assert main(["run", "--spec", spec, "--store", store,
                     "--workers", "1", "--retries", "1",
                     "--backoff", "0"]) == 0
        assert len(ResultStore(store)) == 2

    def test_invalid_retry_flags_exit_2(self, tmp_path, capsys):
        spec = tiny_spec_file(tmp_path)
        store = str(tmp_path / "store.jsonl")
        assert main(["run", "--spec", spec, "--store", store,
                     "--workers", "1", "--timeout", "0"]) == 2
        assert "timeout_s" in capsys.readouterr().err
        for workers in ("0", "-1"):
            assert main(["run", "--spec", spec, "--store", store,
                         "--workers", workers]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: --workers must be >= 1")


@pytest.mark.parametrize("argv", [["run", "--smoke", "--workers", "1"]])
def test_smoke_spec_runs_end_to_end(tmp_path, argv, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--store", "store.jsonl"]) == 0
    assert len(ResultStore("store.jsonl")) == 24
