"""Design-space exploration: grids, sharded execution, cached results.

The sweep subsystem turns the single-run engine into the paper's evaluation
methodology at scale:

* :mod:`repro.sweep.grid` — declarative :class:`SweepSpec` expanded into
  content-addressed :class:`ExperimentPoint` grids;
* :mod:`repro.sweep.runner` — :func:`run_sweep` shards points over worker
  processes with deterministic results, incremental expansion-order
  flushing, and :class:`~repro.exec.RetryPolicy`-driven retry/timeout/
  backoff fault handling (see :mod:`repro.faults` for the matching
  injection harness);
* :mod:`repro.sweep.store` — append-only JSON-lines :class:`ResultStore`
  keyed by content hash, giving free re-runs and resumable sweeps;
* :mod:`repro.sweep.report` — paper-style IPC / communication tables as
  markdown and CSV;
* :mod:`repro.sweep.cli` — the ``python -m repro.sweep`` command.
"""

from repro.sweep.grid import ExperimentPoint, SweepSpec, paper_spec, smoke_spec
from repro.sweep.report import build_tables, load_rows, render_markdown, write_report
from repro.sweep.runner import (
    FailureRecord,
    SweepInterrupted,
    SweepSummary,
    default_workers,
    execute_point,
    run_sweep,
)
from repro.sweep.store import ResultStore

__all__ = [
    "ExperimentPoint",
    "FailureRecord",
    "ResultStore",
    "SweepInterrupted",
    "SweepSpec",
    "SweepSummary",
    "build_tables",
    "default_workers",
    "execute_point",
    "load_rows",
    "paper_spec",
    "render_markdown",
    "run_sweep",
    "smoke_spec",
    "write_report",
]
