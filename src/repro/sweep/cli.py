"""``python -m repro.sweep`` — run, report on, and inspect sweeps.

Subcommands::

    run      expand a spec (JSON file, --smoke, or --paper) and compute every
             point not already in the store, sharded across worker processes
             with retry/timeout/backoff fault handling
    report   aggregate the store into paper-style markdown + CSV tables
    list     print one line per stored result (or the registered mixes)
    compact  rewrite the store with one line per live key (last-wins)

The store is a JSON-lines file (default ``sweeps/store.jsonl``); re-running
any spec against the same store only computes missing points.  Completed
records are flushed incrementally in expansion order, so an interrupted or
crashed run keeps its finished prefix — re-run the same command to resume
(exit status 130 marks an interrupt, 1 a run with permanently-failed
points).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.common.errors import ReproError
from repro.exec.attempts import RetryPolicy
from repro.sweep.grid import SweepSpec, paper_spec, smoke_spec
from repro.sweep.report import build_tables, load_rows, write_report
from repro.sweep.runner import (
    SweepInterrupted,
    SweepSummary,
    default_workers,
    run_sweep,
)
from repro.sweep.store import ResultStore
from repro.workloads import list_mixes

DEFAULT_STORE = "sweeps/store.jsonl"
DEFAULT_REPORT_DIR = "sweeps/report"


def add_spec_args(parser: argparse.ArgumentParser) -> None:
    """The spec-source flags every CLI shares (see :func:`load_spec`)."""
    parser.add_argument("--spec", help="JSON sweep spec file")
    parser.add_argument("--smoke", action="store_true",
                        help="built-in 24-point CI grid")
    parser.add_argument("--paper", action="store_true",
                        help="built-in full paper-style grid")


def load_spec(args: argparse.Namespace) -> SweepSpec:
    """The spec chosen by :func:`add_spec_args`' flags — the one spec
    loader of the sweep, service and fabric CLIs."""
    chosen = [bool(args.spec), args.smoke, args.paper]
    if sum(chosen) != 1:
        raise ReproError(
            "choose exactly one of --spec FILE, --smoke, --paper"
        )
    if args.smoke:
        return smoke_spec()
    if args.paper:
        return paper_spec()
    # A missing/unreadable file or malformed JSON is an *input* problem, not
    # a bug: surface it as a ReproError so main() prints a clean one-line
    # ``error: ...`` and exits 2 instead of dumping a traceback.
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ReproError(f"cannot read sweep spec {args.spec!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ReproError(
            f"sweep spec {args.spec!r} is not UTF-8 text: {exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise ReproError(
            f"sweep spec {args.spec!r} is not valid JSON: {exc}"
        ) from exc
    return SweepSpec.from_dict(data)


def check_workers(value: Optional[int], flag: str = "--workers") -> None:
    """Reject a worker count below 1 given on the command line (the sweep,
    fabric and service CLIs); :func:`run_sweep` itself clamps it to 1."""
    if value is not None and value < 1:
        raise ReproError(f"{flag} must be >= 1, got {value}")


def print_failures(summary: SweepSummary) -> None:
    """One ``FAILED <label>: ...`` line per permanently failed point, on
    stderr (the sweep and fabric CLIs share the failure schema)."""
    for failure in summary.failures.values():
        print(
            f"FAILED {failure.label}: {failure.error}: "
            f"{failure.message} ({failure.attempts} attempt(s), "
            f"{failure.elapsed_s:.2f}s)",
            file=sys.stderr,
        )


def _cmd_run(args: argparse.Namespace) -> int:
    check_workers(args.workers)
    spec = load_spec(args)
    if args.energy:
        spec = spec.with_energy()
    points = spec.expand()
    store = ResultStore(args.store)
    if store.recovered_bytes:
        print(f"store: recovered truncated tail "
              f"({store.recovered_bytes} bytes dropped)")
    print(f"spec {spec.name!r}: {len(points)} points -> {args.store}")
    policy = RetryPolicy(
        max_attempts=args.retries + 1,
        backoff_s=args.backoff,
        timeout_s=args.timeout,
    )
    try:
        summary = run_sweep(
            points, store,
            workers=args.workers,
            force=args.force,
            log=print if args.verbose else None,
            policy=policy,
        )
    except SweepInterrupted as exc:
        print(exc.summary.describe())
        print(
            "interrupted — finished points are flushed to the store; "
            "re-run the same command to resume",
            file=sys.stderr,
        )
        return 130
    print(summary.describe())
    if summary.failures:
        print_failures(summary)
        print(
            f"{len(summary.failures)} point(s) permanently failed; the "
            "store keeps the clean prefix before the first failure — "
            "re-run the same command to resume once the cause is fixed",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    if not len(store):
        print(f"store {args.store!r} is empty; run a sweep first",
              file=sys.stderr)
        return 1
    tables = build_tables(load_rows(store))
    paths = write_report(store, args.out, tables=tables)
    # The headline tables go to stdout; the files carry the rest.
    for table in tables:
        if table.slug in ("ring_vs_conv", "epi_vs_clusters"):
            print(table.to_markdown())
            print()
    for name in sorted(paths):
        print(f"wrote {paths[name]}")
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    if store.recovered_bytes:
        print(f"store: dropping truncated tail "
              f"({store.recovered_bytes} bytes)")
    dropped = store.compact()
    print(
        f"compacted {args.store}: {len(store)} live record(s), "
        f"{dropped} shadowed duplicate line(s) dropped"
    )
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    if args.mixes:
        for name in list_mixes():
            print(name)
        return 0
    store = ResultStore(args.store)
    for record in store.records():
        point = record["point"]
        config = point["config"]
        result = record["result"]
        cycles = result["cycles"]
        n = result["n_instructions"]
        ipc = n / cycles if cycles else 0.0
        print(
            f"{record['key']}  {point['mix']:<13s} "
            f"{config['topology']:<4s} x{config['n_clusters']:<2d} "
            f"{config['steering']:<12s} seed={point['seed']:<6d} "
            f"n={n:<8d} ipc={ipc:.4f}"
        )
    print(f"{len(store)} record(s) in {args.store}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description=__doc__.splitlines()[0],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="expand a spec and compute its points")
    add_spec_args(run_p)
    run_p.add_argument("--store", default=DEFAULT_STORE)
    run_p.add_argument("--workers", type=int, default=None,
                       help=f"worker processes (default {default_workers()})")
    run_p.add_argument("--force", action="store_true",
                       help="recompute cached points (records are appended "
                            "again, last-wins on reload; run `compact` to "
                            "deduplicate the store file afterwards)")
    run_p.add_argument("--retries", type=int, default=2,
                       help="retries per failing point beyond the first "
                            "attempt (default 2); the final permitted "
                            "attempt runs in-process as graceful "
                            "degradation")
    run_p.add_argument("--timeout", type=float, default=None,
                       help="per-point timeout in seconds for attempts "
                            "on worker processes, counted from when the "
                            "worker starts the point (default: none); a "
                            "timed-out point is retried and only its hung "
                            "worker is replaced.  Worker deaths are "
                            "detected without a timeout")
    run_p.add_argument("--backoff", type=float, default=0.1,
                       help="base backoff seconds before a retry, doubling "
                            "per further attempt (default 0.1; "
                            "deterministic, no jitter)")
    run_p.add_argument("--energy", action="store_true",
                       help="enable the per-event energy model (default "
                            "costs) on every point; energy-enabled points "
                            "have their own cache keys")
    run_p.add_argument("--verbose", action="store_true",
                       help="log every computed point")
    run_p.set_defaults(func=_cmd_run)

    report_p = sub.add_parser("report", help="write markdown + CSV tables")
    report_p.add_argument("--store", default=DEFAULT_STORE)
    report_p.add_argument("--out", default=DEFAULT_REPORT_DIR)
    report_p.set_defaults(func=_cmd_report)

    list_p = sub.add_parser("list", help="print stored results (or mixes)")
    list_p.add_argument("--store", default=DEFAULT_STORE)
    list_p.add_argument("--mixes", action="store_true",
                        help="list registered workload mixes instead")
    list_p.set_defaults(func=_cmd_list)

    compact_p = sub.add_parser(
        "compact",
        help="rewrite the store with one line per live key (last-wins)",
        description="Deduplicate the append-only store file.  `run --force` "
                    "re-runs append a fresh record for every recomputed "
                    "key; on load the *last* appended record for a key "
                    "wins, and compaction rewrites the file keeping "
                    "exactly that last-wins view — shadowed duplicate "
                    "lines and any recovered truncated tail are dropped, "
                    "live results are never discarded.",
    )
    compact_p.add_argument("--store", default=DEFAULT_STORE)
    compact_p.set_defaults(func=_cmd_compact)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Ctrl-C outside run_sweep's managed window (expansion, reporting,
        # compaction) — nothing partial to save, just exit convention 130.
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # stdout went away (e.g. `... list | head`); exit quietly.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


__all__ = ["add_spec_args", "build_parser", "check_workers", "load_spec",
           "main", "print_failures"]
