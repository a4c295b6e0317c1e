"""``python -m repro.fabric`` — run a sweep across local + peer backends.

Subcommands::

    run     expand a spec (JSON file, --smoke, or --paper), shard its
            pending points, and compute them across the local pool and/or
            remote sweep services, merging results deterministically into
            the store
    probe   one liveness check per configured backend

The merged store is byte-identical to what ``python -m repro.sweep run``
would have produced on one host — peers only change wall-clock, never
bytes.  Exit conventions match the sweep CLI: 0 on success, 1 when the
fabric gave up on a shard (:class:`~repro.common.errors.FabricError`; the
merged prefix is durable, re-run to resume), 2 for input/configuration
errors, 130 on interrupt.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from typing import List, Optional

from repro.common.errors import FabricError, ReproError
from repro.exec.attempts import RetryPolicy
from repro.fabric.backends import LocalBackend, PeerBackend, RunnerBackend
from repro.fabric.scheduler import DEFAULT_SHARD_SIZE, FabricCoordinator
from repro.sweep.cli import (
    DEFAULT_STORE,
    add_spec_args,
    load_spec,
    print_failures,
)
from repro.sweep.store import ResultStore

DEFAULT_PEER_PORT = 8765


def _parse_peer(value: str) -> "tuple[str, int]":
    host, sep, port_text = value.rpartition(":")
    if not sep:
        return value, DEFAULT_PEER_PORT
    try:
        port = int(port_text)
        if not (0 < port < 65536):
            raise ValueError
    except ValueError:
        raise ReproError(
            f"--peer {value!r}: expected HOST or HOST:PORT with a valid port"
        ) from None
    return host or "localhost", port


def _build_backends(args: argparse.Namespace,
                    scratch_dir: str) -> List[RunnerBackend]:
    backends: List[RunnerBackend] = []
    if not args.no_local:
        backends.append(LocalBackend(
            scratch_dir=scratch_dir,
            workers=args.local_workers,
            policy=RetryPolicy(
                max_attempts=args.retries + 1,
                backoff_s=args.backoff,
                timeout_s=args.timeout,
            ),
        ))
    for value in args.peer or ():
        host, port = _parse_peer(value)
        backends.append(PeerBackend(
            host, port,
            timeout=args.rpc_timeout,
            retries=args.retries,
            backoff_s=args.backoff,
        ))
    if not backends:
        raise ReproError(
            "no backends: --no-local requires at least one --peer"
        )
    return backends


def _cmd_run(args: argparse.Namespace) -> int:
    spec = load_spec(args)
    if args.energy:
        # Peers see the already-folded spec.
        spec = spec.with_energy()
    store = ResultStore(args.store)
    if store.recovered_bytes:
        print(f"store: recovered truncated tail "
              f"({store.recovered_bytes} bytes dropped)")
    scratch_dir = tempfile.mkdtemp(prefix="repro-fabric-")
    try:
        coordinator = FabricCoordinator(
            _build_backends(args, scratch_dir),
            shard_size=args.shard_size,
            lease_timeout_s=args.lease_timeout,
            max_inflight_shards=args.max_inflight_shards,
            checkpoint_path=args.checkpoint,
            checkpoint_interval_s=args.checkpoint_interval,
            log=print if args.verbose else None,
        )
        print(
            f"fabric: spec {spec.name!r} -> {args.store} via "
            + ", ".join(b.describe() for b in coordinator.backends)
        )
        try:
            summary = coordinator.run(spec, store)
        except FabricError as exc:
            print(f"fabric failed: {exc}", file=sys.stderr)
            if exc.summary is not None:
                print_failures(exc.summary)
            print(
                "the merged prefix is durable — re-run the same command "
                "to resume",
                file=sys.stderr,
            )
            return 1
        print(summary.describe())
        for name, stats in sorted(summary.backends.items()):
            print(
                f"  {name}: {stats['shards_completed']} shard(s), "
                f"state {stats['state']} "
                f"({stats['n_successes']} ok / {stats['n_failures']} failed, "
                f"inflight {stats['inflight_leases']}/{stats['max_inflight']})"
            )
        return 0
    finally:
        shutil.rmtree(scratch_dir, ignore_errors=True)


def _cmd_probe(args: argparse.Namespace) -> int:
    args.no_local = not args.local
    args.local_workers = None
    args.retries = 1
    args.backoff = 0.1
    args.timeout = None
    scratch_dir = tempfile.mkdtemp(prefix="repro-fabric-probe-")
    try:
        backends = _build_backends(args, scratch_dir)
        coordinator = FabricCoordinator(
            backends, max_inflight_shards=args.max_inflight_shards,
        )
        counts = coordinator.lease_counts()
        all_up = True
        for backend in backends:
            up = backend.probe()
            all_up = all_up and up
            print(f"{backend.name}: {'up' if up else 'DOWN'} "
                  f"({backend.describe()}; inflight "
                  f"{counts[backend.name]}/{coordinator.max_inflight_shards})")
        return 0 if all_up else 1
    finally:
        shutil.rmtree(scratch_dir, ignore_errors=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fabric",
        description=__doc__.splitlines()[0],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="shard a spec across local + peer backends"
    )
    add_spec_args(run_p)
    run_p.add_argument("--store", default=DEFAULT_STORE,
                       help="merged (coordinator-side) result store")
    run_p.add_argument("--peer", action="append", metavar="HOST[:PORT]",
                       help="remote sweep service to federate with "
                            f"(repeatable; default port {DEFAULT_PEER_PORT})")
    run_p.add_argument("--no-local", action="store_true",
                       help="dispatch to peers only (no local pool backend)")
    run_p.add_argument("--local-workers", type=int, default=None,
                       help="worker processes for the local backend")
    run_p.add_argument("--shard-size", type=int, default=DEFAULT_SHARD_SIZE,
                       help="max points per dispatched shard "
                            f"(default {DEFAULT_SHARD_SIZE})")
    run_p.add_argument("--lease-timeout", type=float, default=60.0,
                       help="seconds without a heartbeat before a shard's "
                            "lease expires and it is requeued (default 60)")
    run_p.add_argument("--max-inflight-shards", type=int, default=1,
                       metavar="N",
                       help="leases each backend may hold at once (work-"
                            "stealing pipelining; default 1 = one shard "
                            "per backend)")
    run_p.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="coordinator checkpoint file: periodically "
                            "snapshot run state so a replacement "
                            "coordinator started on the same store + "
                            "checkpoint resumes mid-run (default: off)")
    run_p.add_argument("--checkpoint-interval", type=float, default=5.0,
                       metavar="S",
                       help="seconds between checkpoint snapshots "
                            "(default 5; merges always snapshot "
                            "immediately)")
    run_p.add_argument("--retries", type=int, default=2,
                       help="transient-error retries per RPC / per failing "
                            "point (default 2)")
    run_p.add_argument("--rpc-timeout", type=float, default=60.0,
                       help="socket timeout per peer RPC in seconds "
                            "(default 60)")
    run_p.add_argument("--timeout", type=float, default=None,
                       help="per-point timeout for the local backend "
                            "(default: none)")
    run_p.add_argument("--backoff", type=float, default=0.1,
                       help="base retry backoff in seconds, doubling per "
                            "attempt (default 0.1; deterministic)")
    run_p.add_argument("--energy", action="store_true",
                       help="enable the per-event energy model on every "
                            "point (energy points have their own cache keys)")
    run_p.add_argument("--verbose", action="store_true",
                       help="log dispatch, requeue, and merge decisions")
    run_p.set_defaults(func=_cmd_run)

    probe_p = sub.add_parser("probe", help="liveness-check the backends")
    probe_p.add_argument("--peer", action="append", metavar="HOST[:PORT]",
                         help="remote sweep service (repeatable)")
    probe_p.add_argument("--local", action="store_true",
                         help="include the (always-up) local backend")
    probe_p.add_argument("--rpc-timeout", type=float, default=5.0,
                         help="probe timeout in seconds (default 5)")
    probe_p.add_argument("--max-inflight-shards", type=int, default=1,
                         metavar="N",
                         help="lease cap to report against (matches run)")
    probe_p.set_defaults(func=_cmd_probe)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print(
            "interrupted — merged shards are durable; re-run the same "
            "command to resume",
            file=sys.stderr,
        )
        return 130


__all__ = ["build_parser", "main"]
