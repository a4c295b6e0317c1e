"""``python -m repro.service`` — serve the sweep job API, or talk to one.

Subcommands::

    serve    run the HTTP service until SIGINT/SIGTERM; shutdown drains
             queued and in-flight jobs before exiting
    submit   submit a spec (JSON file, --smoke, or --paper) to a running
             service and follow its SSE stream to completion

``submit`` exits 0 when the job completes, 1 when it fails, 3 when it was
cancelled server-side — scriptable enough for the CI smoke job, which
drives the whole service lifecycle through this command and the blocking
:class:`~repro.service.client.ServiceClient` underneath it.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from typing import List, Optional

from repro.common.errors import ReproError
from repro.service.client import ServiceClient
from repro.service.server import SweepService
from repro.sweep.cli import (
    DEFAULT_STORE,
    add_spec_args,
    check_workers,
    load_spec,
)

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765


async def _serve_async(args: argparse.Namespace) -> int:
    service = SweepService(
        store_path=args.store,
        host=args.host,
        port=args.port,
        sweep_workers=args.workers,
        kernel_variant=args.kernel_variant,
        log=print,
    )
    await service.start()
    loop = asyncio.get_running_loop()

    def _on_signal() -> None:
        # Second signal cancels instead of draining: the interrupt path
        # still flushes each job's frontier, so nothing finished is lost.
        drain = not service._shutting_down
        asyncio.ensure_future(service.shutdown(drain=drain))

    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, _on_signal)
    await service.serve_forever()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    check_workers(args.workers)
    return asyncio.run(_serve_async(args))


def _cmd_submit(args: argparse.Namespace) -> int:
    check_workers(args.workers)
    # ``--energy`` travels as a job option: the service folds it into the
    # spec (the same fold as the other CLIs) before digesting the job id.
    spec = load_spec(args).to_dict()
    client = ServiceClient(args.host, args.port, timeout=args.timeout)
    options = {}
    if args.workers is not None:
        options["workers"] = args.workers
    if args.energy:
        options["energy"] = True
    response = client.submit(spec, **options)
    job_id = response["job_id"]
    print(f"job {job_id}: {response['disposition']} "
          f"({response['job']['n_points']} points)")
    if not args.follow:
        return 0
    for event_id, name, data in client.stream(job_id, timeout=args.timeout):
        if name == "point":
            print(f"  [{event_id}] point {data['n_done']}/{data['n_points']} "
                  f"{data.get('mix')}/{data.get('topology')}"
                  f"x{data.get('n_clusters')}/{data.get('steering')} "
                  f"ipc={data.get('ipc', 0.0):.4f}")
        elif name in ("done", "failed", "cancelled"):
            summary = data.get("summary") or {}
            print(f"  [{event_id}] {name}: "
                  f"{summary.get('describe', data.get('error', ''))}")
        else:
            print(f"  [{event_id}] {name}")
    status = client.job(job_id)
    state = status["state"]
    print(f"job {job_id}: {state}")
    if state == "done":
        return 0
    if state == "cancelled":
        return 3
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description=__doc__.splitlines()[0],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve_p = sub.add_parser("serve", help="run the sweep job API server")
    serve_p.add_argument("--host", default=DEFAULT_HOST)
    serve_p.add_argument("--port", type=int, default=DEFAULT_PORT,
                         help=f"listen port (default {DEFAULT_PORT}; "
                              "0 picks a free port)")
    serve_p.add_argument("--store", default=DEFAULT_STORE,
                         help="result store the service owns "
                              f"(default {DEFAULT_STORE})")
    serve_p.add_argument("--workers", type=int, default=None,
                         help="default sweep worker processes per job")
    serve_p.add_argument("--kernel-variant", default=None,
                         choices=("generic", "specialized"),
                         help="default simulation kernel for jobs")
    serve_p.set_defaults(func=_cmd_serve)

    submit_p = sub.add_parser("submit",
                              help="submit a spec to a running service")
    submit_p.add_argument("--host", default=DEFAULT_HOST)
    submit_p.add_argument("--port", type=int, default=DEFAULT_PORT)
    add_spec_args(submit_p)
    submit_p.add_argument("--workers", type=int, default=None)
    submit_p.add_argument("--energy", action="store_true",
                          help="enable the per-event energy model")
    submit_p.add_argument("--timeout", type=float, default=600.0,
                          help="client-side wait timeout in seconds")
    submit_p.add_argument("--no-follow", dest="follow", action="store_false",
                          help="submit and exit without streaming events")
    submit_p.set_defaults(func=_cmd_submit, follow=True)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
