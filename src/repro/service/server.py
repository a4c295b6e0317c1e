"""Threaded HTTP/1.1 front end for the sweep subsystem.

Stdlib only: :class:`http.server.ThreadingHTTPServer` serves each
connection on its own thread, and a regex routing table maps a request to
a handler, a plain function of ``(query, body, **path groups)`` that
returns the response.  Every connection carries one request and is closed
after the response (``Connection: close``), except ``GET
/jobs/<id>/events`` which stays open streaming Server-Sent Events until
the job's run ends or the client disconnects.

Endpoints::

    GET  /                      service + endpoint discovery
    GET  /healthz               liveness probe
    POST /jobs                  submit a SweepSpec (schema-validated)
    GET  /jobs                  list jobs
    GET  /jobs/<id>             job status
    POST /jobs/<id>/cancel      cancel a queued/running job
    GET  /jobs/<id>/events      SSE: queued/running/point/table/terminal
    GET  /jobs/<id>/report      incremental tables (?format=md|csv&table=)
    GET  /jobs/<id>/results     a done job's store lines, in job order
    GET  /results/<key>         one store line, the bytes the store holds
    GET  /registry/steering     the steering-policy plugin registry
    GET  /registry/mixes        the workload-mix registry

Errors are structured JSON — ``{"error": {"code", "message"}}`` — with
conventional status codes (400 malformed/invalid, 404 unknown, 405 wrong
method, 413 oversized body, 414/431 oversize request line/header, 422
never: spec problems are 400s, 503 while draining).  The request line and
headers are parsed by :mod:`http.server`, whose own refusals take the same
JSON shape.  Graceful shutdown stops accepting connections, lets queued
and in-flight jobs drain through the job manager, and only then returns.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import traceback
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Pattern, Tuple,
    Union,
)
from urllib.parse import parse_qs, urlsplit

from repro.common.errors import ConfigurationError, ReproError
from repro.engine import native
from repro.engine.pipeline import resolve_kernel_variant
from repro.service import schemas
from repro.service.events import format_sse, is_terminal
from repro.service.jobs import (
    Job,
    JobManager,
    ServiceUnavailable,
    UnknownJob,
)
from repro.steering import STEERING_REGISTRY
from repro.sweep.report import build_tables, render_markdown, rows_from_records
from repro.workloads import MIX_REGISTRY

#: Request bodies above this are rejected with 413 — a sweep spec is a few
#: KB; anything megabyte-sized is a mistake or an attack.
MAX_BODY_BYTES = 1 << 20

#: Seconds a connection may stay silent while its request is read (the
#: socket timeout of every request thread).
REQUEST_TIMEOUT_S = 30.0

#: Longest the accept loop waits before it checks for a shutdown request
#: again.  :meth:`SweepService.shutdown` wakes it at once with a
#: connection of its own; this only bounds a wake-up that was lost.
_POLL_INTERVAL_S = 0.5

#: Error codes for the refusals :mod:`http.server` makes on its own.
_STDLIB_ERRORS = {
    400: "bad_request",
    414: "request_line_too_long",
    431: "headers_too_large",
    505: "version_not_supported",
}

#: Exceptions a handler may raise and the response each becomes; anything
#: else is a 500.
_ERRORS: Tuple[Tuple[type, int, str], ...] = (
    (ServiceUnavailable, 503, "draining"),
    (UnknownJob, 404, "unknown_job"),
    (schemas.SchemaError, 400, "invalid_request"),
    (ConfigurationError, 400, "invalid_spec"),
)

Query = Dict[str, List[str]]

#: ``(status, body, content type)``; a body that is not ``bytes`` is
#: streamed chunk by chunk until it ends.
Response = Tuple[int, Union[bytes, Iterable[bytes]], str]

Handler = Callable[..., Response]


class HttpError(ReproError):
    """A request problem with a definite status code and error code."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code


def _json(status: int, obj: Any) -> Response:
    payload = (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()
    return status, payload, "application/json"


def _error_response(exc: Exception) -> Response:
    """``exc`` as a JSON error response (see :data:`_ERRORS`)."""
    if not isinstance(exc, HttpError):
        status, code = next(
            ((status, code) for kind, status, code in _ERRORS
             if isinstance(exc, kind)), (500, "internal"))
        message = str(exc) if isinstance(exc, ReproError) \
            else f"{type(exc).__name__}: {exc}"
        exc = HttpError(status, code, message)
    return _json(exc.status, {
        "error": {"code": exc.code, "message": str(exc)},
    })


def _parse_json(body: bytes) -> Any:
    """The body as JSON; empty body reads as ``{}``.

    Whatever the parser refuses is a 400: bytes that are not UTF-8 or not
    JSON (``ValueError``, which both decode errors subclass), an integer
    literal past the interpreter's digit limit (also a ``ValueError``),
    and nesting past its recursion limit (``RecursionError``)."""
    if not body:
        return {}
    try:
        return json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise HttpError(400, "bad_json",
                        f"request body is not valid JSON: {exc}") from exc


def _param(query: Query, name: str,
           default: Optional[str] = None) -> Optional[str]:
    values = query.get(name)
    return values[0] if values else default


class _RequestHandler(BaseHTTPRequestHandler):
    """Reads one request, asks the :class:`SweepService` for the response
    and writes it."""

    protocol_version = "HTTP/1.1"
    # A request line without a version is answered as HTTP/1.1, so even a
    # refusal of a malformed one carries a status line.
    default_request_version = "HTTP/1.1"
    timeout = REQUEST_TIMEOUT_S
    server: "_Server"

    def __getattr__(self, name: str) -> Any:
        # Every method reaches the routing table, so a known path answers
        # 405 to a method it lacks, and an unknown one 404.
        if name.startswith("do_"):
            return self._dispatch
        raise AttributeError(name)

    def log_message(self, format: str, *args: Any) -> None:
        pass  # one line per request would drown the service log

    def send_error(self, code: int, message: Optional[str] = None,
                   explain: Optional[str] = None) -> None:
        """The refusals :mod:`http.server` makes itself, in the JSON error
        shape."""
        self._respond(*_json(code, {"error": {
            "code": _STDLIB_ERRORS.get(code, "bad_request"),
            "message": message or HTTPStatus(code).phrase,
        }}))

    def _read_body(self) -> bytes:
        if "chunked" in self.headers.get("Transfer-Encoding", "").lower():
            raise HttpError(501, "not_implemented",
                            "chunked request bodies are not supported")
        raw_length = self.headers.get("Content-Length")
        if raw_length is None:
            return b""
        try:
            length = int(raw_length)
            if length < 0:
                raise ValueError
        except ValueError:
            raise HttpError(400, "bad_request",
                            f"invalid Content-Length {raw_length!r}") from None
        try:
            if length > MAX_BODY_BYTES:
                # Drain what the client already pushed so its blocking
                # send() cannot deadlock against our unread buffer, then
                # refuse.  The drain is capped: a Content-Length lie
                # cannot hold the connection hostage.
                remaining = min(length, 8 * MAX_BODY_BYTES)
                while remaining > 0:
                    chunk = self.rfile.read1(min(65536, remaining))
                    if not chunk:
                        break
                    remaining -= len(chunk)
                raise HttpError(
                    413, "body_too_large",
                    f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit",
                )
            body = self.rfile.read(length)
        except socket.timeout:
            raise HttpError(408, "timeout",
                            "request body not received in time") from None
        if len(body) < length:
            raise HttpError(400, "bad_request",
                            "request body shorter than Content-Length")
        return body

    def _dispatch(self) -> None:
        try:
            response = self.server.service.respond(
                self.command, self.path, self._read_body())
        except ReproError as exc:
            response = _error_response(exc)
        except Exception as exc:  # a defect: log it, answer 500, serve on
            traceback.print_exc()
            response = _error_response(exc)
        try:
            self._respond(*response)
        except OSError:
            pass  # the client went away; nothing to answer

    def _respond(self, status: int, body: Union[bytes, Iterable[bytes]],
                 content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        if isinstance(body, bytes):
            self.send_header("Content-Length", str(len(body)))
        else:
            self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        for chunk in [body] if isinstance(body, bytes) else body:
            self.wfile.write(chunk)


class _Server(ThreadingHTTPServer):
    service: "SweepService"


class SweepService:
    """The HTTP application: routing table + job manager + store reads."""

    def __init__(
        self,
        store_path: str,
        host: str = "127.0.0.1",
        port: int = 0,
        sweep_workers: Optional[int] = None,
        kernel_variant: Optional[str] = None,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.manager = JobManager(
            store_path, sweep_workers=sweep_workers,
            kernel_variant=kernel_variant,
        )
        self.say = log if log is not None else (lambda _msg: None)
        self._httpd: Optional[_Server] = None
        self._lock = threading.Lock()
        self._shutting_down = False
        self._stopped = threading.Event()
        self._routes: List[Tuple[str, Pattern[str], Handler]] = [
            ("GET", re.compile(r"^/$"), self._r_index),
            ("GET", re.compile(r"^/healthz$"), self._r_health),
            ("POST", re.compile(r"^/jobs$"), self._r_submit),
            ("GET", re.compile(r"^/jobs$"), self._r_jobs),
            ("GET", re.compile(r"^/jobs/(?P<job_id>[0-9a-f]+)$"), self._r_job),
            ("POST", re.compile(r"^/jobs/(?P<job_id>[0-9a-f]+)/cancel$"),
             self._r_cancel),
            ("GET", re.compile(r"^/jobs/(?P<job_id>[0-9a-f]+)/events$"),
             self._r_events),
            ("GET", re.compile(r"^/jobs/(?P<job_id>[0-9a-f]+)/report$"),
             self._r_report),
            ("GET", re.compile(r"^/jobs/(?P<job_id>[0-9a-f]+)/results$"),
             self._r_job_results),
            ("GET", re.compile(r"^/results/(?P<key>[0-9a-f]+)$"),
             self._r_result),
            ("GET", re.compile(r"^/registry/steering$"), self._r_steering),
            ("GET", re.compile(r"^/registry/mixes$"), self._r_mixes),
        ]

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Start building the C libraries in the background, bind the port
        and start the job runner; :meth:`serve_forever` then accepts
        connections.  The service exists to run sweeps, so the trace
        generator and kernel compile now rather than inside the first
        job's sweep; :meth:`shutdown` waits for any build still running."""
        native.start_build()
        self._httpd = _Server((self.host, self.port), _RequestHandler)
        self._httpd.service = self
        self._httpd.timeout = _POLL_INTERVAL_S
        self.port = self._httpd.server_address[1]
        self.manager.start()
        self.say(f"service: listening on http://{self.host}:{self.port} "
                 f"(store {self.manager.store.path})")

    def serve_forever(self) -> None:
        """Accept connections until :meth:`shutdown` is called, stop
        listening, and return once the shutdown has finished."""
        assert self._httpd is not None, "call start() first"
        while not self._shutting_down:
            self._httpd.handle_request()
        self._httpd.server_close()
        self._stopped.wait()

    def shutdown(self, drain: bool = True) -> None:
        """Stop accepting, drain (or cancel) jobs, release serve_forever.

        Call it from another thread than :meth:`serve_forever`'s.  A later
        call only matters with ``drain=False``: it cancels the jobs the
        first call is draining."""
        with self._lock:
            again, self._shutting_down = self._shutting_down, True
        self.say("service: shutting down "
                 + ("(draining jobs)" if drain else "(cancelling jobs)"))
        if again:
            self.manager.shutdown(drain)
            return
        assert self._httpd is not None, "call start() first"
        try:  # wake the accept loop, so that it stops listening now
            socket.create_connection(self._httpd.server_address, 1).close()
        except OSError:
            pass
        self.manager.shutdown(drain)
        native.join_build()
        self._stopped.set()
        self.say("service: stopped")

    # -- routing -----------------------------------------------------------
    def respond(self, method: str, target: str, body: bytes) -> Response:
        """The response to one request; raises what
        :func:`_error_response` turns into an error response."""
        parts = urlsplit(target)
        matched_path = False
        for route_method, pattern, handler in self._routes:
            match = pattern.match(parts.path)
            if match is None:
                continue
            matched_path = True
            if route_method == method.upper():
                return handler(parse_qs(parts.query), body,
                               **match.groupdict())
        if matched_path:
            raise HttpError(405, "method_not_allowed",
                            f"{method} is not supported on {parts.path}")
        raise HttpError(404, "not_found", f"no such endpoint: {parts.path}")

    # -- handlers ----------------------------------------------------------
    def _r_index(self, query: Query, body: bytes) -> Response:
        return _json(200, {
            "service": "repro.sweep",
            "description": "sweep-as-a-service job API over the "
                           "content-addressed result store",
            "kernel_variant": resolve_kernel_variant(
                self.manager.kernel_variant),
            "store": self.manager.store.path,
            "endpoints": {
                "GET /healthz": "liveness probe",
                "POST /jobs": "submit a SweepSpec job "
                              "(body: {spec, workers?, kernel_variant?, "
                              "energy?, retries?, timeout_s?, backoff_s?})",
                "GET /jobs": "list jobs",
                "GET /jobs/<id>": "job status",
                "POST /jobs/<id>/cancel": "cancel a queued/running job",
                "GET /jobs/<id>/events": "Server-Sent-Events progress "
                                         "stream",
                "GET /jobs/<id>/report": "incremental report "
                                         "(?format=md|csv&table=<slug>)",
                "GET /jobs/<id>/results": "a done job's records as "
                                          "store lines, in job order",
                "GET /results/<key>": "one result record, canonical JSON",
                "GET /registry/steering": "registered steering policies",
                "GET /registry/mixes": "registered workload mixes",
            },
        })

    def _r_health(self, query: Query, body: bytes) -> Response:
        return _json(200, {
            "status": "ok",
            "jobs": len(self.manager.jobs),
            "records": len(self.manager.store),
            "draining": self._shutting_down,
        })

    def _r_submit(self, query: Query, body: bytes) -> Response:
        request = _parse_json(body)
        schemas.validate(request, schemas.SUBMIT_SCHEMA)
        job, disposition = self.manager.submit(request)
        status = 201 if disposition == "created" else 200
        self.say(f"service: job {job.job_id} {disposition} "
                 f"({job.spec.name!r}, {job.n_points} points)")
        return _json(status, {
            "job_id": job.job_id,
            "disposition": disposition,
            "job": job.status(),
        })

    def _r_jobs(self, query: Query, body: bytes) -> Response:
        return _json(200, {
            "jobs": [job.status() for job in self.manager.list_jobs()],
        })

    def _r_job(self, query: Query, body: bytes, job_id: str) -> Response:
        return _json(200, self.manager.get(job_id).status())

    def _r_cancel(self, query: Query, body: bytes, job_id: str) -> Response:
        schemas.validate(_parse_json(body), schemas.CANCEL_SCHEMA)
        outcome = self.manager.cancel(job_id)
        return _json(200 if outcome["cancelled"] else 409, outcome)

    def _r_events(self, query: Query, body: bytes, job_id: str) -> Response:
        return 200, self._sse(self.manager.get(job_id)), "text/event-stream"

    @staticmethod
    def _sse(job: Job) -> Iterator[bytes]:
        for event in job.broadcaster.subscribe():
            yield format_sse(event)
            if is_terminal(event[1]):
                return

    def _r_report(self, query: Query, body: bytes, job_id: str) -> Response:
        job = self.manager.get(job_id)
        fmt = _param(query, "format", "md")
        if fmt not in ("md", "csv"):
            raise HttpError(400, "invalid_request",
                            f"format must be 'md' or 'csv', got {fmt!r}")
        records = self.manager.job_records(job)
        rows = rows_from_records(records, where=f"<job {job_id}>")
        tables = build_tables(rows)
        if fmt == "csv":
            slug = _param(query, "table")
            slugs = sorted(table.slug for table in tables)
            if slug is None:
                raise HttpError(400, "invalid_request",
                                f"format=csv needs &table=<slug>; "
                                f"available: {slugs}")
            for table in tables:
                if table.slug == slug:
                    return (200, table.to_csv_text().encode("utf-8"),
                            "text/csv; charset=utf-8")
            raise HttpError(404, "unknown_table",
                            f"no table {slug!r}; available: {slugs}")
        markdown = render_markdown(tables, meta={
            "job": job_id,
            "state": job.state,
            "records": f"{len(records)}/{job.n_points or len(records)}",
        })
        return 200, markdown.encode("utf-8"), "text/markdown; charset=utf-8"

    def _r_job_results(self, query: Query, body: bytes,
                       job_id: str) -> Response:
        job = self.manager.get(job_id)
        if job.state != "done":
            raise HttpError(409, "job_not_done",
                            f"job {job_id} is {job.state!r}, not 'done'")
        lines = []
        for key in job.point_keys:
            line = self.manager.store.line(key)
            if line is None:
                raise HttpError(409, "missing_result",
                                f"job {job_id} has no record for {key!r}")
            lines.append(line)
        # Exactly the concatenated GET /results/<key> bodies: one fetch
        # carries a whole shard, and the client splits and validates it
        # line by line.
        return 200, b"".join(lines), "application/x-ndjson"

    def _r_result(self, query: Query, body: bytes, key: str) -> Response:
        line = self.manager.store.line(key)
        if line is None:
            raise HttpError(404, "unknown_result",
                            f"no result with key {key!r}")
        # Byte-for-byte the store line, trailing newline included, so
        # clients can reconstruct (and cmp) store files from the API alone.
        return 200, line, "application/json"

    def _r_steering(self, query: Query, body: bytes) -> Response:
        policies = []
        for name in sorted(STEERING_REGISTRY):
            policy = STEERING_REGISTRY[name]
            doc = (policy.__class__.__doc__ or "").strip().splitlines()
            policies.append({
                "name": name,
                "class": type(policy).__name__,
                "needs_retire": bool(policy.needs_retire),
                "description": doc[0] if doc else "",
            })
        return _json(200, {"steering_policies": policies})

    def _r_mixes(self, query: Query, body: bytes) -> Response:
        mixes = []
        for name in sorted(MIX_REGISTRY):
            mix = MIX_REGISTRY[name]
            mixes.append({
                "name": name,
                "class_weights": {
                    klass.name: weight
                    for klass, weight in sorted(
                        mix.class_weights.items(), key=lambda kv: int(kv[0])
                    )
                },
                "dep_prob": mix.dep_prob,
                "second_src_prob": mix.second_src_prob,
                "dep_distance_mean": mix.dep_distance_mean,
                "mispredict_rate": mix.mispredict_rate,
                "l1_miss_rate": mix.l1_miss_rate,
                "l2_miss_rate": mix.l2_miss_rate,
                "n_arch_regs": mix.n_arch_regs,
            })
        return _json(200, {"mixes": mixes})


class ServiceThread:
    """Run a :class:`SweepService` on a background thread (tests, CI,
    embedders).  ``start()`` returns once the port is bound; ``stop()``
    performs the graceful (or cancelling) shutdown and joins."""

    def __init__(self, store_path: str, host: str = "127.0.0.1",
                 port: int = 0, **kwargs: Any) -> None:
        self._kwargs = dict(kwargs, store_path=store_path,
                            host=host, port=port)
        self.service: Optional[SweepService] = None
        self.host = host
        self.port: Optional[int] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "ServiceThread":
        self.service = SweepService(**self._kwargs)
        self.service.start()
        self.port = self.service.port
        self._thread = threading.Thread(
            target=self.service.serve_forever, name="sweep-service",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, drain: bool = True) -> None:
        if self._thread is None or self.service is None:
            return
        self.service.shutdown(drain)
        self._thread.join()
        self._thread = None

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"


__all__ = [
    "HttpError",
    "MAX_BODY_BYTES",
    "ServiceThread",
    "SweepService",
]
