"""Asyncio HTTP/1.1 front end for the sweep subsystem.

Stdlib only: :func:`asyncio.start_server` streams, a hand-rolled (and
deliberately small) HTTP/1.1 request parser, and a regex routing table.
Every connection carries one request and is closed after the response
(``Connection: close``), except ``GET /jobs/<id>/events`` which stays open
streaming Server-Sent Events until the job's run ends or the client
disconnects.

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
    GET  /results/<key>         one store record, canonical JSON bytes
    GET  /registry/steering     the steering-policy plugin registry
    GET  /registry/mixes        the workload-mix registry

Errors are structured JSON — ``{"error": {"code", "message"}}`` — with
conventional status codes (400 malformed/invalid, 404 unknown, 405 wrong
method, 413 oversized body, 422 never: spec problems are 400s, 503 while
draining).  Graceful shutdown stops accepting connections, lets queued and
in-flight jobs drain through the job manager, and only then returns.
"""

from __future__ import annotations

import asyncio
import json
import re
import threading
from functools import partial
from typing import Any, Awaitable, Callable, Dict, List, Optional, Pattern, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.common.errors import ConfigurationError, ReproError
from repro.common.jsonutil import canonical_json
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

#: Request line + headers must fit in this many bytes (431 otherwise).
MAX_HEAD_BYTES = 32 * 1024

#: Seconds a connection may take to deliver its request head + body.
REQUEST_TIMEOUT_S = 30.0

_REASONS = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    409: "Conflict", 413: "Payload Too Large",
    431: "Request Header Fields Too Large", 500: "Internal Server Error",
    501: "Not Implemented", 503: "Service Unavailable",
}


class HttpError(ReproError):
    """A request problem with a definite status code and error code."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code


class Request:
    """One parsed HTTP request."""

    __slots__ = ("method", "path", "query", "headers", "body")

    def __init__(self, method: str, path: str, query: Dict[str, List[str]],
                 headers: Dict[str, str], body: bytes) -> None:
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body

    def param(self, name: str, default: Optional[str] = None) -> Optional[str]:
        values = self.query.get(name)
        return values[0] if values else default

    def json(self) -> Any:
        """The body as JSON; empty body reads as ``{}``.

        Whatever the parser refuses is a 400: bytes that are not UTF-8 or
        not JSON (``ValueError``, which both decode errors subclass), an
        integer literal past the interpreter's digit limit (also a
        ``ValueError``), and nesting past its recursion limit
        (``RecursionError``)."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise HttpError(400, "bad_json",
                            f"request body is not valid JSON: {exc}") from exc


Handler = Callable[..., Awaitable[None]]


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
        self._server: Optional[asyncio.AbstractServer] = None
        # Created in start(): asyncio primitives must be born on the loop
        # they are awaited on for 3.9 compatibility.
        self._stopped: Optional[asyncio.Event] = None
        self._shutting_down = False
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
    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self.manager.start(loop)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=MAX_HEAD_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.say(f"service: listening on http://{self.host}:{self.port} "
                 f"(store {self.manager.store.path})")

    async def serve_forever(self) -> None:
        assert self._stopped is not None, "call start() first"
        await self._stopped.wait()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting, drain (or cancel) jobs, release serve_forever."""
        if self._shutting_down:
            return
        self._shutting_down = True
        self.say("service: shutting down "
                 + ("(draining jobs)" if drain else "(cancelling jobs)"))
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, partial(self.manager.shutdown, drain))
        if self._stopped is not None:
            self._stopped.set()
        self.say("service: stopped")

    # -- connection handling ----------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await asyncio.wait_for(
                    self._read_request(reader), REQUEST_TIMEOUT_S
                )
            except asyncio.TimeoutError:
                await self._send_error(writer, HttpError(
                    408, "timeout", "request not received in time"))
                return
            except HttpError as exc:
                await self._send_error(writer, exc)
                return
            if request is None:  # connection closed before a request
                return
            await self._dispatch(request, writer)
        except (ConnectionError, asyncio.CancelledError):
            pass  # client went away; nothing to answer
        except Exception as exc:  # pragma: no cover - last-ditch guard
            try:
                await self._send_error(writer, HttpError(
                    500, "internal", f"{type(exc).__name__}: {exc}"))
            except Exception:
                pass
        finally:
            try:
                writer.close()
            except Exception:  # pragma: no cover
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Request]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean early disconnect
            raise HttpError(400, "bad_request",
                            "incomplete HTTP request head") from exc
        except asyncio.LimitOverrunError as exc:
            raise HttpError(431, "headers_too_large",
                            f"request head exceeds {MAX_HEAD_BYTES} bytes"
                            ) from exc
        try:
            lines = head.decode("latin-1").split("\r\n")
            method, target, _version = lines[0].split(" ", 2)
        except ValueError as exc:
            raise HttpError(400, "bad_request",
                            "malformed HTTP request line") from exc
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _sep, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        if "chunked" in headers.get("transfer-encoding", "").lower():
            raise HttpError(501, "not_implemented",
                            "chunked request bodies are not supported")
        body = b""
        raw_length = headers.get("content-length")
        if raw_length is not None:
            try:
                length = int(raw_length)
                if length < 0:
                    raise ValueError
            except ValueError:
                raise HttpError(400, "bad_request",
                                f"invalid Content-Length {raw_length!r}"
                                ) from None
            if length > MAX_BODY_BYTES:
                # Drain what the client already pushed so its blocking
                # send() cannot deadlock against our unread buffer, then
                # refuse.  The drain is capped: a Content-Length lie
                # cannot hold the connection hostage.
                await self._discard(reader, length)
                raise HttpError(
                    413, "body_too_large",
                    f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit",
                )
            if length:
                try:
                    body = await reader.readexactly(length)
                except asyncio.IncompleteReadError as exc:
                    raise HttpError(400, "bad_request",
                                    "request body shorter than "
                                    "Content-Length") from exc
        parts = urlsplit(target)
        return Request(method.upper(), parts.path,
                       parse_qs(parts.query), headers, body)

    @staticmethod
    async def _discard(reader: asyncio.StreamReader, length: int,
                       cap: int = 8 * MAX_BODY_BYTES) -> None:
        remaining = min(length, cap)
        while remaining > 0:
            chunk = await reader.read(min(65536, remaining))
            if not chunk:
                return
            remaining -= len(chunk)

    async def _dispatch(self, request: Request,
                        writer: asyncio.StreamWriter) -> None:
        matched_path = False
        for method, pattern, handler in self._routes:
            match = pattern.match(request.path)
            if match is None:
                continue
            matched_path = True
            if method != request.method:
                continue
            try:
                await handler(request, writer, **match.groupdict())
            except HttpError as exc:
                await self._send_error(writer, exc)
            except ServiceUnavailable as exc:
                await self._send_error(writer, HttpError(
                    503, "draining", str(exc)))
            except UnknownJob as exc:
                await self._send_error(writer, HttpError(
                    404, "unknown_job", str(exc)))
            except schemas.SchemaError as exc:
                await self._send_error(writer, HttpError(
                    400, "invalid_request", str(exc)))
            except ConfigurationError as exc:
                await self._send_error(writer, HttpError(
                    400, "invalid_spec", str(exc)))
            except (ConnectionError, asyncio.CancelledError):
                raise
            except ReproError as exc:
                await self._send_error(writer, HttpError(
                    500, "internal", str(exc)))
            return
        if matched_path:
            await self._send_error(writer, HttpError(
                405, "method_not_allowed",
                f"{request.method} is not supported on {request.path}"))
        else:
            await self._send_error(writer, HttpError(
                404, "not_found", f"no such endpoint: {request.path}"))

    # -- response helpers --------------------------------------------------
    async def _send(self, writer: asyncio.StreamWriter, status: int,
                    payload: bytes, content_type: str) -> None:
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()

    async def _send_json(self, writer: asyncio.StreamWriter,
                         status: int, obj: Any) -> None:
        payload = (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()
        await self._send(writer, status, payload, "application/json")

    async def _send_error(self, writer: asyncio.StreamWriter,
                          exc: HttpError) -> None:
        await self._send_json(writer, exc.status, {
            "error": {"code": exc.code, "message": str(exc)},
        })

    # -- handlers ----------------------------------------------------------
    async def _r_index(self, request: Request,
                       writer: asyncio.StreamWriter) -> None:
        await self._send_json(writer, 200, {
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

    async def _r_health(self, request: Request,
                        writer: asyncio.StreamWriter) -> None:
        await self._send_json(writer, 200, {
            "status": "ok",
            "jobs": len(self.manager.jobs),
            "records": len(self.manager.store),
            "draining": self._shutting_down,
        })

    async def _r_submit(self, request: Request,
                        writer: asyncio.StreamWriter) -> None:
        body = request.json()
        schemas.validate(body, schemas.SUBMIT_SCHEMA)
        job, disposition = self.manager.submit(body)
        status = 201 if disposition == "created" else 200
        self.say(f"service: job {job.job_id} {disposition} "
                 f"({job.spec.name!r}, {job.n_points} points)")
        await self._send_json(writer, status, {
            "job_id": job.job_id,
            "disposition": disposition,
            "job": job.status(),
        })

    async def _r_jobs(self, request: Request,
                      writer: asyncio.StreamWriter) -> None:
        await self._send_json(writer, 200, {
            "jobs": [job.status() for job in self.manager.list_jobs()],
        })

    async def _r_job(self, request: Request, writer: asyncio.StreamWriter,
                     job_id: str) -> None:
        job = self.manager.get(job_id)
        await self._send_json(writer, 200, job.status())

    async def _r_cancel(self, request: Request,
                        writer: asyncio.StreamWriter, job_id: str) -> None:
        body = request.json()
        schemas.validate(body, schemas.CANCEL_SCHEMA)
        outcome = self.manager.cancel(job_id)
        status = 200 if outcome["cancelled"] else 409
        await self._send_json(writer, status, outcome)

    async def _r_events(self, request: Request,
                        writer: asyncio.StreamWriter, job_id: str) -> None:
        job = self.manager.get(job_id)
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))
        await writer.drain()
        stream = job.broadcaster.subscribe()
        try:
            async for event in stream:
                writer.write(format_sse(event))
                await writer.drain()
                if is_terminal(event[1]):
                    break
        finally:
            # Deterministic unsubscription: run the generator's cleanup now
            # instead of whenever the GC finds it.
            await stream.aclose()

    async def _r_report(self, request: Request,
                        writer: asyncio.StreamWriter, job_id: str) -> None:
        job = self.manager.get(job_id)
        fmt = request.param("format", "md")
        if fmt not in ("md", "csv"):
            raise HttpError(400, "invalid_request",
                            f"format must be 'md' or 'csv', got {fmt!r}")
        records = self.manager.job_records(job)
        rows = rows_from_records(records, where=f"<job {job_id}>")
        tables = build_tables(rows)
        if fmt == "csv":
            slug = request.param("table")
            if slug is None:
                slugs = sorted(table.slug for table in tables)
                raise HttpError(400, "invalid_request",
                                f"format=csv needs &table=<slug>; "
                                f"available: {slugs}")
            for table in tables:
                if table.slug == slug:
                    await self._send(writer, 200,
                                     table.to_csv_text().encode("utf-8"),
                                     "text/csv; charset=utf-8")
                    return
            raise HttpError(404, "unknown_table",
                            f"no table {slug!r}; available: "
                            f"{sorted(t.slug for t in tables)}")
        markdown = render_markdown(tables, meta={
            "job": job_id,
            "state": job.state,
            "records": f"{len(records)}/{job.n_points or len(records)}",
        })
        await self._send(writer, 200, markdown.encode("utf-8"),
                         "text/markdown; charset=utf-8")

    async def _r_job_results(self, request: Request,
                             writer: asyncio.StreamWriter,
                             job_id: str) -> None:
        job = self.manager.get(job_id)
        if job.state != "done":
            raise HttpError(409, "job_not_done",
                            f"job {job_id} is {job.state!r}, not 'done'")
        lines = []
        for key in job.point_keys:
            record = self.manager.store.read_record(key)
            if record is None:
                raise HttpError(409, "missing_result",
                                f"job {job_id} has no record for {key!r}")
            lines.append(canonical_json(record) + "\n")
        # Exactly the concatenated GET /results/<key> bodies: one fetch
        # carries a whole shard, and the client splits and validates it
        # line by line.
        await self._send(writer, 200, "".join(lines).encode("utf-8"),
                         "application/x-ndjson")

    async def _r_result(self, request: Request,
                        writer: asyncio.StreamWriter, key: str) -> None:
        record = self.manager.store.read_record(key)
        if record is None:
            raise HttpError(404, "unknown_result",
                            f"no result with key {key!r}")
        # Byte-for-byte the store line: canonical JSON plus the trailing
        # newline, so clients can reconstruct (and cmp) store files from
        # the API alone.
        payload = (canonical_json(record) + "\n").encode("utf-8")
        await self._send(writer, 200, payload, "application/json")

    async def _r_steering(self, request: Request,
                          writer: asyncio.StreamWriter) -> None:
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
        await self._send_json(writer, 200, {"steering_policies": policies})

    async def _r_mixes(self, request: Request,
                       writer: asyncio.StreamWriter) -> None:
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
        await self._send_json(writer, 200, {"mixes": mixes})


class ServiceThread:
    """Run a :class:`SweepService` on a background thread (tests, CI,
    embedders).  ``start()`` blocks until the port is bound; ``stop()``
    performs the graceful (or cancelling) shutdown and joins."""

    def __init__(self, store_path: str, host: str = "127.0.0.1",
                 port: int = 0, **kwargs: Any) -> None:
        self._kwargs = dict(kwargs, store_path=store_path,
                            host=host, port=port)
        self.service: Optional[SweepService] = None
        self.host = host
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None

    def start(self, timeout: float = 10.0) -> "ServiceThread":
        self._thread = threading.Thread(
            target=self._thread_main, name="sweep-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("service thread did not start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"service failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # pragma: no cover - surfaced by start
            if not self._ready.is_set():
                self._startup_error = exc
                self._ready.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.service = SweepService(**self._kwargs)
        try:
            await self.service.start()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self.port = self.service.port
        self._ready.set()
        await self.service.serve_forever()

    def stop(self, drain: bool = True, timeout: float = 60.0) -> None:
        if self._thread is None or self._loop is None or self.service is None:
            return
        if self._thread.is_alive():
            service = self.service

            def _begin_shutdown() -> None:
                asyncio.ensure_future(service.shutdown(drain))

            try:
                self._loop.call_soon_threadsafe(_begin_shutdown)
            except RuntimeError:  # loop already closed
                pass
        self._thread.join(timeout)
        if self._thread.is_alive():  # pragma: no cover - drain wedged
            raise RuntimeError("service thread did not stop in time")
        self._thread = None

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"


__all__ = [
    "HttpError",
    "MAX_BODY_BYTES",
    "MAX_HEAD_BYTES",
    "Request",
    "ServiceThread",
    "SweepService",
]
