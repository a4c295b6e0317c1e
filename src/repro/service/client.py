"""Blocking client for the sweep service (tests, CI, fabric, scripts).

Wraps :mod:`http.client` — one connection per request, matching the
server's ``Connection: close`` discipline — and parses SSE streams into
``(id, event, data)`` tuples.

Transient-error handling, which the distributed fabric leans on:

* every request retries connection-level failures (refused, reset, timed
  out) with capped exponential backoff — safe for ``POST /jobs`` because
  submissions are spec-digest idempotent (a duplicate submit dedupes onto
  the existing job instead of starting a second run);
* :meth:`ServiceClient.stream` survives an incomplete SSE stream by
  reconnecting and replaying: the server resends the job's full event
  history and the client skips every event id it has already yielded, so
  the caller sees each event exactly once, in order, across any number of
  mid-stream disconnects.

The network chaos harness hooks in here: before each request goes out and
again once its response arrived, the client calls
:func:`repro.faults.net_fault` for this attempt, so one seeded ``net``
:class:`~repro.faults.FaultPlan` exercises refusals, mid-body disconnects,
stalls, and corrupted payloads through exactly the code paths real
failures would take.
"""

from __future__ import annotations

import json
import time
from http.client import HTTPConnection, HTTPException
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.common.errors import ReproError
from repro.exec.attempts import backoff_delay
from repro.faults import InjectedNetworkFault, corrupt_bytes, net_fault
from repro.service.events import TERMINAL_EVENTS

#: Parsed SSE event: ``(id, name, data)``.
SSEEvent = Tuple[int, str, Dict[str, Any]]

#: Exceptions treated as transient transport failures and retried.
#: ``OSError`` covers refused/reset/timeout (and the injected network
#: faults, which subclass it on purpose); ``HTTPException`` covers a
#: server that died mid-response (``RemoteDisconnected``, bad status
#: lines from a torn byte stream).
TRANSIENT_ERRORS = (OSError, HTTPException)


class ServiceError(ReproError):
    """The service answered with a structured error (or junk)."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(f"HTTP {status} [{code}]: {message}")
        self.status = status
        self.code = code


class ServiceClient:
    """Blocking HTTP client for one service instance.

    ``retries`` bounds extra delivery attempts per request (0 disables
    retrying); ``backoff_s`` is the pause before the first retry, doubling
    per attempt and capped at ``backoff_cap_s`` — deterministic, no
    jitter, like the sweep runner's :class:`~repro.exec.attempts.RetryPolicy`.
    ``peer_name`` identifies this endpoint to the network fault plan (and
    in error messages); it defaults to ``host:port``.
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0,
                 retries: int = 2, backoff_s: float = 0.1,
                 backoff_cap_s: float = 2.0,
                 peer_name: Optional[str] = None) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self.peer_name = peer_name or f"{host}:{port}"

    # -- plumbing ----------------------------------------------------------
    def _backoff(self, failed_attempts: int) -> None:
        delay = backoff_delay(self.backoff_s, failed_attempts,
                              cap_s=self.backoff_cap_s)
        if delay > 0:
            time.sleep(delay)

    def _request_once(self, method: str, path: str,
                      body: Optional[Dict[str, Any]],
                      attempt: int) -> Tuple[int, bytes]:
        op = f"{method} {path}"
        net_fault(self.peer_name, op, attempt)
        conn = HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        finally:
            conn.close()
        # Post-flight faults: an injected reset raises here (the server may
        # have acted, which is safe to retry: every mutating endpoint is
        # idempotent); injected corruption damages the received bytes.
        if net_fault(self.peer_name, op, attempt, sent=True):
            raw = corrupt_bytes(raw)
        return response.status, raw

    def _request(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None,
        attempt_offset: int = 0,
    ) -> Tuple[int, bytes]:
        """One request with transient-error retry.

        ``attempt_offset`` shifts the attempt numbers the fault plan sees;
        callers that re-issue a request after *application-level*
        validation failed (the fabric refetching a corrupt record) pass
        their own attempt count so the injected fault schedule advances
        instead of replaying attempt 1 forever.
        """
        last_exc: Optional[BaseException] = None
        for attempt in range(1, self.retries + 2):
            try:
                return self._request_once(method, path, body,
                                          attempt + attempt_offset)
            except TRANSIENT_ERRORS as exc:
                last_exc = exc
                if attempt <= self.retries:
                    self._backoff(attempt)
        raise ServiceError(
            0, "unreachable",
            f"cannot reach service at {self.peer_name} after "
            f"{self.retries + 1} attempt(s) ({last_exc})",
        ) from last_exc

    def _json(self, method: str, path: str,
              body: Optional[Dict[str, Any]] = None,
              ok: Tuple[int, ...] = (200, 201)) -> Dict[str, Any]:
        status, raw = self._request(method, path, body)
        try:
            data = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ServiceError(status, "bad_response",
                               f"non-JSON response: {raw[:200]!r}") from exc
        if status not in ok:
            error = data.get("error", {}) if isinstance(data, dict) else {}
            raise ServiceError(status, error.get("code", "error"),
                               error.get("message", raw.decode("utf-8",
                                                               "replace")))
        return data

    # -- endpoints ---------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._json("GET", "/healthz")

    def index(self) -> Dict[str, Any]:
        return self._json("GET", "/")

    def submit(self, spec: Dict[str, Any], **options: Any) -> Dict[str, Any]:
        """``POST /jobs``; returns the submission response.

        ``options`` pass through to the request body (``workers``,
        ``kernel_variant``, ``energy``, ``retries``, ``timeout_s``,
        ``backoff_s``, ``shard``).
        """
        body = {key: value for key, value in options.items()
                if value is not None}
        body["spec"] = spec
        return self._json("POST", "/jobs", body)

    def jobs(self) -> List[Dict[str, Any]]:
        return self._json("GET", "/jobs")["jobs"]

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._json("GET", f"/jobs/{job_id}")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._json("POST", f"/jobs/{job_id}/cancel", {},
                          ok=(200, 409))

    def result(self, key: str, attempt: int = 1) -> bytes:
        """One record's canonical store bytes (including the newline).

        ``attempt`` is the caller's own 1-based fetch attempt for this
        key; it advances the fault plan's schedule across refetches (see
        :meth:`_request`).
        """
        status, raw = self._request("GET", f"/results/{key}",
                                    attempt_offset=attempt - 1)
        if status != 200:
            raise ServiceError(status, "unknown_result",
                               raw.decode("utf-8", "replace"))
        return raw

    def job_results(self, job_id: str, attempt: int = 1) -> bytes:
        """A done job's records as store lines, in job (shard) order.

        The body is exactly ``b"".join(self.result(k) for k in keys)``
        over the job's point keys.  ``attempt`` is the caller's own
        1-based fetch attempt, as in :meth:`result`.
        """
        status, raw = self._request("GET", f"/jobs/{job_id}/results",
                                    attempt_offset=attempt - 1)
        if status != 200:
            raise ServiceError(status, "job_results_error",
                               raw.decode("utf-8", "replace"))
        return raw

    def report(self, job_id: str, fmt: str = "md",
               table: Optional[str] = None) -> str:
        path = f"/jobs/{job_id}/report?format={fmt}"
        if table is not None:
            path += f"&table={table}"
        status, raw = self._request("GET", path)
        if status != 200:
            raise ServiceError(status, "report_error",
                               raw.decode("utf-8", "replace"))
        return raw.decode("utf-8")

    def steering_policies(self) -> List[Dict[str, Any]]:
        return self._json("GET", "/registry/steering")["steering_policies"]

    def mixes(self) -> List[Dict[str, Any]]:
        return self._json("GET", "/registry/mixes")["mixes"]

    # -- streaming ---------------------------------------------------------
    def _stream_once(self, job_id: str, timeout: Optional[float],
                     attempt: int) -> Iterator[SSEEvent]:
        """One SSE connection's events; raises on transport failure."""
        op = f"SSE /jobs/{job_id}/events"
        net_fault(self.peer_name, op, attempt)
        conn = HTTPConnection(self.host, self.port,
                              timeout=self.timeout if timeout is None
                              else timeout)
        try:
            conn.request("GET", f"/jobs/{job_id}/events")
            response = conn.getresponse()
            if response.status != 200:
                raw = response.read()
                raise ServiceError(response.status, "stream_error",
                                   raw.decode("utf-8", "replace"))
            event_id = 0
            name = ""
            data_line = ""
            yielded = 0
            while True:
                line = response.readline()
                if not line:
                    return  # stream closed by server
                text = line.decode("utf-8").rstrip("\n")
                if text.startswith("id:"):
                    event_id = int(text[3:].strip())
                elif text.startswith("event:"):
                    name = text[6:].strip()
                elif text.startswith("data:"):
                    data_line = text[5:].strip()
                elif text == "":
                    if name:
                        yield (event_id, name,
                               json.loads(data_line) if data_line else {})
                        yielded += 1
                        if name in TERMINAL_EVENTS:
                            return
                        if yielded == 1 and net_fault(
                                self.peer_name, op, attempt, sent=True):
                            # A corrupted frame is a mid-body disconnect to
                            # an SSE reader: the stream is unusable.
                            raise InjectedNetworkFault(
                                f"injected corrupt frame for {op} at "
                                f"{self.peer_name} (attempt {attempt})")
                    name = ""
                    data_line = ""
        finally:
            conn.close()

    def stream(self, job_id: str,
               timeout: Optional[float] = None) -> Iterator[SSEEvent]:
        """Yield the job's SSE events until its run ends, exactly once each.

        Replays the job's event history first (subscribing late is fine),
        then follows live events through the terminal event.  A stream
        that dies mid-run (connection reset, server restart of the
        connection) is reconnected with backoff; the server's full-history
        replay plus client-side id dedup turn the reconnect into a seamless
        resume from the last seen event id.  Raises :class:`ServiceError`
        when the stream cannot be completed within the retry budget.
        """
        last_id = 0
        last_exc: Optional[BaseException] = None
        for attempt in range(1, self.retries + 2):
            clean_end = False
            try:
                for event in self._stream_once(job_id, timeout, attempt):
                    event_id, name, _data = event
                    if event_id == 0 and name == "truncated":
                        # Replay-truncation marker: meaningful once, noise
                        # on every reconnect.
                        if attempt == 1:
                            yield event
                        continue
                    if event_id <= last_id:
                        continue  # already yielded before the reconnect
                    last_id = event_id
                    yield event
                    if name in TERMINAL_EVENTS:
                        return
                clean_end = True
            except ServiceError:
                raise  # structured HTTP error (404 unknown job): no retry
            except TRANSIENT_ERRORS as exc:
                last_exc = exc
            if clean_end:
                # The server ended the stream without a terminal event —
                # a broadcaster reset between runs.  Not a transport
                # failure: return and let the caller poll status.
                return
            if attempt <= self.retries:
                self._backoff(attempt)
        raise ServiceError(
            0, "stream_interrupted",
            f"SSE stream for job {job_id} at {self.peer_name} kept "
            f"failing after {self.retries + 1} attempt(s) ({last_exc})",
        ) from last_exc

    def wait(self, job_id: str, timeout: float = 300.0) -> Dict[str, Any]:
        """Block until the job's current run ends; return its final status.

        Follows the SSE stream (so waiting costs no polling); falls back
        to one status poll per second if the stream ends without a
        terminal event (e.g. a server-side reset between runs).
        """
        deadline = time.monotonic() + timeout
        try:
            for _event_id, name, _data in self.stream(job_id, timeout=timeout):
                if name in TERMINAL_EVENTS:
                    break
                if time.monotonic() > deadline:
                    raise ServiceError(408, "timeout",
                                       f"job {job_id} still running after "
                                       f"{timeout}s")
        except ServiceError as exc:
            if exc.code not in ("stream_interrupted", "unreachable"):
                raise
        while True:
            status = self.job(job_id)
            if status["state"] not in ("queued", "running"):
                return status
            if time.monotonic() > deadline:
                raise ServiceError(408, "timeout",
                                   f"job {job_id} still running after "
                                   f"{timeout}s")
            time.sleep(0.05)


__all__ = ["SSEEvent", "ServiceClient", "ServiceError", "TRANSIENT_ERRORS"]
