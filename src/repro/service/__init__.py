"""Sweep-as-a-service: a threaded HTTP job API over :mod:`repro.sweep`.

The batch CLI's subsystems were built content-addressed and append-only so
that a long-running, multi-tenant front end could sit on top without
changing a byte of what gets computed — this package is that front end.
It runs on plain threads: one per connection, plus the job runner.

* :mod:`repro.service.server` — stdlib threaded HTTP/1.1 server
  (:mod:`http.server`): routing, request-schema validation, structured
  errors, SSE streaming, graceful drain on shutdown
  (:class:`SweepService`, :class:`ServiceThread`);
* :mod:`repro.service.jobs` — :class:`JobManager`: spec-digest-deduped
  job submissions executed serially through the fault-tolerant
  :func:`~repro.sweep.runner.run_sweep`, with cancel (interrupt-path) and
  resume (cache-hit resubmission) semantics;
* :mod:`repro.service.events` — per-job replayable event broadcast
  feeding any number of concurrent Server-Sent-Events clients, each
  reading through its own blocking iterator;
* :mod:`repro.service.schemas` — minimal JSON request-schema validation;
* :mod:`repro.service.client` — blocking :class:`ServiceClient` for
  tests, CI, and scripts;
* ``python -m repro.service`` — ``serve`` and ``submit`` commands.

The correctness bar is inherited, not new: a sweep submitted over HTTP
produces a result store byte-identical to the same spec run via
``python -m repro.sweep run``, and resubmitting a completed spec computes
nothing (100% cache hits) — CI cmp-checks both.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.events import EventBroadcaster, format_sse
from repro.service.jobs import Job, JobManager, ServiceUnavailable, UnknownJob
from repro.service.schemas import SUBMIT_SCHEMA, SchemaError, validate
from repro.service.server import (
    HttpError,
    MAX_BODY_BYTES,
    ServiceThread,
    SweepService,
)

__all__ = [
    "EventBroadcaster",
    "HttpError",
    "Job",
    "JobManager",
    "MAX_BODY_BYTES",
    "SUBMIT_SCHEMA",
    "SchemaError",
    "ServiceClient",
    "ServiceError",
    "ServiceThread",
    "ServiceUnavailable",
    "SweepService",
    "UnknownJob",
    "format_sse",
    "validate",
]
