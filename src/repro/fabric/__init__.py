"""Distributed sweep fabric: shard scheduling over pluggable backends.

Federates a sweep across one local pool and any number of remote
``repro.service`` peers, under lease/heartbeat supervision with
at-least-once delivery and content-key dedup.  The merged store is
byte-identical to the fault-free single-host store regardless of cluster
shape, shard assignment, peer deaths, lease expiries, or retries — the
abelian-networks correctness property, now across hosts.

Entry points::

    python -m repro.fabric run --smoke --peer localhost:8765
    python -m repro.fabric probe --peer localhost:8765

See :mod:`repro.fabric.scheduler` for the coordination model,
:mod:`repro.fabric.backends` for the execution/validation contract, and
:mod:`repro.fabric.health` for the per-peer availability state machine.
"""

from repro.common.errors import FabricError
from repro.fabric.backends import (
    LocalBackend,
    PeerBackend,
    RunnerBackend,
    Shard,
    ShardExecutionError,
    ShardValidationError,
    validate_record_bytes,
)
from repro.fabric.health import BackendHealth
from repro.fabric.scheduler import (
    DEFAULT_SHARD_SIZE,
    FabricCoordinator,
    FabricSummary,
    plan_shards,
)

__all__ = [
    "BackendHealth",
    "DEFAULT_SHARD_SIZE",
    "FabricCoordinator",
    "FabricError",
    "FabricSummary",
    "LocalBackend",
    "PeerBackend",
    "RunnerBackend",
    "Shard",
    "ShardExecutionError",
    "ShardValidationError",
    "plan_shards",
    "validate_record_bytes",
]
