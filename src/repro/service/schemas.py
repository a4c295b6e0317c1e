"""Minimal declarative JSON request-schema validation.

The service validates every request body against a schema *before* any
handler logic runs, so malformed input is rejected with a structured 400
naming the exact path that failed — never a traceback from deep inside the
sweep subsystem.  The dialect is a small, stdlib-only subset of JSON
Schema (``type``, ``required``, ``properties``, ``additionalProperties``,
``enum``, ``minimum`` / ``maximum``, ``items``) — enough for an HTTP API
surface without pulling in a dependency the container may not have.

Deep domain validation stays where it belongs: a body that passes
:data:`SUBMIT_SCHEMA` still has its ``spec`` vetted by
:meth:`repro.sweep.grid.SweepSpec.from_dict`, which knows about its shape,
unknown steerings, empty axes, and override-path rules.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from repro.common.errors import ReproError

#: JSON-name -> python type(s) for the ``type`` keyword.  ``bool`` is an
#: ``int`` subclass in python, so integer/number checks must exclude it
#: explicitly — ``true`` is not a valid worker count.
_TYPES: Dict[str, Any] = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


class SchemaError(ReproError):
    """A request body does not match its schema.

    ``path`` is a JSON-pointer-ish location (``body.spec.seeds[2]``) so
    the client's error message names exactly what to fix.
    """

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


def _type_name(value: Any) -> str:
    for name, types in _TYPES.items():
        if name == "integer" and isinstance(value, bool):
            continue
        if name == "number" and isinstance(value, bool):
            continue
        if isinstance(value, types):
            return name
    return type(value).__name__  # pragma: no cover - exotic payloads


def validate(value: Any, schema: Mapping[str, Any], path: str = "body") -> None:
    """Check ``value`` against ``schema``; raise :class:`SchemaError`.

    Returns ``None`` on success — validation never mutates the value.
    """
    expected = schema.get("type")
    if expected is not None:
        py_types = _TYPES[expected]
        ok = isinstance(value, py_types)
        if expected in ("integer", "number") and isinstance(value, bool):
            ok = False
        if not ok:
            raise SchemaError(
                path, f"expected {expected}, got {_type_name(value)}"
            )
    if "enum" in schema and value not in schema["enum"]:
        raise SchemaError(
            path, f"must be one of {sorted(map(str, schema['enum']))}, "
                  f"got {value!r}"
        )
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if "minimum" in schema and value < schema["minimum"]:
            raise SchemaError(path, f"must be >= {schema['minimum']}, got {value}")
        if "maximum" in schema and value > schema["maximum"]:
            raise SchemaError(path, f"must be <= {schema['maximum']}, got {value}")
    if isinstance(value, dict):
        for name in schema.get("required", ()):
            if name not in value:
                raise SchemaError(path, f"missing required key {name!r}")
        properties = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for name, item in value.items():
            child = f"{path}.{name}"
            if name in properties:
                validate(item, properties[name], child)
            elif extra is False:
                raise SchemaError(
                    child,
                    f"unknown key (valid: {sorted(properties)})",
                )
            elif isinstance(extra, Mapping):
                validate(item, extra, child)
    if isinstance(value, list) and "items" in schema:
        for index, item in enumerate(value):
            validate(item, schema["items"], f"{path}[{index}]")


#: ``POST /jobs`` body.  ``spec`` is a :class:`SweepSpec` dict, validated
#: (its shape included) only by ``SweepSpec.from_dict``, so every malformed
#: spec answers ``invalid_spec``; the remaining knobs mirror the
#: CLI's execution flags — none of them can change result bytes, only
#: wall-clock, which is what keeps job dedup sound on the spec alone.
SUBMIT_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["spec"],
    "additionalProperties": False,
    "properties": {
        "spec": {},
        "workers": {"type": "integer", "minimum": 1, "maximum": 64},
        "kernel_variant": {
            "type": "string",
            "enum": ["generic", "specialized"],
        },
        "energy": {"type": "boolean"},
        "retries": {"type": "integer", "minimum": 0, "maximum": 16},
        "timeout_s": {"type": "number", "minimum": 0.001},
        "backoff_s": {"type": "number", "minimum": 0},
        # Shard execution (the distributed fabric's unit of dispatch):
        # run only the half-open slice [start, stop) of the spec's deduped
        # expansion-order point list.  Unlike the knobs above, a shard
        # *does* change what the job computes, so it participates in the
        # job digest — shard jobs never dedupe against whole-spec jobs.
        "shard": {
            "type": "object",
            "required": ["start", "stop"],
            "additionalProperties": False,
            "properties": {
                "start": {"type": "integer", "minimum": 0},
                "stop": {"type": "integer", "minimum": 1},
            },
        },
    },
}

#: ``POST /jobs/<id>/cancel`` takes an empty (or absent) object body.
CANCEL_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "additionalProperties": False,
    "properties": {},
}

__all__ = ["CANCEL_SCHEMA", "SUBMIT_SCHEMA", "SchemaError", "validate"]
