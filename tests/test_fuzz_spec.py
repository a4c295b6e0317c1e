"""Fuzz the sweep spec parser: malformed specs fail with a clean error.

Seeded malformed specs go through every layer a spec file passes on its
way to a grid: :func:`repro.sweep.cli.load_spec` (file bytes -> JSON),
:meth:`SweepSpec.from_dict` (JSON -> spec) and :meth:`SweepSpec.expand`
(spec -> configs).  Whatever the input, the only exception that may escape
is :class:`~repro.common.errors.ConfigurationError`, which the CLIs print
as one ``error:`` line with exit status 2.  The cases cover wrong types,
unknown paths, negative and huge numbers, booleans where a count goes,
deep nesting and bytes that are not UTF-8; a few of them also run the real
CLI in a subprocess.  A spec that is accepted must not carry a boolean into
any config field but ``energy.enabled``: ``true`` would be stored as is
and key the point apart from the same machine with ``1``.
"""

import argparse
import json
import os
import random
import subprocess
import sys

import pytest

from repro.common.errors import ConfigurationError
from repro.sweep.cli import load_spec
from repro.sweep.grid import SweepSpec

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src")

#: A small valid spec; every case starts from it.
BASE = {
    "name": "fuzz",
    "topologies": ["ring", "conv"],
    "cluster_counts": [2, 3],
    "steerings": ["dependence", "load_balance"],
    "mixes": ["int_heavy"],
    "n_instructions": 100,
    "seeds": [1],
    "overrides": {"bus.hop_latency": [1, 2]},
    "base": {"energy.enabled": True},
}

#: Values of every JSON type, at the edges of each.
JUNK = [
    None, True, False, 0, 1, -1, 7, -(10 ** 30), 10 ** 30, 2 ** 63, 2 ** 31,
    0.5, -2.5, 1e308, float("inf"), float("nan"), "", "x", "ring", "int_heavy",
    "dependence", [], [None], [-3], [0], [1.5], [10 ** 30], ["ring"], [[2]],
    [{}], {}, {"a": 1}, {"enabled": True}, {"hop_latency": 2},
]

#: Dotted override/base paths: valid ones, near misses and nonsense.
PATHS = [
    "bus.hop_latency", "bus.bandwidth", "bus.writeback_latency", "bus",
    "bus.width", "bus.hop_latency.x", "window_size", "fetch_width",
    "frontend_depth", "cluster", "cluster.fu_counts", "cluster.issue_width",
    "cluster.int_regs", "latencies.int_div", "latencies", "memory",
    "memory.l1d", "memory.l1d.line_bytes", "memory.l1d.size_kb",
    "memory.l1d.associativity", "memory.l2_miss_penalty", "branch",
    "branch.mispredict_penalty", "energy", "energy.enabled", "energy.fu",
    "energy.fu.load", "energy.wakeup", "n_clusters", "topology", "steering",
    "", ".", "..", "nope", "energy..fu", "bus.", ".bus",
]

#: The paths above whose values are integer counts, cycles or costs.
INT_PATHS = [
    "bus.hop_latency", "bus.bandwidth", "bus.writeback_latency",
    "window_size", "fetch_width", "frontend_depth", "cluster.issue_width",
    "cluster.int_regs", "latencies.int_div", "memory.l1d.line_bytes",
    "memory.l1d.size_kb", "memory.l1d.associativity",
    "memory.l2_miss_penalty", "branch.mispredict_penalty", "energy.fu.load",
    "energy.wakeup",
]


def mutate(rng: random.Random) -> object:
    """One malformed (or, by chance, still valid) spec value."""
    spec = json.loads(json.dumps(BASE))
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(7)
        field = rng.choice(sorted(BASE))
        if kind == 0:
            spec[field] = rng.choice(JUNK)
        elif kind == 1 and isinstance(spec.get(field), list) and spec[field]:
            spec[field][rng.randrange(len(spec[field]))] = rng.choice(JUNK)
        elif kind == 2:
            overrides = spec.get("overrides")
            if isinstance(overrides, dict):
                overrides[rng.choice(PATHS)] = rng.choice(
                    [rng.choice(JUNK), [rng.choice(JUNK)],
                     [rng.choice(JUNK), rng.choice(JUNK)]])
        elif kind == 3:
            base = spec.get("base")
            if isinstance(base, dict):
                base[rng.choice(PATHS)] = rng.choice(JUNK)
        elif kind == 4:
            spec[rng.choice(["extra", "Name", "seed", "cluster_count"])] = 1
        elif kind == 5:
            spec.pop(field, None)
        else:
            return rng.choice(JUNK)
    return spec


def mangle(rng: random.Random, data: bytes) -> bytes:
    """``data`` with bytes flipped, cut, duplicated or made non-UTF-8."""
    data = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(5)
        at = rng.randrange(len(data) + 1)
        if kind == 0 and data:
            data[min(at, len(data) - 1)] = rng.randrange(256)
        elif kind == 1:
            del data[at:]
        elif kind == 2:
            data[at:at] = rng.choice([b"\xff", b"\xc3", b"\xed\xa0\x80",
                                      b"\x00", b"\xfe\xff"])
        elif kind == 3:
            data[at:at] = rng.choice([b"9" * 5000, b"[" * 100_000, b"1e999",
                                      b"-", b'"\\ud800"', b"NaN"])
        else:
            data[at:at] = data[rng.randrange(len(data) + 1):][:40]
    return bytes(data)


def stray_booleans(value: object, path: str = "") -> list:
    """Paths in a config dict that hold a boolean other than
    ``energy.enabled``."""
    if isinstance(value, bool):
        return [] if path == "energy.enabled" else [path]
    if isinstance(value, dict):
        return [found for key, item in value.items()
                for found in stray_booleans(item, f"{path}.{key}".lstrip("."))]
    if isinstance(value, list):
        return [found for item in value for found in stray_booleans(item, path)]
    return []


def check_expansion(spec: SweepSpec) -> None:
    for point in spec.expand():
        assert stray_booleans(point.config.to_dict()) == [], point.label()


def through_parser(spec: object) -> None:
    check_expansion(SweepSpec.from_dict(spec))


def through_file(tmp_path, data: bytes) -> None:
    path = tmp_path / "spec.json"
    path.write_bytes(data)
    args = argparse.Namespace(spec=str(path), smoke=False, paper=False)
    check_expansion(load_spec(args))


def outcome(run, *args) -> str:
    """``"ok"`` or ``"rejected"``; any other exception fails the test."""
    try:
        run(*args)
    except ConfigurationError as exc:
        assert str(exc), "a ConfigurationError must say what is wrong"
        return "rejected"
    return "ok"


@pytest.mark.parametrize("seed", range(4))
def test_malformed_specs_raise_only_configuration_errors(seed):
    rng = random.Random(seed)
    seen = {outcome(through_parser, mutate(rng)) for _ in range(150)}
    assert seen == {"ok", "rejected"}


@pytest.mark.parametrize("seed", range(4))
def test_malformed_spec_files_raise_only_configuration_errors(seed, tmp_path):
    rng = random.Random(1000 + seed)
    seen = set()
    for _ in range(60):
        spec = mutate(rng)
        try:
            text = json.dumps(spec)
        except ValueError:
            continue
        seen.add(outcome(through_file, tmp_path, text.encode()))
        seen.add(outcome(through_file, tmp_path,
                         mangle(rng, json.dumps(BASE).encode())))
    assert seen == {"ok", "rejected"}


@pytest.mark.parametrize("seed", range(2))
def test_booleans_in_integer_fields_are_rejected(seed):
    rng = random.Random(2000 + seed)
    for _ in range(40):
        spec = json.loads(json.dumps(BASE))
        path, flag = rng.choice(INT_PATHS), rng.choice([True, False])
        if rng.randrange(2):
            spec["overrides"].pop(path, None)  # an axis would shadow it
            spec["base"][path] = flag
        else:
            spec["overrides"][path] = rng.choice([[flag], [2, flag]])
        assert outcome(through_parser, spec) == "rejected", (path, flag)


@pytest.mark.parametrize("data", [
    b"\xff\xfe{}",
    b'{"name": "caf\xe9"}',
    b"[" * 100_000,
    b'{"n_instructions": -' + b"9" * 5000 + b"}",
    b'{"seeds": [1e999]}',
    b'{"n_instructions": NaN}',
    b"",
], ids=["bom", "latin-1", "deep", "long-int", "inf", "nan", "empty"])
def test_pathological_spec_files(tmp_path, data):
    assert outcome(through_file, tmp_path, data) == "rejected"


@pytest.mark.parametrize("data", [
    b"\xff\xfe\x00garbage",
    b'{"cluster_counts": [2, ',
    json.dumps(dict(BASE, overrides={"bus.width": [1]})).encode(),
    json.dumps(dict(BASE, cluster_counts=[-4])).encode(),
    json.dumps(dict(BASE, overrides={"cluster.fu_counts": [5]})).encode(),
], ids=["not-utf8", "truncated", "unknown-path", "negative", "wrong-type"])
def test_cli_rejects_malformed_spec_cleanly(tmp_path, data):
    spec = tmp_path / "spec.json"
    spec.write_bytes(data)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.sweep", "run", "--spec", str(spec),
         "--store", str(tmp_path / "store.jsonl"), "--workers", "1"],
        env=dict(os.environ, PYTHONPATH=SRC), cwd=str(tmp_path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: "), proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "store.jsonl").exists()
