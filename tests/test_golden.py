"""Golden store: pinned results for a small grid, recomputed every run.

The kernels are checked against one another and against the naive
oracle, so a change that moves all of them the same way would go
unnoticed there.  ``tests/golden/store.jsonl`` pins the bytes of one
sweep (:func:`golden_spec`), and every record carries the
``ENGINE_VERSION`` it was computed under.  Changed bytes at the same
version fail, and so does a version the file was not computed under.
``tests/golden/README.md`` says how to regenerate the file::

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
import sys

from repro.engine import ENGINE_VERSION
from repro.sweep.grid import SweepSpec
from repro.sweep.runner import run_sweep
from repro.sweep.store import ResultStore

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "store.jsonl")


def golden_spec() -> SweepSpec:
    """80 points: 2 mixes x ring/conv x 5 cluster counts x 4 policies."""
    return SweepSpec(
        name="golden",
        topologies=("ring", "conv"),
        cluster_counts=(2, 3, 4, 5, 8),
        steerings=("dependence", "round_robin", "load_balance",
                   "criticality"),
        mixes=("int_heavy", "memory_bound"),
        n_instructions=2_000,
        seeds=(2005,),
    ).with_energy()


def compute(path: str) -> bytes:
    """Run the golden grid into a fresh store at ``path``; its bytes."""
    run_sweep(golden_spec().expand(), ResultStore(path), workers=1)
    with open(path, "rb") as fh:
        return fh.read()


def golden_bytes() -> bytes:
    with open(GOLDEN, "rb") as fh:
        return fh.read()


def test_golden_file_records_the_current_engine_version():
    versions = {json.loads(line)["engine_version"]
                for line in golden_bytes().splitlines()}
    assert versions == {ENGINE_VERSION}, (
        f"ENGINE_VERSION is {ENGINE_VERSION!r} but {GOLDEN} was computed "
        f"under {sorted(versions)}: regenerate it (see this module's "
        "docstring)")


def test_golden_grid_covers_the_pinned_axes():
    records = [json.loads(line) for line in golden_bytes().splitlines()]
    assert [r["key"] for r in records] == \
        [p.key() for p in golden_spec().expand()]
    assert len(records) == 80
    assert all(r["result"]["energy"] for r in records)


def test_recomputed_store_matches_golden_bytes(tmp_path):
    fresh = compute(str(tmp_path / "store.jsonl"))
    assert fresh == golden_bytes(), (
        "results changed while ENGINE_VERSION stayed "
        f"{ENGINE_VERSION!r}: fix the regression, or bump ENGINE_VERSION "
        "and regenerate the golden store")


if __name__ == "__main__":
    if os.path.exists(GOLDEN):
        os.remove(GOLDEN)
    compute(GOLDEN)
    print(f"wrote {GOLDEN}", file=sys.stderr)
