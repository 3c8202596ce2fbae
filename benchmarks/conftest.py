"""Shared helpers for the reproduction benchmarks.

Each experiment bench regenerates one table or figure of the paper and
prints the rows it produces next to the published values, so a
``pytest benchmarks/ --benchmark-only`` run doubles as the full
evaluation harness.  Set ``REPRO_BENCH_FULL=1`` for paper-scale
parameters (10,000 simulation vectors, wider candidate scans); the
default profile keeps the whole suite in the minutes range.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.simplify import GreedyConfig

FULL = bool(int(os.environ.get("REPRO_BENCH_FULL", "0")))


def table2_config() -> GreedyConfig:
    """The greedy configuration used for every Table II row."""
    return GreedyConfig(
        num_vectors=10_000 if FULL else 2_000,
        seed=0,
        candidate_limit=200 if FULL else 80,
        max_iterations=200 if FULL else 80,
        redundancy_prepass=True,
        atpg_node_limit=2_000 if FULL else 400,
    )


@pytest.fixture(scope="session")
def bench_rows():
    """Collect result rows across benches of one session.

    Rows are printed at teardown (visible with ``-s``) and always
    appended to ``bench_results.txt`` next to this file's parent, so a
    plain ``pytest benchmarks/ --benchmark-only`` run leaves the
    regenerated table/figure rows on disk.
    """
    rows: list[str] = []
    yield rows
    if rows:
        text = "\n".join(rows)
        print("\n" + text)
        out = os.path.join(os.path.dirname(__file__), "..", "bench_results.txt")
        with open(os.path.abspath(out), "a") as fh:
            fh.write(text + "\n")


@pytest.fixture(scope="session")
def bench_json():
    """Collect machine-readable result rows across benches of one session.

    Benches append dict rows under a bench name
    (``bench_json["candidate_ranking"].append({...})``); at teardown
    each name is written to ``BENCH_<name>.json`` next to
    ``bench_results.txt``, so a run's numbers can be read (and uploaded
    as a CI artifact) without parsing the human text rows.
    """
    tables: dict[str, list[dict]] = {}

    class _Tables(dict):
        def __missing__(self, key: str) -> list[dict]:
            tables[key] = self[key] = []
            return self[key]

    collected = _Tables()
    yield collected
    root = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
    for name, rows in tables.items():
        if not rows:
            continue
        path = os.path.join(root, f"BENCH_{name}.json")
        with open(path, "w") as fh:
            json.dump({"bench": name, "rows": rows}, fh, indent=2, sort_keys=True)
            fh.write("\n")
