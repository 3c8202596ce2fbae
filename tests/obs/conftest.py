"""Fixtures shared by the observability tests."""

import pytest

from repro.simplify import GreedyConfig, circuit_simplify


@pytest.fixture(scope="module")
def c880_journal(tmp_path_factory):
    """One real c880 run's journal (greedy iterations and a summary),
    written once per module that reads it."""
    from repro.benchlib import ISCAS85_SUITE

    path = tmp_path_factory.mktemp("c880") / "run.jsonl"
    circuit_simplify(
        ISCAS85_SUITE["c880"].builder(),
        rs_pct_threshold=0.5,
        config=GreedyConfig(
            num_vectors=500,
            seed=0,
            candidate_limit=20,
            max_iterations=12,
            atpg_node_limit=200,
        ),
        journal=path,
    )
    return path
