"""Golden equivalence: candidate ranking must not change the greedy
trajectory.

Ranking scores the shortlist by cone-restricted batch fault simulation
with fault dropping.  It must select the faults one full differential
simulation per candidate selects (the seed implementation):

* the trajectories below were recorded while both ranking paths still
  existed, and both produced them -- fault sequence, per-iteration
  figures of merit, area trajectory, final netlist and final ER/RS on a
  fixed-seed c432-scale circuit;
* ``_rank_candidates`` is checked directly against per-candidate
  ``MetricsEstimator.simulate`` calls on a partly simplified netlist.
"""

import hashlib

import numpy as np
import pytest

from repro.benchlib import random_circuit
from repro.circuit.bench import dumps_bench
from repro.metrics.estimate import MetricsEstimator
from repro.simplify import GreedyConfig, circuit_simplify
from repro.simplify.engine import preview_area_reduction
from repro.simplify.greedy import (
    _candidate_faults,
    _rank_candidates,
    _reachable_weight,
)

GOLDEN_AREA_PER_RS = [
    "g46 SA0", "g74 SA1", "g47 SA1", "g54 SA0", "g57 SA1", "g61 SA1",
    "g66 SA0", "g68 SA1", "g64 SA0", "g70 SA1", "g73 SA1", "g75 SA0",
    "g76 SA1", "g78 SA0", "g18 SA0", "g42 SA1", "g81 SA0", "g67 SA1",
    "g83 SA1", "g43 SA1", "g90 SA0", "g24 SA0", "g94 SA0", "g35 SA1",
    "g21 SA0", "g93 SA1", "i5->g36.1 SA1", "g98 SA1", "g89 SA1", "g105 SA1",
    "g32 SA1", "g97 SA0", "g95 SA0", "g45 SA1", "g48 SA1", "g29 SA0",
    "g103 SA0", "g104 SA1", "g107 SA0", "g28 SA0",
]
GOLDEN_AREA_AFTER = [
    255, 251, 249, 246, 243, 241, 238, 235, 225, 223, 220, 218, 215, 212,
    191, 184, 182, 170, 169, 163, 161, 159, 150, 145, 141, 138, 137, 116,
    112, 109, 105, 103, 102, 94, 90, 86, 82, 75, 74, 71,
]


@pytest.fixture(scope="module")
def c432_scale():
    # ~110 gates / 8 inputs: the same order of magnitude as ISCAS85 c432
    return random_circuit(num_inputs=8, num_gates=110, rng=np.random.default_rng(432))


def config(**kw):
    base = dict(
        num_vectors=1000,
        seed=3,
        candidate_limit=60,
        es_mode="simulated",
        max_iterations=40,
    )
    return GreedyConfig(**{**base, **kw})


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_same_fault_sequence_and_final_rs(c432_scale):
    res = circuit_simplify(c432_scale, rs_pct_threshold=5.0, config=config())
    assert [str(f) for f in res.faults] == GOLDEN_AREA_PER_RS
    assert [r.area_after for r in res.iterations] == GOLDEN_AREA_AFTER
    assert res.iterations[0].fom_value == 21827.872842629688
    assert digest(repr([r.fom_value for r in res.iterations])) == "ce73aefc2bdbe600"
    assert res.final_metrics.er == 1.0
    assert res.final_metrics.rs == 9618367729.0
    assert digest(dumps_bench(res.simplified)) == "765269a648e4364d"


def test_same_trajectory_with_area_fom(c432_scale):
    res = circuit_simplify(c432_scale, rs_pct_threshold=5.0, config=config(fom="area"))
    assert [str(f) for f in res.faults] == ["g20 SA1", "g18 SA0", "g32 SA1"]
    assert [r.fom_value for r in res.iterations] == [34.0, 21.0, 15.0]
    assert res.area_reduction == 70
    assert res.final_metrics.rs == 12066237486.576
    assert digest(dumps_bench(res.simplified)) == "6e9143dc07aa9eb0"


@pytest.mark.parametrize("fom", ["area_per_rs", "area"])
def test_ranking_matches_per_candidate_simulation(c432_scale, fom):
    """Every scored entry equals what one full differential simulation
    of that candidate gives, and every candidate the batch path dropped
    or skipped really is over the RS threshold."""
    partial = circuit_simplify(
        c432_scale, rs_pct_threshold=5.0, config=config(max_iterations=6)
    )
    current = partial.simplified
    current_rs = partial.final_metrics.rs
    threshold = partial.rs_threshold
    cfg = config(fom=fom, candidate_limit=None)
    estimator = MetricsEstimator(c432_scale, num_vectors=1000, seed=3)
    candidates = _candidate_faults(current, cfg)

    scored = _rank_candidates(current, candidates, cfg, estimator, threshold, current_rs)

    # Ties keep the phase-1 proxy order, as in the ranking itself.
    reach = _reachable_weight(current)
    proxied = []
    for f in candidates:
        try:
            delta = preview_area_reduction(current, f)
        except Exception:
            continue
        if delta > 0:
            proxy = delta if fom == "area" else delta / (reach.get(f.line.signal, 0) + 1.0)
            proxied.append((proxy, delta, f))
    proxied.sort(key=lambda t: -t[0])
    eps = max(estimator.rs_maximum * 1e-15, 1e-12)
    expected = []
    for _proxy, delta, f in proxied:
        er, observed = estimator.simulate(approx=current, faults=[f])
        sim_rs = er * observed
        if sim_rs > threshold:
            continue
        value = float(delta) if fom == "area" else delta / max(sim_rs - current_rs, eps)
        expected.append((value, f, sim_rs, er, observed, delta))
    expected.sort(key=lambda t: -t[0])
    assert len(scored) > 5
    assert [(v, str(f), r, e, o, d) for v, f, r, e, o, d in scored] == [
        (v, str(f), r, e, o, d) for v, f, r, e, o, d in expected
    ]
