"""The greedy Circuit-simplify heuristic (paper Fig. 6)."""

import numpy as np
import pytest

from repro.faults import StuckAtFault
from repro.metrics import MetricsEstimator, rs_max
from repro.simplify import GreedyConfig, circuit_simplify
from repro.simulation import LogicSimulator, exhaustive_vectors
from tests.conftest import build_ripple_adder


def exact_rs(original, simplified):
    est = MetricsEstimator(original, exhaustive=True)
    er, observed = est.simulate(approx=simplified)
    return er * observed


@pytest.fixture(scope="module")
def adder6():
    return build_ripple_adder(6)


def cfg(**kw):
    base = dict(num_vectors=2000, seed=3, candidate_limit=100)
    base.update(kw)
    return GreedyConfig(**base)


def test_threshold_argument_validation(adder6):
    with pytest.raises(ValueError):
        circuit_simplify(adder6)
    with pytest.raises(ValueError):
        circuit_simplify(adder6, rs_threshold=1.0, rs_pct_threshold=1.0)
    with pytest.raises(ValueError):
        circuit_simplify(adder6, rs_threshold=1.0, config=cfg(fom="bogus"))


def test_respects_rs_threshold_exactly(adder6):
    res = circuit_simplify(adder6, rs_pct_threshold=5.0, config=cfg(exhaustive=True))
    assert res.faults
    true_rs = exact_rs(adder6, res.simplified)
    assert true_rs <= res.rs_threshold * (1 + 1e-12)


def test_area_monotone_per_iteration(adder6):
    res = circuit_simplify(adder6, rs_pct_threshold=10.0, config=cfg())
    areas = [r.area_after for r in res.iterations]
    assert all(a1 > a2 for a1, a2 in zip([res.original.area()] + areas, areas))


def test_larger_budget_never_worse(adder6):
    small = circuit_simplify(adder6, rs_pct_threshold=1.0, config=cfg())
    large = circuit_simplify(adder6, rs_pct_threshold=10.0, config=cfg())
    assert large.area_reduction >= small.area_reduction


def test_zero_threshold_only_redundancies(adder6):
    # the adder is irredundant: a zero budget must not change anything
    res = circuit_simplify(adder6, rs_threshold=0.0, config=cfg(exhaustive=True))
    assert exact_rs(adder6, res.simplified) == 0.0


def test_fom_variants_both_work(adder6):
    a = circuit_simplify(adder6, rs_pct_threshold=5.0, config=cfg(fom="area"))
    b = circuit_simplify(adder6, rs_pct_threshold=5.0, config=cfg(fom="area_per_rs"))
    assert a.area_reduction > 0
    assert b.area_reduction > 0


def test_records_are_consistent(adder6):
    res = circuit_simplify(adder6, rs_pct_threshold=5.0, config=cfg())
    assert len(res.iterations) == len(res.faults)
    for rec, fault in zip(res.iterations, res.faults):
        assert rec.fault == fault
        assert rec.area_delta > 0
        assert rec.metrics.rs <= res.rs_threshold * (1 + 1e-12)
    assert res.area_reduction == sum(r.area_delta for r in res.iterations)


def test_area_reduction_at_prefix_queries(adder6):
    res = circuit_simplify(adder6, rs_pct_threshold=10.0, config=cfg())
    full = res.area_reduction_at(res.rs_threshold)
    assert full == pytest.approx(res.area_reduction_pct)
    assert res.area_reduction_at(0.0) == 0.0


def test_simplified_function_changes_only_within_threshold(adder6):
    """The simplified adder still adds -- approximately."""
    res = circuit_simplify(adder6, rs_pct_threshold=2.0, config=cfg(exhaustive=True))
    vecs = exhaustive_vectors(12)
    vals = LogicSimulator(res.simplified).run(vecs).output_values(
        res.simplified.outputs, res.original.output_weights
    )
    worst = 0
    for k, v in enumerate(vals):
        a = sum(int(vecs[k, i]) << i for i in range(6))
        b = sum(int(vecs[k, 6 + i]) << i for i in range(6))
        worst = max(worst, abs(v - (a + b)))
    # ES is bounded by threshold / ER >= threshold
    assert worst <= res.rs_threshold / max(res.final_metrics.er, 1e-9) + 1


def test_datapath_restriction(adder4_ctl):
    res = circuit_simplify(
        adder4_ctl, rs_pct_threshold=20.0, config=cfg(exhaustive=True)
    )
    from repro.circuit import transitive_fanin

    ctl_cone = set()
    for o in adder4_ctl.control_outputs:
        ctl_cone |= transitive_fanin(adder4_ctl, o)
    for f in res.faults:
        assert f.line.signal not in ctl_cone
    # control outputs unchanged: parity still exact
    est = MetricsEstimator(adder4_ctl, exhaustive=True,
                           value_outputs=adder4_ctl.control_outputs)
    er, obs = est.simulate(approx=res.simplified)
    ctl_pos = list(adder4_ctl.outputs).index(adder4_ctl.control_outputs[0])
    vecs = exhaustive_vectors(8)
    a = LogicSimulator(adder4_ctl).run(vecs).output_bits()[:, ctl_pos]
    b = LogicSimulator(res.simplified).run(vecs).output_bits(res.simplified.outputs)[:, ctl_pos]
    assert (a == b).all()


def test_weights_preserved_through_run(adder6):
    res = circuit_simplify(adder6, rs_pct_threshold=5.0, config=cfg())
    assert list(res.simplified.outputs) == list(adder6.outputs) or len(
        res.simplified.outputs
    ) == len(adder6.outputs)
    assert rs_max(res.original) == 127


def test_signed_weights_stay_within_budget():
    """Negative output weights: RS_max counts |w|, the proxy ranking
    does not divide by a zero reachable weight, and the exact RS of the
    result stays within the budget."""
    ckt = build_ripple_adder(4)
    for i, o in enumerate(ckt.outputs):
        ckt.output_weights[o] = (-1 if i % 2 == 0 else 1) << i
    assert rs_max(ckt) == 31
    res = circuit_simplify(
        ckt, rs_pct_threshold=5.0, config=GreedyConfig(exhaustive=True, seed=0)
    )
    assert res.rs_threshold == pytest.approx(0.05 * 31)
    assert res.faults
    er, observed = MetricsEstimator(ckt, exhaustive=True).simulate(approx=res.simplified)
    assert er * observed <= res.rs_threshold
