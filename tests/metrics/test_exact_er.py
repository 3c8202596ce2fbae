"""The BDD exact ER (``repro.bdd.exact_error_rate``) against the
estimator's exhaustive batch."""

import pytest

from repro.bdd import BddLimitExceeded, exact_error_rate
from repro.faults import StuckAtFault
from repro.metrics import MetricsEstimator
from repro.simplify import simplify_with_faults


def test_exact_matches_exhaustive(adder4):
    est = MetricsEstimator(adder4, exhaustive=True)
    f = StuckAtFault.stem(adder4.outputs[2], 1)
    er_sim, _ = est.simulate(faults=[f])
    er_bdd = exact_error_rate(adder4, faults=[f])
    assert er_bdd == pytest.approx(er_sim)


def test_exact_on_simplified(adder4):
    f = StuckAtFault.stem(adder4.outputs[0], 0)
    simp = simplify_with_faults(adder4, [f])
    assert exact_error_rate(adder4, approx=simp) == pytest.approx(0.5)


def test_node_limit_raises(adder4):
    with pytest.raises(BddLimitExceeded):
        exact_error_rate(
            adder4, faults=[StuckAtFault.stem(adder4.outputs[0], 0)], node_limit=3
        )
