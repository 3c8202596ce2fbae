"""MetricsEstimator: measurement and the RS-budget decision procedure."""

import numpy as np
import pytest

from repro.faults import StuckAtFault, enumerate_faults
from repro.metrics import MetricsEstimator
from repro.simplify import simplify_with_faults
from repro.simulation import FaultSimulator
from repro.benchlib import random_circuit


def test_exhaustive_measure_matches_faultsim(adder4):
    est = MetricsEstimator(adder4, exhaustive=True)
    f = StuckAtFault.stem(adder4.outputs[2], 0)
    er, es = est.simulate(faults=[f])
    ref = FaultSimulator(adder4).estimate([f], exhaustive=True)
    assert er == pytest.approx(ref.error_rate)
    assert es == ref.max_abs_deviation


def test_atpg_mode_conservative(adder4):
    """An accepted commit's proven ES ceiling never undercuts the true ES."""
    est = MetricsEstimator(adder4, exhaustive=True)
    for f in [
        StuckAtFault.stem(adder4.outputs[0], 1),
        StuckAtFault.stem(adder4.outputs[4], 1),
    ]:
        er, es = est.simulate(faults=[f])
        ok, m = est.check_rs(er * es * 1.01, faults=[f])
        assert ok
        assert m.es_bound >= es


def test_measure_of_simplified_circuit(adder4):
    est = MetricsEstimator(adder4, exhaustive=True)
    f = StuckAtFault.stem(adder4.outputs[1], 1)
    simp = simplify_with_faults(adder4, [f])
    assert est.simulate(approx=simp) == est.simulate(faults=[f])


def test_check_rs_decisions_match_truth(adder4):
    est = MetricsEstimator(adder4, exhaustive=True)
    f = StuckAtFault.stem(adder4.outputs[4], 1)  # ES=16
    er, es = est.simulate(faults=[f])
    rs_true = er * es
    ok, m = est.check_rs(rs_true * 1.01, faults=[f])
    assert ok
    ok, m = est.check_rs(rs_true * 0.99, faults=[f])
    assert not ok


def test_check_rs_fault_free(adder4):
    est = MetricsEstimator(adder4, exhaustive=True)
    ok, m = est.check_rs(0.0)
    assert ok
    assert m.er == 0.0


def test_check_rs_pow2_more_conservative(adder4):
    est = MetricsEstimator(adder4, exhaustive=True)
    # carry-chain fault with non-power-of-two exact ES
    carry = next(n for n in adder4.gates if adder4.gates[n].gtype.name == "OR")
    f = StuckAtFault.stem(carry, 1)
    er, es = est.simulate(faults=[f])
    if (es & (es - 1)) != 0:  # not a power of two
        t = er * es * 1.01  # just above the true RS
        ok_exact, _ = est.check_rs(t, faults=[f], pow2_es=False)
        ok_pow2, _ = est.check_rs(t, faults=[f], pow2_es=True)
        assert ok_exact
        assert not ok_pow2


def test_check_rs_es_bound_recorded(adder4):
    est = MetricsEstimator(adder4, exhaustive=True)
    f = StuckAtFault.stem(adder4.outputs[0], 0)  # ES=1, ER=0.5
    ok, m = est.check_rs(10.0, faults=[f])
    assert ok
    assert m.es_bound is not None and m.es_bound >= m.observed_es


def test_output_count_must_match(adder4, c17):
    est = MetricsEstimator(adder4, exhaustive=True)
    with pytest.raises(ValueError):
        est.simulate(approx=c17)


def test_deterministic_batches(adder4):
    a = MetricsEstimator(adder4, num_vectors=500, seed=7)
    b = MetricsEstimator(adder4, num_vectors=500, seed=7)
    f = StuckAtFault.stem(adder4.outputs[3], 0)
    assert a.simulate(faults=[f]) == b.simulate(faults=[f])
