"""The ES deviation kernel and every simulator that uses it.

:class:`~repro.simulation.deviation.WeightedDeviation` is checked
against exact Python-int arithmetic on narrow weights (float64 path)
and wide ones (limb path); then each production consumer --
``FaultSimulator``, ``BatchFaultSimulator``, ``MetricsEstimator`` and
the exact path of ``EsAtpg`` -- is checked on a circuit whose ``2**i``
weights are far beyond float64's exact-integer range, against values
derived from ``LogicSimulator`` on the exhaustive vector set.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg.es_atpg import EsAtpg
from repro.benchlib import random_circuit
from repro.circuit import Circuit, GateType
from repro.faults import enumerate_faults
from repro.faults.model import StuckAtFault
from repro.metrics.estimate import MetricsEstimator
from repro.simulation import (
    BatchFaultSimulator,
    FaultSimulator,
    LogicSimulator,
    exhaustive_vectors,
)
from repro.simulation.deviation import WeightedDeviation


def brute(delta, weights):
    return [sum(w * int(d) for w, d in zip(weights, row)) for row in delta]


@settings(max_examples=60, deadline=None)
@given(
    weights=st.lists(
        st.integers(min_value=-(1 << 90), max_value=1 << 90), min_size=0, max_size=80
    ),
    rows=st.integers(min_value=0, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_signed_matches_exact_integers(weights, rows, seed):
    rng = np.random.default_rng(seed)
    delta = rng.integers(-2, 3, size=(rows, len(weights))).astype(np.int8)
    kernel = WeightedDeviation(weights)
    expected = brute(delta, weights)
    assert [int(v) for v in kernel.signed(delta)] == expected
    assert kernel.max_abs(delta) == max((abs(v) for v in expected), default=0)
    if weights:
        cols = np.arange(0, len(weights), 2)
        sub = [weights[c] for c in cols]
        got = [int(v) for v in kernel.signed(delta[:, cols], cols)]
        assert got == brute(delta[:, cols], sub)


def test_narrow_weights_stay_on_the_float_path():
    kernel = WeightedDeviation([1 << i for i in range(26)])
    assert kernel.narrow
    assert kernel.signed(np.ones((3, 26), dtype=np.int8)).dtype == np.float64
    wide = WeightedDeviation([1 << i for i in range(60)])
    assert not wide.narrow
    assert wide.max_abs(np.ones((2, 60), dtype=np.int8)) == (1 << 60) - 1


def test_empty_inputs():
    kernel = WeightedDeviation([3, 5])
    assert kernel.max_abs(np.zeros((0, 2), dtype=np.int8)) == 0
    assert list(WeightedDeviation([]).signed(np.zeros((4, 0), dtype=np.int8))) == [0] * 4


def test_path_choice_uses_weight_magnitude():
    """A large negative weight is as wide as a large positive one: the
    float path would round ``-(2**60) + 1`` and report a wrong ES."""
    c = Circuit("signed")
    a, b = c.add_input("a"), c.add_input("b")
    c.add_gate("msb", GateType.BUF, [a])
    c.add_gate("lsb", GateType.BUF, [b])
    c.add_output("msb", weight=-(1 << 60))
    c.add_output("lsb", weight=1)
    vectors = exhaustive_vectors(2)
    faults = [StuckAtFault.stem("msb", 0), StuckAtFault.stem("lsb", 1)]
    res = FaultSimulator(c).differential(vectors, faults)
    # vector (a=1, b=0): msb drops 1 -> 0 (+2**60), lsb rises 0 -> 1 (+1)
    assert max(res.deviations) == (1 << 60) + 1
    est = MetricsEstimator(c, exhaustive=True)
    assert est.simulate(faults=faults)[1] == (1 << 60) + 1


@pytest.fixture(scope="module")
def wide():
    """12 inputs, 77 outputs weighted 2**0 .. 2**76."""
    c = random_circuit(num_inputs=12, num_gates=220, rng=np.random.default_rng(53))
    assert not WeightedDeviation(c.output_weights[o] for o in c.outputs).narrow
    return c


def reference(circuit, vectors, faults):
    ref = LogicSimulator(circuit)
    good = ref.run(vectors)
    bad = ref.run(vectors, faults)
    weights = [circuit.output_weights[o] for o in circuit.outputs]
    delta = bad.output_bits().astype(int) - good.output_bits().astype(int)
    detected = (delta != 0).any(axis=1)
    return detected, brute(delta, weights)


def test_every_consumer_is_exact_on_wide_weights(wide):
    vectors = exhaustive_vectors(len(wide.inputs))
    faults = enumerate_faults(wide)[::9][:24]
    fsim = FaultSimulator(wide)
    bsim = BatchFaultSimulator(wide)
    bsim.load_batch(vectors)
    est = MetricsEstimator(wide, exhaustive=True)
    stats = bsim.evaluate(faults, detailed=True)
    for fault, st_ in zip(faults, stats):
        detected, devs = reference(wide, vectors, [fault])
        true_es = max(abs(d) for d in devs)
        diff = fsim.differential(vectors, [fault])
        assert diff.deviations == devs, fault
        assert np.array_equal(diff.detected, detected), fault
        assert st_.deviations == devs, fault
        assert st_.max_abs_deviation == true_es, fault
        assert st_.sum_abs_deviation == sum(abs(d) for d in devs), fault
        assert st_.detected_count == int(detected.sum()), fault
        assert est.simulate(faults=[fault]) == (detected.mean(), true_es), fault
        assert EsAtpg(wide, faults=[fault]).exact_max_deviation() == true_es, fault


def test_batch_drop_decisions_on_wide_weights(wide):
    """Dropping compares exact-int lower bounds: every dropped fault's
    full-batch RS really exceeds the threshold."""
    vectors = exhaustive_vectors(len(wide.inputs))
    faults = enumerate_faults(wide)[::5][:40]
    bsim = BatchFaultSimulator(wide)
    bsim.load_batch(vectors)
    threshold = float(1 << 70)
    full = bsim.evaluate(faults)
    dropped = bsim.evaluate(faults, rs_drop_threshold=threshold, chunk_words=4)
    assert any(s.dropped for s in dropped) and not all(s.dropped for s in dropped)
    for a, b in zip(full, dropped):
        if b.dropped:
            assert a.rs > threshold
            assert b.max_abs_deviation <= a.max_abs_deviation
        else:
            assert (a.detected_count, a.max_abs_deviation, a.sum_abs_deviation) == (
                b.detected_count, b.max_abs_deviation, b.sum_abs_deviation
            )
