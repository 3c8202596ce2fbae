"""Threshold ES ATPG vs. exhaustive deviation ground truth."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg import EsAtpg, EsStatus
from repro.benchlib import random_circuit
from repro.faults import StuckAtFault, enumerate_faults
from repro.simplify import simplify_with_faults
from repro.simulation import FaultSimulator, exhaustive_vectors


def exact_es(circuit, faults):
    fs = FaultSimulator(circuit)
    return fs.estimate(faults, exhaustive=True).max_abs_deviation


def pick_faults(ckt, rng, k):
    faults = enumerate_faults(ckt)
    pick = [faults[int(i)] for i in rng.permutation(len(faults))[:k]]
    seen = set()
    return [f for f in pick if not (f.line in seen or seen.add(f.line))]


def test_adder_sum_bit_fault(adder4):
    s2 = adder4.outputs[2]
    atpg = EsAtpg(adder4, faults=[StuckAtFault.stem(s2, 0)])
    assert atpg.test_exists(4).is_sat
    assert atpg.test_exists(5).status is EsStatus.UNSAT
    assert atpg.exact_max_deviation() == 4


def test_sat_vector_achieves_threshold(adder4):
    cout = adder4.outputs[4]
    f = StuckAtFault.stem(cout, 1)
    atpg = EsAtpg(adder4, faults=[f])
    res = atpg.test_exists(16)
    assert res.is_sat
    if res.vector is not None:
        fs = FaultSimulator(adder4)
        vec = np.array([[res.vector[pi] for pi in adder4.inputs]], dtype=bool)
        d = fs.differential(vec, [f])
        assert abs(d.deviations[0]) >= 16


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_fault_mode_thresholds_match_exhaustive(seed):
    rng = np.random.default_rng(seed)
    ckt = random_circuit(
        num_inputs=int(rng.integers(3, 6)),
        num_gates=int(rng.integers(4, 18)),
        rng=rng,
    )
    faults = pick_faults(ckt, rng, int(rng.integers(1, 4)))
    true_es = exact_es(ckt, faults)
    atpg = EsAtpg(ckt, faults=faults, node_limit=10**6)
    for t in {1, max(1, true_es), true_es + 1, 2 * true_es + 1}:
        res = atpg.test_exists(t)
        assert res.status is not EsStatus.ABORTED
        assert res.is_sat == (true_es >= t), (t, true_es)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_two_circuit_mode_matches_fault_mode(seed):
    rng = np.random.default_rng(seed)
    ckt = random_circuit(
        num_inputs=int(rng.integers(3, 6)),
        num_gates=int(rng.integers(4, 18)),
        rng=rng,
    )
    faults = pick_faults(ckt, rng, 2)
    simp = simplify_with_faults(ckt, faults)
    true_es = exact_es(ckt, faults)
    atpg = EsAtpg(ckt, faulty=simp, node_limit=10**6)
    assert atpg.exact_max_deviation() == true_es
    if true_es:
        assert atpg.test_exists(true_es).is_sat
    assert atpg.test_exists(true_es + 1).status is EsStatus.UNSAT


def test_decide_refutes_a_redundant_fault():
    from repro.circuit import CircuitBuilder

    b = CircuitBuilder("red")
    a, c = b.input("a"), b.input("b")
    t = b.AND(a, c, name="t")
    b.output(b.OR(a, t, name="z"))
    ckt = b.build()
    atpg = EsAtpg(ckt, faults=[StuckAtFault.stem("t", 0)])
    res = atpg.decide(1)
    assert res.status is EsStatus.UNSAT
    assert res.deviation in (None, 0)
    assert atpg.exact_max_deviation() == 0


def test_structural_refutation_is_instant(adder4):
    s0 = adder4.outputs[0]
    atpg = EsAtpg(adder4, faults=[StuckAtFault.stem(s0, 0)])
    # only output weight 1 is affected; threshold 2 is refuted structurally
    res = atpg.test_exists(2)
    assert res.status is EsStatus.UNSAT
    assert res.nodes == 0


def test_affected_outputs_fault_mode(adder4):
    s1 = adder4.outputs[1]
    atpg = EsAtpg(adder4, faults=[StuckAtFault.stem(s1, 0)])
    assert atpg.affected_outputs == (s1,)


def test_affected_outputs_two_circuit_mode(adder4):
    s1 = adder4.outputs[1]
    simp = simplify_with_faults(adder4, [StuckAtFault.stem(s1, 1)])
    atpg = EsAtpg(adder4, faulty=simp)
    assert s1 in atpg.affected_outputs
    assert adder4.outputs[0] not in atpg.affected_outputs


def test_decide_uses_exact_path(adder4):
    # internal carry gate: affects several outputs, so a threshold just
    # above the true ES is not structurally refutable and must go
    # through the exhaustive-support path, which reports the exact ES
    carry_gate = next(n for n in adder4.gates if adder4.gates[n].gtype.name == "OR")
    f = StuckAtFault.stem(carry_gate, 1)
    true_es = exact_es(adder4, [f])
    atpg = EsAtpg(adder4, faults=[f])
    assert true_es < atpg.max_weight_sum
    res = atpg.decide(true_es + 1)
    assert res.status is EsStatus.UNSAT
    assert res.deviation == true_es  # exact path reports the true max


def test_exact_max_deviation(adder4):
    cout = adder4.outputs[4]
    atpg = EsAtpg(adder4, faults=[StuckAtFault.stem(cout, 1)])
    assert atpg.exact_max_deviation() == 16


def test_threshold_validation(adder4):
    atpg = EsAtpg(adder4, faults=[StuckAtFault.stem(adder4.outputs[0], 0)])
    with pytest.raises(ValueError):
        atpg.test_exists(0)


def test_mismatched_circuits_rejected(adder4, c17):
    with pytest.raises(ValueError):
        EsAtpg(adder4, faulty=c17)


def test_negative_weight_is_not_refuted():
    """x = AND(a, b) at weight -4: ``x SA1`` moves the value by 4, so
    every threshold up to 4 has a test, and RS_max counts |-4|."""
    from repro.circuit import CircuitBuilder
    from repro.metrics import rs_max

    b = CircuitBuilder("signed")
    a, c = b.input("a"), b.input("b")
    b.output(b.AND(a, c, name="x"), weight=-4)
    b.output(b.OR(a, c, name="y"), weight=1)
    ckt = b.build()
    atpg = EsAtpg(ckt, faults=[StuckAtFault.stem("x", 1)])
    assert atpg.exact_max_deviation() == 4
    assert atpg.max_weight_sum == 4
    for t in (1, 4):
        assert atpg.decide(t).is_sat, t
        assert atpg.test_exists(t).is_sat, t
    assert atpg.decide(5).status is EsStatus.UNSAT
    assert atpg.test_exists(5).status is EsStatus.UNSAT
    assert rs_max(ckt) == 5


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_signed_weights_thresholds_match_exact(seed):
    """With weights of either sign, ``decide(T)`` and ``test_exists(T)``
    are SAT exactly when the exact maximum deviation reaches T."""
    rng = np.random.default_rng(seed)
    ckt = random_circuit(
        num_inputs=int(rng.integers(3, 6)),
        num_gates=int(rng.integers(4, 18)),
        rng=rng,
    )
    for o in ckt.outputs:
        ckt.output_weights[o] = int(rng.choice([-1, 1])) * int(rng.integers(1, 9))
    faults = pick_faults(ckt, rng, int(rng.integers(1, 4)))
    atpg = EsAtpg(ckt, faults=faults, node_limit=10**6)
    exact = atpg.exact_max_deviation()
    assert exact == exact_es(ckt, faults)
    for t in range(1, atpg.max_weight_sum + 2):
        res = atpg.test_exists(t)
        assert res.status is not EsStatus.ABORTED
        assert res.is_sat == (exact >= t), (t, exact)
        assert atpg.decide(t).is_sat == (exact >= t), (t, exact)
