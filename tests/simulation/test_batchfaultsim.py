"""Cross-validation: BatchFaultSimulator vs the naive FaultSimulator.

The cone-restricted batch simulator must be *bit-identical* to the full
differential reference for every enumerated single fault -- stems,
fanout branches, and primary-input faults alike -- on multi-word vector
batches, and its chunked / fault-dropping modes must stay consistent
with the single-pass results.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.benchlib import random_circuit
from repro.faults import StuckAtFault, enumerate_faults
from repro.metrics import MetricsEstimator
from repro.simplify import simplify_with_fault
from repro.simulation import (
    BatchFaultSimulator,
    FaultSimulator,
    exhaustive_vectors,
    random_vectors,
)


def assert_bit_identical(batch_stats, diff):
    """One fault's batch stats must equal the naive DifferentialResult."""
    assert batch_stats.error_rate == diff.error_rate
    assert batch_stats.max_abs_deviation == diff.max_abs_deviation
    assert np.array_equal(batch_stats.detected, diff.detected)
    assert batch_stats.deviations == diff.deviations


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_every_fault_matches_reference_on_random_circuits(seed):
    """Stem, branch, and PI faults on randomized circuits, N > 64."""
    rng = np.random.default_rng(seed)
    circuit = random_circuit(num_inputs=6, num_gates=24, rng=rng)
    vectors = random_vectors(len(circuit.inputs), 130, rng)  # 3 words, ragged tail
    faults = enumerate_faults(circuit, include_branches=True)
    assert any(f.line.is_branch for f in faults)
    assert any(circuit.is_input(f.line.signal) and f.line.is_stem for f in faults)

    naive = FaultSimulator(circuit)
    batch = BatchFaultSimulator(circuit)
    batch.load_batch(vectors)
    stats = batch.evaluate(faults, detailed=True)
    for fault, st in zip(faults, stats):
        assert_bit_identical(st, naive.differential(vectors, [fault]))


def test_control_outputs_split_detection_from_deviation(adder4_ctl):
    """ER observes control outputs; deviation only the data outputs."""
    vectors = exhaustive_vectors(len(adder4_ctl.inputs))
    naive = FaultSimulator(adder4_ctl)
    batch = BatchFaultSimulator(adder4_ctl)
    batch.load_batch(vectors)
    assert set(batch.value_outputs) == set(adder4_ctl.data_outputs)
    faults = enumerate_faults(adder4_ctl)
    for fault, st in zip(faults, batch.evaluate(faults, detailed=True)):
        assert_bit_identical(st, naive.differential(vectors, [fault]))
    # a pure-control fault: detected but zero deviation
    ctl = adder4_ctl.control_outputs[0]
    (st,) = batch.evaluate([StuckAtFault.stem(ctl, 1)])
    assert st.error_rate > 0
    assert st.max_abs_deviation == 0


def test_chunked_evaluation_matches_single_pass():
    rng = np.random.default_rng(11)
    circuit = random_circuit(num_inputs=7, num_gates=30, rng=rng)
    vectors = random_vectors(len(circuit.inputs), 400, rng)
    faults = enumerate_faults(circuit)
    batch = BatchFaultSimulator(circuit)
    batch.load_batch(vectors)
    single = batch.evaluate(faults, detailed=True)
    chunked = batch.evaluate(faults, chunk_words=1, detailed=True)
    for a, b in zip(single, chunked):
        assert a.detected_count == b.detected_count
        assert a.max_abs_deviation == b.max_abs_deviation
        assert a.deviations == b.deviations
        assert np.array_equal(a.detected, b.detected)


def test_fault_dropping_is_sound():
    """Dropped faults must truly exceed the threshold; survivors exact."""
    rng = np.random.default_rng(5)
    circuit = random_circuit(num_inputs=7, num_gates=30, rng=rng)
    vectors = random_vectors(len(circuit.inputs), 500, rng)
    faults = enumerate_faults(circuit)
    batch = BatchFaultSimulator(circuit)
    batch.load_batch(vectors)
    full = batch.evaluate(faults)
    threshold = 0.05
    quick = batch.evaluate(faults, rs_drop_threshold=threshold, chunk_words=1)
    n_dropped = 0
    for st, ref in zip(quick, full):
        if st.dropped:
            n_dropped += 1
            assert ref.rs > threshold  # rejection was correct
            assert st.words_simulated < full[0].words_simulated
            assert st.detected_count <= ref.detected_count
            assert st.max_abs_deviation <= ref.max_abs_deviation
        else:
            assert st.detected_count == ref.detected_count
            assert st.max_abs_deviation == ref.max_abs_deviation
    assert n_dropped > 0  # the scenario actually exercises dropping


def test_estimator_batch_path_matches_simulate(adder4):
    """simulate_faults on a *simplified* netlist must reproduce the
    per-fault simulate() stats measured against the original."""
    est = MetricsEstimator(adder4, num_vectors=300, seed=1)
    current = simplify_with_fault(adder4, StuckAtFault.stem(adder4.outputs[1], 0))
    faults = enumerate_faults(current)
    stats = est.simulate_faults(faults, approx=current)
    for fault, st in zip(faults, stats):
        er, observed = est.simulate(approx=current, faults=[fault])
        assert st.error_rate == er
        assert st.max_abs_deviation == observed
        assert not st.dropped


def test_estimator_batch_path_on_original(adder4):
    est = MetricsEstimator(adder4, exhaustive=True)
    faults = enumerate_faults(adder4)
    for fault, st in zip(faults, est.simulate_faults(faults)):
        er, observed = est.simulate(faults=[fault])
        assert st.error_rate == er
        assert st.max_abs_deviation == observed


def test_big_weight_exact_path():
    """Weighted deviation stays exact beyond the float64 integer range."""
    from repro.circuit import CircuitBuilder

    b = CircuitBuilder("wide")
    ins = b.input_bus("d", 4)
    for i, s in enumerate(ins):
        b.output(b.BUF(s), weight=1 << (60 + i))
    c = b.build()
    vectors = exhaustive_vectors(4)
    naive = FaultSimulator(c)
    batch = BatchFaultSimulator(c)
    batch.load_batch(vectors)
    faults = enumerate_faults(c)
    for fault, st in zip(faults, batch.evaluate(faults, detailed=True)):
        assert_bit_identical(st, naive.differential(vectors, [fault]))
    (st,) = batch.evaluate([StuckAtFault.stem(c.outputs[3], 0)])
    assert st.max_abs_deviation == 1 << 63


def test_evaluate_requires_loaded_batch(adder4):
    batch = BatchFaultSimulator(adder4)
    with pytest.raises(RuntimeError):
        batch.evaluate([StuckAtFault.stem(adder4.outputs[0], 0)])


def test_work_array_restored_between_faults(adder4):
    """Evaluation order must not leak state from one fault to the next."""
    vectors = exhaustive_vectors(len(adder4.inputs))
    batch = BatchFaultSimulator(adder4)
    batch.load_batch(vectors)
    faults = enumerate_faults(adder4)
    first = batch.evaluate([faults[0]], detailed=True)[0]
    # interleave other faults, then re-evaluate the first
    batch.evaluate(faults[1:10])
    again = batch.evaluate([faults[0]], detailed=True)[0]
    assert first.detected_count == again.detected_count
    assert first.deviations == again.deviations


def test_default_chunking_drops_hot_fault_and_counts_it():
    """Early dropping fires with the *production* chunking, not just
    chunk_words=1: a constructed hot fault (high ER, heavy output
    weight) is abandoned at the first chunk boundary of a multi-chunk
    batch, and the instrumentation counters record the skipped work."""
    from repro.circuit import CircuitBuilder
    from repro.obs import Instrumentation

    b = CircuitBuilder("droptest")
    ins = [b.input(f"i{k}") for k in range(8)]
    hot = b.OR(ins[0], ins[1], name="hot")
    cold = b.AND(*ins, name="cold")
    b.output(hot, weight=4)
    b.output(cold, weight=1)
    circuit = b.build()

    obs = Instrumentation()
    rng = np.random.default_rng(3)
    vectors = random_vectors(8, 1024, rng)  # 16 words -> two 8-word chunks
    batch = BatchFaultSimulator(circuit, obs=obs)
    batch.load_batch(vectors)
    w = batch._w
    assert w == 16

    hot_fault = StuckAtFault.stem("hot", 1)  # ER ~ 0.25, deviation 4
    cold_fault = StuckAtFault.stem("cold", 0)  # ER ~ 1/256, deviation 1
    hot_st, cold_st = batch.evaluate(
        [hot_fault, cold_fault], rs_drop_threshold=0.05
    )

    assert hot_st.dropped
    assert hot_st.words_simulated == 8  # stopped at the chunk boundary
    assert hot_st.rs > 0.05  # the partial lower bound already disqualifies
    assert not cold_st.dropped
    assert cold_st.words_simulated == w
    assert cold_st.rs <= 0.05

    assert obs.counters["batchsim.faults_dropped"] == 1
    assert obs.counters["batchsim.words_skipped"] == w - 8
    assert obs.counters["batchsim.words_simulated"] == 8 + w
    assert obs.counters["batchsim.faults_evaluated"] == 2
    assert "batchsim.evaluate" in obs.timers


def _stat_values(stats):
    return [
        (s.num_vectors, s.detected_count, s.max_abs_deviation, s.dropped, s.words_simulated)
        for s in stats
    ]


def test_stats_are_python_scalars(adder4):
    """Counts are Python ints and ``dropped`` a bool on every path (the
    float and the wide-weight deviation, with and without dropping), so
    stats serialize with ``json.dumps``."""
    import json

    from repro.circuit import CircuitBuilder

    b = CircuitBuilder("wide")
    for i, s in enumerate(b.input_bus("d", 4)):
        b.output(b.BUF(s), weight=1 << (60 + i))
    for circuit in (adder4, b.build()):
        batch = BatchFaultSimulator(circuit)
        batch.load_batch(random_vectors(len(circuit.inputs), 300, np.random.default_rng(2)))
        faults = enumerate_faults(circuit)
        for stats in (
            batch.evaluate(faults),
            batch.evaluate(faults, rs_drop_threshold=0.01, chunk_words=1),
        ):
            for row in _stat_values(stats):
                assert [type(v) for v in row] == [int, int, int, bool, int]
            json.dumps(_stat_values(stats))


def test_deviation_working_set_bound_changes_nothing(adder4, monkeypatch):
    """Splitting the deviation step into the smallest pieces (one fault
    and 64 vectors at a time, also in load_batch) leaves every stat and
    every per-vector deviation unchanged."""
    from repro.simulation import batchfaultsim

    current = simplify_with_fault(adder4, StuckAtFault.stem(adder4.outputs[1], 0))
    faults = enumerate_faults(current)

    def run():
        est = MetricsEstimator(adder4, num_vectors=700, seed=2)
        bsim = est._batch_simulator_for(current)
        assert bsim._base_dev.any()  # the baseline already deviates
        return (
            _stat_values(est.simulate_faults(faults, approx=current)),
            _stat_values(est.simulate_faults(faults, approx=current, rs_drop_threshold=0.2)),
            [s.deviations for s in bsim.evaluate(faults, chunk_words=3, detailed=True)],
        )

    expected = run()
    assert any(s[4] for s in expected[1])  # the drop rule fires
    monkeypatch.setattr(batchfaultsim, "DEVIATION_CELLS", 64)
    assert run() == expected


def test_empty_batch_gives_zero_stats(adder4):
    """A zero-vector batch still validates every fault and reports zero
    statistics with nothing simulated."""
    from repro.circuit import CircuitError

    batch = BatchFaultSimulator(adder4)
    batch.load_batch(np.zeros((0, len(adder4.inputs)), dtype=bool))
    faults = enumerate_faults(adder4)[:6]
    for st in batch.evaluate(faults, rs_drop_threshold=0.1, detailed=True):
        assert _stat_values([st]) == [(0, 0, 0, False, 0)]
        assert st.detected.shape == (0,) and st.deviations == []
    with pytest.raises(CircuitError):
        batch.evaluate([StuckAtFault.stem("no_such_signal", 0)])


def _lowering_circuits():
    from repro.benchlib import ISCAS85_SUITE
    from repro.circuit import CircuitBuilder, GateType

    b = CircuitBuilder("consts")
    x, y = b.input("x"), b.input("y")
    one = b.gate(GateType.CONST1, (), name="one")
    zero = b.gate(GateType.CONST0, (), name="zero")
    b.output(b.NAND(x, one, b.BUF(y)), weight=2)
    b.output(b.XNOR(zero, b.NOT(x), y))
    yield b.build()
    yield ISCAS85_SUITE["c880"].builder()
    rng = np.random.default_rng(77)
    for _ in range(5):
        yield random_circuit(num_inputs=5, num_gates=30, rng=rng)


@pytest.mark.parametrize("ckt", list(_lowering_circuits()), ids=lambda c: c.name)
def test_batch_simulator_shares_the_circuits_lowering(ckt):
    """The batch simulator reads the circuit's one program, and each
    gate row of its gate table holds what ``lower_entry`` gives for the
    gate -- key, inversion, unpadded inputs -- and agrees with the gate's
    place in the padded group matrices."""
    from repro.simulation import CompiledSimulator
    from repro.simulation.compiled import CORE_PAD, lower_entry

    bsim = BatchFaultSimulator(ckt)
    program = bsim.sim.program
    assert program is CompiledSimulator(ckt).program
    table = program.gate_table
    first_gate_row = 2 + program.num_inputs
    assert [program.row_of[name] for name in ckt.topological_order()] == list(
        range(first_gate_row, program.num_rows)
    )
    assert table.key[:first_gate_row].tolist() == [-1] * first_gate_row
    assert table.fanin[:first_gate_row].tolist() == [0] * first_gate_row
    assert table.in_ptr.tolist() == [0, *np.cumsum(table.fanin).tolist()]
    for name in ckt.topological_order():
        gate = ckt.gates[name]
        out_row = program.row_of[name]
        ins = table.in_rows[table.in_ptr[out_row] : table.in_ptr[out_row + 1]].tolist()
        invert = bool(table.invert[out_row])
        in_rows = tuple(program.row_of[s] for s in gate.inputs)
        core, want_invert, want_ins = lower_entry(gate.gtype, in_rows)
        assert (invert, ins) == (want_invert, want_ins)
        assert table.fanin[out_row] == len(ins)
        li, gi, col = program.loc[out_row]
        assert table.key[out_row] == 3 * li + core
        g_core, out_rows, group_ins, inv = program.levels[li][gi]
        assert g_core == core and out_rows[col] == out_row
        pad = [CORE_PAD[core]] * (group_ins.shape[0] - len(ins))
        assert group_ins[:, col].tolist() == list(ins) + pad
        assert bool(inv is not None and inv[col, 0]) == invert


_MASKED_ARRAYS_CHILD = textwrap.dedent(
    """
    import sys

    import numpy as np

    from repro.benchlib import ISCAS85_SUITE
    from repro.faults import enumerate_faults
    from repro.simplify import GreedyConfig, circuit_simplify
    from repro.simulation import BatchFaultSimulator, random_vectors

    circuit = ISCAS85_SUITE["c880"].builder()
    config = GreedyConfig(num_vectors=500, redundancy_prepass=True)
    circuit_simplify(circuit, rs_pct_threshold=1.0, config=config)
    batch = BatchFaultSimulator(circuit)
    batch.load_batch(random_vectors(len(circuit.inputs), 500, np.random.default_rng(0)))
    faults = enumerate_faults(circuit, include_branches=True)
    batch.evaluate(faults, rs_drop_threshold=1.0, detailed=True)
    print("numpy.ma" in sys.modules)
    """
)


def test_simplify_never_imports_masked_arrays():
    """A numpy call that first imports ``numpy.ma`` (``np.unique`` does
    on numpy 2.4) adds about 1.7 MB to a run's peak RSS: neither a
    ``simplify`` run nor cone replay may make one."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _MASKED_ARRAYS_CHILD],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    assert out.stdout.split() == ["False"]
