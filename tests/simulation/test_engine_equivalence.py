"""Golden reference suite: the production simulators vs LogicSimulator.

Production code simulates with the compiled whole-netlist kernel only.
The per-gate :class:`~repro.simulation.logicsim.LogicSimulator` stays
as the independent reference, and everything the production path
computes must be **bit-identical** to values derived from it: packed
words for every signal, differential fault statistics, and the cone
replay's drop decisions and ``words_simulated`` bookkeeping.  Full
``circuit_simplify`` runs are pinned to fault sequences and netlist
digests recorded while both simulators were still selectable and
agreed.
"""

import hashlib
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro import GreedyConfig, SimplifyRequest, circuit_simplify, dumps_bench
from repro.benchlib import ISCAS85_SUITE
from repro.faults import enumerate_faults
from repro.simulation import (
    BatchFaultSimulator,
    CompiledSimulator,
    FaultSimulator,
    LogicSimulator,
    random_vectors,
)
from tests.conftest import build_c17

BENCHES = ("c17", "c880", "c1908")


def _build(name):
    if name == "c17":
        return build_c17()
    return ISCAS85_SUITE[name].builder()


@pytest.fixture(scope="module", params=BENCHES)
def bench(request):
    return _build(request.param)


def _sample_faults(circuit, rng, limit=60):
    """Every fault on small circuits, a shuffled sample on large ones,
    always keeping at least one stem, one branch and one PI fault."""
    faults = list(enumerate_faults(circuit, include_branches=True))
    if len(faults) <= limit:
        return faults
    idx = rng.permutation(len(faults))[:limit]
    sample = [faults[i] for i in idx]
    sample.append(next(f for f in faults if f.line.is_branch))
    sample.append(next(f for f in faults if f.line.is_stem))
    sample.append(
        next(f for f in faults if f.line.is_stem and circuit.is_input(f.line.signal))
    )
    return sample


def _reference_differential(circuit, vectors, faults):
    """Per-vector detection mask and weighted deviation, derived from
    two LogicSimulator runs with exact integer arithmetic."""
    ref = LogicSimulator(circuit)
    good = ref.run(vectors)
    bad = ref.run(vectors, faults)
    detected = np.zeros(vectors.shape[0], dtype=bool)
    for o in circuit.outputs:
        detected |= good.values_for(o) != bad.values_for(o)
    value_outputs = circuit.data_outputs or list(circuit.outputs)
    weights = [int(circuit.output_weights.get(o, 1)) for o in value_outputs]
    delta = bad.output_bits(value_outputs).astype(int) - good.output_bits(
        value_outputs
    ).astype(int)
    deviations = [
        sum(w * int(d) for w, d in zip(weights, row) if d) for row in delta
    ]
    return detected, deviations


def test_good_sim_words_identical(bench):
    """Good-value simulation: every signal, word-for-word equal."""
    rng = np.random.default_rng(7)
    vectors = random_vectors(len(bench.inputs), 130, rng)  # ragged 3rd word
    ref = LogicSimulator(bench).run(vectors)
    cm = CompiledSimulator(bench).run(vectors)
    for s in bench.signals():
        assert np.array_equal(ref.words_for(s), cm.words_for(s)), s


def test_single_fault_sim_identical(bench):
    """Faulty-value simulation: stems, branches, PI faults."""
    rng = np.random.default_rng(11)
    vectors = random_vectors(len(bench.inputs), 130, rng)
    ref = LogicSimulator(bench)
    compiled = CompiledSimulator(bench)
    for fault in _sample_faults(bench, rng):
        a = ref.run(vectors, [fault])
        b = compiled.run(vectors, [fault])
        for o in bench.outputs:
            assert np.array_equal(a.words_for(o), b.words_for(o)), fault


def test_multi_fault_sim_identical(bench):
    """Several simultaneous faults (the committed-set replay case)."""
    rng = np.random.default_rng(13)
    vectors = random_vectors(len(bench.inputs), 200, rng)
    faults = _sample_faults(bench, rng, limit=40)[:7]
    ref = LogicSimulator(bench).run(vectors, faults)
    cm = CompiledSimulator(bench).run(vectors, faults)
    for s in bench.signals():
        assert np.array_equal(ref.words_for(s), cm.words_for(s)), s


def test_differential_fault_sim_identical(bench):
    """FaultSimulator: ER, deviations and detection masks match."""
    rng = np.random.default_rng(17)
    vectors = random_vectors(len(bench.inputs), 130, rng)
    fsim = FaultSimulator(bench)
    for fault in _sample_faults(bench, rng, limit=25):
        detected, deviations = _reference_differential(bench, vectors, [fault])
        got = fsim.differential(vectors, [fault])
        assert np.array_equal(got.detected, detected), fault
        assert got.deviations == deviations, fault
        assert got.error_rate == np.count_nonzero(detected) / len(detected), fault
        assert got.max_abs_deviation == max(abs(d) for d in deviations), fault


def test_batch_ppsfp_identical(bench):
    """PPSFP batch evaluation: full stats for every sampled fault."""
    rng = np.random.default_rng(19)
    vectors = random_vectors(len(bench.inputs), 130, rng)
    faults = _sample_faults(bench, rng, limit=80)
    batch = BatchFaultSimulator(bench)
    batch.load_batch(vectors)
    for f, st in zip(faults, batch.evaluate(faults, detailed=True)):
        detected, deviations = _reference_differential(bench, vectors, [f])
        assert np.array_equal(st.detected, detected), f
        assert st.deviations == deviations, f
        assert st.detected_count == np.count_nonzero(detected), f
        assert st.max_abs_deviation == max(abs(d) for d in deviations), f
        assert st.sum_abs_deviation == sum(abs(d) for d in deviations), f
        assert not st.dropped and st.words_simulated == 3, f


def _expected_drop(detected, deviations, threshold):
    """Replay the one-word-chunk drop rule on reference per-vector data:
    ``(dropped, words_simulated, detected_count, max_abs_deviation)``."""
    n = len(detected)
    words = -(-n // 64)
    count, max_dev = 0, 0
    for w in range(words):
        lo, hi = 64 * w, min(n, 64 * (w + 1))
        count += int(np.count_nonzero(detected[lo:hi]))
        max_dev = max(max_dev, max(abs(d) for d in deviations[lo:hi]))
        if count / n * max_dev > threshold:
            return w + 1 < words, w + 1, count, max_dev
    return False, words, count, max_dev


def test_batch_fault_dropping_identical(bench):
    """Drop decisions happen at the word the reference data predicts."""
    rng = np.random.default_rng(23)
    vectors = random_vectors(len(bench.inputs), 300, rng)
    faults = _sample_faults(bench, rng, limit=40)
    batch = BatchFaultSimulator(bench)
    batch.load_batch(vectors)
    stats = batch.evaluate(faults, rs_drop_threshold=0.5, chunk_words=1)
    for f, st in zip(faults, stats):
        detected, deviations = _reference_differential(bench, vectors, [f])
        dropped, words, count, max_dev = _expected_drop(detected, deviations, 0.5)
        assert st.dropped == dropped, f
        assert st.words_simulated == words, f
        assert st.detected_count == count, f
        assert st.max_abs_deviation == max_dev, f


# ----------------------------------------------------------------------
# end to end, pinned to recorded runs
# ----------------------------------------------------------------------
def _digest(circuit):
    return hashlib.sha256(dumps_bench(circuit).encode()).hexdigest()[:16]


def _summary(result):
    return {
        "faults": [str(f) for f in result.faults],
        "digest": _digest(result.simplified),
        "er": result.final_metrics.er,
        "rs": result.final_metrics.rs,
        "iterations": [
            [str(r.fault), r.metrics.er, r.area_after] for r in result.iterations
        ],
    }


#: Recorded with the per-gate and the compiled simulator selectable and
#: agreeing, at ``rs_pct_threshold=10``.  The c880 run pins
#: ``PYTHONHASHSEED=0``: the ISCAS85-like generators name their control
#: inverters in set order, so the netlist text depends on the hash seed.
GOLDEN_RUNS = {
    "c17": {
        "config": dict(num_vectors=400, seed=0, exhaustive=True),
        "faults": ["G1 SA0"],
        "digest": "5ab8356751986a0a",
        "er": 0.1875,
        "rs": 0.1875,
        "iterations": [["G1 SA0", 0.1875, 9]],
    },
    "c880": {
        "config": dict(num_vectors=400, seed=0, candidate_limit=25, max_iterations=3),
        "faults": ["and_60 SA1", "res_1 SA0", "and_72 SA1"],
        "digest": "75ca84ee27fbe988",
        "er": 0.6725,
        "rs": 3.3625,
        "iterations": [
            ["and_60 SA1", 0.365, 777],
            ["res_1 SA0", 0.6075, 746],
            ["and_72 SA1", 0.6725, 711],
        ],
    },
}

_PINNED_CHILD = textwrap.dedent(
    """
    import json, sys
    sys.path.insert(0, ".")
    from repro import GreedyConfig, circuit_simplify
    from repro.benchlib import ISCAS85_SUITE
    from tests.simulation.test_engine_equivalence import _summary

    name, config = sys.argv[1], json.loads(sys.argv[2])
    result = circuit_simplify(ISCAS85_SUITE[name].builder(),
                              rs_pct_threshold=10.0,
                              config=GreedyConfig(**config))
    print(json.dumps(_summary(result)))
    """
)


def _pinned_hash_seed_run(name, config):
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _PINNED_CHILD, name, json.dumps(config)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(out.stdout)


@pytest.mark.parametrize("name", ["c17", "c880"])
def test_end_to_end_simplify_identical(name):
    """Full greedy runs commit the recorded fault sequence and reach the
    recorded final netlist and metrics."""
    golden = dict(GOLDEN_RUNS[name])
    config = golden.pop("config")
    if name == "c17":
        result = circuit_simplify(
            build_c17(), rs_pct_threshold=10.0, config=GreedyConfig(**config)
        )
        got = _summary(result)
    else:
        got = _pinned_hash_seed_run(name, config)
    assert got == golden


def test_simplify_outcome_identical_via_request():
    """The SimplifyRequest surface reproduces the recorded c17 outcome,
    and a stored request naming the retired ``engine`` and
    ``use_batch_ranking`` fields still loads and runs to the same
    outcome."""
    circuit = build_c17()
    req = SimplifyRequest(
        rs_pct_threshold=10.0, fom="area", num_vectors=400, seed=0, exhaustive=True,
    )
    legacy = dict(req.to_dict(), engine="python", use_batch_ranking=False)
    for request in (req, SimplifyRequest.from_dict(legacy)):
        outcome = request.run(circuit)
        assert [str(f) for f in outcome.faults] == ["G1 SA0"]
        assert _digest(outcome.simplified) == "5ab8356751986a0a"
        assert outcome.area_reduction == 3
        assert outcome.final_metrics.rs == 0.1875
        assert outcome.winning_fom == "area"
