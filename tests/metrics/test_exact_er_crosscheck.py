"""Oracle crosscheck: three independent ER paths must agree exactly.

For small circuits the error rate of every single stuck-at fault is
computed three ways that share no code beyond the netlist:

* exhaustive-vector differential fault simulation (``FaultSimulator``),
* cone-restricted batch fault simulation (``BatchFaultSimulator``),
* BDD miter model counting (``repro.bdd.exact_error_rate``).

On an exhaustive batch all three are exact, so they must be *equal*,
not just close -- every count is a dyadic fraction of 2**n.
"""

import numpy as np
import pytest

from repro.bdd import exact_error_rate
from repro.benchlib import random_circuit
from repro.faults import enumerate_faults
from repro.metrics import MetricsEstimator
from repro.simulation import BatchFaultSimulator, FaultSimulator, exhaustive_vectors
from tests.conftest import build_c17, build_ripple_adder


def crosscheck_all_faults(circuit):
    vectors = exhaustive_vectors(len(circuit.inputs))
    naive = FaultSimulator(circuit)
    batch = BatchFaultSimulator(circuit)
    batch.load_batch(vectors)
    faults = enumerate_faults(circuit, include_branches=True)
    stats = batch.evaluate(faults)
    for fault, st in zip(faults, stats):
        er_sim = naive.differential(vectors, [fault]).error_rate
        er_batch = st.error_rate
        er_bdd = exact_error_rate(circuit, faults=[fault])
        assert er_batch == er_sim, f"{fault}: batch {er_batch} != sim {er_sim}"
        assert er_bdd == er_sim, f"{fault}: bdd {er_bdd} != sim {er_sim}"


def test_c17_all_faults():
    crosscheck_all_faults(build_c17())


def test_adder4_all_faults():
    crosscheck_all_faults(build_ripple_adder(4))


def test_random_circuit_all_faults():
    rng = np.random.default_rng(20110314)
    crosscheck_all_faults(random_circuit(num_inputs=5, num_gates=14, rng=rng))


def test_estimator_ties_the_three_paths(adder4):
    """The estimator's exhaustive sampled ER, its batch path, and the
    BDD exact ER give the same number for the same fault."""
    est = MetricsEstimator(adder4, exhaustive=True)
    faults = enumerate_faults(adder4)[:16]
    stats = est.simulate_faults(faults)
    for fault, st in zip(faults, stats):
        er_sim, _ = est.simulate(faults=[fault])
        er_bdd = exact_error_rate(adder4, faults=[fault])
        assert st.error_rate == er_sim
        assert er_bdd == pytest.approx(er_sim, abs=0.0)
