"""The redundancy prepass inside the greedy loop."""

import numpy as np
import pytest

from repro.circuit import CircuitBuilder
from repro.benchlib import ripple_carry_adder
from repro.metrics import MetricsEstimator
from repro.simplify import GreedyConfig, circuit_simplify
from repro.simulation import LogicSimulator, exhaustive_vectors


def gated_adder():
    """Adder behind a tautological enable stage: redundant by design."""
    b = CircuitBuilder("gated_adder")
    a = b.input_bus("a", 4)
    x = b.input_bus("b", 4)
    en = b.OR(a[0], b.NOT(a[0]), name="enable")  # constant 1, structurally hidden
    ag = [b.AND(ai, en, name=f"ag{i}") for i, ai in enumerate(a)]
    out = ripple_carry_adder(b, ag, x)
    b.output_bus(out)
    return b.build()


def cfg(**kw):
    base = dict(num_vectors=1500, seed=5, candidate_limit=60, redundancy_prepass=True)
    base.update(kw)
    return GreedyConfig(**base)


def test_prepass_recovers_free_area_at_zero_budget():
    ckt = gated_adder()
    res = circuit_simplify(ckt, rs_threshold=0.0, config=cfg(exhaustive=True))
    # the tautological gating stage is removed for free
    assert res.area_reduction > 0
    nred = sum(1 for r in res.iterations if r.metrics.es_mode == "redundant")
    assert nred == len(res.iterations)  # zero budget: only redundancies
    # and the function is exactly preserved
    est = MetricsEstimator(ckt, exhaustive=True)
    er, observed = est.simulate(approx=res.simplified)
    assert er == 0.0 and observed == 0


def test_prepass_marks_iterations():
    ckt = gated_adder()
    res = circuit_simplify(ckt, rs_pct_threshold=5.0, config=cfg(exhaustive=True))
    modes = [r.metrics.es_mode for r in res.iterations]
    assert "redundant" in modes
    # redundant records always come first
    first_budgeted = next(
        (i for i, m in enumerate(modes) if m != "redundant"), len(modes)
    )
    assert all(m == "redundant" for m in modes[:first_budgeted])


def test_prepass_plus_budget_beats_prepass_alone():
    ckt = gated_adder()
    zero = circuit_simplify(ckt, rs_threshold=0.0, config=cfg(exhaustive=True))
    five = circuit_simplify(ckt, rs_pct_threshold=5.0, config=cfg(exhaustive=True))
    assert five.area_reduction >= zero.area_reduction
    # budgeted result still within threshold (exact check)
    est = MetricsEstimator(ckt, exhaustive=True)
    er, observed = est.simulate(approx=five.simplified)
    assert er * observed <= five.rs_threshold * (1 + 1e-12)


def test_prepass_noop_on_irredundant(adder4):
    res = circuit_simplify(adder4, rs_threshold=0.0, config=cfg(exhaustive=True))
    assert res.area_reduction == 0
    assert not res.faults


@pytest.mark.parametrize("name", ["gated_adder", "c880"])
def test_prescreen_survivors_are_the_undetected_classes(name):
    """The prepass runs PODEM on exactly the collapsed classes whose
    representative no screen vector detects, judged here by the
    per-gate reference simulator, in class order."""
    from repro.benchlib import ISCAS85_SUITE
    from repro.faults import enumerate_faults
    from repro.faults.collapse import collapse_faults
    from repro.obs.core import Instrumentation
    from repro.simplify.greedy import PRESCREEN_VECTORS, _prescreen_survivors
    from repro.simulation import random_vectors

    ckt = gated_adder() if name == "gated_adder" else ISCAS85_SUITE[name].builder()
    classes = collapse_faults(ckt, enumerate_faults(ckt, include_branches=True))
    seed = 5
    vectors = random_vectors(
        len(ckt.inputs), PRESCREEN_VECTORS, np.random.default_rng(seed + 7)
    )
    ref = LogicSimulator(ckt)
    good = ref.run(vectors).output_bits()
    expected = [
        (rep, members)
        for rep, members in classes.members.items()
        if not (ref.run(vectors, [rep]).output_bits() != good).any()
    ]
    got = _prescreen_survivors(ckt, classes, seed, Instrumentation())
    assert got == expected
    assert 0 < len(got) < len(classes)
