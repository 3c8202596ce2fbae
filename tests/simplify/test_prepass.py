"""The redundancy prepass inside the greedy loop."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import dumps_bench, loads_bench
from repro.circuit import CircuitBuilder
from repro.benchlib import ISCAS85_SUITE, random_circuit, ripple_carry_adder
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
    nred = sum(1 for r in res.iterations if r.phase == "prepass")
    assert nred == len(res.iterations)  # zero budget: only redundancies
    # and the function is exactly preserved
    est = MetricsEstimator(ckt, exhaustive=True)
    er, observed = est.simulate(approx=res.simplified)
    assert er == 0.0 and observed == 0


def test_prepass_marks_iterations():
    ckt = gated_adder()
    res = circuit_simplify(ckt, rs_pct_threshold=5.0, config=cfg(exhaustive=True))
    phases = [r.phase for r in res.iterations]
    assert "prepass" in phases
    # redundant records always come first
    first_budgeted = next(
        (i for i, p in enumerate(phases) if p != "prepass"), len(phases)
    )
    assert all(p == "prepass" for p in phases[:first_budgeted])


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
    from repro.simplify.redundancy import PRESCREEN_VECTORS, _prescreen_survivors
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


# ----------------------------------------------------------------------
# the lazy prepass against the eager one it replaced
# ----------------------------------------------------------------------
DATA = Path(__file__).resolve().parents[1] / "data"


def _eager_prepass(current, cfg, estimator, result):
    """The prepass as it was before proofs became lazy, kept as the
    reference: prove every screen survivor on the original netlist,
    sort the redundant ones by previewed area, then inject them in that
    order with a re-proof on the current netlist.  Prepass rows record
    the number of proven redundancies as ``candidates_evaluated``."""
    from repro.atpg.podem import AtpgStatus, Podem
    from repro.circuit.netlist import CircuitError
    from repro.faults.collapse import collapse_faults
    from repro.metrics.errors import ErrorMetrics
    from repro.simplify.engine import Overlay
    from repro.simplify.greedy import (
        IterationRecord,
        _candidate_faults,
        _safe_preview,
    )
    from repro.simplify.redundancy import _prescreen_survivors

    candidates = _candidate_faults(current, cfg)
    if not candidates:
        return current
    classes = collapse_faults(current, candidates)
    survivors = _prescreen_survivors(current, classes, cfg.seed, estimator.obs)
    podem = Podem(
        current, backtrack_limit=cfg.prepass_backtrack_limit, obs=estimator.obs
    )
    redundant = []
    for rep, members in survivors:
        if podem.run(rep).status is AtpgStatus.REDUNDANT:
            redundant.append(max(members, key=lambda f: _safe_preview(current, f)))
    redundant.sort(key=lambda f: -_safe_preview(current, f))
    revalidate = False
    for fault in redundant:
        overlay = Overlay(current)
        try:
            overlay.apply(fault)
        except CircuitError:
            continue
        if overlay.area_delta() <= 0:
            continue
        if revalidate:
            if not current.has_signal(fault.line.signal):
                continue
            recheck = Podem(
                current, backtrack_limit=cfg.prepass_backtrack_limit, obs=estimator.obs
            )
            if recheck.run(fault).status is not AtpgStatus.REDUNDANT:
                continue
        tentative = overlay.materialize(current.name)
        er, observed = estimator.simulate(approx=tentative)
        if er > 0.0 or observed > 0:
            continue
        result.iterations.append(
            IterationRecord(
                index=len(result.iterations),
                fault=fault,
                area_before=current.area(),
                area_after=tentative.area(),
                metrics=ErrorMetrics(
                    er=0.0, es=0,
                    rs_maximum=estimator.rs_maximum,
                    num_vectors=estimator.num_vectors,
                ),
                fom_value=float("inf"),
                candidates_evaluated=len(redundant),
                phase="prepass",
            )
        )
        result.faults.append(fault)
        current = tentative
        result.simplified = current
        revalidate = True
    return current


def _prepass(prepass, circuit, config):
    """Run one prepass alone; returns its result and its registry."""
    from repro.obs.core import Instrumentation
    from repro.simplify.greedy import GreedyResult

    obs = Instrumentation()
    estimator = MetricsEstimator(
        circuit, num_vectors=config.num_vectors, seed=config.seed, obs=obs
    )
    result = GreedyResult(
        original=circuit, simplified=circuit.copy(), rs_threshold=0.0, config=config
    )
    prepass(result.simplified, config, estimator, result)
    return result, obs


def _assert_same_prepass(circuit, config, monkeypatch, screen):
    """The lazy prepass at ``screen`` vectors injects what the eager
    one injects at 256, with identical records except
    ``candidates_evaluated``, which becomes the number of survivors."""
    from dataclasses import replace

    from repro.faults.collapse import collapse_faults
    from repro.obs.core import Instrumentation
    from repro.simplify import redundancy
    from repro.simplify.greedy import _apply_redundancy_prepass, _candidate_faults

    monkeypatch.setattr(redundancy, "PRESCREEN_VECTORS", 256)
    eager, eager_obs = _prepass(_eager_prepass, circuit, config)
    monkeypatch.setattr(redundancy, "PRESCREEN_VECTORS", screen)
    lazy, lazy_obs = _prepass(_apply_redundancy_prepass, circuit, config)
    assert lazy.faults == eager.faults
    assert dumps_bench(lazy.simplified) == dumps_bench(eager.simplified)
    assert [replace(r, candidates_evaluated=0) for r in lazy.iterations] == [
        replace(r, candidates_evaluated=0) for r in eager.iterations
    ]
    classes = collapse_faults(circuit, _candidate_faults(circuit, config))
    survivors = redundancy._prescreen_survivors(
        circuit, classes, config.seed, Instrumentation()
    )
    assert {r.candidates_evaluated for r in lazy.iterations} <= {len(survivors)}
    # the lazy prepass proves a subset of what the eager one proved
    assert lazy_obs.counters.get("podem.runs", 0) <= eager_obs.counters.get(
        "podem.runs", 0
    )
    return eager, lazy


def _c880_bench():
    return loads_bench((DATA / "c880.bench").read_text(), name="c880")


PREPASS_CIRCUITS = {
    "gated_adder": (gated_adder, dict(num_vectors=512, seed=5)),
    "c880_netlist_weights": (
        lambda: ISCAS85_SUITE["c880"].builder(), dict(num_vectors=500, seed=0)
    ),
    "c880_bench_unit_weights": (_c880_bench, dict(num_vectors=500, seed=0)),
    "c7552": (
        lambda: ISCAS85_SUITE["c7552"].builder(), dict(num_vectors=256, seed=0)
    ),
}


@pytest.mark.parametrize("screen", [256, 2048])
@pytest.mark.parametrize("name", sorted(PREPASS_CIRCUITS))
def test_lazy_prepass_injects_what_the_eager_one_did(name, screen, monkeypatch):
    build, kw = PREPASS_CIRCUITS[name]
    eager, _lazy = _assert_same_prepass(
        build(), GreedyConfig(redundancy_prepass=True, **kw), monkeypatch, screen
    )
    assert eager.faults, "expected the prepass to inject something"


def _planted(seed):
    """A random netlist with tautologically gated wires and consensus
    terms planted in it: redundant by construction, with enough inputs
    that a small screen lets testable classes through."""
    from repro.circuit import Circuit, GateType

    rng = np.random.default_rng(seed)
    base = random_circuit(num_inputs=14, num_gates=45, rng=rng, max_fanin=4)
    out = Circuit(f"planted{seed}")
    for name in base.inputs:
        out.add_input(name)
    gates = list(base.gates.values())
    planted = set(rng.choice(len(gates), size=4, replace=False).tolist())
    for k, g in enumerate(gates):
        ins = list(g.inputs)
        if k in planted:
            picks = rng.choice(len(base.inputs), 3, replace=False)
            p, q, r = (base.inputs[int(i)] for i in picks)
            if k % 2:
                out.add_gate(f"pn{k}", GateType.NOT, [p])
                out.add_gate(f"pe{k}", GateType.OR, [p, f"pn{k}"])
                out.add_gate(f"pg{k}", GateType.AND, [ins[0], f"pe{k}"])
            else:
                # ins[0] | (p & q) | (~p & r) | (q & r): the last is redundant
                out.add_gate(f"pn{k}", GateType.NOT, [p])
                out.add_gate(f"pa{k}", GateType.AND, [p, q])
                out.add_gate(f"pb{k}", GateType.AND, [f"pn{k}", r])
                out.add_gate(f"pc{k}", GateType.AND, [q, r])
                out.add_gate(
                    f"pg{k}", GateType.OR, [ins[0], f"pa{k}", f"pb{k}", f"pc{k}"]
                )
            ins[0] = f"pg{k}"
        out.add_gate(g.name, g.gtype, ins)
    data = set(base.data_outputs)
    for name in base.outputs:
        out.add_output(name, base.output_weights.get(name, 1), name in data)
    return out


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    limit=st.sampled_from([2, 500]),
    screen=st.sampled_from([256, 2048]),
)
def test_lazy_prepass_on_planted_redundancy(seed, limit, screen):
    """Random netlists with planted redundancy, with aborts (a backtrack
    limit of 2) and without (500)."""
    config = GreedyConfig(
        redundancy_prepass=True, num_vectors=256, seed=seed % 1000,
        prepass_backtrack_limit=limit,
    )
    with pytest.MonkeyPatch.context() as mp:
        _assert_same_prepass(_planted(seed), config, mp, screen)


#: The prepass's PODEM runs on the e2e benchmark's c880 inputs: the
#: netlist's own weights and datapath candidates (``c880_commit``), and
#: its ``.bench`` text with unit weights (``c880_service``).  Proving
#: every screen survivor of 256 vectors took 17 and 145.
C880_PREPASS_PODEM_RUNS = {"c880_commit": 1, "c880_service": 68}

_PODEM_RUNS_CHILD = textwrap.dedent(
    """
    import json
    from repro import GreedyConfig, circuit_simplify, dumps_bench, loads_bench
    from repro.benchlib import ISCAS85_SUITE
    from repro.obs import Instrumentation

    c880 = ISCAS85_SUITE["c880"].builder()
    inputs = {
        "c880_commit": c880,
        "c880_service": loads_bench(dumps_bench(c880), name="c880"),
    }
    config = GreedyConfig(
        num_vectors=500, seed=0, redundancy_prepass=True, max_iterations=0
    )
    runs = {}
    for name, circuit in inputs.items():
        obs = Instrumentation()
        circuit_simplify(circuit, rs_pct_threshold=1.0, config=config, obs=obs)
        runs[name] = obs.counters.get("podem.runs", 0)
    print(json.dumps(runs))
    """
)


def test_prepass_podem_runs_on_c880_inputs_pinned():
    """c880 is built under ``PYTHONHASHSEED=0`` in a subprocess: the
    generator names its control inverters in set order."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _PODEM_RUNS_CHILD],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    assert json.loads(out.stdout) == C880_PREPASS_PODEM_RUNS
