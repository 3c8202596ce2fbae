"""Self-test of the end-to-end benchmark harness (under a minute).

    PYTHONPATH=src python3 -m pytest benchmarks/e2e/test_harness.py -q

Runs a reduced c880 (1k vectors, one repetition) and checks that every
declared metric is emitted with its unit, that the oracle flags a
corrupted netlist, that traced self time fits in the wall time, and
that no tracer wrapper survives a traced run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import oracle  # noqa: E402
import trace  # noqa: E402
from repro.benchlib import ISCAS85_SUITE  # noqa: E402
from repro.circuit import GateType  # noqa: E402
from repro.core import api  # noqa: E402
from repro.core.api import SimplifyRequest  # noqa: E402

VECTORS = 1000


def _run(trace_flag: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "c880_commit", "--seed", "0",
         "--seconds", "1", "--vectors", str(VECTORS), "--trace", str(trace_flag)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace_flag,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(trace_flag, kind):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    result = _run(trace_flag)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


@pytest.fixture(scope="module")
def traced_run():
    circuit = ISCAS85_SUITE["c880"].builder()
    request = SimplifyRequest(rs_pct_threshold=1.0, fom="area_per_rs", num_vectors=VECTORS,
                              redundancy_prepass=True, workers=1)
    tracer = trace.Tracer()
    tracer.install()
    try:
        outcome = api.simplify(circuit, request)
    finally:
        tracer.uninstall()
    return circuit, outcome, tracer


def _oracle_failures(circuit, simplified, outcome):
    outputs = list(circuit.outputs)
    weights = [circuit.output_weights[o] for o in circuit.data_outputs]
    return oracle.check(
        circuit, simplified, outcome.final_metrics, outcome.area_reduction_pct,
        threshold=sum(weights) / 100.0,
        vectors=oracle.vector_batch(len(circuit.inputs), VECTORS, child.VECTOR_SEED),
        value_positions=[outputs.index(o) for o in circuit.data_outputs],
        weights=weights,
    )


def test_oracle_flags_a_corrupted_netlist(traced_run):
    circuit, outcome, _tracer = traced_run
    assert _oracle_failures(circuit, outcome.simplified, outcome) == []
    corrupted = outcome.simplified.copy()
    gate = corrupted.gates[corrupted.data_outputs[0]]
    while gate.gtype in (GateType.BUF, GateType.NOT):
        gate = corrupted.gates[gate.inputs[0]]
    flip = {GateType.AND: GateType.OR, GateType.OR: GateType.AND}
    corrupted.replace_gate(gate.name, flip[gate.gtype], gate.inputs)
    assert "oracle_er" in _oracle_failures(circuit, corrupted, outcome)


def test_traced_self_time_fits_in_wall_time(traced_run):
    _circuit, _outcome, tracer = traced_run
    per, wall = tracer.self_times()
    assert per["core.api.simplify"][0] == 1
    assert 0.0 < sum(self_s for _calls, self_s in per.values()) <= wall


def test_no_wrapper_survives_a_traced_run(traced_run):
    assert trace.surviving_wrappers() == []
