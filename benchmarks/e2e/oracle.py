"""Independent correctness oracle for the end-to-end benchmark.

A per-gate numpy evaluator that reads only a netlist's public structure
(``inputs``, ``outputs`` and ``gates``, each gate with ``gtype.value``
and ``inputs``) and re-measures a simplified netlist against its
original on a vector batch.  It imports nothing from ``repro``, so it
shares no simulation, ordering or area code with the program it checks.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Sequence

import numpy as np

# gate type -> (binary reduction, output inverted)
_OPS = {
    "AND": (np.logical_and, False),
    "NAND": (np.logical_and, True),
    "OR": (np.logical_or, False),
    "NOR": (np.logical_or, True),
    "XOR": (np.logical_xor, False),
    "XNOR": (np.logical_xor, True),
    "BUF": (None, False),
    "NOT": (None, True),
}


def vector_batch(num_inputs: int, num_vectors: int, seed: int) -> np.ndarray:
    """The batch a run with ``SimplifyRequest(seed=seed)`` measures on:
    uniform bits from ``numpy.random.default_rng(seed)``, one row per
    vector, one column per primary input in declaration order."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(num_vectors, num_inputs), dtype=np.uint8).astype(bool)


def _topological(gates) -> List[str]:
    indegree = {name: 0 for name in gates}
    users: Dict[str, List[str]] = {}
    for name, gate in gates.items():
        for src in gate.inputs:
            if src in gates:
                indegree[name] += 1
                users.setdefault(src, []).append(name)
    ready = [name for name, d in indegree.items() if d == 0]
    order = []
    while ready:
        name = ready.pop()
        order.append(name)
        for user in users.get(name, ()):
            indegree[user] -= 1
            if indegree[user] == 0:
                ready.append(user)
    if len(order) != len(gates):
        raise ValueError("netlist has a combinational cycle")
    return order


def evaluate(circuit, vectors: np.ndarray) -> Dict[str, np.ndarray]:
    """Every signal's value under every vector (one bool per vector)."""
    n = vectors.shape[0]
    values = {name: vectors[:, i] for i, name in enumerate(circuit.inputs)}
    for name in _topological(circuit.gates):
        gate = circuit.gates[name]
        kind = gate.gtype.value
        if kind == "CONST0":
            values[name] = np.zeros(n, dtype=bool)
        elif kind == "CONST1":
            values[name] = np.ones(n, dtype=bool)
        else:
            op, invert = _OPS[kind]
            ins = [values[src] for src in gate.inputs]
            out = functools.reduce(op, ins[1:], ins[0]) if op is not None else ins[0]
            values[name] = ~out if invert else out
    return values


def area(circuit) -> int:
    """Literal-count area: n-input gates cost n, inverters 1, buffers and
    constants nothing."""
    total = 0
    for gate in circuit.gates.values():
        kind = gate.gtype.value
        if kind == "NOT":
            total += 1
        elif kind not in ("BUF", "CONST0", "CONST1"):
            total += max(1, len(gate.inputs))
    return total


def measure(
    original,
    approx,
    vectors: np.ndarray,
    value_positions: Sequence[int],
    weights: Sequence[int],
) -> tuple:
    """``(er, observed_es)`` of ``approx`` against ``original``.

    Outputs pair by position.  ER is the share of vectors on which any
    output differs; observed ES is the largest absolute weighted
    deviation of the value outputs (``value_positions`` with
    ``weights``) over the batch.
    """
    if len(approx.outputs) != len(original.outputs):
        raise ValueError("simplified netlist changed the output count")
    good = evaluate(original, vectors)
    bad = evaluate(approx, vectors)
    good_out = [good[o] for o in original.outputs]
    bad_out = [bad[o] for o in approx.outputs]
    n = vectors.shape[0]
    mismatch = np.zeros(n, dtype=bool)
    for g, b in zip(good_out, bad_out):
        mismatch |= g != b
    deviation = np.zeros(n, dtype=np.int64)
    for pos, weight in zip(value_positions, weights):
        deviation += int(weight) * (
            bad_out[pos].astype(np.int64) - good_out[pos].astype(np.int64)
        )
    er = np.count_nonzero(mismatch) / n
    observed = int(np.abs(deviation).max()) if n else 0
    return er, observed


def check(
    original,
    simplified,
    metrics,
    area_reduction_pct: float,
    threshold: float,
    vectors: np.ndarray,
    value_positions: Sequence[int],
    weights: Sequence[int],
) -> List[str]:
    """Names of the checks a simplification result fails (empty if none).

    ``metrics`` is the result's final ``ErrorMetrics``; the oracle's own
    ER and observed ES must equal it, the RS bound the program proved
    (``er * max(observed_es, es_bound)``) must fit ``threshold``, and
    the reported area reduction must match the netlists.
    """
    if metrics is None:
        return ["final_metrics"]
    try:
        er, observed = measure(original, simplified, vectors, value_positions, weights)
    except (KeyError, ValueError):
        return ["oracle_eval"]
    failures = []
    if er != metrics.er:
        failures.append("oracle_er")
    if observed != metrics.observed_es:
        failures.append("oracle_es")
    if er * max(observed, metrics.es_bound or 0) > threshold * (1.0 + 1e-9):
        failures.append("rs_budget")
    base = area(original)
    if abs(100.0 * (base - area(simplified)) / base - area_reduction_pct) > 1e-9:
        failures.append("area")
    return failures
