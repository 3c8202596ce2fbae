"""PODEM pinned to recorded results, and its incremental implication
checked against a full five-valued pass.

Every collapsed fault of each circuit runs through one shared
:class:`~repro.atpg.podem.Podem` instance, in class order, as the
redundancy prepass runs them.  The ``(status, vector, backtracks,
decisions, implications)`` record of each fault is hashed; the digests
below were recorded while every implication re-simulated the whole
netlist, so they pin the event-driven implication to the same search,
step for step.  The random circuits use a small backtrack budget so
that aborts are covered.  c880 is built under ``PYTHONHASHSEED=0`` in
a subprocess: the ISCAS85-like generators name their control inverters
in set order, so the netlist depends on the hash seed.
"""

import hashlib
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg import Podem
from repro.benchlib import random_circuit
from repro.circuit import CircuitBuilder, GateType
from repro.faults import enumerate_faults
from repro.faults.collapse import collapse_faults
from tests.conftest import build_c17, build_ripple_adder


def podem_records(circuit, backtrack_limit):
    """One record per collapsed fault, all through one Podem."""
    podem = Podem(circuit, backtrack_limit=backtrack_limit)
    faults = enumerate_faults(circuit, include_branches=True)
    records = []
    for rep in collapse_faults(circuit, faults).members:
        r = podem.run(rep)
        vec = None
        if r.vector is not None:
            vec = "".join(str(r.vector[pi]) for pi in circuit.inputs)
        records.append(
            [str(rep), r.status.value, vec, r.backtracks, r.decisions, r.implications]
        )
    return records


def records_summary(records):
    """Digest of the records plus the status tally they cover."""
    text = json.dumps(records, separators=(",", ":"))
    tally = {}
    for rec in records:
        tally[rec[1]] = tally.get(rec[1], 0) + 1
    return {
        "digest": hashlib.sha256(text.encode()).hexdigest()[:16],
        "statuses": tally,
    }


def _random(seed):
    rng = np.random.default_rng(seed)
    return random_circuit(num_inputs=8, num_gates=40, rng=rng, name=f"rand{seed}")


#: name -> (circuit builder, backtrack limit, recorded summary)
PINNED = {
    "c17": (build_c17, 20_000,
            {"digest": "085e7b909af1e6e0", "statuses": {"testable": 22}}),
    "rca4": (lambda: build_ripple_adder(4), 20_000,
             {"digest": "a88309030704bc87", "statuses": {"testable": 86}}),
    "rand3": (lambda: _random(3), 2,
              {"digest": "9687f59d93568776",
               "statuses": {"testable": 174, "aborted": 25, "redundant": 8}}),
    "rand17": (lambda: _random(17), 2,
               {"digest": "eb42df7fdcd86d0d",
                "statuses": {"testable": 176, "aborted": 25, "redundant": 6}}),
    "rand29": (lambda: _random(29), 2,
               {"digest": "e83af8e313e85826",
                "statuses": {"testable": 178, "redundant": 4, "aborted": 14}}),
    "rand41": (lambda: _random(41), 2,
               {"digest": "238fd5c239475b82",
                "statuses": {"testable": 191, "aborted": 20, "redundant": 1}}),
}

#: c880 at the prepass's default backtrack budget.
C880_PINNED = {
    "digest": "db707cf698733329",
    "statuses": {"testable": 949, "redundant": 83, "aborted": 3},
}

_C880_CHILD = textwrap.dedent(
    """
    import json, sys
    sys.path.insert(0, ".")
    from repro.benchlib import ISCAS85_SUITE
    from tests.atpg.test_podem_pinned import podem_records, records_summary

    records = podem_records(ISCAS85_SUITE["c880"].builder(), 500)
    print(json.dumps(records_summary(records)))
    """
)


def _c880_summary():
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _C880_CHILD],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(out.stdout)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_podem_records_pinned(name):
    build, limit, golden = PINNED[name]
    assert records_summary(podem_records(build(), limit)) == golden


def test_podem_records_pinned_c880():
    assert _c880_summary() == C880_PINNED


class _CheckedPodem(Podem):
    """Compares the incremental values with a full five-valued pass
    after the fault injection and after every decision and backtrack."""

    checks = 0

    def _inject(self, values, fault):
        super()._inject(values, fault)
        assert values == self._simulate({}, fault)
        self.checks += 1

    def _imply(self, values, assign, fault, pis):
        super()._imply(values, assign, fault, pis)
        assert values == self._simulate(assign, fault)
        self.checks += 1


def _random_with_constants(rng):
    """A random circuit whose gates may also read CONST0/CONST1, so the
    all-X baseline is not all X."""
    b = CircuitBuilder("randc")
    signals = [b.input(f"i{k}") for k in range(int(rng.integers(3, 7)))]
    signals += [b.const(0), b.const(1)]
    types = [GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
             GateType.XOR, GateType.XNOR, GateType.NOT, GateType.BUF]
    for k in range(int(rng.integers(4, 25))):
        gt = types[int(rng.integers(0, len(types)))]
        fanin = 1 if gt in (GateType.NOT, GateType.BUF) else int(rng.integers(2, 4))
        ins = [signals[int(rng.integers(0, len(signals)))] for _ in range(fanin)]
        signals.append(b.gate(gt, ins, name=f"g{k}"))
    used = {src for g in b.circuit.gates.values() for src in g.inputs}
    sinks = [s for s in signals if s not in used and not b.circuit.is_input(s)]
    for o in sinks[:4]:
        b.output(o)
    return b.build()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    constants=st.booleans(),
    backtrack_limit=st.sampled_from([1, 4, 20_000]),
)
def test_incremental_implication_equals_full_pass(seed, constants, backtrack_limit):
    rng = np.random.default_rng(seed)
    if constants:
        ckt = _random_with_constants(rng)
    else:
        ckt = random_circuit(
            num_inputs=int(rng.integers(3, 7)),
            num_gates=int(rng.integers(4, 25)),
            rng=rng,
        )
    podem = _CheckedPodem(ckt, backtrack_limit=backtrack_limit)
    implications = 0
    for fault in enumerate_faults(ckt, include_branches=True):
        implications += podem.run(fault).implications
    # one check per implication step: none of them was skipped
    assert podem.checks == implications
