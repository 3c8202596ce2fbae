"""Fault-site model and fault-list construction."""

import pytest

from repro.faults import Line, StuckAtFault, datapath_faults, enumerate_faults, enumerate_lines


def test_line_kinds():
    stem = Line("s")
    assert stem.is_stem and not stem.is_branch
    br = Line("s", "g", 1)
    assert br.is_branch and not br.is_stem
    assert str(stem) == "s"
    assert str(br) == "s->g.1"


def test_line_validation():
    with pytest.raises(ValueError):
        Line("s", "g", None)
    with pytest.raises(ValueError):
        Line("s", None, 0)


def test_fault_validation():
    with pytest.raises(ValueError):
        StuckAtFault(Line("s"), 2)
    f = StuckAtFault.stem("s", 1)
    assert str(f) == "s SA1"
    assert f.signal == "s"
    b = StuckAtFault.branch("s", "g", 0, 0)
    assert str(b) == "s->g.0 SA0"


def test_enumerate_lines_c17(c17):
    lines = enumerate_lines(c17)
    stems = [l for l in lines if l.is_stem]
    branches = [l for l in lines if l.is_branch]
    # 5 PIs + 6 gates
    assert len(stems) == 11
    # fanout signals: G3 (2 consumers), G11 (2), G16 (2 gates + 1 PO -> 2 branches)
    branch_signals = {l.signal for l in branches}
    assert branch_signals == {"G3", "G11", "G16"}
    assert len(branches) == 6


def test_enumerate_faults_counts(c17):
    faults = enumerate_faults(c17)
    assert len(faults) == 2 * len(enumerate_lines(c17))
    no_branches = enumerate_faults(c17, include_branches=False)
    assert len(no_branches) == 22


def test_enumerate_faults_signal_filter(c17):
    faults = enumerate_faults(c17, signals={"G10"})
    assert {f.signal for f in faults} == {"G10"}
    assert len(faults) == 2


def test_datapath_faults_all_data(c17):
    # no control outputs -> every fault is a candidate
    assert len(datapath_faults(c17)) == len(enumerate_faults(c17))


def test_datapath_faults_excludes_control_and_shared(adder4_ctl):
    dp = datapath_faults(adder4_ctl)
    assert dp
    pis = set(adder4_ctl.inputs)
    from repro.circuit import transitive_fanin

    ctl_cone = set()
    for o in adder4_ctl.control_outputs:
        ctl_cone |= transitive_fanin(adder4_ctl, o)
    for f in dp:
        assert f.signal not in pis  # PIs feed the parity flag too
        assert f.signal not in ctl_cone


def test_fault_ordering_deterministic(c17):
    a = enumerate_faults(c17)
    b = enumerate_faults(c17)
    assert a == b


# ----------------------------------------------------------------------
# the linear enumeration against the per-output, build-then-filter code
# it replaced (kept here as the reference)
# ----------------------------------------------------------------------
def _ref_fanin(circuit, signal):
    seen = set()
    stack = [signal]
    while stack:
        s = stack.pop()
        if s in seen:
            continue
        seen.add(s)
        g = circuit.driver(s)
        if g is not None:
            stack.extend(src for src in g.inputs if src not in seen)
    return seen


def _ref_classify(circuit):
    data_cone = set()
    for o in circuit.data_outputs:
        data_cone |= _ref_fanin(circuit, o)
    control_cone = set()
    for o in circuit.control_outputs:
        control_cone |= _ref_fanin(circuit, o)
    return {
        "data": data_cone - control_cone,
        "control": control_cone - data_cone,
        "shared": data_cone & control_cone,
        "dead": set(circuit.signals()) - data_cone - control_cone,
    }


def _ref_consumer_count(circuit, signal):
    n = len(circuit.fanout_map().get(signal, ()))
    return n + sum(1 for o in circuit.outputs if o == signal)


def _ref_lines(circuit, include_branches=True):
    lines = [Line(s) for s in circuit.signals()]
    if include_branches:
        for signal, consumers in circuit.fanout_map().items():
            if _ref_consumer_count(circuit, signal) <= 1:
                continue
            for gate_name, pin in consumers:
                lines.append(Line(signal, gate_name, pin))
    return lines


def _ref_enumerate_faults(circuit, include_branches=True, signals=None):
    return [
        StuckAtFault(line, v)
        for line in _ref_lines(circuit, include_branches)
        if signals is None or line.signal in signals
        for v in (0, 1)
    ]


def _ref_datapath_faults(circuit, include_branches=True):
    allowed = _ref_classify(circuit)["data"]
    return [
        StuckAtFault(line, v)
        for line in _ref_lines(circuit, include_branches)
        if line.signal in allowed and not (line.is_branch and line.gate not in allowed)
        for v in (0, 1)
    ]


def _enumeration_circuits():
    import numpy as np

    from repro.benchlib import ISCAS85_SUITE, random_circuit
    from repro.circuit import GateType

    for spec in ISCAS85_SUITE.values():
        yield spec.builder()
    rng = np.random.default_rng(1808)
    for _ in range(30):
        c = random_circuit(
            num_inputs=int(rng.integers(2, 7)), num_gates=int(rng.integers(3, 30)), rng=rng
        )
        c.data_outputs = [o for o in c.outputs if rng.random() < 0.6]
        c.add_output(c.outputs[-1], weight=3, is_data=bool(rng.integers(0, 2)))
        c.add_output(c.inputs[0], is_data=bool(rng.integers(0, 2)))  # a PI output
        c.add_gate("dangling", GateType.AND, c.inputs[:2] * (1 if len(c.inputs) > 1 else 2))
        yield c


def test_linear_enumeration_matches_per_output_reference():
    from repro.circuit import classify_signals

    for c in _enumeration_circuits():
        assert classify_signals(c) == _ref_classify(c), c.name
        for s in c.signals():
            assert c.consumer_count(s) == _ref_consumer_count(c, s)
        for branches in (True, False):
            assert enumerate_lines(c, branches) == _ref_lines(c, branches)
            assert datapath_faults(c, branches) == _ref_datapath_faults(c, branches)
            assert enumerate_faults(c, branches) == _ref_enumerate_faults(c, branches)
            some = set(list(c.signals())[::2])
            assert enumerate_faults(c, branches, some) == _ref_enumerate_faults(
                c, branches, some
            )
