"""The simplification engine: equivalence to behavioural injection,
area accounting, and the paper's Fig. 4 example."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.benchlib import random_circuit
from repro.circuit import CircuitBuilder, CircuitError, GateType
from repro.faults import StuckAtFault, enumerate_faults, inject_faults
from repro.simplify import (
    Overlay,
    preview_area_reduction,
    simplify_with_fault,
    simplify_with_faults,
)
from repro.simulation import LogicSimulator, exhaustive_vectors


def same_function(a, b):
    vecs = exhaustive_vectors(len(a.inputs))
    ra = LogicSimulator(a).run(vecs).output_bits(a.outputs)
    rb = LogicSimulator(b).run(vecs).output_bits(b.outputs)
    return bool((ra == rb).all())


def pick_faults(ckt, rng, k):
    faults = enumerate_faults(ckt)
    pick = [faults[int(i)] for i in rng.permutation(len(faults))[:k]]
    seen = set()
    return [f for f in pick if not (f.line in seen or seen.add(f.line))]


# ----------------------------------------------------------------------
# Fig. 4 of the paper
# ----------------------------------------------------------------------
def figure4_circuit():
    """The paper's Fig. 4(a): fault site f = output of gate J."""
    b = CircuitBuilder("fig4")
    i1, i2, i3, i4, i5 = (b.input(f"x{k}") for k in range(1, 6))
    h = b.AND(i1, i2, name="H")
    i_g = b.OR(i3, h, name="I")
    j = b.AND(i_g, i4, name="J")  # line f = J's output
    k = b.NAND(j, i5, name="K")
    l = b.OR(j, i5, name="L")
    b.output(k, weight=1)  # O1
    b.output(l, weight=2)  # O2
    return b.build()


def test_fig4_sa1_removes_backward_logic_and_rewrites_forward():
    """Injecting f SA1: gates I and H die backward; L collapses to
    constant 1; K becomes an inverter (the paper's narrative)."""
    ckt = figure4_circuit()
    simp = simplify_with_fault(ckt, StuckAtFault.stem("J", 1))
    # backward: H, I gone; the constant at J is absorbed by K and L, so
    # J itself disappears too
    assert not simp.has_signal("H")
    assert not simp.has_signal("I")
    assert not simp.has_signal("J")
    # forward: L = OR(1, i5) -> constant 1; K = NAND(1, i5) -> NOT i5
    assert simp.gate("L").gtype is GateType.CONST1
    assert simp.gate("K").gtype is GateType.NOT
    assert simp.gate("K").inputs == ("x5",)
    # function equals behavioural injection
    assert same_function(simp, inject_faults(ckt, [StuckAtFault.stem("J", 1)]))


def test_fig4_sa0():
    ckt = figure4_circuit()
    simp = simplify_with_fault(ckt, StuckAtFault.stem("J", 0))
    # K = NAND(0, x5) -> const 1; L = OR(0, x5) -> buffer of x5
    assert simp.gate("K").gtype is GateType.CONST1
    assert simp.gate("L").gtype is GateType.BUF
    assert same_function(simp, inject_faults(ckt, [StuckAtFault.stem("J", 0)]))


# ----------------------------------------------------------------------
# property: engine == behavioural injection
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_single_fault_equivalence_and_area(seed):
    rng = np.random.default_rng(seed)
    ckt = random_circuit(
        num_inputs=int(rng.integers(3, 7)),
        num_gates=int(rng.integers(4, 28)),
        rng=rng,
    )
    faults = enumerate_faults(ckt)
    for i in rng.permutation(len(faults))[:6]:
        f = faults[int(i)]
        simp = simplify_with_fault(ckt, f)
        assert same_function(simp, inject_faults(ckt, [f])), str(f)
        assert simp.area() <= ckt.area()
        assert ckt.area() - simp.area() == preview_area_reduction(ckt, f)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_multiple_fault_equivalence(seed):
    rng = np.random.default_rng(seed)
    ckt = random_circuit(
        num_inputs=int(rng.integers(3, 7)),
        num_gates=int(rng.integers(4, 24)),
        rng=rng,
    )
    fs = pick_faults(ckt, rng, int(rng.integers(2, 6)))
    simp = simplify_with_faults(ckt, fs)
    assert same_function(simp, inject_faults(ckt, fs)), [str(f) for f in fs]
    assert simp.area() <= ckt.area()


# ----------------------------------------------------------------------
# edge cases
# ----------------------------------------------------------------------
def test_pi_stem_fault_with_po():
    b = CircuitBuilder()
    a, x = b.input("a"), b.input("x")
    b.output(a, weight=4)
    b.output(b.AND(a, x), weight=1)
    ckt = b.build()
    simp = simplify_with_fault(ckt, StuckAtFault.stem("a", 1))
    assert len(simp.outputs) == 2
    # PO 0 now aliases a constant-1; weight carried over
    assert simp.output_weights[simp.outputs[0]] == 4
    assert same_function(simp, inject_faults(ckt, [StuckAtFault.stem("a", 1)]))


def test_po_becomes_constant(c17):
    simp = simplify_with_fault(c17, StuckAtFault.stem("G22", 0))
    assert simp.gate("G22").gtype is GateType.CONST0
    # G10 fed only G22 -> dead
    assert not simp.has_signal("G10")


def test_branch_fault_keeps_stem(c17):
    f = StuckAtFault.branch("G11", "G16", 1, 1)
    simp = simplify_with_fault(c17, f)
    # G11 must survive: it still drives G19
    assert simp.has_signal("G11")
    # G16 = NAND(G2, 1) -> inverter
    assert simp.gate("G16").gtype is GateType.NOT
    assert same_function(simp, inject_faults(c17, [f]))


def test_xor_flip_chain():
    b = CircuitBuilder()
    ins = b.input_bus("d", 3)
    x = b.XOR(*ins, name="x")
    b.output(x)
    ckt = b.build()
    # d0 branch... d0 single consumer -> stem fault SA1 on d0
    simp = simplify_with_fault(ckt, StuckAtFault.stem("d0", 1))
    assert simp.gate("x").gtype is GateType.XNOR
    assert len(simp.gate("x").inputs) == 2
    assert same_function(simp, inject_faults(ckt, [StuckAtFault.stem("d0", 1)]))


def test_all_inputs_dropped_identity():
    b = CircuitBuilder()
    a, c = b.input("a"), b.input("b")
    z = b.AND(a, c, name="z")
    b.output(z)
    ckt = b.build()
    simp = simplify_with_faults(
        ckt, [StuckAtFault.stem("a", 1), StuckAtFault.stem("b", 1)]
    )
    assert simp.gate("z").gtype is GateType.CONST1


def test_area_monotone_over_sequence(adder4, rng):
    faults = enumerate_faults(adder4)
    overlay = Overlay(adder4)
    prev = adder4.area()
    applied = set()
    for i in rng.permutation(len(faults))[:8]:
        f = faults[int(i)]
        if f.line in applied:
            continue
        try:
            overlay.apply(f)
        except CircuitError:
            continue  # interacts with an earlier edit: skip
        applied.add(f.line)
        cur = adder4.area() - overlay.area_delta()
        assert cur <= prev
        prev = cur


def test_unknown_site_rejected(c17):
    with pytest.raises(CircuitError):
        simplify_with_fault(c17, StuckAtFault.stem("ghost", 0))


def test_contradictory_set_rejected(c17):
    with pytest.raises(CircuitError):
        simplify_with_faults(
            c17, [StuckAtFault.stem("G16", 0), StuckAtFault.stem("G16", 1)]
        )


def test_outputs_and_weights_preserved(adder4):
    f = StuckAtFault.stem(adder4.outputs[2], 0)
    simp = simplify_with_fault(adder4, f)
    assert simp.outputs == adder4.outputs
    assert simp.output_weights == adder4.output_weights
    assert simp.inputs == adder4.inputs


# ----------------------------------------------------------------------
# Overlay.materialize against the add_gate-based body it replaced (kept
# here as the reference)
# ----------------------------------------------------------------------
def _ref_materialize(overlay, name=None):
    from repro.circuit import Circuit

    base = overlay.circuit
    out = Circuit(name or f"{base.name}_simplified")
    for pi in base.inputs:
        out.add_input(pi)
    const_alias = {}
    for gname in base.topological_order():
        if gname in overlay.dead:
            continue
        gt = overlay.gtype_of(gname)
        if gt in (GateType.CONST0, GateType.CONST1):
            out.add_gate(gname, gt, ())
            continue
        out.add_gate(gname, gt, [src for _pin, src in overlay.live_pins(gname)])
    for o in base.outputs:
        weight = base.output_weights.get(o, 1)
        is_data = o in set(base.data_outputs)
        pi_stuck = base.is_input(o) and o in overlay.const_of
        if out.has_signal(o) and not pi_stuck:
            out.add_output(o, weight=weight, is_data=is_data)
            continue
        value = overlay.const_of.get(o)
        if value is None:
            raise CircuitError(f"output {o!r} lost its driver without a constant")
        if value not in const_alias:
            cname = f"__const{value}"
            k = 0
            while out.has_signal(cname):
                cname = f"__const{value}_{k}"
                k += 1
            out.add_gate(cname, GateType.CONST1 if value else GateType.CONST0, ())
            const_alias[value] = cname
        alias = f"{o}__tied"
        k = 0
        while out.has_signal(alias):
            alias = f"{o}__tied_{k}"
            k += 1
        out.add_gate(alias, GateType.BUF, (const_alias[value],))
        out.add_output(alias, weight=weight, is_data=is_data)
    out.validate()
    return out


def _netlist_facts(c):
    return (
        c.name,
        c.inputs,
        [(g.name, g.gtype, g.inputs) for g in c.gates.values()],
        c.outputs,
        list(c.output_weights.items()),
        c.data_outputs,
    )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_materialize_matches_add_gate_reference(seed):
    rng = np.random.default_rng(seed)
    ckt = random_circuit(
        num_inputs=int(rng.integers(2, 7)), num_gates=int(rng.integers(3, 25)), rng=rng
    )
    ckt.data_outputs = [o for o in ckt.outputs if rng.random() < 0.7]
    ckt.add_output(ckt.inputs[0], weight=8)  # a PI on a primary output
    ckt.add_output(ckt.outputs[0], weight=2, is_data=False)  # referenced twice
    if rng.random() < 0.5:
        ckt.add_gate("__const1", GateType.CONST1)  # a name the alias must skip
    faults = pick_faults(ckt, rng, int(rng.integers(1, 6)))
    if rng.random() < 0.5:
        pi_stem = StuckAtFault.stem(ckt.inputs[0], int(rng.integers(0, 2)))
        faults = [f for f in faults if f.line.signal != pi_stem.signal] + [pi_stem]
    overlay = Overlay(ckt)
    try:
        overlay.apply_all(faults)
    except CircuitError:
        return
    reads = set(overlay.reads)
    got = overlay.materialize("m")
    assert overlay.reads == reads  # materialize records no reads
    assert _netlist_facts(got) == _netlist_facts(_ref_materialize(overlay, "m"))
    assert _netlist_facts(overlay.materialize()) == _netlist_facts(_ref_materialize(overlay))
