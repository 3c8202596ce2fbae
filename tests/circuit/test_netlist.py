"""Circuit construction, validation, derived structure, mutation."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.benchlib import random_circuit
from repro.circuit import Circuit, CircuitError, GateType, gate_area
from repro.circuit.netlist import Gate


def test_basic_construction(c17):
    assert c17.inputs == ("G1", "G2", "G3", "G6", "G7")
    assert c17.outputs == ("G22", "G23")
    assert c17.num_gates == 6
    assert len(c17) == 6
    assert c17.is_input("G1")
    assert not c17.is_input("G10")
    assert c17.is_output("G22")
    assert c17.has_signal("G16")
    assert not c17.has_signal("nope")


def test_duplicate_signal_rejected():
    c = Circuit()
    c.add_input("a")
    with pytest.raises(CircuitError):
        c.add_input("a")
    with pytest.raises(CircuitError):
        c.add_gate("a", GateType.NOT, ("a",))


def test_gate_arity_validation():
    with pytest.raises(CircuitError):
        Gate("g", GateType.NOT, ("a", "b"))
    with pytest.raises(CircuitError):
        Gate("g", GateType.AND, ())
    with pytest.raises(CircuitError):
        Gate("g", GateType.CONST0, ("a",))


def test_driver_and_gate_access(c17):
    assert c17.driver("G1") is None
    g = c17.gate("G10")
    assert g.gtype is GateType.NAND
    assert g.inputs == ("G1", "G3")
    with pytest.raises(CircuitError):
        c17.gate("G1")


def test_topological_order(c17):
    order = c17.topological_order()
    pos = {n: i for i, n in enumerate(order)}
    for name, gate in c17.gates.items():
        for src in gate.inputs:
            if src in pos:
                assert pos[src] < pos[name]


def test_cycle_detected():
    c = Circuit()
    c.add_input("a")
    c.add_gate("x", GateType.AND, ("a", "y"))
    c.add_gate("y", GateType.AND, ("a", "x"))
    with pytest.raises(CircuitError):
        c.topological_order()


def test_unknown_input_detected():
    c = Circuit()
    c.add_input("a")
    c.add_gate("x", GateType.AND, ("a", "ghost"))
    with pytest.raises(CircuitError):
        c.topological_order()


def test_levels(c17):
    lvl = c17.levels()
    assert lvl["G1"] == 0
    assert lvl["G10"] == 1
    assert lvl["G16"] == 2
    assert lvl["G22"] == 3


def test_fanout_map_and_stems(c17):
    fan = c17.fanout_map()
    assert sorted(fan["G11"]) == [("G16", 1), ("G19", 0)]
    assert c17.is_stem("G11")
    assert c17.is_stem("G16")  # feeds G22 and G23
    assert not c17.is_stem("G10")
    assert c17.consumer_count("G22") == 1  # PO reference only


def test_validate_output_exists():
    c = Circuit()
    c.add_input("a")
    c.add_output("missing")
    with pytest.raises(CircuitError):
        c.validate()


def test_area_model(c17, adder4):
    # six 2-input NANDs
    assert c17.area() == 12
    assert gate_area(Gate("g", GateType.NOT, ("a",))) == 1
    assert gate_area(Gate("g", GateType.BUF, ("a",))) == 0
    assert gate_area(Gate("g", GateType.CONST0, ())) == 0
    assert gate_area(Gate("g", GateType.AND, ("a", "b", "c"))) == 3
    assert adder4.area() == sum(gate_area(g) for g in adder4.gates.values())


def test_mutations(c17):
    c = c17.copy()
    c.replace_gate("G10", GateType.AND, ("G1", "G3"))
    assert c.gate("G10").gtype is GateType.AND
    c.tie_constant("G19", 1)
    assert c.constant_output_value("G19") == 1
    assert c.constant_output_value("G10") is None
    c.rewire_pin("G22", 0, "G16")
    assert c.gate("G22").inputs == ("G16", "G16")
    # original untouched
    assert c17.gate("G10").gtype is GateType.NAND


def test_remove_gate_guards(c17):
    c = c17.copy()
    with pytest.raises(CircuitError):
        c.remove_gate("G11")  # still feeds gates
    with pytest.raises(CircuitError):
        c.remove_gate("G22")  # primary output
    # disconnect G10's consumer, then removal works
    c.replace_gate("G22", GateType.BUF, ("G16",))
    c.remove_gate("G10")
    assert not c.has_signal("G10")


def test_tie_constant_rejects_inputs(c17):
    c = c17.copy()
    with pytest.raises(CircuitError):
        c.tie_constant("G1", 0)


def test_rename_output(adder4):
    c = adder4.copy()
    old = c.outputs[0]
    c.add_gate("alias", GateType.BUF, (old,))
    w = c.output_weights[old]
    c.rename_output(old, "alias")
    assert "alias" in c.outputs
    assert old not in c.outputs
    assert c.output_weights["alias"] == w
    assert "alias" in c.data_outputs
    with pytest.raises(CircuitError):
        c.rename_output("nonexistent", "alias")


def test_copy_is_independent(c17):
    c = c17.copy("clone")
    c.tie_constant("G22", 0)
    assert c17.constant_output_value("G22") is None
    assert c.name == "clone"


def test_stats(c17):
    s = c17.stats()
    assert s["inputs"] == 5
    assert s["outputs"] == 2
    assert s["gates"] == 6
    assert s["gates_NAND"] == 6
    assert s["area"] == 12


def test_control_outputs(adder4_ctl):
    assert len(adder4_ctl.control_outputs) == 1
    assert set(adder4_ctl.data_outputs) | set(adder4_ctl.control_outputs) == set(
        adder4_ctl.outputs
    )


# ----------------------------------------------------------------------
# cached views: invalidation and pickling
# ----------------------------------------------------------------------
_LOGIC_TYPES = (
    GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
    GateType.XOR, GateType.XNOR, GateType.NOT, GateType.BUF,
)


def _program_facts(program):
    groups = [
        (core, out.tolist(), ins.tolist(), None if inv is None else inv.tolist())
        for level in program.levels
        for core, out, ins, inv in level
    ]
    return (
        program.num_inputs,
        program.num_rows,
        list(program.row_of.items()),
        [column.tolist() for column in program.gate_table],
        groups,
        program.loc,
        program.level_of_row,
    )


def _ref_topological_order(c):
    """Kahn's algorithm over a dependents map, as the order was first
    computed (the view now walks the fanout map)."""
    indeg, dependents = {}, {}
    for g in c.gates.values():
        indeg[g.name] = 0
        for src in g.inputs:
            if src in c.gates:
                indeg[g.name] += 1
                dependents.setdefault(src, []).append(g.name)
    ready = [n for n, d in indeg.items() if d == 0]
    order = []
    while ready:
        n = ready.pop()
        order.append(n)
        for dep in dependents.get(n, ()):
            indeg[dep] -= 1
            if indeg[dep] == 0:
                ready.append(dep)
    return order


def _view_facts(c):
    """Every cached view of ``c``, read through the public accessors."""
    from repro.simulation import compile_program

    fan = c.fanout_map()
    return (
        list(c.topological_order()),
        [(s, list(pins)) for s, pins in fan.items()],
        list(c.output_refs().items()),
        [c.consumer_count(s) for s in c.signals()],
        [c.is_output(s) for s in c.signals()],
        c.area(),
        _program_facts(compile_program(c)),
    )


def _random_operands(rng, pool, gtype):
    if gtype in (GateType.CONST0, GateType.CONST1):
        return ()
    arity = 1 if gtype in (GateType.NOT, GateType.BUF) else int(rng.integers(2, 4))
    return tuple(pool[int(rng.integers(0, len(pool)))] for _ in range(arity))


def _mutate(c, rng, step):
    """Apply one random mutator to ``c`` (acyclic by construction)."""
    order = c.topological_order()
    signals = list(c.signals())
    gates = list(order)
    kind = int(rng.integers(0, 8))
    if kind == 0:
        c.add_input(f"in{step}")
    elif kind == 1:
        gtype = (_LOGIC_TYPES + (GateType.CONST0, GateType.CONST1))[int(rng.integers(0, 10))]
        c.add_gate(f"new{step}", gtype, _random_operands(rng, signals, gtype))
    elif kind == 2:
        c.add_output(
            signals[int(rng.integers(0, len(signals)))],
            weight=int(rng.integers(1, 9)),
            is_data=bool(rng.integers(0, 2)),
        )
    elif kind == 3 and gates:
        i = int(rng.integers(0, len(gates)))
        gtype = _LOGIC_TYPES[int(rng.integers(0, len(_LOGIC_TYPES)))]
        earlier = list(c.inputs) + gates[:i]
        c.replace_gate(gates[i], gtype, _random_operands(rng, earlier, gtype))
    elif kind == 4 and gates:
        name = gates[int(rng.integers(0, len(gates)))]
        if c.consumer_count(name):
            with pytest.raises(CircuitError):
                c.remove_gate(name)
        else:
            c.remove_gate(name)
    elif kind == 5 and gates:
        c.tie_constant(gates[int(rng.integers(0, len(gates)))], int(rng.integers(0, 2)))
    elif kind == 6:
        wired = [i for i, g in enumerate(gates) if c.gates[g].inputs]
        if wired:
            i = wired[int(rng.integers(0, len(wired)))]
            g = c.gates[gates[i]]
            earlier = list(c.inputs) + gates[:i]
            c.rewire_pin(
                g.name,
                int(rng.integers(0, len(g.inputs))),
                earlier[int(rng.integers(0, len(earlier)))],
            )
    elif kind == 7 and c.outputs:
        c.rename_output(
            c.outputs[int(rng.integers(0, len(c.outputs)))],
            signals[int(rng.integers(0, len(signals)))],
        )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_every_mutator_invalidates_every_view(seed):
    """After every mutation each cached view equals the one a fresh copy
    builds; the views are read (so cached) before every next mutation."""
    rng = np.random.default_rng(seed)
    c = random_circuit(
        num_inputs=int(rng.integers(2, 6)), num_gates=int(rng.integers(3, 16)), rng=rng
    )
    c.data_outputs = [o for o in c.outputs if rng.random() < 0.6]  # the rest: control
    c.add_output(c.outputs[0], weight=2)  # one output referenced twice
    assert _view_facts(c) == _view_facts(c.copy())
    for step in range(12):
        _mutate(c, rng, step)
        assert _view_facts(c) == _view_facts(c.copy()), step
        assert c.topological_order() == _ref_topological_order(c)


def test_topological_order_matches_reference_on_iscas85_like():
    from repro.benchlib import ISCAS85_SUITE

    for spec in ISCAS85_SUITE.values():
        c = spec.builder()
        assert c.topological_order() == _ref_topological_order(c)


def test_pickle_carries_no_views():
    from repro.benchlib import ISCAS85_SUITE
    from repro.simulation import compile_program

    c = ISCAS85_SUITE["c5315"].builder()
    never_queried = c.copy()
    compile_program(c)
    c.fanout_map(), c.output_refs(), c.area()
    assert {"topo", "fanout", "output_refs", "area", "program"} <= set(c.views)
    blob = pickle.dumps(c)
    back = pickle.loads(blob)
    assert not back.views
    assert (back.name, back.inputs, back.outputs, back.output_weights, back.data_outputs) == (
        c.name, c.inputs, c.outputs, c.output_weights, c.data_outputs
    )
    assert list(back.gates.items()) == list(c.gates.items())
    assert len(blob) <= len(pickle.dumps(never_queried))
    assert c.views  # pickling leaves the source's views alone
    assert _program_facts(compile_program(back)) == _program_facts(compile_program(c))
