"""Transitive fanin/fanout, cones, datapath classification."""

from repro.circuit import (
    classify_signals,
    cones_reached,
    datapath_signals,
    fanout_disjoint,
    output_cone,
    transitive_fanin,
    transitive_fanout,
)
from repro.circuit.structure import fanin_closure


def test_transitive_fanin(c17):
    cone = transitive_fanin(c17, "G22")
    assert cone == {"G22", "G10", "G16", "G1", "G2", "G3", "G6", "G11"}
    assert "G7" not in cone
    assert transitive_fanin(c17, "G22", include_self=False) == cone - {"G22"}
    # one walk from several roots is the union of the per-root cones
    roots = ["G22", "G19", "G7"]
    assert fanin_closure(c17, roots) == set().union(*(transitive_fanin(c17, r) for r in roots))


def test_transitive_fanout(c17):
    tfo = transitive_fanout(c17, "G11")
    assert tfo == {"G11", "G16", "G19", "G22", "G23"}
    assert transitive_fanout(c17, "G11", include_self=False) == tfo - {"G11"}
    assert transitive_fanout(c17, "G22") == {"G22"}


def test_output_cone_equals_fanin(c17):
    assert output_cone(c17, "G23") == transitive_fanin(c17, "G23")


def test_cones_reached(c17):
    assert cones_reached(c17, "G11") == ("G22", "G23")
    assert cones_reached(c17, "G10") == ("G22",)
    assert cones_reached(c17, "G7") == ("G23",)


def test_fanout_disjoint(c17):
    assert fanout_disjoint(c17, "G10", "G7")
    assert not fanout_disjoint(c17, "G10", "G16")
    assert not fanout_disjoint(c17, "G11", "G11")


def test_classification_all_data(c17):
    cls = classify_signals(c17)
    # no control outputs: every reachable signal is data-only
    assert cls["control"] == set()
    assert cls["shared"] == set()
    assert cls["dead"] == set()
    assert cls["data"] == set(c17.signals())


def test_classification_with_control(adder4_ctl):
    cls = classify_signals(adder4_ctl)
    # primary inputs feed both the sum and the parity flag -> shared
    for pi in adder4_ctl.inputs:
        assert pi in cls["shared"]
    # the parity tree is control-only
    assert cls["control"]
    # internal adder gates beyond the first level are data-only
    assert cls["data"]
    dp = datapath_signals(adder4_ctl)
    assert dp == cls["data"]
    assert not any(pi in dp for pi in adder4_ctl.inputs)


def test_dead_signal_classification():
    from repro.circuit import CircuitBuilder

    b = CircuitBuilder("dead")
    a = b.input("a")
    x = b.NOT(a)
    b.NOT(x, name="unused")
    b.output(x)
    c = b.build()
    cls = classify_signals(c)
    assert "unused" in cls["dead"]
