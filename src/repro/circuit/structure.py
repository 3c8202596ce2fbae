"""Structural analysis: transitive fanin/fanout, cones, datapath lines.

Implements Definitions 5 and 6 of the paper (transitive fanout/fanin
and primary-output cones) plus the datapath/control classification the
Table II experiment relies on: *candidate faults are restricted to
lines that do not lie in the transitive fanin of any control output*.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from .netlist import Circuit

__all__ = [
    "transitive_fanin",
    "fanin_closure",
    "transitive_fanout",
    "output_cone",
    "cones_reached",
    "fanout_cone_gates",
    "fanout_disjoint",
    "datapath_signals",
    "classify_signals",
    "subcircuit",
]


def transitive_fanin(circuit: Circuit, signal: str, include_self: bool = True) -> Set[str]:
    """All signals from which ``signal`` is reachable (Definition 5 dual).

    Includes primary inputs encountered; includes ``signal`` itself when
    ``include_self`` is set.
    """
    seen = fanin_closure(circuit, (signal,))
    if not include_self:
        seen.discard(signal)
    return seen


def fanin_closure(circuit: Circuit, roots: Iterable[str]) -> Set[str]:
    """The roots and every signal in their transitive fanin, found in
    one walk that visits each signal once."""
    gates = circuit.gates
    seen: Set[str] = set()
    stack = list(roots)
    while stack:
        s = stack.pop()
        if s in seen:
            continue
        seen.add(s)
        g = gates.get(s)
        if g is not None:
            stack.extend(src for src in g.inputs if src not in seen)
    return seen


def transitive_fanout(circuit: Circuit, signal: str, include_self: bool = True) -> Set[str]:
    """All signals reachable from ``signal`` (Definition 5)."""
    fan = circuit.fanout_map()
    seen: Set[str] = set()
    stack = [signal]
    while stack:
        s = stack.pop()
        if s in seen:
            continue
        seen.add(s)
        stack.extend(g for g, _pin in fan.get(s, ()) if g not in seen)
    if not include_self:
        seen.discard(signal)
    return seen


def output_cone(circuit: Circuit, output: str) -> Set[str]:
    """The cone of a primary output: all lines in its transitive fanin
    (Definition 6), the output itself included."""
    return transitive_fanin(circuit, output, include_self=True)


def cones_reached(circuit: Circuit, signal: str) -> Tuple[str, ...]:
    """Primary outputs whose cone contains ``signal``, in output order."""
    tfo = transitive_fanout(circuit, signal, include_self=True)
    return tuple(o for o in circuit.outputs if o in tfo)


def fanout_cone_gates(
    circuit: Circuit,
    signal: str,
    topo_pos: Optional[Mapping[str, int]] = None,
) -> Tuple[str, ...]:
    """Gates whose output can change when ``signal`` changes, in
    topological order.

    This is the re-evaluation schedule of an incremental simulator:
    forcing ``signal`` (e.g. a stuck-at fault) can only disturb the
    gates in its transitive fanout, and replaying exactly those gates in
    topological order restores a consistent state.  The driver of
    ``signal`` itself is *not* included -- a forced line makes its own
    driver irrelevant.

    ``topo_pos`` may carry a precomputed signal -> topological-position
    map (one per circuit) so repeated calls over many fault sites avoid
    rebuilding it.
    """
    fan = circuit.fanout_map()
    seen: Set[str] = set()
    stack = [g for g, _pin in fan.get(signal, ())]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        stack.extend(h for h, _pin in fan.get(g, ()) if h not in seen)
    if topo_pos is None:
        topo_pos = {n: i for i, n in enumerate(circuit.topological_order())}
    return tuple(sorted(seen, key=topo_pos.__getitem__))


def fanout_disjoint(circuit: Circuit, signal_a: str, signal_b: str) -> bool:
    """True when the transitive fanouts of two lines are disjoint.

    This is the structural precondition of Lemma 1: disjoint transitive
    fanouts guarantee the two faults can never interact at any gate.
    """
    tfo_a = transitive_fanout(circuit, signal_a, include_self=True)
    tfo_b = transitive_fanout(circuit, signal_b, include_self=True)
    return tfo_a.isdisjoint(tfo_b)


def subcircuit(circuit: Circuit, outputs: Iterable[str], name: str | None = None) -> Circuit:
    """Extract the cone of the given outputs as a standalone circuit.

    The extracted circuit keeps the *full* primary-input list (so input
    vectors stay compatible with the original) but contains only the
    gates in the transitive fanin of the requested outputs.  Output
    weights and data/control classification carry over for outputs that
    are primary outputs of the original.
    """
    roots = list(outputs)
    keep = fanin_closure(circuit, roots)
    gates = circuit.gates
    sub = Circuit.from_gates(
        name or f"{circuit.name}_cone",
        circuit.inputs,
        {g: gates[g] for g in circuit.topological_order() if g in keep},
    )
    data = set(circuit.data_outputs)
    for r in roots:
        sub.add_output(
            r,
            weight=circuit.output_weights.get(r, 1),
            is_data=r in data or not circuit.is_output(r),
        )
    sub.validate()
    return sub


def classify_signals(circuit: Circuit) -> Dict[str, Set[str]]:
    """Partition signals into datapath / control / shared / unobservable.

    * ``data``    -- in the transitive fanin of data outputs only,
    * ``control`` -- in the transitive fanin of control outputs only,
    * ``shared``  -- in the fanin of both kinds (excluded from the
      paper's candidate list: "faults in transitive fanin of both a
      control and a data output are excluded"),
    * ``dead``    -- feeds no primary output at all.
    """
    data_cone = fanin_closure(circuit, circuit.data_outputs)
    control_cone = fanin_closure(circuit, circuit.control_outputs)
    all_signals = set(circuit.signals())
    data_only = data_cone - control_cone
    control_only = control_cone - data_cone
    shared = data_cone & control_cone
    dead = all_signals - data_cone - control_cone
    return {"data": data_only, "control": control_only, "shared": shared, "dead": dead}


def datapath_signals(circuit: Circuit) -> Set[str]:
    """Signals eligible for fault injection in the Table II experiment.

    Exactly the lines that lie in the transitive fanin of at least one
    data output and of *no* control output.
    """
    return classify_signals(circuit)["data"]
