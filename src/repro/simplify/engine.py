"""The circuit-simplification engine (Section III.A of the paper).

Injecting a stuck-at fault assigns a static 0/1 to a line; the engine
then maximally exploits that constant:

* **Forward simplification** implies the constant toward the primary
  outputs, rewriting each gate it reaches according to Table I
  (:mod:`repro.simplify.tables`): controlling constants fold the gate
  to a constant output and continue; non-controlling constants just
  disconnect the input (XOR/XNOR additionally flip polarity).

* **Backward simplification** deletes logic that lost its last
  consumer: starting from a released fanin, gates are removed and their
  own fanins released recursively until a still-used stem, a primary
  output, or a primary input stops the walk.

Both procedures run on an :class:`Overlay` -- a sparse set of edits
(dead gates, dropped pins, retypes, constant signals) over an untouched
base circuit.  That makes *previewing* the area reduction of a
candidate fault cheap (no netlist copy), which the greedy heuristic of
Section IV exploits heavily; committing a selection is a
:meth:`Overlay.materialize` call that builds the simplified circuit.

An overlay records the names whose netlist facts it consulted
(:attr:`Overlay.reads`) and can name the ones its edits change
(:meth:`Overlay.writes`).  A preview that read none of the names a
committed overlay wrote gives the same value on the committed netlist,
which lets the greedy loop keep previews across iterations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..circuit import Circuit, GateType
from ..circuit.netlist import CircuitError, Gate, gate_area
from ..faults.model import StuckAtFault
from .tables import identity_value, rule_for, shrink_type

__all__ = ["Overlay", "simplify_with_fault", "simplify_with_faults", "preview_area_reduction"]

_CONST_TYPES = (GateType.CONST0, GateType.CONST1)


class Overlay:
    """Sparse simplification state over a base circuit.

    One overlay accepts any number of fault injections via
    :meth:`apply`; edits accumulate.  The base circuit is never
    modified.  ``reads`` (a fresh set by default) collects every name
    whose netlist facts the overlay consults: a gate's type or inputs,
    a signal's consumers, or whether it is a primary input.
    """

    def __init__(self, circuit: Circuit, reads: Optional[Set[str]] = None) -> None:
        self.circuit = circuit
        self.reads: Set[str] = set() if reads is None else reads
        self._fanout = circuit.fanout_map()
        self._po_refs = circuit.output_refs()
        self.const_of: Dict[str, int] = {}
        self.dead: Set[str] = set()
        self.dropped: Dict[str, Set[int]] = {}
        self.retype: Dict[str, GateType] = {}
        self._consumer_delta: Dict[str, int] = {}
        self._queue: Deque[Tuple[str, int, int]] = deque()  # (gate, pin, const)
        # Fault-site markings: a stuck line holds its stuck value no
        # matter what is implied onto it, so propagation consults these.
        self._stem_mark: Dict[str, int] = {}
        self._pin_mark: Dict[Tuple[str, int], int] = {}
        self._dropped_value: Dict[Tuple[str, int], int] = {}

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def gtype_of(self, name: str) -> GateType:
        """Current (possibly rewritten) type of a gate."""
        self.reads.add(name)
        return self.retype.get(name, self.circuit.gates[name].gtype)

    def consumers(self, signal: str) -> int:
        """Current consumer count (gate pins + PO references)."""
        self.reads.add(signal)
        base = len(self._fanout.get(signal, ())) + self._po_refs.get(signal, 0)
        return base + self._consumer_delta.get(signal, 0)

    def live_pins(self, name: str) -> List[Tuple[int, str]]:
        """Remaining (pin, source) connections of a live gate."""
        self.reads.add(name)
        drops = self.dropped.get(name, ())
        return [
            (pin, src)
            for pin, src in enumerate(self.circuit.gates[name].inputs)
            if pin not in drops
        ]

    def is_dead(self, name: str) -> bool:
        return name in self.dead

    # ------------------------------------------------------------------
    # fault application
    # ------------------------------------------------------------------
    def apply(self, fault: StuckAtFault) -> None:
        """Inject one stuck-at fault and simplify to fixpoint."""
        self.apply_all((fault,))

    def apply_all(self, faults: Sequence[StuckAtFault]) -> None:
        """Inject a set of stuck-at faults simultaneously.

        Multiple-fault semantics: every faulty line holds its own stuck
        value.  A branch fault therefore overrides the (possibly also
        stuck) stem value on its one pin, and a stem fault on a gate
        output overrides whatever constant the gate's rewritten logic
        would produce.  Contradictory faults (both polarities on one
        line) are rejected.
        """
        stems: List[StuckAtFault] = []
        branches: List[StuckAtFault] = []
        for f in faults:
            line = f.line
            self.reads.add(line.signal)
            if not self.circuit.has_signal(line.signal):
                raise CircuitError(f"fault site {line} not in circuit")
            if line.is_branch:
                self.reads.add(line.gate)
                gate = self.circuit.gates.get(line.gate)
                if gate is None:
                    raise CircuitError(f"fault {f}: gate {line.gate!r} not in circuit")
                if line.pin >= len(gate.inputs) or gate.inputs[line.pin] != line.signal:
                    raise CircuitError(f"fault {f}: pin does not match netlist")
                key = (line.gate, line.pin)
                if self._pin_mark.get(key, f.value) != f.value:
                    raise CircuitError(f"contradictory faults on branch {line}")
                self._pin_mark[key] = f.value
                branches.append(f)
            else:
                if self._stem_mark.get(line.signal, f.value) != f.value:
                    raise CircuitError(f"contradictory faults on stem {line.signal!r}")
                self._stem_mark[line.signal] = f.value
                stems.append(f)

        # Branch sites first: their pins must be pinned to the branch
        # value before any stem constant can flow across them.
        for f in branches:
            gate, pin = f.line.gate, f.line.pin
            if gate in self.dead:
                continue  # output unused: the branch cannot matter
            if self.gtype_of(gate) in _CONST_TYPES:
                if gate in self._stem_mark:
                    continue  # masked by a stem fault on the gate output
                raise CircuitError(
                    f"fault {f} interacts with an earlier simplification; "
                    "inject interacting faults in a single apply_all() call"
                )
            if pin in self.dropped.get(gate, ()):
                if self._dropped_value.get((gate, pin)) == f.value:
                    continue  # the same constant is already in effect
                raise CircuitError(
                    f"fault {f} interacts with an earlier simplification; "
                    "inject interacting faults in a single apply_all() call"
                )
            self._queue.append((gate, pin, f.value))
        for f in stems:
            if self.circuit.is_input(f.line.signal):
                self._propagate_const(f.line.signal, f.value)
            else:
                self._fold_gate_to_const(f.line.signal, f.value)
        self._drain()

    def _drain(self) -> None:
        while self._queue:
            gate, pin, value = self._queue.popleft()
            self._pin_const(gate, pin, value)

    # ------------------------------------------------------------------
    # forward simplification (Table I)
    # ------------------------------------------------------------------
    def _pin_const(self, name: str, pin: int, value: int) -> None:
        if name in self.dead:
            return
        gt = self.gtype_of(name)
        if gt in _CONST_TYPES:
            return
        if pin in self.dropped.get(name, ()):
            return
        # A branch fault pins this connection to its own stuck value,
        # overriding any constant implied across it.
        mark = self._pin_mark.get((name, pin))
        if mark is not None:
            value = mark
        rule = rule_for(gt, value)
        if rule.action == "FOLD":
            # Remove gate, drive the constant, backward-simplify the
            # other inputs.
            self._fold_gate_to_const(name, rule.output)
            return
        # DROP: disconnect this input, stop forward implication here.
        src = self.circuit.gates[name].inputs[pin]
        self.dropped.setdefault(name, set()).add(pin)
        self._dropped_value[(name, pin)] = value
        self._release(src)
        if rule.flip:
            self.retype[name] = (
                GateType.XNOR if gt is GateType.XOR else GateType.XOR
            )
            gt = self.retype[name]
        remaining = self.live_pins(name)
        if not remaining:
            # Every input was a dropped constant: the gate output is the
            # (polarity-adjusted) identity value.
            self._fold_gate_to_const(name, identity_value(gt))
        elif len(remaining) == 1 and gt not in (GateType.NOT, GateType.BUF):
            self.retype[name] = shrink_type(gt)

    def _fold_gate_to_const(self, name: str, value: int) -> None:
        """Replace a gate with a constant driver and release its fanin."""
        if name in self.dead:
            return
        # A stem fault pins the gate output to its stuck value, no
        # matter what the rewritten gate would compute.
        mark = self._stem_mark.get(name)
        if mark is not None:
            value = mark
        gt = self.gtype_of(name)
        if gt in _CONST_TYPES:
            existing = 1 if gt is GateType.CONST1 else 0
            if existing != value:
                raise CircuitError(
                    f"conflicting constants on {name!r}: inject interacting "
                    "faults in a single apply_all() call"
                )
            return
        for pin, src in self.live_pins(name):
            self.dropped.setdefault(name, set()).add(pin)
            self._release(src)
        self.retype[name] = GateType.CONST1 if value else GateType.CONST0
        self._propagate_const(name, value)

    def _propagate_const(self, signal: str, value: int) -> None:
        """Queue Table I processing at every live consumer of a constant."""
        if signal in self.const_of:
            if self.const_of[signal] != value:
                raise CircuitError(
                    f"conflicting constants on {signal!r}: inject interacting "
                    "faults in a single apply_all() call"
                )
            return
        self.const_of[signal] = value
        self.reads.add(signal)
        for gate, pin in self._fanout.get(signal, ()):
            if gate in self.dead:
                continue
            if pin in self.dropped.get(gate, ()):
                continue
            self._queue.append((gate, pin, value))

    # ------------------------------------------------------------------
    # backward simplification (dead-logic removal)
    # ------------------------------------------------------------------
    def _release(self, signal: str) -> None:
        """One consumer of ``signal`` went away; delete newly dead logic.

        Iterative backward walk: gates are removed and their fanins
        released until a still-used stem, a primary output, or a primary
        input stops the traversal.
        """
        stack = [signal]
        while stack:
            s = stack.pop()
            self._consumer_delta[s] = self._consumer_delta.get(s, 0) - 1
            if self.consumers(s) > 0:
                continue  # still a stem with other consumers
            if self._po_refs.get(s):
                continue
            if self.circuit.is_input(s):
                continue  # primary inputs are never removed
            if s in self.dead:
                continue
            self.dead.add(s)
            for pin, src in self.live_pins(s):
                self.dropped.setdefault(s, set()).add(pin)
                stack.append(src)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def writes(self) -> Set[str]:
        """Names whose netlist facts :meth:`materialize` changes: dead,
        retyped and pin-dropping gates, signals turned constant, and
        signals that lost consumers."""
        return self.dead.union(
            self.retype, self.dropped, self.const_of, self._consumer_delta
        )

    def area_delta(self) -> int:
        """Total area removed so far (positive = smaller circuit)."""
        delta = 0
        touched = set(self.dead) | set(self.retype) | set(self.dropped)
        for name in touched:
            gate = self.circuit.gates.get(name)
            if gate is None:
                continue  # primary input bookkeeping
            before = gate_area(gate)
            delta += before - self._current_area(name, gate)
        return delta

    def _current_area(self, name: str, gate: Gate) -> int:
        if name in self.dead:
            return 0
        gt = self.gtype_of(name)
        if gt in _CONST_TYPES or gt is GateType.BUF:
            return 0
        if gt is GateType.NOT:
            return 1
        n = len(gate.inputs) - len(self.dropped.get(name, ()))
        return max(1, n)

    def materialize(self, name: Optional[str] = None) -> Circuit:
        """Build the simplified circuit described by this overlay.

        Gates keep the base circuit's topological order; a gate the
        overlay did not edit keeps its record.  It records no
        :attr:`reads`.
        """
        base = self.circuit
        gates: Dict[str, Gate] = {}
        for gname in base.topological_order():
            if gname in self.dead:
                continue
            gate = base.gates[gname]
            gt = self.retype.get(gname)
            drops = self.dropped.get(gname)
            if gt is None and drops is None:
                gates[gname] = gate
            elif gt in _CONST_TYPES:
                gates[gname] = Gate(gname, gt, ())
            else:
                pins = tuple(
                    src for pin, src in enumerate(gate.inputs) if not drops or pin not in drops
                )
                gates[gname] = Gate(gname, gate.gtype if gt is None else gt, pins)
        out = Circuit.from_gates(name or f"{base.name}_simplified", base.inputs, gates)

        const_alias: Dict[int, str] = {}
        data = set(base.data_outputs)
        for o in base.outputs:
            weight = base.output_weights.get(o, 1)
            is_data = o in data
            pi_stuck = base.is_input(o) and o in self.const_of
            if out.has_signal(o) and not pi_stuck:
                out.add_output(o, weight=weight, is_data=is_data)
                continue
            # A PO whose driving PI became constant (PI stem fault) or,
            # defensively, any constant PO without a surviving driver:
            # alias it to a constant gate so the name is preserved.
            value = self.const_of.get(o)
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


# ----------------------------------------------------------------------
# module-level conveniences
# ----------------------------------------------------------------------
def simplify_with_fault(
    circuit: Circuit, fault: StuckAtFault, name: Optional[str] = None
) -> Circuit:
    """Simplify ``circuit`` by injecting one stuck-at fault."""
    return simplify_with_faults(circuit, (fault,), name=name)


def simplify_with_faults(
    circuit: Circuit, faults: Iterable[StuckAtFault], name: Optional[str] = None
) -> Circuit:
    """Simplify ``circuit`` by injecting a set of stuck-at faults.

    The result implements exactly the multiple-faulty function (see
    :func:`repro.faults.multiple.inject_faults` for the behavioural
    reference the test-suite checks against) with all Table I rewrites
    and dead-logic removal applied.
    """
    overlay = Overlay(circuit)
    overlay.apply_all(tuple(faults))
    return overlay.materialize(name)


def preview_area_reduction(
    circuit: Circuit, fault: StuckAtFault, reads: Optional[Set[str]] = None
) -> int:
    """Area saved by injecting ``fault``, without building the netlist.

    ``reads``, when given, receives the names the preview consulted
    (:attr:`Overlay.reads`), also when the injection raises.
    """
    overlay = Overlay(circuit, reads=reads)
    overlay.apply(fault)
    return overlay.area_delta()
