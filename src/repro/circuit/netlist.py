"""Gate-level netlist representation.

A :class:`Circuit` is a named, directed acyclic graph of primitive
gates.  Every *signal* is identified by a string name and is driven
either by a primary input or by exactly one gate (whose name equals the
signal it drives).  Primary outputs are references to signals.

The representation is deliberately mutation-friendly: the
simplification engine of the paper (Section III.A) rewrites gates,
disconnects inputs, ties signals to constants and deletes dead logic,
so the class provides those operations directly.

Derived structure is held in one cache of *views* on the circuit
(:attr:`Circuit.views`): the topological order, the fanout map, the
primary-output reference counts, the area, and the compiled simulation
program (:func:`repro.simulation.compiled.compile_program`).  Each view
is built on first use and every mutator empties the cache.  A view is
computed from the inputs, the gates and the output list only -- never
from ``output_weights`` or ``data_outputs``, which callers may assign
directly without a mutator.  A pickled circuit carries no views; the
unpickled copy rebuilds them on demand.

Signal/"line" terminology follows classical ATPG: a gate output is a
*stem*; each individual gate-input connection fed by a stem with more
than one consumer is a *fanout branch*.  Stuck-at faults can live on
both (see :mod:`repro.faults.model`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .gates import GateType, constant_value, is_constant

__all__ = ["Gate", "Circuit", "CircuitError"]


class CircuitError(ValueError):
    """Raised for structurally invalid netlist operations."""


@dataclass
class Gate:
    """A single gate instance.

    The gate drives the signal named ``name``; ``inputs`` are the
    signal names connected to its input pins, in pin order.
    """

    name: str
    gtype: GateType
    inputs: Tuple[str, ...]

    def __post_init__(self) -> None:
        self.inputs = tuple(self.inputs)
        if is_constant(self.gtype):
            if self.inputs:
                raise CircuitError(f"constant gate {self.name!r} cannot have inputs")
        elif self.gtype in (GateType.NOT, GateType.BUF):
            if len(self.inputs) != 1:
                raise CircuitError(
                    f"{self.gtype.value} gate {self.name!r} needs exactly 1 input, "
                    f"got {len(self.inputs)}"
                )
        elif not self.inputs:
            raise CircuitError(f"gate {self.name!r} ({self.gtype.value}) has no inputs")


class Circuit:
    """A combinational gate-level circuit.

    Parameters
    ----------
    name:
        Human-readable circuit name (e.g. ``"c880_like"``).

    Notes
    -----
    * ``inputs`` and ``outputs`` are ordered; output order defines the
      output word for numeric (weighted) interpretation.
    * ``output_weights`` maps each primary output signal to its
      numerical weight (Definition 8 of the paper).  Unweighted
      circuits default every output weight to 1.
    * ``data_outputs`` (a subset of ``outputs``) marks the outputs whose
      numerical value matters for ES; the rest are *control* outputs.
      The paper's Table II experiment restricts candidate faults to
      lines that feed only data outputs.
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self._inputs: List[str] = []
        self._outputs: List[str] = []
        self._gates: Dict[str, Gate] = {}
        self._input_set: set[str] = set()
        self.output_weights: Dict[str, int] = {}
        self.data_outputs: List[str] = []
        self._views: Dict[object, object] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> str:
        """Declare a primary input signal."""
        if name in self._input_set or name in self._gates:
            raise CircuitError(f"signal {name!r} already exists")
        self._inputs.append(name)
        self._input_set.add(name)
        self._invalidate()
        return name

    def add_gate(self, name: str, gtype: GateType, inputs: Sequence[str] = ()) -> str:
        """Add a gate driving signal ``name``."""
        if name in self._input_set or name in self._gates:
            raise CircuitError(f"signal {name!r} already exists")
        self._gates[name] = Gate(name, gtype, tuple(inputs))
        self._invalidate()
        return name

    def add_output(self, signal: str, weight: int = 1, is_data: bool = True) -> str:
        """Declare ``signal`` as a primary output.

        ``weight`` is the output's numerical significance; ``is_data``
        marks it as a data (vs. control) output.
        """
        self._outputs.append(signal)
        self.output_weights[signal] = int(weight)
        if is_data:
            self.data_outputs.append(signal)
        self._invalidate()
        return signal

    # ------------------------------------------------------------------
    # read access
    # ------------------------------------------------------------------
    @property
    def inputs(self) -> Tuple[str, ...]:
        """Primary input names, in declaration order."""
        return tuple(self._inputs)

    @property
    def outputs(self) -> Tuple[str, ...]:
        """Primary output signal names, in declaration order."""
        return tuple(self._outputs)

    @property
    def gates(self) -> Mapping[str, Gate]:
        """Read-only view of the gate map (signal name -> Gate)."""
        return self._gates

    @property
    def control_outputs(self) -> Tuple[str, ...]:
        """Primary outputs not marked as data outputs."""
        data = set(self.data_outputs)
        return tuple(o for o in self._outputs if o not in data)

    @property
    def value_outputs(self) -> Tuple[str, ...]:
        """Outputs whose weighted numeric value defines ES: the data
        outputs, or every output when none are marked."""
        return tuple(self.data_outputs or self._outputs)

    def weights_of(self, outputs: Iterable[str]) -> List[int]:
        """The numeric weight of each named output (1 when unset)."""
        return [int(self.output_weights.get(o, 1)) for o in outputs]

    def is_input(self, signal: str) -> bool:
        """True when ``signal`` is a primary input."""
        return signal in self._input_set

    def is_output(self, signal: str) -> bool:
        """True when ``signal`` is a primary output."""
        return signal in self.output_refs()

    def has_signal(self, signal: str) -> bool:
        """True when ``signal`` is driven by a PI or a gate."""
        return signal in self._input_set or signal in self._gates

    def gate(self, signal: str) -> Gate:
        """Return the gate driving ``signal`` (raises for PIs)."""
        try:
            return self._gates[signal]
        except KeyError:
            raise CircuitError(f"no gate drives signal {signal!r}") from None

    def driver(self, signal: str) -> Optional[Gate]:
        """The driving gate, or ``None`` when ``signal`` is a PI."""
        return self._gates.get(signal)

    def signals(self) -> Iterator[str]:
        """All signal names: PIs first, then gate outputs."""
        yield from self._inputs
        yield from self._gates

    @property
    def num_gates(self) -> int:
        """Number of gate instances (constants and buffers included)."""
        return len(self._gates)

    def __len__(self) -> int:
        return len(self._gates)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Circuit({self.name!r}, inputs={len(self._inputs)}, "
            f"outputs={len(self._outputs)}, gates={len(self._gates)})"
        )

    # ------------------------------------------------------------------
    # derived structure (cached)
    # ------------------------------------------------------------------
    @property
    def views(self) -> Dict[object, object]:
        """The cache of derived views, keyed by view name.

        Every mutator empties it.  An entry must be computed from the
        inputs, the gates and the output list only, so it stays valid
        until the next mutation.
        """
        return self._views

    def _invalidate(self) -> None:
        self._views.clear()

    def __getstate__(self) -> Dict[str, object]:
        # Views are rebuilt on demand; a pickle carries the netlist only.
        state = self.__dict__.copy()
        state["_views"] = {}
        return state

    def fanout_map(self) -> Dict[str, List[Tuple[str, int]]]:
        """Map each signal to its consumer pins ``(gate_name, pin_index)``.

        Primary-output uses are not included; use :meth:`consumer_count`
        for a count that includes PO references.
        """
        fan = self._views.get("fanout")
        if fan is None:
            fan = {s: [] for s in self.signals()}
            for g in self._gates.values():
                for pin, src in enumerate(g.inputs):
                    if src not in fan:
                        raise CircuitError(
                            f"gate {g.name!r} input {src!r} is not a known signal"
                        )
                    fan[src].append((g.name, pin))
            self._views["fanout"] = fan
        return fan

    def output_refs(self) -> Dict[str, int]:
        """Map each primary-output signal to its number of PO references."""
        refs = self._views.get("output_refs")
        if refs is None:
            refs = {}
            for o in self._outputs:
                refs[o] = refs.get(o, 0) + 1
            self._views["output_refs"] = refs
        return refs

    def consumer_count(self, signal: str) -> int:
        """Total number of uses of ``signal``: gate pins + PO references."""
        return len(self.fanout_map().get(signal, ())) + self.output_refs().get(signal, 0)

    def is_stem(self, signal: str) -> bool:
        """True when ``signal`` fans out to more than one consumer."""
        return self.consumer_count(signal) > 1

    def topological_order(self) -> List[str]:
        """Gate names in topological (PI-to-PO) order.

        Raises :class:`CircuitError` if the netlist contains a
        combinational cycle or an undriven signal.
        """
        order = self._views.get("topo")
        if order is not None:
            return order
        # Kahn's algorithm over the fanout map: a gate is ready once all
        # its gate-driven pins are, and PI pins are ready from the start.
        fan = self.fanout_map()
        indeg = {name: len(g.inputs) for name, g in self._gates.items()}
        for pi in self._inputs:
            for dep, _pin in fan[pi]:
                indeg[dep] -= 1
        ready = [n for n, d in indeg.items() if d == 0]
        order = []
        while ready:
            n = ready.pop()
            order.append(n)
            for dep, _pin in fan[n]:
                indeg[dep] -= 1
                if indeg[dep] == 0:
                    ready.append(dep)
        if len(order) != len(self._gates):
            raise CircuitError(f"circuit {self.name!r} contains a combinational cycle")
        self._views["topo"] = order
        return order

    def levels(self) -> Dict[str, int]:
        """Logic level of every signal (PIs at level 0)."""
        lvl: Dict[str, int] = {s: 0 for s in self._inputs}
        for name in self.topological_order():
            g = self._gates[name]
            lvl[name] = 1 + max((lvl[s] for s in g.inputs), default=0)
        return lvl

    def depth(self) -> int:
        """Logic depth: the largest gate level among primary outputs.

        Buffers and constants count as zero-delay wires; every other
        gate adds one level.
        """
        if not self._outputs:
            return 0
        zero_delay = (GateType.BUF, GateType.CONST0, GateType.CONST1)
        lvl: Dict[str, int] = {s: 0 for s in self._inputs}
        for name in self.topological_order():
            g = self._gates[name]
            base = max((lvl[s] for s in g.inputs), default=0)
            lvl[name] = base if g.gtype in zero_delay else base + 1
        return max(lvl.get(o, 0) for o in self._outputs)

    def validate(self) -> None:
        """Check structural invariants; raises :class:`CircuitError`."""
        self.topological_order()
        for o in self._outputs:
            if not self.has_signal(o):
                raise CircuitError(f"primary output {o!r} is not a driven signal")
        refs = self.output_refs()
        for o in self.data_outputs:
            if o not in refs:
                raise CircuitError(f"data output {o!r} is not a primary output")

    # ------------------------------------------------------------------
    # area
    # ------------------------------------------------------------------
    def area(self) -> int:
        """Total circuit area under the literal-count model.

        Each n-input logic gate costs n units; inverters cost 1;
        buffers and constant drivers are wires and cost 0.
        """
        total = self._views.get("area")
        if total is None:
            total = self._views["area"] = sum(map(gate_area, self._gates.values()))
        return total

    # ------------------------------------------------------------------
    # mutation (used by the simplification engine)
    # ------------------------------------------------------------------
    def replace_gate(self, name: str, gtype: GateType, inputs: Sequence[str]) -> None:
        """Replace the gate driving ``name`` with a new type/input list."""
        if name not in self._gates:
            raise CircuitError(f"no gate named {name!r}")
        self._gates[name] = Gate(name, gtype, tuple(inputs))
        self._invalidate()

    def remove_gate(self, name: str) -> None:
        """Delete the gate driving ``name``.

        The caller must ensure nothing still consumes the signal.
        """
        fan = self.fanout_map().get(name)
        if fan:
            raise CircuitError(f"cannot remove {name!r}: still feeds {fan[:3]}")
        if self.is_output(name):
            raise CircuitError(f"cannot remove {name!r}: it is a primary output")
        del self._gates[name]
        self._invalidate()

    def tie_constant(self, name: str, value: int) -> None:
        """Rewrite the gate driving ``name`` as a constant driver."""
        gtype = GateType.CONST1 if value else GateType.CONST0
        if name in self._input_set:
            raise CircuitError(
                f"cannot tie primary input {name!r}; insert a branch gate instead"
            )
        self._gates[name] = Gate(name, gtype, ())
        self._invalidate()

    def rewire_pin(self, gate_name: str, pin: int, new_src: str) -> None:
        """Reconnect one input pin of ``gate_name`` to ``new_src``."""
        g = self._gates[gate_name]
        if not 0 <= pin < len(g.inputs):
            raise CircuitError(f"gate {gate_name!r} has no pin {pin}")
        ins = list(g.inputs)
        ins[pin] = new_src
        self._gates[gate_name] = Gate(g.name, g.gtype, tuple(ins))
        self._invalidate()

    def rename_output(self, old: str, new: str) -> None:
        """Re-point every primary-output reference from ``old`` to ``new``.

        Weight and data/control classification carry over.  The ``new``
        signal must already be driven.
        """
        if not self.is_output(old):
            raise CircuitError(f"{old!r} is not a primary output")
        if not self.has_signal(new):
            raise CircuitError(f"replacement signal {new!r} is not driven")
        self._outputs = [new if o == old else o for o in self._outputs]
        if old in self.output_weights:
            self.output_weights[new] = self.output_weights.pop(old)
        self.data_outputs = [new if o == old else o for o in self.data_outputs]
        self._invalidate()

    def constant_output_value(self, signal: str) -> Optional[int]:
        """Value of ``signal`` when driven by a constant gate, else None."""
        g = self._gates.get(signal)
        if g is not None and is_constant(g.gtype):
            return constant_value(g.gtype)
        return None

    # ------------------------------------------------------------------
    # copying
    # ------------------------------------------------------------------
    @classmethod
    def from_gates(
        cls, name: str, inputs: Sequence[str], gates: Dict[str, Gate]
    ) -> "Circuit":
        """A circuit of ``inputs`` and the gate map ``gates``, no outputs.

        The map is adopted as is, in its order, and its records are
        shared (gates are immutable records, as in :meth:`copy`); gate
        inputs are checked by :meth:`validate`, not here.
        """
        c = cls(name)
        c._inputs = list(inputs)
        c._input_set = set(c._inputs)
        if len(c._input_set) != len(c._inputs) or not c._input_set.isdisjoint(gates):
            raise CircuitError(f"circuit {name!r} declares a signal twice")
        c._gates = gates
        return c

    def copy(self, name: Optional[str] = None) -> "Circuit":
        """Deep copy (gates are immutable records, so this is cheap).

        The copy starts with no views and builds its own on demand.
        """
        c = Circuit(name or self.name)
        c._inputs = list(self._inputs)
        c._input_set = set(self._input_set)
        c._outputs = list(self._outputs)
        c._gates = dict(self._gates)
        c.output_weights = dict(self.output_weights)
        c.data_outputs = list(self.data_outputs)
        return c

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Summary counts used in reports and tests."""
        per_type: Dict[str, int] = {}
        for g in self._gates.values():
            per_type[g.gtype.value] = per_type.get(g.gtype.value, 0) + 1
        return {
            "inputs": len(self._inputs),
            "outputs": len(self._outputs),
            "gates": len(self._gates),
            "area": self.area(),
            "depth": self.depth(),
            **{f"gates_{t}": n for t, n in sorted(per_type.items())},
        }


def gate_area(gate: Gate) -> int:
    """Area of one gate under the literal-count model."""
    if is_constant(gate.gtype) or gate.gtype is GateType.BUF:
        return 0
    if gate.gtype is GateType.NOT:
        return 1
    return max(1, len(gate.inputs))
