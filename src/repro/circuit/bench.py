"""ISCAS85 ``.bench`` netlist reader and writer.

The evaluation circuits of the paper are the ISCAS85 benchmarks, whose
canonical interchange format is the Berkeley ``.bench`` syntax::

    # comment
    INPUT(G1)
    OUTPUT(G17)
    G10 = NAND(G1, G3)
    G11 = NOT(G10)

This module parses that syntax into a :class:`~repro.circuit.netlist.Circuit`
and serializes circuits back out.  Sequential elements (``DFF``) are
rejected: the paper's method is defined for combinational circuits.

When real ISCAS85 files are available the Table II benchmark harness
will load them through this reader; otherwise it falls back to the
functionally-equivalent generated circuits in :mod:`repro.benchlib`.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, Iterable, List, Tuple, Union

from .gates import GateType
from .netlist import Circuit, CircuitError

__all__ = [
    "load_bench",
    "loads_bench",
    "dump_bench",
    "dumps_bench",
    "bench_name",
    "BenchParseError",
]


class BenchParseError(CircuitError):
    """Raised on malformed ``.bench`` input."""


_GATE_ALIASES: Dict[str, GateType] = {
    "AND": GateType.AND,
    "NAND": GateType.NAND,
    "OR": GateType.OR,
    "NOR": GateType.NOR,
    "XOR": GateType.XOR,
    "XNOR": GateType.XNOR,
    "NOT": GateType.NOT,
    "INV": GateType.NOT,
    "BUF": GateType.BUF,
    "BUFF": GateType.BUF,
    "CONST0": GateType.CONST0,
    "CONST1": GateType.CONST1,
}

_IO_RE = re.compile(r"^(INPUT|OUTPUT)\s*\(\s*([^)\s]+)\s*\)$", re.IGNORECASE)
_GATE_RE = re.compile(r"^([^=\s]+)\s*=\s*([A-Za-z0-9_]+)\s*\(\s*(.*?)\s*\)$")


def loads_bench(text: str, name: str = "bench_circuit") -> Circuit:
    """Parse ``.bench`` source text into a :class:`Circuit`.

    Output declarations are honored in file order; all outputs default
    to data outputs with weight 1 (callers annotate weights afterwards,
    e.g. via the benchlib profiles).
    """
    circuit = Circuit(name)
    outputs: List[str] = []
    pending_gates: List[Tuple[str, GateType, Tuple[str, ...]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _IO_RE.match(line)
        if m:
            kind, signal = m.group(1).upper(), m.group(2)
            if kind == "INPUT":
                circuit.add_input(signal)
            else:
                outputs.append(signal)
            continue
        m = _GATE_RE.match(line)
        if m:
            out, op, operands = m.group(1), m.group(2).upper(), m.group(3)
            if op == "DFF":
                raise BenchParseError(
                    f"line {lineno}: sequential element DFF is not supported "
                    "(the method targets combinational circuits)"
                )
            gtype = _GATE_ALIASES.get(op)
            if gtype is None:
                raise BenchParseError(f"line {lineno}: unknown gate type {op!r}")
            ins = tuple(s.strip() for s in operands.split(",") if s.strip())
            pending_gates.append((out, gtype, ins))
            continue
        raise BenchParseError(f"line {lineno}: cannot parse {raw!r}")
    for out, gtype, ins in pending_gates:
        circuit.add_gate(out, gtype, ins)
    for signal in outputs:
        circuit.add_output(signal, weight=1, is_data=True)
    circuit.validate()
    return circuit


def load_bench(path: Union[str, Path], name: str | None = None) -> Circuit:
    """Read a ``.bench`` file from disk."""
    path = Path(path)
    return loads_bench(path.read_text(), name=name or path.stem)


def dumps_bench(circuit: Circuit) -> str:
    """Serialize a circuit to ``.bench`` text (topologically ordered)."""
    lines: List[str] = [f"# {circuit.name}"]
    lines.extend(f"INPUT({s})" for s in circuit.inputs)
    lines.extend(f"OUTPUT({s})" for s in circuit.outputs)
    for gname in circuit.topological_order():
        g = circuit.gates[gname]
        op = g.gtype.value
        if op == "BUF":
            op = "BUFF"
        lines.append(f"{g.name} = {op}({', '.join(g.inputs)})")
    return "\n".join(lines) + "\n"


def bench_name(text: str) -> str:
    """The circuit name from the ``# name`` header line :func:`dumps_bench`
    writes (``"submitted"`` when the text has none)."""
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            token = line.lstrip("#").strip().split()
            if token:
                return token[0]
        break
    return "submitted"


def dump_bench(circuit: Circuit, path: Union[str, Path]) -> None:
    """Write a circuit to a ``.bench`` file."""
    Path(path).write_text(dumps_bench(circuit))
