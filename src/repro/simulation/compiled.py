"""Compiled whole-netlist simulation kernel.

:class:`~repro.simulation.logicsim.LogicSimulator` walks the gate
schedule one gate at a time, so every simulated batch pays one Python
dispatch (plus a handful of numpy calls) *per gate*.  This module
lowers a circuit once into a flat struct-of-arrays **program**
executed as a few vectorized numpy passes per topological level, with
no per-gate Python in the inner loop:

* every gate type maps onto one of three bitwise **cores** (AND, OR,
  XOR) plus a per-gate inversion word -- NAND/NOR/XNOR/NOT are their
  base core followed by ``xor ALL_ONES``, BUF is a 1-input OR, and the
  constant gates read the dedicated constant rows;
* the value matrix is one contiguous ``(rows x words)`` uint64 array:
  row 0 is constant zero, row 1 constant one, then the primary inputs,
  then the gates in topological order.  The word axis carries the
  packed vector batch, so bit-parallelism widens past 64 ways simply by
  adding words (``ceil(N/64)`` per batch of N vectors);
* gates of one level are grouped per core and padded to the group's
  maximum fan-in with the core's identity row (the constant-one row for
  AND, constant-zero for OR/XOR), so each level executes as at most
  three gather/fold/scatter passes;
* fault injection needs no recompilation: a **stem** fault overwrites
  the signal's row right after its level executes (before any level for
  primary inputs), and a **branch** fault patches the one
  ``(slot, column)`` entry of its group's input-index array to point at
  a constant row -- the pin reads the stuck value while the stem keeps
  its true value, exactly the line semantics of
  :mod:`repro.faults.model`.

A program is a view of its :class:`~repro.circuit.Circuit`
(:attr:`~repro.circuit.Circuit.views`): :func:`compile_program` lowers a
circuit on first use and keeps the program in the circuit's view cache,
which every netlist mutation empties.  There is no global cache, so a
program lives exactly as long as its netlist, and a structurally equal
rebuild lowers anew.  The program also keeps every gate's lowered form
in one row-indexed :class:`GateTable` (group key, inversion, fan-in and
a CSR of its unpadded input rows), which the cone replay of
:class:`~repro.simulation.batchfaultsim.BatchFaultSimulator` codes
whole slabs from with array operations instead of lowering the gates
again.  :class:`CompiledSimulator` is the
only simulator production code builds; it keeps the run surface of the
per-gate reference :class:`~repro.simulation.logicsim.LogicSimulator`
(``run`` / ``run_packed`` / ``index_of``, same :class:`SimResult`)
and is bit-identical to it -- pinned by the reference suite in
``tests/simulation/test_engine_equivalence.py`` and the property tests
in ``tests/simulation/test_compiled.py``.

A run records only ``kernel.runs``, ``kernel.words_simulated`` and the
fault-overlay counts (``kernel.overlay_patches``/``overlay_stems``).
The kernel's throughput is measured from outside, over
:meth:`CompiledSimulator.run_packed`'s own time, by the end-to-end
benchmark (``simulation.compiled.run_packed.mb_per_s`` under
``benchmarks/e2e/run.py --trace 1``).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from ..circuit import Circuit, GateType
from ..circuit.gates import ALL_ONES
from ..faults.model import StuckAtFault
from ..obs.core import Instrumentation, get_active
from .logicsim import SimResult
from .vectors import num_words, pack_vectors

__all__ = [
    "CompiledProgram",
    "CompiledSimulator",
    "GateTable",
    "circuit_fingerprint",
    "compile_program",
]

#: Reserved value-matrix rows: constant zero and constant one.  They
#: double as the padding identity rows (one for the AND core, zero for
#: OR/XOR) and as the stuck-value sources for branch-fault patches.
ROW_ZERO = 0
ROW_ONE = 1

#: Core opcodes.  NAND/NOR/XNOR/NOT are the base core + inversion.
CORE_AND = 0
CORE_OR = 1
CORE_XOR = 2

_CORE_OPS = (np.bitwise_and, np.bitwise_or, np.bitwise_xor)

#: Identity row per core, used to pad a group to its maximum fan-in.
CORE_PAD = (ROW_ONE, ROW_ZERO, ROW_ZERO)

_LOWER: Dict[GateType, Tuple[int, bool]] = {
    GateType.AND: (CORE_AND, False),
    GateType.NAND: (CORE_AND, True),
    GateType.OR: (CORE_OR, False),
    GateType.NOR: (CORE_OR, True),
    GateType.XOR: (CORE_XOR, False),
    GateType.XNOR: (CORE_XOR, True),
    GateType.BUF: (CORE_OR, False),
    GateType.NOT: (CORE_OR, True),
}


def lower_entry(
    gtype: GateType, in_rows: Tuple[int, ...]
) -> Tuple[int, bool, List[int]]:
    """Lower one gate to ``(core, invert, input_rows)``.

    Constant gates become a 1-input OR of the matching constant row, so
    every lowered gate reads at least one row and the grouped execution
    needs no zero-arity special case.
    """
    if gtype is GateType.CONST0:
        return CORE_OR, False, [ROW_ZERO]
    if gtype is GateType.CONST1:
        return CORE_OR, False, [ROW_ONE]
    core, invert = _LOWER[gtype]
    return core, invert, list(in_rows)


def eval_core_group(
    core: int,
    out_rows: np.ndarray,
    in_rows: np.ndarray,
    inv: Optional[np.ndarray],
    work: np.ndarray,
    sl: slice,
) -> None:
    """Evaluate one padded core group on a word slice of the matrix.

    ``in_rows`` has shape ``(arity, k)``: operand *j* of all *k* gates
    at once.  The fancy gather ``work[in_rows[0], sl]`` copies, so the
    in-place fold never aliases the work array, and gates of one level
    never feed each other, so the final scatter is order-free.
    """
    op = _CORE_OPS[core]
    acc = work[in_rows[0], sl]
    for j in range(1, in_rows.shape[0]):
        op(acc, work[in_rows[j], sl], out=acc)
    if inv is not None:
        np.bitwise_xor(acc, inv, out=acc)
    work[out_rows, sl] = acc


class GateTable(NamedTuple):
    """Every gate's lowered form, indexed by value-matrix row.

    Row ``r`` of a gate holds its ``(level, core)`` group key
    ``3 * level + core`` (``level`` the index into
    :attr:`CompiledProgram.levels`), its inversion flag, its fan-in and,
    in ``in_rows[in_ptr[r]:in_ptr[r + 1]]``, its input rows as
    :func:`lower_entry` gives them, unpadded.  The constant and input
    rows hold key -1 and no inputs.
    """

    key: np.ndarray
    invert: np.ndarray
    fanin: np.ndarray
    in_ptr: np.ndarray
    in_rows: np.ndarray


class CompiledProgram:
    """The flat struct-of-arrays form of one circuit.

    Pure data, shared freely between simulators (and between the
    whole-netlist and cone-restricted execution paths); per-run state
    lives entirely in the caller's value matrix.
    """

    __slots__ = (
        "num_inputs",
        "num_rows",
        "row_of",
        "gate_table",
        "levels",
        "loc",
        "level_of_row",
    )

    def __init__(
        self,
        num_inputs: int,
        num_rows: int,
        row_of: Dict[str, int],
        gate_table: GateTable,
        levels: Tuple[Tuple[Tuple, ...], ...],
        loc: Dict[int, Tuple[int, int, int]],
        level_of_row: List[int],
    ) -> None:
        self.num_inputs = num_inputs
        self.num_rows = num_rows
        self.row_of = row_of
        self.gate_table = gate_table
        self.levels = levels
        self.loc = loc
        #: The level index of every row; -1 for the constant and input
        #: rows, which hold their values before any level runs.
        self.level_of_row = level_of_row


def circuit_fingerprint(circuit: Circuit) -> str:
    """Content digest of the simulated structure (inputs + gates).

    The service's result cache keys on it (extended with the output
    annotations, :func:`repro.service.cache.circuit_cache_fingerprint`).
    """
    h = hashlib.sha1()
    for s in circuit.inputs:
        h.update(b"i\x00")
        h.update(s.encode())
        h.update(b"\x00")
    for name in circuit.topological_order():
        g = circuit.gates[name]
        h.update(b"g\x00")
        h.update(name.encode())
        h.update(b"\x00")
        h.update(g.gtype.name.encode())
        for s in g.inputs:
            h.update(b"\x00")
            h.update(s.encode())
        h.update(b"\x01")
    return h.hexdigest()


def _build_program(circuit: Circuit) -> CompiledProgram:
    order = circuit.topological_order()
    gates = circuit.gates
    row_of: Dict[str, int] = {s: 2 + i for i, s in enumerate(circuit.inputs)}
    first_gate_row = 2 + len(row_of)
    row_of.update((name, first_gate_row + i) for i, name in enumerate(order))

    # Level of every row: -1 for the constant and input rows, so a
    # gate's level (1 + its deepest input's) counts from 0 and is the
    # index of its level in ``levels``.
    num_rows = first_gate_row + len(order)
    level = [-1] * num_rows
    keys = [-1] * num_rows
    inverts = [False] * num_rows
    fanin = [0] * num_rows
    flat_ins: List[int] = []
    # (level, core) -> [(out_row, lowered_input_rows, invert)]
    buckets: Dict[Tuple[int, int], List[Tuple[int, Tuple[int, ...], bool]]] = {}
    for name in order:
        g = gates[name]
        out_row = row_of[name]
        core, invert, ins = lower_entry(g.gtype, tuple(map(row_of.__getitem__, g.inputs)))
        ins = tuple(ins)
        lvl = level[out_row] = 1 + max(map(level.__getitem__, ins))
        keys[out_row] = 3 * lvl + core
        inverts[out_row] = invert
        fanin[out_row] = len(ins)
        flat_ins.extend(ins)
        buckets.setdefault((lvl, core), []).append((out_row, ins, invert))
    fanin_arr = np.array(fanin, dtype=np.intp)
    table = GateTable(
        key=np.array(keys, dtype=np.intp),
        invert=np.array(inverts, dtype=bool),
        fanin=fanin_arr,
        in_ptr=np.concatenate(([0], np.cumsum(fanin_arr))),
        in_rows=np.array(flat_ins, dtype=np.intp),
    )

    level_groups: List[List[Tuple]] = [[] for _ in range(1 + max(level))]
    loc: Dict[int, Tuple[int, int, int]] = {}
    for (lvl, core), ents in sorted(buckets.items()):
        arity = max(len(ins) for _o, ins, _v in ents)
        pad = (CORE_PAD[core],)
        out_rows = np.fromiter((o for o, _ins, _v in ents), dtype=np.intp, count=len(ents))
        in_rows = np.array(
            [ins + pad * (arity - len(ins)) for _o, ins, _v in ents], dtype=np.intp
        ).T.copy()
        flags = [v for _o, _ins, v in ents]
        if any(flags):
            inv = np.zeros((len(ents), 1), dtype=np.uint64)
            inv[flags] = ALL_ONES
        else:
            inv = None
        groups = level_groups[lvl]
        grp_idx = len(groups)
        groups.append((core, out_rows, in_rows, inv))
        for col, (out_row, _ins, _v) in enumerate(ents):
            loc[out_row] = (lvl, grp_idx, col)

    levels = tuple(tuple(groups) for groups in level_groups)
    return CompiledProgram(
        num_inputs=len(circuit.inputs),
        num_rows=num_rows,
        row_of=row_of,
        gate_table=table,
        levels=levels,
        loc=loc,
        level_of_row=level,
    )


def compile_program(
    circuit: Circuit, obs: Optional[Instrumentation] = None
) -> CompiledProgram:
    """The circuit's :class:`CompiledProgram`, lowered on first use and
    kept as a view of the circuit (``circuit.views["program"]``)."""
    obs = obs if obs is not None else get_active()
    views = circuit.views
    program = views.get("program")
    if program is not None:
        obs.incr("compile.cache_hits")
        return program
    obs.incr("compile.cache_misses")
    with obs.span("compile.lower"):
        program = _build_program(circuit)
    obs.incr("compile.gates_lowered", program.num_rows - 2 - program.num_inputs)
    obs.incr("compile.levels", len(program.levels))
    views["program"] = program
    return program


class CompiledSimulator:
    """Level-vectorized whole-netlist simulator for one circuit.

    Same construction contract (validates the circuit), same run
    surface, same :class:`SimResult`; ``index_of`` maps signals to
    *matrix rows* (offset by the two constant rows), and every consumer
    of the result goes through ``index_of``, so the offset never leaks.
    """

    def __init__(
        self,
        circuit: Circuit,
        obs: Optional[Instrumentation] = None,
        program: Optional[CompiledProgram] = None,
    ) -> None:
        circuit.validate()
        self.circuit = circuit
        self.obs = obs if obs is not None else get_active()
        self.program = (
            program if program is not None else compile_program(circuit, self.obs)
        )
        self.num_signals = len(self.program.row_of)

    def index_of(self, signal: str) -> int:
        """Value-matrix row assigned to a signal."""
        return self.program.row_of[signal]

    # ------------------------------------------------------------------
    def run(
        self,
        vectors: np.ndarray,
        faults: Iterable[StuckAtFault] = (),
    ) -> SimResult:
        """Simulate a batch of input vectors.

        ``vectors`` is a boolean matrix (N, num_inputs) in the circuit's
        input order; ``faults`` are stuck-at faults injected together.
        """
        vecs = np.asarray(vectors, dtype=bool)
        if vecs.ndim != 2 or vecs.shape[1] != len(self.circuit.inputs):
            raise ValueError(
                f"expected (N, {len(self.circuit.inputs)}) vector matrix, "
                f"got {vecs.shape}"
            )
        packed = pack_vectors(vecs)
        return self.run_packed(packed, vecs.shape[0], faults)

    def run_packed(
        self,
        input_words: np.ndarray,
        num_vectors: int,
        faults: Iterable[StuckAtFault] = (),
    ) -> SimResult:
        """Simulate from already-packed input words (num_inputs, W)."""
        w = input_words.shape[1]
        if w != num_words(num_vectors):
            raise ValueError("packed input word count does not match num_vectors")
        p = self.program
        values = np.empty((p.num_rows, w), dtype=np.uint64)
        values[ROW_ZERO] = 0
        values[ROW_ONE] = ALL_ONES
        values[2 : 2 + p.num_inputs] = input_words

        # Fault overlays: stems become row overwrites keyed by the
        # driving level (-1 = primary input, applied before any gate),
        # branches become per-run copies of one group's input-index
        # array with the faulted (slot, column) repointed at a constant
        # row.
        stem_by_level: Dict[int, List[Tuple[int, np.uint64]]] = {}
        patches: Dict[Tuple[int, int], np.ndarray] = {}
        for f in faults:
            word = ALL_ONES if f.value else np.uint64(0)
            if f.line.is_stem:
                row = p.row_of[f.line.signal]
                lvl = p.level_of_row[row]
                stem_by_level.setdefault(lvl, []).append((row, word))
            else:
                gate_row = p.row_of[f.line.gate]
                li, gi, col = p.loc[gate_row]
                key = (li, gi)
                patched = patches.get(key)
                if patched is None:
                    patched = p.levels[li][gi][2].copy()
                    patches[key] = patched
                patched[f.line.pin, col] = ROW_ONE if f.value else ROW_ZERO

        sl = slice(0, w)
        if not stem_by_level and not patches:
            for groups in p.levels:
                for core, out_rows, in_rows, inv in groups:
                    eval_core_group(core, out_rows, in_rows, inv, values, sl)
        else:
            for row, word in stem_by_level.get(-1, ()):
                values[row] = word
            for li, groups in enumerate(p.levels):
                for gi, (core, out_rows, in_rows, inv) in enumerate(groups):
                    if patches:
                        in_rows = patches.get((li, gi), in_rows)
                    eval_core_group(core, out_rows, in_rows, inv, values, sl)
                for row, word in stem_by_level.get(li, ()):
                    values[row] = word
            if patches:
                self.obs.incr("kernel.overlay_patches", len(patches))
            if stem_by_level:
                self.obs.incr(
                    "kernel.overlay_stems",
                    sum(len(v) for v in stem_by_level.values()),
                )
        self.obs.incr("kernel.runs")
        self.obs.incr("kernel.words_simulated", w)
        return SimResult(self, values, num_vectors)

