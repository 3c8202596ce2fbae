"""The array cone coder against the per-gate coder it replaced.

``BatchFaultSimulator`` codes a whole slab at once from the program's
gate table.  :class:`ReferenceCoder` keeps the coder cone replay used
before: each fault site's cone found by ``fanout_cone_gates`` and coded
gate by gate, every gate padded to the netlist's widest fan-in, and
blocks grown with Python sets.  Both must build the same slabs, block
for block, and give the same statistics as ``FaultSimulator``, on
netlists with wide gates, gates that read one signal on two pins and
constant gates.
"""

from itertools import accumulate, chain

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.circuit import CircuitBuilder, GateType
from repro.circuit.gates import ALL_ONES
from repro.circuit.netlist import CircuitError
from repro.circuit.structure import fanout_cone_gates
from repro.faults import StuckAtFault, enumerate_faults
from repro.obs import Instrumentation
from repro.simulation import BatchFaultSimulator, FaultSimulator, random_vectors
from repro.simulation.compiled import (
    CORE_PAD,
    ROW_ONE,
    ROW_ZERO,
    eval_core_group,
    lower_entry,
)

# Columns of a cone's gate code (see ReferenceCoder._cone).
_KEY, _OUT, _INV, _ARITY, _INS = range(5)

_MULTI = (
    GateType.AND, GateType.NAND, GateType.OR,
    GateType.NOR, GateType.XOR, GateType.XNOR,
)


class _Cone:
    __slots__ = ("rows", "code", "gates", "boundary")


class ReferenceCoder(BatchFaultSimulator):
    """Cone replay with the per-gate coder; detection, deviation and
    the drop rule are the simulator's own (``_measure``)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._arity = max(
            (grp[2].shape[0] for groups in self.sim.program.levels for grp in groups),
            default=1,
        )
        self.slabs = []

    def _entry(self, name):
        program = self.sim.program
        out_row = program.row_of[name]
        gate = self.circuit.gates[name]
        core, invert, ins = lower_entry(
            gate.gtype, tuple(program.row_of[s] for s in gate.inputs)
        )
        return 3 * program.loc[out_row][0] + core, core, out_row, ins, invert

    def _cone(self, line):
        """``rows``: the forced signal (stem fault) or the faulted gate
        (branch fault), then the cone gates in topological order.
        ``code``: per gate its group key, local output row, inversion and
        arity, then its inputs padded with the core's identity row; an
        input inside the cone is its local row (>= 0), any other baseline
        row ``r`` is ``-1 - r``.  ``boundary``: those other rows, the
        constant rows aside."""
        row_of = self.sim.program.row_of
        if not self.circuit.has_signal(line.signal):
            raise CircuitError(f"fault site {line} not in circuit")
        if line.is_stem:
            gates = fanout_cone_gates(self.circuit, line.signal, row_of)
            rows = [row_of[line.signal]]
        else:
            gate = self.circuit.gates.get(line.gate)
            if gate is None:
                raise CircuitError(f"fault site {line}: gate {line.gate!r} not in circuit")
            if line.pin >= len(gate.inputs) or gate.inputs[line.pin] != line.signal:
                raise CircuitError(f"fault site {line}: pin does not match netlist")
            gates = (line.gate,) + fanout_cone_gates(self.circuit, line.gate, row_of)
            rows = []
        entries = [self._entry(g) for g in gates]
        rows.extend(e[2] for e in entries)
        local = {row: i for i, row in enumerate(rows)}
        code = []
        boundary = set()
        for key, core, out_row, ins, invert in entries:
            code += (key, local[out_row], invert, len(ins))
            for r in ins:
                i = local.get(r)
                if i is None:
                    code.append(-1 - r)
                    boundary.add(r)
                else:
                    code.append(i)
            code += [-1 - CORE_PAD[core]] * (self._arity - len(ins))
        boundary.discard(ROW_ZERO)
        boundary.discard(ROW_ONE)
        cone = _Cone()
        cone.rows = rows
        cone.code = code
        cone.gates = len(entries)
        cone.boundary = frozenset(boundary)
        self.obs.gauge_max("batchsim.cone_gates_max", len(entries))
        return cone

    def _reference_blocks(self, faults):
        cap = self.sim.program.num_rows - 2
        block, cones, private, boundary = [], {}, 0, set()
        for fault in faults:
            line = fault.line
            key = (line.signal, line.gate, line.pin)
            cone = cones.get(key)
            if cone is None:
                cone = self._cone(line)
            fresh = cone.boundary - boundary
            if block and private + len(cone.rows) + len(boundary) + len(fresh) > cap:
                yield block, boundary
                block, cones, private, boundary = [], {}, 0, set()
                fresh = cone.boundary
            cones[key] = cone
            block.append((fault, cone))
            private += len(cone.rows)
            boundary |= fresh
        if block:
            yield block, boundary

    def _reference_slab(self, block, boundary_rows):
        w = self._w
        cones = [cone for _f, cone in block]
        sizes = [len(cone.rows) for cone in cones]
        offs = [2 + o for o in accumulate([0] + sizes[:-1])]
        private = sum(sizes)
        code = np.fromiter(
            chain.from_iterable(cone.code for cone in cones), dtype=np.intp
        ).reshape(-1, _INS + self._arity)
        gate_counts = [cone.gates for cone in cones]
        gate_off = np.repeat(np.asarray(offs, dtype=np.intp), gate_counts)
        forced = ([], [])
        for (fault, _cone), off, first in zip(block, offs, accumulate([0] + gate_counts)):
            if fault.line.is_stem:
                forced[fault.value].append(off)
            else:
                stuck = ROW_ONE if fault.value else ROW_ZERO
                code[first, _INS + fault.line.pin] = -1 - stuck
        ins = code[:, _INS:]
        inside = ins >= 0
        rows = np.where(inside, ins + gate_off[:, None], -1 - ins)
        outside = ~inside & (rows > ROW_ONE)
        boundary = np.fromiter(sorted(boundary_rows), dtype=np.intp, count=len(boundary_rows))
        rows[outside] = 2 + private + np.searchsorted(boundary, rows[outside])

        slab = np.empty((2 + private + boundary.size, w), dtype=np.uint64)
        slab[ROW_ZERO] = 0
        slab[ROW_ONE] = ALL_ONES
        slab[2 + private :] = self._base[boundary]
        slab[forced[0]] = 0
        slab[forced[1]] = ALL_ONES
        self.obs.incr("batchsim.slabs")
        self.obs.gauge_max("batchsim.slab_rows_max", slab.shape[0])
        if code.shape[0]:
            order = np.argsort(code[:, _KEY], kind="stable")
            keys = code[order, _KEY]
            starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
            stops = np.r_[starts[1:], keys.size]
            arity = np.maximum.reduceat(code[order, _ARITY], starts)
            inverted = code[order, _INV] != 0
            any_inv = np.logical_or.reduceat(inverted, starts)
            inv_words = np.where(inverted, ALL_ONES, np.uint64(0))[:, None]
            outs = code[order, _OUT] + gate_off[order]
            ins_t = np.ascontiguousarray(rows[order].T)
            for s, e, a, has_inv, key in zip(
                starts.tolist(), stops.tolist(), arity.tolist(),
                any_inv.tolist(), keys[starts].tolist(),
            ):
                eval_core_group(
                    key % 3, outs[s:e], ins_t[:a, s:e],
                    inv_words[s:e] if has_inv else None, slab, slice(None),
                )
        self.slabs.append(slab.copy())
        return slab

    def evaluate(self, faults, *, rs_drop_threshold=None, chunk_words=None, detailed=False):
        w = self._w
        if chunk_words is None:
            chunk_words = w if rs_drop_threshold is None else max(8, -(-w // 8))
        ends = list(range(chunk_words, w, chunk_words)) + [w]
        stats = []
        for block, boundary in self._reference_blocks(faults):
            faults_of = [f for f, _cone in block]
            slab = self._reference_slab(block, boundary)
            rows = np.fromiter(chain.from_iterable(c.rows for _f, c in block), dtype=np.intp)
            owner = np.repeat(np.arange(len(block)), [len(c.rows) for _f, c in block])
            stats.extend(
                self._measure(faults_of, slab, rows, owner, ends, rs_drop_threshold, detailed)
            )
        return stats


class RecordingSimulator(BatchFaultSimulator):
    """The array coder, keeping a copy of every slab it replays."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.slabs = []

    def _slab(self, *args):
        slab = super()._slab(*args)
        self.slabs.append(slab.copy())
        return slab


def _netlist(rng):
    """A random netlist holding a gate of fan-in 17-20, a gate reading
    one signal on two pins and both constant gates, besides 2-4-input
    and one-input gates."""
    b = CircuitBuilder("coder")
    signals = [b.input(f"i{k}") for k in range(int(rng.integers(2, 6)))]
    signals.append(b.gate(GateType.CONST0, (), name="zero"))
    signals.append(b.gate(GateType.CONST1, (), name="one"))
    kinds = ["wide", "twice"] + ["any"] * int(rng.integers(6, 24))
    rng.shuffle(kinds)
    for k, kind in enumerate(kinds):
        pick = lambda: signals[int(rng.integers(len(signals)))]  # noqa: E731
        if kind == "any" and rng.random() < 0.2:
            gtype = (GateType.NOT, GateType.BUF)[int(rng.integers(2))]
            ins = [pick()]
        else:
            gtype = _MULTI[int(rng.integers(len(_MULTI)))]
            width = int(rng.integers(17, 21)) if kind == "wide" else int(rng.integers(2, 5))
            ins = [pick() for _ in range(width)]
            if kind == "twice":
                ins[1] = ins[0]
        signals.append(b.gate(gtype, ins, name=f"g{k}"))
    circuit = b.circuit
    used = {s for g in circuit.gates.values() for s in g.inputs}
    gates = [s for s in signals if s in circuit.gates]
    outputs = [s for s in gates if s not in used]
    outputs += [s for s in rng.permutation(gates).tolist() if s not in outputs][:2]
    for i, s in enumerate(outputs):
        b.output(s, weight=int(rng.integers(-8, 9)) << i)
    return circuit


def _faults(circuit, rng):
    """Stem, branch and PI faults of both polarities, every pin of the
    wide and the two-pin gates included, some of them repeated,
    shuffled."""
    faults = list(enumerate_faults(circuit, include_branches=True))
    for name, gate in circuit.gates.items():
        if len(gate.inputs) > 4 or len(set(gate.inputs)) < len(gate.inputs):
            faults += [
                StuckAtFault.branch(s, name, pin, v)
                for pin, s in enumerate(gate.inputs)
                for v in (0, 1)
            ]
    faults += [StuckAtFault.stem(s, v) for s in circuit.inputs for v in (0, 1)]
    faults += [faults[int(i)] for i in rng.integers(0, len(faults), size=8)]
    return [faults[int(i)] for i in rng.permutation(len(faults))]


def _values(stats):
    return [
        (st.fault, st.detected_count, st.max_abs_deviation, st.dropped,
         st.words_simulated, st.detected.tolist(), st.deviations)
        for st in stats
    ]


def _check(circuit, vectors, faults, **kwargs):
    """Both coders' slabs, slab counters and statistics agree, and each
    fault's statistics equal ``FaultSimulator``'s over the words it
    counted."""
    runs = []
    for cls in (RecordingSimulator, ReferenceCoder):
        obs = Instrumentation()
        sim = cls(circuit, obs=obs)
        sim.load_batch(vectors)
        stats = sim.evaluate(faults, detailed=True, **kwargs)
        gauges = [obs.gauges[k] for k in ("batchsim.cone_gates_max", "batchsim.slab_rows_max")]
        runs.append((stats, sim.slabs, [obs.counters["batchsim.slabs"], *gauges]))
    (stats, slabs, counts), (ref_stats, ref_slabs, ref_counts) = runs
    assert counts == ref_counts and counts[0] > 1
    assert all(np.array_equal(a, b) for a, b in zip(slabs, ref_slabs))
    assert _values(stats) == _values(ref_stats)
    naive = FaultSimulator(circuit)
    for fault, got in zip(faults, stats):
        diff = naive.differential(vectors, [fault])
        seen = min(vectors.shape[0], 64 * got.words_simulated)
        detected, deviations = diff.detected[:seen], diff.deviations[:seen]
        assert np.array_equal(got.detected, detected), fault
        assert got.deviations == deviations, fault
        assert got.detected_count == int(np.count_nonzero(detected)), fault
        assert got.max_abs_deviation == max(abs(d) for d in deviations), fault
    return stats


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_array_coder_matches_per_gate_coder(seed):
    rng = np.random.default_rng(seed)
    circuit = _netlist(rng)
    vectors = random_vectors(len(circuit.inputs), 130, rng)  # 3 words, ragged tail
    faults = _faults(circuit, rng)
    full = _check(circuit, vectors, faults)
    assert not any(st.dropped for st in full)
    # a threshold some faults exceed within a word and others never do
    threshold = float(np.median([st.rs for st in full])) / 2
    _check(circuit, vectors, faults, rs_drop_threshold=threshold, chunk_words=1)
