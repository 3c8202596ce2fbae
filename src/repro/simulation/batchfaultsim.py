"""Fault-parallel batch fault simulation with cone-restricted
incremental propagation (PPSFP-style), replayed along a fault axis.

The full :class:`~repro.simulation.faultsim.FaultSimulator` walks the
entire gate schedule once per fault set, so the greedy loop's candidate
ranking -- many *single* faults, one shared vector batch -- costs
O(candidates x gates x words) even though each single fault only
perturbs its fanout cone.  :class:`BatchFaultSimulator` removes that
waste:

* the fault-free baseline is simulated **once per vector batch**;
* each candidate fault replays only its *cone* (the gates in the
  line's transitive fanout), reading undisturbed signals from the
  baseline.  The cones of a call are found together, one bit per fault
  site OR-propagated through the compiled program's level groups, and
  each is a sorted array of value-matrix rows, which is replay order;
* the faults of one call replay **together**, along a fault axis: each
  fault gets a private copy of its cone rows in one value matrix (the
  *slab*) that also holds the baseline rows the cones read, and every
  fault's gates that share a topological level and a bitwise core of
  the compiled program evaluate in one vectorized numpy call.  A slab
  is coded with array operations from the program's gate table
  (:class:`~repro.simulation.compiled.GateTable`): a sorted search
  tells each gate input inside its own fault's cone from a boundary
  row, and each group's input matrix is padded only to its own widest
  gate;
* only the primary outputs inside a cone are compared against the
  reference machine -- every other output is known to still match the
  baseline -- and only cone value-outputs enter the weighted-deviation
  update, one segmented sum for all faults
  (:meth:`~repro.simulation.deviation.WeightedDeviation.segmented`);
* a fault can be **dropped** early: with ``rs_drop_threshold`` set, the
  vector words are split into chunks, and once the running
  detection-count/deviation lower bounds already prove
  ``ER * ES > threshold`` the fault's remaining chunks do not count (the
  fault is disqualified for ranking purposes no matter how the rest of
  the batch turns out).  Every chunk is simulated and summarized per
  fault (detection count and deviation max); the drop rule runs
  once per chunk, for all faults, on their summaries so far, and each
  fault's statistics and ``words_simulated`` cover the chunks up to its
  drop -- those of a fault simulated chunk by chunk and stopped there.

Memory stays within a few baseline-sized arrays.  A slab holds at most
as many rows as the baseline (the faults are taken in blocks that fit,
so a block never has more faults than the baseline has rows), and its
code takes a few integers per gate input.  Finding the cones holds one bit
per (row, fault site) for at most :data:`CONE_WORDS` words at a time,
then the rows of every cone of the call and of its boundary.  Detection
adds the gathered cone observe rows (no more than the slab's private
rows) and up to three (faults in block x words) arrays: the detection
words, the residual gather and the per-word popcounts.  The deviation
step unpacks at most :data:`DEVIATION_CELLS` (value-output row x
vector) cells at a time.

The reference machine defaults to the simulated circuit's own baseline
(classical single-fault differential simulation).  The greedy loop
instead passes the *original* circuit's output words, so the per-fault
stats measure the cumulative deviation of (current simplified netlist +
candidate fault) against the original -- exactly what
:meth:`repro.metrics.estimate.MetricsEstimator.simulate` measures, at a
fraction of the cost.

Results are bit-identical to the full simulator (cross-validated in
``tests/simulation/test_batchfaultsim.py``), and the slabs to those of
the per-gate coder the gate table replaced
(``tests/simulation/test_cone_coder.py``).  Multi-fault *sets* are
deliberately out of scope: ER does not compose across interacting
faults (Section III.C), so overlay/commit decisions keep using the full
:class:`FaultSimulator` / :class:`MetricsEstimator` path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit import Circuit
from ..circuit.gates import ALL_ONES
from ..circuit.netlist import CircuitError
from ..faults.model import StuckAtFault
from ..obs.core import Instrumentation, get_active
from .compiled import (
    CORE_PAD,
    ROW_ONE,
    ROW_ZERO,
    CompiledSimulator,
    eval_core_group,
)
from .deviation import WeightedDeviation
from .logicsim import SimResult
from .vectors import pack_vectors, tail_mask, unpack_vectors, word_popcounts

__all__ = ["FaultBatchStats", "BatchFaultSimulator"]

#: Most (value-output row x vector) cells the deviation step unpacks at
#: once, in ``evaluate`` and in ``load_batch``: it bounds that step's
#: working set (about 11 bytes per cell).
DEVIATION_CELLS = 1 << 18

#: Most words a cone pass holds in one (fanout edge x key word) gather:
#: it bounds the working set of :meth:`BatchFaultSimulator._cones`.
CONE_WORDS = 1 << 18


@dataclass
class FaultBatchStats:
    """Per-fault outcome of one batch evaluation.

    Exposes the same ranking statistics as
    :class:`~repro.simulation.faultsim.DifferentialResult`
    (``error_rate`` / ``max_abs_deviation``).
    When the fault was dropped early, the statistics are lower bounds
    over the ``words_simulated`` first words -- already sufficient to
    disqualify the fault against the drop threshold.
    """

    fault: StuckAtFault
    num_vectors: int
    detected_count: int
    max_abs_deviation: int
    dropped: bool = False
    words_simulated: int = 0
    detected: Optional[np.ndarray] = None
    deviations: Optional[List[int]] = None

    @property
    def error_rate(self) -> float:
        """Fraction of batch vectors with any output mismatch.

        A zero-vector batch has no estimate to give: the rate defaults
        to 0.0 and the ``quality.zero_pattern_estimates`` counter
        records that a caller consumed a vacuous estimate.
        """
        if self.num_vectors == 0:
            get_active().incr("quality.zero_pattern_estimates")
            return 0.0
        return self.detected_count / self.num_vectors

    @property
    def rs(self) -> float:
        """Simulated RS estimate: ER times observed max deviation."""
        return self.error_rate * self.max_abs_deviation


class BatchFaultSimulator:
    """Cone-restricted single-fault batch simulator bound to one circuit.

    Parameters mirror :class:`FaultSimulator`: ``observe_outputs`` feed
    detection (default: all primary outputs), ``value_outputs`` define
    the weighted deviation (default: the data outputs, falling back to
    all outputs).  ``weights`` overrides the per-value-output weights
    (defaults to the circuit's own ``output_weights``); passing them
    explicitly lets :class:`~repro.metrics.estimate.MetricsEstimator`
    pair a simplified netlist's outputs positionally with the original's
    weights.

    The baseline runs through the whole-netlist compiled program.  Cones
    replay in slabs: rows 0 and 1 are the compiled program's constant
    rows (the padding identities and the stuck pin of a branch fault),
    then every fault's private cone rows, then the baseline rows the
    cones read.
    """

    def __init__(
        self,
        circuit: Circuit,
        observe_outputs: Optional[Sequence[str]] = None,
        value_outputs: Optional[Sequence[str]] = None,
        weights: Optional[Sequence[int]] = None,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self.circuit = circuit
        self.obs = obs if obs is not None else get_active()
        self.sim = CompiledSimulator(circuit, obs=self.obs)
        self.observe_outputs = tuple(observe_outputs or circuit.outputs)
        self.value_outputs = (
            tuple(value_outputs) if value_outputs is not None else circuit.value_outputs
        )
        if weights is not None:
            if len(weights) != len(self.value_outputs):
                raise ValueError("weights must match value_outputs")
            self.weights = [int(w) for w in weights]
        else:
            self.weights = circuit.weights_of(self.value_outputs)
        self._obs_rows = np.asarray(
            [self.sim.index_of(o) for o in self.observe_outputs], dtype=np.intp
        )
        self._val_rows = np.asarray(
            [self.sim.index_of(o) for o in self.value_outputs], dtype=np.intp
        )
        # The program's gate table (rows number the gates in topological
        # order, so a sorted cone is in replay order), and which observe
        # and value positions each row drives and which gates read it.
        program = self.sim.program
        self._row_of = program.row_of
        self._table = program.gate_table
        rows = program.num_rows
        self._obs_ptr, self._obs_pos = _positions_by_row(self._obs_rows, rows)
        self._val_ptr, self._val_pos = _positions_by_row(self._val_rows, rows)
        fo_ptr, edges = _positions_by_row(self._table.in_rows, rows)
        self._fo_readers = np.repeat(np.arange(rows), self._table.fanin)[edges]
        self._fo_rows = np.flatnonzero(np.diff(fo_ptr))
        self._fo_starts = fo_ptr[self._fo_rows]

        self.deviation = WeightedDeviation(self.weights)

        # batch state (populated by load_batch)
        self._base: Optional[np.ndarray] = None
        self._n = 0
        self._w = 0
        self._tail: Optional[np.ndarray] = None
        self._ref_out: Optional[np.ndarray] = None
        self._base_diff: Optional[np.ndarray] = None
        self._dirty: FrozenSet[int] = frozenset()
        self._residuals: Dict[FrozenSet[int], np.ndarray] = {}
        self._base_dev: Optional[np.ndarray] = None
        self._base_dev_zero = False

    # ------------------------------------------------------------------
    # batch binding
    # ------------------------------------------------------------------
    def load_batch(
        self,
        vectors: Optional[np.ndarray] = None,
        *,
        packed: Optional[np.ndarray] = None,
        num_vectors: Optional[int] = None,
        reference_outputs: Optional[np.ndarray] = None,
        reference_value_bits: Optional[np.ndarray] = None,
    ) -> SimResult:
        """Bind a vector batch: simulate the baseline once, precompute
        the reference comparison state.

        ``reference_outputs`` (packed words, one row per observe-output
        position) and ``reference_value_bits`` (bool matrix, vectors x
        value outputs) name the *good machine* the per-fault stats are
        measured against; both default to this circuit's own baseline.
        The value bits only set the baseline's per-vector deviation;
        cones are then corrected against the baseline itself.
        Returns the baseline :class:`SimResult`.
        """
        if packed is None:
            if vectors is None:
                raise ValueError("give either vectors or packed+num_vectors")
            vecs = np.asarray(vectors, dtype=bool)
            packed = pack_vectors(vecs)
            num_vectors = vecs.shape[0]
        elif num_vectors is None:
            raise ValueError("packed input needs an explicit num_vectors")

        good = self.sim.run_packed(packed, num_vectors, ())
        self._base = good._words
        self._n = int(num_vectors)
        self._w = self._base.shape[1]
        self._tail = tail_mask(self._n)

        host_out = self._base[self._obs_rows]
        if reference_outputs is None:
            ref = host_out
        else:
            ref = np.ascontiguousarray(reference_outputs, dtype=np.uint64)
            if ref.shape != host_out.shape:
                raise ValueError(
                    f"reference_outputs shape {ref.shape} does not match "
                    f"({len(self._obs_rows)}, {self._w})"
                )
        self._ref_out = ref
        self._base_diff = (host_out ^ ref) & self._tail[None, :]
        self._dirty = frozenset(np.nonzero(self._base_diff.any(axis=1))[0].tolist())
        self._residuals = {}
        self._base_dev = self._baseline_deviation(reference_value_bits)
        self._base_dev_zero = not self._base_dev.any()
        return good

    def _baseline_deviation(self, reference_value_bits: Optional[np.ndarray]) -> np.ndarray:
        """The baseline's signed deviation from the reference, per vector.

        Rows are independent, so it is computed a few vectors at a time
        to keep the (vectors x value outputs) working set within
        :data:`DEVIATION_CELLS`.
        """
        n, m = self._n, len(self.value_outputs)
        dev = np.zeros(n, dtype=np.float64 if self.deviation.narrow else object)
        if reference_value_bits is None or m == 0:
            return dev
        ref = np.asarray(reference_value_bits)
        if ref.shape != (n, m):
            raise ValueError("reference_value_bits shape mismatch")
        step = max(64, DEVIATION_CELLS // m // 64 * 64)
        for v0 in range(0, n, step):
            v1 = min(n, v0 + step)
            host = unpack_vectors(self._base[self._val_rows, v0 // 64 : -(-v1 // 64)], v1 - v0)
            dev[v0:v1] = self.deviation.signed(host.view(np.int8) - ref[v0:v1].astype(np.int8))
        return dev

    # ------------------------------------------------------------------
    # cones
    # ------------------------------------------------------------------
    def _sites(
        self, faults: Sequence[StuckAtFault]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Check every fault's site and name its cone.

        A cone is keyed by its root row and whether the root gate
        replays: a stem fault forces its signal's row, a branch fault
        replays its gate with the stuck pin.  Returns each fault's key
        index and, per key, the root row and that flag.
        """
        row_of = self._row_of
        key_of: Dict[Tuple[int, bool], int] = {}
        site_key: Dict[Tuple, int] = {}
        which = np.empty(len(faults), dtype=np.intp)
        for i, fault in enumerate(faults):
            line = fault.line
            site = (line.signal, line.gate, line.pin)
            key = site_key.get(site)
            if key is None:
                if not self.circuit.has_signal(line.signal):
                    raise CircuitError(f"fault site {line} not in circuit")
                if line.is_stem:
                    root = (row_of[line.signal], False)
                else:
                    gate = self.circuit.gates.get(line.gate)
                    if gate is None:
                        raise CircuitError(f"fault site {line}: gate {line.gate!r} not in circuit")
                    if line.pin >= len(gate.inputs) or gate.inputs[line.pin] != line.signal:
                        raise CircuitError(f"fault site {line}: pin does not match netlist")
                    root = (row_of[line.gate], True)
                key = site_key[site] = key_of.setdefault(root, len(key_of))
            which[i] = key
        roots = np.fromiter((r for r, _b in key_of), dtype=np.intp, count=len(key_of))
        branch = np.fromiter((b for _r, b in key_of), dtype=bool, count=len(key_of))
        return which, roots, branch

    def _cones(
        self, roots: np.ndarray, branch: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The cone rows and the boundary rows of every cone key, as CSRs
        ``(cone_ptr, cone_rows, boundary_ptr, boundary_rows)``.

        Key ``j``'s cone is its root row and every gate in the root's
        transitive fanout, ascending, which is replay order.  Its
        boundary is every other row its replayed gates read -- all cone
        gates but a stem fault's root -- the constant rows aside.  Each
        key is one bit: OR-propagated through the program's level groups
        (a gate joins a cone when any input is in it; the padding rows
        hold no bits), then OR-reduced back over each row's readers.  A
        pass takes as many keys as :data:`CONE_WORDS` allows.
        """
        program = self.sim.program
        step = 64 * max(1, CONE_WORDS // max(program.num_rows, self._fo_readers.size))
        found: Tuple[List[np.ndarray], ...] = ([], [], [], [])
        for k0 in range(0, roots.size, step):
            k1 = min(roots.size, k0 + step)
            root = roots[k0:k1]
            col = np.arange(k1 - k0)
            word = col // 64
            bit = np.left_shift(np.uint64(1), (col % 64).astype(np.uint64))
            cone = np.zeros((program.num_rows, -(-col.size // 64)), dtype=np.uint64)
            np.bitwise_or.at(cone, (root, word), bit)
            first = 1 + min(map(program.level_of_row.__getitem__, root.tolist()))
            for groups in program.levels[max(0, first):]:
                for _core, out_rows, in_rows, _inv in groups:
                    acc = cone[out_rows]
                    for ins in in_rows:
                        acc |= cone[ins]
                    cone[out_rows] = acc
            replayed = cone.copy()
            stem = ~branch[k0:k1]
            replayed[root[stem], word[stem]] &= ~bit[stem]
            reads = np.zeros_like(cone)
            reads[self._fo_rows] = np.bitwise_or.reduceat(
                replayed[self._fo_readers], self._fo_starts, axis=0
            )
            reads &= ~cone
            for bits, (counts, rows) in ((cone, found[:2]), (reads, found[2:])):
                for w in range(bits.shape[1]):
                    keys = min(64, col.size - 64 * w)
                    key, row = np.nonzero(unpack_vectors(bits[:, w : w + 1], keys))
                    counts.append(np.bincount(key, minlength=keys))
                    rows.append(row)
        cone_counts, cone_rows, bnd_counts, bnd_rows = (
            np.concatenate(part) if part else np.zeros(0, dtype=np.intp) for part in found
        )
        return _ptr(cone_counts), cone_rows, _ptr(bnd_counts), bnd_rows

    def _blocks(
        self, which: np.ndarray, sizes: np.ndarray, bnd_ptr: np.ndarray, bnd_rows: np.ndarray
    ) -> Iterator[Tuple[int, int, np.ndarray]]:
        """Consecutive runs ``s:e`` of faults whose slab fits the
        baseline's rows, each with the sorted union of the boundary rows
        its faults' cones read (``which`` names each fault's cone key,
        ``sizes`` its private rows).

        A slab holds the two constant rows, every fault's private cone
        rows and the union of the rows the cones read; one fault's cone
        and boundary are distinct baseline rows, so it always fits.  A
        run grows fault by fault while its private rows plus the
        boundary rows first read so far fit.
        """
        cap = self.sim.program.num_rows - 2
        private = _ptr(sizes)
        s, k = 0, which.size
        while s < k:
            # the faults whose private rows alone fit, and the boundary
            # rows each of them reads first
            e = min(k, max(s + 1, int(np.searchsorted(private, private[s] + cap, "right")) - 1))
            rows, owner = _segments(bnd_ptr, bnd_rows, which[s:e])
            order = np.argsort(rows, kind="stable")
            rows = rows[order]
            fresh = np.diff(rows, prepend=-1) != 0
            reader = owner[order][fresh]
            need = private[s + 1 : e + 1] - private[s] + np.cumsum(np.bincount(reader, minlength=e - s))
            over = np.flatnonzero(need[1:] > cap)
            if over.size:
                e = s + 1 + int(over[0])
            yield s, e, rows[fresh][reader < e - s]
            s = e

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        faults: Sequence[StuckAtFault],
        *,
        rs_drop_threshold: Optional[float] = None,
        chunk_words: Optional[int] = None,
        detailed: bool = False,
    ) -> List[FaultBatchStats]:
        """Evaluate many single-fault candidates against the loaded batch.

        Each fault is simulated independently (single-fault semantics).
        With ``rs_drop_threshold`` set, words are split into chunks of
        ``chunk_words`` and a fault is dropped at the end of the first
        chunk after which its running lower bound on
        ``ER * max|deviation|`` exceeds the threshold; its statistics
        then cover only the chunks up to that one.  ``detailed``
        additionally materializes the per-vector ``detected`` array and
        ``deviations`` list (as :class:`DifferentialResult` holds them);
        it is intended for cross-validation tests, not for the hot path.
        """
        if self._base is None:
            raise RuntimeError("call load_batch() before evaluate()")
        w = self._w
        if chunk_words is None:
            chunk_words = w if rs_drop_threshold is None else max(8, -(-w // 8))
        chunk_words = max(1, int(chunk_words))
        # the word index each chunk ends at
        ends = list(range(chunk_words, w, chunk_words)) + [w] if w else []
        faults = list(faults)
        with self.obs.span("batchsim.evaluate"):
            stats: List[FaultBatchStats] = []
            which, roots, branch = self._sites(faults)
            cone_ptr, cone_rows, bnd_ptr, bnd_rows = self._cones(roots, branch)
            cone_sizes = np.diff(cone_ptr)
            if roots.size:
                # a stem fault forces its root row instead of replaying it
                gates = np.where(branch, cone_sizes, cone_sizes - 1)
                self.obs.gauge_max("batchsim.cone_gates_max", int(gates.max()))
            if not ends:  # an empty batch
                stats.extend(
                    FaultBatchStats(
                        f, 0, 0, 0,
                        detected=np.zeros(0, dtype=bool) if detailed else None,
                        deviations=[] if detailed else None,
                    )
                    for f in faults
                )
            else:
                sizes = cone_sizes[which]
                for s, e, boundary in self._blocks(which, sizes, bnd_ptr, bnd_rows):
                    block = faults[s:e]
                    rows, owner = _segments(cone_ptr, cone_rows, which[s:e])
                    slab = self._slab(block, rows, owner, sizes[s:e], boundary)
                    stats.extend(
                        self._measure(block, slab, rows, owner, ends, rs_drop_threshold, detailed)
                    )
        self.obs.incr("batchsim.faults_evaluated", len(stats))
        if stats:
            self.obs.incr("batchsim.words_simulated", sum(st.words_simulated for st in stats))
        skipped = [w - st.words_simulated for st in stats if st.dropped]
        if skipped:
            self.obs.incr("batchsim.faults_dropped", len(skipped))
            self.obs.incr("batchsim.words_skipped", sum(skipped))
        return stats

    def _slab(
        self,
        block: Sequence[StuckAtFault],
        rows: np.ndarray,
        owner: np.ndarray,
        sizes: np.ndarray,
        boundary: np.ndarray,
    ) -> np.ndarray:
        """Code one block of faults into one slab and replay it.

        ``rows`` are the faults' cone rows, fault by fault (``owner``
        names the fault of each, ``sizes`` counts them per fault), and
        become the slab's private rows in that order, after the two
        constant rows; ``boundary`` holds, ascending, every baseline row
        the cones read (a branch fault's stuck pin counts as reading its
        stem), which follow the private rows.
        """
        w, table, num_rows = self._w, self._table, self.sim.program.num_rows
        k, private = len(block), rows.size
        start = np.cumsum(sizes) - sizes
        stem = np.fromiter((f.line.is_stem for f in block), dtype=bool, count=k)
        stuck = np.fromiter((f.value for f in block), dtype=np.intp, count=k)

        # Code every replayed gate -- each private row but a stem fault's
        # forced one -- and its inputs: one inside its own fault's cone
        # reads the fault's private row, any other its baseline row.
        replayed = np.ones(private, dtype=bool)
        replayed[start[stem]] = False
        gate = np.flatnonzero(replayed)
        gate_rows = rows[gate]
        fanin = table.fanin[gate_rows]
        ins, reader = _segments(table.in_ptr, table.in_rows, gate_rows)
        first_in = np.cumsum(fanin) - fanin
        cone_key = owner * num_rows + rows  # ascending
        query = owner[gate][reader] * num_rows + ins
        at = np.minimum(np.searchsorted(cone_key, query), private - 1)
        inside = cone_key[at] == query
        src = np.where(inside, 2 + at, ins)
        outside = ~inside & (ins > ROW_ONE)
        src[outside] = 2 + private + np.searchsorted(boundary, ins[outside])
        # a branch fault's stuck pin reads the matching constant row
        branch = np.flatnonzero(~stem)
        if branch.size:
            pins = np.fromiter((block[i].line.pin for i in branch.tolist()), np.intp, branch.size)
            entry = np.searchsorted(gate, start[branch])
            src[first_in[entry] + pins] = np.where(stuck[branch] == 1, ROW_ONE, ROW_ZERO)

        slab = np.empty((2 + private + boundary.size, w), dtype=np.uint64)
        slab[ROW_ZERO] = 0
        slab[ROW_ONE] = ALL_ONES
        slab[2 + private :] = self._base[boundary]
        forced = 2 + start[stem]
        slab[forced[stuck[stem] == 0]] = 0
        slab[forced[stuck[stem] == 1]] = ALL_ONES
        self.obs.incr("batchsim.slabs")
        self.obs.gauge_max("batchsim.slab_rows_max", slab.shape[0])

        # One vectorized pass per (level, core) group across all faults,
        # each group's inputs in one (arity x gates) matrix padded with
        # the core's identity row to the group's own widest gate.
        if gate.size:
            order = np.argsort(table.key[gate_rows], kind="stable")
            keys = table.key[gate_rows[order]]
            heads = np.flatnonzero(np.diff(keys, prepend=-1))
            count = np.diff(np.r_[heads, keys.size])
            arity = np.maximum.reduceat(fanin[order], heads)
            cores = keys[heads] % 3
            cells = arity * count
            base = np.cumsum(cells) - cells
            matrix = np.repeat(np.asarray(CORE_PAD, dtype=np.intp)[cores], cells)
            place = np.empty_like(order)  # of each gate in group order
            place[order] = np.arange(order.size)
            place = place[reader]
            group = np.repeat(np.arange(heads.size), count)[place]
            pin = np.arange(ins.size) - first_in[reader]
            matrix[base[group] + pin * count[group] + place - heads[group]] = src
            inverted = table.invert[gate_rows[order]]
            any_inv = np.logical_or.reduceat(inverted, heads)
            inv_words = np.where(inverted, ALL_ONES, np.uint64(0))[:, None]
            outs = 2 + gate[order]
            everything = slice(None)
            for h, c, a, b, core, has_inv in zip(
                heads.tolist(), count.tolist(), arity.tolist(), base.tolist(),
                cores.tolist(), any_inv.tolist(),
            ):
                eval_core_group(
                    core, outs[h : h + c], matrix[b : b + a * c].reshape(a, c),
                    inv_words[h : h + c] if has_inv else None, slab, everything,
                )
        return slab

    def _measure(
        self,
        block: Sequence[StuckAtFault],
        slab: np.ndarray,
        rows: np.ndarray,
        owner: np.ndarray,
        ends: List[int],
        threshold: Optional[float],
        detailed: bool,
    ) -> List[FaultBatchStats]:
        """Detection, deviation and the drop rule for one replayed slab
        (laid out as :meth:`_slab` says); stats in block order."""
        n, w = self._n, self._w
        k = len(block)

        # Detection: cone outputs against the reference, every other
        # observe output as the baseline already differs.
        detect = np.zeros((k, w), dtype=np.uint64)
        obs_pos, at = _segments(self._obs_ptr, self._obs_pos, rows)
        if at.size:
            who = owner[at]
            heads = np.flatnonzero(np.diff(who, prepend=-1))
            diff = slab[2 + at] ^ self._ref_out[obs_pos]
            detect[who[heads]] = np.bitwise_or.reduceat(diff, heads, axis=0)
        if self._dirty:
            dirty = np.zeros(len(self._obs_rows), dtype=bool)
            dirty[list(self._dirty)] = True
            sel = dirty[obs_pos]
            reached: List[set] = [set() for _ in range(k)]
            for i, pos in zip(owner[at[sel]].tolist(), obs_pos[sel].tolist()):
                reached[i].add(pos)
            keys_of: Dict[FrozenSet[int], int] = {}
            which = [keys_of.setdefault(frozenset(r), len(keys_of)) for r in reached]
            detect |= np.stack([self._residual(key) for key in keys_of])[which]
        detect &= self._tail
        counts = np.add.reduceat(
            word_popcounts(detect), [0] + ends[:-1], axis=1, dtype=np.int64
        )

        val_pos, at = _segments(self._val_ptr, self._val_pos, rows)
        maxes, taken, devs = self._deviation_chunks(
            k, owner[at], 2 + at, rows[at], val_pos, slab, ends, counts, threshold, detailed
        )

        # Each fault's totals over the chunks the drop rule let it count.
        out: List[FaultBatchStats] = []
        summaries = zip(taken.tolist(), counts.tolist(), maxes.tolist())
        for i, (fault, (c, count_i, max_i)) in enumerate(zip(block, summaries)):
            hi = ends[c - 1]
            r_end = min(n, 64 * hi)
            out.append(
                FaultBatchStats(
                    fault=fault,
                    num_vectors=n,
                    detected_count=sum(count_i[:c]),
                    max_abs_deviation=int(max(max_i[:c])),
                    dropped=hi < w,
                    words_simulated=hi,
                    detected=unpack_vectors(detect[i, :hi], r_end)[:, 0] if detailed else None,
                    deviations=[int(v) for v in devs[i][:r_end]] if detailed else None,
                )
            )
        return out

    def _residual(self, cone_dirty: FrozenSet[int]) -> np.ndarray:
        """Detection words of the already-differing observe outputs a
        cone cannot change: those outside ``cone_dirty``."""
        words = self._residuals.get(cone_dirty)
        if words is None:
            keep = sorted(self._dirty - cone_dirty)
            if keep:
                words = np.bitwise_or.reduce(self._base_diff[keep], axis=0)
            else:
                words = np.zeros(self._w, dtype=np.uint64)
            self._residuals[cone_dirty] = words
        return words

    def _deviation_chunks(
        self,
        k: int,
        owner: np.ndarray,
        new_rows: np.ndarray,
        host_rows: np.ndarray,
        cols: np.ndarray,
        slab: np.ndarray,
        ends: List[int],
        counts: np.ndarray,
        threshold: Optional[float],
        detailed: bool,
    ) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray]]:
        """Per-chunk max of every fault's absolute deviation, and how
        many chunks each fault counts.

        Each cone value output is one entry, fault by fault: ``owner``
        names its fault (of ``k``), ``new_rows`` its slab row,
        ``host_rows`` its baseline row and ``cols`` its value position.
        A fault's per-vector deviation is the baseline's deviation
        against the reference, corrected on its cone value-outputs only:
        ``(new - ref) - (host - ref)`` is ``new - host``, read from the
        slab's private rows and the baseline rows.  Chunks are taken in
        order; after each one the drop rule runs for every fault on its
        ``counts`` and maxima so far, and a fault it fires for counts no
        further chunk and is no longer corrected.  With ``detailed``,
        the signed per-vector deviations are returned as well.
        """
        n, base = self._n, self._base_dev
        bounds = [(64 * lo, min(n, 64 * hi)) for lo, hi in zip([0] + ends[:-1], ends)]
        if self._base_dev_zero:
            base_max = np.zeros(len(ends), dtype=base.dtype)
        else:
            base_max = np.array(
                [np.abs(base[r0:r1]).max() for r0, r1 in bounds], dtype=base.dtype
            )
        maxes = np.empty((k, len(ends)), dtype=base.dtype)
        maxes[:] = base_max
        devs: List = [base] * k if detailed else []

        heads = np.diff(owner, prepend=-1) != 0
        parts_of: Dict[int, List[np.ndarray]] = (
            {i: [] for i in owner[heads].tolist()} if detailed else {}
        )
        # the drop rule's state: live faults, running detections and max
        live = np.ones(k, dtype=bool)
        taken = np.full(k, len(ends), dtype=np.intp)
        detections = np.cumsum(counts, axis=1)
        run_max = np.zeros(k, dtype=base.dtype)
        for c, (r0, r1) in enumerate(bounds):
            at = np.flatnonzero(live[owner])
            # pieces of whole faults, about DEVIATION_CELLS cells each
            seg = np.flatnonzero(heads[at])
            cuts = seg[np.flatnonzero(np.diff(seg // max(1, DEVIATION_CELLS // (r1 - r0)))) + 1]
            pieces = zip([0, *cuts.tolist()], [*cuts.tolist(), at.size]) if at.size else ()
            for lo, hi in pieces:
                rows = at[lo:hi]
                starts = seg[(seg >= lo) & (seg < hi)] - lo
                who = owner[rows[starts]]
                dev = self._piece_deviation(
                    slab, new_rows[rows], host_rows[rows], cols[rows], starts, r0, r1
                )
                for i, row in zip(who.tolist(), dev if detailed else ()):
                    parts_of[i].append(row.copy())
                np.abs(dev, out=dev)
                maxes[who, c] = dev.max(axis=1)
            if threshold is None:
                continue
            run_max = np.maximum(run_max, maxes[:, c])
            fired = live & ((detections[:, c] / n) * run_max > threshold)
            taken[fired] = c + 1
            live &= ~fired
            if not live.any():
                break
        for i, parts in parts_of.items():
            devs[i] = np.concatenate(parts)
        return maxes, taken, devs

    def _piece_deviation(
        self,
        slab: np.ndarray,
        new_rows: np.ndarray,
        host_rows: np.ndarray,
        cols: np.ndarray,
        starts: np.ndarray,
        r0: int,
        r1: int,
    ) -> np.ndarray:
        """Signed deviations, vectors ``r0:r1``, of the faults whose cone
        value outputs are the slab rows ``new_rows`` (baseline rows
        ``host_rows``, value positions ``cols``) in segments at
        ``starts``, unpacking at most :data:`DEVIATION_CELLS` cells at a
        time."""
        step = max(64, DEVIATION_CELLS // cols.size // 64 * 64)
        pieces = []
        for s0 in range(r0, r1, step):
            s1 = min(r1, s0 + step)
            words = slice(s0 // 64, -(-s1 // 64))
            new = unpack_vectors(slab[new_rows, words], s1 - s0)
            host = unpack_vectors(self._base[host_rows, words], s1 - s0)
            pieces.append(
                self.deviation.segmented(new.view(np.int8) - host.view(np.int8), cols, starts)
            )
        dev = pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=1)
        dev += self._base_dev[r0:r1]
        return dev


def _ptr(counts: np.ndarray) -> np.ndarray:
    """CSR offsets of consecutive segments of the given lengths."""
    return np.concatenate(([0], np.cumsum(counts))).astype(np.intp)


def _segments(ptr: np.ndarray, data: np.ndarray, which: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``data[ptr[i]:ptr[i + 1]]`` for each ``i`` of ``which``,
    concatenated, and the index into ``which`` of every element."""
    lens = ptr[which + 1] - ptr[which]
    owner = np.repeat(np.arange(which.size), lens)
    firsts = np.cumsum(lens) - lens
    return data[np.arange(owner.size) + (ptr[which] - firsts)[owner]], owner


def _positions_by_row(rows: np.ndarray, num_rows: int) -> Tuple[np.ndarray, np.ndarray]:
    """The positions ``p`` with ``rows[p] == r``, ascending, as the CSR
    ``pos[ptr[r]:ptr[r + 1]]``; returns ``(ptr, pos)``."""
    return _ptr(np.bincount(rows, minlength=num_rows)), np.argsort(rows, kind="stable")
