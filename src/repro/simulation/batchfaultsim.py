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
  line's transitive fanout, from
  :func:`repro.circuit.structure.fanout_cone_gates`), reading undisturbed
  signals from the baseline;
* the faults of one call replay **together**, along a fault axis: each
  fault gets a private copy of its cone rows in one value matrix (the
  *slab*) that also holds the baseline rows the cones read, and every
  fault's gates that share a topological level and a bitwise core of
  the compiled program evaluate in one vectorized numpy call;
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
  fault (detection count, deviation max and sum); the drop rule runs
  once per chunk, for all faults, on their summaries so far, and each
  fault's statistics and ``words_simulated`` cover the chunks up to its
  drop -- those of a fault simulated chunk by chunk and stopped there.

Memory stays within a few baseline-sized arrays.  A slab holds at most
as many rows as the baseline (the faults are taken in blocks that fit,
so a block never has more faults than the baseline has rows).
Detection adds the gathered cone observe rows (no more than the slab's
private rows) and up to three (faults in block x words) arrays: the
detection words, the residual gather and the per-word popcounts.  The
deviation step unpacks at most :data:`DEVIATION_CELLS` (value-output
row x vector) cells at a time.

The reference machine defaults to the simulated circuit's own baseline
(classical single-fault differential simulation).  The greedy loop
instead passes the *original* circuit's output words, so the per-fault
stats measure the cumulative deviation of (current simplified netlist +
candidate fault) against the original -- exactly what
:meth:`repro.metrics.estimate.MetricsEstimator.simulate` measures, at a
fraction of the cost.

Results are bit-identical to the full simulator (cross-validated in
``tests/simulation/test_batchfaultsim.py``).  Multi-fault *sets* are
deliberately out of scope: ER does not compose across interacting
faults (Section III.C), so overlay/commit decisions keep using the full
:class:`FaultSimulator` / :class:`MetricsEstimator` path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit import Circuit
from ..circuit.gates import ALL_ONES
from ..circuit.netlist import CircuitError
from ..circuit.structure import fanout_cone_gates
from ..faults.model import Line, StuckAtFault
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

# Columns of a cone's gate code (see :class:`_Cone`).
_KEY, _OUT, _INV, _ARITY, _INS = range(5)


@dataclass
class FaultBatchStats:
    """Per-fault outcome of one batch evaluation.

    Exposes the same ranking statistics as
    :class:`~repro.simulation.faultsim.DifferentialResult`
    (``error_rate`` / ``max_abs_deviation`` / ``mean_abs_deviation``).
    When the fault was dropped early, the statistics are lower bounds
    over the ``words_simulated`` first words -- already sufficient to
    disqualify the fault against the drop threshold.
    """

    fault: StuckAtFault
    num_vectors: int
    detected_count: int
    max_abs_deviation: int
    sum_abs_deviation: int
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

    def er_confidence(
        self, z: float = 1.96, exact: bool = False
    ) -> Tuple[float, float]:
        """Wilson-score confidence interval for :attr:`error_rate`.

        For a dropped fault the detection count covers only the
        ``words_simulated`` prefix, so the interval (like the rate) is
        a lower-bound view -- already enough to disqualify the fault.
        ``exact=True`` marks an exhaustive batch: zero-width interval.
        """
        from ..obs.quality import wilson_interval

        if self.num_vectors == 0:
            return (0.0, 1.0)
        if exact:
            return (self.error_rate, self.error_rate)
        return wilson_interval(self.detected_count, self.num_vectors, z=z)

    @property
    def mean_abs_deviation(self) -> float:
        """Average absolute weighted deviation across the batch."""
        if self.num_vectors == 0:
            return 0.0
        return self.sum_abs_deviation / self.num_vectors

    @property
    def rs(self) -> float:
        """Simulated RS estimate: ER times observed max deviation."""
        return self.error_rate * self.max_abs_deviation




class _Cone:
    """One fault site's fanout cone, coded for replay in a slab.

    ``rows`` are the cone's baseline rows in local order: the forced
    signal (stem fault) or the faulted gate (branch fault) first, then
    the cone gates in topological order.  ``code`` is flat, one record
    per gate to replay: its ``(level, core)`` group key, local output
    row, inversion flag and arity, then its inputs padded to the
    circuit's widest gate with the core's identity row.  An input inside
    the cone is coded as its local row (>= 0), any other baseline row
    ``r`` as ``-1 - r``; ``boundary`` holds those other rows (constants
    aside).  ``obs_*``/``val_*`` are the observe/value-output positions
    the cone drives and the local rows driving them (``val_rows`` are
    their baseline rows); ``dirty`` is the set of observe positions that
    already differ from the reference and that the cone can change.
    """

    __slots__ = (
        "rows",
        "code",
        "gates",
        "boundary",
        "obs_pos",
        "obs_local",
        "val_pos",
        "val_local",
        "val_rows",
        "dirty",
    )


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
        self._obs_of_row: Dict[int, List[int]] = {}
        for pos, row in enumerate(self._obs_rows.tolist()):
            self._obs_of_row.setdefault(row, []).append(pos)
        self._val_of_row: Dict[int, List[int]] = {}
        for pos, row in enumerate(self._val_rows.tolist()):
            self._val_of_row.setdefault(row, []).append(pos)
        # The program's lowered gates (see CompiledProgram.entry_of); its
        # rows number the gates in topological order, so ``row_of`` also
        # orders cone gates.
        program = self.sim.program
        self._entry_of = program.entry_of
        self._row_of = program.row_of
        self._arity = max(
            (grp[2].shape[0] for groups in program.levels for grp in groups), default=1
        )

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
    def _cone(self, line: Line) -> _Cone:
        """Code the cone a fault on ``line`` disturbs (see :class:`_Cone`)."""
        if not self.circuit.has_signal(line.signal):
            raise CircuitError(f"fault site {line} not in circuit")
        if line.is_stem:
            gates = fanout_cone_gates(self.circuit, line.signal, self._row_of)
            rows = [self._row_of[line.signal]]
        else:
            gate = self.circuit.gates.get(line.gate)
            if gate is None:
                raise CircuitError(f"fault site {line}: gate {line.gate!r} not in circuit")
            if line.pin >= len(gate.inputs) or gate.inputs[line.pin] != line.signal:
                raise CircuitError(f"fault site {line}: pin does not match netlist")
            gates = (line.gate,) + fanout_cone_gates(self.circuit, line.gate, self._row_of)
            rows = []
        entries = [self._entry_of[g] for g in gates]
        rows.extend(e[2] for e in entries)
        local = {row: i for i, row in enumerate(rows)}
        code: List[int] = []
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
        obs = sorted((p, i) for i, r in enumerate(rows) for p in self._obs_of_row.get(r, ()))
        val = sorted((p, i) for i, r in enumerate(rows) for p in self._val_of_row.get(r, ()))
        cone.obs_pos = [p for p, _i in obs]
        cone.obs_local = [i for _p, i in obs]
        cone.val_pos = [p for p, _i in val]
        cone.val_local = [i for _p, i in val]
        cone.val_rows = [rows[i] for _p, i in val]
        cone.dirty = frozenset(p for p, _i in obs if p in self._dirty)
        self.obs.gauge_max("batchsim.cone_gates_max", len(entries))
        return cone

    def _blocks(
        self, faults: Sequence[StuckAtFault]
    ) -> Iterator[Tuple[List[Tuple[StuckAtFault, _Cone]], set]]:
        """Consecutive runs of faults, with their cones, whose slab fits
        the baseline's rows, each with the union of its cones' boundary
        rows.

        A slab holds the two constant rows, every fault's private cone
        rows and the union of the rows the cones read; one fault's cone
        and boundary are distinct baseline rows, so it always fits.
        Cones are built as the runs fill and shared within a run (both
        polarities of a line, repeated faults).
        """
        cap = self.sim.program.num_rows - 2
        block: List[Tuple[StuckAtFault, _Cone]] = []
        cones: Dict[Tuple, _Cone] = {}
        private = 0
        boundary: set = set()
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
        with self.obs.span("batchsim.evaluate"):
            stats: List[FaultBatchStats] = []
            for block, boundary in self._blocks(faults):
                if ends:
                    stats.extend(
                        self._replay(block, boundary, ends, rs_drop_threshold, detailed)
                    )
                else:  # an empty batch
                    stats.extend(
                        FaultBatchStats(
                            f, 0, 0, 0, 0,
                            detected=np.zeros(0, dtype=bool) if detailed else None,
                            deviations=[] if detailed else None,
                        )
                        for f, _cone in block
                    )
        self.obs.incr("batchsim.faults_evaluated", len(stats))
        if stats:
            self.obs.incr("batchsim.words_simulated", sum(st.words_simulated for st in stats))
        skipped = [w - st.words_simulated for st in stats if st.dropped]
        if skipped:
            self.obs.incr("batchsim.faults_dropped", len(skipped))
            self.obs.incr("batchsim.words_skipped", sum(skipped))
        return stats

    def _replay(
        self,
        block: List[Tuple[StuckAtFault, _Cone]],
        boundary_rows: set,
        ends: List[int],
        threshold: Optional[float],
        detailed: bool,
    ) -> List[FaultBatchStats]:
        """Replay one block of faults in one slab; stats in block order.

        ``boundary_rows`` holds every baseline row the cones read (a
        superset when a branch fault's stuck pin no longer reads its
        stem).
        """
        n, w = self._n, self._w
        cones = [cone for _f, cone in block]
        sizes = [len(cone.rows) for cone in cones]
        offs = [2 + o for o in accumulate([0] + sizes[:-1])]
        private = sum(sizes)

        # Code every fault's cone into slab rows: private rows follow the
        # two constant rows, the baseline rows read follow the private ones.
        code = np.fromiter(
            chain.from_iterable(cone.code for cone in cones), dtype=np.intp
        ).reshape(-1, _INS + self._arity)
        gate_counts = [cone.gates for cone in cones]
        gate_off = np.repeat(np.asarray(offs, dtype=np.intp), gate_counts)
        forced: Tuple[List[int], List[int]] = ([], [])
        for (fault, _cone), off, first in zip(block, offs, accumulate([0] + gate_counts)):
            if fault.line.is_stem:
                forced[fault.value].append(off)
            else:  # the stuck pin reads the matching constant row
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

        # One vectorized pass per (level, core) group across all faults.
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
            everything = slice(None)
            for s, e, a, has_inv, key in zip(
                starts.tolist(), stops.tolist(), arity.tolist(),
                any_inv.tolist(), keys[starts].tolist(),
            ):
                eval_core_group(
                    key % 3, outs[s:e], ins_t[:a, s:e],
                    inv_words[s:e] if has_inv else None, slab, everything,
                )

        # Detection: cone outputs against the reference, every other
        # observe output as the baseline already differs.
        detect = np.zeros((len(block), w), dtype=np.uint64)
        owners = [i for i, cone in enumerate(cones) if cone.obs_pos]
        if owners:
            obs_rows = np.fromiter(
                (offs[i] + j for i in owners for j in cones[i].obs_local), dtype=np.intp
            )
            obs_pos = np.fromiter((p for i in owners for p in cones[i].obs_pos), dtype=np.intp)
            seg = list(accumulate([0] + [len(cones[i].obs_pos) for i in owners[:-1]]))
            diff = slab[obs_rows] ^ self._ref_out[obs_pos]
            detect[owners] = np.bitwise_or.reduceat(diff, seg, axis=0)
        if self._dirty:
            keys_of: Dict[FrozenSet[int], int] = {}
            which = [keys_of.setdefault(cone.dirty, len(keys_of)) for cone in cones]
            detect |= np.stack([self._residual(k) for k in keys_of])[which]
        detect &= self._tail
        counts = np.add.reduceat(
            word_popcounts(detect), [0] + ends[:-1], axis=1, dtype=np.int64
        )

        maxes, sums, taken, devs = self._deviation_chunks(
            cones, offs, slab, ends, counts, threshold, detailed
        )

        # Each fault's totals over the chunks the drop rule let it count.
        out: List[FaultBatchStats] = []
        summaries = zip(taken.tolist(), counts.tolist(), maxes.tolist(), sums.tolist())
        for i, ((fault, _cone), (c, count_i, max_i, sum_i)) in enumerate(zip(block, summaries)):
            hi = ends[c - 1]
            r_end = min(n, 64 * hi)
            out.append(
                FaultBatchStats(
                    fault=fault,
                    num_vectors=n,
                    detected_count=sum(count_i[:c]),
                    max_abs_deviation=int(max(max_i[:c])),
                    sum_abs_deviation=sum(int(v) for v in sum_i[:c]),
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
        cones: List[_Cone],
        offs: List[int],
        slab: np.ndarray,
        ends: List[int],
        counts: np.ndarray,
        threshold: Optional[float],
        detailed: bool,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[np.ndarray]]:
        """Per-chunk max and sum of every fault's absolute deviation, and
        how many chunks each fault counts.

        A fault's per-vector deviation is the baseline's deviation
        against the reference, corrected on its cone value-outputs only:
        ``(new - ref) - (host - ref)`` is ``new - host``, read from the
        slab's private rows and the baseline rows.  Sums run along one
        contiguous per-fault row per chunk, as a fault replayed alone
        sums them.  Chunks are taken in order; after each one the drop
        rule runs for every fault on its ``counts`` and maxima so far,
        and a fault it fires for counts no further chunk and is no
        longer corrected.  With ``detailed``, the signed per-vector
        deviations are returned as well.
        """
        n, base = self._n, self._base_dev
        bounds = [(64 * lo, min(n, 64 * hi)) for lo, hi in zip([0] + ends[:-1], ends)]
        if self._base_dev_zero:
            base_max = base_sum = np.zeros(len(ends), dtype=base.dtype)
        else:
            parts = [np.abs(base[r0:r1]) for r0, r1 in bounds]
            base_max = np.array([p.max() for p in parts], dtype=base.dtype)
            base_sum = np.array([p.sum() for p in parts], dtype=base.dtype)
        k = len(cones)
        maxes = np.empty((k, len(ends)), dtype=base.dtype)
        sums = np.empty((k, len(ends)), dtype=base.dtype)
        maxes[:] = base_max
        sums[:] = base_sum
        devs: List = [base] * k if detailed else []

        valued = np.asarray([i for i, cone in enumerate(cones) if cone.val_pos], dtype=np.intp)
        # one row per (valued fault, cone value output), fault by fault
        owner = np.repeat(valued, [len(cones[i].val_pos) for i in valued])
        new_rows = np.fromiter(
            (offs[i] + j for i in valued.tolist() for j in cones[i].val_local), dtype=np.intp
        )
        host_rows = np.fromiter((r for i in valued.tolist() for r in cones[i].val_rows), np.intp)
        cols = np.fromiter((p for i in valued.tolist() for p in cones[i].val_pos), np.intp)
        heads = np.diff(owner, prepend=-1) != 0
        parts_of: Dict[int, List[np.ndarray]] = {int(i): [] for i in valued} if detailed else {}
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
                sums[who, c] = dev.sum(axis=1)
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
        return maxes, sums, taken, devs

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
