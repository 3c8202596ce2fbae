"""Fault-parallel batch fault simulation with cone-restricted
incremental propagation (PPSFP-style).

The full :class:`~repro.simulation.faultsim.FaultSimulator` walks the
entire gate schedule once per fault set, so the greedy loop's candidate
ranking -- many *single* faults, one shared vector batch -- costs
O(candidates x gates x words) even though each single fault only
perturbs its fanout cone.  :class:`BatchFaultSimulator` removes that
waste:

* the fault-free baseline is simulated **once per vector batch**;
* each candidate fault replays only the precomputed *cone schedule* of
  its line (the gates in the line's transitive fanout, in topological
  order, from :func:`repro.circuit.structure.fanout_cone_gates`),
  reading undisturbed signals straight from the baseline; the cone is
  lowered into level groups -- same-level gates sharing a bitwise core
  of the compiled program evaluate in a single vectorized numpy call;
* only the primary outputs inside the cone are compared against the
  reference machine -- every other output is known to still match the
  baseline -- and only cone value-outputs enter the weighted-deviation
  update;
* a fault can be **dropped** early: with ``rs_drop_threshold`` set, the
  vector words are processed in chunks, and once the running
  detection-count/deviation lower bounds already prove
  ``ER * ES > threshold`` the remaining words are skipped (the fault is
  disqualified for ranking purposes no matter how the rest of the batch
  turns out).

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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

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
    eval_core_row,
    lower_entry,
)
from .deviation import WeightedDeviation
from .logicsim import SimResult
from .vectors import pack_vectors, popcount_words, tail_mask, unpack_vectors

__all__ = ["FaultBatchStats", "BatchFaultSimulator"]


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


class _ConePlan:
    """Precomputed replay schedule for one fault site.

    ``first`` is the faulted gate itself for branch faults, lowered to
    ``(core, out_row, input_rows, invert)`` (its pin override makes it
    the one gate evaluated on its own); ``groups`` is the rest of the
    cone, level-grouped: gates on the same topological level never feed
    each other, so all gates of a level that share a core evaluate in a
    single vectorized numpy call.
    """

    __slots__ = (
        "first",
        "groups",
        "rows",
        "obs",
        "obs_set",
        "obs_pos",
        "obs_rows",
        "val_idx",
        "val_rows",
    )

    def __init__(
        self,
        first: Optional[Tuple],
        groups: Tuple[Tuple, ...],
        rows: np.ndarray,
        obs: Tuple[Tuple[int, int], ...],
        val_idx: np.ndarray,
        val_rows: np.ndarray,
    ) -> None:
        self.first = first
        self.groups = groups
        self.rows = rows
        self.obs = obs
        self.obs_set = frozenset(p for p, _r in obs)
        self.obs_pos = np.asarray([p for p, _r in obs], dtype=np.intp)
        self.obs_rows = np.asarray([r for _p, r in obs], dtype=np.intp)
        self.val_idx = val_idx
        self.val_rows = val_rows


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

    The baseline runs through the whole-netlist compiled program, and
    cones replay as level-sliced core groups -- same-level gates of
    *any* type merge into at most three padded bitwise passes on the
    shared value matrix, whose constant rows also serve the stuck pin
    of a branch fault.
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
        self._obs_rows = [self.sim.index_of(o) for o in self.observe_outputs]
        self._val_rows = np.asarray(
            [self.sim.index_of(o) for o in self.value_outputs], dtype=np.intp
        )
        # lowered schedule entries keyed by the driven signal (the
        # compiled schedule is in topological_order(), one entry per gate)
        order = circuit.topological_order()
        self._entry_of: Dict[str, Tuple[int, int, Tuple[int, ...], bool]] = {}
        for name, (gtype, out_row, in_rows) in zip(order, self.sim._schedule):
            core, invert, ins = lower_entry(gtype, in_rows)
            self._entry_of[name] = (core, out_row, tuple(ins), invert)
        self._topo_pos = {n: i for i, n in enumerate(order)}
        self._plan_cache: Dict[Tuple[str, str], _ConePlan] = {}

        self.deviation = WeightedDeviation(self.weights)

        # batch state (populated by load_batch)
        self._base: Optional[np.ndarray] = None
        self._work: Optional[np.ndarray] = None
        self._good: Optional[SimResult] = None
        self._n = 0
        self._w = 0
        self._tail: Optional[np.ndarray] = None
        self._ref_out: Optional[np.ndarray] = None
        self._base_diff: Optional[np.ndarray] = None
        self._dirty: Tuple[int, ...] = ()
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
        self._good = good
        self._base = good._words
        self._work = self._base.copy()
        self._n = int(num_vectors)
        self._w = self._base.shape[1]
        self._tail = tail_mask(self._n)

        host_out = self._base[np.asarray(self._obs_rows, dtype=np.intp)]
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
        self._dirty = tuple(
            int(p) for p in np.nonzero(self._base_diff.any(axis=1))[0]
        )

        m = len(self.value_outputs)
        if m:
            host_bits = unpack_vectors(self._base[self._val_rows], self._n).astype(
                np.int8
            )
        else:
            host_bits = np.zeros((self._n, 0), dtype=np.int8)
        if reference_value_bits is None:
            ref_bits = host_bits
        else:
            ref_bits = np.asarray(reference_value_bits).astype(np.int8)
            if ref_bits.shape != host_bits.shape:
                raise ValueError("reference_value_bits shape mismatch")
        self._base_dev = self.deviation.signed(host_bits - ref_bits)
        self._base_dev_zero = not self._base_dev.any()
        return good

    # ------------------------------------------------------------------
    # cone plans
    # ------------------------------------------------------------------
    def _plan_for_line(self, line: Line) -> _ConePlan:
        key = ("stem", line.signal) if line.is_stem else ("branch", line.gate)
        plan = self._plan_cache.get(key)
        if plan is not None:
            self.obs.incr("batchsim.plan_cache_hits")
            return plan
        self.obs.incr("batchsim.plan_cache_misses")
        if line.is_stem:
            gates = fanout_cone_gates(self.circuit, line.signal, self._topo_pos)
            rows = [self.sim.index_of(line.signal)]
            first = None
            grouped = gates
        else:
            gates = (line.gate,) + fanout_cone_gates(
                self.circuit, line.gate, self._topo_pos
            )
            rows = []
            first = self._entry_of[line.gate]
            grouped = gates[1:]
        rows.extend(self.sim.index_of(g) for g in gates)
        rowset = set(rows)
        obs = tuple(
            (pos, row) for pos, row in enumerate(self._obs_rows) if row in rowset
        )
        val_idx = np.asarray(
            [j for j, row in enumerate(self._val_rows) if int(row) in rowset],
            dtype=np.intp,
        )
        val_rows = self._val_rows[val_idx]
        plan = _ConePlan(
            first=first,
            groups=self._group_entries(grouped),
            rows=np.asarray(rows, dtype=np.intp),
            obs=obs,
            val_idx=val_idx,
            val_rows=val_rows,
        )
        self._plan_cache[key] = plan
        self.obs.incr("batchsim.cone_gates_compiled", len(gates))
        self.obs.gauge_max("batchsim.cone_gates_max", len(gates))
        return plan

    def _group_entries(self, gates: Sequence[str]) -> Tuple[Tuple, ...]:
        """Bucket cone gates into vectorized replay groups.

        Gates bucket by ``(level, core)``: all same-level gates lowering
        to the same bitwise core merge into one group padded to its
        widest fan-in with the core's identity row, executed by
        :func:`repro.simulation.compiled.eval_core_group`.  A singleton
        bucket stays a scalar ``(core, out_row, input_rows, invert)``
        entry for :func:`repro.simulation.compiled.eval_core_row`.
        """
        level_of_row = self.sim.program.level_of_row
        buckets: Dict[Tuple[int, int], List[Tuple]] = {}
        for g in gates:
            entry = self._entry_of[g]
            buckets.setdefault((level_of_row[entry[1]], entry[0]), []).append(entry)
        groups: List[Tuple] = []
        for key in sorted(buckets):
            ents = buckets[key]
            if len(ents) == 1:
                groups.append(ents[0])
                continue
            core = key[1]
            arity = max(len(ins) for _c, _o, ins, _v in ents)
            pad = CORE_PAD[core]
            out_rows = np.asarray([o for _c, o, _ins, _v in ents], dtype=np.intp)
            in_rows = np.empty((arity, len(ents)), dtype=np.intp)
            for col, (_c, _o, ins, _v) in enumerate(ents):
                for j in range(arity):
                    in_rows[j, col] = ins[j] if j < len(ins) else pad
            if any(v for _c, _o, _ins, v in ents):
                inv = np.asarray(
                    [[ALL_ONES if v else 0] for _c, _o, _ins, v in ents],
                    dtype=np.uint64,
                )
            else:
                inv = None
            groups.append((core, out_rows, in_rows, inv))
        return tuple(groups)

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
        With ``rs_drop_threshold`` set, words are processed in chunks
        and a fault is dropped as soon as its running lower bound on
        ``ER * max|deviation|`` exceeds the threshold.  ``detailed``
        additionally materializes the per-vector ``detected`` array and
        ``deviations`` list (as :class:`DifferentialResult` holds them);
        it is intended for cross-validation tests, not for the hot path.
        """
        if self._base is None:
            raise RuntimeError("call load_batch() before evaluate()")
        if chunk_words is None:
            if rs_drop_threshold is None:
                chunk_words = self._w
            else:
                chunk_words = max(8, -(-self._w // 8))
        chunk_words = max(1, int(chunk_words))
        with self.obs.span("batchsim.evaluate"):
            stats = [
                self._evaluate_one(f, rs_drop_threshold, chunk_words, detailed)
                for f in faults
            ]
        self.obs.incr("batchsim.faults_evaluated", len(stats))
        return stats

    def _evaluate_one(
        self,
        fault: StuckAtFault,
        rs_drop_threshold: Optional[float],
        chunk_words: int,
        detailed: bool,
    ) -> FaultBatchStats:
        line = fault.line
        if not self.circuit.has_signal(line.signal):
            raise CircuitError(f"fault site {line} not in circuit")
        forced_row: Optional[int] = None
        if line.is_stem:
            forced_row = self.sim.index_of(line.signal)
        else:
            gate = self.circuit.gates.get(line.gate)
            if gate is None:
                raise CircuitError(f"fault {fault}: gate {line.gate!r} not in circuit")
            if line.pin >= len(gate.inputs) or gate.inputs[line.pin] != line.signal:
                raise CircuitError(f"fault {fault}: pin does not match netlist")
        plan = self._plan_for_line(line)
        word = ALL_ONES if fault.value else np.uint64(0)
        first = plan.first
        if first is not None:
            # the stuck pin reads the matching constant row
            core, out_row, ins, invert = first
            ins = list(ins)
            ins[line.pin] = ROW_ONE if fault.value else ROW_ZERO
            first = (core, out_row, tuple(ins), invert)
        other_diff = [p for p in self._dirty if p not in plan.obs_set]

        work, base, tail, ref = self._work, self._base, self._tail, self._ref_out
        n = self._n
        detected_count = 0
        max_dev = 0
        sum_dev = 0
        words_done = 0
        det_chunks: List[np.ndarray] = []
        dev_chunks: List[List[int]] = []

        lo = 0
        while lo < self._w:
            hi = min(self._w, lo + chunk_words)
            sl = slice(lo, hi)
            wlen = hi - lo
            if forced_row is not None:
                work[forced_row, sl] = word
            if first is not None:
                eval_core_row(*first, work, sl)
            for core, out, ins, inv in plan.groups:
                if type(out) is int:
                    eval_core_row(core, out, ins, inv, work, sl)
                else:
                    eval_core_group(core, out, ins, inv, work, sl)

            if plan.obs_pos.size:
                d = ref[plan.obs_pos, sl] ^ work[plan.obs_rows, sl]
                detect: Optional[np.ndarray] = np.bitwise_or.reduce(d, axis=0)
            else:
                detect = None
            for p in other_diff:
                d = self._base_diff[p, sl]
                detect = d.copy() if detect is None else (detect | d)
            if detect is None:
                detect = np.zeros(wlen, dtype=np.uint64)
            else:
                detect &= tail[sl]
            detected_count += popcount_words(detect)

            r0, r1 = lo * 64, min(n, hi * 64)
            chunk_max, chunk_sum, dev_list = self._chunk_deviation(
                plan, sl, r0, r1, detailed
            )
            if chunk_max > max_dev:
                max_dev = chunk_max
            sum_dev += chunk_sum
            if detailed:
                det_chunks.append(unpack_vectors(detect[None, :], r1 - r0)[:, 0])
                dev_chunks.append(dev_list)

            words_done = hi
            lo = hi
            if (
                rs_drop_threshold is not None
                and (detected_count / n) * max_dev > rs_drop_threshold
            ):
                break

        # restore the disturbed rows so the work array equals the
        # baseline again for the next fault
        work[plan.rows] = base[plan.rows]

        self.obs.incr("batchsim.words_simulated", words_done)
        if words_done < self._w:
            self.obs.incr("batchsim.faults_dropped")
            self.obs.incr("batchsim.words_skipped", self._w - words_done)

        return FaultBatchStats(
            fault=fault,
            num_vectors=n,
            detected_count=detected_count,
            max_abs_deviation=max_dev,
            sum_abs_deviation=sum_dev,
            dropped=words_done < self._w,
            words_simulated=words_done,
            detected=np.concatenate(det_chunks) if detailed else None,
            deviations=[d for chunk in dev_chunks for d in chunk] if detailed else None,
        )

    def _chunk_deviation(
        self,
        plan: _ConePlan,
        sl: slice,
        r0: int,
        r1: int,
        detailed: bool,
    ) -> Tuple[int, int, List[int]]:
        """Max/sum of absolute weighted deviations on one word chunk.

        The per-vector deviation is the baseline's deviation against the
        reference, corrected on the cone value-outputs only.  The
        correction ``(new - ref) - (host - ref)`` is ``new - host``, so
        it reads the replayed and the baseline words directly.
        """
        nrows = r1 - r0
        if nrows <= 0:
            return 0, 0, []
        if plan.val_idx.size == 0:
            if self._base_dev_zero:
                return 0, 0, [0] * nrows if detailed else []
            dev = self._base_dev[r0:r1]
        else:
            new_bits = unpack_vectors(self._work[plan.val_rows, sl], nrows)
            host_bits = unpack_vectors(self._base[plan.val_rows, sl], nrows)
            adj = self.deviation.signed(
                new_bits.view(np.int8) - host_bits.view(np.int8), plan.val_idx
            )
            dev = self._base_dev[r0:r1] + adj
        abs_dev = np.abs(dev)
        chunk_max = int(abs_dev.max())
        chunk_sum = int(abs_dev.sum())
        dev_list = [int(v) for v in dev] if detailed else []
        return chunk_max, chunk_sum, dev_list
