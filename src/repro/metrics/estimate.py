"""ER/ES/RS estimation for circuit versions (Section IV.A).

:class:`MetricsEstimator` is bound to an original circuit and a fixed
vector batch (10,000 random vectors by default, exhaustive on request).
It measures any *approximate version* of that circuit -- either the
same netlist with stuck-at faults injected, or a different (e.g.
simplified) netlist -- by differential bit-parallel simulation:

* **ER** is the fraction of batch vectors with any output mismatch;
* **observed ES** is the largest weighted deviation in the batch -- a
  lower bound on the true ES.

:meth:`MetricsEstimator.check_rs` decides an RS budget: one ES-ATPG
threshold query at ``T* = floor(threshold / ER) + 1`` settles whether
the true ES keeps ``ER x ES`` within it.

Outputs of an approximate netlist are paired with the original's
positionally, so renamed constant-tied outputs keep contributing.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..atpg.es_atpg import EsAtpg, EsStatus
from ..circuit import Circuit
from ..faults.model import StuckAtFault
from ..obs.core import Instrumentation, get_active
from ..obs.quality import er_interval
from ..simulation.batchfaultsim import BatchFaultSimulator, FaultBatchStats
from ..simulation.compiled import CompiledSimulator
from ..simulation.deviation import WeightedDeviation
from ..simulation.logicsim import SimResult
from ..simulation.vectors import (
    exhaustive_vectors,
    pack_vectors,
    popcount_words,
    random_vectors,
    tail_mask,
)
from .errors import ErrorMetrics, rs_max

__all__ = ["MetricsEstimator"]


class MetricsEstimator:
    """Differential ER/ES/RS measurement against one original circuit."""

    def __init__(
        self,
        circuit: Circuit,
        num_vectors: int = 10_000,
        seed: int = 0,
        value_outputs: Optional[Sequence[str]] = None,
        exhaustive: bool = False,
        atpg_node_limit: int = 20_000,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        circuit.validate()
        self.circuit = circuit
        self.obs = obs if obs is not None else get_active()
        self.exhaustive = exhaustive
        if exhaustive:
            self.vectors = exhaustive_vectors(len(circuit.inputs))
        else:
            rng = np.random.default_rng(seed)
            self.vectors = random_vectors(len(circuit.inputs), num_vectors, rng)
        self.num_vectors = self.vectors.shape[0]
        self.packed = pack_vectors(self.vectors)
        self.atpg_node_limit = atpg_node_limit

        self.value_outputs = (
            tuple(value_outputs) if value_outputs is not None else circuit.value_outputs
        )
        self.weights = circuit.weights_of(self.value_outputs)
        self.deviation = WeightedDeviation(self.weights)
        self.rs_maximum = rs_max(circuit, self.value_outputs)
        # positions of value outputs within the output list (for pairing)
        self._value_pos = [circuit.outputs.index(o) for o in self.value_outputs]

        self._good_sim = CompiledSimulator(circuit, obs=self.obs)
        self._good = self._good_sim.run_packed(self.packed, self.num_vectors)
        self._good_words = [self._good.words_for(o) for o in circuit.outputs]
        self._good_value_bits = self._good.output_bits(self.value_outputs)
        self._good_words_arr = (
            np.stack(self._good_words)
            if self._good_words
            else np.zeros((0, self.packed.shape[1]), dtype=np.uint64)
        )

    # ------------------------------------------------------------------
    def check_rs(
        self,
        rs_threshold: float,
        approx: Optional[Circuit] = None,
        faults: Sequence[StuckAtFault] = (),
        pow2_es: bool = False,
        structural_reference: Optional[Circuit] = None,
    ) -> Tuple[bool, ErrorMetrics]:
        """Decide whether an approximate version satisfies an RS budget.

        After the differential simulation, a *single* ES-ATPG
        threshold query (:meth:`~repro.atpg.es_atpg.EsAtpg.decide`) at
        ``T* = floor(rs_threshold / ER) + 1`` settles the question --
        UNSAT proves ``ES <= T*-1`` hence ``RS <= rs_threshold``, while
        SAT proves ``RS > rs_threshold``.  Aborted queries reject
        conservatively.

        ``pow2_es`` reproduces the paper's conservatism: ES is rounded
        up to the next power of two before the comparison (the paper's
        threshold sweep resolves ES only to powers of two), which rejects more
        faults and yields smaller-but-safer simplifications.

        ``structural_reference`` optionally names a circuit *proven*
        functionally identical to the original (e.g. the result of a
        redundancy-removal prepass).  The ATPG's good machine and its
        affected-output cone analysis then use this netlist, so
        function-preserving restructurings do not spuriously widen the
        search; ER/observed-ES are still measured against the original.

        Returns ``(accepted, metrics)``; ``metrics.es`` carries the
        observed ES and ``metrics.es_bound`` the proven ceiling when
        the ATPG refuted the threshold.
        """

        def make(es_bound: Optional[int]) -> ErrorMetrics:
            return ErrorMetrics(
                er=er,
                es=observed,
                rs_maximum=self.rs_maximum,
                num_vectors=self.num_vectors,
                es_bound=es_bound,
            )

        def accept(metrics: ErrorMetrics) -> Tuple[bool, ErrorMetrics]:
            # Budget-risk accounting: accepted on the point estimate,
            # but the ER confidence interval's upper bound would have
            # pushed RS over the threshold.
            _lo, hi = er_interval(metrics.er, self.num_vectors, exact=self.exhaustive)
            if metrics.rs <= rs_threshold < hi * metrics.es:
                self.obs.incr("quality.budget_risk_accepts")
            return True, metrics

        def pow2ceil(v: int) -> int:
            return 1 << (v - 1).bit_length() if v > 1 else v

        er, observed = self.simulate(approx=approx, faults=faults)
        es_obs_eff = pow2ceil(observed) if pow2_es else observed
        if er <= 0.0:
            # No deviation on the batch: RS estimate is 0 (the paper's
            # ER is likewise a sampled estimate).
            return True, make(observed)
        if er * es_obs_eff > rs_threshold:
            return False, make(None)
        t_star = int(rs_threshold / er) + 1
        if t_star <= observed:
            return False, make(None)
        good_ckt = structural_reference if structural_reference is not None else self.circuit
        good_value_outputs = [good_ckt.outputs[p] for p in self._value_pos]
        atpg = EsAtpg(
            good_ckt,
            faulty=approx,
            faults=faults,
            value_outputs=good_value_outputs,
            node_limit=self.atpg_node_limit,
            obs=self.obs,
        )
        with self.obs.span("atpg.es_decide"):
            res = atpg.decide(t_star)
        self.obs.incr("estimator.check_rs_atpg_queries")
        if res.status is EsStatus.UNSAT:
            # An exact-path refutation also pins down the true ES.
            bound = res.deviation if res.deviation is not None else t_star - 1
            if pow2_es and er * pow2ceil(max(bound, observed, 1)) > rs_threshold:
                return False, make(bound)
            return accept(make(bound))
        return False, make(None)

    # ------------------------------------------------------------------
    def simulate(
        self,
        approx: Optional[Circuit] = None,
        faults: Sequence[StuckAtFault] = (),
    ) -> Tuple[float, int]:
        """Differential simulation only: returns (ER, observed ES)."""
        target = approx if approx is not None else self.circuit
        sim = self._simulator_for(target)
        with self.obs.span("estimator.simulate"):
            res = sim.run_packed(self.packed, self.num_vectors, faults)
            pair = self._compare(target, res)
        self.obs.incr("estimator.simulate_calls")
        self.obs.incr("estimator.vectors_simulated", self.num_vectors)
        return pair

    def simulate_faults(
        self,
        faults: Sequence[StuckAtFault],
        approx: Optional[Circuit] = None,
        rs_drop_threshold: Optional[float] = None,
    ) -> List[FaultBatchStats]:
        """Per-fault differential stats via cone-restricted batch simulation.

        The fault-parallel counterpart of calling :meth:`simulate` once
        per single fault: every fault is measured against the *original*
        circuit's good outputs, but its propagation replays only the
        fault's fanout cone on top of the fault-free baseline of
        ``approx``, simulated once per call.  Results are bit-identical
        to :meth:`simulate`; with ``rs_drop_threshold`` set, faults
        whose running
        ``ER * max|deviation|`` lower bound already exceeds the
        threshold are dropped early (``stats.dropped``), which is sound
        for candidate *rejection* but leaves their stats as lower
        bounds.  Only single-fault candidates are supported -- ER does
        not compose across interacting faults, so multi-fault sets must
        go through :meth:`simulate`.
        """
        target = approx if approx is not None else self.circuit
        bsim = self._batch_simulator_for(target)
        return bsim.evaluate(faults, rs_drop_threshold=rs_drop_threshold)

    def _batch_simulator_for(self, target: Circuit) -> BatchFaultSimulator:
        if len(target.outputs) != len(self.circuit.outputs):
            raise ValueError("approximate circuit must preserve the output count")
        value_names = [target.outputs[p] for p in self._value_pos]
        with self.obs.span("estimator.batchsim_build"):
            bsim = BatchFaultSimulator(
                target,
                observe_outputs=target.outputs,
                value_outputs=value_names,
                weights=self.weights,
                obs=self.obs,
            )
            bsim.load_batch(
                packed=self.packed,
                num_vectors=self.num_vectors,
                reference_outputs=self._good_words_arr,
                reference_value_bits=self._good_value_bits,
            )
        return bsim

    def _simulator_for(self, target: Circuit) -> CompiledSimulator:
        # Every other netlist is measured once (the greedy loop builds a
        # fresh tentative netlist per decision); its program is a view
        # of the netlist, so a committed tentative's next ranking reuses it.
        if target is self.circuit:
            return self._good_sim
        return CompiledSimulator(target, obs=self.obs)

    def _compare(self, target: Circuit, res: SimResult) -> Tuple[float, int]:
        if len(target.outputs) != len(self.circuit.outputs):
            raise ValueError("approximate circuit must preserve the output count")
        # detection over all (positionally paired) outputs
        detect: Optional[np.ndarray] = None
        for pos, o in enumerate(target.outputs):
            diff = np.bitwise_xor(self._good_words[pos], res.words_for(o))
            detect = diff if detect is None else np.bitwise_or(detect, diff)
        if detect is None:
            return 0.0, 0
        er = popcount_words(detect & tail_mask(self.num_vectors)) / self.num_vectors

        value_names = [target.outputs[p] for p in self._value_pos]
        fbits = res.output_bits(value_names)
        delta = fbits.astype(np.int8) - self._good_value_bits.astype(np.int8)
        return er, self.deviation.max_abs(delta)
