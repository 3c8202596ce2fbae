"""Parallel differential fault simulation.

Implements the ER-estimation machinery of Section IV.A: the faulty
circuit (original circuit + the currently selected multiple-fault set)
is simulated side by side with the fault-free circuit on the same
vector batch, and per-vector detection/deviation data is extracted by
comparing packed output words.  The comparison is always good-vs-faulty
on the *whole* fault set -- never composed from single-fault results --
because Section III.C shows ER does not compose for interacting faults.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..circuit import Circuit
from ..faults.model import StuckAtFault
from ..obs.core import Instrumentation, get_active
from .compiled import CompiledSimulator
from .deviation import WeightedDeviation
from .logicsim import SimResult
from .vectors import pack_vectors, random_vectors, exhaustive_vectors

__all__ = ["DifferentialResult", "FaultSimulator"]


@dataclass
class DifferentialResult:
    """Per-vector outcome of a good-vs-faulty simulation batch.

    Attributes
    ----------
    detected:
        Boolean array (N,) -- vector produced *any* output mismatch
        (over the observation outputs).
    deviations:
        List of signed exact integers (N,) -- weighted faulty-minus-good
        difference over the *data* outputs (Definition of ES).
    num_vectors:
        Batch size N.
    """

    detected: np.ndarray
    deviations: List[int]
    num_vectors: int

    @property
    def error_rate(self) -> float:
        """Fraction of vectors that produced an output mismatch.

        A zero-vector batch has no estimate to give: the rate defaults
        to 0.0 and the ``quality.zero_pattern_estimates`` counter
        records that a caller consumed a vacuous estimate.
        """
        if self.num_vectors == 0:
            get_active().incr("quality.zero_pattern_estimates")
            return 0.0
        return float(np.count_nonzero(self.detected)) / self.num_vectors

    @property
    def max_abs_deviation(self) -> int:
        """Largest absolute weighted deviation observed (a lower bound
        on the true ES)."""
        if not self.deviations:
            return 0
        return max(abs(d) for d in self.deviations)


class FaultSimulator:
    """Differential good/faulty simulator bound to one circuit.

    Parameters
    ----------
    circuit:
        The (original) circuit to observe.
    observe_outputs:
        Outputs used for detection (ER).  Defaults to all primary
        outputs.
    value_outputs:
        Outputs whose weighted numeric value defines deviation (ES).
        Defaults to the circuit's data outputs (all outputs when no
        data annotation exists).
    """

    def __init__(
        self,
        circuit: Circuit,
        observe_outputs: Optional[Sequence[str]] = None,
        value_outputs: Optional[Sequence[str]] = None,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self.circuit = circuit
        self.obs = obs if obs is not None else get_active()
        self.sim = CompiledSimulator(circuit, obs=self.obs)
        self.observe_outputs = tuple(observe_outputs or circuit.outputs)
        self.value_outputs = (
            tuple(value_outputs) if value_outputs is not None else circuit.value_outputs
        )
        self.weights = circuit.weights_of(self.value_outputs)
        self.deviation = WeightedDeviation(self.weights)
        self._good_cache: Dict[Tuple[int, bytes], SimResult] = {}

    # ------------------------------------------------------------------
    def differential(
        self,
        vectors: np.ndarray,
        faults: Iterable[StuckAtFault],
        good: Optional[SimResult] = None,
    ) -> DifferentialResult:
        """Run a good-vs-faulty comparison on a vector batch.

        ``good`` may carry a precomputed fault-free result for the same
        batch (reused across candidate-fault evaluations in the greedy
        loop).
        """
        vecs = np.asarray(vectors, dtype=bool)
        packed = pack_vectors(vecs)
        n = vecs.shape[0]
        if good is None:
            good = self.good_result(vecs, packed)
        with self.obs.span("faultsim.differential"):
            faulty = self.sim.run_packed(packed, n, faults)
            result = self.compare(good, faulty)
        self.obs.incr("faultsim.batches", 1)
        self.obs.incr("faultsim.vectors_simulated", n)
        return result

    def good_result(
        self, vectors: np.ndarray, packed: Optional[np.ndarray] = None
    ) -> SimResult:
        """Fault-free simulation of a batch (cached by batch content).

        The cache key is a digest of the packed batch, not the array's
        ``id()``: CPython reuses object ids after garbage collection, so
        an id-keyed cache can silently serve one batch's good values to
        a different, same-sized batch (regression-tested in
        ``tests/simulation/test_faultsim.py``).
        """
        if packed is None:
            packed = pack_vectors(np.asarray(vectors, dtype=bool))
        key = (vectors.shape[0], hashlib.sha1(packed.tobytes()).digest())
        cached = self._good_cache.get(key)
        if cached is not None:
            self.obs.incr("faultsim.good_cache_hits")
            return cached
        self.obs.incr("faultsim.good_cache_misses")
        res = self.sim.run_packed(packed, vectors.shape[0], ())
        self._good_cache = {key: res}  # keep only the latest batch
        return res

    def compare(self, good: SimResult, faulty: SimResult) -> DifferentialResult:
        """Extract detection and deviation data from two sim results."""
        n = good.num_vectors
        detect_words: Optional[np.ndarray] = None
        for o in self.observe_outputs:
            diff = np.bitwise_xor(good.words_for(o), faulty.words_for(o))
            detect_words = diff if detect_words is None else np.bitwise_or(detect_words, diff)
        if detect_words is None:
            detected = np.zeros(n, dtype=bool)
        else:
            from .vectors import unpack_vectors

            detected = unpack_vectors(detect_words[None, :], n)[:, 0]

        deviations = self._deviations(good, faulty)
        return DifferentialResult(detected=detected, deviations=deviations, num_vectors=n)

    def _deviations(self, good: SimResult, faulty: SimResult) -> List[int]:
        """Signed weighted faulty-minus-good value per vector."""
        n = good.num_vectors
        if not self.value_outputs:
            return [0] * n
        gbits = good.output_bits(self.value_outputs)
        fbits = faulty.output_bits(self.value_outputs)
        delta = fbits.astype(np.int8) - gbits.astype(np.int8)
        return [int(v) for v in self.deviation.signed(delta)]

    # ------------------------------------------------------------------
    def estimate(
        self,
        faults: Iterable[StuckAtFault],
        num_vectors: int = 10_000,
        rng: Optional[np.random.Generator] = None,
        exhaustive: bool = False,
    ) -> DifferentialResult:
        """One-call ER/deviation estimate on fresh vectors.

        With ``exhaustive=True`` all 2**n vectors are simulated (small
        circuits only), giving the exact ER and the exact ES as
        ``max_abs_deviation``.
        """
        if exhaustive:
            vecs = exhaustive_vectors(len(self.circuit.inputs))
        else:
            vecs = random_vectors(len(self.circuit.inputs), num_vectors, rng)
        return self.differential(vecs, faults)
