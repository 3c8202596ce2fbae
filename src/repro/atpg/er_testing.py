"""Error-rate test generation (rebuilds the paper's ref [5], ERTG).

Error-tolerant test flows do not target every fault: a fault whose
error rate is below the application threshold leaves the chip
acceptable, so manufacturing test only needs vectors for the faults
with ER *above* the threshold.  This module provides that flow:

* :func:`estimate_fault_er` -- per-fault ER estimates over a shared
  random batch, computed with the bit-parallel differential simulator;
* :func:`generate_er_tests` -- a compact test set detecting every
  fault whose estimated ER exceeds the threshold, built by greedy
  set-cover over a candidate vector pool (the classic random-pattern +
  covering construction).

Faults below the threshold are deliberately left untested -- that is
the yield benefit of error-rate testing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit import Circuit
from ..faults.collapse import collapse_faults
from ..faults.model import StuckAtFault, enumerate_faults
from ..simulation.compiled import CompiledSimulator
from ..simulation.vectors import pack_vectors, random_vectors

__all__ = ["ErTestSet", "estimate_fault_er", "generate_er_tests"]


def estimate_fault_er(
    circuit: Circuit,
    faults: Optional[Sequence[StuckAtFault]] = None,
    num_vectors: int = 4_096,
    seed: int = 0,
) -> Dict[StuckAtFault, float]:
    """Estimate each fault's error rate over one shared random batch."""
    if faults is None:
        faults = enumerate_faults(circuit)
    sim = CompiledSimulator(circuit)
    vecs = random_vectors(len(circuit.inputs), num_vectors, np.random.default_rng(seed))
    packed = pack_vectors(vecs)
    good = sim.run_packed(packed, num_vectors)
    good_words = [good.words_for(o) for o in circuit.outputs]
    out: Dict[StuckAtFault, float] = {}
    for f in faults:
        res = sim.run_packed(packed, num_vectors, [f])
        detect = None
        for row, o in zip(good_words, circuit.outputs):
            diff = np.bitwise_xor(row, res.words_for(o))
            detect = diff if detect is None else np.bitwise_or(detect, diff)
        count = int(sum(bin(int(w)).count("1") for w in detect))
        out[f] = count / num_vectors
    return out


@dataclass
class ErTestSet:
    """Result of error-rate test generation."""

    vectors: np.ndarray  # (num_tests, num_inputs) bool
    er_threshold: float
    targets: List[StuckAtFault] = field(default_factory=list)
    covered: int = 0
    fault_er: Dict[StuckAtFault, float] = field(default_factory=dict)
    #: Size of the shared candidate batch behind every ER estimate (the
    #: sample size of the binomial proportion; 0 when unknown).
    num_vectors: int = 0

    @property
    def num_tests(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def coverage(self) -> float:
        return self.covered / len(self.targets) if self.targets else 1.0

    @property
    def skipped_faults(self) -> int:
        """Faults whose ER is tolerable and therefore left untested."""
        return sum(1 for er in self.fault_er.values() if er <= self.er_threshold)

    def er_confidence(
        self, fault: StuckAtFault, z: float = 1.96
    ) -> Tuple[float, float]:
        """Wilson-score confidence interval for one fault's sampled ER.

        The skip decision (``fault_er[f] <= er_threshold``) rides on a
        point estimate; the interval says how sure that decision is --
        a fault whose interval straddles the threshold was a close
        call.  ``(0.0, 1.0)`` when the batch size is unknown.
        """
        from ..obs.quality import er_interval

        return er_interval(self.fault_er[fault], self.num_vectors, z=z)


def generate_er_tests(
    circuit: Circuit,
    er_threshold: float,
    num_candidates: int = 2_048,
    seed: int = 0,
    collapse: bool = True,
    max_tests: Optional[int] = None,
) -> ErTestSet:
    """Build a test set for the faults whose ER exceeds the threshold.

    The candidate pool is simulated once per (collapsed) fault with the
    bit-parallel simulator; ER estimates fall out of the same detection
    masks; vectors are then chosen greedily until every above-threshold
    fault is covered (or the pool/`max_tests` is exhausted).
    """
    if not 0.0 <= er_threshold < 1.0:
        raise ValueError("er_threshold must be in [0, 1)")
    sim = CompiledSimulator(circuit)
    rng = np.random.default_rng(seed)
    vecs = random_vectors(len(circuit.inputs), num_candidates, rng)
    packed = pack_vectors(vecs)
    good = sim.run_packed(packed, num_candidates)
    good_words = {o: good.words_for(o) for o in circuit.outputs}

    if collapse:
        fault_list = collapse_faults(circuit).representatives
    else:
        fault_list = enumerate_faults(circuit)

    masks: List[Tuple[StuckAtFault, np.ndarray]] = []
    fault_er: Dict[StuckAtFault, float] = {}
    for f in fault_list:
        res = sim.run_packed(packed, num_candidates, [f])
        detect = None
        for o in circuit.outputs:
            diff = np.bitwise_xor(good_words[o], res.words_for(o))
            detect = diff if detect is None else np.bitwise_or(detect, diff)
        count = int(sum(bin(int(w)).count("1") for w in detect))
        er = count / num_candidates
        fault_er[f] = er
        if er > er_threshold:
            masks.append((f, detect))

    targets = [f for f, _ in masks]
    chosen: List[int] = []
    uncovered = list(range(len(masks)))
    # greedy cover: repeatedly take the vector detecting the most
    # still-uncovered targets
    while uncovered and (max_tests is None or len(chosen) < max_tests):
        # per-vector tally over uncovered targets
        tally = np.zeros(num_candidates, dtype=np.int32)
        for k in uncovered:
            bits = np.unpackbits(
                masks[k][1].view(np.uint8), bitorder="little"
            )[:num_candidates]
            tally += bits
        best = int(tally.argmax())
        if tally[best] == 0:
            break
        chosen.append(best)
        word, bit = best // 64, best % 64
        uncovered = [
            k
            for k in uncovered
            if not (int(masks[k][1][word]) >> bit) & 1
        ]
    covered = len(targets) - len(uncovered)
    return ErTestSet(
        vectors=vecs[chosen] if chosen else np.zeros((0, len(circuit.inputs)), dtype=bool),
        er_threshold=er_threshold,
        targets=targets,
        covered=covered,
        fault_er=fault_er,
        num_vectors=num_candidates,
    )
