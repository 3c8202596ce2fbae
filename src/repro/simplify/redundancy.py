"""Classical redundancy removal (the paper's baseline, refs [13][14]).

Repeatedly: run ATPG over the (collapsed) fault list, pick a proven
redundant fault, inject it with the simplification engine -- which by
definition of redundancy preserves the implemented function exactly --
and iterate on the simplified circuit until no redundant fault remains.
The paper's method degenerates to this procedure at an RS threshold of
zero, which the test-suite checks.

Both this loop and the greedy run's redundancy prepass first screen the
classes with one batch of random vectors (:func:`_prescreen_survivors`):
a class some vector detects is testable, so PODEM never sees it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..atpg.podem import AtpgStatus, Podem
from ..circuit import Circuit
from ..circuit.netlist import CircuitError
from ..faults.collapse import FaultClasses, collapse_faults
from ..faults.model import StuckAtFault
from ..obs.core import Instrumentation
from .engine import Overlay, preview_area_reduction

__all__ = ["RedundancyRemovalResult", "remove_redundancies"]


@dataclass
class RedundancyRemovalResult:
    """Outcome of the redundancy-removal loop."""

    original: Circuit
    simplified: Circuit
    removed_faults: List[StuckAtFault] = field(default_factory=list)
    rounds: int = 0

    @property
    def area_reduction(self) -> int:
        return self.original.area() - self.simplified.area()

    @property
    def area_reduction_pct(self) -> float:
        base = self.original.area()
        return 100.0 * self.area_reduction / base if base else 0.0


def remove_redundancies(
    circuit: Circuit,
    backtrack_limit: int = 20_000,
    max_rounds: int = 50,
) -> RedundancyRemovalResult:
    """Iteratively remove redundant stuck-at faults until none remain.

    Each round screens the current circuit's collapsed fault list with
    one random batch, then runs PODEM over the undetected classes in
    order of previewed area gain and injects the first one proven
    redundant (removing one redundancy can make another testable, so
    the scan restarts after the netlist changed).  A class whose
    injection fails -- a stem fault contradicting a constant an earlier
    round left -- is passed over.
    """
    result = RedundancyRemovalResult(original=circuit, simplified=circuit.copy())
    current = result.simplified
    for _round in range(max_rounds):
        result.rounds = _round + 1
        survivors = _prescreen_survivors(current, collapse_faults(current), seed=0)
        ranked: List[Tuple[int, StuckAtFault]] = []
        for rep, _members in survivors:
            try:
                ranked.append((-preview_area_reduction(current, rep), rep))
            except CircuitError:
                continue
        ranked.sort(key=lambda pair: pair[0])
        podem = Podem(current, backtrack_limit=backtrack_limit)
        injected: Optional[Overlay] = None
        for _key, rep in ranked:
            if podem.run(rep).status is not AtpgStatus.REDUNDANT:
                continue
            overlay = Overlay(current)
            try:
                overlay.apply(rep)
            except CircuitError:
                continue
            injected = overlay
            result.removed_faults.append(rep)
            break
        if injected is None:
            break
        current = injected.materialize(current.name)
        result.simplified = current
    return result


#: Vectors in the redundancy screen.  At 2,048 no testable class of the
#: e2e benchmark's c880, c5315 and c7552 inputs survives it, and the
#: screen takes about as long as at 256: per-class cone work dominates.
PRESCREEN_VECTORS = 2048


def _prescreen_survivors(
    circuit: Circuit,
    classes: FaultClasses,
    seed: int,
    obs: Optional[Instrumentation] = None,
) -> List[Tuple[StuckAtFault, List[StuckAtFault]]]:
    """The ``(representative, members)`` fault classes that a batch of
    :data:`PRESCREEN_VECTORS` random vectors does not detect, in class
    order.

    Any class the batch detects is provably testable.  One cone-replay
    batch simulates every representative as a single fault against the
    same baseline, for detection only (no value outputs); its cone
    plans go with the simulator when this returns.
    """
    import numpy as np

    from ..simulation.batchfaultsim import BatchFaultSimulator
    from ..simulation.vectors import random_vectors

    vectors = random_vectors(
        len(circuit.inputs), PRESCREEN_VECTORS, np.random.default_rng(seed + 7)
    )
    bsim = BatchFaultSimulator(circuit, value_outputs=(), obs=obs)
    bsim.load_batch(vectors)
    reps = list(classes.members)
    return [
        (st.fault, classes.members[st.fault])
        for st in bsim.evaluate(reps)
        if st.detected_count == 0
    ]
