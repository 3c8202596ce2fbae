"""Acceptance testing and effective-yield analysis (paper Section I).

Classical yield counts only perfect chips.  Error tolerance admits
*imperfect-but-acceptable* chips: those whose output errors stay within
the application's RS threshold.  This module classifies a chip
population with the same machinery the synthesis flow uses
(differential fault simulation for ER and observed ES, optionally the
threshold ES-ATPG for a conservative verdict) and reports both yields:

    classical yield = perfect chips / all chips
    effective yield = (perfect + acceptable chips) / all chips

The gap between the two is exactly the benefit the paper's intro
quantifies -- the fraction of manufactured parts that testing for
error tolerance rescues from the scrap bin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..circuit import Circuit
from ..metrics.estimate import MetricsEstimator
from .population import Chip

__all__ = ["ChipVerdict", "YieldReport", "classify_population"]


@dataclass(frozen=True)
class ChipVerdict:
    """Classification of one chip."""

    chip: Chip
    rs: float
    accepted: bool

    @property
    def category(self) -> str:
        if self.chip.is_perfect:
            return "perfect"
        return "acceptable" if self.accepted else "unacceptable"


@dataclass
class YieldReport:
    """Population-level yield figures."""

    rs_threshold: float
    verdicts: List[ChipVerdict] = field(default_factory=list)

    @property
    def num_chips(self) -> int:
        return len(self.verdicts)

    @property
    def perfect(self) -> int:
        return sum(1 for v in self.verdicts if v.category == "perfect")

    @property
    def acceptable(self) -> int:
        return sum(1 for v in self.verdicts if v.category == "acceptable")

    @property
    def unacceptable(self) -> int:
        return sum(1 for v in self.verdicts if v.category == "unacceptable")

    @property
    def classical_yield(self) -> float:
        return self.perfect / self.num_chips if self.num_chips else 0.0

    @property
    def effective_yield(self) -> float:
        if not self.num_chips:
            return 0.0
        return (self.perfect + self.acceptable) / self.num_chips

    @property
    def yield_gain(self) -> float:
        """Absolute effective-over-classical yield improvement."""
        return self.effective_yield - self.classical_yield

    def __str__(self) -> str:
        return (
            f"{self.num_chips} chips @ RS<= {self.rs_threshold:g}: "
            f"classical {100 * self.classical_yield:.1f}%, "
            f"effective {100 * self.effective_yield:.1f}% "
            f"(+{100 * self.yield_gain:.1f} points; "
            f"{self.acceptable} rescued, {self.unacceptable} scrapped)"
        )


def classify_population(
    circuit: Circuit,
    chips: Sequence[Chip],
    rs_threshold: float,
    num_vectors: int = 5_000,
    seed: int = 0,
    use_atpg: bool = False,
    estimator: Optional[MetricsEstimator] = None,
) -> YieldReport:
    """Run acceptance testing over a chip population.

    Each defective chip is measured differentially against the perfect
    design on a shared vector batch; with ``use_atpg`` the accept
    decision additionally runs the conservative threshold ES-ATPG (the
    production-test configuration; slower but sound).
    """
    est = estimator or MetricsEstimator(circuit, num_vectors=num_vectors, seed=seed)
    report = YieldReport(rs_threshold=float(rs_threshold))
    for chip in chips:
        if chip.is_perfect:
            report.verdicts.append(ChipVerdict(chip=chip, rs=0.0, accepted=True))
            continue
        approx = None
        if chip.bridges:
            # bridging defects become a transformed netlist; stuck-at
            # defects ride along as simulator-level injections
            from ..faults.bridging import inject_bridging

            try:
                approx = inject_bridging(circuit, list(chip.bridges))
            except Exception:
                # infeasible short on this sample: treat as catastrophic
                report.verdicts.append(
                    ChipVerdict(chip=chip, rs=float("inf"), accepted=False)
                )
                continue
        if use_atpg:
            accepted, metrics = est.check_rs(
                rs_threshold, approx=approx, faults=list(chip.faults)
            )
            rs = metrics.rs
        else:
            er, observed = est.simulate(approx=approx, faults=list(chip.faults))
            rs = er * observed
            accepted = rs <= rs_threshold
        report.verdicts.append(ChipVerdict(chip=chip, rs=rs, accepted=accepted))
    return report
