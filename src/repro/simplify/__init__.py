"""Circuit simplification: Table I engine, greedy heuristic, baselines."""

from .tables import TABLE_I, Rule, identity_value, rule_for, shrink_type
from .engine import (
    Overlay,
    preview_area_reduction,
    simplify_with_fault,
    simplify_with_faults,
)
from .redundancy import RedundancyRemovalResult, remove_redundancies
from .greedy import GreedyConfig, GreedyResult, IterationRecord, circuit_simplify

__all__ = [
    "TABLE_I",
    "Rule",
    "rule_for",
    "identity_value",
    "shrink_type",
    "Overlay",
    "simplify_with_fault",
    "simplify_with_faults",
    "preview_area_reduction",
    "RedundancyRemovalResult",
    "remove_redundancies",
    "GreedyConfig",
    "GreedyResult",
    "IterationRecord",
    "circuit_simplify",
]
