"""Parallel execution and run-level robustness for the greedy loop.

``repro.parallel.pool`` shards phase-2 candidate scoring across worker
processes with a deterministic merge (parallel runs select the same
fault sequence as serial runs); ``repro.parallel.checkpoint`` resumes
a killed run bit-identically from its run journal.
See DESIGN.md §8.
"""

from .checkpoint import (
    CheckpointError,
    CheckpointState,
    ReplayedRun,
    fault_detail,
    fault_from_detail,
    load_checkpoint,
    maybe_load_checkpoint,
    replay_checkpoint,
    resume_from,
)
from .pool import ScoringPool, resolve_workers

__all__ = [
    "ScoringPool",
    "resolve_workers",
    "CheckpointError",
    "CheckpointState",
    "ReplayedRun",
    "fault_detail",
    "fault_from_detail",
    "load_checkpoint",
    "maybe_load_checkpoint",
    "replay_checkpoint",
    "resume_from",
]
