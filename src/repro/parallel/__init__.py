"""Run-level robustness for the greedy loop.

``repro.parallel.checkpoint`` resumes a killed run bit-identically
from its run journal.  See DESIGN.md §8.
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

__all__ = [
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
