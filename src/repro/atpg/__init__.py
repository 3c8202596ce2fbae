"""Automatic test pattern generation: PODEM, ES-threshold ATPG, ER tests."""

from .podem import AtpgResult, AtpgStatus, Podem
from .es_atpg import EsAtpg, EsResult, EsStatus
from .er_testing import ErTestSet, estimate_fault_er, generate_er_tests

__all__ = [
    "Podem",
    "AtpgResult",
    "AtpgStatus",
    "EsAtpg",
    "EsResult",
    "EsStatus",
    "ErTestSet",
    "estimate_fault_er",
    "generate_er_tests",
]
