"""repro -- ATPG-driven circuit simplification for error tolerant applications.

Reproduction of D. Shin and S. K. Gupta, "A new circuit simplification
method for error tolerant applications", DATE 2011.

The public API is re-exported here; see README.md for a quickstart and
DESIGN.md for the system inventory.
"""

from .circuit import (
    Bus,
    Circuit,
    CircuitBuilder,
    CircuitError,
    Gate,
    GateType,
    dump_bench,
    dumps_bench,
    load_bench,
    loads_bench,
)
from .faults import Line, StuckAtFault, datapath_faults, enumerate_faults
from .obs import Instrumentation, RunJournal, load_journal, render_report
from .simulation import FaultSimulator, LogicSimulator
from .metrics import ErrorMetrics, MetricsEstimator, rs_max
from .simplify import (
    GreedyConfig,
    GreedyResult,
    circuit_simplify,
    remove_redundancies,
    simplify_with_fault,
    simplify_with_faults,
)
from .core import (
    SCHEMA_VERSION,
    BudgetExhaustedError,
    CompileError,
    InvalidRequestError,
    ReproError,
    SimplifyOutcome,
    SimplifyRequest,
    UnsupportedSchemaVersionError,
    format_report,
    verify_simplification,
)
from .parallel import CheckpointError, resume_from

__version__ = "1.1.0"

__all__ = [
    "Circuit",
    "CircuitBuilder",
    "CircuitError",
    "Bus",
    "Gate",
    "GateType",
    "Line",
    "StuckAtFault",
    "enumerate_faults",
    "datapath_faults",
    "LogicSimulator",
    "FaultSimulator",
    "load_bench",
    "loads_bench",
    "dump_bench",
    "dumps_bench",
    "ErrorMetrics",
    "MetricsEstimator",
    "rs_max",
    "GreedyConfig",
    "GreedyResult",
    "circuit_simplify",
    "remove_redundancies",
    "simplify_with_fault",
    "simplify_with_faults",
    "SCHEMA_VERSION",
    "SimplifyRequest",
    "SimplifyOutcome",
    "verify_simplification",
    "format_report",
    "ReproError",
    "InvalidRequestError",
    "UnsupportedSchemaVersionError",
    "CompileError",
    "BudgetExhaustedError",
    "resume_from",
    "CheckpointError",
    "Instrumentation",
    "RunJournal",
    "load_journal",
    "render_report",
    "__version__",
]
