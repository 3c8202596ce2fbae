"""Observability layer: instrumentation, journal, progress, analytics.

See DESIGN.md §7 and §9.  ``repro.obs.core`` is the zero-dependency
span/counter/gauge registry the hot paths record into;
``repro.obs.journal`` is the per-run JSONL event stream;
``repro.obs.report`` renders the ``repro report`` view of a journal:
where the time went (total and self time per span path, and how much
of the wall-clock time the spans attribute), the iteration table and
the hotspot counters.  ``repro.obs.progress`` folds a
run's progress (iteration, area, RS budget used) from its journal
events, live on a TTY line or from a journal on disk, and
``repro.obs.compare`` diffs two run journals iteration-by-iteration.
``repro.obs.quality`` (DESIGN.md §10) is the
statistical-quality layer: Wilson-score confidence intervals for
sampled ER estimates and the ``repro audit`` provenance trail
(predicted vs. realized per committed step).
``repro.obs.metrics_export`` renders the job server's ``/v1/metrics``
OpenMetrics/Prometheus text and checks it against the grammar.
``repro.obs.postmortem`` (DESIGN.md §15) backs ``repro postmortem``:
it reads what a failed run left in place -- its journal's tail and,
for a service job, ``error.json`` and ``runner.log`` -- and writes
nothing.
"""

from .compare import compare_files, compare_runs, render_compare
from .core import (
    NULL,
    Instrumentation,
    NullInstrumentation,
    TimerStat,
    get_active,
    set_active,
    use,
)
from .journal import (
    JOURNAL_VERSION,
    REQUIRED_KEYS,
    JournalError,
    RunJournal,
    load_journal,
    read_journal,
    validate_event,
)
from .metrics_export import render_openmetrics, validate_openmetrics
from .postmortem import TAIL_EVENTS, load_postmortem, render_postmortem
from .progress import ProgressReporter, progress_from_events
from .quality import (
    DEFAULT_Z,
    audit_events,
    audit_file,
    er_interval,
    exact_er_check,
    render_audit,
    wilson_interval,
)
from .report import (
    ATTRIBUTION_TARGET_PCT,
    collect_counters,
    collect_gauges,
    collect_timers,
    render_report,
    report_as_dict,
    report_from_file,
)

__all__ = [
    "Instrumentation",
    "NullInstrumentation",
    "NULL",
    "TimerStat",
    "get_active",
    "set_active",
    "use",
    "JOURNAL_VERSION",
    "REQUIRED_KEYS",
    "JournalError",
    "RunJournal",
    "read_journal",
    "load_journal",
    "validate_event",
    "render_report",
    "report_as_dict",
    "report_from_file",
    "collect_timers",
    "collect_counters",
    "collect_gauges",
    "ProgressReporter",
    "progress_from_events",
    "render_openmetrics",
    "validate_openmetrics",
    "ATTRIBUTION_TARGET_PCT",
    "compare_runs",
    "compare_files",
    "render_compare",
    "DEFAULT_Z",
    "wilson_interval",
    "er_interval",
    "audit_events",
    "audit_file",
    "render_audit",
    "exact_er_check",
    "TAIL_EVENTS",
    "load_postmortem",
    "render_postmortem",
]
