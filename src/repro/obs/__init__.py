"""Observability layer: instrumentation, journal, trace, progress, analytics.

See DESIGN.md §7 and §9.  ``repro.obs.core`` is the zero-dependency
span/counter/gauge registry the hot paths record into;
``repro.obs.journal`` is the per-run JSONL event stream;
``repro.obs.report`` renders the ``repro report`` profiling view from a
journal.  ``repro.obs.trace`` exports span activity as a Chrome trace
(Perfetto-loadable); ``repro.obs.progress`` is the
live heartbeat (TTY line + atomic ``progress.json``);
``repro.obs.compare`` diffs two run journals iteration-by-iteration and
``repro.obs.trends`` tracks benchmark history with a trailing-median
regression gate.  ``repro.obs.quality`` (DESIGN.md §10) is the
statistical-quality layer: Wilson-score confidence intervals for
sampled ER estimates, per-iteration estimator-calibration events, and
the ``repro audit`` provenance trail.  ``repro.obs.telemetry``
(DESIGN.md §12) is the background resource sampler (RSS/CPU/throughput
samples feeding journal-v4 ``telemetry`` events and trace counter
tracks); ``repro.obs.profile`` renders the ``repro profile`` self-time
attribution view; ``repro.obs.metrics_export`` is the
OpenMetrics/Prometheus text surface (``repro report --format
openmetrics`` and the heartbeat's ``telemetry.prom``).
``repro.obs.flight`` (DESIGN.md §15) is the failure-mode layer: the
:class:`~repro.obs.flight.FlightRecorder` crash hooks and the one
atomic crash-bundle writer :func:`~repro.obs.flight.package_bundle`,
whose journal tail is read from the run journal itself,
normalized-traceback error fingerprints, and the postmortem renderer
behind ``repro postmortem``.
"""

from .compare import compare_files, compare_runs, render_compare
from .flight import (
    BUNDLE_DIRNAME,
    STACKS_FILENAME,
    TAIL_EVENTS,
    FlightRecorder,
    error_fingerprint,
    fingerprint_key,
    fingerprint_text,
    load_bundle,
    normalize_traceback,
    package_bundle,
    render_postmortem,
)
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
from .metrics_export import (
    journal_openmetrics,
    render_openmetrics,
    validate_openmetrics,
)
from .profile import (
    ATTRIBUTION_TARGET_PCT,
    profile_events,
    profile_from_file,
    render_profile,
)
from .progress import ProgressReporter
from .quality import (
    DEFAULT_Z,
    audit_events,
    audit_file,
    calibration_event,
    er_interval,
    exact_er_check,
    render_audit,
    wilson_interval,
)
from .report import (
    collect_counters,
    collect_gauges,
    collect_timers,
    render_report,
    render_snapshot,
    report_as_dict,
    report_from_file,
)
from .telemetry import (
    TelemetryMonitor,
    cpu_seconds,
    sample_rss_bytes,
)
from .trace import (
    TraceRecorder,
    chrome_trace_from_spans,
    to_chrome_trace,
    write_chrome_trace,
)
from .trends import (
    TrendRegression,
    append_history,
    detect_regressions,
    load_bench_file,
    read_history,
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
    "render_snapshot",
    "report_as_dict",
    "report_from_file",
    "collect_timers",
    "collect_counters",
    "collect_gauges",
    "TraceRecorder",
    "chrome_trace_from_spans",
    "to_chrome_trace",
    "write_chrome_trace",
    "ProgressReporter",
    "TelemetryMonitor",
    "sample_rss_bytes",
    "cpu_seconds",
    "render_openmetrics",
    "journal_openmetrics",
    "validate_openmetrics",
    "ATTRIBUTION_TARGET_PCT",
    "profile_events",
    "profile_from_file",
    "render_profile",
    "compare_runs",
    "compare_files",
    "render_compare",
    "TrendRegression",
    "load_bench_file",
    "read_history",
    "append_history",
    "detect_regressions",
    "DEFAULT_Z",
    "wilson_interval",
    "er_interval",
    "calibration_event",
    "audit_events",
    "audit_file",
    "render_audit",
    "exact_er_check",
    "BUNDLE_DIRNAME",
    "STACKS_FILENAME",
    "TAIL_EVENTS",
    "FlightRecorder",
    "error_fingerprint",
    "fingerprint_key",
    "fingerprint_text",
    "load_bundle",
    "normalize_traceback",
    "package_bundle",
    "render_postmortem",
]
