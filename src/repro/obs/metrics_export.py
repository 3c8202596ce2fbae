"""OpenMetrics/Prometheus text rendering of instrumentation state.

:func:`render_openmetrics` renders the job server's ``GET /v1/metrics``
body: its service counters and gauges.  Mapping (all metric names
prefixed ``repro_``, dots sanitized to underscores):

* counters -> one ``counter`` family each, sample ``<name>_total``;
* gauges   -> one ``gauge`` family each;
* identity -> an ``info`` family,
  ``repro_run_info{service="...",version="..."} 1``.

:func:`validate_openmetrics` is a small grammar checker for the
OpenMetrics text exposition format (metric-name charset, ``# TYPE``
before samples, suffix rules per type, one family declaration each,
the mandatory ``# EOF`` terminator).  The unit tests and CI run every
rendered payload through it, so the scrape surface stays parseable.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional

__all__ = [
    "render_openmetrics",
    "validate_openmetrics",
]

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")

#: sample-name suffixes a family of each type may expose.
_TYPE_SUFFIXES = {
    "counter": ("_total", "_created"),
    "gauge": ("",),
    "info": ("_info",),
    "histogram": ("_bucket", "_count", "_sum", "_created"),
    "unknown": ("",),
}


def _metric_name(raw: str, prefix: str = "repro_") -> str:
    name = _SANITIZE.sub("_", raw)
    if not re.match(r"[a-zA-Z_:]", name):
        name = "_" + name
    return prefix + name


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    f = float(value)
    if math.isnan(f):
        return "NaN"
    if math.isinf(f):
        return "+Inf" if f > 0 else "-Inf"
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _labels(pairs: Dict[str, str]) -> str:
    if not pairs:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label(v)}"' for k, v in sorted(pairs.items())
    )
    return "{" + inner + "}"


def render_openmetrics(
    snapshot: Dict,
    info: Optional[Dict[str, str]] = None,
) -> str:
    """Render an instrumentation snapshot's counters and gauges as
    OpenMetrics text.

    ``snapshot`` is the :meth:`Instrumentation.snapshot` shape (any
    subset; its span timers are not rendered); ``info`` adds a
    ``repro_run_info`` identity family (service, version, ...).  The
    output always terminates with ``# EOF`` and passes
    :func:`validate_openmetrics`.
    """
    lines: List[str] = []
    if info:
        clean = {k: v for k, v in info.items() if v is not None}
        if clean:
            lines.append("# TYPE repro_run info")
            lines.append(f"repro_run_info{_labels(clean)} 1")

    counters = snapshot.get("counters") or {}
    for raw in sorted(counters):
        name = _metric_name(raw)
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name}_total {_fmt_value(counters[raw])}")

    gauges = snapshot.get("gauges") or {}
    for raw in sorted(gauges):
        name = _metric_name(raw, prefix="repro_gauge_")
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_fmt_value(gauges[raw])}")

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# grammar validation (used by the unit tests and safe for CI gating)
# ----------------------------------------------------------------------
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r" (?P<value>\S+)"
    r"(?: (?P<timestamp>\S+))?$"
)
_LABEL_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"'
)
_VALUE_RE = re.compile(
    r"^(?:[+-]?(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d+)?|[+-]?Inf|NaN)$"
)


def validate_openmetrics(text: str) -> int:
    """Check ``text`` against the OpenMetrics text grammar.

    Returns the number of sample lines; raises :class:`ValueError`
    naming the first offending line.  Checked: the ``# EOF``
    terminator (present, final, unique), metric-name and label
    charsets, numeric sample values, ``# TYPE`` declared before a
    family's samples, each family declared once, and per-type sample
    suffix rules (``counter`` samples end ``_total``/``_created``,
    ``info`` samples ``_info``, ``gauge`` samples are bare).
    """
    if not text.endswith("\n"):
        raise ValueError("exposition must end with a newline")
    lines = text.split("\n")[:-1]
    if not lines or lines[-1] != "# EOF":
        raise ValueError("exposition must terminate with '# EOF'")
    declared: Dict[str, str] = {}
    samples = 0
    for lineno, line in enumerate(lines, start=1):
        if line == "# EOF":
            if lineno != len(lines):
                raise ValueError(f"line {lineno}: content after '# EOF'")
            continue
        if not line:
            raise ValueError(f"line {lineno}: blank line")
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 3 or parts[0] != "#" or parts[1] not in (
                "TYPE", "HELP", "UNIT"
            ):
                raise ValueError(f"line {lineno}: malformed comment {line!r}")
            family = parts[2]
            if not _NAME_OK.match(family):
                raise ValueError(
                    f"line {lineno}: bad metric family name {family!r}"
                )
            if parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "info", "histogram", "summary",
                    "stateset", "unknown", "gaugehistogram",
                ):
                    raise ValueError(
                        f"line {lineno}: bad TYPE line {line!r}"
                    )
                if family in declared:
                    raise ValueError(
                        f"line {lineno}: family {family!r} declared twice"
                    )
                declared[family] = parts[3]
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        name = m.group("name")
        if not _VALUE_RE.match(m.group("value")):
            raise ValueError(
                f"line {lineno}: bad sample value {m.group('value')!r}"
            )
        labels = m.group("labels")
        if labels is not None:
            body = labels[1:-1]
            if body:
                consumed = _LABEL_RE.sub("", body)
                if consumed.strip(","):
                    raise ValueError(
                        f"line {lineno}: malformed label set {labels!r}"
                    )
        family = _family_of(name, declared)
        if family is None:
            raise ValueError(
                f"line {lineno}: sample {name!r} has no preceding TYPE "
                f"declaration"
            )
        samples += 1
    return samples


def _family_of(sample_name: str, declared: Dict[str, str]) -> Optional[str]:
    """The declared family a sample name belongs to (suffix rules)."""
    for family, mtype in declared.items():
        for suffix in _TYPE_SUFFIXES.get(mtype, ("",)):
            if sample_name == family + suffix:
                return family
    return None
