"""``repro postmortem``: what a dead or wedged run left, read in place.

Nothing here writes.  A run journal is its own crash record, and a
service job directory adds two files that exist anyway: ``error.json``
(the runner's typed failure) and ``runner.log`` (the runner child's
stderr across attempts -- an uncaught traceback, the all-thread stack
dump ``faulthandler`` writes on the hang watchdog's ``SIGUSR1`` -- and
one supervisor line per attempt it killed or found dead).
:func:`load_postmortem` gathers them; :func:`render_postmortem` prints
the report.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from .journal import journal_events

__all__ = ["TAIL_EVENTS", "load_postmortem", "render_postmortem"]

#: How many of the journal's last events the report shows.
TAIL_EVENTS = 64


def _read(path: str) -> Optional[str]:
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def _job_journal_paths(job_dir: str) -> List[str]:
    """The job's journal files, named from its ``request.json`` FOM."""
    from ..core.api import SimplifyRequest, journal_paths

    checkpoint = os.path.join(job_dir, "checkpoint.jsonl")
    request = _read(os.path.join(job_dir, "request.json"))
    if request is None:
        return [checkpoint]
    return journal_paths(checkpoint, SimplifyRequest.from_json(request).fom)


def load_postmortem(path: str) -> Dict:
    """What the run at ``path`` (a job directory or a journal) left.

    Returns ``{"source", "events", "error", "runner_log"}``: the
    readable prefix of the run's journal files, the ``error.json`` body
    and the ``runner.log`` text (``None`` when absent; a bare journal
    has neither).  Raises ``ValueError`` with a readable message when
    there is nothing to report.
    """
    path = os.path.abspath(path)
    if os.path.isfile(path):
        events = journal_events([path])
        if not events:
            raise ValueError(f"{path}: not a run journal (no readable events)")
        return {"source": path, "events": events, "error": None, "runner_log": None}
    if not os.path.isdir(path):
        raise ValueError(f"{path}: no such file or directory")
    error = _read(os.path.join(path, "error.json"))
    try:
        error_body = json.loads(error) if error else None
    except ValueError as exc:
        raise ValueError(f"{path}/error.json: not JSON ({exc})") from exc
    record = {
        "source": path,
        "events": journal_events(_job_journal_paths(path)),
        "error": error_body,
        "runner_log": _read(os.path.join(path, "runner.log")),
    }
    if not (record["events"] or error_body or record["runner_log"]):
        raise ValueError(
            f"{path}: nothing to report (no journal, error.json or runner.log; "
            f"did the job run?)"
        )
    return record


def _compact_event(event: Dict) -> str:
    detail = []
    for key in ("index", "fault", "area_after", "rs", "reason",
                "replayed_iterations", "circuit"):
        if key in event:
            value = event[key]
            if isinstance(value, float):
                value = f"{value:.4g}"
            detail.append(f"{key}={value}")
    return f"  {event.get('event', '?'):<12} " + "  ".join(detail)


def render_postmortem(record: Dict) -> str:
    """The report ``repro postmortem`` prints."""
    lines = [f"== repro postmortem: {record['source']} =="]
    error = (record.get("error") or {}).get("error")
    if error:
        lines.append(f"error: {error.get('code', '?')}: {error.get('message', '')}")
    events = record["events"]
    tail = events[-TAIL_EVENTS:]
    lines.append("")
    lines.append(f"-- journal tail ({len(tail)} of {len(events)} event(s)) --")
    lines.extend(_compact_event(event) for event in tail)
    if not tail:
        lines.append("  (empty)")
    if record.get("runner_log"):
        lines.append("")
        lines.append("-- runner.log --")
        lines.append(record["runner_log"].rstrip("\n"))
    return "\n".join(lines)
