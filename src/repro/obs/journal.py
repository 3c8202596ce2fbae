"""Structured run journal: one JSONL event stream per simplification run.

A journal is an append-only sequence of JSON objects, one per line:

* ``run_start`` -- run header: circuit identity (name/inputs/outputs/
  area), RS threshold, greedy config, seed and vector-batch size;
* ``iteration`` -- one committed simplification step, and its only
  record: the accepted fault, area before/after, ER/ES/RS of the
  cumulative change, the ES-ATPG's proven ``es_bound``, the
  ``predicted`` ER/ES/area delta the candidate ranking chose the fault
  on, FOM value, candidates evaluated, per-phase wall times and the
  counter deltas (cache hits, vectors simulated, ATPG effort)
  attributable to the step.  Prepass (redundancy) injections carry
  ``"phase": "prepass"``, greedy commits ``"phase": "greedy"``;
* ``summary`` -- final metrics, totals, and the full instrumentation
  snapshot (timers/counters/gauges).

Durability contract: every event is serialized to a full line first and
handed to the OS in a **single buffered write followed by a flush**, so
a run killed between events leaves a journal whose every line is a
complete, parseable event -- interrupted runs keep a readable prefix.
(A kill *during* the one write can leave at most one torn final line;
:func:`read_journal` tolerates exactly that.)  A journal path names one
run, and the journal is also that run's checkpoint: ``circuit_simplify``
continues a file holding a prefix of the same run (``append=True``),
rebuilds the result from a complete one, and refuses any other file
(:mod:`repro.parallel.checkpoint`).

:func:`read_journal` / :func:`validate_event` are the consumer side:
the reader yields parsed events in order and (non-strict mode) ignores
a torn final line, while validation pins the per-type required keys so
the `repro report` renderer and the tests share one schema source.

Version 2 extends the schema for checkpoint/resume
(:mod:`repro.parallel.checkpoint`): ``iteration`` events carry a
structured ``fault_detail`` object (signal/gate/pin/value) so committed
faults can be replayed through the Overlay engine, ``rejection`` events
record commit-phase rejections (rebuilding the greedy loop's banned set
on resume), and a ``resume`` event marks each continuation of an
interrupted run.

Version 3 added estimator-calibration observability
(:mod:`repro.obs.quality`): each committed iteration was followed by a
``calibration`` event pairing the *predicted* ER/ES/area deltas the
candidate ranking saw at selection time with the *realized* commit
measurement, the ER sample size, the Wilson-score confidence interval,
and the budget-risk flag (CI upper bound crosses the RS threshold
although the point estimate did not).

Version 4 added ``telemetry`` events (periodic RSS/CPU/throughput
samples).  This build writes none but still reads them: ``telemetry``
stays in :data:`REQUIRED_KEYS`, so stored journals and checkpoints that
hold samples load, resume and render, and every reader ignores the
samples.  :meth:`RunJournal.emit` serializes
concurrent emitters under a lock; the one-write-per-line durability
contract is unchanged.

Version 5 makes the ``iteration`` event the one record of a committed
step: it carries the ``predicted`` block (``er``/``es``/``area_delta``)
and drops the fields that repeated another (``observed_es`` equals
``es``, ``es_mode`` restates ``phase``, ``delta_er``/``delta_es``/
``delta_rs`` are differences of consecutive events).  No
``calibration`` event is written; it stays in :data:`REQUIRED_KEYS`,
as ``telemetry`` does, so v3/v4 journals load, resume and audit.  The
summary adds ``final_es_bound``.

Readers that only understand older event sets pass
``skip_unknown=True`` to :func:`read_journal` / :func:`load_journal`
(``report``/``compare``/``audit`` do), so future event types degrade
gracefully instead of erroring.
"""

from __future__ import annotations

import json
import os
import threading
from typing import IO, Dict, Iterable, Iterator, List, Optional, Union

__all__ = [
    "JOURNAL_VERSION",
    "REQUIRED_KEYS",
    "JournalError",
    "JournalTee",
    "RunJournal",
    "validate_event",
    "read_journal",
    "load_journal",
    "journal_events",
    "truncate_torn_tail",
]

JOURNAL_VERSION = 5

#: Required keys per event type.  ``iteration`` deliberately does not
#: require ``phase_times``/``counters``/``fault_detail`` -- they are
#: best-effort detail, while the listed keys are the analysis contract.
REQUIRED_KEYS: Dict[str, tuple] = {
    "run_start": (
        "event",
        "version",
        "circuit",
        "num_inputs",
        "num_outputs",
        "area",
        "rs_threshold",
        "rs_max",
        "seed",
        "num_vectors",
        "config",
    ),
    "iteration": (
        "event",
        "index",
        "phase",
        "fault",
        "area_before",
        "area_after",
        "er",
        "es",
        "rs",
        "fom",
        "candidates_evaluated",
    ),
    "rejection": (
        "event",
        "index",
        "fault",
        "reason",
    ),
    "calibration": (
        "event",
        "index",
        "fault",
        "predicted",
        "realized",
        "num_vectors",
        "er_ci",
        "budget_risk",
    ),
    "resume": (
        "event",
        "version",
        "replayed_iterations",
        "area",
        "rs",
    ),
    "telemetry": (
        "event",
        "t_s",
        "pid",
        "lane",
        "rss_bytes",
        "cpu_s",
    ),
    "summary": (
        "event",
        "iterations",
        "faults_injected",
        "area_before",
        "area_after",
        "area_reduction_pct",
        "elapsed_s",
        "timers",
        "counters",
    ),
}


class JournalError(ValueError):
    """A journal line or event violates the schema."""


def validate_event(event: Dict) -> Dict:
    """Check an event against :data:`REQUIRED_KEYS`; returns it unchanged.

    Version-carrying events (``run_start``/``resume``) are additionally
    checked against :data:`JOURNAL_VERSION`: a journal written by a
    *newer* schema fails here with a clear "unsupported version" error
    in **every** reader -- report, compare, checkpoint resume -- instead
    of surfacing later as a ``KeyError`` on a field this build has
    never heard of.
    """
    if not isinstance(event, dict):
        raise JournalError(f"journal event must be an object, got {type(event).__name__}")
    etype = event.get("event")
    required = REQUIRED_KEYS.get(etype)
    if required is None:
        raise JournalError(f"unknown journal event type {etype!r}")
    missing = [k for k in required if k not in event]
    if missing:
        raise JournalError(f"{etype} event missing required keys: {missing}")
    if "version" in required:
        version = event["version"]
        if not isinstance(version, int) or isinstance(version, bool):
            raise JournalError(
                f"{etype} event has a non-integer schema version {version!r}"
            )
        if version > JOURNAL_VERSION:
            raise JournalError(
                f"unsupported journal schema version {version} "
                f"(this build reads up to v{JOURNAL_VERSION}); "
                f"upgrade repro to read this journal"
            )
    return event


class RunJournal:
    """JSONL event writer with a readable-prefix durability guarantee.

    The guarantee holds against process death, not power loss.
    ``append=True`` continues an existing journal (the checkpoint-resume
    path) instead of starting a fresh run file.
    """

    def __init__(self, path: Union[str, os.PathLike], append: bool = False) -> None:
        self.path = os.fspath(path)
        mode = "a" if append else "w"
        self._fh: Optional[IO[str]] = open(self.path, mode, encoding="utf-8")
        self.events_written = 0
        # Keeps each line's write+flush atomic against an emitter on
        # another thread, and emit atomic against close.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def emit(self, event: Dict) -> None:
        """Validate, serialize and durably append one event line."""
        validate_event(event)
        line = json.dumps(event, separators=(",", ":"), sort_keys=True, default=_jsonify)
        with self._lock:
            if self._fh is None:
                raise JournalError(f"journal {self.path} is closed")
            # One write call for the complete line, then flush: an
            # interrupt between events never tears a line.
            self._fh.write(line + "\n")
            self._fh.flush()
            self.events_written += 1

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    @property
    def closed(self) -> bool:
        return self._fh is None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class JournalTee:
    """One ``emit(event)`` sink fanning every event out to several, in
    order: the run journal, a live progress reporter, a test hook --
    anything with the journal's ``emit`` surface."""

    __slots__ = ("sinks",)

    def __init__(self, sinks) -> None:
        self.sinks = list(sinks)

    def emit(self, event: Dict) -> None:
        for sink in self.sinks:
            sink.emit(event)


def _jsonify(obj):
    """JSON fallback for config payloads (numpy scalars, odd objects)."""
    for cast in (int, float):
        try:
            return cast(obj)
        except (TypeError, ValueError):
            continue
    return str(obj)


def read_journal(
    path: Union[str, os.PathLike],
    strict: bool = False,
    validate: bool = True,
    skip_unknown: bool = False,
) -> Iterator[Dict]:
    """Yield the parsed events of a journal file in order.

    In the default non-strict mode a torn **final** line (one without
    its newline: the one partial write an interrupt can leave behind,
    or a line the writer is still writing) is silently ignored -- the
    same line :func:`truncate_torn_tail` cuts before a resume appends,
    so no reader ever counts an event a resume could remove.  Any other
    malformed or mid-file garbage line raises :class:`JournalError`
    either way, because it means the file is not a journal prefix but a
    corrupted stream.

    ``skip_unknown=True`` silently drops well-formed events whose type
    this build has never heard of (the forward-compat contract for the
    analysis readers: a v5 journal's new event types degrade to "not
    shown" in ``report``/``compare``/``audit`` instead of erroring).
    Version-carrying events are still version-checked -- a journal a
    *newer schema* wrote is rejected with a clear error either way.
    """
    with open(os.fspath(path), "r", encoding="utf-8") as fh:
        raw = fh.read()
    lines = raw.split("\n")
    trailing_complete = lines and lines[-1] == ""
    if trailing_complete:
        lines.pop()
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        if i == len(lines) - 1 and not trailing_complete and not strict:
            return  # torn final line from an interrupted run
        try:
            event = json.loads(line)
            if (
                skip_unknown
                and isinstance(event, dict)
                and event.get("event") not in REQUIRED_KEYS
            ):
                continue
            if validate:
                validate_event(event)
        except (json.JSONDecodeError, JournalError) as exc:
            raise JournalError(f"{path}: bad journal line {i + 1}: {exc}") from exc
        yield event


def load_journal(
    path: Union[str, os.PathLike],
    strict: bool = False,
    validate: bool = True,
    skip_unknown: bool = False,
) -> List[Dict]:
    """Eager list form of :func:`read_journal`."""
    return list(
        read_journal(
            path, strict=strict, validate=validate, skip_unknown=skip_unknown
        )
    )


def journal_events(paths: Iterable[Union[str, os.PathLike]]) -> List[Dict]:
    """The events of one run's journal files, in order, as far as they read.

    Each file contributes its readable prefix (:func:`read_journal`,
    unvalidated): a missing file contributes nothing, and mid-file
    garbage ends that file's contribution instead of raising.  Safe to
    call while the run is still writing -- the service's live event
    stream and ``repro postmortem`` read a run this way.
    """
    events: List[Dict] = []
    for path in paths:
        try:
            events.extend(read_journal(path, validate=False))
        except (OSError, ValueError):  # JournalError, undecodable bytes
            continue
    return events


def truncate_torn_tail(path: Union[str, os.PathLike]) -> bool:
    """Cut a torn (newline-less) final line off a journal file.

    A run killed *during* its one write per event can leave exactly one
    partial final line; appending new events after it would weld two
    events into mid-file garbage.  Truncating to the last complete line
    restores the readable-prefix invariant before a resume appends.
    Returns True when bytes were removed.
    """
    path = os.fspath(path)
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw or raw.endswith(b"\n"):
        return False
    keep = raw.rfind(b"\n") + 1  # 0 when no complete line exists
    with open(path, "rb+") as fh:
        fh.truncate(keep)
    return True
