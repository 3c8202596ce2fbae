"""Progress of a simplification, folded from its journal events.

A :class:`ProgressReporter` is a journal *sink*: it exposes the same
``emit(event)`` surface as :class:`~repro.obs.journal.RunJournal`, so
the greedy loop fans the one event stream out to it alongside the run
journal -- no second instrumentation channel.  It folds the events
into one payload (:meth:`ProgressReporter.snapshot`): iteration index,
committed faults, area trajectory and RS budget used.

The journal is the run's one durable record, so every machine-readable
progress view is the same fold over events already on disk:
:func:`progress_from_events` (what the job server answers status polls
with, and what a monitor runs on a live journal prefix).  The reporter
itself only adds the human view: a single stderr line, rewritten with
``\\r`` at each run header, commit and summary, produced only when a
stream is given -- the CLI passes stderr exactly when it is a TTY and
``--quiet`` is not set, which is what keeps ``--quiet`` genuinely
silent.

``emit``/``close`` serialize under an internal lock (same contract as
:class:`~repro.obs.journal.RunJournal`), so a reporter stays
consistent whichever thread feeds or closes it.
"""

from __future__ import annotations

import threading
from typing import Dict, IO, Iterable, Optional

__all__ = ["ProgressReporter", "progress_from_events"]


class ProgressReporter:
    """Journal-event fold with an optional live line (see module docstring).

    ``stream`` is the writable text stream for the live line (``None``
    disables it: the reporter then only folds).
    """

    def __init__(self, stream: Optional[IO[str]] = None) -> None:
        self.stream = stream
        self._line_open = False
        self._lock = threading.Lock()
        self._reset()

    def _reset(self) -> None:
        self.circuit: Optional[str] = None
        self.area_start: Optional[int] = None
        self.area: Optional[int] = None
        self.rs = 0.0
        self.rs_threshold: Optional[float] = None
        self.iteration = -1
        self.faults_committed = 0
        self.status = "running"

    # ------------------------------------------------------------------
    # sink interface (mirrors RunJournal.emit)
    # ------------------------------------------------------------------
    def emit(self, event: Dict) -> None:
        with self._lock:
            if self._handle(event):
                self._write_line()

    def _handle(self, event: Dict) -> bool:
        """Fold one event; ``False`` for an event the fold ignores."""
        etype = event.get("event")
        if etype == "run_start":
            self._reset()
            self.circuit = event.get("circuit")
            self.area_start = self.area = event.get("area")
            self.rs_threshold = event.get("rs_threshold")
        elif etype == "resume":
            self.circuit = event.get("circuit", self.circuit)
            self.area = event.get("area", self.area)
            if self.area_start is None:
                self.area_start = self.area
            self.rs = float(event.get("rs") or 0.0)
            self.faults_committed = int(event.get("replayed_iterations") or 0)
        elif etype == "iteration":
            self.iteration = event.get("index", self.iteration + 1)
            self.faults_committed += 1
            if self.area_start is None:
                self.area_start = event.get("area_before")
            self.area = event.get("area_after", self.area)
            self.rs = float(event.get("rs") or 0.0)
        elif etype == "summary":
            self.status = "complete"
            self.area = event.get("area_after", self.area)
        else:
            return False
        return True

    def close(self) -> None:
        """Mark an unfinished run interrupted and end the live line."""
        with self._lock:
            if self.status == "running":
                self.status = "interrupted"
            if self.stream is not None and self._line_open:
                try:
                    self.stream.write("\n")
                    self.stream.flush()
                except (OSError, ValueError):
                    pass
                self._line_open = False

    # ------------------------------------------------------------------
    # derived readings
    # ------------------------------------------------------------------
    @property
    def area_reduction_pct(self) -> Optional[float]:
        if not self.area_start or self.area is None:
            return None
        return 100.0 * (self.area_start - self.area) / self.area_start

    @property
    def rs_budget_used_pct(self) -> Optional[float]:
        if not self.rs_threshold:
            return None
        return 100.0 * self.rs / self.rs_threshold

    def snapshot(self) -> Dict:
        """The machine-readable progress payload."""
        return {
            "status": self.status,
            "circuit": self.circuit,
            "iteration": self.iteration,
            "faults_committed": self.faults_committed,
            "area_start": self.area_start,
            "area": self.area,
            "area_reduction_pct": self.area_reduction_pct,
            "rs": self.rs,
            "rs_threshold": self.rs_threshold,
            "rs_budget_used_pct": self.rs_budget_used_pct,
        }

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def _write_line(self) -> None:
        if self.stream is None:
            return
        parts = [f"[{self.circuit or '?'}]"]
        if self.status == "running":
            parts.append(f"iter {max(self.iteration, 0)}")
        else:
            parts.append(self.status)
        parts.append(f"faults {self.faults_committed}")
        if self.area is not None and self.area_start:
            parts.append(
                f"area {self.area_start}->{self.area} "
                f"(-{self.area_reduction_pct:.1f}%)"
            )
        if self.rs_threshold:
            parts.append(
                f"RS {self.rs:.4g}/{self.rs_threshold:.4g} "
                f"({self.rs_budget_used_pct:.0f}%)"
            )
        line = "  ".join(parts)
        try:
            self.stream.write("\r" + line.ljust(78))
            self.stream.flush()
        except (OSError, ValueError):
            return
        self._line_open = True


def progress_from_events(events: Iterable[Dict]) -> Optional[Dict]:
    """The progress payload of events already journaled; ``None`` if empty.

    The same fold a live :class:`ProgressReporter` runs, so it equals
    the snapshot of a reporter that was fed the same events.  A journal
    prefix without its ``summary`` reads ``"running"``.
    """
    reporter = ProgressReporter()
    seen = False
    for event in events:
        reporter._handle(event)
        seen = True
    return reporter.snapshot() if seen else None
