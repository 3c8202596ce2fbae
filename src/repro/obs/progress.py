"""Live heartbeat over a running simplification: TTY line + progress.json.

A :class:`ProgressReporter` is a journal *sink*: it exposes the same
``emit(event)`` surface as :class:`~repro.obs.journal.RunJournal`, so
the greedy loop fans the one event stream out to it alongside the run
journal -- no second instrumentation channel, and the progress view
can never disagree with what the journal recorded.

Two outputs, both optional:

* **TTY line** -- a single ``\\r``-rewritten stderr line per committed
  step: iteration index, committed faults, area trajectory, RS budget
  used, and an ETA.  The ETA comes from an EWMA over the per-iteration
  phase times (the journal's ``phase_times``) combined with an EWMA of
  the RS consumed per step: remaining budget / RS-per-step gives the
  expected remaining steps, times seconds-per-step gives seconds.
  Early iterations are cheap and consume little budget, so the EWMA
  (alpha 0.3) tracks the expensive tail rather than the optimistic
  head.  The line is only produced when a stream is given -- the CLI
  passes stderr exactly when it is a TTY and ``--quiet`` is not set,
  which is what keeps ``--quiet`` genuinely silent;
* **progress.json** -- a machine-readable snapshot written atomically
  (tmp file + :func:`os.replace`, so a monitor never reads a torn
  JSON) at most once per ``interval_s`` seconds, plus once at run start
  and once at completion.  External monitors poll this file; a resumed
  run (checkpoint) simply starts overwriting it again.

``emit``/``close`` serialize under an internal lock (same contract as
:class:`~repro.obs.journal.RunJournal`), so a reporter stays
consistent whichever thread feeds or closes it.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, IO, Optional, Union

__all__ = ["ProgressReporter"]

_EWMA_ALPHA = 0.3


class ProgressReporter:
    """Journal-event-driven heartbeat (see module docstring).

    Parameters
    ----------
    stream:
        Writable text stream for the live line (``None`` disables it).
    json_path:
        Path for the atomic machine-readable snapshot (``None``
        disables it).
    interval_s:
        Minimum seconds between two snapshot writes (events arriving
        faster are coalesced; run start/end always write).
    """

    def __init__(
        self,
        stream: Optional[IO[str]] = None,
        json_path: Optional[Union[str, os.PathLike]] = None,
        interval_s: float = 2.0,
    ) -> None:
        self.stream = stream
        self.json_path = os.fspath(json_path) if json_path is not None else None
        self.interval_s = float(interval_s)
        self.writes = 0
        self._last_write = float("-inf")
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
        self._t_start = time.monotonic()
        self._ewma_step_s: Optional[float] = None
        self._ewma_step_rs: Optional[float] = None
        self._prev_rs = 0.0

    # ------------------------------------------------------------------
    # sink interface (mirrors RunJournal.emit)
    # ------------------------------------------------------------------
    def emit(self, event: Dict) -> None:
        with self._lock:
            self._handle(event)

    def _handle(self, event: Dict) -> None:
        etype = event.get("event")
        if etype == "run_start":
            self._reset()
            self.circuit = event.get("circuit")
            self.area_start = self.area = event.get("area")
            self.rs_threshold = event.get("rs_threshold")
            self._refresh(force=True)
        elif etype == "resume":
            self.circuit = event.get("circuit", self.circuit)
            self.area = event.get("area", self.area)
            if self.area_start is None:
                self.area_start = self.area
            self.rs = self._prev_rs = float(event.get("rs") or 0.0)
            self.faults_committed = int(event.get("replayed_iterations") or 0)
            self._refresh(force=True)
        elif etype == "iteration":
            self.iteration = event.get("index", self.iteration + 1)
            self.faults_committed += 1
            if self.area_start is None:
                self.area_start = event.get("area_before")
            self.area = event.get("area_after", self.area)
            self.rs = float(event.get("rs") or 0.0)
            step_s = sum((event.get("phase_times") or {}).values())
            step_rs = max(self.rs - self._prev_rs, 0.0)
            self._prev_rs = self.rs
            self._ewma_step_s = _ewma(self._ewma_step_s, step_s)
            self._ewma_step_rs = _ewma(self._ewma_step_rs, step_rs)
            self._refresh()
        elif etype == "summary":
            self.status = "complete"
            self.area = event.get("area_after", self.area)
            self._refresh(force=True)

    def close(self) -> None:
        """Finish the live line (newline) and flush a final snapshot."""
        with self._lock:
            if self.status == "running":
                self.status = "interrupted"
            self._write_json()
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
    def elapsed_s(self) -> float:
        return time.monotonic() - self._t_start

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

    def eta_s(self) -> Optional[float]:
        """Expected remaining seconds; ``None`` before any signal."""
        if self.status != "running" or self.rs_threshold is None:
            return None
        if not self._ewma_step_s or not self._ewma_step_rs:
            return None
        remaining = max(self.rs_threshold - self.rs, 0.0)
        steps_left = remaining / self._ewma_step_rs
        return steps_left * self._ewma_step_s

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
            "elapsed_s": self.elapsed_s,
            "step_time_ewma_s": self._ewma_step_s,
            "eta_s": self.eta_s(),
            "updated_unix": time.time(),
        }

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def _refresh(self, force: bool = False) -> None:
        now = time.monotonic()
        if force or now - self._last_write >= self.interval_s:
            self._last_write = now
            self._write_json()
        self._write_line()

    def _write_json(self) -> None:
        if self.json_path is None:
            return
        tmp = f"{self.json_path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, self.json_path)
        self.writes += 1

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
        eta = self.eta_s()
        if eta is not None:
            parts.append(f"ETA {_fmt_eta(eta)}")
        line = "  ".join(parts)
        try:
            self.stream.write("\r" + line.ljust(78))
            self.stream.flush()
        except (OSError, ValueError):
            return
        self._line_open = True


def _ewma(previous: Optional[float], value: float) -> float:
    if previous is None:
        return value
    return previous + _EWMA_ALPHA * (value - previous)


def _fmt_eta(seconds: float) -> str:
    seconds = int(round(seconds))
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    return f"{seconds // 60}m{seconds % 60:02d}s"
