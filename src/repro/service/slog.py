"""Structured JSONL service logs: one access log, one lifecycle log.

``logging``'s debug lines are for humans tailing a terminal; the
service also keeps logs a script can join on.  :class:`ServiceLog`
writes two append-only JSONL files under ``<data_dir>/logs/``:

* ``access.jsonl`` -- one record per HTTP request (method, path,
  status, duration, client).  This replaces the handler's
  debug-only ``log_message`` as the request record of note.
* ``events.jsonl`` -- one record per job lifecycle transition
  (``submitted``/``started``/``attempt``/``done``/...), each carrying
  ``job_id``.  Grepping one job id through this file yields the job's
  full service-side history; the runner-side half lives in the job's
  journal (``jobs/<job_id>/checkpoint.jsonl``).

Records are single JSON lines flushed under a lock -- the same
readable-prefix durability story as the run journal: a crash loses at
most the line being written.  Timestamps are ``time.time()`` floats
(``ts``); every record carries a ``kind``.  Both files grow without
bound; the files are opened in append mode, so an external rotator
that truncates them in place (``logrotate``'s ``copytruncate``) is safe.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from typing import Dict, Optional, TextIO

__all__ = ["ServiceLog"]

logger = logging.getLogger("repro.service.slog")


class ServiceLog:
    """Append-only JSONL access + lifecycle logs for one service."""

    def __init__(self, log_dir: str) -> None:
        self.log_dir = os.path.abspath(log_dir)
        os.makedirs(self.log_dir, exist_ok=True)
        self.access_path = os.path.join(self.log_dir, "access.jsonl")
        self.events_path = os.path.join(self.log_dir, "events.jsonl")
        self._lock = threading.Lock()
        # Append mode: a restarted service continues the same files,
        # so one log covers the data dir's whole history.
        self._fh: Dict[str, Optional[TextIO]] = {
            "access": open(self.access_path, "a", encoding="utf-8"),
            "events": open(self.events_path, "a", encoding="utf-8"),
        }

    # ------------------------------------------------------------------
    def access(
        self,
        method: str,
        path: str,
        status: int,
        duration_ms: float,
        client: Optional[str] = None,
    ) -> None:
        """Record one served HTTP request."""
        record = {
            "ts": time.time(),
            "kind": "access",
            "method": method,
            "path": path,
            "status": int(status),
            "duration_ms": round(float(duration_ms), 3),
        }
        if client:
            record["client"] = client
        self._emit("access", record)

    def event(self, kind: str, job_id: Optional[str] = None, **fields) -> None:
        """Record one job lifecycle transition (or service event)."""
        record: Dict = {"ts": time.time(), "kind": kind}
        if job_id is not None:
            record["job_id"] = job_id
        record.update(fields)
        self._emit("events", record)

    def _emit(self, name: str, record: Dict) -> None:
        line = json.dumps(record, sort_keys=True, default=str)
        try:
            with self._lock:
                fh = self._fh.get(name)
                if fh is None:
                    return
                fh.write(line + "\n")
                fh.flush()
        except (OSError, ValueError):  # pragma: no cover - disk full/closed
            # Losing a log line must never take a request down with it.
            logger.debug("service log write failed", exc_info=True)

    def close(self) -> None:
        with self._lock:
            for name, fh in self._fh.items():
                if fh is not None:
                    try:
                        fh.close()
                    except OSError:  # pragma: no cover
                        pass
                self._fh[name] = None

