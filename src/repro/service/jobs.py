"""Job records and the bounded FIFO job store.

A :class:`Job` is one submitted ``SimplifyRequest`` bound to one
netlist.  Its durable state lives in a per-job directory under the
service data dir::

    jobs/<id>/
      request.json     # the submitted SimplifyRequest (versioned JSON)
      netlist.bench    # the exact netlist text the job optimizes
      checkpoint.jsonl # the run journal: checkpoint, event stream, crash record
      runner.log       # every attempt's stderr + the supervisor's verdicts
      outcome.json     # the SimplifyOutcome, written once on success
      error.json       # typed error body, written once on failure

(``fom="best"`` requests suffix the checkpoint per constituent FOM,
exactly like the CLI; :func:`job_journal_paths`.)  Because the
checkpoint is the journal ``circuit_simplify`` resumes from,
*re-running a job directory is the crash-recovery story*: a worker
that died mid-run left a readable prefix, and the next attempt replays
it and appends to it -- so the one file also holds the job's full
event history across attempts.  It is also the job's one live record:
status polls fold the job's progress from it
(:func:`~repro.obs.progress.progress_from_events`).

The :class:`JobStore` owns the id space, the directories, and a
bounded FIFO queue (``queue.Queue``).  The store lives in memory, so a
restarted server numbers its jobs past every ``job-NNNNNN`` directory
already on disk: a new job never inherits an old job's files.
Submission is content-aware: each job carries a ``cache_key =
(circuit_fingerprint, request fingerprint)``; a submit whose key
matches a live (queued/running) or completed job returns that job
instead of enqueueing a duplicate -- the in-flight half of the
result-cache contract (the across-restart half is
:class:`~repro.service.cache.ResultCache`).
"""

from __future__ import annotations

import itertools
import logging
import os
import queue
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core.api import SimplifyRequest, journal_paths
from ..core.errors import JobNotFoundError, QueueFullError
from ..obs.journal import journal_events
from ..obs.progress import progress_from_events

__all__ = [
    "Job",
    "JobStore",
    "ACTIVE_STATES",
    "TERMINAL_STATES",
    "job_journal_events",
    "job_journal_paths",
]

logger = logging.getLogger("repro.service.jobs")

#: Job lifecycle: queued -> running -> done | failed | cancelled
#: (running -> queued again on a worker crash, until the retry budget).
ACTIVE_STATES = ("queued", "running")
TERMINAL_STATES = ("done", "failed", "cancelled")

_JOB_DIR_RE = re.compile(r"job-(\d+)")


@dataclass
class Job:
    """One submitted simplification run and its service-side state."""

    id: str
    dir: str
    request: SimplifyRequest
    cache_key: str
    circuit_name: str
    state: str = "queued"
    cached: bool = False
    deduplicated: bool = False
    attempts: int = 0
    max_attempts: int = 3
    error: Optional[Dict] = None
    worker_pid: Optional[int] = None
    submitted_unix: float = field(default_factory=time.time)
    finished_unix: Optional[float] = None
    cancel_requested: bool = False

    # paths ------------------------------------------------------------
    @property
    def netlist_path(self) -> str:
        return os.path.join(self.dir, "netlist.bench")

    @property
    def request_path(self) -> str:
        return os.path.join(self.dir, "request.json")

    @property
    def checkpoint_path(self) -> str:
        return os.path.join(self.dir, "checkpoint.jsonl")

    @property
    def outcome_path(self) -> str:
        return os.path.join(self.dir, "outcome.json")

    @property
    def error_path(self) -> str:
        return os.path.join(self.dir, "error.json")

    @property
    def log_path(self) -> str:
        """``runner.log``: the attempts' stderr and the supervisor's verdicts."""
        return os.path.join(self.dir, "runner.log")

    # views --------------------------------------------------------------
    def progress(self, events: Optional[List[Dict]] = None) -> Optional[Dict]:
        """The job's progress, folded from its journal events.

        ``events`` are the job's journal events when the caller has
        already read them (default: :func:`job_journal_events`).
        ``None`` until the runner has journaled anything.  A finished
        job whose journal has no ``summary`` reads ``"interrupted"``.
        """
        snap = progress_from_events(
            job_journal_events(self) if events is None else events
        )
        finished = self.state in TERMINAL_STATES
        if snap is not None and finished and snap["status"] == "running":
            snap["status"] = "interrupted"
        return snap

    def snapshot(self) -> Dict:
        """The wire form served by ``GET /v1/jobs/<id>``."""
        body = {
            "job_id": self.id,
            "state": self.state,
            "circuit": self.circuit_name,
            "cache_key": self.cache_key,
            "cached": self.cached,
            "deduplicated": self.deduplicated,
            "attempts": self.attempts,
            "submitted_unix": self.submitted_unix,
            "finished_unix": self.finished_unix,
            "cancel_requested": self.cancel_requested,
        }
        if self.worker_pid is not None and self.state == "running":
            body["worker_pid"] = self.worker_pid
        if self.error is not None:
            body["error"] = self.error.get("error", self.error)
        progress = self.progress()
        if progress is not None:
            body["progress"] = progress
        return body


class JobStore:
    """Thread-safe registry + bounded FIFO queue of jobs.

    All mutation happens under one lock; the queue itself only carries
    job ids (the worker re-checks the record after popping, so a
    cancel that lands while the id is queued wins the race).

    ``on_transition`` is the observability hook: a callable
    ``(kind, job)`` fired *after* the lock is released on every
    lifecycle edge (``submitted``/``deduplicated``/``cached``/
    ``started``/``requeued``/``cancel_requested``/``done``/``failed``/
    ``cancelled``).  The service wires it to the lifecycle log; an
    observer that raises is logged and dropped, never allowed to
    corrupt store state.
    """

    def __init__(
        self,
        root: str,
        queue_limit: int = 64,
        max_attempts: int = 3,
        on_transition: Optional[Callable[[str, Job], None]] = None,
    ):
        # queue.Queue(maxsize <= 0) is unbounded: it would never refuse.
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.root = os.path.abspath(root)
        jobs_root = os.path.join(self.root, "jobs")
        os.makedirs(jobs_root, exist_ok=True)
        self._jobs: Dict[str, Job] = {}
        self._by_key: Dict[str, str] = {}  # cache_key -> newest job id
        self._queue: "queue.Queue[str]" = queue.Queue(maxsize=queue_limit)
        self._lock = threading.Lock()
        # A data dir outlives the store: number past the jobs on disk.
        taken = [
            int(m.group(1))
            for m in map(_JOB_DIR_RE.fullmatch, os.listdir(jobs_root))
            if m is not None
        ]
        self._ids = itertools.count(max(taken, default=0) + 1)
        self.max_attempts = max_attempts
        self.on_transition = on_transition

    def _new_job_dir(self) -> Tuple[str, str]:
        """A fresh ``(job id, directory)``; never an existing directory."""
        job_id = f"job-{next(self._ids):06d}"
        job_dir = os.path.join(self.root, "jobs", job_id)
        os.makedirs(job_dir, exist_ok=False)
        return job_id, job_dir

    def _notify(self, kind: str, job: Job) -> None:
        """Fire the transition observer outside the store lock."""
        cb = self.on_transition
        if cb is None:
            return
        try:
            cb(kind, job)
        except Exception:  # noqa: BLE001 - observers must not break the store
            logger.exception("job transition observer failed (%s %s)", kind, job.id)

    # ------------------------------------------------------------------
    def submit(
        self,
        request: SimplifyRequest,
        netlist_text: str,
        cache_key: str,
        circuit_name: str,
    ) -> Job:
        """Register (or deduplicate) one job and enqueue it.

        Returns an existing job when ``cache_key`` matches one that is
        queued, running, or done -- the duplicate submission costs no
        second run.  Failed/cancelled jobs do *not* deduplicate: a
        resubmit after failure is an explicit retry.
        """
        with self._lock:
            prior_id = self._by_key.get(cache_key)
            prior = None
            if prior_id is not None:
                prior = self._jobs.get(prior_id)
                if prior is not None and prior.state in ("queued", "running", "done"):
                    prior.deduplicated = True
                else:
                    prior = None
            if prior is None:
                # Only this lock's holders put, so a free slot stays free
                # until the put below: check before any directory exists.
                if self._queue.full():
                    raise QueueFullError(
                        f"job queue is full ({self._queue.maxsize} pending); "
                        f"retry later"
                    )
                job_id, job_dir = self._new_job_dir()
                job = Job(
                    id=job_id,
                    dir=job_dir,
                    request=request,
                    cache_key=cache_key,
                    circuit_name=circuit_name,
                    max_attempts=self.max_attempts,
                )
                with open(job.netlist_path, "w", encoding="utf-8") as fh:
                    fh.write(netlist_text)
                with open(job.request_path, "w", encoding="utf-8") as fh:
                    fh.write(request.to_json())
                    fh.write("\n")
                self._queue.put_nowait(job.id)
                self._jobs[job.id] = job
                self._by_key[cache_key] = job.id
        if prior is not None:
            self._notify("deduplicated", prior)
            return prior
        self._notify("submitted", job)
        return job

    def complete_from_cache(
        self,
        request: SimplifyRequest,
        cache_key: str,
        circuit_name: str,
    ) -> Job:
        """Register a job that is already satisfied by the result cache.

        No directory contents beyond the request marker, no queue slot:
        the job is born ``done`` and its result is served straight from
        the cache entry."""
        with self._lock:
            job_id, job_dir = self._new_job_dir()
            job = Job(
                id=job_id,
                dir=job_dir,
                request=request,
                cache_key=cache_key,
                circuit_name=circuit_name,
                state="done",
                cached=True,
                finished_unix=time.time(),
            )
            with open(job.request_path, "w", encoding="utf-8") as fh:
                fh.write(request.to_json())
                fh.write("\n")
            self._jobs[job.id] = job
            self._by_key[cache_key] = job.id
        self._notify("cached", job)
        return job

    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(f"no such job: {job_id}")
        return job

    def list(self) -> List[Job]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.id)

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def next_job(self, timeout: float = 0.2) -> Optional[Job]:
        """Pop the next runnable job; ``None`` on timeout.

        Cancelled-while-queued jobs are finalized here (their queue
        slot is consumed) instead of reaching a worker."""
        try:
            job_id = self._queue.get(timeout=timeout)
        except queue.Empty:
            return None
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if job.cancel_requested:
                self._finish_locked(job, "cancelled")
                kind = "cancelled"
            else:
                job.state = "running"
                job.attempts += 1
                kind = "started"
        self._notify(kind, job)
        return job if kind == "started" else None

    def requeue(self, job: Job) -> bool:
        """Put a crashed job back in line (resume path).

        Returns False when the retry budget is exhausted or the queue
        is full -- the caller fails the job with the reason."""
        with self._lock:
            if job.attempts >= job.max_attempts:
                return False
            try:
                self._queue.put_nowait(job.id)
            except queue.Full:
                return False
            job.state = "queued"
            job.worker_pid = None
        self._notify("requeued", job)
        return True

    def finish(self, job: Job, state: str, error: Optional[Dict] = None) -> None:
        with self._lock:
            self._finish_locked(job, state, error)
        self._notify(state, job)

    def _finish_locked(self, job: Job, state: str, error: Optional[Dict] = None) -> None:
        job.state = state
        job.error = error
        job.worker_pid = None
        job.finished_unix = time.time()

    def cancel(self, job_id: str) -> Job:
        """Request cancellation; the actual teardown is cooperative.

        Queued jobs die when a worker (or ``next_job``) next sees them;
        running jobs are killed by the worker pool, which watches this
        flag.  Finished jobs are left untouched."""
        job = self.get(job_id)
        requested = False
        with self._lock:
            if job.state in ACTIVE_STATES and not job.cancel_requested:
                job.cancel_requested = True
                requested = True
        if requested:
            self._notify("cancel_requested", job)
        return job


# ----------------------------------------------------------------------
# journal views (the /v1/jobs/<id>/events read path)
# ----------------------------------------------------------------------
def job_journal_paths(job: Job) -> List[str]:
    """The job's journal files in execution order.

    A single-FOM request writes the bare ``checkpoint.jsonl``;
    ``fom="best"`` writes one file per constituent run
    (:func:`repro.core.api.journal_paths`).  Each file only grows (a
    resume appends after truncating a torn tail no reader counted), so
    concatenating the files yields the job's event timeline, and an
    event *index* into the concatenation is a stable streaming cursor.
    """
    return journal_paths(job.checkpoint_path, job.request.fom)


def job_journal_events(job: Job) -> List[Dict]:
    """Every journal event the job's runners have written so far.

    The readable prefix of each journal file
    (:func:`~repro.obs.journal.journal_events`: a torn final line -- the
    runner mid-write or mid-crash -- is not counted, exactly the
    journal durability contract).  Every attempt's events are there: a
    resumed attempt appends a ``resume`` marker and continues the same
    file.  Safe to call while the runner is writing.
    """
    return journal_events(job_journal_paths(job))
