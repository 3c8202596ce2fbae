"""Job records and the bounded FIFO job store.

A :class:`Job` is one submitted ``SimplifyRequest`` bound to one
netlist.  Its durable state lives in a per-job directory under the
service data dir::

    jobs/<id>/
      request.json     # the submitted SimplifyRequest (versioned JSON)
      netlist.bench    # the exact netlist text the job optimizes
      checkpoint.jsonl # the run journal: crash checkpoint + event stream
      progress.json    # atomic heartbeat snapshot (live progress feed)
      outcome.json     # the SimplifyOutcome, written once on success
      error.json       # typed error body, written once on failure

(``fom="best"`` requests suffix the checkpoint per constituent FOM,
exactly like the CLI.)  Because the checkpoint is the journal
``circuit_simplify`` resumes from, *re-running a job directory is the
crash-recovery story*: a worker that died mid-run left a readable
prefix, and the next attempt replays it and appends to it -- so the
one file also holds the job's full event history across attempts.

The :class:`JobStore` owns the id space, the directories, and a
bounded FIFO queue (``queue.Queue``).  Submission is content-aware:
each job carries a ``cache_key = (circuit_fingerprint, request
fingerprint)``; a submit whose key matches a live (queued/running) or
completed job returns that job instead of enqueueing a duplicate --
the in-flight half of the result-cache contract (the across-restart
half is :class:`~repro.service.cache.ResultCache`).
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..core.api import SimplifyRequest
from ..core.errors import JobNotFoundError, QueueFullError
from ..obs.core import NULL, Instrumentation

__all__ = [
    "Job",
    "JobStore",
    "ACTIVE_STATES",
    "TERMINAL_STATES",
    "job_activity_paths",
    "job_chrome_trace",
    "job_error_record",
    "job_journal_events",
]

logger = logging.getLogger("repro.service.jobs")

#: Job lifecycle: queued -> running -> done | failed | cancelled
#: (running -> queued again on a worker crash, until the retry budget).
ACTIVE_STATES = ("queued", "running")
TERMINAL_STATES = ("done", "failed", "cancelled")


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
    #: Correlation id (client-supplied or server-generated); also
    #: carried inside ``request``, so the runner journals it.
    trace_id: Optional[str] = None
    #: One record per worker attempt: ``{"attempt", "started_unix",
    #: "ended_unix", "outcome"}`` -- the service-side timing the
    #: ``/trace`` endpoint renders as attempt spans.
    attempt_history: List[Dict] = field(default_factory=list)
    #: Instrumentation registry for read-path counters (progress-file
    #: parse errors); injected by the owning store, never serialized.
    obs: Instrumentation = field(default=NULL, repr=False, compare=False)

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
    def progress_path(self) -> str:
        return os.path.join(self.dir, "progress.json")

    @property
    def outcome_path(self) -> str:
        return os.path.join(self.dir, "outcome.json")

    @property
    def error_path(self) -> str:
        return os.path.join(self.dir, "error.json")

    @property
    def crash_dir(self) -> str:
        """The job's crash-bundle directory (``repro.obs.flight``)."""
        return os.path.join(self.dir, "crash")

    # views --------------------------------------------------------------
    def progress(self) -> Optional[Dict]:
        """The latest heartbeat snapshot, if the runner wrote one.

        The file is replaced atomically (tmp + ``os.replace``), so a
        reader normally never sees a torn JSON -- but a hostile
        filesystem (NFS, a crashed runner's partial tmp rename, disk
        errors) can still serve garbage, and a status poll must answer
        regardless.  Absence is normal (no counter); any other read or
        parse failure returns ``None`` and increments
        ``service.progress_read_errors``.
        """
        try:
            with open(self.progress_path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            # ValueError covers JSONDecodeError and UnicodeDecodeError.
            self.obs.incr("service.progress_read_errors")
            logger.debug("unreadable progress file for %s", self.id, exc_info=True)
            return None
        if not isinstance(data, dict):
            self.obs.incr("service.progress_read_errors")
            return None
        return data

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
            "trace_id": self.trace_id,
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
    ``cancelled``).  The service wires it to the lifecycle log and the
    latency histograms; an observer that raises is logged and dropped,
    never allowed to corrupt store state.
    """

    def __init__(
        self,
        root: str,
        queue_limit: int = 64,
        max_attempts: int = 3,
        obs: Optional[Instrumentation] = None,
        on_transition: Optional[Callable[[str, Job], None]] = None,
    ):
        self.root = os.path.abspath(root)
        os.makedirs(os.path.join(self.root, "jobs"), exist_ok=True)
        self._jobs: Dict[str, Job] = {}
        self._by_key: Dict[str, str] = {}  # cache_key -> newest job id
        self._queue: "queue.Queue[str]" = queue.Queue(maxsize=queue_limit)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.max_attempts = max_attempts
        self.obs = obs if obs is not None else NULL
        self.on_transition = on_transition

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
        resubmit after failure is an explicit retry.  The request's
        ``trace_id`` (if any) becomes the job's correlation id and is
        persisted via ``request.json``, so the runner journals it.
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
                job_id = f"job-{next(self._ids):06d}"
                job_dir = os.path.join(self.root, "jobs", job_id)
                os.makedirs(job_dir, exist_ok=True)
                job = Job(
                    id=job_id,
                    dir=job_dir,
                    request=request,
                    cache_key=cache_key,
                    circuit_name=circuit_name,
                    max_attempts=self.max_attempts,
                    trace_id=request.trace_id,
                    obs=self.obs,
                )
                with open(job.netlist_path, "w", encoding="utf-8") as fh:
                    fh.write(netlist_text)
                with open(job.request_path, "w", encoding="utf-8") as fh:
                    fh.write(request.to_json())
                    fh.write("\n")
                try:
                    self._queue.put_nowait(job.id)
                except queue.Full:
                    raise QueueFullError(
                        f"job queue is full ({self._queue.maxsize} pending); "
                        f"retry later"
                    ) from None
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
            job_id = f"job-{next(self._ids):06d}"
            job_dir = os.path.join(self.root, "jobs", job_id)
            os.makedirs(job_dir, exist_ok=True)
            job = Job(
                id=job_id,
                dir=job_dir,
                request=request,
                cache_key=cache_key,
                circuit_name=circuit_name,
                state="done",
                cached=True,
                finished_unix=time.time(),
                trace_id=request.trace_id,
                obs=self.obs,
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
# journal views (the /v1/jobs/<id>/events and /trace read paths)
# ----------------------------------------------------------------------
#: Checkpoint file suffixes in execution order.  A single-FOM request
#: writes the bare ``checkpoint.jsonl``; ``fom="best"`` suffixes one
#: file per constituent run (see ``_per_fom_path``), and the runs
#: execute sequentially in exactly this order.  Each file only grows
#: (a resume appends after truncating a torn tail), so concatenating
#: the files yields the job's event timeline, and an event *index* into
#: the concatenation is a stable streaming cursor.
_JOURNAL_SUFFIXES = ("", ".area_per_rs", ".area")


def job_activity_paths(job: Job) -> List[str]:
    """Files whose mtime advance proves the runner is making progress.

    The hang watchdog's liveness signal: the checkpoint(s) and the
    progress heartbeat advance once per committed event, so a deadline
    with none of them moving means the child is wedged, not slow.
    Paths that don't exist yet are included (callers skip them).
    """
    paths = [job.checkpoint_path + suffix for suffix in _JOURNAL_SUFFIXES]
    paths.append(job.progress_path)
    return paths


def job_error_record(job: Job) -> Optional[Dict]:
    """The job's error-fingerprint record, or ``None`` when healthy.

    Path-level extraction lives in
    :func:`repro.obs.flight.job_dir_error_record`; this wrapper adds
    the identity the store holds in memory (job id, state, the
    submit-time trace id when the bundle predates one).
    """
    from ..obs.flight import job_dir_error_record

    record = job_dir_error_record(job.dir)
    if record is None:
        return None
    if not record.get("trace_id") and job.trace_id:
        record["trace_id"] = job.trace_id
    record["job_id"] = job.id
    record["state"] = job.state
    return record


def job_journal_events(job: Job) -> List[Dict]:
    """Every journal event the job's runners have written so far.

    Reads the readable prefix of each checkpoint file (a torn final
    line -- the runner mid-write or mid-crash -- ends that file's
    contribution, exactly the journal durability contract).  Every
    attempt's events are there: a resumed attempt appends a ``resume``
    marker and continues the same file.  Safe to call while the runner
    is writing.
    """
    events: List[Dict] = []
    for suffix in _JOURNAL_SUFFIXES:
        path = job.checkpoint_path + suffix
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for line in fh:
                    if not line.endswith("\n"):
                        break  # torn tail: the runner is mid-write
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        event = json.loads(line)
                    except json.JSONDecodeError:
                        break
                    if isinstance(event, dict):
                        events.append(event)
        except OSError:
            continue
    return events


def job_chrome_trace(job: Job, events: Optional[List[Dict]] = None) -> Dict:
    """One Perfetto-loadable Chrome trace for a job's whole lifetime.

    Lane 0 (``service``) carries the service-side wall-clock spans:
    the enclosing job span, the queue-wait span (submit to first
    attempt start) and one span per worker attempt, all rebased to the
    submission instant.  Lane 1 (``runner``) lays the journal's
    iteration phase times end-to-end from the first attempt start --
    the journal records durations, not wall-clock instants, so the
    runner lane is a faithful sequential reconstruction rather than a
    clock-synchronized overlay.  Telemetry samples become an ``rss_mb``
    counter track.  The trace id rides in every lane's metadata args.
    """
    if events is None:
        events = job_journal_events(job)
    base = job.submitted_unix
    end = job.finished_unix if job.finished_unix is not None else time.time()
    spans: List[Dict] = [
        {
            "pid": 0,
            "name": f"job {job.id} [{job.state}]",
            "t0_s": 0.0,
            "t1_s": max(end - base, 0.0),
            "args": {
                "job_id": job.id,
                "state": job.state,
                "circuit": job.circuit_name,
                "cache_key": job.cache_key,
                "cached": job.cached,
            },
        }
    ]
    history = list(job.attempt_history)
    first_start = history[0]["started_unix"] if history else None
    if first_start is not None:
        spans.append(
            {
                "pid": 0,
                "name": "queue-wait",
                "t0_s": 0.0,
                "t1_s": max(first_start - base, 0.0),
            }
        )
    for record in history:
        ended = record.get("ended_unix")
        spans.append(
            {
                "pid": 0,
                "name": f"attempt {record.get('attempt')}",
                "t0_s": max(record["started_unix"] - base, 0.0),
                "t1_s": max((ended if ended is not None else end) - base, 0.0),
                "args": {"outcome": record.get("outcome")},
            }
        )

    # Runner lane: iterations laid sequentially from the first attempt
    # start (or the submit instant for a job with no history yet).
    cursor = max(first_start - base, 0.0) if first_start is not None else 0.0
    runner_epoch = cursor
    counters: List[Dict] = []
    for event in events:
        etype = event.get("event")
        if etype in ("run_start", "resume"):
            runner_epoch = cursor
        elif etype == "iteration":
            duration = sum((event.get("phase_times") or {}).values())
            duration = max(float(duration), 1e-6)
            spans.append(
                {
                    "pid": 1,
                    "name": f"iter {event.get('index', '?')}",
                    "t0_s": cursor,
                    "t1_s": cursor + duration,
                    "args": {
                        "fault": event.get("fault"),
                        "area_after": event.get("area_after"),
                        "rs": event.get("rs"),
                    },
                }
            )
            cursor += duration
        elif etype == "telemetry" and event.get("lane") == "coordinator":
            counters.append(
                {
                    "pid": 1,
                    "name": "rss_mb",
                    "t_s": runner_epoch + float(event.get("t_s") or 0.0),
                    "value": float(event.get("rss_bytes") or 0) / 1e6,
                }
            )

    from ..obs.trace import chrome_trace_from_spans

    metadata = {"job_id": job.id}
    if job.trace_id:
        metadata["trace_id"] = job.trace_id
    return chrome_trace_from_spans(
        spans,
        counters,
        lane_names={0: "service", 1: "runner"},
        metadata=metadata,
    )
