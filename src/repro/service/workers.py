"""Worker pool: supervisor threads driving child-process job runners.

Each worker thread loops over :meth:`JobStore.next_job` and runs the
popped job as a *child process* (``python -m repro.service.runner
<jobdir>``).  The thread is a supervisor, not an executor: it watches
the child and the job's cancel flag, then classifies the exit by what
the runner left behind (see :mod:`repro.service.runner`):

* ``outcome.json``  -> success: store the result in the cache, mark done;
* ``error.json``    -> typed deterministic failure: mark failed, no retry;
* neither           -> the child crashed (SIGKILL, OOM, ...): re-queue
  within the retry budget.  The next attempt resumes from the job's
  checkpoint journal, so crash-then-resume completes bit-identically
  to an uninterrupted run.

Cancellation is cooperative-at-the-supervisor: the server flips
``cancel_requested`` and the watching thread terminates the child.

Hang watchdog (``hang_timeout_s``): a wedged child looks exactly like
a slow one from ``poll()``, so liveness is judged by *artifact
advance*: if none of the job's checkpoint/progress files gains
an mtime within the deadline, the supervisor sends ``SIGUSR1`` (the
runner's ``faulthandler`` answers with an all-thread stack dump into
``stacks.txt`` -- C-level, fires even when the GIL is wedged), waits a
grace period for the dump to land, then SIGKILLs and re-queues.  The
evidence is packaged as a ``crash/`` bundle
(:func:`repro.obs.flight.package_bundle`) fingerprinted by the stack
dump's normalized shape, so identical wedge points cluster at
``GET /v1/errors``.

Service counters recorded into the shared registry:
``service.jobs_completed`` / ``jobs_failed`` / ``jobs_cancelled`` /
``jobs_resumed`` / ``jobs_hung`` / ``cache_stores`` (plus the
server-side ``jobs_submitted`` / ``cache_hits`` /
``jobs_deduplicated``).
"""

from __future__ import annotations

import logging
import os
import signal
import subprocess
import sys
import threading
import time
from typing import List, Optional

from typing import Callable, Dict

from ..core.errors import BudgetExhaustedError, JobCancelledError, error_body
from ..obs.core import NULL, Instrumentation
from ..obs.flight import (
    STACKS_FILENAME,
    fingerprint_key,
    fingerprint_text,
    package_bundle,
)
from .cache import ResultCache
from .jobs import Job, JobStore, job_activity_paths, job_journal_events

__all__ = ["WorkerPool"]

logger = logging.getLogger("repro.service.workers")

_POLL_S = 0.05
#: After SIGUSR1, how long the hung child gets to flush its stack dump
#: before SIGKILL (it stays wedged -- this wait is for the dump, not
#: for a graceful exit).
_DUMP_GRACE_S = 1.0
#: Crash-bundle journal tail length (matches the in-process ring).
_TAIL_EVENTS = 64


def _runner_env(stall_s: Optional[float] = None) -> dict:
    """Child env with this repro importable regardless of install mode.

    ``stall_s`` arms the runner's *in-process* stall watchdog (see
    ``repro.service.runner``) so a wedged child saves a rich bundle
    itself before the supervisor's coarser deadline kills it.  An
    explicit ``REPRO_FLIGHT_STALL_S`` in the environment wins.
    """
    env = dict(os.environ)
    pkg_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = pkg_root if not existing else os.pathsep.join([pkg_root, existing])
    if stall_s and "REPRO_FLIGHT_STALL_S" not in env:
        env["REPRO_FLIGHT_STALL_S"] = f"{stall_s:g}"
    return env


def _latest_mtime(job: Job) -> float:
    """Newest mtime across the job's liveness files (0.0 = none yet)."""
    latest = 0.0
    for path in job_activity_paths(job):
        try:
            latest = max(latest, os.path.getmtime(path))
        except OSError:
            continue
    return latest


class WorkerPool:
    """``workers`` supervisor threads consuming one :class:`JobStore`."""

    def __init__(
        self,
        store: JobStore,
        cache: ResultCache,
        workers: int = 2,
        obs: Optional[Instrumentation] = None,
        on_attempt: Optional[Callable[[Job, Dict], None]] = None,
        hang_timeout_s: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if hang_timeout_s is not None and hang_timeout_s <= 0:
            hang_timeout_s = None
        self.store = store
        self.cache = cache
        self.workers = workers
        self.obs = obs if obs is not None else NULL
        #: Observability hook fired after every finished attempt with
        #: ``(job, record)``; the record is also appended to
        #: ``job.attempt_history`` (the ``/trace`` endpoint's source).
        self.on_attempt = on_attempt
        #: Hang watchdog deadline: kill an attempt whose checkpoint/
        #: progress files all stop advancing for this long.
        #: ``None`` disables the watchdog (safe for workloads whose
        #: single iterations legitimately outlast any fixed deadline).
        self.hang_timeout_s = hang_timeout_s
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._threads:
            raise RuntimeError("worker pool already started")
        for i in range(self.workers):
            t = threading.Thread(
                target=self._loop, name=f"repro-worker-{i}", daemon=True
            )
            t.start()
            self._threads.append(t)

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        for t in self._threads:
            t.join(timeout=timeout)
        self._threads = []

    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.is_set():
            job = self.store.next_job(timeout=0.2)
            if job is None:
                continue
            try:
                self._run_attempt(job)
            except Exception:  # noqa: BLE001 - supervisor must survive
                logger.exception("worker crashed supervising %s", job.id)
                self.store.finish(
                    job,
                    "failed",
                    error_body(BudgetExhaustedError("worker supervisor error")),
                )
                self.obs.incr("service.jobs_failed")

    def _run_attempt(self, job: Job) -> None:
        """One child-process attempt at ``job`` (already marked running)."""
        if job.attempts > 1:
            # Crash recovery: the previous attempt left a checkpoint
            # prefix that this one resumes from.
            self.obs.incr("service.jobs_resumed")
            logger.info("resuming %s (attempt %d)", job.id, job.attempts)
        started_unix = time.time()
        stall_s = self.hang_timeout_s / 2 if self.hang_timeout_s else None
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service.runner", job.dir],
            env=_runner_env(stall_s),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        job.worker_pid = proc.pid
        cancelled = False
        hung = False
        last_mtime = 0.0
        last_advance = time.monotonic()
        while True:
            if proc.poll() is not None:
                break
            if job.cancel_requested or self._stop.is_set():
                cancelled = job.cancel_requested
                proc.terminate()
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
                break
            if self.hang_timeout_s is not None:
                mtime = _latest_mtime(job)
                if mtime > last_mtime:
                    last_mtime = mtime
                    last_advance = time.monotonic()
                elif time.monotonic() - last_advance >= self.hang_timeout_s:
                    hung = True
                    self._dump_and_kill(proc)
                    break
            time.sleep(_POLL_S)

        if hung:
            self._handle_hang(job, started_unix)
            return
        if cancelled:
            self._record_attempt(job, started_unix, "cancelled")
            self.store.finish(
                job, "cancelled", error_body(JobCancelledError("cancelled by client"))
            )
            self.obs.incr("service.jobs_cancelled")
            return
        if self._stop.is_set() and not os.path.exists(job.outcome_path):
            # Shutdown interrupted the run; leave it queued for a
            # future server generation (the checkpoint resumes it).
            self._record_attempt(job, started_unix, "interrupted")
            self.store.requeue(job)
            return

        if os.path.exists(job.outcome_path):
            with open(job.outcome_path, "r", encoding="utf-8") as fh:
                self.cache.put(job.cache_key, fh.read())
            self.obs.incr("service.cache_stores")
            self._record_attempt(job, started_unix, "done")
            self.store.finish(job, "done")
            self.obs.incr("service.jobs_completed")
            logger.info("%s done (attempt %d)", job.id, job.attempts)
            return
        if os.path.exists(job.error_path):
            import json

            with open(job.error_path, "r", encoding="utf-8") as fh:
                body = json.load(fh)
            self._record_attempt(job, started_unix, "failed")
            self.store.finish(job, "failed", body)
            self.obs.incr("service.jobs_failed")
            logger.warning("%s failed: %s", job.id, body.get("error", {}).get("code"))
            return

        # No artifact: the child died mid-run.  Re-queue for a resumed
        # attempt, or fail when the retry budget is spent.
        self._ensure_crash_bundle(job, proc.returncode)
        self._record_attempt(job, started_unix, "crashed")
        if self.store.requeue(job):
            logger.warning(
                "%s worker died (attempt %d); re-queued for resume",
                job.id,
                job.attempts,
            )
            return
        self.store.finish(
            job,
            "failed",
            error_body(
                BudgetExhaustedError(
                    f"retry budget exhausted after {job.attempts} attempts"
                )
            ),
        )
        self.obs.incr("service.jobs_failed")

    # -- hang watchdog / forensics -------------------------------------
    def _dump_and_kill(self, proc: subprocess.Popen) -> None:
        """SIGUSR1 for a stack dump, a short grace, then SIGKILL."""
        sig = getattr(signal, "SIGUSR1", None)
        if sig is not None:
            try:
                proc.send_signal(sig)
            except (OSError, ValueError):
                pass  # the child won the race and exited
            try:
                proc.wait(timeout=_DUMP_GRACE_S)
            except subprocess.TimeoutExpired:
                pass  # expected: the child is wedged, only the dump ran
        proc.kill()
        proc.wait()

    def _handle_hang(self, job: Job, started_unix: float) -> None:
        """Package the evidence, then requeue within the retry budget."""
        self.obs.incr("service.jobs_hung")
        try:
            self._package_hang_bundle(job)
        except Exception:  # noqa: BLE001 - forensics must not kill workers
            logger.exception("hang bundle packaging failed for %s", job.id)
        self._record_attempt(job, started_unix, "hung")
        if self.store.requeue(job):
            logger.warning(
                "%s hung (no activity for %gs); killed and re-queued for "
                "resume (attempt %d)",
                job.id,
                self.hang_timeout_s,
                job.attempts,
            )
            return
        self.store.finish(
            job,
            "failed",
            error_body(
                BudgetExhaustedError(
                    f"hang watchdog killed attempt {job.attempts} and the "
                    f"retry budget is spent"
                )
            ),
        )
        self.obs.incr("service.jobs_failed")

    def _package_hang_bundle(self, job: Job) -> None:
        stacks_text = None
        stacks_path = os.path.join(job.dir, STACKS_FILENAME)
        try:
            with open(stacks_path, "r", encoding="utf-8") as fh:
                stacks_text = fh.read() or None
        except OSError:
            pass
        try:
            tail = job_journal_events(job)[-_TAIL_EVENTS:]
        except Exception:  # noqa: BLE001 - a torn journal is no excuse
            tail = []
        if stacks_text:
            # Identical wedge points dump identical (normalized)
            # stacks, so hangs cluster by *where* they stuck.
            fingerprint = fingerprint_text(stacks_text)
        else:
            fingerprint = fingerprint_key("hang", "no-stack-dump")
        package_bundle(
            job.dir,
            "hung",
            fingerprint=fingerprint,
            tail_events=tail,
            stacks_text=stacks_text,
            trace_id=job.trace_id,
            note=(
                f"hang watchdog: no checkpoint/progress advance "
                f"for {self.hang_timeout_s:g}s; sent SIGUSR1 then SIGKILL "
                f"(attempt {job.attempts})"
            ),
        )

    def _ensure_crash_bundle(self, job: Job, returncode: Optional[int]) -> None:
        """A bundle for a crash the child couldn't record itself.

        A SIGKILLed/OOMed child runs no excepthook, so unless the
        in-process recorder already published (its excepthook or stall
        watchdog got there first), the supervisor packages what's on
        disk, fingerprinted by the kill signal / exit code.
        """
        try:
            if os.path.isdir(job.crash_dir):
                return
            if returncode is not None and returncode < 0:
                try:
                    cause = signal.Signals(-returncode).name
                except ValueError:
                    cause = str(-returncode)
                fingerprint = fingerprint_key("signal", cause)
                message = f"killed by signal {cause}"
            else:
                fingerprint = fingerprint_key("exit", str(returncode))
                message = f"exited with code {returncode} and no outcome"
            try:
                tail = job_journal_events(job)[-_TAIL_EVENTS:]
            except Exception:  # noqa: BLE001
                tail = []
            package_bundle(
                job.dir,
                "crashed",
                fingerprint=fingerprint,
                error={"type": "WorkerCrash", "message": message},
                tail_events=tail,
                trace_id=job.trace_id,
                note=f"{message} (attempt {job.attempts})",
            )
        except Exception:  # noqa: BLE001 - forensics must not kill workers
            logger.exception("crash bundle packaging failed for %s", job.id)

    def _record_attempt(self, job: Job, started_unix: float, outcome: str) -> None:
        """Append the attempt's timing record and fire the hook."""
        record = {
            "attempt": job.attempts,
            "started_unix": started_unix,
            "ended_unix": time.time(),
            "outcome": outcome,
        }
        job.attempt_history.append(record)
        if self.on_attempt is not None:
            try:
                self.on_attempt(job, record)
            except Exception:  # noqa: BLE001 - observers must not kill workers
                logger.exception("attempt observer failed for %s", job.id)
