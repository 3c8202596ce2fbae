"""Child-process job executor: ``python -m repro.service.runner <jobdir>``.

The worker pool never runs a simplification in the server process --
each attempt is a child process executing this module against one job
directory (see :mod:`repro.service.jobs` for the layout).  That
isolation is what makes the crash-recovery contract simple: a worker
that dies (OOM, SIGKILL, power cut) leaves a readable checkpoint
prefix and *nothing else* -- no half-updated server state -- and the
supervisor just re-queues the job.  The next attempt lands back here,
``circuit_simplify`` finds the checkpoint journal and resumes from the
last committed iteration, bit-identical to an uninterrupted run.

Exit protocol (what the supervisor reads):

* ``outcome.json`` exists -> success (written atomically, so its
  presence implies it is complete);
* ``error.json`` exists -> typed failure, do not retry (the input is
  bad; re-running cannot fix it);
* neither -> the process crashed mid-run; re-queue and resume.

Forensics (DESIGN.md §15): the worker pool points the runner's stderr
at the job's ``runner.log``, so an unexpected death leaves its
traceback there, and the runner registers ``faulthandler`` for
``SIGUSR1``: the pool's hang watchdog gets an all-thread stack dump in
the same file from a wedged process before it kills it.
"""

from __future__ import annotations

import faulthandler
import json
import logging
import os
import signal
import sys
import time

from ..circuit import loads_bench
from ..circuit.bench import bench_name
from ..core.api import SimplifyOutcome, SimplifyRequest, simplify
from ..core.errors import CompileError, ReproError, error_body

__all__ = ["run_job", "main"]

logger = logging.getLogger("repro.service.runner")


class _FaultInjector:
    """Test-only fault hooks, armed by ``REPRO_TEST_*`` env vars.

    The forensics tests and the CI forensics-smoke job need a runner
    that wedges or dies *deterministically*; these hooks are the
    sleep-forever/raise "netlist" the suite injects.  Inert unless the
    env vars are set (never by the production server).

    * ``REPRO_TEST_HANG_AFTER_ITERS=N`` -- after the N-th committed
      iteration event, sleep forever (once per job: a ``fault.sentinel``
      in the job dir marks the hang as spent, so the post-kill resume
      attempt runs clean and the bit-identity contract is testable);
    * ``REPRO_TEST_CRASH_AFTER_ITERS=N`` -- raise ``RuntimeError`` at
      the N-th iteration on *every* attempt (no sentinel: the job burns
      its retry budget and fails, its tracebacks in ``runner.log``).
    """

    def __init__(self, job_dir: str, hang_after: int, crash_after: int) -> None:
        self.hang_after = hang_after
        self.crash_after = crash_after
        self.sentinel = os.path.join(job_dir, "fault.sentinel")
        self.iterations = 0

    @classmethod
    def from_env(cls, job_dir: str):
        try:
            hang = int(os.environ.get("REPRO_TEST_HANG_AFTER_ITERS") or 0)
            crash = int(os.environ.get("REPRO_TEST_CRASH_AFTER_ITERS") or 0)
        except ValueError:
            return None
        if hang <= 0 and crash <= 0:
            return None
        return cls(job_dir, hang, crash)

    def emit(self, event: dict) -> None:
        if event.get("event") != "iteration":
            return
        self.iterations += 1
        if (
            self.hang_after
            and self.iterations >= self.hang_after
            and not os.path.exists(self.sentinel)
        ):
            with open(self.sentinel, "w", encoding="utf-8") as fh:
                fh.write("hang\n")
            logger.warning("injected hang after %d iterations", self.iterations)
            while True:
                time.sleep(60.0)
        if self.crash_after and self.iterations >= self.crash_after:
            raise RuntimeError(
                f"injected runtime fault at iteration {self.iterations}"
            )


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")
    os.replace(tmp, path)


def run_job(job_dir: str) -> SimplifyOutcome:
    """Execute the job stored in ``job_dir`` and persist its outcome.

    The stored request's journal path is overridden with the job-local
    ``checkpoint.jsonl`` -- the service owns placement, not the
    submitter -- and the server answers status polls by folding that
    journal (:meth:`~repro.service.jobs.Job.progress`).
    """
    with open(os.path.join(job_dir, "request.json"), "r", encoding="utf-8") as fh:
        request = SimplifyRequest.from_json(fh.read())
    # The checkpoint (appended across resumes) is the job's only
    # journal: the event stream, status polls and postmortem read it
    # too.
    request = request.replace(journal=os.path.join(job_dir, "checkpoint.jsonl"))
    with open(os.path.join(job_dir, "netlist.bench"), "r", encoding="utf-8") as fh:
        bench_text = fh.read()
    try:
        circuit = loads_bench(bench_text, name=bench_name(bench_text))
    except ValueError as exc:
        raise CompileError(f"netlist does not parse: {exc}") from exc

    # The injector rides behind the journal, which has committed the
    # event before an injected fault fires, so a killed attempt leaves
    # a resumable prefix.
    outcome = simplify(circuit, request, progress=_FaultInjector.from_env(job_dir))
    _atomic_write(os.path.join(job_dir, "outcome.json"), outcome.to_json())
    return outcome


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 1:
        print("usage: python -m repro.service.runner <jobdir>", file=sys.stderr)
        return 2
    job_dir = argv[0]
    # stderr is the job's runner.log: the hang watchdog's SIGUSR1 dumps
    # every thread's stack there, from C, so also from a runner wedged
    # holding the GIL.
    if hasattr(signal, "SIGUSR1"):
        faulthandler.register(signal.SIGUSR1, all_threads=True)
    # Anything *unexpected* propagates past this frame, and Python
    # prints its traceback to runner.log on the way out.
    try:
        run_job(job_dir)
        return 0
    except ReproError as exc:
        # Deterministic failure: record the typed body so the server
        # can replay it to the client, and tell the supervisor (via
        # error.json existing) not to burn retries on bad input.
        _atomic_write(
            os.path.join(job_dir, "error.json"),
            json.dumps(error_body(exc), indent=2, sort_keys=True),
        )
        logger.error("job %s failed: %s", job_dir, exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
