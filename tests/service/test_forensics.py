"""Failure forensics end-to-end: hang watchdog, crash and kill records.

The DESIGN.md §15 contract, exercised against a real server with a
deliberately sabotaged runner (``REPRO_TEST_*`` fault hooks in
:mod:`repro.service.runner`):

* a *hung* runner is detected by journal-mtime liveness, stack-dumped
  via SIGUSR1, SIGKILLed, and re-queued -- and the resumed attempt
  finishes **bit-identical** to an uninterrupted run;
* a failed job's record is its journal plus its ``runner.log``: the
  runner's stderr (a traceback, the SIGUSR1 stack dump) and one
  supervisor line per attempt it killed or found dead;
* ``repro postmortem`` renders that record offline after the server is
  gone, and no job directory holds any other crash artifact.
"""

import json
import os
import signal
import time

import pytest

from repro import SimplifyOutcome, SimplifyRequest, dumps_bench, loads_bench
from repro.benchlib import ISCAS85_SUITE
from repro.circuit.bench import bench_name
from repro.cli import main
from repro.obs.postmortem import load_postmortem
from repro.service import ServiceClient, job_journal_events, serve_in_thread

# Same shape as test_resume: a fast c880 run with >= 2 committed
# iterations, so the fault hooks have a mid-run point to fire at.
REQUEST = SimplifyRequest(
    rs_pct_threshold=2.0,
    fom="area_per_rs",
    num_vectors=1000,
    seed=0,
    candidate_limit=40,
    max_iterations=6,
    atpg_node_limit=400,
)

# Liveness deadline: a full *uninterrupted* run of REQUEST emits events
# every few hundred ms (measured), so 3s of silence is unambiguous.
HANG_TIMEOUT_S = 3.0


@pytest.fixture(scope="module")
def c880_bench():
    return dumps_bench(ISCAS85_SUITE["c880"].builder())


@pytest.fixture(scope="module")
def reference(c880_bench):
    return REQUEST.run(loads_bench(c880_bench, name=bench_name(c880_bench)))


def _serve(tmp_path, **kwargs):
    kwargs.setdefault("workers", 1)
    return serve_in_thread(
        host="127.0.0.1", port=0, data_dir=str(tmp_path), **kwargs
    )


def _runner_log(job):
    with open(job.log_path, encoding="utf-8") as fh:
        return fh.read()


def _assert_no_other_crash_artifacts(job):
    assert not os.path.exists(os.path.join(job.dir, "crash"))
    assert not os.path.exists(os.path.join(job.dir, "stacks.txt"))


def test_hung_runner_is_dumped_killed_and_resumes_bit_identically(
    tmp_path, monkeypatch, c880_bench, reference, capsys
):
    assert len(reference.iterations) >= 2
    monkeypatch.setenv("REPRO_TEST_HANG_AFTER_ITERS", "2")
    httpd, service, _thread = _serve(
        tmp_path, max_attempts=3, hang_timeout_s=HANG_TIMEOUT_S
    )
    client = ServiceClient(f"http://127.0.0.1:{httpd.server_address[1]}")
    try:
        snap = client.submit(REQUEST, netlist=c880_bench, name="c880")
        job = service.store.get(snap["job_id"])

        # The runner wedges after its 2nd committed iteration; the
        # watchdog must detect, dump, kill, requeue, and the clean
        # resume attempt must finish -- all without our help.
        final = client.wait(snap["job_id"], timeout=300)
        assert final["state"] == "done"
        assert final["attempts"] == 2, "the resume is a second attempt"

        # the watchdog counted and logged the incident: the lifecycle
        # log's attempt records hold each attempt's outcome
        assert "repro_service_jobs_hung_total 1" in client.metrics()
        with open(os.path.join(str(tmp_path), "logs", "events.jsonl")) as fh:
            logged = [json.loads(line) for line in fh]
        outcomes = [
            r["outcome"]
            for r in logged
            if r["kind"] == "attempt" and r["job_id"] == job.id
        ]
        assert outcomes == ["hung", "done"]

        # the evidence: the SIGUSR1 stack dump showing where the runner
        # was wedged, then the supervisor's verdict, in one runner.log
        # that the resumed attempt appended to
        log = _runner_log(job)
        verdict = (
            f"supervisor: attempt 1 hung: no journal advance for "
            f"{HANG_TIMEOUT_S:g}s; sent SIGUSR1 then SIGKILL"
        )
        assert verdict in log
        assert 'File "' in log.split(verdict)[0]
        assert "most recent call first" in log
        _assert_no_other_crash_artifacts(job)

        # the recovered result is bit-identical to the uninterrupted run
        remote = client.result(snap["job_id"])
        ref_wire = SimplifyOutcome.from_json(reference.to_json())
        assert dumps_bench(remote.simplified) == dumps_bench(
            ref_wire.simplified
        )
        assert remote.final_metrics == reference.final_metrics
        assert len(remote.iterations) == len(reference.iterations)

        # the checkpoint journal records the resume of the killed run
        with open(job.checkpoint_path) as fh:
            events = [json.loads(line) for line in fh]
        assert any(e.get("event") == "resume" for e in events)
    finally:
        service.stop()
        httpd.shutdown()
        httpd.server_close()

    # postmortem works offline, straight off the job dir: the journal
    # rows are the job's own journal, and runner.log follows them
    assert load_postmortem(job.dir)["events"] == job_journal_events(job)
    capsys.readouterr()
    assert main(["postmortem", job.dir]) == 0
    out = capsys.readouterr().out
    assert verdict in out
    assert 'File "' in out
    assert any(
        line.split()[:1] == ["iteration"] for line in out.splitlines()
    )


def test_crashing_runner_leaves_its_traceback_in_runner_log(
    tmp_path, monkeypatch, c880_bench, reference, capsys
):
    monkeypatch.setenv("REPRO_TEST_CRASH_AFTER_ITERS", "1")
    httpd, service, _thread = _serve(tmp_path, max_attempts=1)
    client = ServiceClient(f"http://127.0.0.1:{httpd.server_address[1]}")
    try:
        snap = client.submit(REQUEST.replace(seed=11), netlist=c880_bench, name="c880")
        final = client.wait(snap["job_id"], timeout=300)
        assert final["state"] == "failed"
        assert final["error"]["code"] == "budget_exhausted"
        crashed = service.store.get(snap["job_id"])

        # a fom="best" job crashing inside its second FOM run: the
        # record spans the job's two per-FOM journal files
        monkeypatch.setenv(
            "REPRO_TEST_CRASH_AFTER_ITERS", str(len(reference.iterations) + 1)
        )
        snap = client.submit(
            REQUEST.replace(fom="best"), netlist=c880_bench, name="c880"
        )
        assert client.wait(snap["job_id"], timeout=300)["state"] == "failed"
        best = service.store.get(snap["job_id"])
        streamed = client.events(best.id, wait=0.0)["events"]
    finally:
        service.stop()
        httpd.shutdown()
        httpd.server_close()

    # the runner's own traceback, then the supervisor's exit line
    for job in (crashed, best):
        log = _runner_log(job)
        assert "Traceback (most recent call last)" in log
        assert "RuntimeError: injected runtime fault" in log
        assert log.rstrip("\n").endswith(
            "supervisor: attempt 1 exited with code 1 and no outcome"
        )
        _assert_no_other_crash_artifacts(job)

    record = load_postmortem(best.dir)
    assert record["events"] == streamed == job_journal_events(best)
    assert [e["event"] for e in record["events"]].count("run_start") == 2

    # the postmortem CLI renders the record offline
    capsys.readouterr()
    assert main(["postmortem", crashed.dir]) == 0
    out = capsys.readouterr().out
    assert "repro postmortem" in out
    assert "RuntimeError: injected runtime fault" in out
    assert "exited with code 1 and no outcome" in out
    assert any(
        line.split()[:1] == ["iteration"] for line in out.splitlines()
    )


def test_sigkilled_child_gets_a_supervisor_line(tmp_path, c880_bench):
    """A child killed from outside (OOM-style) writes nothing itself;
    the supervisor's line in runner.log names the signal."""
    httpd, service, _thread = _serve(tmp_path, max_attempts=1, workers=1)
    client = ServiceClient(f"http://127.0.0.1:{httpd.server_address[1]}")
    try:
        snap = client.submit(
            REQUEST.replace(seed=21), netlist=c880_bench, name="c880"
        )
        deadline = time.time() + 300
        while time.time() < deadline:
            status = client.status(snap["job_id"])
            if status["state"] in ("done", "failed", "cancelled"):
                break
            pid = status.get("worker_pid")
            if pid:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            time.sleep(0.02)
        final = client.wait(snap["job_id"], timeout=300)
        if final["state"] == "done":
            pytest.skip("runner outran the kill loop")
        job = service.store.get(snap["job_id"])
        assert final["state"] == "failed"
        assert "supervisor: attempt 1 killed by signal SIGKILL" in _runner_log(job)
        _assert_no_other_crash_artifacts(job)
    finally:
        service.stop()
        httpd.shutdown()
        httpd.server_close()
