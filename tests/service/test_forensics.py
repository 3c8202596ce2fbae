"""Failure forensics end-to-end: hang watchdog, crash bundles, fingerprints.

The DESIGN.md §15 contract, exercised against a real server with a
deliberately sabotaged runner (``REPRO_TEST_*`` fault hooks in
:mod:`repro.service.runner`):

* a *hung* runner is detected by artifact-mtime liveness, stack-dumped
  via SIGUSR1, SIGKILLed, and re-queued -- and the resumed attempt
  finishes **bit-identical** to an uninterrupted run;
* crashing runners leave fingerprinted crash bundles: identical
  failures share a fingerprint, distinct failure modes split, and each
  bundle's journal tail is the tail of the job's own journal;
* ``repro postmortem`` renders a bundle offline after the server is
  gone.
"""

import json
import os
import time

import pytest

from repro import SimplifyOutcome, SimplifyRequest, dumps_bench, loads_bench
from repro.benchlib import ISCAS85_SUITE
from repro.cli import main
from repro.obs.flight import TAIL_EVENTS, load_bundle, render_postmortem
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
    from repro.service.runner import _bench_name

    return REQUEST.run(loads_bench(c880_bench, name=_bench_name(c880_bench)))


def _serve(tmp_path, **kwargs):
    kwargs.setdefault("workers", 1)
    return serve_in_thread(
        host="127.0.0.1", port=0, data_dir=str(tmp_path), **kwargs
    )


def test_hung_runner_is_dumped_killed_and_resumes_bit_identically(
    tmp_path, monkeypatch, c880_bench, reference
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

        # the watchdog counted and logged the incident
        assert "repro_service_jobs_hung_total 1" in client.metrics()
        outcomes = [r["outcome"] for r in job.attempt_history]
        assert outcomes == ["hung", "done"]
        with open(os.path.join(str(tmp_path), "logs", "events.jsonl")) as fh:
            logged = [json.loads(line) for line in fh]
        assert any(
            r["kind"] == "attempt" and r.get("outcome") == "hung"
            for r in logged
        )

        # the evidence: a `hung` crash bundle with the SIGUSR1 stack
        # dump showing where the runner was wedged
        bundle = load_bundle(job.dir)
        assert bundle["crash"]["kind"] == "hung"
        assert bundle["crash"]["fingerprint"]
        assert bundle["crash"]["trace_id"] == final["trace_id"]
        assert "watchdog" in bundle["crash"]["note"]
        assert bundle["stacks"] and 'File "' in bundle["stacks"]
        assert any(e.get("event") == "iteration" for e in bundle["tail"])

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

    # postmortem works offline, straight off the job dir
    report = render_postmortem(load_bundle(job.dir))
    assert "kind: hung" in report
    assert "stack dump" in report


def test_crash_fingerprints_cluster_by_failure_mode(
    tmp_path, monkeypatch, c880_bench, reference, capsys
):
    monkeypatch.setenv("REPRO_TEST_CRASH_AFTER_ITERS", "1")
    monkeypatch.setenv("REPRO_TEST_CRASH_KIND", "runtime")
    httpd, service, _thread = _serve(tmp_path, max_attempts=1)
    client = ServiceClient(f"http://127.0.0.1:{httpd.server_address[1]}")
    job_ids = []
    try:
        # two identical runtime-fault crashes (distinct seeds so the
        # dedup/cache layers treat them as distinct jobs)...
        for seed in (11, 12):
            snap = client.submit(
                REQUEST.replace(seed=seed), netlist=c880_bench, name="c880"
            )
            job_ids.append(snap["job_id"])
            final = client.wait(snap["job_id"], timeout=300)
            assert final["state"] == "failed"
            assert final["error"]["code"] == "budget_exhausted"

        # ...then one value-fault crash: a different failure mode
        monkeypatch.setenv("REPRO_TEST_CRASH_KIND", "value")
        snap = client.submit(
            REQUEST.replace(seed=13), netlist=c880_bench, name="c880"
        )
        job_ids.append(snap["job_id"])
        assert client.wait(snap["job_id"], timeout=300)["state"] == "failed"

        # ...and a fom="best" runtime fault inside its second FOM run:
        # the runtime failure mode again, with a journal that spans the
        # job's two per-FOM files
        monkeypatch.setenv("REPRO_TEST_CRASH_KIND", "runtime")
        monkeypatch.setenv(
            "REPRO_TEST_CRASH_AFTER_ITERS", str(len(reference.iterations) + 1)
        )
        snap = client.submit(
            REQUEST.replace(fom="best"), netlist=c880_bench, name="c880"
        )
        job_ids.append(snap["job_id"])
        assert client.wait(snap["job_id"], timeout=300)["state"] == "failed"

        # every job left a bundle; the three runtime faults share one
        # fingerprint and the value fault, a different failure mode,
        # has its own
        crashes = [
            load_bundle(service.store.get(job_id).dir)["crash"]
            for job_id in job_ids
        ]
        runtime = [crashes[i] for i in (0, 1, 3)]
        value = crashes[2]
        assert all("runtime" in c["error"]["message"] for c in runtime)
        assert "value" in value["error"]["message"]
        assert len({c["fingerprint"] for c in runtime}) == 1, (
            "identical failures must share one fingerprint"
        )
        assert runtime[0]["fingerprint"]
        assert value["fingerprint"] != runtime[0]["fingerprint"]

        # every bundle's tail is the last <= 64 events of the job's
        # journal -- the journal is the crash record, not a copy of it
        for job_id in job_ids:
            job = service.store.get(job_id)
            tail = load_bundle(job.dir)["tail"]
            assert tail and tail == job_journal_events(job)[-TAIL_EVENTS:]
        best = service.store.get(job_ids[-1])
        streamed = client.events(best.id, wait=0.0)["events"]
        assert streamed == job_journal_events(best)
        for events in (streamed, load_bundle(best.dir)["tail"]):
            assert [e["event"] for e in events].count("run_start") == 2

        # the child's excepthook wrote the rich bundle itself: real
        # exception type, formatted traceback, journal tail
        job = service.store.get(job_ids[0])
        bundle = load_bundle(job.dir)
        assert bundle["crash"]["kind"] == "crash"
        assert bundle["crash"]["error"]["type"] == "RuntimeError"
        assert "injected runtime fault" in bundle["traceback"]
        assert any(e.get("event") == "iteration" for e in bundle["tail"])
    finally:
        service.stop()
        httpd.shutdown()
        httpd.server_close()

    # the postmortem CLI renders one of the bundles offline
    job_dir = os.path.join(str(tmp_path), "jobs", job_ids[0])
    if not os.path.isdir(job_dir):
        job_dir = None
        jobs_root = os.path.join(str(tmp_path), "jobs")
        for entry in os.listdir(jobs_root):
            if os.path.isdir(os.path.join(jobs_root, entry, "crash")):
                job_dir = os.path.join(jobs_root, entry)
                break
    assert job_dir is not None
    assert main(["postmortem", job_dir]) == 0
    out = capsys.readouterr().out
    assert "repro postmortem" in out
    assert "kind: crash" in out
    assert "RuntimeError" in out


def test_sigkilled_child_gets_a_supervisor_bundle(
    tmp_path, monkeypatch, c880_bench
):
    """A child killed from outside (OOM-style) runs no excepthook; the
    supervisor packages the bundle, fingerprinted by the kill signal,
    and identical kills share one fingerprint."""
    import signal

    httpd, service, _thread = _serve(tmp_path, max_attempts=1, workers=1)
    client = ServiceClient(f"http://127.0.0.1:{httpd.server_address[1]}")
    fingerprints = []
    try:
        for seed in (21, 22):
            snap = client.submit(
                REQUEST.replace(seed=seed), netlist=c880_bench, name="c880"
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
            bundle = load_bundle(job.dir)
            assert bundle["crash"]["kind"] == "crashed"
            assert "SIGKILL" in bundle["crash"]["error"]["message"]
            fingerprints.append(bundle["crash"]["fingerprint"])
        assert fingerprints[0] == fingerprints[1], (
            "identical kill causes must share one fingerprint"
        )
    finally:
        service.stop()
        httpd.shutdown()
        httpd.server_close()
