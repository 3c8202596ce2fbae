"""Crash recovery: SIGKILL the worker mid-run, the job resumes.

The service contract under test is the one the checkpoint layer
already guarantees for a single process, lifted to the job server: a
worker process killed mid-run leaves a readable checkpoint prefix, the
supervisor re-queues the job, the next attempt replays the prefix and
continues, and the finished job is **bit-identical** to one that was
never interrupted.
"""

import json
import os
import signal
import time

import pytest

from repro import SimplifyRequest, dumps_bench, loads_bench
from repro.benchlib import ISCAS85_SUITE
from repro.service import ServiceClient, job_journal_events, serve_in_thread

# The c880 shape the single-process SIGKILL test uses: enough committed
# iterations to kill between two of them, small enough to finish fast.
REQUEST = SimplifyRequest(
    rs_pct_threshold=2.0,
    fom="area_per_rs",
    num_vectors=1000,
    seed=0,
    candidate_limit=40,
    max_iterations=6,
    atpg_node_limit=400,
)


def _iteration_events(path):
    count = 0
    try:
        with open(path) as fh:
            for line in fh:
                try:
                    if json.loads(line).get("event") == "iteration":
                        count += 1
                except ValueError:
                    pass  # torn tail mid-write
    except FileNotFoundError:
        pass
    return count


@pytest.fixture(scope="module")
def c880_bench():
    return dumps_bench(ISCAS85_SUITE["c880"].builder())


@pytest.fixture(scope="module")
def reference(c880_bench):
    """The uninterrupted answer, computed exactly like the runner does:
    same bench text, same header-derived circuit name."""
    from repro.service.runner import _bench_name

    return REQUEST.run(loads_bench(c880_bench, name=_bench_name(c880_bench)))


def test_sigkill_worker_job_resumes_bit_identically(
    tmp_path, c880_bench, reference
):
    assert len(reference.iterations) >= 2, "need a multi-commit run to kill"
    httpd, service, _thread = serve_in_thread(
        host="127.0.0.1",
        port=0,
        data_dir=str(tmp_path),
        workers=1,
        max_attempts=3,
    )
    client = ServiceClient(f"http://127.0.0.1:{httpd.server_address[1]}")
    try:
        snap = client.submit(REQUEST, netlist=c880_bench, name="c880")
        job = service.store.get(snap["job_id"])

        # Wait until the child has committed >= 2 iterations, then
        # SIGKILL it -- no cleanup handler runs, exactly like OOM.
        killed = False
        saw_progress = False
        deadline = time.time() + 300
        while time.time() < deadline:
            status = client.status(snap["job_id"])
            if status.get("progress"):
                saw_progress = True
            if status["state"] in ("done", "failed", "cancelled"):
                break  # finished before we could kill it -- still valid
            pid = status.get("worker_pid")
            if pid and _iteration_events(job.checkpoint_path) >= 2:
                try:
                    os.kill(pid, signal.SIGKILL)
                    killed = True
                except ProcessLookupError:
                    pass  # finished between poll and kill -- still valid
                break
            time.sleep(0.05)
        else:
            pytest.fail("job neither progressed nor finished in time")

        final = client.wait(snap["job_id"], timeout=300)
        assert final["state"] == "done"
        assert saw_progress, "status polls never surfaced live progress"
        if killed:
            assert final["attempts"] == 2, "the resume is a second attempt"
            metrics = client.metrics()
            assert "repro_service_jobs_resumed_total 1" in metrics

        remote = client.result(snap["job_id"])
        # the wire outcome crossed one JSON round trip (bench re-parse
        # normalizes gate emission order); normalize the reference the
        # same way for the verbatim netlist comparison
        from repro import SimplifyOutcome

        ref_wire = SimplifyOutcome.from_json(reference.to_json())
        assert dumps_bench(remote.simplified) == dumps_bench(
            ref_wire.simplified
        )
        assert sorted(dumps_bench(remote.simplified).splitlines()) == sorted(
            dumps_bench(reference.simplified).splitlines()
        )
        assert [str(f) for f in remote.faults] == [
            str(f) for f in reference.faults
        ]
        assert remote.final_metrics == reference.final_metrics
        assert len(remote.iterations) == len(reference.iterations)

        # the checkpoint journal records the resume
        if killed:
            events = []
            with open(job.checkpoint_path) as fh:
                for line in fh:
                    events.append(json.loads(line))
            assert any(e.get("event") == "resume" for e in events)
    finally:
        service.stop()
        httpd.shutdown()
        httpd.server_close()


def test_resumed_job_serves_full_event_history(tmp_path, c880_bench, reference):
    """The checkpoint is the job's one journal: after a SIGKILL mid-greedy
    and a resume, the job's events start at ``run_start``, keep every
    pre-crash iteration, and commit each fault once -- and a stream
    cursor taken before the kill neither re-delivers nor skips."""
    httpd, service, _thread = serve_in_thread(
        host="127.0.0.1", port=0, data_dir=str(tmp_path), workers=1, max_attempts=3,
    )
    client = ServiceClient(f"http://127.0.0.1:{httpd.server_address[1]}")
    try:
        snap = client.submit(REQUEST, netlist=c880_bench, name="c880")
        job = service.store.get(snap["job_id"])
        stream = client.stream(snap["job_id"], wait=1.0, timeout=300)
        streamed = []
        for event in stream:  # advance the cursor past the first commit
            streamed.append(event)
            if event.get("event") == "iteration":
                break

        pre_crash = None
        deadline = time.time() + 300
        while time.time() < deadline and pre_crash is None:
            status = client.status(snap["job_id"])
            if status["state"] in ("done", "failed", "cancelled"):
                break
            pid = status.get("worker_pid")
            if pid and _iteration_events(job.checkpoint_path) >= 2:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    break  # finished between poll and kill
                time.sleep(0.5)  # let the supervisor reap the attempt
                pre_crash = job_journal_events(job)
            time.sleep(0.05)
        if pre_crash is None:
            pytest.skip("runner outran the kill loop; nothing to assert")

        streamed.extend(stream)  # the same cursor, across the resume
        assert client.status(snap["job_id"])["state"] == "done"
        events = job_journal_events(job)
        assert events[0]["event"] == "run_start"
        assert events[: len(pre_crash)] == pre_crash
        assert [e["event"] for e in events].count("resume") == 1
        assert streamed == events
        assert [e["fault"] for e in events if e["event"] == "iteration"] == [
            str(f) for f in reference.faults
        ]
        assert not os.path.exists(os.path.join(job.dir, "journal.jsonl"))
    finally:
        service.stop()
        httpd.shutdown()
        httpd.server_close()


def test_retry_budget_exhaustion_fails_typed(tmp_path, c880_bench):
    """A job whose worker dies every attempt fails with budget_exhausted."""
    httpd, service, _thread = serve_in_thread(
        host="127.0.0.1",
        port=0,
        data_dir=str(tmp_path),
        workers=1,
        max_attempts=2,
    )
    client = ServiceClient(f"http://127.0.0.1:{httpd.server_address[1]}")
    try:
        snap = client.submit(
            REQUEST.replace(seed=1), netlist=c880_bench, name="c880"
        )
        kills = 0
        deadline = time.time() + 300
        while time.time() < deadline:
            status = client.status(snap["job_id"])
            if status["state"] in ("done", "failed", "cancelled"):
                break
            pid = status.get("worker_pid")
            if pid:
                try:
                    os.kill(pid, signal.SIGKILL)
                    kills += 1
                except ProcessLookupError:
                    pass  # child exited between poll and kill
                time.sleep(0.2)
            else:
                time.sleep(0.05)
        final = client.status(snap["job_id"])
        if final["state"] == "done":
            pytest.skip("runner outran the kill loop; nothing to assert")
        assert final["state"] == "failed"
        assert final["error"]["code"] == "budget_exhausted"
        assert kills >= 2
        from repro.core.errors import BudgetExhaustedError

        with pytest.raises(BudgetExhaustedError):
            client.result_json(snap["job_id"])
    finally:
        service.stop()
        httpd.shutdown()
        httpd.server_close()
