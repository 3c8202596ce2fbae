"""Service observability: job-keyed logs, metrics, streaming.

One in-process server (ephemeral port) serves the whole module, same
shape as ``test_service.py``.  Seeds here start at 20 so the
content-addressed cache never couples these tests to that module's.
"""

import concurrent.futures
import json
import os
import socket
import struct
import time
import urllib.error
import urllib.request
from urllib.parse import urlparse

import pytest

from repro import dumps_bench
from repro.core.errors import InvalidRequestError, JobNotFoundError
from repro.obs import progress_from_events
from repro.obs.metrics_export import validate_openmetrics
from repro.service import ServiceClient, job_journal_events, serve_in_thread
from tests.conftest import build_ripple_adder

FAST = dict(
    rs_pct_threshold=6.0,
    fom="area_per_rs",
    num_vectors=900,
    candidate_limit=60,
)


@pytest.fixture(scope="module")
def adder_bench():
    return dumps_bench(build_ripple_adder(5))


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    httpd, service, thread = serve_in_thread(
        host="127.0.0.1",
        port=0,
        data_dir=str(tmp_path_factory.mktemp("service-data")),
        workers=2,
        queue_limit=16,
    )
    client = ServiceClient(f"http://127.0.0.1:{httpd.server_address[1]}")
    yield client, service
    service.stop()
    httpd.shutdown()
    httpd.server_close()


# ----------------------------------------------------------------------
# the job id keys every record
# ----------------------------------------------------------------------
def test_job_id_keys_every_record_end_to_end(server, adder_bench):
    """One job id: API response -> service logs -> runner journal.  The
    retired ``X-Repro-Trace-Id`` header is ignored, even a value its old
    validation refused."""
    client, service = server
    body = json.dumps(
        {"request": dict(FAST, seed=20), "netlist": adder_bench}
    ).encode("utf-8")
    post = urllib.request.Request(
        f"{client.base_url}/v1/jobs",
        data=body,
        method="POST",
        headers={
            "Content-Type": "application/json",
            "X-Repro-Trace-Id": "bad id with spaces",
        },
    )
    with urllib.request.urlopen(post, timeout=30) as resp:
        assert "X-Repro-Trace-Id" not in resp.headers
        snap = json.loads(resp.read())
    assert "trace_id" not in snap
    final = client.wait(snap["job_id"], timeout=120)
    assert final["state"] == "done"
    assert "trace_id" not in final

    # Structured lifecycle log: every transition names the job.
    with open(service.log.events_path, "r", encoding="utf-8") as fh:
        events = [json.loads(line) for line in fh]
    mine = [e for e in events if e.get("job_id") == snap["job_id"]]
    kinds = {e["kind"] for e in mine}
    assert {"submitted", "started", "attempt", "done"} <= kinds
    assert not any("trace_id" in e for e in mine)

    # Access log: the submit POST is recorded.
    with open(service.log.access_path, "r", encoding="utf-8") as fh:
        access = [json.loads(line) for line in fh]
    assert any(
        a["method"] == "POST" and a["path"] == "/v1/jobs" for a in access
    )

    # Runner journal header: the runner-side half of the job's record.
    # The checkpoint is the job's one journal; no second copy is written.
    job = service.store.get(snap["job_id"])
    with open(job.checkpoint_path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
    assert header["event"] == "run_start"
    assert "trace_id" not in header
    assert not os.path.exists(os.path.join(job.dir, "journal.jsonl"))


# ----------------------------------------------------------------------
# live event streaming
# ----------------------------------------------------------------------
def test_stream_delivers_journal_events_live(server):
    """ServiceClient.stream() sees run_start before the run finishes
    and every journal event exactly once, in order."""
    client, service = server
    # A deliberately long run (~3-4s, a dozen iterations): the liveness
    # assertion below needs the stream to overlap the run even on a
    # loaded machine, and FAST jobs can finish inside one poll window.
    slow = dict(
        rs_pct_threshold=40.0,
        fom="area_per_rs",
        num_vectors=4000,
        candidate_limit=300,
    )
    netlist = dumps_bench(build_ripple_adder(10))
    snap = client.submit(dict(slow, seed=23), netlist=netlist)
    saw_while_running = False
    events = []
    for event in client.stream(snap["job_id"], wait=5.0, timeout=120):
        events.append(event)
        state = service.store.get(snap["job_id"]).state
        if state == "running":
            saw_while_running = True
    kinds = [e.get("event") for e in events]
    assert kinds[0] == "run_start"
    assert "summary" in kinds
    assert kinds.count("run_start") == 1  # no duplicates across polls
    assert saw_while_running, "stream only delivered after completion"


def test_events_offset_cursor(server, adder_bench):
    client, _service = server
    snap = client.submit(dict(FAST, seed=24), netlist=adder_bench)
    client.wait(snap["job_id"], timeout=120)
    first = client.events(snap["job_id"], offset=0, wait=0.0)
    assert first["complete"] is True
    total = first["next_offset"]
    assert total == len(first["events"]) > 0
    # Re-polling past the cursor returns nothing new.
    rest = client.events(snap["job_id"], offset=total, wait=0.0)
    assert rest["events"] == []
    assert rest["next_offset"] == total
    # A mid-stream cursor returns exactly the tail.
    tail = client.events(snap["job_id"], offset=total - 1, wait=0.0)
    assert len(tail["events"]) == 1
    assert tail["events"][0] == first["events"][-1]
    # A NaN wait would never reach the long-poll deadline, so it is
    # rejected like a non-numeric one.
    with pytest.raises(InvalidRequestError):
        client.events(snap["job_id"], wait=float("nan"))


def test_events_unknown_job_is_404(server):
    client, _service = server
    with pytest.raises(JobNotFoundError):
        client.events("job-999999", wait=0.0)


# ----------------------------------------------------------------------
# /v1/metrics counters
# ----------------------------------------------------------------------
def _sample(text, name):
    """The value of the unlabelled sample ``name``, or 0 if absent."""
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    return 0.0


def test_metrics_histograms_valid_under_concurrent_submissions(
    server, adder_bench
):
    client, _service = server
    before = _sample(client.metrics(), "repro_service_jobs_submitted_total")
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        snaps = list(
            pool.map(
                lambda seed: client.submit(
                    dict(FAST, seed=seed), netlist=adder_bench
                ),
                range(25, 29),
            )
        )
    for snap in snaps:
        assert client.wait(snap["job_id"], timeout=180)["state"] == "done"
    text = client.metrics()
    validate_openmetrics(text)
    assert "repro_service_jobs_submitted_total" in text
    after = _sample(text, "repro_service_jobs_submitted_total")
    assert after >= before + 4


def test_cache_hit_histogram_records_fast_path(server, adder_bench):
    client, _service = server
    first = client.submit(dict(FAST, seed=30), netlist=adder_bench)
    client.wait(first["job_id"], timeout=120)
    before = _sample(client.metrics(), "repro_service_cache_hits_total")
    again = client.submit(dict(FAST, seed=30), netlist=adder_bench)
    assert again["cached"] is True
    after = _sample(client.metrics(), "repro_service_cache_hits_total")
    assert after == before + 1


# ----------------------------------------------------------------------
# satellites: typed 404/400, progress from the journal, client disconnects
# ----------------------------------------------------------------------
def test_delete_unknown_job_is_typed_404(server):
    client, _service = server
    url = f"{client.base_url}/v1/jobs/job-424242"
    req = urllib.request.Request(url, method="DELETE")
    with pytest.raises(urllib.error.HTTPError) as exc_info:
        urllib.request.urlopen(req)
    err = exc_info.value
    assert err.code == 404
    body = json.loads(err.read().decode("utf-8"))
    assert body["error"]["code"] == "job_not_found"
    # And the client maps it back to the typed taxonomy.
    with pytest.raises(JobNotFoundError):
        client.cancel("job-424242")


def test_progress_is_folded_from_the_journal(server, adder_bench):
    """The journal is a job's one live record: no progress.json is
    written anywhere under the job, and status and events serve the
    fold of the job's journal."""
    client, service = server
    snap = client.submit(dict(FAST, seed=33), netlist=adder_bench)
    final = client.wait(snap["job_id"], timeout=120)
    assert final["state"] == "done"
    job = service.store.get(snap["job_id"])
    events = job_journal_events(job)
    folded = progress_from_events(events)
    assert folded["status"] == "complete"
    assert client.status(job.id)["progress"] == folded
    assert service.job_events(job.id)["progress"] == folded
    found = [
        name for _root, _dirs, files in os.walk(job.dir) for name in files
    ]
    assert "checkpoint.jsonl" in found and "progress.json" not in found


def test_torn_journal_tail_status_folds_readable_prefix(server, adder_bench):
    """A half-written last journal line (a runner mid-write) is not an
    event: a status poll still answers, with the fold of the readable
    prefix."""
    client, service = server
    snap = client.submit(dict(FAST, seed=31), netlist=adder_bench)
    client.wait(snap["job_id"], timeout=120)
    job = service.store.get(snap["job_id"])
    readable = job_journal_events(job)
    with open(job.checkpoint_path, "a", encoding="utf-8") as fh:
        fh.write('{"event": "iteration", "index": 99, "are')
    status = client.status(snap["job_id"])
    assert status["state"] == "done"
    assert status["progress"] == progress_from_events(readable)
    assert status["progress"]["status"] == "complete"


def test_client_disconnect_is_counted_not_crashed(server, adder_bench):
    """A peer that hangs up mid-long-poll increments the disconnect
    counter and never produces a 500 or a stack trace."""
    client, service = server
    snap = client.submit(dict(FAST, seed=32), netlist=adder_bench)
    parsed = urlparse(client.base_url)
    host, port = parsed.hostname, parsed.port
    # Open a raw long-poll (big offset so the server waits), then slam
    # the socket shut before the response arrives.
    sock = socket.create_connection((host, port), timeout=5)
    request = (
        f"GET /v1/jobs/{snap['job_id']}/events?offset=100000&wait=10 HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n\r\n"
    )
    sock.sendall(request.encode("ascii"))
    time.sleep(0.3)  # let the handler enter the long-poll
    # linger on, timeout 0: close sends RST, the hard hangup shape
    sock.setsockopt(
        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
    )
    sock.close()
    final = client.wait(snap["job_id"], timeout=120)
    assert final["state"] == "done"
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        count = service.obs.snapshot()["counters"].get(
            "service.client_disconnects", 0
        )
        if count >= 1:
            break
        time.sleep(0.1)
    assert count >= 1
    # The service keeps serving normally afterwards.
    assert client.healthz()["status"] == "ok"


def test_malformed_content_length_is_typed_400(server):
    """A Content-Length that is not a non-negative integer is a typed
    400, not a 500; the server then hangs up, since it cannot tell
    where the body ends, and no job is created."""
    client, _service = server
    parsed = urlparse(client.base_url)
    host, port = parsed.hostname, parsed.port
    before = len(client.jobs())
    for length in ("abc", "-5"):
        sock = socket.create_connection((host, port), timeout=10)
        try:
            sock.sendall(
                (
                    f"POST /v1/jobs HTTP/1.1\r\n"
                    f"Host: {host}:{port}\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {length}\r\n\r\n"
                ).encode("ascii")
            )
            reply = b""
            while True:  # read to EOF: the server must close
                chunk = sock.recv(65536)
                if not chunk:
                    break
                reply += chunk
        finally:
            sock.close()
        head, _, body = reply.partition(b"\r\n\r\n")
        status = head.split(b"\r\n")[0].split()[1]
        assert status == b"400", (length, head)
        assert json.loads(body)["error"]["code"] == "invalid_request"
    assert len(client.jobs()) == before
