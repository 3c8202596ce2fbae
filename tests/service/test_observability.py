"""Service observability: trace ids, SLO histograms, streaming, traces.

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
from repro.obs.metrics_export import validate_openmetrics
from repro.obs.slo import parse_openmetrics_histograms, quantile_from_buckets
from repro.service import ServiceClient, serve_in_thread
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
# correlation ids
# ----------------------------------------------------------------------
def test_trace_id_propagates_end_to_end(server, adder_bench):
    """One trace id: API response -> service logs -> journal -> /trace."""
    client, service = server
    trace_id = "e2e-trace-abc.123"
    snap = client.submit(
        dict(FAST, seed=20), netlist=adder_bench, trace_id=trace_id
    )
    assert snap["trace_id"] == trace_id
    final = client.wait(snap["job_id"], timeout=120)
    assert final["state"] == "done"
    assert final["trace_id"] == trace_id

    # Response header echo on job-scoped GETs.
    url = f"{client.base_url}/v1/jobs/{snap['job_id']}"
    with urllib.request.urlopen(url) as resp:
        assert resp.headers.get("X-Repro-Trace-Id") == trace_id

    # Structured lifecycle log: every transition carries the trace id.
    with open(service.log.events_path, "r", encoding="utf-8") as fh:
        events = [json.loads(line) for line in fh]
    mine = [e for e in events if e.get("job_id") == snap["job_id"]]
    kinds = {e["kind"] for e in mine}
    assert {"submitted", "started", "attempt", "done"} <= kinds
    assert all(e.get("trace_id") == trace_id for e in mine)

    # Access log: the submit POST carries it too.
    with open(service.log.access_path, "r", encoding="utf-8") as fh:
        access = [json.loads(line) for line in fh]
    assert any(
        a["method"] == "POST" and a.get("trace_id") == trace_id for a in access
    )

    # Runner journal header: the runner-side half of the correlation.
    # The checkpoint is the job's one journal; no second copy is written.
    job = service.store.get(snap["job_id"])
    with open(job.checkpoint_path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
    assert header["event"] == "run_start"
    assert header["trace_id"] == trace_id
    assert not os.path.exists(os.path.join(job.dir, "journal.jsonl"))

    # Assembled Chrome trace: the id rides the lane metadata.
    trace = client.trace(snap["job_id"])
    meta = [e for e in trace["traceEvents"] if e.get("ph") == "M"]
    assert meta and all(e["args"]["trace_id"] == trace_id for e in meta)
    names = [e["name"] for e in trace["traceEvents"] if e.get("ph") == "X"]
    assert "queue-wait" in names
    assert any(n.startswith("attempt ") for n in names)
    assert any(n.startswith("iter ") for n in names)


def test_server_generates_trace_id_when_absent(server, adder_bench):
    client, _service = server
    snap = client.submit(dict(FAST, seed=21), netlist=adder_bench)
    assert snap["trace_id"]  # a generated uuid, never empty
    client.wait(snap["job_id"], timeout=120)


def test_invalid_trace_id_header_is_400(server, adder_bench):
    client, _service = server
    with pytest.raises(InvalidRequestError):
        client.submit(
            dict(FAST, seed=22),
            netlist=adder_bench,
            trace_id="bad id with spaces",
        )


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


def test_events_unknown_job_is_404(server):
    client, _service = server
    with pytest.raises(JobNotFoundError):
        client.events("job-999999", wait=0.0)


# ----------------------------------------------------------------------
# /v1/metrics histograms
# ----------------------------------------------------------------------
def test_metrics_histograms_valid_under_concurrent_submissions(
    server, adder_bench
):
    client, _service = server
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
    families = parse_openmetrics_histograms(text)
    for name in (
        "repro_slo_queue_wait_seconds",
        "repro_slo_attempt_seconds",
        "repro_slo_e2e_seconds",
    ):
        assert name in families, f"{name} missing from /v1/metrics"
        assert families[name]["count"] >= 4
        assert quantile_from_buckets(families[name]["buckets"], 0.99) is not None
    # e2e includes queue wait, so its total time dominates.
    assert (
        families["repro_slo_e2e_seconds"]["sum"]
        >= families["repro_slo_queue_wait_seconds"]["sum"]
    )


def test_cache_hit_histogram_records_fast_path(server, adder_bench):
    client, _service = server
    first = client.submit(dict(FAST, seed=30), netlist=adder_bench)
    client.wait(first["job_id"], timeout=120)
    again = client.submit(dict(FAST, seed=30), netlist=adder_bench)
    assert again["cached"] is True
    families = parse_openmetrics_histograms(client.metrics())
    assert families["repro_slo_cache_hit_seconds"]["count"] >= 1


# ----------------------------------------------------------------------
# satellites: typed 404, progress hardening, client disconnects
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


def test_garbage_progress_file_counts_and_returns_none(server, adder_bench):
    client, service = server
    snap = client.submit(dict(FAST, seed=31), netlist=adder_bench)
    client.wait(snap["job_id"], timeout=120)
    job = service.store.get(snap["job_id"])
    before = service.obs.snapshot()["counters"].get(
        "service.progress_read_errors", 0
    )
    with open(job.progress_path, "w", encoding="utf-8") as fh:
        fh.write("{torn json")
    assert job.progress() is None
    # Non-dict JSON is garbage too.
    with open(job.progress_path, "w", encoding="utf-8") as fh:
        fh.write("[1, 2]\n")
    assert job.progress() is None
    after = service.obs.snapshot()["counters"]["service.progress_read_errors"]
    assert after >= before + 2
    # A status poll still answers (progress block simply absent).
    assert "progress" not in client.status(snap["job_id"])


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
