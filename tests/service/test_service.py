"""Job-server lifecycle: submit/poll/result, dedup, cancel, errors.

The slow crash-resume path (SIGKILL the worker mid-run) lives in
``test_resume.py``; this module covers everything that runs in
seconds.  One in-process server (ephemeral port) serves the whole
module; each test uses a distinct seed so the content-addressed cache
never couples two tests by accident -- except the test that couples
them on purpose.
"""

import json

import pytest

from repro import SimplifyOutcome, SimplifyRequest, dumps_bench, loads_bench
from repro.core.errors import (
    CompileError,
    InvalidRequestError,
    JobCancelledError,
    JobNotFoundError,
    QueueFullError,
    UnknownNetlistError,
)
from repro.obs.metrics_export import validate_openmetrics
from repro.service import JobStore, ServiceClient, serve_in_thread
from tests.conftest import build_ripple_adder

# Fast request shape: a 5-bit ripple adder simplifies in a second or
# two at these knobs (same budget as the checkpoint tests).
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


def test_healthz(server):
    client, _service = server
    from repro import SCHEMA_VERSION, __version__

    health = client.healthz()
    assert health["status"] == "ok"
    assert health["version"] == __version__
    assert health["schema_version"] == SCHEMA_VERSION


def test_submit_poll_result_matches_direct_run(server, adder_bench):
    """The service answer is bit-identical to calling simplify() here."""
    client, _service = server
    request = SimplifyRequest(seed=4, **FAST)
    snap = client.submit(request, netlist=adder_bench, name="rca5")
    assert snap["state"] in ("queued", "running")
    assert snap["job_id"]
    final = client.wait(snap["job_id"], timeout=300)
    assert final["state"] == "done"
    assert final["attempts"] == 1
    remote = client.result(snap["job_id"])

    # The reference run sees exactly what the runner saw: the bench
    # text as submitted, the request as submitted.  The wire outcome
    # crossed one JSON round trip (which re-parses the bench text and
    # normalizes gate emission order), so normalize the local result
    # through the same round trip before the verbatim comparison.
    local_raw = request.run(loads_bench(adder_bench, name="rca5"))
    local = SimplifyOutcome.from_json(local_raw.to_json())
    assert dumps_bench(remote.simplified) == dumps_bench(local.simplified)
    assert sorted(dumps_bench(local_raw.simplified).splitlines()) == sorted(
        dumps_bench(local.simplified).splitlines()
    )
    assert [str(f) for f in remote.faults] == [str(f) for f in local.faults]
    assert remote.final_metrics == local.final_metrics
    assert remote.area_reduction == local.area_reduction


def test_duplicate_submit_costs_one_run(server, adder_bench):
    client, service = server
    request = SimplifyRequest(seed=5, **FAST)
    first = client.submit(request, netlist=adder_bench)
    # identical semantics, different non-semantic knobs: same cache key
    second = client.submit(request.replace(workers=None, journal=None),
                           netlist=adder_bench)
    assert second["cache_key"] == first["cache_key"]
    if second["job_id"] == first["job_id"]:
        assert second["deduplicated"]  # coalesced onto the live job
    else:
        assert second["cached"]  # first finished already: served from cache
        assert second["state"] == "done"
    client.wait(first["job_id"], timeout=300)
    # a third submit after completion is a pure cache hit: born done
    third = client.submit(request, netlist=adder_bench)
    assert third["state"] == "done"
    assert third["cached"]
    assert client.result_json(third["job_id"]) == client.result_json(
        first["job_id"]
    )
    # exactly one job directory ever ran this key
    ran = [
        j for j in service.store.list()
        if j.cache_key == first["cache_key"] and j.attempts > 0
    ]
    assert len(ran) == 1


def test_submit_by_content_hash(server, adder_bench):
    client, _service = server
    sha = client.upload_netlist(adder_bench)
    request = SimplifyRequest(seed=6, **FAST)
    snap = client.submit(request, netlist_sha256=sha)
    assert snap["netlist_sha256"] == sha
    final = client.wait(snap["job_id"], timeout=300)
    assert final["state"] == "done"
    # submitting the text directly hits the same cache entry
    again = client.submit(request, netlist=adder_bench)
    assert again["cached"]


def test_unknown_content_hash_is_404(server):
    client, _service = server
    with pytest.raises(UnknownNetlistError):
        client.submit(SimplifyRequest(seed=7, **FAST),
                      netlist_sha256="0" * 64)


def test_invalid_request_is_400(server, adder_bench):
    client, _service = server
    with pytest.raises(InvalidRequestError):
        client.submit({"rs_pct_threshold": 1.0, "fom": "nope"},
                      netlist=adder_bench)
    with pytest.raises(InvalidRequestError):
        client.submit({"rs_pct_threshold": 1.0, "turbo": True},
                      netlist=adder_bench)
    with pytest.raises(InvalidRequestError):
        # no netlist at all
        client.submit({"rs_pct_threshold": 1.0})


def test_malformed_field_is_400_and_creates_no_job(server, adder_bench):
    """A threshold of the wrong type answers 400 ``invalid_request`` at
    submit time instead of queueing a job that crashes in the runner."""
    import urllib.error
    import urllib.request

    client, _service = server
    before = len(client.jobs())
    body = json.dumps({
        "request": dict(FAST, seed=30, rs_pct_threshold="abc"),
        "netlist": adder_bench,
    }).encode("utf-8")
    post = urllib.request.Request(
        f"{client.base_url}/v1/jobs", data=body, method="POST",
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as info:
        urllib.request.urlopen(post, timeout=30)
    assert info.value.code == 400
    error = json.loads(info.value.read())["error"]
    assert error["code"] == "invalid_request"
    assert "rs_pct_threshold" in error["message"]
    with pytest.raises(InvalidRequestError):
        client.submit(dict(FAST, seed=30, workers="two"), netlist=adder_bench)
    assert len(client.jobs()) == before


def test_newer_schema_version_is_rejected(server, adder_bench):
    client, _service = server
    from repro import SCHEMA_VERSION

    payload = SimplifyRequest(seed=8, **FAST).to_dict()
    payload["schema_version"] = SCHEMA_VERSION + 1
    with pytest.raises(InvalidRequestError, match="schema_version"):
        client.submit(payload, netlist=adder_bench)


def test_bad_netlist_is_422(server):
    client, _service = server
    with pytest.raises(CompileError):
        client.submit(SimplifyRequest(seed=9, **FAST), netlist="INPUT((((")


def test_unknown_job_is_404(server):
    client, _service = server
    with pytest.raises(JobNotFoundError):
        client.status("job-999999")
    with pytest.raises(JobNotFoundError):
        client.result_json("job-999999")


def test_unknown_route_is_404(server):
    client, _service = server
    import urllib.error
    import urllib.request

    with pytest.raises(urllib.error.HTTPError) as exc_info:
        urllib.request.urlopen(f"{client.base_url}/v2/jobs")
    assert exc_info.value.code == 404
    body = json.loads(exc_info.value.read())
    assert body["error"]["code"] == "not_found"


def test_metrics_endpoint_validates(server):
    client, _service = server
    text = client.metrics()
    assert validate_openmetrics(text) > 0
    assert "repro_service_jobs_submitted_total" in text
    assert "repro_gauge_service_queue_depth" in text
    assert "repro_gauge_service_workers" in text
    assert 'repro_run_info{service="repro-simplify"' in text


def test_jobs_listing(server):
    client, _service = server
    jobs = client.jobs()
    assert jobs, "earlier tests populated the store"
    assert all({"job_id", "state", "circuit"} <= j.keys() for j in jobs)


def test_queue_full_is_bounded(tmp_path):
    """The FIFO is a hard bound: submits past it raise queue_full."""
    store = JobStore(str(tmp_path), queue_limit=1)
    req = SimplifyRequest(rs_threshold=1.0)
    store.submit(req, "a", cache_key="k1", circuit_name="a")
    with pytest.raises(QueueFullError):
        store.submit(req, "b", cache_key="k2", circuit_name="b")
    # the duplicate of a queued job does NOT need a queue slot
    dup = store.submit(req, "a", cache_key="k1", circuit_name="a")
    assert dup.deduplicated


def test_cancel_mid_run(server, adder_bench):
    client, _service = server
    # a heavier request so there is a mid-run to cancel
    request = SimplifyRequest(
        rs_pct_threshold=6.0, fom="area_per_rs", num_vectors=4000,
        candidate_limit=200, seed=10,
    )
    snap = client.submit(request, netlist=adder_bench)
    cancelled = client.cancel(snap["job_id"])
    assert cancelled["cancel_requested"] or cancelled["state"] == "cancelled"
    final = client.wait(snap["job_id"], timeout=120)
    assert final["state"] == "cancelled"
    with pytest.raises(JobCancelledError):
        client.result_json(snap["job_id"])
    # a cancelled key does not poison the cache: resubmit really runs
    again = client.submit(request, netlist=adder_bench)
    assert not again.get("cached")
    assert again["job_id"] != snap["job_id"]
    refinal = client.wait(again["job_id"], timeout=300)
    assert refinal["state"] == "done"
