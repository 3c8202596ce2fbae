"""Job-server lifecycle: submit/poll/result, dedup, cancel, errors.

The slow crash-resume path (SIGKILL the worker mid-run) lives in
``test_resume.py``; this module covers everything that runs in
seconds.  One in-process server (ephemeral port) serves the whole
module; each test uses a distinct seed so the content-addressed cache
never couples two tests by accident -- except the test that couples
them on purpose.
"""

import json
import os
import subprocess
import sys

import pytest

from repro import SimplifyOutcome, SimplifyRequest, dumps_bench, loads_bench
from repro.core.errors import (
    CompileError,
    InvalidRequestError,
    JobCancelledError,
    JobNotFoundError,
    QueueFullError,
)
from repro.obs.metrics_export import validate_openmetrics
from repro.service import JobStore, ServiceClient, serve_in_thread
from tests.conftest import build_c17, build_ripple_adder

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


def test_submit_by_content_hash_is_400(server):
    """A submit naming its netlist by hash alone is refused as a request
    without a netlist: the server keeps no netlist store."""
    client, _service = server
    before = len(client.jobs())
    with pytest.raises(InvalidRequestError, match="'netlist'"):
        client._call("POST", "/v1/jobs", {
            "request": SimplifyRequest(seed=7, **FAST).to_dict(),
            "netlist_sha256": "0" * 64,
        })
    assert len(client.jobs()) == before


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
    # The circuit's name is text: any other JSON value is refused too.
    for name in (123, ["x"], {"a": 1}, True):
        with pytest.raises(InvalidRequestError, match="'name' must be a string"):
            client.submit(dict(FAST, seed=30), netlist=adder_bench, name=name)
    assert len(client.jobs()) == before


def test_newer_schema_version_is_rejected(server, adder_bench):
    client, _service = server
    from repro import SCHEMA_VERSION

    payload = SimplifyRequest(seed=8, **FAST).to_dict()
    payload["schema_version"] = SCHEMA_VERSION + 1
    with pytest.raises(InvalidRequestError, match="schema_version"):
        client.submit(payload, netlist=adder_bench)


def test_bad_netlist_is_422(server):
    """A netlist that does not parse is refused before any job exists,
    and leaves nothing behind."""
    client, service = server
    jobs = len(client.jobs())
    for text in ("INPUT((((", "INPUT(a)\nOUTPUT(z)\nz = FOO(a)\n"):
        with pytest.raises(CompileError):
            client.submit(SimplifyRequest(seed=9, **FAST), netlist=text)
        with pytest.raises(CompileError):
            service.submit(
                {"request": SimplifyRequest(seed=9, **FAST).to_dict(), "netlist": text}
            )
    assert not os.path.exists(os.path.join(service.data_dir, "netlists"))
    assert len(client.jobs()) == jobs


def test_retired_es_mode_without_the_atpg_is_400(server, adder_bench):
    """A submit body asking for ``es_mode="simulated"`` (commits without
    the ES-ATPG) answers 400 ``invalid_request`` and queues nothing;
    ``"hybrid"``, the rule every run commits on, is still accepted."""
    import urllib.error
    import urllib.request

    client, _service = server
    before = len(client.jobs())
    body = json.dumps({
        "request": dict(FAST, seed=31, es_mode="simulated"),
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
    assert "es_mode" in error["message"]
    assert len(client.jobs()) == before
    plain = client.submit(dict(FAST, seed=31), netlist=adder_bench)
    hybrid = client.submit(dict(FAST, seed=31, es_mode="hybrid"), netlist=adder_bench)
    assert hybrid["cache_key"] == plain["cache_key"]


def test_unknown_job_is_404(server):
    client, _service = server
    with pytest.raises(JobNotFoundError):
        client.status("job-999999")
    with pytest.raises(JobNotFoundError):
        client.result_json("job-999999")


def test_unknown_route_is_404(server, adder_bench):
    client, _service = server
    import urllib.error
    import urllib.request

    # A job that exists has no Chrome-trace route: its history is the
    # journal and the lifecycle log.
    job_id = client.submit(SimplifyRequest(seed=4, **FAST), netlist=adder_bench)[
        "job_id"
    ]
    # A job path has one non-empty id segment, as DELETE's does.
    for path in ("/v2/jobs", "/v1/errors", f"/v1/jobs/{job_id}/trace",
                 "/v1/jobs/a/b/result", "/v1/jobs/a/b/events",
                 "/v1/jobs//result"):
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(f"{client.base_url}{path}")
        assert exc_info.value.code == 404
        body = json.loads(exc_info.value.read())
        assert body["error"]["code"] == "not_found"
    # The netlist upload route is retired.
    upload = urllib.request.Request(
        f"{client.base_url}/v1/netlists", method="POST",
        data=json.dumps({"netlist": adder_bench}).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as exc_info:
        urllib.request.urlopen(upload, timeout=30)
    assert exc_info.value.code == 404
    assert json.loads(exc_info.value.read())["error"]["code"] == "not_found"
    # DELETE routes the path as GET does: one id segment, query dropped.
    for path, code in (
        (f"/v1/jobs/{job_id}/trace", "not_found"),
        ("/v1/jobs/job-999999?x=1", "job_not_found"),
    ):
        delete = urllib.request.Request(f"{client.base_url}{path}", method="DELETE")
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(delete, timeout=30)
        assert exc_info.value.code == 404
        error = json.loads(exc_info.value.read())["error"]
        assert error["code"] == code
        assert "?" not in error["message"]
    snapshot = client.status(job_id)
    assert snapshot["cancel_requested"] is False
    assert snapshot["state"] != "cancelled"


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


def test_queue_full_rejection_leaves_no_job_dir(tmp_path):
    """A 429 registers nothing, so it must leave nothing on disk."""
    store = JobStore(str(tmp_path), queue_limit=1)
    req = SimplifyRequest(rs_threshold=1.0)
    accepted = store.submit(req, "a", cache_key="k1", circuit_name="a")
    with pytest.raises(QueueFullError):
        store.submit(req, "b", cache_key="k2", circuit_name="b")
    assert os.listdir(tmp_path / "jobs") == [accepted.id]
    assert [j.id for j in store.list()] == [accepted.id]


def test_restarted_server_gives_new_jobs_fresh_dirs(tmp_path, adder_bench):
    """Two server generations on one data dir: the second numbers its
    jobs past the first's directories, so its job runs and caches its
    own result -- it does not inherit the outcome.json (and checkpoint)
    the first generation's job-000001 left."""
    jobs = []
    for name, bench in (("c17", dumps_bench(build_c17())), ("rca5", adder_bench)):
        httpd, service, _thread = serve_in_thread(
            host="127.0.0.1", port=0, data_dir=str(tmp_path), workers=1
        )
        client = ServiceClient(f"http://127.0.0.1:{httpd.server_address[1]}")
        request = SimplifyRequest(seed=31, **FAST)
        try:
            snap = client.submit(request, netlist=bench, name=name)
            assert client.wait(snap["job_id"], timeout=300)["state"] == "done"
            remote = client.result(snap["job_id"])
            jobs.append(service.store.get(snap["job_id"]))
        finally:
            service.stop()
            httpd.shutdown()
            httpd.server_close()
        local = SimplifyOutcome.from_json(
            request.run(loads_bench(bench, name=name)).to_json()
        )
        assert dumps_bench(remote.simplified) == dumps_bench(local.simplified)
        assert remote.final_metrics == local.final_metrics
    assert [job.id for job in jobs] == ["job-000001", "job-000002"]


def test_runner_module_runs_once_under_python_m():
    """``python -m repro.service.runner`` must not import the runner
    before runpy executes it as ``__main__``: runpy's RuntimeWarning
    would open every job's runner.log (here it is an error)."""
    from repro.service.workers import _runner_env

    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.service.runner"],
        env=_runner_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "usage: python -m repro.service.runner <jobdir>\n"


@pytest.mark.parametrize(
    "kwargs", [{"queue_limit": 0}, {"queue_limit": -3},
               {"max_attempts": 0}, {"max_attempts": -1}]
)
def test_queue_and_retry_bounds_below_one_are_rejected(tmp_path, kwargs):
    """queue.Queue(maxsize <= 0) is unbounded and a zero retry budget
    still ran once: both are refused up front, as ``workers`` is."""
    from repro.service.server import SimplifyService

    with pytest.raises(ValueError, match="must be >= 1"):
        JobStore(str(tmp_path / "store"), **kwargs)
    with pytest.raises(ValueError, match="must be >= 1"):
        SimplifyService(str(tmp_path / "svc"), **kwargs)


@pytest.mark.parametrize("timeout", [float("nan"), -5.0, 0.0, float("inf")])
def test_hang_timeout_must_be_finite_and_positive(tmp_path, timeout):
    """A NaN or infinite deadline never fires and a non-positive one
    was silently read as "disabled": each is refused, before the
    service opens its logs.  ``None`` disables the watchdog."""
    from repro.service.cache import ResultCache
    from repro.service.server import SimplifyService
    from repro.service.workers import WorkerPool

    store = JobStore(str(tmp_path / "store"))
    cache = ResultCache(str(tmp_path / "cache"))
    with pytest.raises(ValueError, match="hang_timeout_s"):
        WorkerPool(store, cache, hang_timeout_s=timeout)
    assert WorkerPool(store, cache, hang_timeout_s=None).hang_timeout_s is None
    assert WorkerPool(store, cache, hang_timeout_s=2.5).hang_timeout_s == 2.5
    with pytest.raises(ValueError, match="hang_timeout_s"):
        SimplifyService(str(tmp_path / "svc"), hang_timeout_s=timeout)
    assert not os.path.exists(tmp_path / "svc" / "logs")


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
