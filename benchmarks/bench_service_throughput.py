"""Job-server throughput: jobs/sec and latency percentiles over HTTP.

Not a paper table -- this pins the service layer added in v1.1: an
in-process server (ephemeral port, real sockets) is driven by thread
pools of concurrent submitters at several concurrency levels, cold
(every job a distinct semantic request -> a full simplification each)
and warm (every job identical -> one run, the rest served from the
content-addressed result cache).  The warm/cold ratio is the value of
the cache; the p99 latency is what a queued client actually waits.

Rows land in ``BENCH_service_throughput.json`` (via the shared
``bench_json`` fixture).
"""

import os
import statistics
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import SimplifyRequest, dumps_bench
from repro.service import ServiceClient, serve_in_thread
from tests.conftest import build_ripple_adder

FULL = bool(int(os.environ.get("REPRO_BENCH_FULL", "0")))

_CONCURRENCY = (2, 8) if not FULL else (2, 8, 32)
_JOBS_PER_LEVEL = 12 if not FULL else 48
_BENCH_TEXT = dumps_bench(build_ripple_adder(4))

# Small but real work: each cold job is a full greedy run on rca4.
_BASE = dict(
    rs_pct_threshold=6.0,
    fom="area_per_rs",
    num_vectors=400,
    candidate_limit=30,
)


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    httpd, svc, _thread = serve_in_thread(
        host="127.0.0.1",
        port=0,
        data_dir=str(tmp_path_factory.mktemp("bench-service")),
        workers=4,
        queue_limit=256,
    )
    client = ServiceClient(f"http://127.0.0.1:{httpd.server_address[1]}")
    yield client
    svc.stop()
    httpd.shutdown()
    httpd.server_close()


def _percentile(samples, pct):
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, round(pct / 100.0 * (len(ordered) - 1)))
    return ordered[idx]


def _drive(client, requests, concurrency):
    """Submit-and-wait each request; per-job wall latency in seconds."""

    def one(req):
        t0 = time.perf_counter()
        snap = client.submit(req, netlist=_BENCH_TEXT)
        client.wait(snap["job_id"], timeout=600, poll_interval=0.05)
        return time.perf_counter() - t0

    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        latencies = list(pool.map(one, requests))
    elapsed = time.perf_counter() - t0
    return elapsed, latencies


@pytest.mark.parametrize("concurrency", _CONCURRENCY)
def test_service_throughput(service, bench_rows, bench_json, concurrency):
    client = service

    # cold: distinct seeds -> distinct cache keys -> every job runs
    cold_reqs = [
        SimplifyRequest(seed=1000 * concurrency + i, **_BASE)
        for i in range(_JOBS_PER_LEVEL)
    ]
    cold_s, cold_lat = _drive(client, cold_reqs, concurrency)

    # warm: the same request every time -- prime the cache with one
    # real run, then every submission is a pure cache hit
    warm_req = SimplifyRequest(seed=777, **_BASE)
    client.wait(
        client.submit(warm_req, netlist=_BENCH_TEXT)["job_id"], timeout=600
    )
    warm_s, warm_lat = _drive(
        client, [warm_req] * _JOBS_PER_LEVEL, concurrency
    )

    # Metric names carry their direction: ``t_*_ms`` and ``*_p99_ms``
    # are lower-is-better, ``speedup*`` is higher-is-better.  (Raw
    # jobs/s would end in ``_s`` and be misread as a time.)
    row = {
        "concurrency": concurrency,
        "jobs": _JOBS_PER_LEVEL,
        "t_cold_per_job_ms": 1000 * cold_s / _JOBS_PER_LEVEL,
        "cold_p50_ms": 1000 * statistics.median(cold_lat),
        "cold_p99_ms": 1000 * _percentile(cold_lat, 99),
        "t_warm_per_job_ms": 1000 * warm_s / _JOBS_PER_LEVEL,
        "warm_p50_ms": 1000 * statistics.median(warm_lat),
        "warm_p99_ms": 1000 * _percentile(warm_lat, 99),
        "speedup_warm_vs_cold": cold_s / warm_s,
    }
    bench_json["service_throughput"].append(row)
    bench_rows.append(
        f"SERVICE throughput c={concurrency}: "
        f"cold {_JOBS_PER_LEVEL / cold_s:.2f} jobs/s "
        f"(p99 {row['cold_p99_ms']:.0f}ms), "
        f"warm {_JOBS_PER_LEVEL / warm_s:.2f} jobs/s "
        f"(p99 {row['warm_p99_ms']:.0f}ms), "
        f"cache speedup {row['speedup_warm_vs_cold']:.0f}x"
    )
    # the cache must make warm submissions far cheaper than cold ones
    assert row["speedup_warm_vs_cold"] > 1.0
    assert len(cold_lat) == len(warm_lat) == _JOBS_PER_LEVEL
