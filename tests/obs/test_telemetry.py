"""Background telemetry: sampler lifecycle, rates, trace tracks, e2e."""

import json
import time

import pytest

from repro.obs import (
    Instrumentation,
    JournalError,
    RunJournal,
    TelemetryMonitor,
    cpu_seconds,
    load_journal,
    sample_rss_bytes,
    validate_event,
)
from repro.obs.telemetry import THROUGHPUT_SOURCES
from repro.simplify import GreedyConfig, circuit_simplify

from tests.conftest import build_c17


# ----------------------------------------------------------------------
# primitives
# ----------------------------------------------------------------------
def test_rss_and_cpu_primitives_read_positive():
    assert sample_rss_bytes() > 1_000_000  # a python process is >1 MB
    assert cpu_seconds() > 0.0


# ----------------------------------------------------------------------
# monitor lifecycle
# ----------------------------------------------------------------------
def test_start_stop_records_at_least_two_valid_samples():
    """Even a run far shorter than the interval gets a start/end pair."""
    obs = Instrumentation()
    mon = TelemetryMonitor(obs, interval_s=60.0)
    with mon:
        pass
    assert len(mon.samples) >= 2
    for ev in mon.samples:
        validate_event(ev)  # telemetry is a known journal-v4 event type
        assert ev["lane"] == "coordinator"
        assert ev["rss_bytes"] > 0
        assert ev["cpu_s"] > 0
    assert mon.samples[-1]["t_s"] >= mon.samples[0]["t_s"]
    # gauges reflect the series (summary-bound)
    snap = obs.snapshot()
    assert snap["gauges"]["telemetry.rss_bytes"] > 0
    assert snap["gauges"]["telemetry.rss_peak_bytes"] >= snap["gauges"][
        "telemetry.rss_bytes"
    ]
    assert snap["gauges"]["telemetry.samples"] == len(mon.samples)


def test_interval_sampling_produces_a_series():
    obs = Instrumentation()
    with TelemetryMonitor(obs, interval_s=0.02) as mon:
        time.sleep(0.15)
    assert len(mon.samples) >= 4
    t = [ev["t_s"] for ev in mon.samples]
    assert t == sorted(t)


def test_rates_derive_from_counter_deltas():
    obs = Instrumentation()
    mon = TelemetryMonitor(obs, interval_s=60.0)
    first = mon.sample()
    assert first["gauges"] == {name: 0.0 for name, _ in THROUGHPUT_SOURCES}
    obs.incr("estimator.vectors_simulated", 500)
    obs.incr("faultsim.vectors_simulated", 500)
    obs.incr("batchsim.faults_evaluated", 40)
    obs.incr("greedy.candidates_scored", 20)
    time.sleep(0.05)
    second = mon.sample()
    rates = second["gauges"]
    dt = second["t_s"] - first["t_s"]
    assert rates["patterns_per_s"] == pytest.approx(1000 / dt, rel=0.01)
    assert rates["faults_per_s"] == pytest.approx(40 / dt, rel=0.01)
    assert rates["candidates_per_s"] == pytest.approx(20 / dt, rel=0.01)
    assert obs.snapshot()["gauges"]["telemetry.patterns_per_s"] == rates[
        "patterns_per_s"
    ]


def test_sink_receives_every_sample(tmp_path):
    path = tmp_path / "run.jsonl"
    obs = Instrumentation()
    with RunJournal(path) as journal:
        with TelemetryMonitor(obs, sink=journal, interval_s=60.0) as mon:
            pass
    events = load_journal(path, strict=True)
    assert events == mon.samples


# ----------------------------------------------------------------------
# trace counter tracks
# ----------------------------------------------------------------------
def test_monitor_feeds_trace_counter_tracks(tmp_path):
    from repro.obs import TraceRecorder
    from repro.obs.trace import to_chrome_trace

    obs = Instrumentation()
    obs.tracer = TraceRecorder()
    with obs.span("work"):
        with TelemetryMonitor(obs, interval_s=60.0):
            pass
    trace = to_chrome_trace(obs.tracer)
    counters = [ev for ev in trace["traceEvents"] if ev.get("ph") == "C"]
    assert counters, "no counter events exported"
    names = {ev["name"] for ev in counters}
    assert "rss_mb" in names and "patterns_per_s" in names
    for ev in counters:
        assert ev["cat"] == "telemetry"
        assert "value" in ev["args"]


# ----------------------------------------------------------------------
# end-to-end through circuit_simplify
# ----------------------------------------------------------------------
def test_simplify_with_telemetry_journals_both_lanes(tmp_path):
    path = tmp_path / "run.jsonl"
    result = circuit_simplify(
        build_c17(),
        rs_pct_threshold=10.0,
        config=GreedyConfig(num_vectors=32, seed=0, exhaustive=True),
        journal=path,
        telemetry_interval=0.02,
    )
    assert result.faults  # the run did real work
    events = load_journal(path, strict=True)
    assert events[0]["event"] == "run_start"  # header stays first
    tel = [e for e in events if e["event"] == "telemetry"]
    coord = [e for e in tel if e["lane"] == "coordinator"]
    assert len(coord) >= 2
    summary = events[-1]
    assert summary["event"] == "summary"
    assert summary["gauges"]["telemetry.rss_peak_bytes"] >= max(
        e["rss_bytes"] for e in coord
    )
    # the final sample lands before the summary, so the samples gauge
    # equals the journaled event count
    assert summary["gauges"]["telemetry.samples"] == len(tel)


def test_telemetry_interval_validation():
    from repro.core import SimplifyRequest

    with pytest.raises(ValueError, match="telemetry_interval"):
        SimplifyRequest(rs_pct_threshold=1.0, telemetry_interval=0.0)
    with pytest.raises(ValueError, match="telemetry_interval"):
        SimplifyRequest(rs_pct_threshold=1.0, telemetry_interval=-1.0)


def test_telemetry_event_schema_required_keys():
    ev = {
        "event": "telemetry",
        "t_s": 0.1,
        "pid": 1,
        "lane": "coordinator",
        "rss_bytes": 1,
        "cpu_s": 0.1,
    }
    validate_event(ev)
    for key in ("t_s", "pid", "lane", "rss_bytes", "cpu_s"):
        broken = dict(ev)
        del broken[key]
        with pytest.raises(JournalError, match=key):
            validate_event(broken)
