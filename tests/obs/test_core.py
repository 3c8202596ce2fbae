"""Instrumentation core: spans, counters, gauges, active registry."""

import time

import pytest

from repro.obs import NULL, Instrumentation, NullInstrumentation, get_active, set_active, use


def test_counters_accumulate():
    obs = Instrumentation()
    obs.incr("a")
    obs.incr("a", 4)
    obs.incr("b", 2)
    assert obs.counters == {"a": 5, "b": 2}


def test_counters_since_reports_deltas_only():
    obs = Instrumentation()
    obs.incr("a", 3)
    base = dict(obs.counters)
    obs.incr("a", 2)
    obs.incr("c", 7)
    assert obs.counters_since(base) == {"a": 2, "c": 7}


def test_snapshot_since_holds_one_runs_timers_and_counters():
    obs = Instrumentation()
    with obs.span("prepass"):
        obs.incr("a", 3)
    with obs.span("idle"):
        pass
    obs.gauge_max("m", 9)
    base = obs.snapshot()
    with obs.span("prepass"):
        obs.incr("a", 2)
    with obs.span("greedy"):
        obs.gauge_max("m", 4)
    snap = obs.snapshot_since(base)
    assert set(snap["timers"]) == {"prepass", "greedy"}  # "idle" unchanged
    assert snap["timers"]["prepass"]["count"] == 1
    assert snap["timers"]["prepass"]["total_s"] == pytest.approx(
        obs.timers["prepass"].total_s - base["timers"]["prepass"]["total_s"]
    )
    assert snap["counters"] == {"a": 2}
    assert snap["gauges"] == {"m": 9}  # gauges are whole-registry watermarks


def test_gauge_max_keeps_the_watermark():
    obs = Instrumentation()
    obs.gauge_max("m", 5)
    obs.gauge_max("m", 3)
    assert obs.gauges["m"] == 5
    # watermarks are the only gauges: there is no last-value primitive
    assert not hasattr(Instrumentation, "gauge")
    assert not hasattr(NullInstrumentation, "gauge")


def test_span_records_time_and_count():
    obs = Instrumentation()
    for _ in range(3):
        with obs.span("phase"):
            time.sleep(0.002)
    stat = obs.timers["phase"]
    assert stat.count == 3
    assert stat.total_s >= 0.005
    assert stat.mean_s > 0


def test_nested_spans_build_hierarchical_paths():
    obs = Instrumentation()
    with obs.span("outer"):
        with obs.span("inner"):
            pass
        with obs.span("inner"):
            pass
    assert set(obs.timers) == {"outer", "outer/inner"}
    assert obs.timers["outer/inner"].count == 2
    assert obs.timers["outer"].count == 1
    # stack is clean again: a new span is top-level
    with obs.span("later"):
        pass
    assert "later" in obs.timers


def test_span_pops_stack_on_exception():
    obs = Instrumentation()
    try:
        with obs.span("boom"):
            raise RuntimeError("x")
    except RuntimeError:
        pass
    with obs.span("after"):
        pass
    assert set(obs.timers) == {"boom", "after"}


def test_snapshot_is_json_plain():
    import json

    obs = Instrumentation()
    with obs.span("p"):
        obs.incr("n", 2)
        obs.gauge_max("g", 1.5)
    snap = obs.snapshot()
    json.dumps(snap)  # must be serializable
    assert snap["counters"] == {"n": 2}
    assert snap["timers"]["p"]["count"] == 1


def test_null_instrumentation_records_nothing():
    assert isinstance(NULL, NullInstrumentation)
    assert not NULL.enabled
    with NULL.span("x"):
        NULL.incr("c", 10)
        NULL.gauge_max("m", 1)
    assert NULL.counters == {}
    assert NULL.gauges == {}
    assert NULL.timers == {}


def test_active_registry_roundtrip():
    assert get_active() is NULL
    obs = Instrumentation()
    with use(obs):
        assert get_active() is obs
        with use(None):
            assert get_active() is NULL
        assert get_active() is obs
    assert get_active() is NULL
    prev = set_active(obs)
    assert prev is NULL
    assert set_active(None) is obs
    assert get_active() is NULL


def test_reset_clears_everything():
    obs = Instrumentation()
    with obs.span("p"):
        obs.incr("c")
    obs.gauge_max("g", 1)
    obs.reset()
    assert obs.timers == {} and obs.counters == {} and obs.gauges == {}
