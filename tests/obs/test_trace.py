"""Chrome-trace export: recorder semantics, export format, determinism."""

import json

import pytest

from repro.obs import (
    Instrumentation,
    TraceRecorder,
    load_journal,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.simplify import GreedyConfig, circuit_simplify

from tests.conftest import build_c17


# ----------------------------------------------------------------------
# recorder semantics
# ----------------------------------------------------------------------
def test_spans_record_events_with_parent_chain():
    obs = Instrumentation()
    obs.tracer = TraceRecorder(pid=100)
    with obs.span("greedy"):
        with obs.span("rank"):
            pass
        with obs.span("commit"):
            pass
    events = obs.tracer.events
    by_path = {ev[2]: ev for ev in events}
    assert set(by_path) == {"greedy", "greedy/rank", "greedy/commit"}
    greedy = by_path["greedy"]
    # children close before the parent and carry the parent's id
    assert by_path["greedy/rank"][1] == greedy[0]
    assert by_path["greedy/commit"][1] == greedy[0]
    assert greedy[1] is None
    # events close in LIFO order: rank, commit, greedy
    assert [ev[2] for ev in events] == ["greedy/rank", "greedy/commit", "greedy"]
    # children nest inside the parent's [t0, t1] window
    assert greedy[3] <= by_path["greedy/rank"][3]
    assert by_path["greedy/commit"][4] <= greedy[4]


def test_no_tracer_records_nothing():
    obs = Instrumentation()
    with obs.span("greedy"):
        pass
    assert obs.tracer is None  # the fast path stays a None check
    assert obs.snapshot()["timers"]["greedy"]["count"] == 1


# ----------------------------------------------------------------------
# chrome trace export
# ----------------------------------------------------------------------
def _nested_recorder():
    rec = TraceRecorder(pid=10)
    obs = Instrumentation()
    obs.tracer = rec
    with obs.span("greedy"):
        with obs.span("rank"):
            with obs.span("score"):
                pass
        with obs.span("commit"):
            pass
    with obs.span("summary"):
        pass
    return rec


def test_export_roundtrips_through_json(tmp_path):
    rec = _nested_recorder()
    path = tmp_path / "trace.json"
    n = write_chrome_trace(path, rec)
    assert n == 5
    with open(path) as fh:
        payload = json.load(fh)  # strict round-trip, no NaN/Infinity
    assert payload["displayTimeUnit"] == "ms"
    assert payload == to_chrome_trace(rec)


def test_export_lanes_and_metadata():
    payload = to_chrome_trace(_nested_recorder())
    meta = [ev for ev in payload["traceEvents"] if ev["ph"] == "M"]
    assert [(m["pid"], m["args"]["name"]) for m in meta] == [
        (10, "repro coordinator"),
    ]
    x_events = [ev for ev in payload["traceEvents"] if ev["ph"] == "X"]
    assert [ev["pid"] for ev in x_events] == [10] * 5
    # begin-time order: each parent before the children it contains
    assert [ev["args"]["path"] for ev in x_events] == [
        "greedy", "greedy/rank", "greedy/rank/score", "greedy/commit", "summary",
    ]


def test_export_spans_strictly_nest_per_lane():
    payload = to_chrome_trace(_nested_recorder())
    events = [ev for ev in payload["traceEvents"] if ev["ph"] == "X"]
    stack = []  # (end, id) of open intervals
    for ev in events:  # export order is begin-time order
        start, end = ev["ts"], ev["ts"] + ev["dur"]
        assert ev["dur"] >= 0
        while stack and stack[-1][0] <= start:
            stack.pop()
        if stack:
            # inside an open interval: fully contained, parent matches
            assert end <= stack[-1][0]
            assert ev["args"]["parent"] == stack[-1][1]
        else:
            assert ev["args"]["parent"] is None
        stack.append((end, ev["args"]["id"]))


def test_export_ids_are_pid_namespaced():
    payload = to_chrome_trace(_nested_recorder())
    ids = [ev["args"]["id"] for ev in payload["traceEvents"] if ev["ph"] == "X"]
    assert len(set(ids)) == len(ids)
    assert all(i.split(":")[0] == "10" for i in ids)


def test_export_timestamps_rebased_to_epoch():
    rec = TraceRecorder(pid=1)
    rec.begin("a")
    rec.end("a", rec.epoch + 0.5, rec.epoch + 1.5)
    (ev,) = [e for e in to_chrome_trace(rec)["traceEvents"] if e["ph"] == "X"]
    assert ev["ts"] == pytest.approx(0.5e6)
    assert ev["dur"] == pytest.approx(1.0e6)


# ----------------------------------------------------------------------
# acceptance: tracing does not perturb the run
# ----------------------------------------------------------------------
def test_serial_fault_sequence_identical_with_tracing(tmp_path):
    """Attaching a tracer must not change a single committed fault."""
    cfg = GreedyConfig(exhaustive=True, seed=0, candidate_limit=None,
                       datapath_only=False, redundancy_prepass=True)

    plain = tmp_path / "plain.jsonl"
    circuit_simplify(build_c17(), rs_pct_threshold=30.0, config=cfg,
                     journal=plain)

    traced_obs = Instrumentation()
    traced_obs.tracer = TraceRecorder()
    traced = tmp_path / "traced.jsonl"
    result = circuit_simplify(build_c17(), rs_pct_threshold=30.0, config=cfg,
                              journal=traced, obs=traced_obs)

    def faults(path):
        return [(e["fault"], e["area_after"], e["rs"])
                for e in load_journal(path, strict=True)
                if e["event"] == "iteration"]

    assert faults(plain) == faults(traced)
    assert result.iterations
    # and the run actually produced trace events covering the greedy loop
    paths = {ev[2] for ev in traced_obs.tracer.events}
    assert any(p.startswith("greedy") for p in paths)
    out = tmp_path / "trace.json"
    assert write_chrome_trace(out, traced_obs.tracer) == len(traced_obs.tracer.events)
    json.load(open(out))
