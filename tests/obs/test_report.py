"""Report renderer: complete runs, interrupted prefixes, snapshots."""

import pytest

from repro.obs import (
    Instrumentation,
    JournalError,
    render_report,
    render_snapshot,
    report_from_file,
)
from repro.obs.report import _fmt_s

from .test_journal import _header, _iteration


def _summary(**over):
    ev = {
        "event": "summary",
        "iterations": 2,
        "faults_injected": 2,
        "area_before": 3,
        "area_after": 1,
        "area_reduction_pct": 66.7,
        "elapsed_s": 1.5,
        "timers": {
            "greedy": {"total_s": 1.2, "count": 1, "mean_s": 1.2},
            "greedy/rank": {"total_s": 0.9, "count": 2, "mean_s": 0.45},
            "prepass": {"total_s": 0.3, "count": 1, "mean_s": 0.3},
        },
        "counters": {"batchsim.vectors": 4000, "podem.backtracks": 17},
    }
    ev.update(over)
    return ev


def _complete_events():
    return [
        _header(circuit="c17"),
        _iteration(0),
        _iteration(1, fault="G3 SA1", area_before=2, area_after=1),
        _summary(),
    ]


def test_complete_run_renders_all_sections():
    out = render_report(_complete_events())
    assert "=== run ===" in out
    assert "circuit: c17" in out
    assert "status: complete" in out
    assert "=== phase times ===" in out
    # top-level spans (greedy + prepass = 1.5s) are the 100% basis
    assert "greedy" in out and "prepass" in out
    assert "greedy/rank" in out
    assert "=== iterations ===" in out
    assert "G3 SA1" in out
    assert "=== top counters" in out
    assert "batchsim.vectors" in out and "4,000" in out


def test_phase_share_uses_top_level_spans_as_basis():
    out = render_report(_complete_events())
    greedy_row = next(
        line for line in out.splitlines() if line.startswith("greedy ")
    )
    # greedy is 1.2s of the 1.5s partitioned by top-level spans: 80%
    assert "80.0%" in greedy_row


def test_interrupted_run_aggregates_iteration_phase_times():
    events = [
        _header(),
        _iteration(0, phase_times={"rank": 0.2, "commit": 0.1}, counters={"c": 5}),
        _iteration(1, phase_times={"rank": 0.4, "commit": 0.1}, counters={"c": 7}),
    ]
    out = render_report(events)
    assert "status: INTERRUPTED -- readable prefix holds 2 iteration(s)" in out
    assert "rank" in out and "commit" in out
    # counters summed across the prefix
    assert "12" in out


def test_headerless_prefix_still_renders():
    out = render_report([_iteration(0)])
    assert "(no run_start header -- journal prefix starts mid-run)" in out
    assert "status: INTERRUPTED" in out


def test_no_iterations_and_no_timers_degrade_gracefully():
    out = render_report([_header()])
    assert "(no timing data recorded)" in out
    assert "(no committed iterations)" in out
    assert "(no counters recorded)" in out


def test_top_k_limits_counter_rows():
    summary = _summary(counters={f"c{i:02d}": 100 - i for i in range(20)})
    out = render_report([_header(), summary], top_k=3)
    import re

    counter_lines = [
        line for line in out.splitlines() if re.match(r"^c\d\d\b", line)
    ]
    assert len(counter_lines) == 3
    assert "c00" in out and "c03" not in out


def test_render_snapshot_profile_view():
    obs = Instrumentation()
    with obs.span("rank"):
        obs.incr("vectors", 1234)
    out = render_snapshot(obs.snapshot())
    assert "=== phase times ===" in out
    assert "rank" in out
    assert "vectors" in out and "1,234" in out


def test_report_from_file_roundtrip_and_errors(tmp_path):
    import json

    path = tmp_path / "run.jsonl"
    with open(path, "w") as fh:
        for ev in _complete_events():
            fh.write(json.dumps(ev) + "\n")
    assert "status: complete" in report_from_file(path)
    (tmp_path / "empty.jsonl").write_text("")
    with pytest.raises(JournalError, match="empty journal"):
        report_from_file(tmp_path / "empty.jsonl")
    with pytest.raises(FileNotFoundError):
        report_from_file(tmp_path / "missing.jsonl")


def test_fmt_s_scales_units():
    assert _fmt_s(2.5) == "2.50s"
    assert _fmt_s(0.0153) == "15.3ms"
    assert _fmt_s(0.0000042) == "4us"


# ----------------------------------------------------------------------
# pinned quality counters + derived cache hit-rates
# ----------------------------------------------------------------------
def test_quality_counters_pinned_into_top_k():
    counters = {f"c{i:02d}": 1000 - i for i in range(10)}
    counters["quality.budget_risk_accepts"] = 2  # far below every c* row
    counters["quality.zero_pattern_estimates"] = 1
    out = render_report([_header(), _summary(counters=counters)], top_k=3)
    assert "c00" in out and "c03" not in out
    assert "quality.budget_risk_accepts" in out
    assert "quality.zero_pattern_estimates" in out


def test_derived_cache_hit_rate_rows():
    counters = {
        "estimator.batchsim_cache_hits": 30,
        "estimator.batchsim_cache_misses": 10,
        "estimator.sim_cache_hits": 0,
        "estimator.sim_cache_misses": 0,  # zero total: no row
        "greedy.preview_memo_hits": 27691,
        "greedy.preview_memo_misses": 4763,
        "compile.cache_hits": 25,
        "compile.cache_misses": 26,
    }
    out = render_report([_header(), _summary(counters=counters)])
    assert "estimator.batchsim_cache_hit_rate" in out
    assert "75.0%  (30/40)" in out
    assert "greedy.preview_memo_hit_rate" in out
    assert "85.3%  (27691/32454)" in out
    assert "compile.cache_hit_rate" in out
    assert "49.0%  (25/51)" in out
    assert "estimator.sim_cache_hit_rate" not in out


# ----------------------------------------------------------------------
# machine-readable twin (--format json)
# ----------------------------------------------------------------------
def test_report_as_dict_mirrors_text_sections():
    import json

    from repro.obs import report_as_dict

    d = report_as_dict(_complete_events())
    json.dumps(d)  # fully serializable
    assert d["run"]["circuit"] == "c17"
    assert d["run"]["status"] == "complete"
    assert d["run"]["iterations"] == 2
    assert d["run"]["area_reduction_pct"] == 66.7
    by_path = {row["path"]: row for row in d["phase_times"]}
    assert by_path["greedy"]["share"] == pytest.approx(0.8)
    assert by_path["greedy/rank"]["count"] == 2
    assert [it["fault"] for it in d["iterations"]] == ["G1 s-a-0", "G3 SA1"]
    assert d["counters"]["batchsim.vectors"] == 4000


def test_report_as_dict_interrupted_and_derived():
    from repro.obs import report_as_dict

    events = [
        _header(),
        _iteration(0, counters={"estimator.sim_cache_hits": 9,
                                "estimator.sim_cache_misses": 1}),
    ]
    d = report_as_dict(events)
    assert d["run"]["status"] == "interrupted"
    assert d["run"]["elapsed_s"] is None
    assert d["derived"]["estimator.sim_cache_hit_rate"] == {
        "hits": 9, "total": 10, "rate": 0.9,
    }


def test_report_as_dict_pins_quality_counters():
    from repro.obs import report_as_dict

    counters = {f"c{i:02d}": 1000 - i for i in range(10)}
    counters["quality.budget_risk_accepts"] = 2
    d = report_as_dict([_header(), _summary(counters=counters)], top_k=3)
    assert "quality.budget_risk_accepts" in d["counters"]
    assert len([k for k in d["counters"] if k.startswith("c")]) == 3


# ----------------------------------------------------------------------
# golden v2 journal renders
# ----------------------------------------------------------------------
def test_render_report_against_golden_journal():
    """The checked-in golden c17 journal (current schema) renders every
    deterministic section; its stripped volatile keys degrade to the
    documented placeholders rather than erroring."""
    import json
    import os

    from repro.obs import JOURNAL_VERSION

    golden = os.path.join(os.path.dirname(__file__), "golden_c17_journal.json")
    with open(golden, "r", encoding="utf-8") as fh:
        events = json.load(fh)
    assert events[0]["version"] == JOURNAL_VERSION
    out = render_report(events)
    assert "=== run ===" in out
    assert "circuit: c17" in out
    assert "status: complete" in out
    assert "=== iterations ===" in out
    for ev in events:
        if ev["event"] == "iteration":
            assert str(ev["fault"]) in out
    # volatile keys are stripped from the golden: placeholders render
    assert "(no timing data recorded)" in out
    assert "(no counters recorded)" in out


# ----------------------------------------------------------------------
# gauges end-to-end: registry -> snapshot -> summary -> report
# ----------------------------------------------------------------------
def test_gauges_flow_from_registry_to_cli_json_report(tmp_path, capsys):
    """Satellite coverage: a gauge recorded on the Instrumentation
    registry must survive the whole chain -- snapshot, journal summary,
    text report section, and ``repro report --format json``."""
    import json

    from repro.cli import main
    from repro.obs import RunJournal, load_journal, report_as_dict
    from repro.obs.report import collect_gauges

    obs = Instrumentation()
    obs.gauge("custom.depth", 7)
    obs.gauge("custom.depth", 9)          # last value wins
    obs.gauge_max("custom.watermark", 3.5)
    obs.gauge_max("custom.watermark", 2.0)  # watermark keeps the max
    snap = obs.snapshot()
    assert snap["gauges"] == {"custom.depth": 9, "custom.watermark": 3.5}

    path = tmp_path / "run.jsonl"
    with RunJournal(path) as j:
        j.emit(_header(circuit="c17"))
        j.emit(
            {
                "event": "summary",
                "iterations": 0,
                "faults_injected": 0,
                "area_before": 3,
                "area_after": 3,
                "area_reduction_pct": 0.0,
                "elapsed_s": 0.1,
                "timers": {},
                "counters": {},
                "gauges": snap["gauges"],
            }
        )
    events = load_journal(path)
    assert collect_gauges(events) == snap["gauges"]

    report = report_as_dict(events)
    assert report["gauges"] == snap["gauges"]
    text = render_report(events)
    assert "=== gauges ===" in text
    assert "custom.depth" in text and "custom.watermark" in text

    assert main(["report", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gauges"] == {"custom.depth": 9, "custom.watermark": 3.5}


def test_simplify_run_summary_carries_telemetry_gauges(tmp_path):
    """The real greedy loop's summary gauges reach the dict report."""
    from repro.obs import load_journal, report_as_dict
    from repro.simplify import GreedyConfig, circuit_simplify
    from tests.conftest import build_c17

    path = tmp_path / "run.jsonl"
    circuit_simplify(
        build_c17(),
        rs_pct_threshold=10.0,
        config=GreedyConfig(num_vectors=32, seed=0, exhaustive=True),
        journal=path,
        telemetry_interval=0.05,
    )
    gauges = report_as_dict(load_journal(path))["gauges"]
    assert gauges["telemetry.rss_bytes"] > 0
    assert gauges["telemetry.rss_peak_bytes"] >= gauges["telemetry.rss_bytes"]
    assert gauges["telemetry.samples"] >= 2
    assert "telemetry.patterns_per_s" in gauges
