"""Report renderer: complete runs, interrupted prefixes, where the
time went (self time and wall-clock attribution)."""

import json
import shutil

import pytest

from repro.obs import (
    ATTRIBUTION_TARGET_PCT,
    Instrumentation,
    JournalError,
    compare_runs,
    render_report,
    report_as_dict,
    report_from_file,
)
from repro.obs.report import _fmt_s
from repro.simplify import GreedyConfig, circuit_simplify

from tests.parallel.test_checkpoint import _truncate_after_iterations

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
        "greedy.preview_memo_hits": 27691,
        "greedy.preview_memo_misses": 4763,
        "compile.cache_hits": 25,
        "compile.cache_misses": 26,
    }
    out = render_report([_header(), _summary(counters=counters)])
    assert "greedy.preview_memo_hit_rate" in out
    assert "85.3%  (27691/32454)" in out
    assert "compile.cache_hit_rate" in out
    assert "49.0%  (25/51)" in out
    counters.update({"compile.cache_hits": 0, "compile.cache_misses": 0})
    out = render_report([_header(), _summary(counters=counters)])
    assert "compile.cache_hit_rate" not in out  # zero total: no row


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
        _iteration(0, counters={"compile.cache_hits": 9,
                                "compile.cache_misses": 1}),
    ]
    d = report_as_dict(events)
    assert d["run"]["status"] == "interrupted"
    assert d["run"]["elapsed_s"] is None
    assert d["derived"]["compile.cache_hit_rate"] == {
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
    obs.gauge_max("custom.depth", 7)
    obs.gauge_max("custom.depth", 9)
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


# ----------------------------------------------------------------------
# where the time went: self time and wall-clock attribution
# ----------------------------------------------------------------------
def _timed(timers, elapsed=10.0):
    return [
        _header(circuit="cX"),
        _summary(
            elapsed_s=elapsed,
            timers={
                path: {"total_s": total, "count": count}
                for path, (total, count) in timers.items()
            },
        ),
    ]


def test_exclusive_time_subtracts_direct_children_only():
    timers = {
        "greedy": (10.0, 1),
        "greedy/rank": (6.0, 5),
        "greedy/rank/batchsim": (4.0, 5),  # grandchild: not greedy's child
        "greedy/commit": (2.0, 5),
    }
    rows = report_as_dict(_timed(timers))["phase_times"]
    by_path = {r["path"]: r for r in rows}
    assert by_path["greedy"]["self_s"] == pytest.approx(2.0)  # 10-6-2
    assert by_path["greedy/rank"]["self_s"] == pytest.approx(2.0)  # 6-4
    assert by_path["greedy/rank/batchsim"]["self_s"] == pytest.approx(4.0)
    assert by_path["greedy/commit"]["self_s"] == pytest.approx(2.0)
    # ranked by self time descending (ties by path), every row shown
    assert [r["path"] for r in rows] == [
        "greedy/rank/batchsim", "greedy", "greedy/commit", "greedy/rank",
    ]
    text = render_report(_timed(timers), top_k=1)
    table = text.split("=== phase times ===\n", 1)[1].split("\nattributed", 1)[0]
    assert [line.split()[0] for line in table.splitlines()[1:]] == [
        r["path"] for r in rows
    ]
    greedy_row = next(line for line in table.splitlines() if line.startswith("greedy "))
    assert greedy_row.split() == ["greedy", "10.00s", "2.00s", "100.0%", "1"]


def test_exclusive_time_clamped_at_zero():
    # Children overlapping a parent (timer noise) must not go negative.
    rows = report_as_dict(_timed({"a": (1.0, 1), "a/b": (1.2, 1)}, 2.0))
    by_path = {r["path"]: r for r in rows["phase_times"]}
    assert by_path["a"]["self_s"] == 0.0


def test_attribution_sums_top_level_spans_and_flags():
    timers = {"greedy": (4.0, 1), "prepass": (1.0, 1), "greedy/rank": (3.0, 1)}
    events = _timed(timers, elapsed=10.0)
    att = report_as_dict(events)["attribution"]
    assert att["attributed_s"] == pytest.approx(5.0)  # top-level only
    assert att["attributed_pct"] == pytest.approx(50.0)
    assert att["unattributed_s"] == pytest.approx(5.0)
    assert att["flagged"] is True
    assert att["target_pct"] == ATTRIBUTION_TARGET_PCT
    text = render_report(events)
    assert "attributed: 5.00s of 10.00s wall (50.0%), unattributed 5.00s" in text
    assert "WARNING: attribution below 90%" in text


def test_attribution_not_flagged_at_full_coverage():
    events = _timed({"greedy": (9.9, 1)}, elapsed=10.0)
    assert report_as_dict(events)["attribution"]["flagged"] is False
    assert "WARNING" not in render_report(events)


def test_c880_run_attributes_at_least_90pct(c880_journal):
    """Acceptance: a real c880 run attributes >= 90% of its wall time."""
    with open(c880_journal, encoding="utf-8") as fh:
        events = [json.loads(line) for line in fh]
    report = report_as_dict(events)
    att = report["attribution"]
    assert att["attributed_pct"] >= ATTRIBUTION_TARGET_PCT, att
    assert not att["flagged"]
    paths = {r["path"] for r in report["phase_times"]}
    assert {"greedy", "greedy/rank", "greedy/commit"} <= paths
    text = render_report(events)
    assert "circuit: c880" in text
    json.dumps(report)  # the --format json payload is serializable


def test_run_time_sits_under_the_run_phases(c880_journal):
    """Every top-level span of a run is one of its phases: the
    estimator's set-up (vector batch, compile, good-machine simulation)
    runs under ``setup``, not beside the spans as unattributed time."""
    with open(c880_journal, encoding="utf-8") as fh:
        summary = [json.loads(line) for line in fh][-1]
    top = {path for path in summary["timers"] if "/" not in path}
    assert "setup" in top
    assert top <= {"setup", "prepass", "greedy", "finalize"}, top


def test_killed_run_attribution_is_unknown(c880_journal, tmp_path, capsys):
    """A journal cut after its second greedy iteration has no summary,
    so no wall-clock total: attribution is unknown (never 100%), the
    fallback rows carry the summary's greedy/ paths, and the gate
    fails.  The complete journal passes it."""
    from repro.cli import main

    cut = tmp_path / "cut.jsonl"
    shutil.copy(c880_journal, cut)
    with open(c880_journal, encoding="utf-8") as fh:
        phases = [
            ev["phase"]
            for ev in map(json.loads, fh)
            if ev["event"] == "iteration"
        ]
    assert phases.count("greedy") >= 2
    _truncate_after_iterations(cut, phases.index("greedy") + 2)

    events = [json.loads(line) for line in cut.read_text().splitlines()]
    report = report_as_dict(events)
    assert report["run"]["status"] == "interrupted"
    paths = {r["path"] for r in report["phase_times"]}
    assert paths == {"greedy/candidates", "greedy/rank", "greedy/commit"}
    rank = next(r for r in report["phase_times"] if r["path"] == "greedy/rank")
    assert rank["count"] == 2 and rank["total_s"] > 0
    assert report["attribution"]["attributed_pct"] is None
    assert report["attribution"]["flagged"] is True
    text = render_report(events)
    assert "attributed: unknown" in text
    assert "prepass time is not journaled per iteration" in text
    assert "100.0%)" not in text

    assert main(["report", str(cut), "--fail-on-unattributed"]) == 3
    assert main(["report", str(c880_journal), "--fail-on-unattributed"]) == 0
    capsys.readouterr()

    # compare names the cut's rows as the report does, so a cut pairs
    # with its complete run row by row.
    full = [json.loads(line) for line in c880_journal.read_text().splitlines()]
    summary = next(e for e in full if e["event"] == "summary")
    rows = compare_runs(events, full)["phase_times"]
    cut_paths = {path for path, row in rows.items() if row["a_s"]}
    assert cut_paths and cut_paths <= set(summary["timers"])


def test_stored_kernel_pass_counters_render_and_resume(tmp_path, capsys):
    """Journals written while the kernel journaled per-pass counters
    (``kernel.pass.*``) still render, as ordinary counters, and resume
    onto the stored trajectory."""
    from repro.cli import main
    from repro.obs import load_journal

    from tests.conftest import build_c17
    from tests.obs.test_compare import GOLDEN_A

    stored = load_journal(GOLDEN_A, strict=True)
    assert "kernel.pass.words_moved" in stored[-1]["counters"]
    assert main(["report", GOLDEN_A, "--top", "100"]) == 0
    assert "kernel.pass.words_moved" in capsys.readouterr().out

    ckpt = tmp_path / "run.jsonl"
    shutil.copy(GOLDEN_A, ckpt)
    _truncate_after_iterations(ckpt, 2)
    config = GreedyConfig(exhaustive=True, seed=0, candidate_limit=None,
                          datapath_only=False, redundancy_prepass=True,
                          fom="area_per_rs")
    resumed = circuit_simplify(build_c17(), rs_pct_threshold=30.0,
                               config=config, journal=ckpt)
    assert [str(f) for f in resumed.faults] == [
        ev["fault"] for ev in stored if ev["event"] == "iteration"
    ]
    assert load_journal(ckpt, strict=True)[-1]["event"] == "summary"
