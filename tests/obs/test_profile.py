"""repro profile: exclusive-time math, attribution gate, kernel stats."""

import json

import pytest

from repro.obs import (
    ATTRIBUTION_TARGET_PCT,
    profile_events,
    profile_from_file,
    render_profile,
)
from repro.simplify import GreedyConfig, circuit_simplify

from tests.conftest import build_c17


def _summary(timers, counters=None, elapsed=10.0, **over):
    ev = {
        "event": "summary",
        "elapsed_s": elapsed,
        "timers": {
            path: {"total_s": total, "count": count}
            for path, (total, count) in timers.items()
        },
        "counters": counters or {},
    }
    ev.update(over)
    return ev


def _events(timers, counters=None, elapsed=10.0):
    return [
        {"event": "run_start", "version": 4, "circuit": "cX"},
        _summary(timers, counters, elapsed),
    ]


# ----------------------------------------------------------------------
# exclusive-time math
# ----------------------------------------------------------------------
def test_exclusive_time_subtracts_direct_children_only():
    timers = {
        "greedy": (10.0, 1),
        "greedy/rank": (6.0, 5),
        "greedy/rank/batchsim": (4.0, 5),  # grandchild: not greedy's child
        "greedy/commit": (2.0, 5),
    }
    profile = profile_events(_events(timers, elapsed=10.0))
    by_path = {s["path"]: s for s in profile["spans"]}
    assert by_path["greedy"]["exclusive_s"] == pytest.approx(2.0)  # 10-6-2
    assert by_path["greedy/rank"]["exclusive_s"] == pytest.approx(2.0)  # 6-4
    assert by_path["greedy/rank/batchsim"]["exclusive_s"] == pytest.approx(4.0)
    assert by_path["greedy/commit"]["exclusive_s"] == pytest.approx(2.0)
    # ranked by exclusive time descending
    assert profile["spans"][0]["path"] == "greedy/rank/batchsim"


def test_exclusive_time_clamped_at_zero():
    # Children overlapping a parent (timer noise) must not go negative.
    timers = {"a": (1.0, 1), "a/b": (1.2, 1)}
    profile = profile_events(_events(timers, elapsed=2.0))
    by_path = {s["path"]: s for s in profile["spans"]}
    assert by_path["a"]["exclusive_s"] == 0.0


def test_attribution_sums_top_level_spans_and_flags():
    timers = {"greedy": (4.0, 1), "prepass": (1.0, 1), "greedy/rank": (3.0, 1)}
    profile = profile_events(_events(timers, elapsed=10.0))
    att = profile["attribution"]
    assert att["attributed_s"] == pytest.approx(5.0)  # top-level only
    assert att["attributed_pct"] == pytest.approx(50.0)
    assert att["unattributed_s"] == pytest.approx(5.0)
    assert att["flagged"] is True
    assert att["target_pct"] == ATTRIBUTION_TARGET_PCT
    assert "WARNING" in render_profile(profile)


def test_attribution_not_flagged_at_full_coverage():
    timers = {"greedy": (9.9, 1)}
    profile = profile_events(_events(timers, elapsed=10.0))
    assert profile["attribution"]["flagged"] is False
    assert "WARNING" not in render_profile(profile)


def test_top_limits_span_rows():
    timers = {f"s{i}": (float(i + 1), 1) for i in range(20)}
    profile = profile_events(_events(timers, elapsed=300.0), top=5)
    assert len(profile["spans"]) == 5
    assert profile["span_count"] == 20
    assert "+15 more span path" in render_profile(profile)


# ----------------------------------------------------------------------
# kernel stats
# ----------------------------------------------------------------------
def test_kernel_stats_rate_against_rank_span():
    counters = {
        "kernel.pass.executions": 100,
        "kernel.pass.rows_touched": 1000,
        "kernel.pass.words_moved": 1_000_000,
        "kernel.overlay_patches": 7,
    }
    timers = {"greedy": (8.0, 1), "greedy/rank": (4.0, 2)}
    profile = profile_events(_events(timers, counters, elapsed=10.0))
    kernel = profile["kernel"]
    assert kernel["bytes_moved"] == 8_000_000
    assert kernel["basis"] == "greedy/rank"
    assert kernel["bytes_per_s"] == pytest.approx(2_000_000.0)
    assert kernel["overlay_patches"] == 7
    assert "overlay patches applied: 7" in render_profile(profile)


def test_kernel_stats_absent_without_pass_counters():
    profile = profile_events(_events({"greedy": (1.0, 1)}, {"kernel.runs": 5}))
    assert profile["kernel"] is None
    assert "compiled kernel" not in render_profile(profile)


# ----------------------------------------------------------------------
# interrupted runs
# ----------------------------------------------------------------------
def test_elapsed_falls_back_to_timers():
    # interrupted run: no summary, elapsed = sum of top-level span
    # totals; a stored v4 telemetry sample is ignored
    events = [
        {"event": "run_start", "version": 4, "circuit": "cX"},
        {
            "event": "iteration",
            "index": 0,
            "phase_times": {"greedy": 1.0},
        },
        {
            "event": "telemetry",
            "t_s": 7.5,
            "pid": 1,
            "lane": "coordinator",
            "rss_bytes": 100,
            "cpu_s": 7.5,
        },
    ]
    for prefix in (events, events[:2]):
        profile = profile_events(prefix)
        assert profile["run"]["status"] == "interrupted"
        assert profile["run"]["elapsed_s"] == pytest.approx(1.0)
    assert "RSS" not in render_profile(profile_events(events))


# ----------------------------------------------------------------------
# acceptance: a real c880 run attributes >= 90% of wall time
# ----------------------------------------------------------------------
def test_c880_run_attributes_at_least_90pct(tmp_path):
    from repro.benchlib import ISCAS85_SUITE

    path = tmp_path / "run.jsonl"
    circuit_simplify(
        ISCAS85_SUITE["c880"].builder(),
        rs_pct_threshold=0.5,
        config=GreedyConfig(
            num_vectors=500,
            seed=0,
            candidate_limit=20,
            max_iterations=12,
            atpg_node_limit=200,
        ),
        journal=path,
    )
    profile = profile_from_file(path)
    att = profile["attribution"]
    assert att["attributed_pct"] >= ATTRIBUTION_TARGET_PCT, att
    assert not att["flagged"]
    assert profile["kernel"] is not None  # compiled engine attribution
    text = render_profile(profile)
    assert "=== profile: c880" in text
    json.dumps(profile)  # --format json payload is serializable


def test_profile_from_file_rejects_empty(tmp_path):
    from repro.obs import JournalError

    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(JournalError, match="empty journal"):
        profile_from_file(path)
