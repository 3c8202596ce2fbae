"""Cross-run journal diff: divergence detection, deltas, golden fixture.

The golden fixtures ``golden_c17_run_a.jsonl`` / ``golden_c17_run_b.jsonl``
are two real fixed-seed exhaustive c17 runs at a 30% RS budget that
differ only in the figure of merit (``area_per_rs`` vs ``area``) --
exactly the "same config, different --fom" scenario ``repro compare``
exists for.  Regenerate with ``python tests/obs/regen_golden.py``.
"""

import json
import os

import pytest

from repro.obs import (
    JournalError,
    compare_files,
    compare_runs,
    render_compare,
)

from .test_journal import _header, _iteration

FIXTURE_DIR = os.path.dirname(__file__)
GOLDEN_A = os.path.join(FIXTURE_DIR, "golden_c17_run_a.jsonl")
GOLDEN_B = os.path.join(FIXTURE_DIR, "golden_c17_run_b.jsonl")


def _summary(**over):
    ev = {
        "event": "summary",
        "area_reduction_pct": 50.0,
        "elapsed_s": 1.0,
        "timers": {"greedy": {"total_s": 1.0, "count": 1, "mean_s": 1.0}},
        "counters": {"batchsim.vectors": 100},
    }
    ev.update(over)
    return ev


def _run(*iters, **summary_over):
    return [_header(circuit="c17"), *iters, _summary(**summary_over)]


# ----------------------------------------------------------------------
# divergence detection on synthetic streams
# ----------------------------------------------------------------------
def test_identical_streams_have_zero_divergence():
    events = _run(_iteration(0), _iteration(1, fault="G3 SA1"))
    cmp = compare_runs(events, [dict(e) for e in events])
    assert cmp["identical_trajectory"]
    assert cmp["first_divergence"] is None
    assert cmp["trajectory"]["compared_iterations"] == 2
    assert cmp["trajectory"]["max_abs_area_delta"] == 0
    assert cmp["trajectory"]["max_abs_rs_delta"] == 0.0


def test_first_diverging_field_reported_in_priority_order():
    a = _run(_iteration(0), _iteration(1, fault="G3 SA1", rs=0.5))
    b = _run(_iteration(0), _iteration(1, fault="G9 SA0", rs=0.7))
    cmp = compare_runs(a, b)
    assert not cmp["identical_trajectory"]
    # fault outranks rs in the divergence field order
    assert cmp["first_divergence"] == {
        "iteration": 1, "index": 1, "field": "fault",
        "a": "G3 SA1", "b": "G9 SA0",
    }


def test_length_mismatch_is_a_divergence():
    a = _run(_iteration(0), _iteration(1))
    b = _run(_iteration(0))
    cmp = compare_runs(a, b)
    assert not cmp["identical_trajectory"]
    div = cmp["first_divergence"]
    assert div["field"] == "length"
    assert (div["a"], div["b"]) == (2, 1)
    assert div["iteration"] == 1


def test_phase_time_and_counter_deltas():
    a = _run(_iteration(0),
             timers={"greedy": {"total_s": 1.0, "count": 1, "mean_s": 1.0}},
             counters={"batchsim.vectors": 100, "only_a": 5})
    b = _run(_iteration(0),
             timers={"greedy": {"total_s": 1.5, "count": 1, "mean_s": 1.5},
                     "prepass": {"total_s": 0.5, "count": 1, "mean_s": 0.5}},
             counters={"batchsim.vectors": 160})
    cmp = compare_runs(a, b)
    assert cmp["phase_times"]["greedy"]["delta_s"] == pytest.approx(0.5)
    assert cmp["phase_times"]["prepass"] == {
        "a_s": 0.0, "b_s": 0.5, "delta_s": 0.5,
    }
    assert cmp["counters"]["batchsim.vectors"] == {"a": 100, "b": 160, "delta": 60}
    assert cmp["counters"]["only_a"] == {"a": 5, "b": 0, "delta": -5}


def test_derived_cache_hit_rates_per_side():
    a = _run(_iteration(0),
             counters={"greedy.preview_memo_hits": 3,
                       "greedy.preview_memo_misses": 1})
    cmp = compare_runs(a, _run(_iteration(0)))
    assert cmp["derived"]["a"] == [("greedy.preview_memo_hit_rate",
                                    " 75.0%  (3/4)")]
    assert cmp["derived"]["b"] == []


def test_interrupted_run_compares_from_iteration_phase_times():
    a = [_header(), _iteration(0, phase_times={"rank": 0.2}, counters={"c": 1})]
    b = [_header(), _iteration(0, phase_times={"rank": 0.3}, counters={"c": 4})]
    cmp = compare_runs(a, b)
    assert cmp["identical_trajectory"]  # trajectory fields match
    assert not cmp["a"]["complete"] and not cmp["b"]["complete"]
    assert cmp["phase_times"]["greedy/rank"]["delta_s"] == pytest.approx(0.1)
    assert cmp["counters"]["c"]["delta"] == 3


# ----------------------------------------------------------------------
# golden fixture: two real c17 runs, same seed, different --fom
# ----------------------------------------------------------------------
def test_golden_c17_same_run_is_identical():
    cmp = compare_files(GOLDEN_A, GOLDEN_A)
    assert cmp["identical_trajectory"]
    assert cmp["first_divergence"] is None
    assert cmp["a"]["circuit"] == cmp["b"]["circuit"] == "c17"
    out = render_compare(cmp)
    assert "zero divergence" in out


def test_golden_c17_different_fom_diverges_at_first_greedy_pick():
    cmp = compare_files(GOLDEN_A, GOLDEN_B)
    assert cmp["a"]["fom"] == "area_per_rs"
    assert cmp["b"]["fom"] == "area"
    assert cmp["a"]["seed"] == cmp["b"]["seed"]
    assert not cmp["identical_trajectory"]
    assert cmp["first_divergence"] == {
        "iteration": 0, "index": 0, "field": "fault",
        "a": "G1 SA0", "b": "G3 SA0",
    }
    assert (cmp["a"]["iterations"], cmp["b"]["iterations"]) == (4, 1)
    out = render_compare(cmp)
    assert "FIRST DIVERGENCE at iteration 0" in out
    assert "A='G1 SA0' B='G3 SA0'" in out


@pytest.mark.parametrize("stored", [GOLDEN_A, GOLDEN_B], ids=os.path.basename)
def test_fresh_run_of_a_stored_config_reads_as_the_same_run(stored, tmp_path):
    """This build's run of a stored v4 journal's configuration writes a
    v5 journal (one line per committed step) that every reader reads as
    the stored run: zero divergence, the same budget-risk count, the
    same rendered audit and the same report rows."""
    from repro.obs import audit_file, load_journal, render_audit, report_as_dict
    from repro.parallel.checkpoint import greedy_config_from
    from repro.simplify import circuit_simplify
    from tests.conftest import build_c17

    header = load_journal(stored)[0]
    fresh = tmp_path / "fresh.jsonl"
    circuit_simplify(
        build_c17(), rs_threshold=header["rs_threshold"],
        config=greedy_config_from(header["config"]), journal=fresh,
    )
    cmp = compare_files(stored, fresh)
    assert cmp["identical_trajectory"] and cmp["first_divergence"] is None
    assert cmp["a"]["budget_risk"] == cmp["b"]["budget_risk"] == 0
    assert render_audit(audit_file(stored)) == render_audit(audit_file(fresh))
    rows = [report_as_dict(load_journal(p))["iterations"] for p in (stored, fresh)]
    assert rows[0] == rows[1]


def test_render_compare_sections():
    cmp = compare_files(GOLDEN_A, GOLDEN_B)
    out = render_compare(cmp)
    for section in ("=== runs ===", "=== trajectory ===",
                    "=== phase-time deltas (B - A) ===",
                    "=== counter deltas"):
        assert section in out
    assert GOLDEN_A in out and GOLDEN_B in out
    assert "fom=area_per_rs" in out and "fom=area" in out


# ----------------------------------------------------------------------
# errors
# ----------------------------------------------------------------------
def test_compare_files_rejects_empty_and_missing(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(JournalError, match="empty journal"):
        compare_files(GOLDEN_A, empty)
    with pytest.raises(FileNotFoundError):
        compare_files(GOLDEN_A, tmp_path / "missing.jsonl")


def test_compare_result_is_json_serializable():
    json.dumps(compare_files(GOLDEN_A, GOLDEN_B))
