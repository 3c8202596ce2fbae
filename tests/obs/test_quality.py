"""Quality observability: Wilson intervals, the predicted block, audit."""

import json
import math
import os

import numpy as np
import pytest

from repro.cli import main
from repro.obs import (
    DEFAULT_Z,
    JOURNAL_VERSION,
    audit_events,
    audit_file,
    er_interval,
    load_journal,
    render_audit,
    report_as_dict,
    wilson_interval,
)
from repro.simplify import GreedyConfig, circuit_simplify

from tests.conftest import build_c17

Z2 = DEFAULT_Z * DEFAULT_Z

#: Stored state, never regenerated: v4 journals, whose every committed
#: step is an iteration event followed by its calibration event (the
#: c880 one is cut between the two).
_TESTS = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STORED_V4 = [
    os.path.join(_TESTS, "obs", "golden_c17_run_a.jsonl"),
    os.path.join(_TESTS, "obs", "golden_c17_run_b.jsonl"),
    os.path.join(_TESTS, "data", "c880_prepass_cut.jsonl"),
]


# ----------------------------------------------------------------------
# Wilson interval: closed forms and properties
# ----------------------------------------------------------------------
def test_wilson_zero_trials_is_total_ignorance():
    assert wilson_interval(0, 0) == (0.0, 1.0)
    assert wilson_interval(0, -3) == (0.0, 1.0)
    assert er_interval(0.5, 0) == (0.0, 1.0)


def test_wilson_zero_successes_closed_form():
    # k=0: lo is exactly 0, hi is z^2 / (n + z^2) (no-detection bound).
    for n in (1, 10, 100, 10_000):
        lo, hi = wilson_interval(0, n)
        assert lo == 0.0
        assert hi == pytest.approx(Z2 / (n + Z2))
        assert hi > 0.0  # never "provably zero ER" from sampling


def test_wilson_all_successes_closed_form():
    # k=n: hi is exactly 1, lo is n / (n + z^2).
    for n in (1, 10, 100, 10_000):
        lo, hi = wilson_interval(n, n)
        assert hi == 1.0
        assert lo == pytest.approx(n / (n + Z2))


def test_wilson_textbook_case():
    # The standard worked example: 10 successes in 100 trials at 95%.
    lo, hi = wilson_interval(10, 100)
    assert lo == pytest.approx(0.0552, abs=1e-4)
    assert hi == pytest.approx(0.1744, abs=1e-4)


def test_wilson_contains_point_estimate_and_stays_in_unit_interval():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 10, 97, 1000, 10_000):
        ks = set(rng.integers(0, n + 1, size=20).tolist()) | {0, n}
        for k in ks:
            lo, hi = wilson_interval(int(k), n)
            assert 0.0 <= lo <= k / n <= hi <= 1.0
            assert lo < hi  # sampled estimates are never zero-width


def test_wilson_rejects_impossible_counts():
    with pytest.raises(ValueError):
        wilson_interval(-1, 10)
    with pytest.raises(ValueError):
        wilson_interval(11, 10)


def test_er_interval_exact_batch_is_zero_width():
    assert er_interval(0.28125, 32, exact=True) == (0.28125, 0.28125)


# ----------------------------------------------------------------------
# er_interval across the simulation layer
# ----------------------------------------------------------------------
def test_differential_result_confidence_contains_rate():
    from repro.faults import enumerate_faults
    from repro.simulation.faultsim import FaultSimulator
    from repro.simulation.vectors import random_vectors

    circuit = build_c17()
    fault = enumerate_faults(circuit)[0]
    vecs = random_vectors(len(circuit.inputs), 64, np.random.default_rng(0))
    res = FaultSimulator(circuit).differential(vecs, [fault])
    lo, hi = er_interval(res.error_rate, res.num_vectors)
    assert lo <= res.error_rate <= hi
    assert er_interval(res.error_rate, res.num_vectors, exact=True) == (
        res.error_rate, res.error_rate
    )


def test_zero_pattern_estimate_bumps_quality_counter():
    from repro.obs import Instrumentation, use
    from repro.simulation.batchfaultsim import FaultBatchStats
    from repro.simulation.faultsim import DifferentialResult

    empty = DifferentialResult(
        detected=np.zeros(0, dtype=bool), deviations=[], num_vectors=0
    )
    stats = FaultBatchStats(
        fault=None, num_vectors=0, detected_count=0, max_abs_deviation=0,
    )
    obs = Instrumentation()
    with use(obs):
        assert empty.error_rate == 0.0
        assert stats.error_rate == 0.0
    assert obs.counters["quality.zero_pattern_estimates"] == 2


# ----------------------------------------------------------------------
# the predicted block in live runs
# ----------------------------------------------------------------------
def _run_c17(tmp_path, **over):
    path = tmp_path / "c17.jsonl"
    cfg = GreedyConfig(
        exhaustive=True,
        seed=0,
        candidate_limit=None,
        datapath_only=False,
        redundancy_prepass=True,
    )
    result = circuit_simplify(
        build_c17(), rs_pct_threshold=10.0, config=cfg, journal=path, **over
    )
    return path, result


def test_exhaustive_run_journals_one_line_per_committed_step(tmp_path):
    path, result = _run_c17(tmp_path)
    events = load_journal(path, strict=True)
    iters = [e for e in events if e["event"] == "iteration"]
    assert not [e for e in events if e["event"] == "calibration"]
    assert result.iterations and len(iters) == len(result.iterations)
    assert len(iters) == events[-1]["iterations"]
    for it in iters:
        assert not {"observed_es", "es_mode", "delta_er", "delta_es",
                    "delta_rs"} & set(it)
        if it["phase"] == "greedy":
            # ranking and commit share the exhaustive batch: the
            # prediction must be realized exactly
            assert it["predicted"]["er"] == it["er"]
        else:  # prepass: PODEM-proven free, predicted zeros
            assert it["predicted"] == {
                "er": 0.0, "es": 0,
                "area_delta": it["area_before"] - it["area_after"],
            }
    # exhaustive batch: exact ER, zero-width interval, no budget risk
    for row in audit_events(events)["iterations"]:
        assert row["er_ci"] == [row["realized"]["er"]] * 2
        assert row["budget_risk"] is False


def test_audit_of_current_run_is_fully_calibrated(tmp_path):
    path, result = _run_c17(tmp_path)
    audit = audit_file(path)
    assert audit["schema_version"] == JOURNAL_VERSION
    assert audit["exact_batch"] is True
    assert audit["complete"] is True
    assert len(audit["iterations"]) == len(result.iterations)
    assert all(r["calibrated"] for r in audit["iterations"])
    assert audit["budget_risk_count"] == 0
    assert audit["final"]["rs"] == result.final_metrics.rs
    assert audit["final_er_ci"] == [result.final_metrics.er] * 2
    out = render_audit(audit)
    assert "=== quality audit ===" in out
    assert "=== calibration (predicted @ selection vs realized @ commit) ===" in out
    assert "budget-risk iterations: 0" in out


def test_c880_audit_renders_sampled_ci_bands(tmp_path):
    """Acceptance: a sampled c880 run audits with a per-iteration
    calibration table whose ER intervals have real width."""
    from repro.benchlib import ISCAS85_SUITE

    path = tmp_path / "c880.jsonl"
    cfg = GreedyConfig(
        num_vectors=500, seed=0, candidate_limit=20,
        max_iterations=12, atpg_node_limit=200,
    )
    circuit_simplify(
        ISCAS85_SUITE["c880"].builder(), rs_pct_threshold=0.5,
        config=cfg, journal=path,
    )
    audit = audit_file(path)
    rows = audit["iterations"]
    assert rows and all(r["calibrated"] for r in rows)
    for r in rows:
        lo, hi = r["er_ci"]
        assert lo < hi  # sampled: every interval has width
        assert lo <= r["realized"]["er"] <= hi
        assert r["predicted"] is not None
    out = render_audit(audit)
    assert "pred_ER" in out and "ER 95% CI" in out
    for r in rows:
        assert str(r["fault"]) in out


def test_audit_intervals_use_the_journals_z(tmp_path):
    """Every band, the final one included, is drawn at DEFAULT_Z, the
    one level any journal's calibration events recorded: a fresh v5
    journal and a stored v4 one alike."""
    from repro.benchlib import ISCAS85_SUITE

    path = tmp_path / "c880.jsonl"
    cfg = GreedyConfig(
        num_vectors=500, seed=0, candidate_limit=20,
        max_iterations=12, atpg_node_limit=200,
    )
    circuit_simplify(
        ISCAS85_SUITE["c880"].builder(), rs_pct_threshold=0.5,
        config=cfg, journal=path,
    )
    for journal in (path, STORED_V4[-1]):
        audit = audit_file(journal)
        assert audit["z"] == DEFAULT_Z
        assert audit["num_vectors"] == 500
        assert audit["final_er_ci"] == list(er_interval(audit["final"]["er"], 500))
        for row in audit["iterations"]:
            assert row["er_ci"] == list(er_interval(row["realized"]["er"], 500))


# ----------------------------------------------------------------------
# v2 degradation and the synthetic budget-risk journal
# ----------------------------------------------------------------------
def _v2_header(**over):
    ev = {
        "event": "run_start", "version": 2, "circuit": "synth",
        "num_inputs": 4, "num_outputs": 1, "area": 10,
        "rs_threshold": 1.0, "rs_max": 10.0, "seed": 0,
        "num_vectors": 100, "config": {},
    }
    ev.update(over)
    return ev


def _v2_iteration(**over):
    ev = {
        "event": "iteration", "index": 0, "phase": "greedy",
        "fault": "G1 SA0", "area_before": 10, "area_after": 8,
        "er": 0.1, "es": 10, "observed_es": 10, "rs": 1.0,
        "delta_er": 0.1, "delta_es": 10, "delta_rs": 1.0,
        "fom": 2.0, "candidates_evaluated": 5,
    }
    ev.update(over)
    return ev


def _write_journal(path, events):
    path.write_text(
        "".join(json.dumps(e, sort_keys=True) + "\n" for e in events)
    )
    return str(path)


def test_v2_journal_audit_degrades_and_flags_budget_risk(tmp_path):
    # n=100, er=0.10 -> Wilson hi ~0.174; es=10 puts the RS band upper
    # bound at ~1.74 against a threshold of 1.0 the point estimate
    # exactly meets: a budget-risk iteration.
    path = _write_journal(tmp_path / "v2.jsonl", [_v2_header(), _v2_iteration()])
    audit = audit_file(path)
    assert audit["schema_version"] == 2
    row = audit["iterations"][0]
    assert row["calibrated"] is False
    assert row["predicted"] is None
    assert row["er_ci"][0] < 0.1 < row["er_ci"][1]
    assert row["budget_risk"] is True
    assert audit["budget_risk_count"] == 1
    out = render_audit(audit)
    assert "journal schema v2" in out
    assert "RISK" in out
    assert "budget-risk iterations: 1 of 1" in out


def test_v2_journal_with_safe_margin_is_not_flagged(tmp_path):
    # Same journal, threshold 2.0: the full CI band fits the budget.
    path = _write_journal(
        tmp_path / "safe.jsonl",
        [_v2_header(rs_threshold=2.0), _v2_iteration()],
    )
    audit = audit_file(path)
    assert audit["budget_risk_count"] == 0


def test_exhaustive_flag_suppresses_budget_risk(tmp_path):
    # The identical numbers under config.exhaustive: zero-width CI, so
    # the budget-risk rule can never fire.
    path = _write_journal(
        tmp_path / "exact.jsonl",
        [_v2_header(config={"exhaustive": True}), _v2_iteration()],
    )
    audit = audit_file(path)
    assert audit["exact_batch"] is True
    assert audit["iterations"][0]["er_ci"] == [0.1, 0.1]
    assert audit["budget_risk_count"] == 0


def test_v2_journal_still_loads_in_report_and_compare(tmp_path):
    from repro.obs import compare_files, render_report

    path = _write_journal(tmp_path / "v2.jsonl", [_v2_header(), _v2_iteration()])
    events = load_journal(path)
    assert "G1 SA0" in render_report(events)
    cmp = compare_files(path, path)
    # counted by the audit's rule, from the iteration event and header
    assert cmp["a"]["budget_risk"] == audit_file(path)["budget_risk_count"] == 1
    assert cmp["identical_trajectory"]


def test_v3_compare_counts_budget_risk(tmp_path):
    from repro.obs import compare_files

    path, _result = _run_c17(tmp_path)
    cmp = compare_files(path, path)
    assert cmp["a"]["budget_risk"] == 0


# ----------------------------------------------------------------------
# stored v4 journals: what they stored, the readers now derive
# ----------------------------------------------------------------------
@pytest.mark.parametrize("path", STORED_V4, ids=os.path.basename)
def test_stored_v4_journals_derive_their_calibration_fields(path):
    """The audit derives each row's interval and budget-risk flag from
    the iteration event and the header, reads the prediction from the
    stored calibration event, and the report derives dRS: on every
    stored row they equal the stored fields."""
    events = load_journal(path)
    assert events[0]["version"] == 4
    iters = [e for e in events if e["event"] == "iteration"]
    cals = {
        (e["index"], e["fault"]): e for e in events if e["event"] == "calibration"
    }
    rows = audit_events(events)["iterations"]
    assert len(rows) == len(iters) and cals
    compared = 0
    for row in rows:
        cal = cals.get((row["index"], row["fault"]))
        assert row["calibrated"] is (cal is not None)
        if cal is None:  # the cut journal's last step lost its event
            continue
        compared += 1
        for key in ("er_ci", "rs_ci", "budget_risk", "predicted"):
            assert row[key] == cal[key], key
    assert compared == len(cals)
    report_rows = report_as_dict(events)["iterations"]
    assert [r["delta_rs"] for r in report_rows] == [e["delta_rs"] for e in iters]


# ----------------------------------------------------------------------
# the audit CLI
# ----------------------------------------------------------------------
def test_audit_cli_exits_3_on_budget_risk(tmp_path, capsys):
    path = _write_journal(tmp_path / "risk.jsonl", [_v2_header(), _v2_iteration()])
    assert main(["audit", path]) == 3
    out = capsys.readouterr().out
    assert "budget-risk iterations: 1 of 1" in out


def test_audit_cli_clean_run_exits_0_and_writes_json(tmp_path, capsys):
    journal, _result = _run_c17(tmp_path)
    out_path = tmp_path / "audit.json"
    assert main(["audit", str(journal), "--output", str(out_path)]) == 0
    assert "quality audit" in capsys.readouterr().out
    data = json.loads(out_path.read_text())
    assert data["budget_risk_count"] == 0
    assert data["iterations"]


def test_audit_cli_json_format(tmp_path, capsys):
    journal, _result = _run_c17(tmp_path)
    assert main(["audit", str(journal), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["circuit"] == "c17"


def test_audit_cli_errors(tmp_path, capsys):
    assert main(["audit", str(tmp_path / "nope.jsonl")]) == 2
    journal, _result = _run_c17(tmp_path)
    # --exact without --netlist is a usage error
    assert main(["audit", str(journal), "--exact"]) == 2
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["audit", str(empty)]) == 2


def test_audit_exact_agrees_with_bdd_on_c17(tmp_path, capsys):
    """Acceptance: the replayed journal's exact BDD ER falls inside the
    reported CI (zero-width here: the run is exhaustive)."""
    from repro.circuit import dump_bench

    bench = tmp_path / "c17.bench"
    dump_bench(build_c17(), bench)
    journal = tmp_path / "run.jsonl"
    assert main([
        "simplify", str(bench), "--rs-pct", "10", "--exhaustive",
        "--journal", str(journal),
    ]) == 0
    capsys.readouterr()
    rc = main(["audit", str(journal), "--exact", "--netlist", str(bench)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "exact check:" in out and "AGREES" in out


def test_audit_exact_on_a_journal_with_no_commit(tmp_path, capsys):
    """A run killed before its first commit leaves only its header: the
    exact check still renders, with the journal's missing ER as n/a."""
    from repro.circuit import dump_bench

    bench = tmp_path / "c17.bench"
    dump_bench(build_c17(), bench)
    journal = tmp_path / "run.jsonl"
    assert main([
        "simplify", str(bench), "--rs-pct", "10", "--exhaustive",
        "--journal", str(journal),
    ]) == 0
    header = journal.read_text().splitlines(True)[0]
    assert json.loads(header)["event"] == "run_start"
    journal.write_text(header)
    capsys.readouterr()
    rc = main(["audit", str(journal), "--exact", "--netlist", str(bench)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "(no committed iterations)" in captured.out
    assert "vs journal ER=n/a" in captured.out and "AGREES" in captured.out
    assert "Traceback" not in captured.err


# ----------------------------------------------------------------------
# checkpoint interplay
# ----------------------------------------------------------------------
def _checkpoint_c17(tmp_path):
    path = tmp_path / "ckpt.jsonl"
    cfg = GreedyConfig(
        exhaustive=True, seed=0, candidate_limit=None,
        datapath_only=False, redundancy_prepass=True,
    )
    result = circuit_simplify(
        build_c17(), rs_pct_threshold=10.0, config=cfg, journal=path
    )
    return path, result


# A v3/v4 journal could also be cut between a step's iteration event
# and its calibration event: the stored c880_prepass_cut.jsonl ends
# that way and resumes (tests/parallel/test_checkpoint.py).
@pytest.mark.parametrize("cut_after", ["iteration"])
def test_resume_tolerates_truncated_calibration_tail(tmp_path, cut_after):
    """A kill right after a step's one journal line leaves a clean
    prefix: the resume must replay and finish identically to the full
    run."""
    from repro.parallel import resume_from

    path, full = _checkpoint_c17(tmp_path)
    lines = path.read_text().splitlines(keepends=True)
    for i, line in enumerate(lines):
        if json.loads(line)["event"] == cut_after:
            path.write_text("".join(lines[: i + 1]))
            break
    resumed = resume_from(build_c17(), path)
    assert [str(f) for f in resumed.faults] == [str(f) for f in full.faults]
    assert resumed.simplified.area() == full.simplified.area()
