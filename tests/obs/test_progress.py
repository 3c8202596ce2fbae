"""Progress folded from journal events: the live sink, the fold of a
journal on disk, the TTY line, quiet."""

import io
import shutil

import pytest

from repro.core.api import journal_paths
from repro.obs import ProgressReporter, progress_from_events
from repro.obs.journal import journal_events, load_journal

from tests.parallel.test_checkpoint import _truncate_after_iterations

from .test_journal import _header, _iteration


def _summary(**over):
    ev = {"event": "summary", "area_after": 1, "area_reduction_pct": 66.7}
    ev.update(over)
    return ev


def _feed(reporter, events):
    for ev in events:
        reporter.emit(ev)
    return reporter


# ----------------------------------------------------------------------
# sink state machine
# ----------------------------------------------------------------------
def test_tracks_run_state_from_event_stream():
    r = _feed(ProgressReporter(), [
        _header(circuit="c17", area=3, rs_threshold=0.5),
        _iteration(0, area_after=2, rs=0.25),
        _iteration(1, area_after=1, rs=0.4),
    ])
    snap = r.snapshot()
    assert snap["status"] == "running"
    assert snap["circuit"] == "c17"
    assert snap["iteration"] == 1
    assert snap["faults_committed"] == 2
    assert snap["area_start"] == 3 and snap["area"] == 1
    assert snap["rs"] == 0.4
    assert snap["rs_budget_used_pct"] == 80.0
    assert snap["area_reduction_pct"] == pytest.approx(200 / 3)


def test_summary_completes_and_close_marks_interrupted():
    r = _feed(ProgressReporter(), [_header(), _iteration(0), _summary()])
    assert r.snapshot()["status"] == "complete"
    r.close()
    assert r.snapshot()["status"] == "complete"  # close never downgrades

    r2 = _feed(ProgressReporter(), [_header(), _iteration(0)])
    r2.close()
    assert r2.snapshot()["status"] == "interrupted"


def test_run_start_resets_for_fom_best_second_pass():
    r = _feed(ProgressReporter(), [_header(), _iteration(0), _iteration(1)])
    assert r.faults_committed == 2
    r.emit(_header(circuit="y", area=9))
    assert r.faults_committed == 0
    assert r.snapshot()["circuit"] == "y"
    assert r.snapshot()["area_start"] == 9


def test_resume_event_restores_midrun_state():
    r = ProgressReporter()
    r.emit({"event": "resume", "version": 2, "replayed_iterations": 5,
            "area": 7, "rs": 0.3, "circuit": "c17"})
    snap = r.snapshot()
    assert snap["faults_committed"] == 5
    assert snap["area"] == snap["area_start"] == 7
    assert snap["rs"] == 0.3


def test_headerless_prefix_takes_area_from_first_iteration():
    r = _feed(ProgressReporter(), [_iteration(0, area_before=3, area_after=2)])
    snap = r.snapshot()
    assert snap["area_start"] == 3 and snap["area"] == 2


# ----------------------------------------------------------------------
# the fold of a journal on disk
# ----------------------------------------------------------------------
def _live_snapshot(events):
    return _feed(ProgressReporter(), events).snapshot()


def test_fold_of_empty_stream_is_none():
    assert progress_from_events([]) is None
    assert progress_from_events(iter(())) is None


def test_fold_of_c880_journal_equals_live_reporter(c880_journal):
    events = load_journal(c880_journal)
    snap = progress_from_events(events)
    assert snap == _live_snapshot(events)
    summary = events[-1]
    assert snap["status"] == "complete"
    assert snap["faults_committed"] == summary["faults_injected"]
    assert snap["area"] == summary["area_after"] < snap["area_start"]


def test_fold_of_best_run_journals_equals_live_sink(tmp_path):
    """fom="best" writes one journal per constituent run; the second
    run_start resets the fold, as it resets the live sink both runs
    fed."""
    from repro import SimplifyRequest
    from tests.conftest import build_ripple_adder

    request = SimplifyRequest(
        rs_pct_threshold=6.0, fom="best", num_vectors=400, seed=3,
        candidate_limit=30, journal=str(tmp_path / "best.jsonl"),
    )
    live = ProgressReporter()
    request.run(build_ripple_adder(4), progress=live)
    events = journal_events(journal_paths(request.journal, "best"))
    assert [e["event"] for e in events].count("run_start") == 2
    assert progress_from_events(events) == live.snapshot()
    assert live.snapshot()["status"] == "complete"


def test_fold_of_resumed_journal_counts_every_commit(c880_journal, tmp_path):
    from repro.benchlib import ISCAS85_SUITE
    from repro.simplify import circuit_simplify

    path = tmp_path / "resumed.jsonl"
    shutil.copy(c880_journal, path)
    _truncate_after_iterations(path, 1)
    circuit_simplify(
        ISCAS85_SUITE["c880"].builder(), rs_pct_threshold=0.5, journal=path
    )
    events = load_journal(path)
    assert [e["event"] for e in events].count("resume") == 1
    snap = progress_from_events(events)
    assert snap == _live_snapshot(events)
    iterations = [e for e in events if e["event"] == "iteration"]
    assert snap["status"] == "complete"
    assert snap["faults_committed"] == len(iterations)
    assert snap["rs"] == iterations[-1]["rs"]
    assert snap["area_start"] == events[0]["area"]


# ----------------------------------------------------------------------
# live line / quiet
# ----------------------------------------------------------------------
def test_tty_line_rewrites_in_place_and_close_newlines():
    stream = io.StringIO()
    r = ProgressReporter(stream=stream)
    r.emit(_header(circuit="c17", area=3, rs_threshold=0.5))
    r.emit(_iteration(0, area_after=2, rs=0.25))
    out = stream.getvalue()
    assert out.count("\r") == 2 and "\n" not in out
    assert "[c17]" in out and "faults 1" in out and "RS" in out
    r.close()
    assert stream.getvalue().endswith("\n")


def test_no_stream_and_no_path_is_fully_silent(tmp_path, monkeypatch, capsys):
    """A reporter without a stream writes nothing, anywhere."""
    monkeypatch.chdir(tmp_path)
    r = _feed(ProgressReporter(), [_header(), _iteration(0), _summary()])
    r.close()
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == ""
    assert list(tmp_path.iterdir()) == []


def test_broken_stream_does_not_raise():
    class Broken(io.StringIO):
        def write(self, s):
            raise OSError("gone")

    r = ProgressReporter(stream=Broken())
    r.emit(_header())
    r.emit(_iteration(0))
    r.close()
