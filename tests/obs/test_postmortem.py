"""``repro postmortem``'s reader: a run's record, read where it lies.

Unit layer of DESIGN.md §15: a job directory's journal files (named
from its ``request.json``), ``error.json`` and ``runner.log``; a bare
journal; and readable refusals when there is nothing to report.
"""

import json

import pytest

from repro import SimplifyRequest
from repro.obs.postmortem import TAIL_EVENTS, load_postmortem, render_postmortem


def _write_journal(path, events):
    with open(path, "w") as fh:
        for event in events:
            fh.write(json.dumps(event) + "\n")


def test_postmortem_reads_a_job_dir_in_place(tmp_path):
    job_dir = tmp_path / "job-000001"
    job_dir.mkdir()
    (job_dir / "request.json").write_text(
        SimplifyRequest(rs_pct_threshold=1.0, fom="best").to_json()
    )
    # a fom="best" job's two journal files, in execution order; the
    # second one's last line is torn (the child died mid-write) and
    # must not reach the tail
    first = job_dir / "checkpoint.jsonl.area_per_rs"
    second = job_dir / "checkpoint.jsonl.area"
    _write_journal(first, [{"event": "iteration", "index": i} for i in range(70)])
    _write_journal(second, [{"event": "run_start"}, {"event": "iteration", "index": 3}])
    with open(second, "a") as fh:
        fh.write('{"event": "iteration", "ind')
    (job_dir / "error.json").write_text(json.dumps(
        {"error": {"code": "compile_error", "message": "bad netlist", "status": 422}}
    ))
    (job_dir / "runner.log").write_text(
        'Traceback (most recent call last):\n  File "a.py", line 1, in f\n'
        "RuntimeError: boom\n"
        "supervisor: attempt 1 exited with code 1 and no outcome\n"
    )

    record = load_postmortem(str(job_dir))
    assert len(record["events"]) == 72
    assert [e.get("index") for e in record["events"][-3:]] == [69, None, 3]
    report = render_postmortem(record)
    assert f"journal tail ({TAIL_EVENTS} of 72 event(s))" in report
    assert "error: compile_error: bad netlist" in report
    assert "RuntimeError: boom" in report
    assert "supervisor: attempt 1 exited with code 1" in report
    tail_rows = report.split("-- runner.log --")[0].strip().splitlines()[-3:]
    assert [row.split() for row in tail_rows] == [
        ["iteration", "index=69"], ["run_start"], ["iteration", "index=3"],
    ]


def test_postmortem_on_bare_journal(tmp_path):
    journal = tmp_path / "run.jsonl"
    _write_journal(journal, [{"event": "run_start", "circuit": "c17"},
                             {"event": "iteration", "index": 0}])
    record = load_postmortem(str(journal))
    assert record["error"] is None and record["runner_log"] is None
    assert [e["event"] for e in record["events"]] == ["run_start", "iteration"]
    report = render_postmortem(record)
    assert "journal tail (2 of 2 event(s))" in report
    assert "circuit=c17" in report
    assert "runner.log" not in report


def test_postmortem_errors_are_readable(tmp_path):
    with pytest.raises(ValueError, match="no such file"):
        load_postmortem(str(tmp_path / "nope"))
    empty = tmp_path / "empty-job"
    empty.mkdir()
    with pytest.raises(ValueError, match="nothing to report"):
        load_postmortem(str(empty))
    netlist = tmp_path / "c17.bench"
    netlist.write_text("INPUT(a)\nOUTPUT(a)\n")
    with pytest.raises(ValueError, match="not a run journal"):
        load_postmortem(str(netlist))
