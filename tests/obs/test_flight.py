"""Flight recorder, fingerprinting, and crash-bundle forensics.

Unit layer of DESIGN.md §15: the normalization contract that makes
fingerprints stable across hosts and line-number churn, bundle
writing/loading (the journal tail read from the run journal), and the
postmortem renderer.
"""

import json
import os
import sys

import pytest

from repro.obs.flight import (
    BUNDLE_DIRNAME,
    TAIL_EVENTS,
    FlightRecorder,
    fingerprint_key,
    fingerprint_text,
    load_bundle,
    normalize_traceback,
    package_bundle,
    render_postmortem,
)

TB_A = '''Traceback (most recent call last):
  File "/home/alice/checkout/src/repro/simplify/greedy.py", line 412, in _run
    candidate = pick(ranked[0])
  File "/home/alice/checkout/src/repro/simplify/rank.py", line 88, in pick
    return table[key]
KeyError: 140234
'''

# The "same" failure from another host: different checkout path,
# different line numbers, different id in the message.
TB_A2 = '''Traceback (most recent call last):
  File "C:\\ci\\build\\repro\\simplify\\greedy.py", line 399, in _run
    candidate = pick(ranked[0])
  File "C:\\ci\\build\\repro\\simplify\\rank.py", line 91, in pick
    return table[key]
KeyError: 998001
'''

TB_B = '''Traceback (most recent call last):
  File "/home/alice/checkout/src/repro/simplify/greedy.py", line 412, in _run
    candidate = pick(ranked[0])
ValueError: no candidates at 0x7f3a2b001c20
'''


# ---------------------------------------------------------------------------
# normalization + fingerprints
# ---------------------------------------------------------------------------


def test_normalize_drops_lines_paths_and_ids():
    norm = normalize_traceback(TB_A)
    assert "greedy:_run > rank:pick" in norm
    assert "412" not in norm and "/home/alice" not in norm
    assert "KeyError: #" in norm


def test_fingerprint_stable_across_hosts_and_line_churn():
    assert fingerprint_text(TB_A) == fingerprint_text(TB_A2)


def test_fingerprint_distinguishes_failure_modes():
    assert fingerprint_text(TB_A) != fingerprint_text(TB_B)


def test_normalize_handles_faulthandler_format():
    # faulthandler frames have no comma before "in" and no source line
    dump = (
        "Thread 0x00007f3a2b001c20 (most recent call first):\n"
        '  File "/x/y/runner.py", line 88 in main\n'
    )
    norm = normalize_traceback(dump)
    assert "runner:main" in norm
    assert "0xADDR" in norm


def test_fingerprint_key_keeps_numeric_causes_apart():
    # text fingerprints collapse digit runs; synthetic supervisor causes
    # (exit codes, signal numbers) must NOT cluster together
    assert fingerprint_key("exit", "1") != fingerprint_key("exit", "2")
    assert fingerprint_key("signal", "SIGKILL") != fingerprint_key(
        "signal", "SIGSEGV"
    )
    assert fingerprint_key("exit", "1") == fingerprint_key("exit", "1")


# ---------------------------------------------------------------------------
# the recorder + bundles
# ---------------------------------------------------------------------------


def _write_journal(path, events):
    with open(path, "w") as fh:
        for event in events:
            fh.write(json.dumps(event) + "\n")


def _armed_recorder(tmp_path, journal_paths=()):
    rec = FlightRecorder(trace_id="trace-xyz", journal_paths=journal_paths)
    # excepthook=False keeps sys.excepthook pristine under pytest
    rec.install(str(tmp_path), excepthook=False)
    return rec


def test_write_bundle_contents_and_atomic_overwrite(tmp_path):
    journal = tmp_path / "run.jsonl"
    _write_journal(journal, [{"event": "iteration", "index": 0, "area_after": 412.5}])
    rec = _armed_recorder(tmp_path, [str(journal)])
    try:
        try:
            raise KeyError(140234)
        except KeyError:
            bundle = rec.write_bundle(sys.exc_info())

        crash = json.loads(
            (tmp_path / BUNDLE_DIRNAME / "crash.json").read_text()
        )
        assert crash["kind"] == "crash"
        assert crash["trace_id"] == "trace-xyz"
        assert crash["error"]["type"] == "KeyError"
        assert len(crash["fingerprint"]) == 16
        assert "KeyError" in (tmp_path / BUNDLE_DIRNAME / "traceback.txt").read_text()
        assert (tmp_path / BUNDLE_DIRNAME / "stacks.txt").read_text()
        tail_lines = (
            (tmp_path / BUNDLE_DIRNAME / "journal_tail.jsonl")
            .read_text()
            .splitlines()
        )
        assert json.loads(tail_lines[0])["index"] == 0

        # A later flush atomically replaces the whole bundle -- no
        # leftovers from the first one, no temp staging dirs.
        (tmp_path / BUNDLE_DIRNAME / "stray.txt").write_text("first\n")
        try:
            raise ValueError("second flush")
        except ValueError:
            rec.write_bundle(sys.exc_info())
        crash2 = json.loads(
            (tmp_path / BUNDLE_DIRNAME / "crash.json").read_text()
        )
        assert crash2["error"]["type"] == "ValueError"
        assert not (tmp_path / BUNDLE_DIRNAME / "stray.txt").exists()
        assert not [p for p in os.listdir(tmp_path) if ".tmp." in p]
        assert bundle == str(tmp_path / BUNDLE_DIRNAME)
    finally:
        rec.uninstall()


def test_write_bundle_requires_install(tmp_path):
    with pytest.raises(ValueError):
        FlightRecorder().write_bundle((KeyError, KeyError(1), None))


# ---------------------------------------------------------------------------
# supervisor-side packaging + readers
# ---------------------------------------------------------------------------


def test_package_bundle_and_load_roundtrip(tmp_path):
    job_dir = tmp_path / "job-000001"
    job_dir.mkdir()
    (job_dir / "stacks.txt").write_text(
        'Thread 0x1 (most recent call first):\n  File "a.py", line 1 in f\n'
    )
    # a fom="best" job's two journal files; the second one's last line
    # is torn (the child died mid-write) and must not reach the tail
    first, second = job_dir / "checkpoint.jsonl.a", job_dir / "checkpoint.jsonl.b"
    _write_journal(first, [{"event": "iteration", "index": i} for i in range(70)])
    _write_journal(second, [{"event": "run_start"}, {"event": "iteration", "index": 3}])
    with open(second, "a") as fh:
        fh.write('{"event": "iteration", "ind')
    path = package_bundle(
        str(job_dir),
        "hung",
        fingerprint=fingerprint_key("hang", "demo"),
        journal_paths=[str(first), str(second), str(job_dir / "missing.jsonl")],
        trace_id="t-1",
        note="watchdog demo",
    )
    assert path == str(job_dir / BUNDLE_DIRNAME)

    # load via the job dir, the bundle dir, and render the report
    for source in (str(job_dir), path):
        bundle = load_bundle(source)
        assert bundle["crash"]["kind"] == "hung"
        assert bundle["crash"]["trace_id"] == "t-1"
        tail = bundle["tail"]
        assert len(tail) == TAIL_EVENTS
        assert [e.get("index") for e in tail[-3:]] == [69, None, 3]
        assert "a.py" in bundle["stacks"]
    report = render_postmortem(load_bundle(str(job_dir)))
    assert "kind: hung" in report
    assert "watchdog demo" in report
    assert "iteration" in report
    assert "stack dump" in report


def test_load_bundle_on_bare_journal(tmp_path):
    journal = tmp_path / "run.jsonl"
    with open(journal, "w") as fh:
        fh.write(json.dumps({"event": "run_start"}) + "\n")
        fh.write(json.dumps({"event": "iteration", "index": 0}) + "\n")
    bundle = load_bundle(str(journal))
    assert bundle["crash"] is None
    assert [e["event"] for e in bundle["tail"]] == ["run_start", "iteration"]
    assert "journal tail" in render_postmortem(bundle)


def test_load_bundle_errors_are_readable(tmp_path):
    with pytest.raises(ValueError, match="no such file"):
        load_bundle(str(tmp_path / "nope"))
    empty = tmp_path / "empty-job"
    empty.mkdir()
    with pytest.raises(ValueError, match="no crash bundle"):
        load_bundle(str(empty))
