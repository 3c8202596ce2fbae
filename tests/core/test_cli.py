"""Command-line interface."""

import os
import subprocess
import sys

import pytest

from repro.circuit import dump_bench
from repro.cli import main
from tests.conftest import build_ripple_adder


@pytest.fixture
def netlist(tmp_path):
    path = tmp_path / "adder4.bench"
    dump_bench(build_ripple_adder(4), path)
    return str(path)


def test_stats(netlist, capsys):
    assert main(["stats", netlist]) == 0
    out = capsys.readouterr().out
    assert "gates" in out
    assert "RS_max: 31" in out
    assert "datapath %: 100.00" in out


def test_simplify_roundtrip(netlist, tmp_path, capsys):
    out_path = tmp_path / "approx.bench"
    rc = main(
        [
            "simplify",
            netlist,
            "--rs-pct",
            "5",
            "--vectors",
            "1000",
            "-o",
            str(out_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "area:" in out
    assert out_path.exists()
    from repro.circuit import load_bench

    load_bench(out_path).validate()


def test_simplify_requires_one_threshold(netlist, capsys):
    assert main(["simplify", netlist]) == 2
    assert main(["simplify", netlist, "--rs", "1", "--rs-pct", "1"]) == 2


@pytest.mark.parametrize(
    "verb", [["simplify", "x.bench"], ["table2", "c880"], ["submit", "x.bench"]]
)
def test_workers_option_is_gone(verb, capsys):
    """Scoring runs in one process: --workers is a usage error (exit 2)."""
    with pytest.raises(SystemExit) as exc:
        main(verb + ["--rs-pct", "1", "--workers", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "unrecognized arguments: --workers 2" in err


@pytest.mark.parametrize("top", ["0", "-2"])
@pytest.mark.parametrize(
    "verb", [["report", "r.jsonl"], ["profile", "r.jsonl"],
             ["compare", "a.jsonl", "b.jsonl"]]
)
def test_top_below_one_is_a_usage_error(verb, top, capsys):
    with pytest.raises(SystemExit) as exc:
        main(verb + ["--top", top])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--top: must be at least 1" in err


def test_redundancy_command(netlist, capsys):
    assert main(["redundancy", netlist]) == 0
    out = capsys.readouterr().out
    assert "removed 0 redundant" in out  # the adder is irredundant


@pytest.mark.parametrize("fom", ["area_per_rs", "best"])
def test_table2_single_row(fom, capsys):
    rc = main(
        [
            "table2",
            "c880",
            "--rs-pct",
            "1",
            "--vectors",
            "800",
            "--candidate-limit",
            "40",
            "--fom",
            fom,
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "c880-like" in out
    assert "ours" in out and "paper" in out


def test_dct_study_small(capsys):
    assert main(["dct-study", "--size", "64"]) == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out and "Figure 3" in out
    assert "PSNR" in out


def test_er_tests_command(netlist, tmp_path, capsys):
    out_file = tmp_path / "vectors.txt"
    rc = main(
        ["er-tests", netlist, "--er", "0.2", "--candidates", "256",
         "-o", str(out_file)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "test set:" in out
    lines = out_file.read_text().splitlines()
    assert lines and all(set(l) <= {"0", "1"} and len(l) == 8 for l in lines)


def test_yield_command(netlist, capsys):
    rc = main(
        ["yield", netlist, "--chips", "60", "--density", "0.8",
         "--rs-pct", "2", "--vectors", "800"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "classical" in out and "effective" in out


def test_simplify_journal_and_report_roundtrip(netlist, tmp_path, capsys):
    journal = tmp_path / "run.jsonl"
    rc = main(
        ["simplify", netlist, "--rs-pct", "5", "--vectors", "1000",
         "--journal", str(journal)]
    )
    assert rc == 0
    assert "run journal written to" in capsys.readouterr().out
    from repro.obs import load_journal

    events = load_journal(journal, strict=True)
    assert events[0]["event"] == "run_start"
    assert events[-1]["event"] == "summary"

    assert main(["report", str(journal)]) == 0
    out = capsys.readouterr().out
    assert "=== run ===" in out
    assert "status: complete" in out
    assert "=== phase times ===" in out
    assert "greedy" in out


def test_simplify_checkpoint_resume_cli(netlist, tmp_path, capsys):
    """--journal is the checkpoint; a rerun resumes/rebuilds from it."""
    import json

    ckpt = tmp_path / "run.ckpt.jsonl"
    args = ["simplify", netlist, "--rs-pct", "5", "--vectors", "1000",
            "--journal", str(ckpt)]
    out_a = tmp_path / "a.bench"
    assert main(args + ["-o", str(out_a)]) == 0
    assert "run journal written to" in capsys.readouterr().out
    events = [json.loads(l) for l in ckpt.read_text().splitlines()]
    assert events[0]["event"] == "run_start"
    assert events[-1]["event"] == "summary"
    assert all("fault_detail" in e for e in events if e["event"] == "iteration")

    # truncate to a mid-run prefix and rerun: result identical
    it = next(i for i, e in enumerate(events) if e["event"] == "iteration")
    ckpt.write_text(
        "".join(json.dumps(e) + "\n" for e in events[: it + 1])
    )
    out_b = tmp_path / "b.bench"
    assert main(args + ["-o", str(out_b)]) == 0
    capsys.readouterr()
    assert out_b.read_text() == out_a.read_text()


def test_simplify_journal_is_never_overwritten(netlist, tmp_path, capsys):
    """A path names one run: rerunning it on a complete --journal
    appends nothing, and a different run on the same path is refused
    with checkpoint_mismatch before the file is touched."""
    journal = tmp_path / "run.jsonl"
    args = ["simplify", netlist, "--vectors", "1000", "--journal", str(journal)]
    out_a, out_b = tmp_path / "a.bench", tmp_path / "b.bench"
    assert main(args + ["--rs-pct", "5", "-o", str(out_a)]) == 0
    complete = journal.read_bytes()
    assert main(args + ["--rs-pct", "5", "-o", str(out_b)]) == 0
    assert journal.read_bytes() == complete
    assert out_b.read_text() == out_a.read_text()
    capsys.readouterr()

    assert main(args + ["--rs-pct", "6"]) == 2
    assert "checkpoint_mismatch" in capsys.readouterr().err
    assert journal.read_bytes() == complete


def test_simplify_rejects_bad_checkpoint(netlist, tmp_path, capsys):
    ckpt = tmp_path / "bad.jsonl"
    ckpt.write_text(
        '{"event": "rejection", "index": 0, "fault": "x SA0", '
        '"reason": "rs_exceeded"}\n'
    )
    rc = main(["simplify", netlist, "--rs-pct", "5", "--vectors", "500",
               "--journal", str(ckpt)])
    assert rc == 2
    assert "run_start" in capsys.readouterr().err


def test_simplify_fom_best(netlist, tmp_path, capsys):
    out_path = tmp_path / "best.bench"
    rc = main(["simplify", netlist, "--rs-pct", "5", "--vectors", "800",
               "--fom", "best", "-o", str(out_path)])
    assert rc == 0
    assert out_path.exists()


def test_report_missing_file_fails_cleanly(tmp_path, capsys):
    assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
    assert "nope.jsonl" in capsys.readouterr().err


def test_simplify_profile_prints_phase_times(netlist, capsys):
    rc = main(
        ["simplify", netlist, "--rs-pct", "5", "--vectors", "500", "--profile"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "=== phase times ===" in out
    assert "=== top counters" in out


def test_quiet_suppresses_stdout_but_not_errors(netlist, tmp_path, capsys):
    rc = main(["--quiet", "stats", netlist])
    assert rc == 0
    assert capsys.readouterr().out == ""
    # errors still reach stderr under --quiet
    assert main(["--quiet", "report", str(tmp_path / "nope.jsonl")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nope.jsonl" in captured.err


def test_quiet_simplify_is_fully_silent(netlist, tmp_path, capsys):
    """A --quiet run emits nothing at all: no report, no progress line,
    no journal confirmation -- warnings/errors only."""
    rc = main(["--quiet", "simplify", netlist, "--rs-pct", "5",
               "--vectors", "500", "--journal", str(tmp_path / "r.jsonl"),
               "-o", str(tmp_path / "out.bench")])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ""
    assert (tmp_path / "out.bench").exists()  # the work still happened
    assert (tmp_path / "r.jsonl").exists()


def test_simplify_trace_export(netlist, tmp_path, capsys):
    """--trace writes Chrome-trace JSON with one coordinator lane."""
    import json

    trace = tmp_path / "trace.json"
    rc = main(["simplify", netlist, "--rs-pct", "5", "--vectors", "1000",
               "--trace", str(trace)])
    assert rc == 0
    assert "chrome trace written to" in capsys.readouterr().out
    with open(trace) as fh:
        payload = json.load(fh)
    lanes = [ev["args"]["name"] for ev in payload["traceEvents"]
             if ev["ph"] == "M"]
    assert lanes == ["repro coordinator"]
    spans = [ev for ev in payload["traceEvents"] if ev["ph"] == "X"]
    assert spans and all(ev["dur"] >= 0 for ev in spans)
    assert {ev["pid"] for ev in spans} == {os.getpid()}
    paths = {ev["args"]["path"] for ev in spans}
    assert any(p.startswith("greedy") for p in paths)


def test_simplify_trace_does_not_change_result(netlist, tmp_path, capsys):
    plain = tmp_path / "plain.bench"
    traced = tmp_path / "traced.bench"
    common = ["simplify", netlist, "--rs-pct", "5", "--vectors", "1000"]
    assert main(common + ["-o", str(plain)]) == 0
    assert main(common + ["-o", str(traced),
                          "--trace", str(tmp_path / "t.json")]) == 0
    capsys.readouterr()
    assert traced.read_text() == plain.read_text()


def test_simplify_progress_snapshot(netlist, tmp_path, capsys):
    import json

    progress = tmp_path / "progress.json"
    rc = main(["simplify", netlist, "--rs-pct", "5", "--vectors", "500",
               "--progress", str(progress)])
    assert rc == 0
    assert "progress snapshot written to" in capsys.readouterr().out
    snap = json.loads(progress.read_text())
    assert snap["status"] == "complete"
    assert snap["faults_committed"] >= 1
    assert snap["area"] < snap["area_start"]
    assert not progress.with_suffix(".json.tmp").exists()


def test_report_format_json(netlist, tmp_path, capsys):
    import json

    journal = tmp_path / "run.jsonl"
    assert main(["simplify", netlist, "--rs-pct", "5", "--vectors", "500",
                 "--journal", str(journal)]) == 0
    capsys.readouterr()
    assert main(["report", str(journal), "--format", "json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["run"]["status"] == "complete"
    assert d["run"]["iterations"] == len(d["iterations"])
    assert any(row["path"] == "greedy" for row in d["phase_times"])


def test_compare_cli_same_and_divergent(netlist, tmp_path, capsys):
    ja, jb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    common = ["simplify", netlist, "--rs-pct", "5", "--vectors", "1000"]
    assert main(common + ["--journal", str(ja)]) == 0
    assert main(common + ["--journal", str(jb), "--fom", "area"]) == 0
    capsys.readouterr()

    # two journals of the same run: zero divergence, rc 0 even under the gate
    assert main(["compare", str(ja), str(ja), "--fail-on-divergence"]) == 0
    assert "zero divergence" in capsys.readouterr().out

    # different --fom: the first diverging iteration is reported, rc 3
    rc = main(["compare", str(ja), str(jb), "--fail-on-divergence"])
    out = capsys.readouterr().out
    if "FIRST DIVERGENCE" in out:
        assert rc == 3
    else:  # tiny adder: both FOMs may pick identical faults
        assert rc == 0

    assert main(["compare", str(ja), str(tmp_path / "nope.jsonl")]) == 2
    assert "nope.jsonl" in capsys.readouterr().err


def test_trends_cli_history_and_regression_gate(tmp_path, capsys, monkeypatch):
    import json

    monkeypatch.chdir(tmp_path)
    bench = tmp_path / "BENCH_demo.json"
    history = tmp_path / "hist.jsonl"

    def snapshot(t_total_s):
        bench.write_text(json.dumps(
            {"bench": "demo",
             "rows": [{"circuit": "c880", "workers": 2,
                       "t_total_s": t_total_s}]}))

    # two clean baseline entries
    for t in (10.0, 10.2):
        snapshot(t)
        assert main(["trends", str(bench), "--history", str(history)]) == 0
    assert len(history.read_text().splitlines()) == 2

    # a 30% slowdown against the trailing median trips the gate
    snapshot(13.0)
    rc = main(["trends", str(bench), "--history", str(history),
               "--fail-on-regression"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "REGRESSION demo" in err and "t_total_s" in err

    # --no-append checks without recording
    before = history.read_text()
    assert main(["trends", str(bench), "--history", str(history),
                 "--no-append"]) == 0
    assert history.read_text() == before

    # a missing snapshot is a warning, not a failure (CI soft path)
    assert main(["trends", str(tmp_path / "BENCH_missing.json"),
                 "--history", str(history)]) == 0


def test_trends_first_run_creates_history_file_cleanly(tmp_path, capsys):
    """A fresh checkout has no history file (and maybe no artifact dir):
    the first `repro trends` run creates both instead of tracebacking."""
    import json

    bench = tmp_path / "BENCH_demo.json"
    bench.write_text(json.dumps(
        {"bench": "demo", "rows": [{"circuit": "c880", "t_total_s": 10.0}]}))
    history = tmp_path / "artifacts" / "nested" / "BENCH_history.jsonl"
    assert not history.parent.exists()
    assert main(["trends", str(bench), "--history", str(history)]) == 0
    assert "TREND demo" in capsys.readouterr().out
    assert len(history.read_text().splitlines()) == 1

    # an unwritable history path is a clean exit-2 error, not a traceback
    blocked = tmp_path / "file"
    blocked.write_text("")
    rc = main(["trends", str(bench),
               "--history", str(blocked / "hist.jsonl")])
    assert rc == 2
    assert "cannot write history" in capsys.readouterr().err


def test_simplify_telemetry_interval_journals_samples(netlist, tmp_path, capsys):
    journal = tmp_path / "run.jsonl"
    rc = main(["simplify", netlist, "--rs-pct", "5", "--vectors", "500",
               "--telemetry-interval", "0.02", "--journal", str(journal)])
    assert rc == 0
    capsys.readouterr()
    from repro.obs import load_journal

    events = load_journal(str(journal))
    tel = [e for e in events if e["event"] == "telemetry"]
    assert len(tel) >= 2
    assert events[0]["event"] == "run_start"
    assert events[-1]["event"] == "summary"


def test_simplify_rejects_non_positive_telemetry_interval(netlist, capsys):
    rc = main(["simplify", netlist, "--rs-pct", "5",
               "--telemetry-interval", "0"])
    assert rc == 2
    assert "telemetry_interval" in capsys.readouterr().err


def test_simplify_progress_drops_openmetrics_heartbeat(netlist, tmp_path,
                                                       capsys):
    from repro.obs import validate_openmetrics

    progress = tmp_path / "progress.json"
    prom = tmp_path / "telemetry.prom"
    rc = main(["simplify", netlist, "--rs-pct", "5", "--vectors", "500",
               "--progress", str(progress),
               "--telemetry-interval", "0.02"])
    assert rc == 0
    assert "openmetrics snapshot written to" in capsys.readouterr().out
    text = prom.read_text()
    assert validate_openmetrics(text) > 0
    assert 'repro_run_info{' in text
    assert "repro_gauge_run_area" in text
    assert not prom.with_suffix(".prom.tmp").exists()


def test_profile_cli_text_json_and_gate(netlist, tmp_path, capsys):
    import json

    journal = tmp_path / "run.jsonl"
    assert main(["simplify", netlist, "--rs-pct", "5", "--vectors", "500",
                 "--telemetry-interval", "0.02",
                 "--journal", str(journal)]) == 0
    capsys.readouterr()

    assert main(["profile", str(journal)]) == 0
    out = capsys.readouterr().out
    assert "=== profile:" in out
    assert "self time (exclusive, top spans)" in out
    assert "RSS timeline" in out

    assert main(["profile", str(journal), "--format", "json", "--top", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["spans"]) <= 3
    assert payload["attribution"]["attributed_pct"] > 0

    # a healthy run passes the gate; a truncated header-only journal fails it
    assert main(["profile", str(journal), "--fail-on-unattributed"]) == 0
    capsys.readouterr()
    torn = tmp_path / "torn.jsonl"
    with open(journal, encoding="utf-8") as src:
        first = src.readline()
    torn.write_text(first)
    assert main(["profile", str(torn), "--fail-on-unattributed"]) == 3
    capsys.readouterr()


def test_profile_cli_errors(tmp_path, capsys):
    assert main(["profile", str(tmp_path / "nope.jsonl")]) == 2
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["profile", str(empty)]) == 2
    capsys.readouterr()


def test_report_format_openmetrics_cli(netlist, tmp_path, capsys):
    from repro.obs import validate_openmetrics

    journal = tmp_path / "run.jsonl"
    assert main(["simplify", netlist, "--rs-pct", "5", "--vectors", "500",
                 "--journal", str(journal)]) == 0
    capsys.readouterr()
    assert main(["report", str(journal), "--format", "openmetrics"]) == 0
    text = capsys.readouterr().out
    assert validate_openmetrics(text) > 0
    assert 'status="complete"' in text


def test_postmortem_bad_paths_exit_2(tmp_path, capsys):
    assert main(["postmortem", str(tmp_path / "nope")]) == 2
    healthy = tmp_path / "healthy-job"
    healthy.mkdir()
    assert main(["postmortem", str(healthy)]) == 2
    err = capsys.readouterr().err
    assert "no crash bundle" in err


_MALFORMED_NETLISTS = [
    ("gate.bench", "INPUT(a)\nOUTPUT(z)\nz = FOO(a)\n", "unknown gate type"),
    ("undefined.bench", "INPUT(a)\nOUTPUT(z)\nz = AND(a, q)\n", "not a known signal"),
    (
        "statement.v",
        "module m(a, z);\ninput a;\noutput z;\nalways @(a) z = a;\nendmodule\n",
        "unsupported statement",
    ),
    ("missing.bench", None, "cannot read"),
]


@pytest.mark.parametrize("name,text,reason", _MALFORMED_NETLISTS)
def test_malformed_netlist_is_a_compile_error(tmp_path, capsys, name, text, reason):
    """Every verb that loads a netlist reports a bad one as a typed
    ``compile_error`` and exits 2."""
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    for argv in (
        ["simplify", str(path), "--rs-pct", "5"],
        ["stats", str(path)],
        ["redundancy", str(path)],
        ["er-tests", str(path)],
        ["yield", str(path)],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "compile_error" in err and reason in err, (argv, err)


def test_malformed_netlist_prints_no_traceback(tmp_path):
    path = tmp_path / "gate.bench"
    path.write_text(_MALFORMED_NETLISTS[0][1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "simplify", str(path), "--rs-pct", "5"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert "compile_error: netlist does not parse" in proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
