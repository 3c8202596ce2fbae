"""Command-line interface."""

import io
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
    "verb", [["report", "r.jsonl"], ["compare", "a.jsonl", "b.jsonl"]]
)
def test_top_below_one_is_a_usage_error(verb, top, capsys):
    with pytest.raises(SystemExit) as exc:
        main(verb + ["--top", top])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--top: must be at least 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["yield", "NETLIST", "--rs-pct", "5", "--vectors", "0"],
        ["yield", "NETLIST", "--rs-pct", "5", "--chips", "-1"],
        ["er-tests", "NETLIST", "--candidates", "0"],
        ["serve", "--workers", "0"],
        # table2 reads its budget from --rs-pct alone
        ["table2", "c880", "--rs", "5", "--rs-pct", "1",
         "--vectors", "100", "--candidate-limit", "5"],
        # queue.Queue(maxsize=0) is unbounded: it would never answer 429
        ["serve", "--queue-limit", "0"],
        ["serve", "--queue-limit", "-1"],
        ["serve", "--max-retries", "0"],
        ["serve", "--max-retries", "-1"],
        ["jobs", "--timeout", "-1"],
        ["jobs", "--timeout", "nan"],
        ["jobs", "--timeout", "0"],
        ["submit", "NETLIST", "--rs-pct", "5", "--timeout", "inf"],
        ["submit", "NETLIST", "--rs-pct", "5", "--wait",
         "--poll-interval", "-1"],
        # a NaN or infinite deadline never fires; omit the flag to
        # disable the watchdog
        ["serve", "--hang-timeout", "nan"],
        ["serve", "--hang-timeout", "-5"],
        ["serve", "--hang-timeout", "0"],
        ["serve", "--hang-timeout", "inf"],
        ["yield", "NETLIST", "--rs-pct", "5", "--density", "-1"],
        ["yield", "NETLIST", "--rs-pct", "5", "--density", "nan"],
        ["yield", "NETLIST", "--rs-pct", "5", "--density", "inf"],
        ["yield", "NETLIST", "--rs-pct", "5", "--seed", "-1"],
        ["yield", "NETLIST", "--rs", "-1"],
        ["yield", "NETLIST", "--rs-pct", "nan"],
        # one budget: --rs would silently win over --rs-pct
        ["yield", "NETLIST", "--rs", "1", "--rs-pct", "5"],
        ["er-tests", "NETLIST", "--er", "1"],
        ["er-tests", "NETLIST", "--er", "-0.1"],
        ["er-tests", "NETLIST", "--er", "nan"],
        ["er-tests", "NETLIST", "--seed", "-1"],
        # the DCT works on whole 8x8 blocks
        ["dct-study", "--size", "0"],
        ["dct-study", "--size", "12"],
    ],
    ids=["yield-vectors", "yield-chips", "er-tests-candidates",
         "serve-workers", "table2-rs", "serve-queue-limit-0",
         "serve-queue-limit-negative", "serve-max-retries-0",
         "serve-max-retries-negative", "jobs-timeout-negative",
         "jobs-timeout-nan", "jobs-timeout-0", "submit-timeout-inf",
         "submit-poll-interval-negative", "serve-hang-timeout-nan",
         "serve-hang-timeout-negative", "serve-hang-timeout-0",
         "serve-hang-timeout-inf", "yield-density-negative",
         "yield-density-nan", "yield-density-inf", "yield-seed-negative",
         "yield-rs-negative", "yield-rs-pct-nan", "yield-rs-and-rs-pct",
         "er-tests-er-1", "er-tests-er-negative", "er-tests-er-nan",
         "er-tests-seed-negative", "dct-study-size-0", "dct-study-size-12"],
)
def test_bad_count_and_budget_flags_are_usage_errors(
    argv, netlist, capsys, monkeypatch
):
    import repro.service

    # A serve that argparse let through must return, not serve forever.
    monkeypatch.setattr(repro.service, "serve", lambda **kw: None)
    with pytest.raises(SystemExit) as exc:
        main([netlist if a == "NETLIST" else a for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "Traceback" not in err


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


def test_best_run_journals_each_runs_own_totals(tmp_path, capsys):
    """Each journal of --fom best's two constituent runs holds its own
    run's totals in its summary."""
    from tests.conftest import build_ripple_adder
    from tests.obs.test_journal import assert_summary_is_own_run

    netlist = tmp_path / "adder5.bench"
    dump_bench(build_ripple_adder(5), netlist)
    journal = tmp_path / "j.jsonl"
    assert main(["simplify", str(netlist), "--rs-pct", "6", "--vectors", "900",
                 "--seed", "4", "--candidate-limit", "60",
                 "--fom", "best", "--journal", str(journal)]) == 0
    capsys.readouterr()
    assert os.path.exists(f"{journal}.area_per_rs")  # both runs executed
    assert_summary_is_own_run(f"{journal}.area")


def test_report_missing_file_fails_cleanly(tmp_path, capsys):
    assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
    assert "nope.jsonl" in capsys.readouterr().err


def test_retired_verbs_and_flags_are_usage_errors(netlist, tmp_path, capsys):
    """What a run did is read from its journal: where the time went
    (`repro report`, not the profile verb, --profile or a Chrome
    trace), its progress (`repro report` or `progress_from_events`, not
    a --progress file), a machine view of it (`report --format json`,
    not OpenMetrics text) and the confidence level of its audit (the
    journal's z, not --z).  A job is named by its id, not a trace id."""
    journal = str(tmp_path / "x.jsonl")
    for argv in (
        ["profile", journal],
        ["simplify", netlist, "--rs-pct", "5", "--profile"],
        ["table2", "c880", "--rs-pct", "1", "--profile"],
        ["simplify", netlist, "--rs-pct", "5", "--progress", "p.json"],
        ["simplify", netlist, "--rs-pct", "5", "--progress-interval", "1"],
        ["audit", journal, "--z", "3"],
        ["simplify", netlist, "--rs-pct", "5", "--trace", "t.json"],
        ["report", journal, "--format", "openmetrics"],
        ["submit", netlist, "--rs-pct", "5", "--trace-id", "x"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "Traceback" not in err


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


def test_simplify_draws_the_live_line_only_on_a_tty(netlist, monkeypatch, capsys):
    """On a terminal, simplify rewrites one progress line in place and
    ends it with the run's final state; --quiet keeps it silent."""

    class Tty(io.StringIO):
        def isatty(self):
            return True

    for quiet in ([], ["--quiet"]):
        tty = Tty()
        monkeypatch.setattr(sys, "stderr", tty)
        assert main(quiet + ["simplify", netlist, "--rs-pct", "5",
                             "--vectors", "500"]) == 0
        line = tty.getvalue()
        if quiet:
            assert line == ""
        else:
            assert line.startswith("\r[") and line.endswith("\n")
            assert "complete" in line.rsplit("\r", 1)[-1]
    capsys.readouterr()


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


@pytest.mark.parametrize(
    "argv",
    [["simplify", "NETLIST", "--rs-pct", "5", "--telemetry-interval", "1"],
     ["trends", "BENCH_compiled_kernel.json"]],
    ids=["telemetry-interval", "trends"],
)
def test_retired_sampler_and_trends_are_usage_errors(argv, netlist, capsys):
    """The resource sampler's option and the trends verb are gone: argparse
    rejects both (exit 2) before any run starts."""
    with pytest.raises(SystemExit) as exc:
        main([netlist if a == "NETLIST" else a for a in argv])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_report_cli_text_json_and_gate(netlist, tmp_path, capsys):
    import json

    journal = tmp_path / "run.jsonl"
    assert main(["simplify", netlist, "--rs-pct", "5", "--vectors", "500",
                 "--journal", str(journal)]) == 0
    capsys.readouterr()

    assert main(["report", str(journal)]) == 0
    out = capsys.readouterr().out
    assert "=== phase times ===" in out
    header = next(line for line in out.splitlines() if line.startswith("phase "))
    assert header.split() == ["phase", "total", "self", "share", "calls"]
    assert "attributed: " in out and "wall (" in out

    assert main(["report", str(journal), "--format", "json", "--top", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["counters"]) <= 3
    assert all("self_s" in row for row in payload["phase_times"])
    assert payload["attribution"]["attributed_pct"] > 0

    # a healthy run passes the gate; a journal holding only its header
    # has no wall-clock total, so its attribution is unknown and fails
    assert main(["report", str(journal), "--fail-on-unattributed"]) == 0
    capsys.readouterr()
    torn = tmp_path / "torn.jsonl"
    with open(journal, encoding="utf-8") as src:
        first = src.readline()
    torn.write_text(first)
    assert main(["report", str(torn), "--fail-on-unattributed"]) == 3
    assert "attributed: unknown" in capsys.readouterr().out


def test_report_cli_errors(tmp_path, capsys):
    assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["report", str(empty)]) == 2
    assert main(["report", str(empty), "--fail-on-unattributed"]) == 2
    capsys.readouterr()


def test_postmortem_bad_paths_exit_2(tmp_path, capsys):
    assert main(["postmortem", str(tmp_path / "nope")]) == 2
    healthy = tmp_path / "healthy-job"
    healthy.mkdir()
    assert main(["postmortem", str(healthy)]) == 2
    err = capsys.readouterr().err
    assert "nothing to report" in err


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
