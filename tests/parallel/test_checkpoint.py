"""Checkpoint/resume: a killed run continues bit-identically.

The run journal is the checkpoint.  The contract under test: for any
prefix of a journaled run, resuming from that prefix produces the same
fault sequence, the same final netlist, and the same final metrics as
the uninterrupted run -- the journal carries everything the greedy
loop's state depends on (committed faults, rejected faults, config,
exact threshold).
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro import GreedyConfig, circuit_simplify, dumps_bench, loads_bench
from repro.obs import Instrumentation, load_journal
from repro.parallel import (
    CheckpointError,
    load_checkpoint,
    maybe_load_checkpoint,
    resume_from,
)
from tests.conftest import build_c17, build_ripple_adder

_CFG = GreedyConfig(num_vectors=900, seed=4, candidate_limit=60)


def _run(circuit, journal=None, config=_CFG, obs=None):
    return circuit_simplify(
        circuit,
        rs_pct_threshold=6.0,
        config=config,
        journal=journal,
        obs=obs,
    )


def _truncate_after_iterations(path, keep):
    """Rewrite the journal keeping everything up to the keep-th
    iteration event (simulating a death at that point)."""
    kept, seen = [], 0
    with open(path) as fh:
        for line in fh:
            ev = json.loads(line)
            if ev["event"] == "summary":
                break
            kept.append(line)
            if ev["event"] == "iteration":
                seen += 1
                if seen >= keep:
                    break
    assert seen >= keep, f"run had only {seen} iterations"
    with open(path, "w") as fh:
        fh.writelines(kept)


@pytest.fixture(scope="module")
def adder():
    return build_ripple_adder(5)


@pytest.fixture(scope="module")
def reference(adder):
    """The uninterrupted run every resumed variant must reproduce."""
    return _run(adder)


def _assert_identical(resumed, reference):
    assert [str(f) for f in resumed.faults] == [str(f) for f in reference.faults]
    assert dumps_bench(resumed.simplified) == dumps_bench(reference.simplified)
    assert resumed.final_metrics.rs == reference.final_metrics.rs
    assert len(resumed.iterations) == len(reference.iterations)


def test_fresh_run_with_checkpoint_matches_plain(adder, reference, tmp_path):
    ckpt = tmp_path / "run.jsonl"
    res = _run(adder, journal=str(ckpt))
    _assert_identical(res, reference)
    state = load_checkpoint(ckpt)
    assert state.complete
    assert len(state.iteration_events) == len(reference.iterations)


@pytest.mark.parametrize("keep", [1, 2])
def test_truncated_checkpoint_resumes_identically(adder, reference, tmp_path, keep):
    if len(reference.iterations) <= keep:
        pytest.skip("reference run too short to truncate there")
    ckpt = tmp_path / "run.jsonl"
    _run(adder, journal=str(ckpt))
    _truncate_after_iterations(ckpt, keep)
    obs = Instrumentation()
    resumed = _run(adder, journal=str(ckpt), obs=obs)
    _assert_identical(resumed, reference)
    counters = obs.snapshot()["counters"]
    assert counters["checkpoint.resumes"] == 1
    assert counters["checkpoint.replayed_iterations"] == keep
    # the resumed file is a complete, loadable checkpoint again
    state = load_checkpoint(ckpt)
    assert state.complete
    assert state.resumes == 1
    # ...and the run's whole history: the original header, one resume
    # marker, and every committed step of the result
    events = load_journal(ckpt, strict=True)
    assert events[0]["event"] == "run_start"
    assert [e["event"] for e in events].count("resume") == 1
    assert [(e["index"], e["fault"]) for e in events if e["event"] == "iteration"] == [
        (r.index, str(r.fault)) for r in resumed.iterations
    ]


def test_stored_telemetry_samples_resume_and_render(
    adder, reference, tmp_path, capsys
):
    """Journals written while the resource sampler existed hold v4
    ``telemetry`` events between iterations, and journals written while
    correlation ids existed carry a ``trace_id`` on their ``run_start``
    and ``resume`` headers: they still rebuild and resume
    bit-identically, and ``repro report`` renders them."""
    from repro.cli import main

    if len(reference.iterations) < 2:
        pytest.skip("reference run too short to truncate there")
    ckpt = tmp_path / "run.jsonl"
    _run(adder, journal=str(ckpt))
    _truncate_after_iterations(ckpt, 1)
    _run(adder, journal=str(ckpt))  # a resume header after iteration 1
    sampled, t_s = [], 0.0
    for ev in load_journal(ckpt, strict=True):
        if ev["event"] in ("run_start", "resume"):
            ev["trace_id"] = "deploy-42"
        sampled.append(ev)
        if ev["event"] in ("run_start", "iteration"):
            t_s += 0.1
            sampled.append({
                "event": "telemetry", "t_s": t_s, "pid": 4242,
                "lane": "coordinator", "rss_bytes": 60_000_000,
                "cpu_s": t_s, "gauges": {"faults_per_s": 0.0},
            })
    with open(ckpt, "w") as fh:
        fh.writelines(json.dumps(ev, sort_keys=True) + "\n" for ev in sampled)

    _assert_identical(_run(adder, journal=str(ckpt)), reference)  # rebuild
    _truncate_after_iterations(ckpt, 2)
    _assert_identical(_run(adder, journal=str(ckpt)), reference)  # resume
    events = load_journal(ckpt, strict=True)
    assert [e["event"] for e in events].count("telemetry") == 2
    headers = [e for e in events if e["event"] in ("run_start", "resume")]
    assert [(e["event"], e.get("trace_id")) for e in headers] == [
        ("run_start", "deploy-42"),
        ("resume", "deploy-42"),
        ("resume", None),  # this build's resume stamps no trace id
    ]
    assert events[-1]["event"] == "summary"

    assert main(["report", str(ckpt)]) == 0
    out = capsys.readouterr().out
    assert "status: complete" in out
    assert "attributed: " in out


def test_torn_final_line_is_tolerated(adder, reference, tmp_path):
    if len(reference.iterations) < 2:
        pytest.skip("reference run too short")
    ckpt = tmp_path / "run.jsonl"
    _run(adder, journal=str(ckpt))
    _truncate_after_iterations(ckpt, 1)
    with open(ckpt, "a") as fh:
        fh.write('{"event": "iteration", "index": 99, "ar')  # torn write
    resumed = _run(adder, journal=str(ckpt))
    _assert_identical(resumed, reference)
    # the torn fragment was cut before appending: every line parses
    with open(ckpt) as fh:
        for line in fh:
            json.loads(line)


def test_complete_checkpoint_short_circuits(adder, reference, tmp_path):
    ckpt = tmp_path / "run.jsonl"
    _run(adder, journal=str(ckpt))
    before = os.path.getsize(ckpt)
    obs = Instrumentation()
    res = _run(adder, journal=str(ckpt), obs=obs)
    _assert_identical(res, reference)
    assert os.path.getsize(ckpt) == before  # nothing re-ran, nothing appended
    assert obs.snapshot()["counters"]["checkpoint.already_complete"] == 1


def test_rebuilt_run_without_a_greedy_step_keeps_its_es_bound(tmp_path):
    """A run that commits no greedy step takes its final metrics from
    the trailing ``finalize`` check, which only the summary records, so
    the rebuild reads the bound from there.  A summary stored without
    ``final_es_bound`` rebuilds ``es_bound=None``."""
    cfg = GreedyConfig(
        exhaustive=True, seed=0, candidate_limit=None,
        datapath_only=False, redundancy_prepass=True,
    )
    ckpt = tmp_path / "run.jsonl"
    live = circuit_simplify(
        build_c17(), rs_threshold=0.0, config=cfg, journal=str(ckpt)
    )
    assert all(r.phase == "prepass" for r in live.iterations)
    assert live.final_metrics.es_bound == 0
    rebuilt = circuit_simplify(
        build_c17(), rs_threshold=0.0, config=cfg, journal=str(ckpt)
    )
    assert rebuilt.final_metrics == live.final_metrics

    lines = ckpt.read_text().splitlines(keepends=True)
    summary = json.loads(lines[-1])
    del summary["final_es_bound"]
    ckpt.write_text("".join(lines[:-1]) + json.dumps(summary) + "\n")
    stored = circuit_simplify(
        build_c17(), rs_threshold=0.0, config=cfg, journal=str(ckpt)
    )
    assert stored.final_metrics.es_bound is None
    assert stored.final_metrics.rs == live.final_metrics.rs


def test_resume_from_adopts_checkpoint_config(adder, reference, tmp_path):
    ckpt = tmp_path / "run.jsonl"
    _run(adder, journal=str(ckpt))
    if len(reference.iterations) > 1:
        _truncate_after_iterations(ckpt, 1)
    res = resume_from(adder, ckpt)  # no config given: header's is used
    _assert_identical(res, reference)
    assert res.config == _CFG


def test_resume_with_prepass_checkpoint(tmp_path):
    """A run killed after the redundancy prepass resumes identically
    (its netlist is the structural reference for the greedy phase)."""
    from repro.benchlib import ISCAS85_SUITE

    circuit = ISCAS85_SUITE["c880"].builder()
    cfg = GreedyConfig(
        num_vectors=600, seed=0, candidate_limit=30, max_iterations=2,
        atpg_node_limit=400, redundancy_prepass=True,
        prepass_backtrack_limit=200,
    )
    ref = circuit_simplify(circuit, rs_pct_threshold=1.0, config=cfg)
    prepass_count = sum(1 for r in ref.iterations if r.phase == "prepass")
    assert prepass_count, "expected the c880 prepass to remove redundancies"
    ckpt = tmp_path / "run.jsonl"
    circuit_simplify(circuit, rs_pct_threshold=1.0, config=cfg, journal=str(ckpt))
    _truncate_after_iterations(ckpt, prepass_count)
    resumed = circuit_simplify(
        circuit, rs_pct_threshold=1.0, config=cfg, journal=str(ckpt)
    )
    _assert_identical(resumed, ref)


def test_resume_cut_inside_prepass_matches_uninterrupted(tmp_path):
    """A checkpoint cut partway through the prepass's injections resumes
    identically, and journals every injection exactly once: the resume
    re-runs the deterministic prepass and emits only what the
    checkpoint is missing."""
    from repro.benchlib import ISCAS85_SUITE

    # Bench-loaded, unit weights: every output is data, so the prepass
    # proves dozens of faults redundant.
    circuit = loads_bench(dumps_bench(ISCAS85_SUITE["c880"].builder()), name="c880")
    for o in circuit.outputs:
        circuit.output_weights[o] = 1
    cfg = GreedyConfig(
        num_vectors=500, seed=0, candidate_limit=20, max_iterations=1,
        redundancy_prepass=True, prepass_backtrack_limit=10,
    )
    full = tmp_path / "full.jsonl"
    reference = circuit_simplify(
        circuit, rs_pct_threshold=2.0, config=cfg, journal=str(full)
    )
    prepass = sum(r.phase == "prepass" for r in reference.iterations)
    assert prepass >= 4, "expected the prepass to inject several faults"
    for keep in (1, prepass // 2):
        ckpt = tmp_path / f"cut{keep}.jsonl"
        ckpt.write_text(full.read_text())
        _truncate_after_iterations(ckpt, keep)
        resumed = circuit_simplify(
            circuit, rs_pct_threshold=2.0, config=cfg, journal=str(ckpt)
        )
        _assert_identical(resumed, reference)
        journaled = [(ev["phase"], ev["index"]) for ev in
                     load_checkpoint(ckpt).iteration_events]
        assert journaled == [(r.phase, r.index) for r in reference.iterations]


DATA = Path(__file__).resolve().parents[1] / "data"

#: Stored state, never regenerated: a journal written by the eager
#: prepass (it proved every screen survivor before injecting, and its
#: rows count the 83 proven redundancies as ``candidates_evaluated``)
#: for ``tests/data/c880.bench`` with unit weights, cut after 17 of the
#: run's 34 prepass injections.  The uninterrupted run committed 35
#: faults (digest of their names, one per line) and ended at area 627.
STORED_PREPASS_CUT = DATA / "c880_prepass_cut.jsonl"
STORED_RUN_DIGEST = "97a403adebe8d409"
STORED_RUN_AREA = 627


def test_stored_journal_cut_inside_prepass_resumes(tmp_path):
    """The lazy prepass reproduces the eager prepass's injections, so a
    journal it wrote resumes without ``CheckpointError``, bit-identical
    to an uninterrupted run."""
    import hashlib

    circuit = loads_bench((DATA / "c880.bench").read_text(), name="c880")
    cfg = GreedyConfig(
        num_vectors=500, seed=0, candidate_limit=20, max_iterations=1,
        redundancy_prepass=True,
    )
    ckpt = tmp_path / "cut.jsonl"
    ckpt.write_bytes(STORED_PREPASS_CUT.read_bytes())
    resumed = circuit_simplify(
        circuit, rs_pct_threshold=2.0, config=cfg, journal=str(ckpt)
    )
    reference = circuit_simplify(circuit, rs_pct_threshold=2.0, config=cfg)
    _assert_identical(resumed, reference)
    names = "\n".join(str(f) for f in resumed.faults)
    assert hashlib.sha256(names.encode()).hexdigest()[:16] == STORED_RUN_DIGEST
    assert resumed.simplified.area() == STORED_RUN_AREA
    events = load_journal(ckpt, strict=True)
    rows = [e for e in events if e["event"] == "iteration"]
    assert [(e["phase"], e["index"]) for e in rows] == [
        (r.phase, r.index) for r in reference.iterations
    ]
    # prepass rows after the resume count the 84 screen survivors
    assert [e["candidates_evaluated"] for e in rows if e["phase"] == "prepass"] == (
        [83] * 17 + [84] * 17
    )


# ----------------------------------------------------------------------
# validation and error paths
# ----------------------------------------------------------------------
def test_maybe_load_missing_and_empty(tmp_path):
    assert maybe_load_checkpoint(tmp_path / "nope.jsonl") is None
    empty = tmp_path / "empty.jsonl"
    empty.touch()
    assert maybe_load_checkpoint(empty) is None


def test_maybe_load_only_torn_first_line(tmp_path):
    """Death inside the very first write: nothing committed, start fresh."""
    p = tmp_path / "torn.jsonl"
    p.write_text('{"event": "run_st')
    assert maybe_load_checkpoint(p) is None


def test_load_rejects_headerless_file(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text(
        '{"event": "rejection", "index": 0, "fault": "x SA0", '
        '"reason": "rs_exceeded"}\n'
    )
    with pytest.raises(CheckpointError, match="run_start"):
        load_checkpoint(p)


def test_resume_tolerates_renamed_circuit(adder, reference, tmp_path):
    """A .bench round-trip renames the circuit (load_bench uses the
    file stem); resume must still work on the structurally identical
    netlist, warning about the cosmetic name change."""
    import logging

    from repro.circuit import dump_bench, load_bench

    if len(reference.iterations) < 2:
        pytest.skip("reference run too short")
    bench = tmp_path / "other_name.bench"
    dump_bench(adder, bench)
    reloaded = load_bench(bench)
    assert reloaded.name != adder.name
    # .bench carries no weights; restore them (signal names survive)
    reloaded.output_weights = dict(adder.output_weights)
    ckpt = tmp_path / "run.jsonl"
    _run(adder, journal=str(ckpt))
    _truncate_after_iterations(ckpt, 1)
    # capture on the module logger directly: the CLI may have switched
    # the repro logging tree to propagate=False, which blinds caplog
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    ckpt_logger = logging.getLogger("repro.parallel.checkpoint")
    ckpt_logger.addHandler(handler)
    try:
        resumed = resume_from(reloaded, ckpt)
    finally:
        ckpt_logger.removeHandler(handler)
    assert [str(f) for f in resumed.faults] == [
        str(f) for f in reference.faults
    ]
    # same netlist up to the name line and topological tie-breaking
    # (the .bench round-trip reorders insertion order)
    assert sorted(dumps_bench(resumed.simplified).splitlines()[1:]) == sorted(
        dumps_bench(reference.simplified).splitlines()[1:]
    )
    assert resumed.final_metrics.rs == reference.final_metrics.rs
    assert any("circuit name" in r.getMessage() for r in records)


def test_resume_rejects_wrong_circuit(adder, tmp_path):
    ckpt = tmp_path / "run.jsonl"
    _run(adder, journal=str(ckpt))
    _truncate_after_iterations(ckpt, 1)
    with pytest.raises(CheckpointError, match="does not match this circuit"):
        resume_from(build_c17(), ckpt)


def test_resume_rejects_mismatched_config(adder, tmp_path):
    ckpt = tmp_path / "run.jsonl"
    _run(adder, journal=str(ckpt))
    _truncate_after_iterations(ckpt, 1)
    other = GreedyConfig(num_vectors=901, seed=4, candidate_limit=60)
    with pytest.raises(CheckpointError, match="config does not match"):
        _run(adder, journal=str(ckpt), config=other)


def _with_header_es_mode(ckpt, es_mode) -> str:
    """Stamp the retired ``es_mode`` on a journal's ``run_start``
    config; returns the new text."""
    lines = ckpt.read_text().splitlines(True)
    header = json.loads(lines[0])
    header["config"]["es_mode"] = es_mode
    lines[0] = json.dumps(header) + "\n"
    ckpt.write_text("".join(lines))
    return "".join(lines)


def test_legacy_atpg_header_resumes_as_hybrid(adder, reference, tmp_path):
    """Journal headers written while ``es_mode`` existed carry
    ``"hybrid"`` or the older ``"atpg"``; both ran the one commit rule
    and resume bit-identically, whether the caller passes the config or
    adopts the header's."""
    if len(reference.iterations) < 2:
        pytest.skip("reference run too short")
    ckpt = tmp_path / "run.jsonl"
    _run(adder, journal=str(ckpt))
    _truncate_after_iterations(ckpt, 1)
    prefix = ckpt.read_text()
    for es_mode in ("hybrid", "atpg"):
        ckpt.write_text(prefix)
        legacy = _with_header_es_mode(ckpt, es_mode)
        _assert_identical(_run(adder, journal=str(ckpt)), reference)
        ckpt.write_text(legacy)
        resumed = resume_from(adder, ckpt)
        assert resumed.config == _CFG
        _assert_identical(resumed, reference)


def test_header_that_skipped_the_atpg_is_refused(adder, tmp_path):
    """A journal of an ``es_mode="simulated"`` run committed without the
    ES-ATPG; no build reproduces it, so resuming it is a checkpoint
    mismatch naming the field, and the journal is left as it was."""
    ckpt = tmp_path / "run.jsonl"
    _run(adder, journal=str(ckpt))
    _truncate_after_iterations(ckpt, 1)
    legacy = _with_header_es_mode(ckpt, "simulated")
    with pytest.raises(CheckpointError, match="es_mode") as exc:
        _run(adder, journal=str(ckpt))
    assert exc.value.code == "checkpoint_mismatch"
    with pytest.raises(CheckpointError, match="es_mode"):
        resume_from(adder, ckpt)
    with pytest.raises(CheckpointError, match="es_mode"):
        circuit_simplify(adder, rs_pct_threshold=6.0, config=None, journal=str(ckpt))
    assert ckpt.read_text() == legacy


def test_resume_rejects_mismatched_threshold(adder, tmp_path):
    ckpt = tmp_path / "run.jsonl"
    _run(adder, journal=str(ckpt))
    _truncate_after_iterations(ckpt, 1)
    with pytest.raises(CheckpointError, match="threshold"):
        circuit_simplify(
            adder, rs_pct_threshold=3.0, config=_CFG, journal=str(ckpt)
        )


def test_replay_rejects_tampered_trajectory(adder, tmp_path):
    ckpt = tmp_path / "run.jsonl"
    _run(adder, journal=str(ckpt))
    _truncate_after_iterations(ckpt, 1)
    lines = ckpt.read_text().splitlines(True)
    events = [json.loads(l) for l in lines]
    for i, ev in enumerate(events):
        if ev["event"] == "iteration":
            ev["area_after"] -= 1  # journal no longer matches the engine
            lines[i] = json.dumps(ev) + "\n"
            break
    ckpt.write_text("".join(lines))
    with pytest.raises(CheckpointError, match="diverged"):
        resume_from(adder, ckpt)


# ----------------------------------------------------------------------
# the real thing: SIGKILL mid-run, then resume
# ----------------------------------------------------------------------
_CHILD = textwrap.dedent(
    """
    import sys
    from repro import GreedyConfig, circuit_simplify
    from repro.benchlib import ISCAS85_SUITE

    ckpt = sys.argv[1]
    circuit = ISCAS85_SUITE["c880"].builder()
    cfg = GreedyConfig(num_vectors=1000, seed=0, candidate_limit=40,
                       max_iterations=6, atpg_node_limit=400)
    circuit_simplify(circuit, rs_pct_threshold=2.0, config=cfg,
                     journal=ckpt)
    """
)


def _iteration_events(path):
    count = 0
    try:
        with open(path) as fh:
            for line in fh:
                try:
                    if json.loads(line).get("event") == "iteration":
                        count += 1
                except ValueError:
                    pass  # torn tail mid-write
    except FileNotFoundError:
        pass
    return count


@pytest.fixture(scope="module")
def c880_killable():
    """The c880 run the SIGKILL tests interrupt, and its uninterrupted
    result."""
    from repro.benchlib import ISCAS85_SUITE

    circuit = ISCAS85_SUITE["c880"].builder()
    cfg = GreedyConfig(
        num_vectors=1000, seed=0, candidate_limit=40,
        max_iterations=6, atpg_node_limit=400,
    )
    reference = circuit_simplify(circuit, rs_pct_threshold=2.0, config=cfg)
    assert len(reference.iterations) >= 2, "need a multi-commit run to kill"
    return circuit, cfg, reference


def _kill_child_after(tmp_path, ckpt, iterations):
    """Run ``_CHILD`` against ``ckpt`` and SIGKILL it once the checkpoint
    holds ``iterations`` iteration events.  Returns whether it was
    killed (a child that finishes first leaves a complete checkpoint,
    which is still a valid resume input)."""
    script = tmp_path / "child.py"
    script.write_text(_CHILD)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p
    )
    child = subprocess.Popen(
        [sys.executable, str(script), str(ckpt)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.time() + 300
        while time.time() < deadline:
            if child.poll() is not None:
                return False
            if _iteration_events(ckpt) >= iterations:
                child.send_signal(signal.SIGKILL)
                child.wait(timeout=30)
                return True
            time.sleep(0.05)
        pytest.fail("child neither progressed nor finished in time")
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=30)


def test_sigkill_and_resume_matches_uninterrupted(tmp_path, c880_killable):
    circuit, cfg, reference = c880_killable
    ckpt = tmp_path / "killed.jsonl"
    killed = _kill_child_after(tmp_path, ckpt, 2)
    resumed = circuit_simplify(
        circuit, rs_pct_threshold=2.0, config=cfg, journal=str(ckpt)
    )
    _assert_identical(resumed, reference)
    state = load_checkpoint(ckpt)
    assert state.complete
    if killed:
        assert state.resumes == 1


def test_sigkill_compiled_run_resumes_with_journaled_engine(tmp_path, c880_killable):
    """A killed run whose checkpoint header still journals the retired
    ``engine`` and ``use_batch_ranking`` settings -- as checkpoints
    written while the simulator or the ranking path was selectable do --
    resumes from the header's config, ignoring both keys, and
    reproduces the uninterrupted run."""
    circuit, cfg, reference = c880_killable
    ckpt = tmp_path / "killed.jsonl"
    _kill_child_after(tmp_path, ckpt, 1)
    lines = ckpt.read_text().splitlines(True)
    header = json.loads(lines[0])
    header["config"]["engine"] = "compiled"
    header["config"]["use_batch_ranking"] = False
    lines[0] = json.dumps(header) + "\n"
    ckpt.write_text("".join(lines))
    resumed = resume_from(circuit, ckpt)
    assert resumed.config == cfg
    _assert_identical(resumed, reference)
    assert load_checkpoint(ckpt).complete
