"""One repetition of one workload, in a fresh process.

``python3 child.py REP_DIR T_SPAWN`` reads ``REP_DIR/spec.json``
(written by ``run.py``), builds the workload's inputs, times the call
under test, checks its outputs with the independent oracle and writes
``REP_DIR/result.json``.  ``T_SPAWN`` is the parent's
``time.monotonic()`` just before it started this process, so
``setup_s`` covers interpreter start, imports and input construction.

Every timing is reported as measured (``raw``) and scaled to the
reference machine's seconds by the machine-speed probe
(``calibrate.py``): ``setup_s`` by probe chunks run right after set-up,
the calls under test by the chunks the probe's timer ran during them,
whose time is taken out of the calls'.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import string
import sys
import time
from pathlib import Path

from repro.benchlib import ISCAS85_SUITE
from repro.circuit import Circuit
from repro.circuit.bench import dumps_bench
from repro.core import api
from repro.core.api import SimplifyOutcome, SimplifyRequest
from repro.service import runner

import calibrate
import oracle
import trace

#: ``SimplifyRequest.seed`` of every workload.  The benchmark's own
#: ``--seed`` renames the netlist instead (see README.md: a new vector
#: batch changes how much work a run does by up to a third).
VECTOR_SEED = 0

#: Probe chunks run right after set-up (about 4 ms each).
SETUP_CHUNKS = 20

#: Timings of the calls under test, scaled by the probe's in-call chunks.
CALL_TIMES = ("simplify_s", "simplify_cpu_s", "resume_s")


def name_prefix(seed: int) -> str:
    """The seed's signal-name prefix: six random lowercase letters."""
    rng = random.Random(seed)
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(6)) + "_"


def relabel(circuit: Circuit, prefix: str) -> Circuit:
    """A copy of ``circuit`` with ``prefix`` put before every signal name.

    Declaration order, and the relative order of all names, including
    the ``__const*`` names the simplifier invents, are unchanged, so
    every tie-break and therefore the whole run is too.
    """
    out = Circuit(circuit.name)
    for name in circuit.inputs:
        out.add_input(prefix + name)
    for gate in circuit.gates.values():
        out.add_gate(prefix + gate.name, gate.gtype, [prefix + s for s in gate.inputs])
    data = set(circuit.data_outputs)
    for name in circuit.outputs:
        out.add_output(prefix + name, circuit.output_weights.get(name, 1), name in data)
    return out


def fault_digest(faults, prefix: str) -> str:
    """Digest of a fault sequence with the seed's prefix removed."""

    def canonical(name):
        if name is None:
            return ""
        return name[len(prefix):] if name.startswith(prefix) else name

    h = hashlib.sha256()
    for f in faults:
        line = f.line
        pin = "" if line.pin is None else str(line.pin)
        h.update(f"{canonical(line.signal)}|{canonical(line.gate)}|{pin}|{f.value}\n".encode())
    return h.hexdigest()[:16]


def netlist_key(circuit: Circuit):
    """What two equal netlists share; gate order is not part of it."""
    gates = {name: (g.gtype.value, g.inputs) for name, g in circuit.gates.items()}
    return circuit.inputs, circuit.outputs, gates, dict(circuit.output_weights)


def crash_mid_greedy(checkpoint: Path) -> None:
    """Cut the checkpoint after half of its greedy-phase iterations, as a
    runner killed at that point would leave it."""
    lines = checkpoint.read_text(encoding="utf-8").splitlines(keepends=True)
    greedy = []
    for i, line in enumerate(lines):
        event = json.loads(line)
        if event.get("event") == "iteration" and event.get("phase") == "greedy":
            greedy.append(i)
    if len(greedy) < 2:
        raise RuntimeError(f"{checkpoint}: {len(greedy)} greedy iterations, nothing to cut")
    keep = greedy[len(greedy) // 2 - 1] + 1
    checkpoint.write_text("".join(lines[:keep]), encoding="utf-8")


def timed(call, tracer, run_id, probe):
    """``(result, wall seconds, cpu seconds)`` of one call under test,
    with ``probe`` sampling the machine's speed during it; the time its
    chunks took is not the call's."""
    if tracer is not None:
        tracer.run_id = run_id
    first = len(probe.in_call)
    with probe:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        result = call()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        spent = sum(probe.in_call[first:])
    return result, wall - spent, cpu - spent


def run_rep(spec: dict, rep_dir: Path, t_spawn: float) -> dict:
    prefix = name_prefix(spec["seed"])
    circuit = relabel(ISCAS85_SUITE[spec["circuit"]].builder(), prefix)
    service = spec["service"]
    request = SimplifyRequest(
        rs_pct_threshold=spec["rs_pct"],
        fom="area_per_rs",
        num_vectors=spec["vectors"],
        seed=VECTOR_SEED,
        redundancy_prepass=True,
        weights="unit" if service else "netlist",
        workers=1,
    )
    if service:
        job_dir = rep_dir / "job"
        job_dir.mkdir()
        (job_dir / "netlist.bench").write_text(dumps_bench(circuit), encoding="utf-8")
        (job_dir / "request.json").write_text(request.to_json(), encoding="utf-8")
    raw = {"setup_s": time.monotonic() - t_spawn}
    result = {"raw": raw}

    probe = calibrate.Probe()
    probe.chunk()  # warm-up
    result["setup_speed"] = calibrate.speed(probe.run(SETUP_CHUNKS))
    tracer = trace.Tracer() if spec["trace"] else None
    failures = []
    if tracer is not None:
        tracer.install()
    try:
        if service:
            first, wall, cpu = timed(lambda: runner.run_job(str(job_dir)), tracer, "run", probe)
        else:
            first, wall, cpu = timed(
                lambda: api.simplify(circuit, request), tracer, "simplify", probe
            )
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        outcome = first
        digest = fault_digest(first.faults, prefix)
        if service:
            outcome = SimplifyOutcome.from_json(
                (job_dir / "outcome.json").read_text(encoding="utf-8")
            )
            if (
                fault_digest(outcome.faults, prefix) != digest
                or outcome.final_metrics != first.final_metrics
                or netlist_key(outcome.simplified) != netlist_key(first.simplified)
            ):
                failures.append("round_trip")
            crash_mid_greedy(job_dir / "checkpoint.jsonl")
            (job_dir / "outcome.json").unlink()
            resumed, raw["resume_s"], _ = timed(
                lambda: runner.run_job(str(job_dir)), tracer, "resume", probe
            )
            if fault_digest(resumed.faults, prefix) != digest:
                failures.append("resume_identical")
    finally:
        if tracer is not None:
            tracer.uninstall()
    raw["simplify_s"] = wall
    raw["simplify_cpu_s"] = cpu
    # A call shorter than the timer's interval (only with a reduced
    # --vectors) ran no chunk; the set-up chunks are the nearest then.
    result["speed"] = (calibrate.speed(probe.in_call) if probe.in_call
                       else result["setup_speed"])
    result["setup_s"] = raw["setup_s"] * result["setup_speed"]
    for name in CALL_TIMES:
        if name in raw:
            result[name] = raw[name] * result["speed"]
    result["area_reduction_pct"] = outcome.area_reduction_pct
    result["digest"] = digest

    # The service sees a .bench file: every output is data, weight 1.
    if service:
        positions = list(range(len(circuit.outputs)))
        weights = [1] * len(positions)
    else:
        value_outputs = circuit.data_outputs or list(circuit.outputs)
        positions = [circuit.outputs.index(o) for o in value_outputs]
        weights = [circuit.output_weights.get(o, 1) for o in value_outputs]
    failures += oracle.check(
        circuit,
        outcome.simplified,
        outcome.final_metrics,
        outcome.area_reduction_pct,
        threshold=spec["rs_pct"] * sum(weights) / 100.0,
        vectors=oracle.vector_batch(len(circuit.inputs), spec["vectors"], VECTOR_SEED),
        value_positions=positions,
        weights=weights,
    )
    if tracer is not None:
        if trace.surviving_wrappers():
            failures.append("wrapper_survived")
        result["layers"] = tracer.layer_metrics()
        tracer.write_chrome_trace(spec["trace_path"])
    result["failures"] = failures
    return result


def main(argv) -> int:
    rep_dir, t_spawn = Path(argv[1]), float(argv[2])
    spec = json.loads((rep_dir / "spec.json").read_text(encoding="utf-8"))
    result = run_rep(spec, rep_dir, t_spawn)
    (rep_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
