"""End-to-end benchmark of ``simplify``: a netlist and an RS budget in,
an approximate netlist out, timed from outside the program.

Run it from the repository root::

    python3 benchmarks/e2e/run.py --seed 0 [--trace] [--out results.json]
    python3 benchmarks/e2e/run.py --workload c880_commit --seed 3 --seconds 30 --trace 0

A closed loop with one client: each repetition is a fresh child process
(``child.py``), run serially with one BLAS thread, and the next starts
when it ends.  Workloads take turns, so drift hits all of them alike;
each gets ``--seconds`` of repetitions.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of
the traced ones.  Timings are scaled to the reference machine's speed
by a probe that runs in each child (``calibrate.py``); the raw timings
and the machine speeds are printed and kept by ``--out`` as well.
Every metric is printed by name with its unit; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
``BENCHMARK.json``, or its per-layer metrics with ``--trace 1``).
See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / "_work"

VECTORS = 10_000

WORKLOADS = {
    "c880_commit": {"circuit": "c880", "rs_pct": 1.0, "service": False},
    "c5315_rank": {"circuit": "c5315", "rs_pct": 1.0, "service": False},
    "c7552_prepass": {"circuit": "c7552", "rs_pct": 1e-7, "service": False},
    "c880_service": {"circuit": "c880", "rs_pct": 2.0, "service": True},
}

#: Measured on ``c880_service`` only, so it is not one of BENCHMARK.json's
#: end-to-end metrics, which every workload must report.
RESUME_S = {"name": "resume_s", "unit": "s", "better": "lower", "bound": 0.25}

CHILD_TIMEOUT_S = 150


class HarnessError(RuntimeError):
    """The benchmark could not run a repetition at all."""


def run_child(name: str, seed: int, traced: bool, vectors: int, index: int) -> dict:
    rep_dir = WORK / f"rep-{os.getpid()}-{index}"
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    spec = dict(WORKLOADS[name], seed=seed, trace=traced, vectors=vectors,
                trace_path=str(WORK / f"trace-{name}.json"))
    (rep_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # The ISCAS85-like generators iterate a set of signal names, so the
    # netlist they build depends on the hash seed: pin it.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(rep_dir), repr(time.monotonic())],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise HarnessError(
                f"{name} repetition exited {proc.returncode}:\n{proc.stderr[-2000:]}"
            )
        return json.loads((rep_dir / "result.json").read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{name} repetition exceeded {CHILD_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)


def run_workloads(names, seed: int, seconds: float, trace: bool, vectors: int) -> dict:
    """Round-robin repetitions until each workload has used its seconds.

    A workload stops once its next repetition, as long as its longest
    so far, would overrun; it always gets one (with ``trace``, one
    untraced and one traced).
    """
    reps = {name: [] for name in names}
    spent = dict.fromkeys(names, 0.0)
    longest = dict.fromkeys(names, 0.0)
    minimum = 2 if trace else 1
    active = list(names)
    index = 0
    while active:
        for name in list(active):
            done = reps[name]
            if len(done) >= minimum and spent[name] + longest[name] > seconds:
                active.remove(name)
                continue
            traced = trace and len(done) % 2 == 1
            t0 = time.monotonic()
            rep = run_child(name, seed, traced, vectors, index)
            index += 1
            rep["traced"] = traced
            done.append(rep)
            elapsed = time.monotonic() - t0
            spent[name] += elapsed
            longest[name] = max(longest[name], elapsed)
    return reps


def summarize(samples, unit: str) -> dict:
    """Median, quartiles and count of one metric's samples."""
    median = statistics.median(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else (median,) * 3
    return {"value": median, "unit": unit, "n": len(samples), "q1": q1, "q3": q3,
            "samples": samples}


def check_digests(name: str, reps, golden: dict, vectors: int) -> None:
    """Add the cross-repetition checks to each repetition's failures."""
    for rep in reps:
        if rep["digest"] != reps[0]["digest"]:
            rep["failures"].append("digest_stable")
        if vectors == VECTORS and rep["digest"] != golden.get(name):
            rep["failures"].append("golden")


def aggregate(name: str, reps, defs: dict) -> dict:
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    metrics = {}
    for metric in defs["end_to_end"]:
        metrics[metric["name"]] = summarize([r[metric["name"]] for r in plain], metric["unit"])
    if WORKLOADS[name]["service"]:
        metrics["resume_s"] = summarize([r["resume_s"] for r in plain], RESUME_S["unit"])
    raw = {metric: summarize([r["raw"][metric] for r in plain], "s") for metric in plain[0]["raw"]}
    speed = {key: summarize([r[key] for r in plain], "ratio") for key in ("setup_speed", "speed")}
    layers = {}
    if traced:
        for metric, first in traced[0]["layers"].items():
            layers[metric] = {
                "value": statistics.median(r["layers"][metric]["value"] for r in traced),
                "unit": first["unit"],
            }
        overhead = (
            statistics.median(r["simplify_s"] for r in traced)
            / statistics.median(r["simplify_s"] for r in plain) - 1.0
        )
        layers["trace_overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
    return {
        "metrics": metrics,
        "raw": raw,
        "speed": speed,
        "per_layer": layers,
        "digest": reps[0]["digest"],
        "failures": sorted({f for r in reps for f in r["failures"]}),
        "attempted": len(reps),
        "failed": sum(1 for r in reps if r["failures"]),
    }


def print_report(results: dict) -> None:
    for name, res in results.items():
        rows = list(res["metrics"].items())
        rows += [(f"{metric} (raw)", m) for metric, m in res["raw"].items()]
        rows += list(res["speed"].items())
        for metric, m in rows:
            print(f"{name:14s} {metric:20s} {m['value']:12.6g} {m['unit']:6s} "
                  f"median of {m['n']} (q1 {m['q1']:.6g}, q3 {m['q3']:.6g})")
        for metric, m in res["per_layer"].items():
            print(f"{name:14s} {metric:52s} {m['value']:12.6g} {m['unit']}")
        print(f"{name:14s} digest {res['digest']}  failed {res['failed']} of "
              f"{res['attempted']} {' '.join(res['failures'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (0 for development, 1 held out)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="seconds of repetitions per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--vectors", type=int, default=VECTORS,
                        help="vector batch size (smaller only for harness self-tests)")
    parser.add_argument("--out", help="write every sample and metric to this JSON file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: {ROOT} has no src/repro; run from a repository checkout",
              file=sys.stderr)
        return 2
    defs = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    names = args.workload or list(WORKLOADS)
    try:
        reps = run_workloads(names, args.seed, args.seconds, bool(args.trace), args.vectors)
    except HarnessError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    results = {}
    for name in names:
        check_digests(name, reps[name], golden, args.vectors)
        results[name] = aggregate(name, reps[name], defs)
    print_report(results)

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.out:
        Path(args.out).write_text(json.dumps({
            "seed": args.seed, "trace": args.trace, "vectors": args.vectors,
            "workloads": results, "attempted": attempted, "failed": failed,
        }, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    declared = defs["per_layer"] if args.trace else defs["end_to_end"]
    metrics = {}
    for name in names:
        source = results[name]["per_layer"] if args.trace else results[name]["metrics"]
        for metric in declared:
            key = metric["name"] if len(names) == 1 else f"{name}.{metric['name']}"
            metrics[key] = {"value": source[metric["name"]]["value"], "unit": metric["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
