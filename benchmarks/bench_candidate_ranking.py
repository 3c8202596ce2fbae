"""Candidate-ranking throughput: full-schedule vs cone-restricted batch.

Times the greedy loop's phase-2 scoring -- per-fault (ER, observed-ES)
stats on one shared vector batch -- the seed way (one whole-netlist
simulation per candidate via ``MetricsEstimator.simulate``)
against the new ``BatchFaultSimulator`` path
(``MetricsEstimator.simulate_faults``), on the Table II circuits.  The
fault population is the one phase 2 actually scores: candidates with a
positive previewed area gain, best-first, capped at the greedy
shortlist size.  Both paths must return identical stats; the speedup
row lands in ``bench_results.txt``.
"""

import os
import time

import pytest

from repro.benchlib import ISCAS85_SUITE
from repro.faults import enumerate_faults
from repro.metrics import MetricsEstimator
from repro.simplify import preview_area_reduction

FULL = bool(int(os.environ.get("REPRO_BENCH_FULL", "0")))
NUM_VECTORS = 10_000 if FULL else 2_000
SHORTLIST = 200 if FULL else 96
OLD_ROUNDS = 1
NEW_ROUNDS = 3


def greedy_shortlist(circuit, limit):
    """Replicate the greedy loop's phase-1 proxy pre-ranking."""
    scored = []
    for f in enumerate_faults(circuit):
        try:
            delta = preview_area_reduction(circuit, f)
        except Exception:
            continue
        if delta > 0:
            scored.append((delta, f))
    scored.sort(key=lambda t: -t[0])
    return [f for _delta, f in scored[:limit]]


@pytest.mark.parametrize("name", ["c880", "c1908", "c3540"])
def test_candidate_ranking_speedup(name, benchmark, bench_rows, bench_json):
    circuit = ISCAS85_SUITE[name].builder()
    estimator = MetricsEstimator(circuit, num_vectors=NUM_VECTORS, seed=0)
    faults = greedy_shortlist(circuit, SHORTLIST)

    def run_old():
        return [estimator.simulate(approx=circuit, faults=[f]) for f in faults]

    def run_new():
        return estimator.simulate_faults(faults, approx=circuit)

    # warm both paths (compiles/caches the simulators and cone plans)
    old_stats = run_old()
    new_stats = run_new()
    for (er, observed), st in zip(old_stats, new_stats):
        assert st.error_rate == er
        assert st.max_abs_deviation == observed

    t0 = time.perf_counter()
    for _ in range(OLD_ROUNDS):
        run_old()
    t_old = (time.perf_counter() - t0) / OLD_ROUNDS

    t0 = time.perf_counter()
    for _ in range(NEW_ROUNDS):
        run_new()
    t_new = (time.perf_counter() - t0) / NEW_ROUNDS

    benchmark.pedantic(run_new, rounds=1, iterations=1)
    speedup = t_old / t_new
    bench_rows.append(
        f"RANKING {name:<6} {len(faults)} candidates x {NUM_VECTORS} vectors: "
        f"full={t_old * 1e3:7.1f}ms  batch={t_new * 1e3:7.1f}ms  "
        f"speedup={speedup:.1f}x"
    )
    bench_json["candidate_ranking"].append(
        {
            "circuit": name,
            "candidates": len(faults),
            "num_vectors": NUM_VECTORS,
            "full_profile": FULL,
            "t_full_ms": round(t_old * 1e3, 3),
            "t_batch_ms": round(t_new * 1e3, 3),
            "speedup": round(speedup, 2),
        }
    )
    assert speedup > 1.0


@pytest.mark.parametrize("name", ["c880", "c1908"])
def test_parallel_scaling(name, benchmark, bench_rows, bench_json):
    """Phase-2 scoring through the ScoringPool at 1/2/4 workers.

    Asserts only stat equality with the serial path -- wall-clock
    scaling depends on the runner's core count (CI may pin one core),
    so the speedups are *recorded* in BENCH_parallel_scaling.json for
    trend tracking rather than gated here.
    """
    from repro.obs import Instrumentation
    from repro.parallel import ScoringPool

    circuit = ISCAS85_SUITE[name].builder()
    estimator = MetricsEstimator(circuit, num_vectors=NUM_VECTORS, seed=0)
    faults = greedy_shortlist(circuit, SHORTLIST)

    serial_stats = estimator.simulate_faults(faults, approx=circuit)  # warm
    t0 = time.perf_counter()
    for _ in range(NEW_ROUNDS):
        estimator.simulate_faults(faults, approx=circuit)
    t_serial = (time.perf_counter() - t0) / NEW_ROUNDS

    def key(stats):
        return [
            (st.detected_count, st.max_abs_deviation, st.sum_abs_deviation)
            for st in stats
        ]

    row = {
        "circuit": name,
        "candidates": len(faults),
        "num_vectors": NUM_VECTORS,
        "full_profile": FULL,
        "cpus": os.cpu_count(),
        "t_serial_ms": round(t_serial * 1e3, 3),
    }
    speedups = []
    for workers in (1, 2, 4):
        obs = Instrumentation()
        with ScoringPool(estimator, workers, obs=obs) as pool:
            stats = pool.simulate_faults(faults, approx=circuit)  # warm pool
            assert key(stats) == key(serial_stats)
            t0 = time.perf_counter()
            for _ in range(NEW_ROUNDS):
                pool.simulate_faults(faults, approx=circuit)
            t_par = (time.perf_counter() - t0) / NEW_ROUNDS
        counters = obs.snapshot()["counters"]
        assert counters.get("parallel.shard_fallbacks", 0) == 0
        speedup = t_serial / t_par
        speedups.append(speedup)
        row[f"t_workers{workers}_ms"] = round(t_par * 1e3, 3)
        row[f"speedup_workers{workers}"] = round(speedup, 2)

    benchmark.pedantic(
        lambda: estimator.simulate_faults(faults, approx=circuit),
        rounds=1,
        iterations=1,
    )
    bench_rows.append(
        f"PARALLEL {name:<6} {len(faults)} candidates x {NUM_VECTORS} vectors "
        f"({os.cpu_count()} cpus): serial={t_serial * 1e3:7.1f}ms  "
        + "  ".join(f"w{w}={s:.2f}x" for w, s in zip((1, 2, 4), speedups))
    )
    bench_json["parallel_scaling"].append(row)
