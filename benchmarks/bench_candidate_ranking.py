"""Candidate-ranking throughput: full-schedule vs cone-restricted batch.

Times the greedy loop's phase-2 scoring -- per-fault (ER, observed-ES)
stats on one shared vector batch -- the seed way (one whole-netlist
simulation per candidate via ``MetricsEstimator.simulate``)
against the new ``BatchFaultSimulator`` path
(``MetricsEstimator.simulate_faults``), on the Table II circuits.  The
fault population is the one phase 2 actually scores: candidates with a
positive previewed area gain, best-first, capped at the greedy
shortlist size.  Both paths must return identical stats.  They are
timed over the same number of interleaved rounds, so drift hits both
alike, and each path's time is its median round.  The speedup row
lands in ``bench_results.txt``, with the slabs one batch call replays
(``batchsim.slabs`` per call): the fewer faults a slab holds, the more
the batch path pays per fault.
"""

import os
import statistics
import time

import pytest

from repro.benchlib import ISCAS85_SUITE
from repro.faults import enumerate_faults
from repro.metrics import MetricsEstimator
from repro.obs import Instrumentation
from repro.simplify import preview_area_reduction

FULL = bool(int(os.environ.get("REPRO_BENCH_FULL", "0")))
NUM_VECTORS = 10_000 if FULL else 2_000
SHORTLIST = 200 if FULL else 96
ROUNDS = 5


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
    obs = Instrumentation()
    estimator = MetricsEstimator(circuit, num_vectors=NUM_VECTORS, seed=0, obs=obs)
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

    old_times, new_times = [], []
    slabs = obs.counters.get("batchsim.slabs", 0)
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        run_old()
        old_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        run_new()
        new_times.append(time.perf_counter() - t0)
    slabs = (obs.counters["batchsim.slabs"] - slabs) / ROUNDS
    t_old = statistics.median(old_times)
    t_new = statistics.median(new_times)

    benchmark.pedantic(run_new, rounds=1, iterations=1)
    speedup = t_old / t_new
    bench_rows.append(
        f"RANKING {name:<6} {len(faults)} candidates x {NUM_VECTORS} vectors: "
        f"full={t_old * 1e3:7.1f}ms  batch={t_new * 1e3:7.1f}ms  "
        f"speedup={speedup:.1f}x  slabs/call={slabs:g}"
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
            "slabs_per_call": slabs,
            "rounds": ROUNDS,
        }
    )
    assert speedup > 1.0
