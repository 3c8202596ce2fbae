"""Profiling view over a run journal: ``repro report <journal.jsonl>``.

Renders three sections from the JSONL event stream of one run:

* **phase-time breakdown** -- the hierarchical span timers from the
  summary snapshot, one row per span path with total/share/count/mean.
  For interrupted runs (no summary event) the per-iteration
  ``phase_times`` are aggregated instead, so a readable journal prefix
  still profiles;
* **iteration table** -- fault, area trajectory, ER/ES/RS and deltas
  per committed step;
* **top-k hotspot counters** -- the largest monotonic counters
  (vectors simulated, cache hits/misses, ATPG backtracks, ...),
  followed by the pinned ``quality.*`` budget-risk/zero-pattern
  counters and the derived cache hit-rates (never crowded out of the
  top-k window by bigger raw counts).

``report_as_dict`` is the machine-readable twin (``repro report
--format json``); :func:`collect_timers` / :func:`collect_counters`
are the shared aggregation layer that ``repro compare`` reuses, so the
two commands can never disagree about what a journal contains.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .journal import JournalError, load_journal

__all__ = [
    "render_report",
    "report_from_file",
    "report_as_dict",
    "render_snapshot",
    "collect_timers",
    "collect_counters",
    "collect_gauges",
    "derived_counter_rows",
]


# ----------------------------------------------------------------------
# shared aggregation (report + compare)
# ----------------------------------------------------------------------
def collect_timers(events: Sequence[Dict]) -> Dict[str, Tuple[float, int]]:
    """Span path -> (total seconds, call count) for one event stream.

    Prefers the summary snapshot; interrupted runs (readable prefix,
    no summary) re-aggregate the per-iteration ``phase_times``.
    """
    summary = next((e for e in events if e.get("event") == "summary"), None)
    if summary is not None and summary.get("timers"):
        return {
            path: (float(stat["total_s"]), int(stat["count"]))
            for path, stat in summary["timers"].items()
        }
    timers: Dict[str, Tuple[float, int]] = {}
    for ev in events:
        if ev.get("event") != "iteration":
            continue
        for phase, secs in (ev.get("phase_times") or {}).items():
            total, count = timers.get(phase, (0.0, 0))
            timers[phase] = (total + secs, count + 1)
    return timers


def collect_counters(events: Sequence[Dict]) -> Dict[str, int]:
    """Counter name -> value for one event stream (summary snapshot,
    falling back to summed per-iteration deltas for interrupted runs)."""
    summary = next((e for e in events if e.get("event") == "summary"), None)
    if summary is not None and summary.get("counters"):
        return dict(summary["counters"])
    counters: Dict[str, int] = {}
    for ev in events:
        if ev.get("event") != "iteration":
            continue
        for name, n in (ev.get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + n
    return counters


def collect_gauges(events: Sequence[Dict]) -> Dict[str, float]:
    """Gauge name -> last value for one event stream.

    Prefers the summary snapshot's gauges; interrupted runs fall back
    to the last coordinator ``telemetry`` sample's rate gauges (the
    only gauges the event stream itself carries), so a dead run still
    reports its final throughput readings.
    """
    summary = next((e for e in events if e.get("event") == "summary"), None)
    if summary is not None and summary.get("gauges"):
        return dict(summary["gauges"])
    gauges: Dict[str, float] = {}
    for ev in events:
        if ev.get("event") != "telemetry" or ev.get("lane") != "coordinator":
            continue
        gauges["telemetry.rss_bytes"] = ev.get("rss_bytes", 0)
        gauges["telemetry.rss_peak_bytes"] = max(
            gauges.get("telemetry.rss_peak_bytes", 0), ev.get("rss_bytes", 0)
        )
        gauges["telemetry.cpu_s"] = ev.get("cpu_s", 0.0)
        for name, rate in (ev.get("gauges") or {}).items():
            gauges[f"telemetry.{name}"] = rate
    return gauges


#: (hit counter, miss counter) pairs rendered as derived hit-rates.
_CACHE_PAIRS = (
    ("estimator.batchsim_cache_hits", "estimator.batchsim_cache_misses"),
    ("estimator.sim_cache_hits", "estimator.sim_cache_misses"),
    ("greedy.preview_memo_hits", "greedy.preview_memo_misses"),
    ("compile.cache_hits", "compile.cache_misses"),
)


def derived_counter_rows(counters: Dict[str, int]) -> List[Tuple[str, str]]:
    """Derived (name, rendered value) rows: cache hit-rates."""
    rows: List[Tuple[str, str]] = []
    for hits_key, misses_key in _CACHE_PAIRS:
        hits = counters.get(hits_key, 0)
        misses = counters.get(misses_key, 0)
        total = hits + misses
        if total:
            name = hits_key.rsplit("_hits", 1)[0] + "_hit_rate"
            rows.append((name, f"{100.0 * hits / total:5.1f}%  ({hits}/{total})"))
    return rows


def _counter_table(
    counters: Dict[str, int], top_k: int
) -> List[Tuple[str, int]]:
    """Top-k counters by magnitude, with every ``quality.*`` counter
    pinned into the table regardless of rank (a nonzero budget-risk or
    zero-pattern count must never be crowded out by bigger raw
    numbers)."""
    ranked = sorted(counters.items(), key=lambda kv: -abs(kv[1]))
    table = ranked[:top_k]
    shown = {name for name, _n in table}
    for name, n in ranked[top_k:]:
        if name.startswith("quality.") and name not in shown:
            table.append((name, n))
    return table


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def render_snapshot(snapshot: Dict, top_k: int = 12) -> str:
    """Render phase times + counters straight from an
    :meth:`~repro.obs.core.Instrumentation.snapshot` (the ``--profile``
    view, no journal needed)."""
    pseudo_summary = {
        "event": "summary",
        "timers": snapshot.get("timers", {}),
        "counters": snapshot.get("counters", {}),
    }
    lines = _render_phase_times(collect_timers([pseudo_summary]))
    lines.append("")
    lines.extend(_render_counters(collect_counters([pseudo_summary]), top_k))
    return "\n".join(lines)


def report_from_file(
    path: Union[str, os.PathLike], top_k: int = 12
) -> str:
    """Load a journal file and render the profiling report.

    Loads tolerantly (``skip_unknown``): event types newer than this
    build degrade to "not shown" instead of erroring.
    """
    events = load_journal(path, skip_unknown=True)
    if not events:
        raise JournalError(f"{path}: empty journal")
    return render_report(events, top_k=top_k)


def render_report(events: Sequence[Dict], top_k: int = 12) -> str:
    """Render the report from already-parsed journal events."""
    header = next((e for e in events if e.get("event") == "run_start"), None)
    iterations = [e for e in events if e.get("event") == "iteration"]
    summary = next((e for e in events if e.get("event") == "summary"), None)

    out: List[str] = []
    out.extend(_render_header(header, iterations, summary))
    out.append("")
    out.extend(_render_phase_times(collect_timers(events)))
    out.append("")
    out.extend(_render_iterations(iterations))
    out.append("")
    out.extend(_render_counters(collect_counters(events), top_k))
    gauges = collect_gauges(events)
    if gauges:
        out.append("")
        out.extend(_render_gauges(gauges))
    return "\n".join(out)


def report_as_dict(events: Sequence[Dict], top_k: int = 12) -> Dict:
    """Machine-readable report (``repro report --format json``).

    Mirrors the text sections: run header/status, phase times (with
    share against the top-level basis), the iteration table, the top-k
    counter table with the pinned ``quality.*`` rows, and the derived
    cache hit-rates as exact ``hits``/``total`` integers.
    """
    header = next((e for e in events if e.get("event") == "run_start"), None)
    iterations = [e for e in events if e.get("event") == "iteration"]
    summary = next((e for e in events if e.get("event") == "summary"), None)
    timers = collect_timers(events)
    counters = collect_counters(events)
    basis = _share_basis(timers)

    derived = {}
    for hits_key, misses_key in _CACHE_PAIRS:
        hits = counters.get(hits_key, 0)
        total = hits + counters.get(misses_key, 0)
        if total:
            name = hits_key.rsplit("_hits", 1)[0] + "_hit_rate"
            derived[name] = {
                "hits": hits,
                "total": total,
                "rate": hits / total,
            }

    return {
        "run": {
            "circuit": header.get("circuit") if header else None,
            "status": "complete" if summary is not None else "interrupted",
            "rs_threshold": header.get("rs_threshold") if header else None,
            "seed": header.get("seed") if header else None,
            "num_vectors": header.get("num_vectors") if header else None,
            "iterations": len(iterations),
            "faults_injected": (
                summary.get("faults_injected") if summary else len(iterations)
            ),
            "area_reduction_pct": (
                summary.get("area_reduction_pct") if summary else None
            ),
            "elapsed_s": summary.get("elapsed_s") if summary else None,
        },
        "phase_times": [
            {
                "path": path,
                "total_s": total,
                "share": total / basis,
                "count": count,
                "mean_s": total / count if count else 0.0,
            }
            for path, (total, count) in sorted(
                timers.items(), key=lambda kv: -kv[1][0]
            )
        ],
        "iterations": [
            {
                "index": ev["index"],
                "phase": ev["phase"],
                "fault": ev["fault"],
                "area_before": ev["area_before"],
                "area_after": ev["area_after"],
                "er": ev["er"],
                "es": ev["es"],
                "rs": ev["rs"],
                "delta_rs": ev["delta_rs"],
                "fom": ev.get("fom"),
                "candidates_evaluated": ev["candidates_evaluated"],
            }
            for ev in iterations
        ],
        "counters": dict(_counter_table(counters, top_k)),
        "gauges": collect_gauges(events),
        "derived": derived,
    }


# ----------------------------------------------------------------------
def _render_header(
    header: Optional[Dict], iterations: List[Dict], summary: Optional[Dict]
) -> List[str]:
    lines = ["=== run ==="]
    if header is not None:
        lines.append(
            f"circuit: {header['circuit']} "
            f"({header['num_inputs']} inputs, {header['num_outputs']} outputs, "
            f"area {header['area']})"
        )
        pct = (
            100.0 * header["rs_threshold"] / header["rs_max"]
            if header.get("rs_max")
            else 0.0
        )
        lines.append(
            f"RS threshold: {header['rs_threshold']:.6g} "
            f"({pct:.4g}% of RS_max {header['rs_max']:.6g})"
        )
        lines.append(
            f"vectors: {header['num_vectors']}  seed: {header['seed']}"
        )
    else:
        lines.append("(no run_start header -- journal prefix starts mid-run)")
    if summary is not None:
        status = (
            f"status: complete -- {summary['faults_injected']} faults, "
            f"area {summary['area_before']} -> {summary['area_after']} "
            f"({summary['area_reduction_pct']:.2f}%)"
        )
        if summary.get("elapsed_s") is not None:
            status += f", {summary['elapsed_s']:.2f}s"
        lines.append(status)
    else:
        lines.append(
            f"status: INTERRUPTED -- readable prefix holds "
            f"{len(iterations)} iteration(s)"
        )
    return lines


def _share_basis(timers: Dict[str, Tuple[float, int]]) -> float:
    # Top-level spans partition the run; their sum is the 100% basis.
    top_total = sum(t for path, (t, _c) in timers.items() if "/" not in path)
    return top_total or sum(t for t, _c in timers.values()) or 1.0


def _render_phase_times(timers: Dict[str, Tuple[float, int]]) -> List[str]:
    lines = ["=== phase times ==="]
    if not timers:
        lines.append("(no timing data recorded)")
        return lines
    basis = _share_basis(timers)
    width = max(len(p) for p in timers)
    lines.append(f"{'phase':<{width}}  {'total':>9}  {'share':>6}  {'calls':>8}  {'mean':>9}")
    for path, (total, count) in sorted(timers.items(), key=lambda kv: -kv[1][0]):
        mean = total / count if count else 0.0
        lines.append(
            f"{path:<{width}}  {_fmt_s(total):>9}  {100 * total / basis:5.1f}%  "
            f"{count:>8}  {_fmt_s(mean):>9}"
        )
    return lines


def _render_iterations(iterations: List[Dict]) -> List[str]:
    lines = ["=== iterations ==="]
    if not iterations:
        lines.append("(no committed iterations)")
        return lines
    fault_w = max(5, max(len(str(ev["fault"])) for ev in iterations))
    lines.append(
        f"{'#':>3} {'ph':<3} {'fault':<{fault_w}} {'area':>5} {'-d':>4} "
        f"{'ER':>8} {'ES':>10} {'RS':>10} {'dRS':>10} {'cands':>5}"
    )
    for ev in iterations:
        delta = ev["area_before"] - ev["area_after"]
        lines.append(
            f"{ev['index']:>3} {ev['phase'][:3]:<3} {str(ev['fault']):<{fault_w}} "
            f"{ev['area_after']:>5} {delta:>4} "
            f"{ev['er']:>8.4f} {ev['es']:>10.4g} {ev['rs']:>10.4g} "
            f"{ev['delta_rs']:>+10.3g} {ev['candidates_evaluated']:>5}"
        )
    return lines


def _render_counters(counters: Dict[str, int], top_k: int) -> List[str]:
    lines = [f"=== top counters (k={top_k}) ==="]
    if not counters:
        lines.append("(no counters recorded)")
        return lines
    table = _counter_table(counters, top_k)
    derived = derived_counter_rows(counters)
    width = max(
        max(len(n) for n, _ in table),
        max((len(n) for n, _ in derived), default=0),
    )
    for name, n in table:
        lines.append(f"{name:<{width}}  {n:>14,}")
    for name, text in derived:
        lines.append(f"{name:<{width}}  {text}")
    return lines


def _render_gauges(gauges: Dict[str, float]) -> List[str]:
    lines = ["=== gauges ==="]
    width = max(len(n) for n in gauges)
    for name in sorted(gauges):
        value = gauges[name]
        if isinstance(value, float) and value != int(value):
            lines.append(f"{name:<{width}}  {value:>14,.3f}")
        else:
            lines.append(f"{name:<{width}}  {int(value):>14,}")
    return lines


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.0f}us"
