"""Where a run's time went, read from its journal: ``repro report``.

Renders four sections from the JSONL event stream of one run:

* **phase times** -- one row per span path: total (inclusive) time,
  self time (the total minus its direct children's totals, clamped at
  zero), share of the summed top-level spans, and calls.  Rows rank by
  self time, which is where optimization effort lands.  An attribution
  line then compares the summed top-level spans with the summary's
  wall-clock ``elapsed_s`` and warns below
  :data:`ATTRIBUTION_TARGET_PCT`: unattributed time is time no span
  explains.  A run killed before its summary has no wall-clock total,
  so its attribution is unknown; its per-iteration ``phase_times`` are
  aggregated into the ``greedy/candidates``, ``greedy/rank`` and
  ``greedy/commit`` rows a summary would hold (prepass time is not
  journaled per iteration);
* **iteration table** -- fault, area trajectory, ER/ES/RS and deltas
  per committed step;
* **top-k hotspot counters** -- the largest monotonic counters
  (vectors simulated, cache hits/misses, ATPG backtracks, ...),
  followed by the pinned ``quality.*`` budget-risk/zero-pattern
  counters and the derived cache hit-rates (never crowded out of the
  top-k window by bigger raw counts);
* **gauges** -- the summary's high-watermarks.

:func:`report_as_dict` builds the one payload behind both renderings:
``repro report --format json`` prints it and :func:`render_report`
renders it as text, so the two cannot disagree.  :func:`collect_timers`
/ :func:`collect_counters` / :func:`collect_gauges` are the shared
aggregation layer that ``repro compare`` reuses, so no two commands
disagree about what a journal contains.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .journal import JournalError, load_journal

__all__ = [
    "ATTRIBUTION_TARGET_PCT",
    "render_report",
    "report_from_file",
    "report_as_dict",
    "collect_timers",
    "collect_counters",
    "collect_gauges",
    "derived_counter_rows",
]

#: Share of the run's wall-clock time the top-level spans must explain
#: before the report stops flagging unattributed time.
ATTRIBUTION_TARGET_PCT = 90.0


# ----------------------------------------------------------------------
# shared aggregation (report + compare)
# ----------------------------------------------------------------------
def collect_timers(events: Sequence[Dict]) -> Dict[str, Tuple[float, int]]:
    """Span path -> (total seconds, call count) for one event stream.

    Prefers the summary snapshot; interrupted runs (readable prefix,
    no summary) re-aggregate the per-iteration ``phase_times``, which
    are the greedy span's children, under the ``greedy/<phase>`` paths
    a summary would hold them.
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
            path = f"greedy/{phase}"
            total, count = timers.get(path, (0.0, 0))
            timers[path] = (total + secs, count + 1)
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
    """Gauge name -> value for one event stream: the summary snapshot's
    gauges (an interrupted run, with no summary, has none)."""
    summary = next((e for e in events if e.get("event") == "summary"), None)
    return dict((summary or {}).get("gauges") or {})


#: (hit counter, miss counter) pairs rendered as derived hit-rates.
_CACHE_PAIRS = (
    ("greedy.preview_memo_hits", "greedy.preview_memo_misses"),
    ("compile.cache_hits", "compile.cache_misses"),
)


def _hit_rates(counters: Dict[str, int]) -> Dict[str, Dict]:
    """Derived cache hit-rates: name -> exact ``hits``/``total`` and the
    ``rate``; a pair with no lookups has no entry."""
    rates: Dict[str, Dict] = {}
    for hits_key, misses_key in _CACHE_PAIRS:
        hits = counters.get(hits_key, 0)
        total = hits + counters.get(misses_key, 0)
        if total:
            name = hits_key.rsplit("_hits", 1)[0] + "_hit_rate"
            rates[name] = {"hits": hits, "total": total, "rate": hits / total}
    return rates


def _fmt_rate(rate: Dict) -> str:
    hits, total = rate["hits"], rate["total"]
    return f"{100.0 * hits / total:5.1f}%  ({hits}/{total})"


def derived_counter_rows(counters: Dict[str, int]) -> List[Tuple[str, str]]:
    """Derived (name, rendered value) rows: cache hit-rates."""
    return [(name, _fmt_rate(rate)) for name, rate in _hit_rates(counters).items()]


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
def report_from_file(
    path: Union[str, os.PathLike], top_k: int = 12
) -> str:
    """Load a journal file and render the text report.

    Loads tolerantly (``skip_unknown``): event types newer than this
    build degrade to "not shown" instead of erroring.
    """
    events = load_journal(path, skip_unknown=True)
    if not events:
        raise JournalError(f"{path}: empty journal")
    return render_report(events, top_k=top_k)


def render_report(events: Sequence[Dict], top_k: int = 12) -> str:
    """Render the text report of already-parsed journal events."""
    report = report_as_dict(events, top_k=top_k)
    out: List[str] = []
    out.extend(_render_header(report["run"]))
    out.append("")
    out.extend(_render_phase_times(report["phase_times"]))
    out.extend(
        _render_attribution(report["attribution"], report["run"]["elapsed_s"])
    )
    out.append("")
    out.extend(_render_iterations(report["iterations"]))
    out.append("")
    out.extend(_render_counters(report["counters"], report["derived"], top_k))
    if report["gauges"]:
        out.append("")
        out.extend(_render_gauges(report["gauges"]))
    return "\n".join(out)


def report_as_dict(events: Sequence[Dict], top_k: int = 12) -> Dict:
    """The report payload (``repro report --format json``).

    Run header/status, phase times (total, self, share of the top-level
    basis, calls; ranked by self time), the attribution of wall-clock
    time to top-level spans, the iteration table (``delta_rs`` is a
    row's RS minus the previous row's), the top-k counter
    table with the pinned ``quality.*`` rows, the derived cache
    hit-rates as exact ``hits``/``total`` integers, and the gauges.
    """
    header = next((e for e in events if e.get("event") == "run_start"), None)
    iterations = [e for e in events if e.get("event") == "iteration"]
    rs_before = [0.0] + [e["rs"] for e in iterations]
    summary = next((e for e in events if e.get("event") == "summary"), None)
    h = header or {}
    s = summary or {}
    timers = collect_timers(events)
    counters = collect_counters(events)
    phase_times, attributed = _phase_rows(timers)
    elapsed = s.get("elapsed_s")
    # Without a wall-clock total (no summary) attribution is unknown.
    pct = 100.0 * attributed / elapsed if elapsed else None

    return {
        "run": {
            "circuit": h.get("circuit"),
            "status": "complete" if summary is not None else "interrupted",
            "num_inputs": h.get("num_inputs"),
            "num_outputs": h.get("num_outputs"),
            "area": h.get("area"),
            "rs_threshold": h.get("rs_threshold"),
            "rs_max": h.get("rs_max"),
            "seed": h.get("seed"),
            "num_vectors": h.get("num_vectors"),
            "iterations": len(iterations),
            "faults_injected": s.get("faults_injected", len(iterations)),
            "area_before": s.get("area_before"),
            "area_after": s.get("area_after"),
            "area_reduction_pct": s.get("area_reduction_pct"),
            "elapsed_s": elapsed,
        },
        "phase_times": phase_times,
        "attribution": {
            "attributed_s": attributed,
            "unattributed_s": max(elapsed - attributed, 0.0) if elapsed else None,
            "attributed_pct": pct,
            "target_pct": ATTRIBUTION_TARGET_PCT,
            "flagged": pct is None or pct < ATTRIBUTION_TARGET_PCT,
        },
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
                "delta_rs": ev["rs"] - prev_rs,
                "fom": ev.get("fom"),
                "candidates_evaluated": ev["candidates_evaluated"],
            }
            for ev, prev_rs in zip(iterations, rs_before)
        ],
        "counters": dict(_counter_table(counters, top_k)),
        "gauges": collect_gauges(events),
        "derived": _hit_rates(counters),
    }


def _phase_rows(timers: Dict[str, Tuple[float, int]]) -> Tuple[List[Dict], float]:
    """Phase-time rows ranked by self time, and their share basis.

    Top-level spans partition the run, so their summed totals are the
    100% basis (all rows when none is top-level, as in an interrupted
    run's per-iteration fallback).  Self time subtracts the direct
    children only; timer noise can make children overrun a parent, so
    it is clamped at zero.
    """
    children: Dict[str, float] = {}
    for path, (total, _count) in timers.items():
        if "/" in path:
            parent = path.rsplit("/", 1)[0]
            children[parent] = children.get(parent, 0.0) + total
    basis = sum(t for path, (t, _c) in timers.items() if "/" not in path)
    basis = basis or sum(t for t, _c in timers.values())
    rows = [
        {
            "path": path,
            "total_s": total,
            "self_s": max(total - children.get(path, 0.0), 0.0),
            "share": total / basis if basis else 0.0,
            "count": count,
            "mean_s": total / count if count else 0.0,
        }
        for path, (total, count) in timers.items()
    ]
    rows.sort(key=lambda r: (-r["self_s"], r["path"]))
    return rows, basis


# ----------------------------------------------------------------------
def _render_header(run: Dict) -> List[str]:
    lines = ["=== run ==="]
    if run["circuit"] is not None:
        lines.append(
            f"circuit: {run['circuit']} "
            f"({run['num_inputs']} inputs, {run['num_outputs']} outputs, "
            f"area {run['area']})"
        )
        pct = (
            100.0 * run["rs_threshold"] / run["rs_max"] if run["rs_max"] else 0.0
        )
        lines.append(
            f"RS threshold: {run['rs_threshold']:.6g} "
            f"({pct:.4g}% of RS_max {run['rs_max']:.6g})"
        )
        lines.append(f"vectors: {run['num_vectors']}  seed: {run['seed']}")
    else:
        lines.append("(no run_start header -- journal prefix starts mid-run)")
    if run["status"] == "complete":
        status = (
            f"status: complete -- {run['faults_injected']} faults, "
            f"area {run['area_before']} -> {run['area_after']} "
            f"({run['area_reduction_pct']:.2f}%)"
        )
        if run["elapsed_s"] is not None:
            status += f", {run['elapsed_s']:.2f}s"
        lines.append(status)
    else:
        lines.append(
            f"status: INTERRUPTED -- readable prefix holds "
            f"{run['iterations']} iteration(s)"
        )
    return lines


def _render_phase_times(rows: List[Dict]) -> List[str]:
    lines = ["=== phase times ==="]
    if not rows:
        lines.append("(no timing data recorded)")
        return lines
    width = max(len(r["path"]) for r in rows)
    lines.append(
        f"{'phase':<{width}}  {'total':>9}  {'self':>9}  {'share':>6}  {'calls':>8}"
    )
    for r in rows:
        lines.append(
            f"{r['path']:<{width}}  {_fmt_s(r['total_s']):>9}  "
            f"{_fmt_s(r['self_s']):>9}  {100 * r['share']:5.1f}%  {r['count']:>8}"
        )
    return lines


def _render_attribution(att: Dict, elapsed: Optional[float]) -> List[str]:
    if att["attributed_pct"] is None:
        return [
            f"attributed: unknown -- no wall-clock total without a summary; "
            f"{_fmt_s(att['attributed_s'])} of greedy phases journaled per "
            f"iteration (prepass time is not journaled per iteration)"
        ]
    lines = [
        f"attributed: {_fmt_s(att['attributed_s'])} of {_fmt_s(elapsed)} wall "
        f"({att['attributed_pct']:.1f}%), unattributed "
        f"{_fmt_s(att['unattributed_s'])}"
    ]
    if att["flagged"]:
        lines.append(
            f"WARNING: attribution below {att['target_pct']:.0f}% -- "
            f"{_fmt_s(att['unattributed_s'])} of wall time runs outside "
            f"every span"
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


def _render_counters(
    table: Dict[str, int], derived: Dict[str, Dict], top_k: int
) -> List[str]:
    lines = [f"=== top counters (k={top_k}) ==="]
    if not table:
        lines.append("(no counters recorded)")
        return lines
    width = max(len(n) for n in (*table, *derived))
    for name, n in table.items():
        lines.append(f"{name:<{width}}  {n:>14,}")
    for name, rate in derived.items():
        lines.append(f"{name:<{width}}  {_fmt_rate(rate)}")
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
