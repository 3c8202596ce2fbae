"""Self-time attribution over a run journal: ``repro profile RUN.jsonl``.

Where ``repro report`` renders *inclusive* span totals (each path's
wall time including its children), this view answers the profiling
questions those totals obscure:

* **exclusive (self) time** per span path -- a parent's total minus
  its direct children's totals, so ``greedy`` stops dwarfing
  ``greedy/rank`` just because it contains it.  The top-N table ranks
  by exclusive time, which is where optimization effort actually lands;
* **attribution coverage** -- top-level span totals summed against the
  run's elapsed wall clock.  The remainder is *unattributed* time
  (work running outside any span); the renderer flags it when coverage
  drops below :data:`ATTRIBUTION_TARGET_PCT`, because unattributed
  time is exactly the time no report can explain;
* **kernel throughput** -- the compiled kernel's pass-attribution
  counters (:mod:`repro.simulation.compiled`) reduced to bytes moved
  (uint64 words x 8) and bytes/second against the scoring span time;
* **peak-RSS timeline** -- the coordinator-lane ``telemetry`` samples
  as a time/RSS table with the peak marked.

Everything reads from journal events alone (``skip_unknown`` load), so
a dead run's journal profiles exactly like a live one's.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Union

from .journal import JournalError, load_journal
from .report import collect_counters, collect_timers

__all__ = [
    "ATTRIBUTION_TARGET_PCT",
    "profile_events",
    "render_profile",
    "profile_from_file",
]

#: Minimum share of elapsed wall time the top-level spans must explain
#: before the profile stops flagging unattributed time.
ATTRIBUTION_TARGET_PCT = 90.0

#: Bytes per packed simulation word (the kernel's uint64 rows).
_WORD_BYTES = 8


def profile_events(events: Sequence[Dict], top: int = 12) -> Dict:
    """Reduce one journal event stream to the profile payload."""
    header = next((e for e in events if e.get("event") == "run_start"), None)
    summary = next((e for e in events if e.get("event") == "summary"), None)
    telemetry = [e for e in events if e.get("event") == "telemetry"]
    timers = collect_timers(events)
    counters = collect_counters(events)

    elapsed = _elapsed_seconds(summary, telemetry, timers)
    spans = _span_rows(timers, elapsed)
    attributed = sum(
        total for path, (total, _c) in timers.items() if "/" not in path
    )
    attributed_pct = 100.0 * attributed / elapsed if elapsed > 0 else 0.0

    return {
        "run": {
            "circuit": header.get("circuit") if header else None,
            "status": "complete" if summary is not None else "interrupted",
            "elapsed_s": elapsed,
        },
        "spans": spans[:top],
        "span_count": len(spans),
        "attribution": {
            "attributed_s": attributed,
            "unattributed_s": max(elapsed - attributed, 0.0),
            "attributed_pct": attributed_pct,
            "target_pct": ATTRIBUTION_TARGET_PCT,
            "flagged": attributed_pct < ATTRIBUTION_TARGET_PCT,
        },
        "kernel": _kernel_stats(counters, timers, elapsed),
        "rss_timeline": _rss_timeline(telemetry),
    }


def render_profile(profile: Dict) -> str:
    """Text rendering of a :func:`profile_events` payload."""
    run = profile["run"]
    out: List[str] = [
        f"=== profile: {run['circuit'] or '?'} "
        f"({run['status']}, {run['elapsed_s']:.2f}s) ==="
    ]

    out.append("")
    out.append("--- self time (exclusive, top spans) ---")
    spans = profile["spans"]
    if spans:
        width = max(len(s["path"]) for s in spans)
        out.append(
            f"{'phase':<{width}}  {'self':>9}  {'wall%':>6}  "
            f"{'total':>9}  {'calls':>8}"
        )
        for s in spans:
            out.append(
                f"{s['path']:<{width}}  {_fmt_s(s['exclusive_s']):>9}  "
                f"{s['share_pct']:5.1f}%  {_fmt_s(s['total_s']):>9}  "
                f"{s['count']:>8}"
            )
        hidden = profile["span_count"] - len(spans)
        if hidden > 0:
            out.append(f"(+{hidden} more span path(s); raise --top to see them)")
    else:
        out.append("(no timing data recorded)")

    att = profile["attribution"]
    out.append("")
    out.append(
        f"attributed: {_fmt_s(att['attributed_s'])} of "
        f"{_fmt_s(run['elapsed_s'])} wall ({att['attributed_pct']:.1f}%), "
        f"unattributed {_fmt_s(att['unattributed_s'])}"
    )
    if att["flagged"]:
        out.append(
            f"WARNING: attribution below {att['target_pct']:.0f}% -- "
            f"{_fmt_s(att['unattributed_s'])} of wall time runs outside "
            f"every span"
        )

    kernel = profile["kernel"]
    if kernel is not None:
        out.append("")
        out.append("--- compiled kernel ---")
        out.append(
            f"passes {kernel['passes']:,}  rows {kernel['rows_touched']:,}  "
            f"words {kernel['words_moved']:,} "
            f"({kernel['bytes_moved'] / 1e6:.1f} MB)"
        )
        line = f"throughput {kernel['bytes_per_s'] / 1e6:,.1f} MB/s"
        if kernel.get("basis") is not None:
            line += f" (over {kernel['basis']})"
        out.append(line)
        if kernel.get("overlay_patches"):
            out.append(f"overlay patches applied: {kernel['overlay_patches']:,}")

    timeline = profile["rss_timeline"]
    if timeline["points"]:
        out.append("")
        out.append("--- RSS timeline (coordinator) ---")
        for t_s, rss in timeline["points"]:
            marker = "  <-- peak" if rss == timeline["peak_bytes"] else ""
            out.append(f"t={t_s:8.2f}s  {rss / 1e6:9.1f} MB{marker}")
        out.append(
            f"peak {timeline['peak_bytes'] / 1e6:.1f} MB over "
            f"{timeline['samples']} sample(s)"
        )

    return "\n".join(out)


def profile_from_file(path: Union[str, os.PathLike], top: int = 12) -> Dict:
    """Load a journal (tolerantly) and build the profile payload."""
    events = load_journal(path, skip_unknown=True)
    if not events:
        raise JournalError(f"{path}: empty journal")
    return profile_events(events, top=top)


# ----------------------------------------------------------------------
def _elapsed_seconds(
    summary: Optional[Dict],
    telemetry: List[Dict],
    timers: Dict[str, tuple],
) -> float:
    if summary is not None and summary.get("elapsed_s"):
        return float(summary["elapsed_s"])
    coord = [e for e in telemetry if e.get("lane") == "coordinator"]
    if coord:
        return max(float(e.get("t_s", 0.0)) for e in coord)
    return sum(t for path, (t, _c) in timers.items() if "/" not in path)


def _span_rows(timers: Dict[str, tuple], elapsed: float) -> List[Dict]:
    """Exclusive-time rows, ranked by self time descending."""
    totals = {path: float(stat[0]) for path, stat in timers.items()}
    children: Dict[str, float] = {}
    for path, total in totals.items():
        if "/" in path:
            parent = path.rsplit("/", 1)[0]
            children[parent] = children.get(parent, 0.0) + total
    rows = [
        {
            "path": path,
            "total_s": total,
            "exclusive_s": max(total - children.get(path, 0.0), 0.0),
            "count": int(timers[path][1]),
        }
        for path, total in totals.items()
    ]
    for row in rows:
        row["share_pct"] = (
            100.0 * row["exclusive_s"] / elapsed if elapsed > 0 else 0.0
        )
    rows.sort(key=lambda r: (-r["exclusive_s"], r["path"]))
    return rows


def _kernel_stats(
    counters: Dict[str, int], timers: Dict[str, tuple], elapsed: float
) -> Optional[Dict]:
    words = counters.get("kernel.pass.words_moved", 0)
    if not words and not counters.get("kernel.pass.executions"):
        return None
    bytes_moved = words * _WORD_BYTES
    # Rate the kernel against the time actually spent scoring: the
    # deepest span whose subtree contains the simulate calls.
    basis_path = None
    basis_s = elapsed
    for candidate in ("greedy/rank", "greedy", "prepass"):
        if candidate in timers:
            basis_path = candidate
            basis_s = float(timers[candidate][0])
            break
    return {
        "passes": counters.get("kernel.pass.executions", 0),
        "rows_touched": counters.get("kernel.pass.rows_touched", 0),
        "words_moved": words,
        "bytes_moved": bytes_moved,
        "bytes_per_s": bytes_moved / basis_s if basis_s > 0 else 0.0,
        "basis": basis_path,
        "overlay_patches": counters.get("kernel.overlay_patches", 0),
    }


def _rss_timeline(telemetry: List[Dict], max_points: int = 16) -> Dict:
    coord = [e for e in telemetry if e.get("lane") == "coordinator"]
    coord.sort(key=lambda e: e.get("t_s", 0.0))
    points = [
        (float(e.get("t_s", 0.0)), int(e.get("rss_bytes", 0))) for e in coord
    ]
    shown = points
    if len(points) > max_points:
        # Evenly thin the series but always keep first, last and peak.
        step = len(points) / float(max_points)
        keep = {int(i * step) for i in range(max_points)}
        keep.add(len(points) - 1)
        keep.add(max(range(len(points)), key=lambda i: points[i][1]))
        shown = [points[i] for i in sorted(keep)]
    return {
        "points": shown,
        "samples": len(points),
        "peak_bytes": max((rss for _t, rss in points), default=0),
    }


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.0f}us"
