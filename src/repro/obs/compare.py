"""Cross-run journal diff: ``repro compare RUN_A.jsonl RUN_B.jsonl``.

Aligns two run journals iteration-by-iteration and reports three
things an estimator or perf change can move:

* **trajectory divergence** -- the first iteration index at which the
  runs disagree (different fault committed, or same fault with
  different area/ER/ES/RS), plus the area and RS trajectory deltas.
  Two journals of the *same* run compare with zero divergence; runs
  under different FOM settings (or a changed estimator) report the
  first diverging step and field;
* **phase-time deltas** -- per span path, B's total wall seconds
  against A's (from the summary snapshots, or re-aggregated from the
  per-iteration ``phase_times`` when a run was interrupted);
* **counter deltas** -- the instrumentation counters side by side,
  with the derived estimator cache hit-rates alongside the raw hits/
  misses (a cache regression shows up here before it shows up in wall
  time).

The comparison is exact: journals serialize floats canonically, so two
journals of one deterministic run are textually identical field-for-
field, and *any* numeric difference is a real divergence.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .journal import JournalError, load_journal
from .quality import audit_events
from .report import collect_counters, collect_timers, derived_counter_rows

__all__ = ["compare_runs", "compare_files", "render_compare"]

#: Iteration-event fields compared for divergence, in report priority
#: order (the first differing field is the one named).
_DIVERGENCE_FIELDS = (
    "fault",
    "phase",
    "area_before",
    "area_after",
    "er",
    "es",
    "rs",
    "fom",
    "candidates_evaluated",
)


def compare_files(
    path_a: Union[str, os.PathLike],
    path_b: Union[str, os.PathLike],
) -> Dict:
    """Load two journal files and compare them (see :func:`compare_runs`)."""
    events_a = load_journal(path_a, skip_unknown=True)
    events_b = load_journal(path_b, skip_unknown=True)
    if not events_a:
        raise JournalError(f"{path_a}: empty journal")
    if not events_b:
        raise JournalError(f"{path_b}: empty journal")
    result = compare_runs(events_a, events_b)
    result["a"]["path"] = os.fspath(path_a)
    result["b"]["path"] = os.fspath(path_b)
    return result


def compare_runs(events_a: Sequence[Dict], events_b: Sequence[Dict]) -> Dict:
    """Structured comparison of two parsed journal event streams."""
    side_a = _side_view(events_a)
    side_b = _side_view(events_b)
    iters_a = side_a.pop("_iterations")
    iters_b = side_b.pop("_iterations")

    divergence = _first_divergence(iters_a, iters_b)
    trajectory = _trajectory_deltas(iters_a, iters_b)

    timers_a = collect_timers(events_a)
    timers_b = collect_timers(events_b)
    phase_times = {
        path: {
            "a_s": round(timers_a.get(path, (0.0, 0))[0], 6),
            "b_s": round(timers_b.get(path, (0.0, 0))[0], 6),
            "delta_s": round(
                timers_b.get(path, (0.0, 0))[0] - timers_a.get(path, (0.0, 0))[0], 6
            ),
        }
        for path in sorted(set(timers_a) | set(timers_b))
    }

    counters_a = collect_counters(events_a)
    counters_b = collect_counters(events_b)
    counters = {
        name: {
            "a": counters_a.get(name, 0),
            "b": counters_b.get(name, 0),
            "delta": counters_b.get(name, 0) - counters_a.get(name, 0),
        }
        for name in sorted(set(counters_a) | set(counters_b))
    }
    derived = {
        "a": derived_counter_rows(counters_a),
        "b": derived_counter_rows(counters_b),
    }

    return {
        "a": side_a,
        "b": side_b,
        "identical_trajectory": divergence is None
        and len(iters_a) == len(iters_b),
        "first_divergence": divergence,
        "trajectory": trajectory,
        "phase_times": phase_times,
        "counters": counters,
        "derived": derived,
    }


# ----------------------------------------------------------------------
def _side_view(events: Sequence[Dict]) -> Dict:
    header = next((e for e in events if e.get("event") == "run_start"), None)
    summary = next((e for e in events if e.get("event") == "summary"), None)
    iterations = [e for e in events if e.get("event") == "iteration"]
    view: Dict = {
        "circuit": header.get("circuit") if header else None,
        "fom": (header or {}).get("config", {}).get("fom"),
        "seed": header.get("seed") if header else None,
        "rs_threshold": header.get("rs_threshold") if header else None,
        "iterations": len(iterations),
        "budget_risk": audit_events(events)["budget_risk_count"],
        "complete": summary is not None,
        "_iterations": iterations,
    }
    if summary is not None:
        view["area_reduction_pct"] = summary.get("area_reduction_pct")
        view["elapsed_s"] = summary.get("elapsed_s")
    return view


def _first_divergence(
    iters_a: List[Dict], iters_b: List[Dict]
) -> Optional[Dict]:
    for i, (ev_a, ev_b) in enumerate(zip(iters_a, iters_b)):
        for field in _DIVERGENCE_FIELDS:
            if ev_a.get(field) != ev_b.get(field):
                return {
                    "iteration": i,
                    "index": ev_a.get("index"),
                    "field": field,
                    "a": ev_a.get(field),
                    "b": ev_b.get(field),
                }
    if len(iters_a) != len(iters_b):
        i = min(len(iters_a), len(iters_b))
        longer = "a" if len(iters_a) > len(iters_b) else "b"
        extra = (iters_a if longer == "a" else iters_b)[i]
        return {
            "iteration": i,
            "index": extra.get("index"),
            "field": "length",
            "a": len(iters_a),
            "b": len(iters_b),
        }
    return None


def _trajectory_deltas(iters_a: List[Dict], iters_b: List[Dict]) -> Dict:
    max_area = 0
    max_rs = 0.0
    for ev_a, ev_b in zip(iters_a, iters_b):
        max_area = max(max_area, abs(ev_a["area_after"] - ev_b["area_after"]))
        max_rs = max(max_rs, abs(ev_a["rs"] - ev_b["rs"]))
    return {
        "compared_iterations": min(len(iters_a), len(iters_b)),
        "max_abs_area_delta": max_area,
        "max_abs_rs_delta": max_rs,
        "final_area": (
            iters_a[-1]["area_after"] if iters_a else None,
            iters_b[-1]["area_after"] if iters_b else None,
        ),
        "final_rs": (
            iters_a[-1]["rs"] if iters_a else None,
            iters_b[-1]["rs"] if iters_b else None,
        ),
    }


# ----------------------------------------------------------------------
def render_compare(cmp: Dict, top_k: int = 12) -> str:
    """Human-readable rendering of a :func:`compare_runs` result."""
    a, b = cmp["a"], cmp["b"]
    lines = ["=== runs ==="]
    for tag, side in (("A", a), ("B", b)):
        bits = [
            f"{tag}: {side.get('path', '<events>')}",
            f"circuit={side['circuit']}",
            f"fom={side['fom']}",
            f"seed={side['seed']}",
            f"iterations={side['iterations']}",
            "complete" if side["complete"] else "INTERRUPTED",
        ]
        lines.append("  ".join(bits))

    lines.append("")
    lines.append("=== trajectory ===")
    div = cmp["first_divergence"]
    if div is None:
        lines.append(
            f"zero divergence over {cmp['trajectory']['compared_iterations']} "
            f"iteration(s)"
        )
    else:
        lines.append(
            f"FIRST DIVERGENCE at iteration {div['iteration']} "
            f"(journal index {div['index']}): field {div['field']!r} "
            f"A={div['a']!r} B={div['b']!r}"
        )
        traj = cmp["trajectory"]
        lines.append(
            f"max |area delta| {traj['max_abs_area_delta']}  "
            f"max |RS delta| {traj['max_abs_rs_delta']:.6g}  "
            f"final area A={traj['final_area'][0]} B={traj['final_area'][1]}"
        )

    lines.append("")
    lines.append("=== phase-time deltas (B - A) ===")
    rows = sorted(
        cmp["phase_times"].items(), key=lambda kv: -abs(kv[1]["delta_s"])
    )[:top_k]
    if rows:
        width = max(len(p) for p, _ in rows)
        for path, d in rows:
            lines.append(
                f"{path:<{width}}  A={d['a_s']:>9.3f}s  B={d['b_s']:>9.3f}s  "
                f"delta={d['delta_s']:>+9.3f}s"
            )
    else:
        lines.append("(no timing data)")

    lines.append("")
    lines.append(f"=== counter deltas (B - A, top {top_k}) ===")
    crows = sorted(
        cmp["counters"].items(), key=lambda kv: -abs(kv[1]["delta"])
    )[:top_k]
    if crows:
        width = max(len(n) for n, _ in crows)
        for name, d in crows:
            lines.append(
                f"{name:<{width}}  A={d['a']:>12,}  B={d['b']:>12,}  "
                f"delta={d['delta']:>+12,}"
            )
    else:
        lines.append("(no counters recorded)")

    for tag in ("a", "b"):
        derived = cmp["derived"][tag]
        if derived:
            lines.append("")
            lines.append(f"=== derived ({tag.upper()}) ===")
            width = max(len(n) for n, _ in derived)
            for name, text in derived:
                lines.append(f"{name:<{width}}  {text}")
    return "\n".join(lines)
