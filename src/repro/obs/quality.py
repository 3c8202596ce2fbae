"""Quality observability: estimator calibration and RS-budget auditing.

The greedy loop commits irreversible fault injections on *estimates* --
sampled parallel-pattern ER, lower-bounded ES from the threshold ATPG.
This module makes the accuracy of those estimates a first-class,
inspectable artifact of every run:

* :func:`wilson_interval` -- the Wilson-score confidence interval for a
  binomial proportion, used for every sampled ER estimate in the
  pipeline (:func:`er_interval` applies it to an ER and its batch
  size).  The Wilson interval stays well-behaved at the extremes the
  naive normal interval gets wrong: ``k=0`` gives a nonzero upper bound
  (the rule of three), ``k=n`` a sub-1 lower bound, and the interval
  always contains the point estimate;
* :func:`audit_events` / :func:`render_audit` / :func:`audit_file` --
  the ``repro audit`` view: full per-iteration provenance (FOM at
  selection, the *predicted* ER/ES/area deltas the candidate ranking
  saw at selection time vs. the *realized* commit measurement,
  cumulative RS with its CI band) and the **budget-risk** flag.  An
  iteration is budget-risk when its RS point estimate satisfied the
  threshold but the CI upper bound does not: ``rs <= rs_threshold <
  er_ci_hi * es``.  Exact (exhaustive-batch) ER estimates carry a
  zero-width interval and can never be budget-risk.  The interval and
  the flag are derived from the iteration event and the header; v2
  journals audit without predicted columns;
* :func:`exact_er_check` -- the ``--exact`` cross-check: replay the
  journaled faults through the Overlay engine and compare the final ER
  against the BDD engine's exact value; agreement means the exact ER
  falls within the reported confidence interval.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Sequence, Tuple, Union

__all__ = [
    "DEFAULT_Z",
    "wilson_interval",
    "audit_events",
    "audit_file",
    "render_audit",
    "exact_er_check",
]

#: Two-sided 95% normal quantile -- the default confidence level for
#: every ER interval in the pipeline.
DEFAULT_Z = 1.96


def wilson_interval(k: int, n: int, z: float = DEFAULT_Z) -> Tuple[float, float]:
    """Wilson-score confidence interval for a binomial proportion.

    ``k`` successes in ``n`` trials; returns ``(lo, hi)``.  ``n == 0``
    is total ignorance: ``(0.0, 1.0)``.  The interval always contains
    the point estimate ``k/n`` and is clamped to ``[0, 1]``.
    """
    if n <= 0:
        return (0.0, 1.0)
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k} n={n}")
    p = k / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    spread = z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    # At the boundaries the closed form is exact (lo = 0 at k = 0,
    # hi = 1 at k = n); pin them against float rounding.
    lo = 0.0 if k == 0 else max(0.0, center - spread)
    hi = 1.0 if k == n else min(1.0, center + spread)
    return (lo, hi)


def er_interval(
    er: float, num_vectors: int, z: float = DEFAULT_Z, exact: bool = False
) -> Tuple[float, float]:
    """Confidence interval for a sampled ER estimate.

    ``exact=True`` (exhaustive batch: the estimate has no sampling
    error) returns the zero-width interval ``(er, er)``.  Otherwise the
    detection count is recovered from the rate and the batch size and
    fed to :func:`wilson_interval`.
    """
    if exact:
        return (er, er)
    if num_vectors <= 0:
        return (0.0, 1.0)
    return wilson_interval(int(round(er * num_vectors)), num_vectors, z=z)


# ----------------------------------------------------------------------
# audit: per-iteration provenance with CI bands
# ----------------------------------------------------------------------
def audit_events(events: Sequence[Dict]) -> Dict:
    """Structured quality audit of one journal event stream.

    Every row's confidence interval and budget-risk flag are derived
    from the iteration event's ER/ES/RS, the header's batch size, RS
    threshold and ``exhaustive`` flag, at :data:`DEFAULT_Z`, the final
    band's level too.  The prediction is the iteration event's
    ``predicted`` block (v5); v3/v4 journals stored it in the
    ``calibration`` event that followed the iteration, and pre-v3
    journals have none (``None``, ``calibrated`` false) -- the audit
    degrades, it does not refuse.
    """
    header = next((e for e in events if e.get("event") == "run_start"), None)
    summary = next((e for e in events if e.get("event") == "summary"), None)
    iterations = [e for e in events if e.get("event") == "iteration"]
    calibrations = {
        (e["index"], e["fault"]): e
        for e in events
        if e.get("event") == "calibration"
    }

    rs_threshold = float(header["rs_threshold"]) if header else float("inf")
    num_vectors = int(header["num_vectors"]) if header else 0
    exact = bool((header or {}).get("config", {}).get("exhaustive", False))
    version = (header or {}).get("version")

    rows: List[Dict] = []
    risk_count = 0
    for ev in iterations:
        source = (
            ev if "predicted" in ev
            else calibrations.get((ev["index"], ev["fault"]))
        )
        er_ci = er_interval(float(ev["er"]), num_vectors, exact=exact)
        budget_risk = float(ev["rs"]) <= rs_threshold < er_ci[1] * ev["es"]
        if budget_risk:
            risk_count += 1
        rows.append(
            {
                "index": ev["index"],
                "phase": ev["phase"],
                "fault": ev["fault"],
                "fom": ev.get("fom"),
                "predicted": source.get("predicted") if source else None,
                "realized": {
                    "er": ev["er"],
                    "es": ev["es"],
                    "rs": ev["rs"],
                    "area_delta": ev["area_before"] - ev["area_after"],
                },
                "num_vectors": num_vectors,
                "er_ci": [er_ci[0], er_ci[1]],
                "rs_ci": [er_ci[0] * ev["es"], er_ci[1] * ev["es"]],
                "budget_risk": budget_risk,
                "calibrated": source is not None,
            }
        )

    final: Dict = {"er": None, "es": None, "rs": None}
    if summary is not None and summary.get("final_er") is not None:
        final = {
            "er": summary["final_er"],
            "es": summary["final_es"],
            "rs": summary["final_rs"],
        }
    elif rows:
        last = rows[-1]["realized"]
        final = {"er": last["er"], "es": last["es"], "rs": last["rs"]}
    final_ci = (
        er_interval(float(final["er"]), num_vectors, exact=exact)
        if final["er"] is not None
        else None
    )

    return {
        "circuit": header.get("circuit") if header else None,
        "schema_version": version,
        "rs_threshold": rs_threshold if header else None,
        "num_vectors": num_vectors,
        "exact_batch": exact,
        "z": DEFAULT_Z,
        "complete": summary is not None,
        "iterations": rows,
        "budget_risk_count": risk_count,
        "final": final,
        "final_er_ci": list(final_ci) if final_ci is not None else None,
    }


def audit_file(path: Union[str, os.PathLike]) -> Dict:
    """Load a journal file and audit it (see :func:`audit_events`)."""
    from .journal import JournalError, load_journal

    events = load_journal(path, skip_unknown=True)
    if not events:
        raise JournalError(f"{path}: empty journal")
    audit = audit_events(events)
    audit["path"] = os.fspath(path)
    return audit


def render_audit(audit: Dict) -> str:
    """Human-readable calibration table of one :func:`audit_events` result."""
    lines = ["=== quality audit ==="]
    batch = "exhaustive (exact ER)" if audit["exact_batch"] else "sampled"
    lines.append(
        f"circuit: {audit['circuit']}  vectors: {audit['num_vectors']} "
        f"({batch})  rs_threshold: {_g(audit['rs_threshold'])}  "
        f"z: {audit['z']:g}"
    )
    if audit["schema_version"] is not None and audit["schema_version"] < 3:
        lines.append(
            f"journal schema v{audit['schema_version']}: no calibration "
            f"events; predicted columns unavailable, CI recomputed from "
            f"the journaled ER"
        )
    rows = audit["iterations"]
    lines.append("")
    lines.append("=== calibration (predicted @ selection vs realized @ commit) ===")
    if not rows:
        lines.append("(no committed iterations)")
    else:
        fault_w = max(5, max(len(str(r["fault"])) for r in rows))
        lines.append(
            f"{'#':>3} {'ph':<3} {'fault':<{fault_w}} "
            f"{'pred_ER':>8} {'ER':>8} {'ER 95% CI':>19} "
            f"{'pred_ES':>8} {'ES':>8} {'p-dA':>4} {'-dA':>4} "
            f"{'RS':>10} {'RS_hi':>10} {'fom':>9} risk"
        )
        for r in rows:
            p = r["predicted"] or {}
            real = r["realized"]
            lines.append(
                f"{r['index']:>3} {r['phase'][:3]:<3} "
                f"{str(r['fault']):<{fault_w}} "
                f"{_f(p.get('er'), '8.4f')} {real['er']:>8.4f} "
                f"[{r['er_ci'][0]:8.5f},{r['er_ci'][1]:8.5f}] "
                f"{_f(p.get('es'), '8.4g')} {real['es']:>8.4g} "
                f"{_f(p.get('area_delta'), '4d')} {real['area_delta']:>4} "
                f"{real['rs']:>10.4g} {r['rs_ci'][1]:>10.4g} "
                f"{_f(r['fom'], '9.3g')} "
                f"{'RISK' if r['budget_risk'] else 'ok'}"
            )
    lines.append("")
    final = audit["final"]
    if final["er"] is not None:
        band = audit["final_er_ci"]
        lines.append(
            f"final: ER={final['er']:.6g} "
            f"(95% CI [{band[0]:.6g}, {band[1]:.6g}]) "
            f"ES={final['es']} RS={_g(final['rs'])} "
            f"of threshold {_g(audit['rs_threshold'])}"
        )
    risk = audit["budget_risk_count"]
    lines.append(
        f"budget-risk iterations: {risk} of {len(rows)}"
        + (" -- CI upper bound crosses the RS threshold" if risk else "")
    )
    exact = audit.get("exact")
    if exact is not None:
        verdict = "AGREES" if exact["agrees"] else "DISAGREES"
        lines.append(
            f"exact check: BDD ER={_g(exact['exact_er'])} vs journal "
            f"ER={_g(exact['journal_er'])} "
            f"(CI [{_g(exact['ci'][0])}, {_g(exact['ci'][1])}]) -> {verdict}"
        )
    return "\n".join(lines)


def _f(value, spec: str) -> str:
    """Fixed-width cell: a formatted number, or '-' for missing."""
    width = int(spec.split(".")[0].rstrip("dfg"))
    if value is None:
        return f"{'-':>{width}}"
    if spec.endswith("d"):
        value = int(value)
    return f"{value:>{spec}}"


def _g(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


# ----------------------------------------------------------------------
# --exact: BDD cross-check of the final ER
# ----------------------------------------------------------------------
def exact_er_check(
    circuit,
    journal_path: Union[str, os.PathLike],
    audit: Dict,
    node_limit: int = 500_000,
) -> Dict:
    """Cross-check the audited final ER against the BDD engine.

    Replays the journaled faults through the Overlay engine (validating
    the area trajectory, exactly like a checkpoint resume) and computes
    the exact ER of the rebuilt simplified netlist against ``circuit``
    via BDD model counting.  Agreement means the exact value lies within
    the audit's final ER confidence interval; exhaustive-batch runs have
    a zero-width interval, so agreement there means exact equality (to
    float tolerance).

    Raises :class:`repro.parallel.checkpoint.CheckpointError` when the
    journal cannot be replayed against ``circuit`` and
    :class:`repro.bdd.BddLimitExceeded` when the circuit's BDD exceeds
    ``node_limit`` -- the exact check is for circuits small enough to
    build.
    """
    from ..bdd import exact_error_rate
    from ..metrics.errors import rs_max
    from ..parallel.checkpoint import load_checkpoint, replay_checkpoint

    state = load_checkpoint(journal_path)
    replayed = replay_checkpoint(circuit, state, rs_max(circuit))
    exact = exact_error_rate(circuit, approx=replayed.current, node_limit=node_limit)

    journal_er = audit["final"]["er"]
    ci = audit["final_er_ci"] or [0.0, 1.0]
    tol = 1e-9 * max(1.0, abs(exact))
    agrees = ci[0] - tol <= exact <= ci[1] + tol
    return {
        "exact_er": exact,
        "journal_er": journal_er,
        "ci": list(ci),
        "agrees": agrees,
        "node_limit": node_limit,
    }
