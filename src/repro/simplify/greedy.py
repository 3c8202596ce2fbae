"""The greedy area-reduction heuristic (Fig. 6 of the paper).

``circuit_simplify`` iterates: evaluate a figure of merit (FOM) for the
candidate single stuck-at faults of the *current* simplified circuit,
inject the best one, re-measure ER/ES/RS of the cumulative
simplification against the *original* circuit, and repeat until the RS
threshold would be violated.  Exactly as in Section IV:

* ER is re-estimated for the whole accumulated change by differential
  bit-parallel fault simulation (never composed from single-fault ERs);
* ES is re-estimated against the original circuit -- by observed
  deviation for candidate ranking, and by the conservative threshold
  ATPG for the commit decision (``es_mode="hybrid"``, the default);
* both paper FOMs are available: plain area reduction (``"area"``) and
  area reduction per unit of added RS (``"area_per_rs"``); the Table II
  experiment reports the better of the two.

Engineering notes (documented deviations, see DESIGN.md): candidate
ranking uses the simulated ES (the ATPG would be run p times per
iteration otherwise), and each iteration evaluates the
``candidate_limit`` most promising candidates, pre-ranked by a cheap
structural proxy (previewed area gain over the reachable-output weight
bound).  Set ``candidate_limit=None`` for the paper's full O(kp) scan.

A run keeps each candidate's area preview across iterations
(:class:`_PreviewMemo`): a commit drops only the previews that read a
name the committed overlay wrote, and every kept preview equals a fresh
one on the new netlist.  Only :class:`~repro.circuit.netlist.CircuitError`
counts as a failed injection (a skipped candidate); any other exception
propagates.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..circuit import Circuit
from ..circuit.netlist import CircuitError
from ..circuit.structure import datapath_signals
from ..faults.collapse import FaultClasses
from ..faults.model import StuckAtFault, datapath_faults, enumerate_faults
from ..metrics.errors import ErrorMetrics, rs_max
from ..metrics.estimate import MetricsEstimator
from ..obs.core import Instrumentation, get_active
from ..obs.journal import JOURNAL_VERSION, JournalTee, RunJournal, truncate_torn_tail
from .engine import Overlay, preview_area_reduction

__all__ = ["GreedyConfig", "IterationRecord", "GreedyResult", "circuit_simplify"]


@dataclass
class GreedyConfig:
    """Tuning knobs for :func:`circuit_simplify`.

    Attributes
    ----------
    fom:
        ``"area"`` or ``"area_per_rs"`` (both appear in the paper).
    num_vectors:
        Vector-batch size for ER estimation (paper: 10,000).
    seed:
        RNG seed for the vector batch.
    es_mode:
        ``"hybrid"`` (rank by simulated ES, commit with ATPG ES --
        default) or ``"simulated"`` (no ATPG at all; fastest,
        optimistic ES).
    candidate_limit:
        Number of candidates fully evaluated per iteration after proxy
        pre-ranking; ``None`` evaluates all (the paper's full scan).
    datapath_only:
        Restrict candidates to datapath lines (Table II methodology).
    include_branches:
        Include fanout-branch fault sites.
    max_iterations:
        Hard iteration cap.
    atpg_node_limit:
        Search budget for each ES-ATPG threshold query.
    exhaustive:
        Use an exhaustive vector batch (small circuits; makes ER exact).
    pow2_es:
        Round ES up to the next power of two in commit decisions,
        reproducing the paper's conservative sweep resolution.
    redundancy_prepass:
        Run a classical redundancy-removal pass over the candidate
        faults before RS-budgeted selection.  Redundant faults have
        zero ER and ES (the paper: "a redundant fault is simply a
        candidate that has zero ES and ER values"), so injecting them
        is free; identifying them with PODEM up front is much cheaper
        than waiting for the greedy ranking to stumble on them.
    prepass_backtrack_limit:
        PODEM backtrack budget per fault during the prepass (aborted
        proofs count as not redundant).
    """

    fom: str = "area_per_rs"
    num_vectors: int = 10_000
    seed: int = 0
    es_mode: str = "hybrid"
    candidate_limit: Optional[int] = 200
    datapath_only: bool = True
    include_branches: bool = True
    max_iterations: int = 10_000
    atpg_node_limit: int = 4_000
    exhaustive: bool = False
    pow2_es: bool = False
    redundancy_prepass: bool = False
    prepass_backtrack_limit: int = 500


@dataclass
class IterationRecord:
    """One committed simplification step.

    Beyond the identity of the step (fault, area trajectory, metrics),
    the record carries the step's telemetry: ``phase`` distinguishes
    redundancy-prepass injections from greedy commits, ``phase_times``
    holds the wall seconds of the step's internal phases (candidate
    enumeration / ranking / commit for greedy steps), and ``counters``
    the instrumentation counter deltas attributable to the step (cache
    hits, vectors simulated, ATPG effort; empty when instrumentation is
    disabled).  These feed the run journal one-for-one.
    """

    index: int
    fault: StuckAtFault
    area_before: int
    area_after: int
    metrics: ErrorMetrics
    fom_value: float
    candidates_evaluated: int
    phase: str = "greedy"
    phase_times: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def area_delta(self) -> int:
        return self.area_before - self.area_after


@dataclass
class GreedyResult:
    """Outcome of one greedy simplification run."""

    original: Circuit
    simplified: Circuit
    rs_threshold: float
    config: GreedyConfig
    faults: List[StuckAtFault] = field(default_factory=list)
    iterations: List[IterationRecord] = field(default_factory=list)
    final_metrics: Optional[ErrorMetrics] = None

    @property
    def area_reduction(self) -> int:
        return self.original.area() - self.simplified.area()

    @property
    def area_reduction_pct(self) -> float:
        base = self.original.area()
        return 100.0 * self.area_reduction / base if base else 0.0

    def area_reduction_at(self, rs_threshold: float) -> float:
        """Percent area reduction of the deepest trajectory prefix whose
        cumulative RS stays within ``rs_threshold``.

        Useful for reading several thresholds off one run; dedicated
        runs per threshold can do slightly better (see module notes).
        """
        base = self.original.area()
        best = 0
        for rec in self.iterations:
            if rec.metrics.rs <= rs_threshold:
                best = max(best, self.original.area() - rec.area_after)
        return 100.0 * best / base if base else 0.0


def circuit_simplify(
    circuit: Circuit,
    rs_threshold: Optional[float] = None,
    rs_pct_threshold: Optional[float] = None,
    config: Optional[GreedyConfig] = None,
    journal: Optional[Union[str, os.PathLike]] = None,
    obs: Optional[Instrumentation] = None,
    progress=None,
    telemetry_interval: Optional[float] = None,
    trace_id: Optional[str] = None,
) -> GreedyResult:
    """Greedy maximal area reduction within an RS budget (paper Fig. 6).

    Exactly one of ``rs_threshold`` (absolute RS) or ``rs_pct_threshold``
    (percent of the circuit's maximum RS, as in Table II) must be given.

    ``journal`` names the run's JSONL journal: one event per committed
    step plus a run header and a final summary.  It is also the run's
    checkpoint.  A file holding a prefix of the same run (e.g. from a
    killed process) is replayed through the Overlay engine and the run
    *continues* where it stopped, appending to the same file; a file
    holding the complete run rebuilds the finished result without
    re-running; any other file is refused with
    :class:`~repro.parallel.checkpoint.CheckpointError`
    (``checkpoint_mismatch``) before it is opened.  A missing or empty
    file starts a fresh run.  See :mod:`repro.parallel.checkpoint`.
    ``obs`` overrides the active instrumentation registry; when a
    journal is requested and instrumentation is off, a private registry
    is switched on so the journal always carries real phase timings.

    ``progress`` attaches a live sink (usually a
    :class:`~repro.obs.progress.ProgressReporter`) that receives the
    same event stream as the journal -- the heartbeat can never
    disagree with the journal.  The caller owns its lifetime (it is
    not closed here, so one reporter can span the ``fom="best"``
    policy's two constituent runs).

    ``telemetry_interval`` switches on the background resource sampler
    (:class:`~repro.obs.telemetry.TelemetryMonitor`): RSS/CPU/throughput
    samples every that-many seconds, journaled as v4 ``telemetry``
    events and mirrored into gauges and -- when tracing -- Chrome-trace
    counter tracks.  ``None`` (the default) runs no sampler thread.

    ``trace_id`` is an opaque correlation id stamped into the journal
    header (``run_start``/``resume``) and every telemetry event; the
    job server uses it to link a client submission to this run's
    artifacts.  ``None`` (the default) leaves the events untouched.
    """
    cfg = config or GreedyConfig()
    if (rs_threshold is None) == (rs_pct_threshold is None):
        raise ValueError("give exactly one of rs_threshold / rs_pct_threshold")
    maximum = rs_max(circuit)
    threshold = (
        float(rs_threshold)
        if rs_threshold is not None
        else float(rs_pct_threshold) * maximum / 100.0
    )

    # ------------------------------------------------------------------
    # the journal: load an existing prefix of this run and replay it
    # ------------------------------------------------------------------
    replay = None
    state = None
    if journal is not None:
        from ..parallel.checkpoint import (
            greedy_config_from,
            maybe_load_checkpoint,
            replay_checkpoint,
        )

        journal = os.fspath(journal)
        state = maybe_load_checkpoint(journal)
        if state is not None:
            if config is None:
                cfg = greedy_config_from(state.config)
            else:
                _check_config_matches(cfg, state)
            state.validate_threshold(threshold)
            threshold = state.rs_threshold  # bit-exact continuation
            replay = replay_checkpoint(circuit, state, maximum)

    if cfg.fom not in ("area", "area_per_rs"):
        raise ValueError(f"unknown FOM {cfg.fom!r}")
    if cfg.es_mode not in ("hybrid", "simulated"):
        raise ValueError(f"unknown es_mode {cfg.es_mode!r}")

    obs = obs if obs is not None else get_active()

    if state is not None and state.complete:
        # The journaled run already finished: reconstruct its result.
        obs.incr("checkpoint.already_complete")
        return _rebuild_complete_result(circuit, cfg, state, replay, maximum)

    run_journal: Optional[RunJournal] = None
    if journal is not None:
        if replay is not None:
            truncate_torn_tail(journal)
        run_journal = RunJournal(journal, append=replay is not None)
    sinks = [s for s in (run_journal, progress) if s is not None]
    tee: Optional[JournalTee] = JournalTee(sinks) if sinks else None
    # A journal or a telemetry monitor needs real timings/counters to
    # record: switch a private registry on when instrumentation is off.
    if (tee is not None or telemetry_interval is not None) and not obs.enabled:
        obs = Instrumentation()

    estimator = MetricsEstimator(
        circuit,
        num_vectors=cfg.num_vectors,
        seed=cfg.seed,
        exhaustive=cfg.exhaustive,
        atpg_node_limit=cfg.atpg_node_limit,
        obs=obs,
    )
    result = GreedyResult(
        original=circuit,
        simplified=circuit.copy(),
        rs_threshold=threshold,
        config=cfg,
    )

    if replay is not None:
        obs.incr("checkpoint.resumes")
        obs.incr("checkpoint.replayed_iterations", len(replay.iterations))

    monitor = None
    if telemetry_interval is not None:
        from ..obs.telemetry import TelemetryMonitor

        monitor = TelemetryMonitor(
            obs, sink=tee, interval_s=telemetry_interval, trace_id=trace_id
        )

    t_run = time.perf_counter()
    if tee is not None:
        # Scoring runs in one process; both headers keep their count of
        # scoring processes (1) so journals and checkpoints keep their
        # shape.
        if replay is None:
            header = {
                "event": "run_start",
                "version": JOURNAL_VERSION,
                "circuit": circuit.name,
                "num_inputs": len(circuit.inputs),
                "num_outputs": len(circuit.outputs),
                "area": circuit.area(),
                "rs_threshold": threshold,
                "rs_max": float(maximum),
                "seed": cfg.seed,
                "num_vectors": estimator.num_vectors,
                "workers": 1,
                "config": asdict(cfg),
            }
        else:
            header = {
                "event": "resume",
                "version": JOURNAL_VERSION,
                "circuit": circuit.name,
                "replayed_iterations": len(replay.iterations),
                "area": replay.current.area(),
                "rs": replay.current_rs,
                "workers": 1,
            }
        # Only stamped when present, so journals of untraced runs (and
        # the golden fixtures) keep their historical shape.
        if trace_id is not None:
            header["trace_id"] = trace_id
        tee.emit(header)
    # Sampling starts only after the header emit, so the journal's
    # first line stays the run_start/resume event.
    if monitor is not None:
        monitor.start()
    try:
        _run_greedy(
            circuit,
            cfg,
            estimator,
            result,
            threshold,
            obs,
            tee,
            replay=replay,
        )
        # Stop sampling before the summary snapshot: the final sample's
        # gauges land in the summary, and the journal still ends with it.
        if monitor is not None:
            monitor.stop()
            monitor = None
        if tee is not None:
            snap = obs.snapshot()
            tee.emit(
                {
                    "event": "summary",
                    "iterations": len(result.iterations),
                    "faults_injected": len(result.faults),
                    "area_before": circuit.area(),
                    "area_after": result.simplified.area(),
                    "area_reduction_pct": result.area_reduction_pct,
                    "final_er": result.final_metrics.er if result.final_metrics else None,
                    "final_es": result.final_metrics.es if result.final_metrics else None,
                    "final_rs": result.final_metrics.rs if result.final_metrics else None,
                    "elapsed_s": time.perf_counter() - t_run,
                    "timers": snap["timers"],
                    "counters": snap["counters"],
                    "gauges": snap["gauges"],
                }
            )
    finally:
        if monitor is not None:
            monitor.stop()
        if run_journal is not None:
            run_journal.close()
    return result


def _check_config_matches(cfg: GreedyConfig, state) -> None:
    """Resuming with a different config would silently diverge: refuse."""
    from ..parallel.checkpoint import CheckpointError, greedy_config_from

    ours = asdict(cfg)
    theirs = asdict(greedy_config_from(state.config))
    diffs = [
        f"{k}: given={ours[k]!r} checkpoint={theirs[k]!r}"
        for k in ours
        if k in state.config and ours[k] != theirs[k]
    ]
    if diffs:
        raise CheckpointError(
            f"{state.path}: config does not match the checkpointed run "
            f"({'; '.join(diffs)}); pass config=None to adopt the "
            f"checkpoint's config"
        )


def _rebuild_complete_result(
    circuit: Circuit,
    cfg: GreedyConfig,
    state,
    replay,
    maximum: float,
) -> GreedyResult:
    """Reconstruct the finished GreedyResult a complete checkpoint holds."""
    result = GreedyResult(
        original=circuit,
        simplified=replay.current,
        rs_threshold=state.rs_threshold,
        config=cfg,
        faults=list(replay.faults),
        iterations=list(replay.iterations),
        final_metrics=replay.final_metrics,
    )
    if result.final_metrics is None and state.summary is not None:
        s = state.summary
        if s.get("final_er") is not None:
            result.final_metrics = ErrorMetrics(
                er=float(s["final_er"]),
                es=int(s["final_es"]),
                observed_es=int(s["final_es"]),
                rs_maximum=int(maximum),
                num_vectors=state.num_vectors,
                es_mode=cfg.es_mode,
            )
    return result


def _run_greedy(
    circuit: Circuit,
    cfg: GreedyConfig,
    estimator: MetricsEstimator,
    result: GreedyResult,
    threshold: float,
    obs: Instrumentation,
    journal: Optional[JournalTee],
    replay=None,
) -> None:
    """The prepass + greedy loop proper, instrumented and journaled.

    ``replay`` (a :class:`~repro.parallel.checkpoint.ReplayedRun`) drops
    the loop exactly where a killed run stopped; fresh runs pass none.
    """
    journaled_prepass: List[StuckAtFault] = []
    if (
        replay is not None
        and cfg.redundancy_prepass
        and replay.start_iteration == 0
        and not replay.banned
    ):
        # Cut before any greedy event, so possibly inside the prepass's
        # injections.  The prepass is deterministic: re-run it from the
        # original netlist and journal only the injections the
        # checkpoint does not hold yet.
        journaled_prepass, replay = replay.faults, None
    prev = _MetricsCursor()
    start_iteration = 0
    current_rs = 0.0
    reference: Optional[Circuit] = None
    banned: Set[Tuple] = set()
    if replay is not None:
        result.simplified = replay.current
        result.iterations = list(replay.iterations)
        result.faults = list(replay.faults)
        result.final_metrics = replay.final_metrics
        start_iteration = replay.start_iteration
        current_rs = replay.current_rs
        reference = replay.reference
        banned = set(replay.banned)
        prev.er, prev.es, prev.rs = replay.prev_metrics
    current = result.simplified
    use_atpg = cfg.es_mode != "simulated"
    memo = _PreviewMemo(obs)

    if cfg.redundancy_prepass and replay is None:
        with obs.span("prepass"):
            current = _apply_redundancy_prepass(current, cfg, estimator, result)
        done = len(journaled_prepass)
        if result.faults[:done] != journaled_prepass:
            from ..parallel.checkpoint import CheckpointError

            raise CheckpointError(
                "the re-run redundancy prepass does not reproduce the "
                "checkpointed injections"
            )
        for rec in result.iterations[done:]:
            _emit_iteration(journal, rec, prev)
            # Prepass injections are PODEM-proven free: the selection-
            # time prediction is exactly zero ER and ES.
            _emit_calibration(
                journal,
                rec,
                predicted={"er": 0.0, "es": 0,
                           "area_delta": rec.area_delta, "fom": None},
                threshold=threshold,
                exhaustive=cfg.exhaustive,
            )
        if result.faults:
            # Every prepass injection is PODEM-proven function
            # preserving, so the restructured netlist can serve as the
            # good machine for subsequent affected-cone analysis.
            reference = current

    with obs.span("greedy"):
        for iteration in range(start_iteration, cfg.max_iterations):
            counters_base = dict(obs.counters)
            t0 = time.perf_counter()
            with obs.span("candidates"):
                candidates = _candidate_faults(current, cfg)
                candidates = [f for f in candidates if _fault_key(f) not in banned]
            t_candidates = time.perf_counter() - t0
            if not candidates:
                break

            t0 = time.perf_counter()
            with obs.span("rank"):
                scored = _rank_candidates(
                    current, candidates, cfg, estimator, threshold, current_rs,
                    memo=memo,
                )
            t_rank = time.perf_counter() - t0
            committed = False
            evaluated = len(scored)
            t0 = time.perf_counter()
            with obs.span("commit"):
                for fom_value, fault, _sim_rs, pred_er, pred_es, pred_delta in scored:
                    # Build the tentative netlist and take the commit
                    # decision with the configured (conservative) ES.
                    overlay = Overlay(current)
                    try:
                        overlay.apply(fault)
                    except CircuitError:
                        banned.add(_fault_key(fault))
                        _emit_rejection(journal, iteration, fault, "apply_failed")
                        continue
                    tentative = overlay.materialize(current.name)
                    accepted, metrics = estimator.check_rs(
                        threshold,
                        approx=tentative,
                        use_atpg=use_atpg,
                        pow2_es=cfg.pow2_es,
                        structural_reference=reference,
                    )
                    if not accepted:
                        obs.incr("greedy.commits_rejected")
                        banned.add(_fault_key(fault))
                        _emit_rejection(journal, iteration, fault, "rs_exceeded")
                        continue
                    rec = IterationRecord(
                        index=iteration,
                        fault=fault,
                        area_before=current.area(),
                        area_after=tentative.area(),
                        metrics=metrics,
                        fom_value=fom_value,
                        candidates_evaluated=evaluated,
                        phase_times={
                            "candidates": t_candidates,
                            "rank": t_rank,
                            "commit": time.perf_counter() - t0,
                        },
                        counters=obs.counters_since(counters_base),
                    )
                    result.iterations.append(rec)
                    result.faults.append(fault)
                    memo.commit(overlay)
                    current = tentative
                    result.simplified = current
                    current_rs = metrics.rs
                    result.final_metrics = metrics
                    committed = True
                    obs.incr("greedy.commits_accepted")
                    _emit_iteration(journal, rec, prev)
                    _emit_calibration(
                        journal,
                        rec,
                        predicted={
                            "er": pred_er,
                            "es": pred_es,
                            "area_delta": pred_delta,
                            "fom": fom_value if math.isfinite(fom_value) else None,
                        },
                        threshold=threshold,
                        exhaustive=cfg.exhaustive,
                    )
                    break
            if not committed:
                break

    if result.final_metrics is None:
        # Under its own span: the trailing RS check is the last real
        # work of the run, and `repro profile` attributes wall time by
        # top-level span coverage.
        with obs.span("finalize"):
            _ok, result.final_metrics = estimator.check_rs(
                threshold,
                approx=current,
                use_atpg=use_atpg,
                structural_reference=reference,
            )


class _MetricsCursor:
    """Tracks the previous step's ER/ES/RS for journal delta fields."""

    __slots__ = ("er", "es", "rs")

    def __init__(self) -> None:
        self.er = 0.0
        self.es = 0
        self.rs = 0.0


def _emit_iteration(
    journal: Optional[JournalTee], rec: IterationRecord, prev: _MetricsCursor
) -> None:
    """Emit one iteration event; advances the delta cursor either way."""
    m = rec.metrics
    if journal is not None:
        journal.emit(
            {
                "event": "iteration",
                "index": rec.index,
                "phase": rec.phase,
                "fault": str(rec.fault),
                "fault_detail": {
                    "signal": rec.fault.line.signal,
                    "gate": rec.fault.line.gate,
                    "pin": rec.fault.line.pin,
                    "value": rec.fault.value,
                },
                "area_before": rec.area_before,
                "area_after": rec.area_after,
                "er": m.er,
                "es": m.es,
                "observed_es": m.observed_es,
                "rs": m.rs,
                "es_mode": m.es_mode,
                "es_bound": m.es_bound,
                "delta_er": m.er - prev.er,
                "delta_es": m.es - prev.es,
                "delta_rs": m.rs - prev.rs,
                "fom": rec.fom_value if math.isfinite(rec.fom_value) else None,
                "candidates_evaluated": rec.candidates_evaluated,
                "phase_times": rec.phase_times,
                "counters": rec.counters,
            }
        )
    prev.er, prev.es, prev.rs = m.er, m.es, m.rs


def _emit_calibration(
    journal: Optional[JournalTee],
    rec: IterationRecord,
    predicted: Optional[Dict],
    threshold: float,
    exhaustive: bool,
) -> None:
    """Journal the v3 calibration event for one committed step: the
    selection-time prediction next to the realized commit measurement,
    with the ER confidence interval and the budget-risk flag."""
    if journal is None:
        return
    from ..obs.quality import calibration_event

    journal.emit(
        calibration_event(
            index=rec.index,
            fault=str(rec.fault),
            metrics=rec.metrics,
            area_delta=rec.area_delta,
            rs_threshold=threshold,
            predicted=predicted,
            exact=exhaustive,
        )
    )


def _emit_rejection(
    journal: Optional[JournalTee], iteration: int, fault: StuckAtFault, reason: str
) -> None:
    """Journal a commit-phase rejection (needed to resume bit-identically:
    the banned set must survive a process death, or a resumed run could
    re-accept a fault the original run had ruled out)."""
    if journal is not None:
        journal.emit(
            {
                "event": "rejection",
                "index": iteration,
                "fault": str(fault),
                "fault_detail": {
                    "signal": fault.line.signal,
                    "gate": fault.line.gate,
                    "pin": fault.line.pin,
                    "value": fault.value,
                },
                "reason": reason,
            }
        )


# ----------------------------------------------------------------------
# internals
# ----------------------------------------------------------------------
def _apply_redundancy_prepass(
    current: Circuit,
    cfg: GreedyConfig,
    estimator: MetricsEstimator,
    result: GreedyResult,
) -> Circuit:
    """Inject PODEM-proven redundant candidate faults (free area).

    The collapsed candidate classes first pass a random-pattern screen
    (:func:`_prescreen_survivors`): a class the screen detects is
    testable, so PODEM runs only on the undetected few.  Each proven
    fault is then applied one at a time and re-validated by a
    differential simulation against the original (ER must stay exactly
    0 on the batch): injecting one redundancy can, in principle, turn a
    structurally different member of the remaining set non-redundant.
    """
    from ..atpg.podem import AtpgStatus, Podem
    from ..faults.collapse import collapse_faults

    candidates = _candidate_faults(current, cfg)
    if not candidates:
        return current
    classes = collapse_faults(current, candidates)
    survivors = _prescreen_survivors(current, classes, cfg.seed, estimator.obs)

    podem = Podem(
        current, backtrack_limit=cfg.prepass_backtrack_limit, obs=estimator.obs
    )
    redundant: List[StuckAtFault] = []
    for rep, members in survivors:
        if podem.run(rep).status is AtpgStatus.REDUNDANT:
            # any member is behaviourally identical; keep the one that
            # frees the most area
            best = max(members, key=lambda f: _safe_preview(current, f))
            redundant.append(best)
    redundant.sort(key=lambda f: -_safe_preview(current, f))
    revalidate = False  # first injection is already proven on `current`
    for fault in redundant:
        overlay = Overlay(current)
        try:
            overlay.apply(fault)
        except CircuitError:
            continue
        if overlay.area_delta() <= 0:
            continue
        if revalidate:
            # Earlier injections rewrote the netlist; re-prove the fault
            # redundant on the *current* circuit so that the chain of
            # injections is exactly function-preserving (this is what
            # lets the result serve as a structural reference later).
            if not current.has_signal(fault.line.signal):
                continue
            recheck = Podem(
                current,
                backtrack_limit=cfg.prepass_backtrack_limit,
                obs=estimator.obs,
            )
            if recheck.run(fault).status is not AtpgStatus.REDUNDANT:
                continue
        tentative = overlay.materialize(current.name)
        er, observed = estimator.simulate(approx=tentative)
        if er > 0.0 or observed > 0:
            continue  # defensive: the proof chain should prevent this
        result.iterations.append(
            IterationRecord(
                index=len(result.iterations),
                fault=fault,
                area_before=current.area(),
                area_after=tentative.area(),
                metrics=ErrorMetrics(
                    er=0.0,
                    es=0,
                    observed_es=0,
                    rs_maximum=estimator.rs_maximum,
                    num_vectors=estimator.num_vectors,
                    es_mode="redundant",
                ),
                fom_value=float("inf"),
                candidates_evaluated=len(redundant),
                phase="prepass",
            )
        )
        result.faults.append(fault)
        current = tentative
        result.simplified = current
        revalidate = True
    return current


#: Vectors in the prepass's random-pattern screen.
PRESCREEN_VECTORS = 256


def _prescreen_survivors(
    circuit: Circuit,
    classes: FaultClasses,
    seed: int,
    obs: Instrumentation,
) -> List[Tuple[StuckAtFault, List[StuckAtFault]]]:
    """The ``(representative, members)`` fault classes that a batch of
    :data:`PRESCREEN_VECTORS` random vectors does not detect, in class
    order.

    Any class the batch detects is provably testable.  One cone-replay
    batch simulates every representative as a single fault against the
    same baseline, for detection only (no value outputs); its cone
    plans go with the simulator when this returns.
    """
    import numpy as np

    from ..simulation.batchfaultsim import BatchFaultSimulator
    from ..simulation.vectors import random_vectors

    vectors = random_vectors(
        len(circuit.inputs), PRESCREEN_VECTORS, np.random.default_rng(seed + 7)
    )
    bsim = BatchFaultSimulator(circuit, value_outputs=(), obs=obs)
    bsim.load_batch(vectors)
    reps = list(classes.members)
    return [
        (st.fault, classes.members[st.fault])
        for st in bsim.evaluate(reps)
        if st.detected_count == 0
    ]


def _safe_preview(circuit: Circuit, fault: StuckAtFault) -> int:
    try:
        return preview_area_reduction(circuit, fault)
    except CircuitError:
        return -1


class _PreviewMemo:
    """Area previews of one run, kept across greedy iterations.

    An entry is a fault's :func:`preview_area_reduction` on the current
    netlist (``None`` when the injection fails) with the names the
    preview read.  A commit changes exactly the names its overlay wrote
    (:meth:`Overlay.writes`), so :meth:`commit` drops the entries whose
    reads meet them and keeps the rest: a kept preview would compute the
    same value on the committed netlist.  Hits and misses count into
    ``obs`` (``greedy.preview_memo_hits``/``misses``).
    """

    def __init__(self, obs: Optional[Instrumentation] = None) -> None:
        self.obs = obs if obs is not None else get_active()
        self._entries: Dict[Tuple, Tuple[Optional[int], Tuple[str, ...]]] = {}

    def preview(self, circuit: Circuit, fault: StuckAtFault) -> Optional[int]:
        key = _fault_key(fault)
        entry = self._entries.get(key)
        if entry is not None:
            self.obs.incr("greedy.preview_memo_hits")
            return entry[0]
        self.obs.incr("greedy.preview_memo_misses")
        reads: Set[str] = set()
        try:
            delta: Optional[int] = preview_area_reduction(circuit, fault, reads=reads)
        except CircuitError:
            delta = None  # e.g. a stem fault contradicting an existing constant
        self._entries[key] = (delta, tuple(reads))
        return delta

    def commit(self, overlay: Overlay) -> None:
        """Forget the previews the committed ``overlay`` can change."""
        written = overlay.writes()
        self._entries = {
            key: entry for key, entry in self._entries.items()
            if written.isdisjoint(entry[1])
        }


def _fault_key(fault: StuckAtFault) -> Tuple:
    return (fault.line.signal, fault.line.gate, fault.line.pin, fault.value)


def _candidate_faults(circuit: Circuit, cfg: GreedyConfig) -> List[StuckAtFault]:
    # Without control outputs every line is datapath.
    if cfg.datapath_only and circuit.control_outputs:
        return datapath_faults(circuit, include_branches=cfg.include_branches)
    return enumerate_faults(circuit, include_branches=cfg.include_branches)


def _reachable_weight(circuit: Circuit) -> Dict[str, int]:
    """For every signal, the summed ``|weight|`` of data outputs it reaches.

    This is the structural upper bound on the ES any fault at that line
    can cause, computed in one reverse-topological sweep.
    """
    value_outputs = circuit.value_outputs
    masks: Dict[str, int] = {s: 0 for s in circuit.signals()}
    for i, o in enumerate(value_outputs):
        masks[o] |= 1 << i
    order = circuit.topological_order()
    fan = circuit.fanout_map()
    for name in reversed(order):
        m = masks[name]
        for g, _pin in fan.get(name, ()):
            m |= masks[g]
        masks[name] = m
    for pi in circuit.inputs:
        m = masks[pi]
        for g, _pin in fan.get(pi, ()):
            m |= masks[g]
        masks[pi] = m
    wlist = [abs(w) for w in circuit.weights_of(value_outputs)]
    out: Dict[str, int] = {}
    for s, m in masks.items():
        total = 0
        i = 0
        while m:
            if m & 1:
                total += wlist[i]
            m >>= 1
            i += 1
        out[s] = total
    return out


def _rank_candidates(
    current: Circuit,
    candidates: Sequence[StuckAtFault],
    cfg: GreedyConfig,
    estimator: MetricsEstimator,
    threshold: float,
    current_rs: float,
    memo: Optional[_PreviewMemo] = None,
) -> List[Tuple[float, StuckAtFault, float, float, int, int]]:
    """Score candidates; sorted best first.

    Each entry is ``(fom, fault, simulated_rs, er, observed_es,
    area_delta)`` -- the trailing triple is the selection-time
    *prediction* the calibration events pair with the realized commit
    measurement.  ``memo`` carries the run's area previews of
    ``current`` (a fresh one by default).
    """
    memo = memo if memo is not None else _PreviewMemo(estimator.obs)
    # Phase 1: structural proxy ranking (cheap) to pick the shortlist.
    with estimator.obs.span("proxy"):
        reach = _reachable_weight(current)
        proxied: List[Tuple[float, int, StuckAtFault]] = []
        for f in candidates:
            delta = memo.preview(current, f)
            if delta is None or delta <= 0:
                continue
            wbound = reach.get(f.line.signal, 0)
            if cfg.fom == "area":
                proxy = float(delta)
            else:
                proxy = delta / (wbound + 1.0)
            proxied.append((proxy, delta, f))
        proxied.sort(key=lambda t: -t[0])
    shortlist = proxied if cfg.candidate_limit is None else proxied[: cfg.candidate_limit]

    # Phase 2: exact simulation-based scoring of the shortlist.  Batch
    # fault simulation yields, per fault, the (ER, observed-ES) pair one
    # estimator.simulate call would, replaying only the fault's fanout
    # cone; faults whose running RS lower bound already exceeds the
    # threshold are dropped mid-batch (they would be skipped below
    # anyway).
    eps = max(estimator.rs_maximum * 1e-15, 1e-12)
    stats = estimator.simulate_faults(
        [f for _proxy, _delta, f in shortlist],
        approx=current,
        rs_drop_threshold=threshold,
    )
    # Feeds the telemetry monitor's candidates_per_s throughput gauge.
    estimator.obs.incr("greedy.candidates_scored", len(shortlist))
    scored: List[Tuple[float, StuckAtFault, float, float, int, int]] = []
    for (_proxy, delta, f), st in zip(shortlist, stats):
        er, observed = st.error_rate, st.max_abs_deviation
        sim_rs = er * observed
        if st.dropped or sim_rs > threshold:
            continue  # the conservative ES can only be larger
        if cfg.fom == "area":
            fom = float(delta)
        else:
            fom = delta / max(sim_rs - current_rs, eps)
        scored.append((fom, f, sim_rs, er, observed, delta))
    scored.sort(key=lambda t: -t[0])
    return scored
