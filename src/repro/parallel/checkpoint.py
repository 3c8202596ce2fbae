"""Run-level checkpoint/resume on top of the JSONL run journal.

The run journal (schema version >= 2) *is* the checkpoint: the
``run_start`` header pins the circuit identity, RS threshold and the
full greedy config; every committed step is an ``iteration`` event
whose ``fault_detail`` names the injected fault structurally; every
commit-phase rejection is a ``rejection`` event.  Because the journal
guarantees a readable prefix under process death, a killed run leaves
exactly the state needed to continue it:

* the committed faults are replayed through the Overlay engine (each
  replay step is area-checked against the journaled trajectory, so a
  wrong or modified netlist is rejected instead of silently diverging);
* the greedy loop's banned set is rebuilt from the rejection events --
  this is what makes a resumed run select the *same* remaining fault
  sequence as an uninterrupted run (without it, a previously rejected
  fault could be re-ranked against a later, different netlist and
  accepted);
* scoring continues from the next iteration index, appending to the
  same journal after a ``resume`` marker event.

:func:`resume_from` is the one-call entry point; the greedy loop itself
consumes :func:`maybe_load_checkpoint` / :func:`replay_checkpoint` when
``circuit_simplify`` is handed a ``journal`` path that already holds a
run prefix.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from ..circuit import Circuit
from ..core.errors import CheckpointMismatchError
from ..faults.model import Line, StuckAtFault
from ..metrics.errors import ErrorMetrics
from ..obs.journal import JournalError, load_journal

__all__ = [
    "CheckpointError",
    "CheckpointState",
    "ReplayedRun",
    "fault_detail",
    "fault_from_detail",
    "load_checkpoint",
    "maybe_load_checkpoint",
    "replay_checkpoint",
    "resume_from",
]


logger = logging.getLogger(__name__)


class CheckpointError(CheckpointMismatchError):
    """A checkpoint cannot be loaded, validated, or replayed.

    Part of the typed error taxonomy (:mod:`repro.core.errors`): the
    job server maps it to HTTP 409 with code ``checkpoint_mismatch``.
    Still a :class:`ValueError` subclass for pre-taxonomy callers.
    """


# ----------------------------------------------------------------------
# fault (de)serialization
# ----------------------------------------------------------------------
def fault_detail(fault: StuckAtFault) -> Dict:
    """Structured JSON form of a fault site (the replayable identity)."""
    return {
        "signal": fault.line.signal,
        "gate": fault.line.gate,
        "pin": fault.line.pin,
        "value": fault.value,
    }


def fault_from_detail(detail: Dict) -> StuckAtFault:
    """Inverse of :func:`fault_detail`."""
    try:
        line = Line(detail["signal"], detail.get("gate"), detail.get("pin"))
        return StuckAtFault(line, int(detail["value"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"bad fault_detail {detail!r}: {exc}") from exc


def _fault_key(detail: Dict) -> Tuple:
    """The greedy loop's banned-set key for a journaled fault."""
    return (
        detail.get("signal"),
        detail.get("gate"),
        detail.get("pin"),
        detail.get("value"),
    )


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------
@dataclass
class CheckpointState:
    """Parsed, validated view of one checkpoint file."""

    path: str
    header: Dict
    iteration_events: List[Dict] = field(default_factory=list)
    rejection_events: List[Dict] = field(default_factory=list)
    calibration_events: List[Dict] = field(default_factory=list)
    summary: Optional[Dict] = None
    resumes: int = 0

    @property
    def config(self) -> Dict:
        return self.header["config"]

    @property
    def rs_threshold(self) -> float:
        return float(self.header["rs_threshold"])

    @property
    def num_vectors(self) -> int:
        return int(self.header["num_vectors"])

    @property
    def complete(self) -> bool:
        """True when the journaled run reached its summary event."""
        return self.summary is not None

    def validate_circuit(self, circuit: Circuit) -> None:
        """Reject resuming against a different netlist than the header's.

        The circuit *name* is advisory only -- ``load_bench`` derives it
        from the file stem, so a netlist round-tripped through a
        ``.bench`` file legitimately changes name.  Structural
        mismatches (I/O counts, area) are fatal, and the replay then
        area-checks every committed step against the journal.
        """
        if self.header.get("circuit") != circuit.name:
            logger.warning(
                "%s: checkpoint circuit name %r != %r (continuing; "
                "structure and replay trajectory are still validated)",
                self.path,
                self.header.get("circuit"),
                circuit.name,
            )
        mismatches = []
        for key, got in (
            ("num_inputs", len(circuit.inputs)),
            ("num_outputs", len(circuit.outputs)),
            ("area", circuit.area()),
        ):
            want = self.header.get(key)
            if want != got:
                mismatches.append(f"{key}: checkpoint={want!r} circuit={got!r}")
        if mismatches:
            raise CheckpointError(
                f"{self.path}: checkpoint does not match this circuit "
                f"({'; '.join(mismatches)})"
            )

    def validate_threshold(self, rs_threshold: float) -> None:
        rel = 1e-9 * max(1.0, abs(self.rs_threshold))
        if not math.isclose(rs_threshold, self.rs_threshold, abs_tol=rel):
            raise CheckpointError(
                f"{self.path}: RS threshold {rs_threshold!r} does not match "
                f"checkpointed threshold {self.rs_threshold!r}"
            )


def load_checkpoint(path: Union[str, os.PathLike]) -> CheckpointState:
    """Parse a checkpoint journal into a :class:`CheckpointState`.

    Tolerates the one torn final line an interrupt can leave.  Raises
    :class:`CheckpointError` for files that are not resumable: no
    ``run_start`` header, a pre-v2 schema (no ``fault_detail``), or
    mid-file corruption.
    """
    path = os.fspath(path)
    try:
        events = load_journal(path)
    except FileNotFoundError:
        raise
    except JournalError as exc:
        raise CheckpointError(f"{path}: not a readable checkpoint: {exc}") from exc
    header = next((e for e in events if e.get("event") == "run_start"), None)
    if header is None:
        raise CheckpointError(f"{path}: checkpoint has no run_start header")
    return _state_from_events(path, events, header)


def maybe_load_checkpoint(
    path: Union[str, os.PathLike],
) -> Optional[CheckpointState]:
    """Load a checkpoint if the file holds a usable run prefix.

    Returns ``None`` -- meaning "start fresh" -- when the file does not
    exist, is empty, or holds only a torn first line (the process died
    inside the very first write, so nothing was committed).  Real
    corruption or an unresumable schema still raises
    :class:`CheckpointError`: silently restarting over a file the
    caller believed was a checkpoint would discard their run.
    """
    path = os.fspath(path)
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        return None
    events = _load_events(path)
    if not events:
        return None
    header = next((e for e in events if e.get("event") == "run_start"), None)
    if header is None:
        raise CheckpointError(f"{path}: checkpoint has no run_start header")
    return _state_from_events(path, events, header)


def _load_events(path: str) -> List[Dict]:
    try:
        return load_journal(path)
    except JournalError as exc:
        raise CheckpointError(f"{path}: not a readable checkpoint: {exc}") from exc


def _state_from_events(path: str, events: List[Dict], header: Dict) -> CheckpointState:
    version = header.get("version", 0)
    if version < 2:
        raise CheckpointError(
            f"{path}: journal schema v{version} predates checkpointing "
            f"(v2 adds the fault_detail replay data); rerun without resume"
        )
    state = CheckpointState(path=path, header=header)
    for ev in events:
        etype = ev.get("event")
        if etype == "iteration":
            if "fault_detail" not in ev:
                raise CheckpointError(
                    f"{path}: iteration event without fault_detail "
                    f"(index {ev.get('index')}) -- not resumable"
                )
            state.iteration_events.append(ev)
        elif etype == "rejection":
            state.rejection_events.append(ev)
        elif etype == "calibration":
            # v3 quality observability; replay does not need them, but
            # the audit command reads them through this state, and a
            # truncated trailing calibration event must not poison
            # resume.
            state.calibration_events.append(ev)
        elif etype == "resume":
            state.resumes += 1
        elif etype == "summary":
            state.summary = ev
    return state


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
@dataclass
class ReplayedRun:
    """The greedy-loop state reconstructed from a checkpoint prefix."""

    current: Circuit
    iterations: List  # List[IterationRecord]
    faults: List[StuckAtFault]
    reference: Optional[Circuit]
    banned: Set[Tuple]
    start_iteration: int
    current_rs: float
    final_metrics: Optional[ErrorMetrics]
    prev_metrics: Tuple[float, int, float]  # (er, es, rs) journal delta cursor


def replay_checkpoint(
    circuit: Circuit,
    state: CheckpointState,
    rs_maximum: float,
) -> ReplayedRun:
    """Replay the committed faults through the Overlay engine.

    Each step re-applies the journaled fault to the evolving netlist and
    checks the resulting area against the journaled trajectory -- a
    mismatch means the checkpoint and the circuit (or the engine) have
    diverged, which must fail loudly rather than continue from a wrong
    netlist.
    """
    from ..simplify.engine import Overlay
    from ..simplify.greedy import IterationRecord

    state.validate_circuit(circuit)
    current = circuit.copy()
    iterations: List[IterationRecord] = []
    faults: List[StuckAtFault] = []
    reference: Optional[Circuit] = None
    prepass_seen = False
    last_greedy_index: Optional[int] = None
    final_metrics: Optional[ErrorMetrics] = None
    prev = (0.0, 0, 0.0)

    for ev in state.iteration_events:
        fault = fault_from_detail(ev["fault_detail"])
        if ev["phase"] == "greedy" and prepass_seen and reference is None:
            # Prepass injections are PODEM-proven function preserving;
            # the netlist they produced is the structural reference for
            # all subsequent greedy ATPG queries (mirrors the live run).
            reference = current
        if current.area() != ev["area_before"]:
            raise CheckpointError(
                f"{state.path}: replay diverged at index {ev['index']}: "
                f"area {current.area()} != journaled {ev['area_before']}"
            )
        overlay = Overlay(current)
        try:
            overlay.apply(fault)
        except Exception as exc:
            raise CheckpointError(
                f"{state.path}: journaled fault {fault} no longer applies: {exc}"
            ) from exc
        current = overlay.materialize(current.name)
        if current.area() != ev["area_after"]:
            raise CheckpointError(
                f"{state.path}: replay diverged after {fault}: "
                f"area {current.area()} != journaled {ev['area_after']}"
            )
        metrics = ErrorMetrics(
            er=float(ev["er"]),
            es=int(ev["es"]),
            observed_es=int(ev["observed_es"]),
            rs_maximum=int(rs_maximum),
            num_vectors=state.num_vectors,
            es_mode=ev.get("es_mode", "hybrid"),
            es_bound=ev.get("es_bound"),
        )
        rec = IterationRecord(
            index=ev["index"],
            fault=fault,
            area_before=ev["area_before"],
            area_after=ev["area_after"],
            metrics=metrics,
            fom_value=float("inf") if ev["fom"] is None else float(ev["fom"]),
            candidates_evaluated=ev["candidates_evaluated"],
            phase=ev["phase"],
        )
        iterations.append(rec)
        faults.append(fault)
        prev = (metrics.er, metrics.es, metrics.rs)
        if ev["phase"] == "prepass":
            prepass_seen = True
        else:
            last_greedy_index = ev["index"]
            final_metrics = metrics

    if prepass_seen and reference is None:
        reference = current  # killed after prepass, before any commit

    banned = {_fault_key(ev["fault_detail"]) for ev in state.rejection_events
              if "fault_detail" in ev}
    current_rs = final_metrics.rs if final_metrics is not None else 0.0
    return ReplayedRun(
        current=current,
        iterations=iterations,
        faults=faults,
        reference=reference,
        banned=banned,
        start_iteration=0 if last_greedy_index is None else last_greedy_index + 1,
        current_rs=current_rs,
        final_metrics=final_metrics,
        prev_metrics=prev,
    )


def greedy_config_from(config: Dict):
    """Rebuild a :class:`GreedyConfig` from a journaled config dict.

    Unknown keys (written by a newer schema) are dropped rather than
    fatal; known keys keep their journaled values verbatim, which is
    what pins the resumed run to the original's vector batch and knobs.
    The one exception is ``es_mode="atpg"``, a retired spelling that
    always ran exactly like ``"hybrid"``: it loads as ``"hybrid"``.
    """
    import dataclasses

    from ..simplify.greedy import GreedyConfig

    known = {f.name for f in dataclasses.fields(GreedyConfig)}
    fields = {k: v for k, v in config.items() if k in known}
    if fields.get("es_mode") == "atpg":
        fields["es_mode"] = "hybrid"
    return GreedyConfig(**fields)


# ----------------------------------------------------------------------
# one-call resume
# ----------------------------------------------------------------------
def resume_from(
    circuit: Circuit,
    checkpoint: Union[str, os.PathLike],
    obs=None,
):
    """Continue (or finish reconstructing) a journaled run.

    Loads the run configuration from the journal header -- the caller
    supplies only the original circuit and the path -- replays the
    committed prefix, and runs the greedy loop to completion, appending
    to the same journal.  A journal whose run already completed
    reconstructs the finished :class:`GreedyResult` without re-running
    anything.
    """
    from ..simplify.greedy import circuit_simplify

    state = load_checkpoint(checkpoint)
    return circuit_simplify(
        circuit,
        rs_threshold=state.rs_threshold,
        config=greedy_config_from(state.config),
        journal=checkpoint,
        obs=obs,
    )
