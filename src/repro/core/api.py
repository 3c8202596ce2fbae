"""Top-level orchestration API.

The one-call entry point is a :class:`SimplifyRequest` -- a frozen,
JSON-serializable description of *everything* a simplification run
needs (budget, estimator knobs, FOM policy, durability) --
whose :meth:`~SimplifyRequest.run` method returns a
:class:`SimplifyOutcome` wrapping the winning
:class:`~repro.simplify.greedy.GreedyResult` with report / verify /
save helpers::

    outcome = SimplifyRequest(rs_pct_threshold=1.0).run(circuit)
    print(outcome.report())
    outcome.save("approx.bench")

``fom="best"`` (the default) reproduces the paper's experimental
methodology: both figures of merit are tried and the better result is
kept ("we use FOM as (area reduction/RS) or (area reduction) and
report better result").  When the first FOM run exhausts the RS budget
exactly, the second run is skipped (counter
``api.fom_runs_skipped``): no further commit could be accepted, so
re-running cannot find a larger reduction.

Both payloads carry a ``schema_version`` field in their JSON forms
(:data:`SCHEMA_VERSION`).  Readers accept the current version and
older ones and reject payloads written by a *newer* schema with a
clear upgrade error -- the same policy the run journal uses -- so a
stored request/outcome is always either readable or loudly
unreadable, never silently misread.  Validation failures raise
:class:`~repro.core.errors.InvalidRequestError` (a
:class:`ValueError` subclass) from the typed error taxonomy
(:mod:`repro.core.errors`).

The pre-1.0 keyword API (``simplify_for_error_tolerance``, deprecated
since 1.0) has been removed; see README.md for the migration table.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
import numbers
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..circuit import Circuit, dump_bench, dumps_bench, loads_bench
from ..faults.model import fault_detail
from ..metrics.errors import ErrorMetrics, rs_max
from ..metrics.estimate import MetricsEstimator
from ..obs.core import get_active
from ..simplify.greedy import (
    GreedyConfig,
    GreedyResult,
    IterationRecord,
    circuit_simplify,
)
from .errors import InvalidRequestError, UnsupportedSchemaVersionError

__all__ = [
    "SCHEMA_VERSION",
    "SimplifyRequest",
    "SimplifyOutcome",
    "simplify",
    "verify_simplification",
    "format_report",
    "journal_paths",
]

#: Version of the JSON wire schema shared by :class:`SimplifyRequest`
#: and :class:`SimplifyOutcome`.  Bump it when a round-trip field is
#: added or its meaning changes; readers accept <= this and reject >.
SCHEMA_VERSION = 2

#: Request fields that do not change the mathematical outcome of a run
#: -- the retired ``workers`` count (accepted and type-checked, read by
#: nothing: every run scores in one process) and the journal path.
#: They are excluded from :meth:`SimplifyRequest.fingerprint`, so two
#: submissions differing only here share one result-cache entry.
_NON_SEMANTIC_FIELDS = ("workers", "journal")

#: Retired request fields, dropped on load so stored payloads carrying
#: them still load and the value is ignored.  ``engine`` and
#: ``use_batch_ranking`` each chose between two bit-identical code paths
#: that no longer both exist (the per-gate or compiled simulator;
#: per-candidate or batch fault simulation for ranking);
#: ``telemetry_interval`` set the period of a resource sampler that no
#: longer exists, and ``trace_id`` was a correlation id the job id
#: replaced.  None of them changed a result, so fingerprints do not move.
_RETIRED_FIELDS = ("engine", "use_batch_ranking", "telemetry_interval", "trace_id")

#: Request fields by type, checked by :meth:`SimplifyRequest.__post_init__`.
_INT_FIELDS = (
    "num_vectors",
    "seed",
    "max_iterations",
    "atpg_node_limit",
    "prepass_backtrack_limit",
)
_OPTIONAL_INT_FIELDS = ("candidate_limit", "workers")
#: Count fields a negative value would silently misread (a negative
#: ``candidate_limit`` slices off the end of the shortlist).
_COUNT_FIELDS = (
    "candidate_limit",
    "max_iterations",
    "atpg_node_limit",
    "prepass_backtrack_limit",
)
_BOOL_FIELDS = (
    "datapath_only",
    "include_branches",
    "exhaustive",
    "pow2_es",
    "redundancy_prepass",
)


def _int_field(name: str, value: Any) -> int:
    """``value`` as a Python int; numpy integers pass, bools do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidRequestError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real_field(name: str, value: Any) -> Any:
    """A finite real ``>= 0``, numpy scalars as the Python number they
    equal; bools are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidRequestError(f"{name} must be a number, got {value!r}")
    if not isinstance(value, (int, float)):
        value = float(value)
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite or value < 0:
        raise InvalidRequestError(
            f"{name} must be a finite non-negative number, got {value!r}"
        )
    return value


def _check_schema_version(what: str, version: Any) -> None:
    """Enforce the shared accept-current-and-older version policy.

    ``None`` (a payload written before the field existed) is treated
    as version 1 -- the wire shape is unchanged, only the marker is
    new -- so pre-1.1 stored requests stay loadable.
    """
    if version is None:
        return
    if not isinstance(version, int) or isinstance(version, bool):
        raise InvalidRequestError(
            f"{what} has a non-integer schema_version {version!r}"
        )
    if version < 1:
        raise InvalidRequestError(
            f"{what} has an invalid schema_version {version}"
        )
    if version > SCHEMA_VERSION:
        raise UnsupportedSchemaVersionError(
            f"unsupported {what} schema_version {version} "
            f"(this build reads up to v{SCHEMA_VERSION}); "
            f"upgrade repro to read this {what}"
        )


def _circuit_to_dict(circuit: Circuit) -> Dict[str, Any]:
    """JSON form of a circuit: bench text plus the annotations the
    ``.bench`` format cannot carry (weights, data flags)."""
    return {
        "name": circuit.name,
        "bench": dumps_bench(circuit),
        "output_weights": {o: int(w) for o, w in circuit.output_weights.items()},
        "data_outputs": list(circuit.data_outputs),
    }


def _circuit_from_dict(data: Dict[str, Any]) -> Circuit:
    try:
        circuit = loads_bench(data["bench"], name=data.get("name", "bench_circuit"))
        for o, w in (data.get("output_weights") or {}).items():
            circuit.output_weights[o] = int(w)
        data_outputs = data.get("data_outputs")
        if data_outputs is not None:
            circuit.data_outputs = [o for o in circuit.outputs if o in set(data_outputs)]
        return circuit
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidRequestError(f"bad circuit payload: {exc}") from exc


def _metrics_to_dict(metrics: Optional[ErrorMetrics]) -> Optional[Dict[str, Any]]:
    if metrics is None:
        return None
    return {
        "er": metrics.er,
        "es": metrics.es,
        "rs_maximum": metrics.rs_maximum,
        "num_vectors": metrics.num_vectors,
        "es_bound": metrics.es_bound,
    }


def _metrics_from_dict(data: Optional[Dict[str, Any]]) -> Optional[ErrorMetrics]:
    """Inverse of :func:`_metrics_to_dict`.  Payloads stored by older
    builds also carry ``observed_es`` (always equal to ``es``) and
    ``es_mode`` (restated by the iteration's ``phase``): both are
    ignored."""
    if data is None:
        return None
    try:
        return ErrorMetrics(
            er=float(data["er"]),
            es=int(data["es"]),
            rs_maximum=int(data["rs_maximum"]),
            num_vectors=int(data["num_vectors"]),
            es_bound=None if data.get("es_bound") is None else int(data["es_bound"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidRequestError(f"bad metrics payload: {exc}") from exc


def _iteration_to_dict(rec: IterationRecord) -> Dict[str, Any]:
    return {
        "index": rec.index,
        "fault": fault_detail(rec.fault),
        "area_before": rec.area_before,
        "area_after": rec.area_after,
        "metrics": _metrics_to_dict(rec.metrics),
        # JSON has no Infinity literal; the journal uses null for the
        # prepass "free commit" FOM and so does this payload.
        "fom_value": None if math.isinf(rec.fom_value) else rec.fom_value,
        "candidates_evaluated": rec.candidates_evaluated,
        "phase": rec.phase,
    }


def _iteration_from_dict(data: Dict[str, Any]) -> IterationRecord:
    from ..parallel.checkpoint import fault_from_detail

    try:
        return IterationRecord(
            index=int(data["index"]),
            fault=fault_from_detail(data["fault"]),
            area_before=int(data["area_before"]),
            area_after=int(data["area_after"]),
            metrics=_metrics_from_dict(data["metrics"]),
            fom_value=(
                float("inf") if data.get("fom_value") is None
                else float(data["fom_value"])
            ),
            candidates_evaluated=int(data["candidates_evaluated"]),
            phase=str(data.get("phase", "greedy")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidRequestError(f"bad iteration payload: {exc}") from exc

logger = logging.getLogger("repro.core")

_FOMS = ("best", "area", "area_per_rs")
_WEIGHTS = ("netlist", "unit", "binary")

# GreedyConfig fields that SimplifyRequest mirrors one-to-one.
_GREEDY_FIELDS = (
    "num_vectors",
    "seed",
    "candidate_limit",
    "datapath_only",
    "include_branches",
    "max_iterations",
    "atpg_node_limit",
    "exhaustive",
    "pow2_es",
    "redundancy_prepass",
    "prepass_backtrack_limit",
)


@dataclass(frozen=True)
class SimplifyRequest:
    """A complete, immutable description of one simplification run.

    Exactly one of ``rs_threshold`` (absolute) or ``rs_pct_threshold``
    (percent of the circuit's RS_max, as in Table II) must be set.

    ``fom="best"`` runs both paper FOMs and keeps the better result;
    ``"area"`` / ``"area_per_rs"`` pin a single FOM.  The estimator
    knobs mirror :class:`~repro.simplify.greedy.GreedyConfig`
    one-to-one.  ``weights`` controls output weighting applied to a
    *copy* of the circuit before the run: ``"netlist"`` uses the
    circuit as given, ``"unit"`` forces every data output to weight 1,
    ``"binary"`` weighs output bit *i* as ``2**i``.

    ``workers`` is retired: it is accepted and type-checked so stored
    requests still load, but every run scores in one process and
    nothing reads it.  ``journal`` streams every
    event of the run to a JSONL file that is also its checkpoint: a
    rerun on the same path resumes a killed run bit-identically
    (:mod:`repro.parallel.checkpoint`; ``fom="best"`` writes one file
    per FOM, see :func:`journal_paths`).

    The request serializes to JSON (:meth:`to_json` /
    :meth:`from_json`) so a run's full configuration can be stored
    next to its outputs and replayed later.
    """

    rs_threshold: Optional[float] = None
    rs_pct_threshold: Optional[float] = None
    fom: str = "best"
    num_vectors: int = 10_000
    seed: int = 0
    candidate_limit: Optional[int] = 200
    datapath_only: bool = True
    include_branches: bool = True
    max_iterations: int = 10_000
    atpg_node_limit: int = 4_000
    exhaustive: bool = False
    pow2_es: bool = False
    redundancy_prepass: bool = False
    prepass_backtrack_limit: int = 500
    weights: str = "netlist"
    workers: Optional[int] = None
    journal: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.rs_threshold is None) == (self.rs_pct_threshold is None):
            raise InvalidRequestError(
                "give exactly one of rs_threshold / rs_pct_threshold"
            )
        # Field types, so a malformed payload fails here and not
        # mid-run.  Numpy scalars become the Python values they equal;
        # Python values are kept as given, so fingerprints do not move.
        checked: Dict[str, Any] = {}
        for name in ("rs_threshold", "rs_pct_threshold"):
            if getattr(self, name) is not None:
                checked[name] = _real_field(name, getattr(self, name))
        for name in _INT_FIELDS:
            checked[name] = _int_field(name, getattr(self, name))
        for name in _OPTIONAL_INT_FIELDS:
            if getattr(self, name) is not None:
                checked[name] = _int_field(name, getattr(self, name))
        for name in _BOOL_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, (bool, np.bool_)):
                raise InvalidRequestError(f"{name} must be true or false, got {value!r}")
            checked[name] = bool(value)
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        for name in _COUNT_FIELDS:
            value = getattr(self, name)
            if value is not None and value < 0:
                raise InvalidRequestError(
                    f"{name} must be non-negative, got {value!r}"
                )
        if self.journal is not None and not isinstance(self.journal, (str, os.PathLike)):
            raise InvalidRequestError(
                f"journal must be a path string, got {self.journal!r}"
            )
        if self.fom not in _FOMS:
            raise InvalidRequestError(
                f"fom must be one of {_FOMS}, got {self.fom!r}"
            )
        if self.weights not in _WEIGHTS:
            raise InvalidRequestError(
                f"weights must be one of {_WEIGHTS}, got {self.weights!r}"
            )
        if self.num_vectors <= 0:
            raise InvalidRequestError("num_vectors must be positive")
        if self.seed < 0:
            raise InvalidRequestError("seed must be non-negative")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_cli_args(cls, args: Any, **overrides: Any) -> "SimplifyRequest":
        """Build a request from the greedy options of an argparse
        namespace (``repro simplify``, ``submit`` and ``table2``);
        ``overrides`` win."""
        fields: Dict[str, Any] = dict(
            rs_threshold=getattr(args, "rs", None),
            rs_pct_threshold=getattr(args, "rs_pct", None),
            fom=getattr(args, "fom", "best"),
            num_vectors=getattr(args, "vectors", 10_000),
            seed=getattr(args, "seed", 0),
            candidate_limit=getattr(args, "candidate_limit", 200),
            exhaustive=getattr(args, "exhaustive", False),
            redundancy_prepass=not getattr(args, "no_prepass", False),
            pow2_es=getattr(args, "pow2_es", False),
            weights=getattr(args, "weights", "netlist"),
            journal=getattr(args, "journal", None),
        )
        fields.update(overrides)
        return cls(**fields)

    @classmethod
    def from_json(cls, text: str) -> "SimplifyRequest":
        """Inverse of :meth:`to_json`; unknown keys are rejected."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidRequestError(f"request is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: Any) -> "SimplifyRequest":
        """Build a request from an already-parsed JSON object.

        ``schema_version`` follows the journal-version policy: absent
        (pre-versioned writers) and <= :data:`SCHEMA_VERSION` are
        accepted, newer versions are rejected with an upgrade hint.
        Unknown keys are rejected -- a field this build has never heard
        of means the payload is newer or wrong, and either way it must
        not be silently dropped.  The exceptions are the
        :data:`_RETIRED_FIELDS`: stored requests that carry them still
        load.  A retired ``checkpoint`` path loads as ``journal`` (the
        journal is the checkpoint; when both are set ``checkpoint``
        wins, because it holds the resumable history).  The retired
        ``es_mode`` is checked and dropped: ``"hybrid"`` and ``"atpg"``
        ran the one commit rule this build runs (a threshold ES-ATPG
        query); any other value (``"simulated"`` skipped the ATPG) names
        a run no build reproduces and raises
        :class:`~repro.core.errors.InvalidRequestError`.
        """
        if not isinstance(data, dict):
            raise InvalidRequestError("request JSON must be an object")
        data = dict(data)
        _check_schema_version("request", data.pop("schema_version", None))
        for key in _RETIRED_FIELDS:
            data.pop(key, None)
        checkpoint = data.pop("checkpoint", None)
        if checkpoint is not None:
            data["journal"] = checkpoint
        es_mode = data.pop("es_mode", "hybrid")
        if es_mode not in ("hybrid", "atpg"):
            raise InvalidRequestError(
                f"es_mode {es_mode!r} is retired: every run commits on a "
                f"threshold ES-ATPG query (stored 'hybrid' or 'atpg' loads)"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise InvalidRequestError(
                f"unknown request field(s): {', '.join(unknown)}"
            )
        try:
            return cls(**data)
        except TypeError as exc:
            raise InvalidRequestError(f"bad request payload: {exc}") from exc

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    def replace(self, **changes: Any) -> "SimplifyRequest":
        """A copy of this request with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def greedy_config(self, fom: Optional[str] = None) -> GreedyConfig:
        """The :class:`GreedyConfig` for one constituent greedy run.

        ``fom="best"`` is a run *policy*, not a greedy FOM; resolving
        it here picks ``"area_per_rs"`` (callers that run both FOMs
        pass each one explicitly).
        """
        resolved = fom if fom is not None else self.fom
        if resolved == "best":
            resolved = "area_per_rs"
        return GreedyConfig(
            fom=resolved, **{k: getattr(self, k) for k in _GREEDY_FIELDS}
        )

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-ready form of this request (versioned)."""
        data = dataclasses.asdict(self)
        if data["journal"] is not None:
            data["journal"] = os.fspath(data["journal"])
        data["schema_version"] = SCHEMA_VERSION
        return data

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def fingerprint(self) -> str:
        """Content digest of the *semantic* request fields.

        The :data:`_NON_SEMANTIC_FIELDS` (the retired ``workers``
        count and the journal path) are excluded:
        none of them changes the result, so requests differing only
        there share one result-cache entry.  ``schema_version`` is
        excluded too -- the digest covers run semantics, not wire
        framing.  The digest still covers the retired ``es_mode`` as
        ``"hybrid"``, the rule every run now commits on, so stored
        fingerprints and result-cache keys do not move.
        """
        data = dataclasses.asdict(self)
        for key in _NON_SEMANTIC_FIELDS:
            data.pop(key, None)
        data["es_mode"] = "hybrid"
        canon = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def weighted_circuit(self, circuit: Circuit) -> Circuit:
        """The circuit this request actually optimizes.

        ``weights="netlist"`` returns the caller's circuit untouched;
        the other policies re-weight a *copy* (the caller's object is
        never mutated).
        """
        if self.weights == "netlist":
            return circuit
        weighted = circuit.copy()
        for i, o in enumerate(weighted.outputs):
            weighted.output_weights[o] = (1 << i) if self.weights == "binary" else 1
        return weighted

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, circuit: Circuit, obs=None, progress=None) -> "SimplifyOutcome":
        """Execute this request against ``circuit``.

        ``progress`` attaches a live sink that receives the journal's
        events (usually a :class:`~repro.obs.progress.ProgressReporter`
        drawing the TTY line); with ``fom="best"`` the one sink spans
        both constituent runs.  The caller owns (and closes) the sink.
        """
        return simplify(circuit, self, obs=obs, progress=progress)


@dataclass
class SimplifyOutcome:
    """The result of running a :class:`SimplifyRequest`.

    Wraps the winning :class:`GreedyResult` (``result``) together with
    the request that produced it, every constituent single-FOM run
    (``runs``, one entry per FOM actually executed) and the wall time.
    Delegation properties expose the common fields directly.
    """

    result: GreedyResult
    request: SimplifyRequest
    elapsed_s: float
    runs: Tuple[Tuple[str, GreedyResult], ...] = ()

    # -- delegation -----------------------------------------------------
    @property
    def original(self) -> Circuit:
        return self.result.original

    @property
    def simplified(self) -> Circuit:
        return self.result.simplified

    @property
    def faults(self):
        return self.result.faults

    @property
    def iterations(self):
        return self.result.iterations

    @property
    def final_metrics(self):
        return self.result.final_metrics

    @property
    def area_reduction(self) -> int:
        return self.result.area_reduction

    @property
    def area_reduction_pct(self) -> float:
        return self.result.area_reduction_pct

    @property
    def winning_fom(self) -> str:
        """The FOM of the constituent run that won."""
        for fom, res in self.runs:
            if res is self.result:
                return fom
        return self.result.config.fom

    # -- helpers --------------------------------------------------------
    def report(self) -> str:
        """Human-readable summary (see :func:`format_report`)."""
        return format_report(self.result)

    def verify(
        self,
        num_vectors: int = 20_000,
        seed: int = 12345,
        exhaustive: bool = False,
    ) -> bool:
        """Independent re-measurement with a fresh vector batch."""
        return verify_simplification(
            self.result,
            num_vectors=num_vectors,
            seed=seed,
            exhaustive=exhaustive,
        )

    def save(self, path: Union[str, os.PathLike]) -> None:
        """Write the simplified netlist (format from the extension)."""
        path = os.fspath(path)
        if path.endswith((".v", ".sv")):
            from ..circuit import dump_verilog

            dump_verilog(self.result.simplified, path)
        else:
            dump_bench(self.result.simplified, path)

    # -- serialization ----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The JSON-ready form of this outcome (versioned).

        The winning :class:`GreedyResult` round-trips completely
        (netlists as annotated bench text, faults and iterations
        structurally, like the checkpoint journal); the constituent
        per-FOM runs are summarized rather than duplicated -- each run
        embeds a full circuit pair, and the loser's only queryable
        facts are its headline numbers.
        """
        result = self.result
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "SimplifyOutcome",
            "request": self.request.to_dict(),
            "elapsed_s": self.elapsed_s,
            "winning_fom": self.winning_fom,
            "runs": [
                {
                    "fom": fom,
                    "winner": res is result,
                    "area_reduction": res.area_reduction,
                    "area_reduction_pct": res.area_reduction_pct,
                    "iterations": len(res.iterations),
                    "rs": None if res.final_metrics is None else res.final_metrics.rs,
                }
                for fom, res in self.runs
            ],
            "result": {
                "original": _circuit_to_dict(result.original),
                "simplified": _circuit_to_dict(result.simplified),
                "rs_threshold": result.rs_threshold,
                "config": dataclasses.asdict(result.config),
                "faults": [fault_detail(f) for f in result.faults],
                "iterations": [_iteration_to_dict(r) for r in result.iterations],
                "final_metrics": _metrics_to_dict(result.final_metrics),
            },
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Any) -> "SimplifyOutcome":
        """Rebuild an outcome from :meth:`to_dict` output.

        The reconstructed object carries the winning run only (``runs``
        holds the one winner), which keeps ``winning_fom``, ``report()``
        ``verify()`` and ``save()`` all working on a loaded outcome.
        """
        from ..parallel.checkpoint import fault_from_detail, greedy_config_from

        if not isinstance(data, dict):
            raise InvalidRequestError("outcome JSON must be an object")
        _check_schema_version("outcome", data.get("schema_version"))
        try:
            res = data["result"]
            result = GreedyResult(
                original=_circuit_from_dict(res["original"]),
                simplified=_circuit_from_dict(res["simplified"]),
                rs_threshold=float(res["rs_threshold"]),
                config=greedy_config_from(res.get("config") or {}),
                faults=[fault_from_detail(d) for d in res.get("faults", [])],
                iterations=[_iteration_from_dict(d) for d in res.get("iterations", [])],
                final_metrics=_metrics_from_dict(res.get("final_metrics")),
            )
            request = SimplifyRequest.from_dict(data["request"])
            winning_fom = data.get("winning_fom") or result.config.fom
            return cls(
                result=result,
                request=request,
                elapsed_s=float(data.get("elapsed_s") or 0.0),
                runs=((winning_fom, result),),
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, InvalidRequestError):
                raise
            raise InvalidRequestError(f"bad outcome payload: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "SimplifyOutcome":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidRequestError(f"outcome is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


def simplify(
    circuit: Circuit, request: SimplifyRequest, obs=None, progress=None
) -> SimplifyOutcome:
    """Run a :class:`SimplifyRequest`: the module-level spelling of
    :meth:`SimplifyRequest.run`."""
    obs = obs if obs is not None else get_active()
    target = request.weighted_circuit(circuit)
    threshold = (
        float(request.rs_threshold)
        if request.rs_threshold is not None
        else float(request.rs_pct_threshold) * rs_max(target) / 100.0
    )
    foms = _constituent_foms(request.fom)
    journals = (
        journal_paths(request.journal, request.fom)
        if request.journal is not None
        else [None] * len(foms)
    )

    t0 = time.perf_counter()
    runs = []
    for fom, journal in zip(foms, journals):
        cfg = request.greedy_config(fom)
        result = circuit_simplify(
            target,
            rs_threshold=threshold,
            config=cfg,
            journal=journal,
            obs=obs,
            progress=progress,
        )
        runs.append((fom, result))
        if len(foms) > 1 and fom != foms[-1] and _budget_exhausted(result, threshold):
            # The run consumed the whole RS budget: no commit the other
            # FOM could propose would be accepted, and re-ranking the
            # same candidates cannot free budget, so the second run is
            # provably redundant.
            obs.incr("api.fom_runs_skipped")
            logger.debug(
                "fom=%s exhausted the RS budget (rs=%s of %s); skipping %s",
                fom,
                result.final_metrics.rs if result.final_metrics else None,
                threshold,
                foms[-1],
            )
            break
    best = max((res for _fom, res in runs), key=lambda r: r.area_reduction)
    return SimplifyOutcome(
        result=best,
        request=request,
        elapsed_s=time.perf_counter() - t0,
        runs=tuple(runs),
    )


def _constituent_foms(fom: str) -> Tuple[str, ...]:
    """The single-FOM greedy runs a FOM policy executes, in order."""
    return ("area_per_rs", "area") if fom == "best" else (fom,)


def journal_paths(path: Union[str, os.PathLike], fom: str) -> List[str]:
    """The journal file of each constituent run of a ``fom`` policy, in
    execution order.

    A journal path names one run, so a single-FOM request journals to
    ``path`` itself and ``fom="best"`` suffixes each FOM:
    ``PATH.area_per_rs``, then ``PATH.area``.  Each file only grows, so
    their concatenation is the request's event timeline; the job server
    reads a job's journal through this helper.
    """
    path = os.fspath(path)
    foms = _constituent_foms(fom)
    return [path] if len(foms) == 1 else [f"{path}.{f}" for f in foms]


def _budget_exhausted(result: GreedyResult, threshold: float) -> bool:
    """True when the run's final RS equals the threshold (to within
    float noise): zero remaining budget."""
    if result.final_metrics is None:
        return False
    remaining = threshold - result.final_metrics.rs
    return remaining <= 1e-12 * max(1.0, abs(threshold))


def verify_simplification(
    result: GreedyResult,
    num_vectors: int = 20_000,
    seed: int = 12345,
    exhaustive: bool = False,
) -> bool:
    """Independent re-measurement of a simplification result.

    Uses a *fresh* vector batch (different seed than the optimization
    loop) and returns True when the re-measured RS still satisfies the
    threshold.  With ``exhaustive=True`` the check is exact (small
    circuits only).
    """
    est = MetricsEstimator(
        result.original,
        num_vectors=num_vectors,
        seed=seed,
        exhaustive=exhaustive,
    )
    er, observed = est.simulate(approx=result.simplified)
    return er * observed <= result.rs_threshold * (1.0 + 1e-9)


def format_report(result: GreedyResult) -> str:
    """Render a human-readable summary of a simplification run."""
    orig = result.original
    lines = [
        f"circuit: {orig.name}",
        f"  area: {orig.area()} -> {result.simplified.area()} "
        f"({result.area_reduction_pct:.2f}% reduction)",
        f"  depth: {orig.depth()} -> {result.simplified.depth()}",
        f"  RS threshold: {result.rs_threshold:.6g} "
        f"({100 * result.rs_threshold / rs_max(orig):.4g}% of RS_max {rs_max(orig)})",
        f"  faults injected: {len(result.faults)}",
    ]
    if result.final_metrics is not None:
        lines.append(f"  final metrics: {result.final_metrics}")
    for rec in result.iterations:
        lines.append(
            f"    [{rec.index:3d}] {str(rec.fault):30s} area -{rec.area_delta:<4d} "
            f"ER={rec.metrics.er:.4f} ES={rec.metrics.es} RS={rec.metrics.rs:.4g}"
        )
    return "\n".join(lines)
