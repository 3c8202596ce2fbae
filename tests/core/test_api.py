"""Top-level API: one-call simplification, verification, reporting."""

import json

import pytest

from repro import (
    GreedyConfig,
    InvalidRequestError,
    SimplifyOutcome,
    SimplifyRequest,
    format_report,
    verify_simplification,
)
from tests.conftest import build_ripple_adder


@pytest.fixture(scope="module")
def outcome():
    ckt = build_ripple_adder(5)
    request = SimplifyRequest(
        rs_pct_threshold=5.0, num_vectors=1500, seed=2, candidate_limit=80
    )
    return request.run(ckt)


@pytest.fixture(scope="module")
def result(outcome):
    return outcome.result


def test_reduction_achieved(result):
    assert result.area_reduction > 0
    assert result.faults


def test_outcome_delegation(outcome):
    assert isinstance(outcome, SimplifyOutcome)
    assert outcome.area_reduction == outcome.result.area_reduction
    assert outcome.simplified is outcome.result.simplified
    assert outcome.faults is outcome.result.faults
    assert outcome.final_metrics is outcome.result.final_metrics
    assert outcome.elapsed_s > 0
    assert outcome.winning_fom in ("area", "area_per_rs")


def test_best_of_both_foms(outcome):
    """fom="best" returns max over the constituent FOM runs."""
    from repro.simplify import circuit_simplify

    result = outcome.result
    assert {f for f, _ in outcome.runs} <= {"area", "area_per_rs"}
    for fom in ("area", "area_per_rs"):
        single = circuit_simplify(
            result.original,
            rs_threshold=result.rs_threshold,
            config=GreedyConfig(
                num_vectors=1500, seed=2, candidate_limit=80, fom=fom
            ),
        )
        assert result.area_reduction >= single.area_reduction


def test_single_fom_request(outcome):
    """Pinning one FOM matches that constituent run exactly."""
    per_fom = dict(outcome.runs)
    if "area" not in per_fom:
        pytest.skip("second FOM run was short-circuited")
    single = outcome.request.replace(fom="area").run(outcome.original)
    assert len(single.runs) == 1
    assert single.result.area_reduction == per_fom["area"].area_reduction


def test_verification(result):
    assert verify_simplification(result, exhaustive=True)


def test_outcome_verify_and_report(outcome):
    assert outcome.verify(exhaustive=True)
    assert outcome.report() == format_report(outcome.result)


def test_outcome_save(outcome, tmp_path):
    from repro.circuit import dumps_bench

    path = tmp_path / "approx.bench"
    outcome.save(path)
    assert path.read_text() == dumps_bench(outcome.simplified)


def test_report_rendering(result):
    text = format_report(result)
    assert result.original.name in text
    assert "area:" in text
    assert "RS threshold" in text
    assert str(len(result.faults)) in text
    # one line per iteration
    assert text.count("ER=") >= len(result.iterations)


def test_weighted_circuit_copies():
    ckt = build_ripple_adder(3)
    before = dict(ckt.output_weights)
    req = SimplifyRequest(rs_pct_threshold=5.0, weights="binary")
    weighted = req.weighted_circuit(ckt)
    assert ckt.output_weights == before  # caller's circuit untouched
    assert weighted.output_weights[weighted.outputs[1]] == 2
    assert req.replace(weights="netlist").weighted_circuit(ckt) is ckt


def test_outcome_json_round_trip(outcome):
    """to_json/from_json preserves the outcome structurally.

    Bench text may re-order gates through a parse cycle, so circuits
    are compared by area/report rather than verbatim text.
    """
    from repro import SCHEMA_VERSION

    loaded = SimplifyOutcome.from_json(outcome.to_json())
    assert loaded.request == outcome.request
    assert loaded.area_reduction == outcome.area_reduction
    assert loaded.simplified.area() == outcome.simplified.area()
    assert loaded.original.area() == outcome.original.area()
    assert loaded.winning_fom == outcome.winning_fom
    assert [str(f) for f in loaded.faults] == [str(f) for f in outcome.faults]
    assert len(loaded.iterations) == len(outcome.iterations)
    assert loaded.final_metrics == outcome.final_metrics
    assert loaded.report() == outcome.report()
    # weights survive (bench text cannot carry them on its own)
    assert loaded.simplified.output_weights == outcome.simplified.output_weights
    data = json.loads(outcome.to_json())
    assert data["schema_version"] == SCHEMA_VERSION
    assert data["kind"] == "SimplifyOutcome"
    # the per-FOM run summaries name exactly the executed runs
    assert [r["fom"] for r in data["runs"]] == [f for f, _ in outcome.runs]
    assert sum(r["winner"] for r in data["runs"]) == 1


@pytest.mark.parametrize(
    "field, value",
    [
        ("telemetry_interval", 0.5),
        ("telemetry_interval", None),
        ("trace_id", "deploy-42"),
        ("trace_id", None),
    ],
)
def test_stored_retired_fields_load_and_fingerprint_the_same(
    outcome, field, value
):
    """Requests and outcomes stored while the resource sampler or the
    correlation ids existed carry ``telemetry_interval`` or
    ``trace_id``; they are ignored on load, so the payloads load and
    keep their result-cache key."""
    stored = dict(outcome.request.to_dict(), **{field: value})
    request = SimplifyRequest.from_dict(stored)
    assert request == outcome.request
    assert request.fingerprint() == outcome.request.fingerprint()
    assert field not in request.to_dict()

    data = json.loads(outcome.to_json())
    data["request"][field] = value
    loaded = SimplifyOutcome.from_json(json.dumps(data))
    assert loaded.request.fingerprint() == outcome.request.fingerprint()
    assert [str(f) for f in loaded.faults] == [str(f) for f in outcome.faults]


@pytest.mark.parametrize("es_mode", ["hybrid", "atpg"])
def test_stored_outcome_es_mode_loads_and_fingerprints_the_same(outcome, es_mode):
    """Outcomes (and result-cache entries, which are outcome JSON)
    stored while ``es_mode`` existed carry it in the request and the
    result config.  ``"hybrid"`` and ``"atpg"`` ran the one commit
    rule, so they load, and the result-cache key does not move."""
    data = json.loads(outcome.to_json())
    data["request"]["es_mode"] = es_mode
    data["result"]["config"]["es_mode"] = es_mode
    loaded = SimplifyOutcome.from_json(json.dumps(data))
    assert loaded.request == outcome.request
    assert loaded.request.fingerprint() == outcome.request.fingerprint()
    assert loaded.result.config == outcome.result.config
    assert loaded.final_metrics == outcome.final_metrics


def test_stored_outcome_with_retired_metric_fields_loads(outcome):
    """Outcomes (and result-cache entries) stored while ``ErrorMetrics``
    had ``observed_es`` (always equal to ``es``) and ``es_mode``
    (restated by the iteration's ``phase``) carry both in every metrics
    payload.  They are ignored: the outcome loads equal to a fresh one."""
    data = json.loads(outcome.to_json())
    res = data["result"]
    stored = [(res["final_metrics"], "hybrid")] + [
        (it["metrics"], "redundant" if it["phase"] == "prepass" else "hybrid")
        for it in res["iterations"]
    ]
    for metrics, es_mode in stored:
        assert "observed_es" not in metrics and "es_mode" not in metrics
        metrics.update(observed_es=metrics["es"], es_mode=es_mode)
    loaded = SimplifyOutcome.from_json(json.dumps(data))
    fresh = SimplifyOutcome.from_json(outcome.to_json())
    assert loaded.to_json() == fresh.to_json()
    assert loaded.final_metrics == outcome.final_metrics
    assert [r.metrics for r in loaded.iterations] == [
        r.metrics for r in outcome.iterations
    ]


@pytest.mark.parametrize("where", ["request", "config"])
def test_stored_outcome_that_skipped_the_atpg_is_refused(outcome, where):
    """An outcome of an ``es_mode="simulated"`` run committed without
    the ES-ATPG: no build reproduces it, so it does not load."""
    data = json.loads(outcome.to_json())
    target = data["request"] if where == "request" else data["result"]["config"]
    target["es_mode"] = "simulated"
    with pytest.raises(InvalidRequestError, match="es_mode"):
        SimplifyOutcome.from_json(json.dumps(data))


def test_outcome_loaded_verify_and_save(outcome, tmp_path):
    loaded = SimplifyOutcome.from_json(outcome.to_json())
    assert loaded.verify(exhaustive=True)
    loaded.save(tmp_path / "loaded.bench")
    assert (tmp_path / "loaded.bench").exists()


def test_outcome_rejects_newer_schema(outcome):
    from repro import SCHEMA_VERSION, UnsupportedSchemaVersionError

    data = outcome.to_dict()
    data["schema_version"] = SCHEMA_VERSION + 1
    with pytest.raises(UnsupportedSchemaVersionError):
        SimplifyOutcome.from_dict(data)


def test_outcome_rejects_garbage():
    with pytest.raises(ValueError):
        SimplifyOutcome.from_json("not json")
    with pytest.raises(ValueError):
        SimplifyOutcome.from_json("[]")
    with pytest.raises(ValueError):
        SimplifyOutcome.from_json('{"kind": "SimplifyOutcome"}')


def test_deprecated_shim_removed():
    """The pre-1.0 keyword API is gone as of 1.1 (see README migration)."""
    import repro

    assert not hasattr(repro, "simplify_for_error_tolerance")
    assert "simplify_for_error_tolerance" not in repro.__all__


def test_argument_validation():
    # Validation raises the typed taxonomy error, which remains a
    # ValueError for pre-1.1 callers.
    assert issubclass(InvalidRequestError, ValueError)
    with pytest.raises(InvalidRequestError):
        SimplifyRequest()  # no threshold
    with pytest.raises(ValueError):
        SimplifyRequest(rs_threshold=1.0, rs_pct_threshold=1.0)
    with pytest.raises(ValueError):
        SimplifyRequest(rs_threshold=1.0, fom="nope")
    with pytest.raises(ValueError):
        SimplifyRequest(rs_threshold=1.0, weights="nope")
    with pytest.raises(ValueError):
        SimplifyRequest(rs_threshold=1.0, num_vectors=0)
