"""SimplifyRequest: construction, serialization, config derivation."""

import argparse
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    SCHEMA_VERSION,
    GreedyConfig,
    InvalidRequestError,
    SimplifyRequest,
    UnsupportedSchemaVersionError,
)


def test_json_round_trip():
    req = SimplifyRequest(
        rs_pct_threshold=2.5,
        fom="area",
        num_vectors=4096,
        seed=7,
        candidate_limit=None,
        pow2_es=True,
        redundancy_prepass=True,
        weights="binary",
        workers=4,
        journal="run.journal.jsonl",
    )
    text = req.to_json()
    assert SimplifyRequest.from_json(text) == req
    # the JSON is a flat object a shell script can inspect
    data = json.loads(text)
    assert data["rs_pct_threshold"] == 2.5
    assert data["workers"] == 4
    assert data["journal"] == "run.journal.jsonl"


def test_from_json_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown request field"):
        SimplifyRequest.from_json('{"rs_threshold": 1.0, "turbo": true}')
    with pytest.raises(ValueError):
        SimplifyRequest.from_json("[1, 2]")


def test_legacy_engine_key_loads_and_fingerprints_the_same():
    """Requests stored while the simulator was selectable carry an
    ``engine`` key; it is accepted and ignored, so they load, compare
    and share a result-cache entry with the same request without it."""
    req = SimplifyRequest(rs_pct_threshold=2.5, fom="area", seed=7)
    for engine in ("python", "compiled", "auto"):
        legacy = SimplifyRequest.from_json(
            json.dumps(dict(req.to_dict(), engine=engine))
        )
        assert legacy == req
        assert legacy.fingerprint() == req.fingerprint()
    assert "engine" not in req.to_dict()


def test_legacy_use_batch_ranking_key_loads_and_fingerprints_the_same():
    """Requests stored while candidate ranking had a per-fault seed path
    carry ``use_batch_ranking``; either value loads to the one ranking
    path and shares a result-cache entry with the request without it."""
    req = SimplifyRequest(rs_pct_threshold=2.5, fom="area", seed=7)
    for flag in (True, False):
        legacy = SimplifyRequest.from_json(
            json.dumps(dict(req.to_dict(), use_batch_ranking=flag))
        )
        assert legacy == req
        assert legacy.fingerprint() == req.fingerprint()
    assert "use_batch_ranking" not in req.to_dict()
    assert "use_batch_ranking" not in req.greedy_config().__dict__


def test_legacy_checkpoint_path_loads_onto_journal():
    """Requests stored while the checkpoint was a second journal option
    carry ``checkpoint``; it loads onto ``journal``.  When both are set
    ``checkpoint`` wins: it holds the resumable history."""
    base = SimplifyRequest(rs_pct_threshold=2.5, seed=7).to_dict()
    req = SimplifyRequest.from_dict(dict(base, checkpoint="ck.jsonl"))
    assert req == SimplifyRequest(rs_pct_threshold=2.5, seed=7, journal="ck.jsonl")
    both = SimplifyRequest.from_dict(
        dict(base, checkpoint="ck.jsonl", journal="j.jsonl")
    )
    assert both.journal == "ck.jsonl"
    assert "checkpoint" not in req.to_dict()


def test_es_mode_atpg_and_hybrid_share_one_fingerprint():
    """``es_mode="atpg"`` always ran exactly like ``"hybrid"``: stored
    requests carrying it load as hybrid and share its result-cache
    entry, and new requests can no longer spell it."""
    req = SimplifyRequest(rs_pct_threshold=2.5, seed=7)
    assert req.es_mode == "hybrid"
    legacy = SimplifyRequest.from_json(
        json.dumps(dict(req.to_dict(), es_mode="atpg"))
    )
    assert legacy == req
    assert legacy.fingerprint() == req.fingerprint()
    assert legacy.greedy_config().es_mode == "hybrid"
    with pytest.raises(InvalidRequestError, match="es_mode"):
        SimplifyRequest(rs_pct_threshold=2.5, es_mode="atpg")


def test_from_json_validates():
    with pytest.raises(ValueError):
        SimplifyRequest.from_json('{"fom": "best"}')  # no threshold


def test_greedy_config_mirror():
    req = SimplifyRequest(
        rs_threshold=3.0,
        fom="best",
        num_vectors=1234,
        seed=9,
        es_mode="simulated",
        candidate_limit=17,
        datapath_only=False,
        include_branches=False,
        max_iterations=55,
        atpg_node_limit=999,
        exhaustive=True,
        pow2_es=True,
        redundancy_prepass=True,
        prepass_backtrack_limit=77,
    )
    cfg = req.greedy_config("area")
    assert cfg == GreedyConfig(
        fom="area",
        num_vectors=1234,
        seed=9,
        es_mode="simulated",
        candidate_limit=17,
        datapath_only=False,
        include_branches=False,
        max_iterations=55,
        atpg_node_limit=999,
        exhaustive=True,
        pow2_es=True,
        redundancy_prepass=True,
        prepass_backtrack_limit=77,
    )
    # "best" is a policy, not a greedy FOM: it resolves to a real one
    assert req.greedy_config().fom == "area_per_rs"


def test_from_config_round_trip():
    cfg = GreedyConfig(fom="area", num_vectors=2000, seed=5, pow2_es=True)
    req = SimplifyRequest.from_config(cfg, rs_threshold=1.5)
    assert req.fom == "area"
    assert req.greedy_config() == cfg
    # overrides win
    assert SimplifyRequest.from_config(cfg, rs_threshold=1.5, fom="best").fom == "best"


def test_from_cli_args():
    ns = argparse.Namespace(
        rs=None,
        rs_pct=1.0,
        fom="best",
        vectors=2048,
        seed=3,
        candidate_limit=50,
        no_prepass=True,
        pow2_es=True,
        weights="binary",
        workers=2,
        journal="ck.jsonl",
    )
    req = SimplifyRequest.from_cli_args(ns)
    assert req.rs_pct_threshold == 1.0
    assert req.rs_threshold is None
    assert req.fom == "best"
    assert req.num_vectors == 2048
    assert req.redundancy_prepass is False  # --no-prepass
    assert req.workers is None  # a namespace's worker count is not read
    assert req.journal == "ck.jsonl"
    # overrides win, as in from_config
    swept = SimplifyRequest.from_cli_args(ns, rs_pct_threshold=2.0, weights="netlist")
    assert swept.rs_pct_threshold == 2.0 and swept.weights == "netlist"


def test_schema_version_in_wire_form():
    req = SimplifyRequest(rs_threshold=1.0)
    data = req.to_dict()
    assert data["schema_version"] == SCHEMA_VERSION
    assert SimplifyRequest.from_dict(data) == req


def test_schema_version_accepts_older_and_absent():
    data = SimplifyRequest(rs_threshold=1.0).to_dict()
    # a pre-versioned writer (no marker) is read as v1
    unversioned = dict(data)
    del unversioned["schema_version"]
    assert SimplifyRequest.from_dict(unversioned) == SimplifyRequest.from_dict(data)
    # v1 is the oldest version; anything <= current must load
    for version in range(1, SCHEMA_VERSION + 1):
        assert SimplifyRequest.from_dict({**data, "schema_version": version})


def test_schema_version_rejects_newer():
    data = SimplifyRequest(rs_threshold=1.0).to_dict()
    data["schema_version"] = SCHEMA_VERSION + 1
    with pytest.raises(UnsupportedSchemaVersionError, match="upgrade repro"):
        SimplifyRequest.from_dict(data)
    # the rejection names both versions, so the operator knows the gap
    with pytest.raises(UnsupportedSchemaVersionError, match=str(SCHEMA_VERSION)):
        SimplifyRequest.from_dict(data)


def test_schema_version_rejects_garbage():
    data = SimplifyRequest(rs_threshold=1.0).to_dict()
    for bad in ("2", 2.0, True, 0, -1):
        with pytest.raises(ValueError):
            SimplifyRequest.from_dict({**data, "schema_version": bad})


def test_fingerprint_ignores_non_semantic_fields():
    base = SimplifyRequest(rs_pct_threshold=2.0, seed=3)
    same = base.replace(
        workers=8, journal="j.jsonl", telemetry_interval=1.0
    )
    assert base.fingerprint() == same.fingerprint()
    # semantic fields do move the digest
    assert base.fingerprint() != base.replace(seed=4).fingerprint()
    assert base.fingerprint() != base.replace(fom="area").fingerprint()


def test_replace_revalidates():
    req = SimplifyRequest(rs_threshold=1.0)
    assert req.replace(seed=42).seed == 42
    with pytest.raises(ValueError):
        req.replace(fom="bogus")


# ----------------------------------------------------------------------
# field types: malformed payloads fail at construction, typed
# ----------------------------------------------------------------------
_BASE = {"rs_pct_threshold": 2.0}


@pytest.mark.parametrize(
    "field,value",
    [
        ("rs_pct_threshold", "abc"),
        ("rs_pct_threshold", float("nan")),
        ("rs_pct_threshold", float("inf")),
        ("rs_pct_threshold", -1.0),
        ("rs_pct_threshold", True),
        ("rs_pct_threshold", [1.0]),
        ("rs_pct_threshold", 10**400),
        ("workers", "two"),
        ("workers", 2.0),
        ("workers", True),
        ("candidate_limit", "200"),
        ("journal", 5),
        ("journal", ["run.jsonl"]),
        ("num_vectors", "10000"),
        ("num_vectors", 1e4),
        ("num_vectors", False),
        ("seed", 1.5),
        ("seed", -1),
        ("candidate_limit", -1),
        ("max_iterations", -1),
        ("atpg_node_limit", -1),
        ("prepass_backtrack_limit", -1),
        ("max_iterations", None),
        ("atpg_node_limit", "4000"),
        ("prepass_backtrack_limit", 0.5),
        ("exhaustive", "yes"),
        ("pow2_es", 1),
        ("redundancy_prepass", None),
        ("datapath_only", 0),
        ("include_branches", "false"),
        ("telemetry_interval", 0),
        ("telemetry_interval", float("nan")),
        ("telemetry_interval", "1"),
    ],
)
def test_malformed_fields_are_invalid_requests(field, value):
    with pytest.raises(InvalidRequestError, match=field):
        SimplifyRequest.from_dict({**_BASE, field: value})


def test_retired_workers_field_changes_nothing():
    """``workers`` is accepted and type-checked but read by nothing:
    a request carrying it commits the same faults as the default."""
    from tests.conftest import build_ripple_adder

    base = SimplifyRequest(rs_pct_threshold=5.0, fom="area_per_rs", exhaustive=True)
    plain = base.run(build_ripple_adder(4))
    retired = base.replace(workers=2).run(build_ripple_adder(4))
    assert plain.faults
    assert [str(f) for f in retired.faults] == [str(f) for f in plain.faults]
    assert retired.area_reduction == plain.area_reduction
    assert retired.request.fingerprint() == plain.request.fingerprint()


def test_malformed_json_numbers_are_invalid_requests():
    for literal in ("NaN", "Infinity", "-Infinity", '"abc"'):
        with pytest.raises(InvalidRequestError, match="rs_pct_threshold"):
            SimplifyRequest.from_json('{"rs_pct_threshold": %s}' % literal)
    with pytest.raises(InvalidRequestError, match="rs_threshold"):
        SimplifyRequest.from_json('{"rs_threshold": NaN}')


def test_numpy_scalars_become_python_values():
    req = SimplifyRequest(
        rs_pct_threshold=np.float32(2.0),
        num_vectors=np.int64(900),
        seed=np.int32(3),
        workers=np.int64(2),
        exhaustive=np.bool_(False),
        telemetry_interval=np.float64(0.5),
    )
    assert req == SimplifyRequest(
        rs_pct_threshold=2.0,
        num_vectors=900,
        seed=3,
        workers=2,
        exhaustive=False,
        telemetry_interval=0.5,
    )
    assert type(req.num_vectors) is int and type(req.exhaustive) is bool
    assert type(req.rs_pct_threshold) is float
    assert req.fingerprint() == SimplifyRequest(
        rs_pct_threshold=2.0, num_vectors=900, seed=3
    ).fingerprint()
    assert SimplifyRequest.from_json(req.to_json()) == req


def test_valid_request_fingerprints_are_unchanged():
    """Result-cache keys recorded before field typing still hold."""
    assert (
        SimplifyRequest(rs_pct_threshold=2.5, fom="area", seed=7).fingerprint()
        == "da985380ca60f52112fb78dd48bc8afee602903f0eda6fb8cedb5a5ed962a6d5"
    )
    assert (
        SimplifyRequest(
            rs_threshold=3,
            candidate_limit=None,
            redundancy_prepass=True,
            pow2_es=True,
            weights="binary",
        ).fingerprint()
        == "ecfd842897ae27bab44b6882a8ca1134e63c2514db37c266aa6c88d3567cff69"
    )
    assert (
        SimplifyRequest(
            rs_pct_threshold=0.0, num_vectors=900, max_iterations=5, atpg_node_limit=100
        ).fingerprint()
        == "b12823cee0a98609149f671827273f11774fa4c33e14dc6c364342e76f0330b0"
    )


_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(["best", "area", "hybrid", "netlist", "binary", "run.jsonl"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_FIELD_NAMES = sorted(f.name for f in dataclasses.fields(SimplifyRequest))


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(_FIELD_NAMES + ["schema_version"]), value=_JSON_VALUES)
def test_any_json_field_value_builds_or_is_invalid(field, value):
    """One field set to any JSON value: a request (whose fingerprint
    and JSON form work) or an InvalidRequestError, never another error."""
    payload = {"rs_pct_threshold": 2.0, "seed": 1}
    payload[field] = value
    text = json.dumps(payload)
    try:
        req = SimplifyRequest.from_json(text)
    except InvalidRequestError:
        return
    req.fingerprint()
    assert SimplifyRequest.from_json(req.to_json()) == req
