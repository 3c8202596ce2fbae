"""Error taxonomy: stable codes, HTTP statuses, wire round-trip."""

import pytest

from repro.core.errors import (
    ERROR_CODES,
    BudgetExhaustedError,
    CheckpointMismatchError,
    ClientTimeoutError,
    CompileError,
    InvalidRequestError,
    JobCancelledError,
    JobFailedError,
    JobNotFoundError,
    QueueFullError,
    ReproError,
    ResultNotReadyError,
    ServiceUnavailableError,
    UnsupportedSchemaVersionError,
    error_body,
    error_from_body,
)

# The released contract table (DESIGN.md §13).  Renaming a code or
# moving a status is a wire-API break; this test is the tripwire.
CONTRACT = {
    "internal_error": (ReproError, 500),
    "invalid_request": (InvalidRequestError, 400),
    "unsupported_schema_version": (UnsupportedSchemaVersionError, 400),
    "compile_error": (CompileError, 422),
    "budget_exhausted": (BudgetExhaustedError, 500),
    "checkpoint_mismatch": (CheckpointMismatchError, 409),
    "job_not_found": (JobNotFoundError, 404),
    "queue_full": (QueueFullError, 429),
    "result_not_ready": (ResultNotReadyError, 409),
    "job_cancelled": (JobCancelledError, 409),
    "job_failed": (JobFailedError, 500),
    "service_unavailable": (ServiceUnavailableError, 503),
    "client_timeout": (ClientTimeoutError, 504),
}


def test_contract_table():
    for code, (cls, status) in CONTRACT.items():
        assert cls.code == code
        assert cls.http_status == status
        assert ERROR_CODES[code] is cls


def test_registry_is_complete():
    """Every taxonomy class reachable from ReproError has a registered,
    unique code (two classes sharing a code would make error_from_body
    ambiguous)."""
    seen = {}
    stack = [ReproError]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if cls.__module__ != "repro.core.errors":
            continue  # out-of-module subclasses alias an existing code
        assert cls.code in ERROR_CODES
        assert cls.code not in seen, f"duplicate code {cls.code}"
        seen[cls.code] = cls
    assert seen.keys() == CONTRACT.keys()


def test_value_error_compatibility():
    """Caller-fault classes stay catchable as ValueError (pre-1.1 code)."""
    for cls in (InvalidRequestError, UnsupportedSchemaVersionError,
                CompileError, CheckpointMismatchError):
        assert issubclass(cls, ValueError)
    assert issubclass(JobNotFoundError, KeyError)


def test_error_body_shape():
    body = error_body(QueueFullError("queue is full"))
    assert body == {
        "error": {"code": "queue_full", "message": "queue is full", "status": 429}
    }


def test_error_body_keyerror_message_is_clean():
    # KeyError repr()s its argument; the wire body must carry the plain
    # message, not "'no such job: x'".
    body = error_body(JobNotFoundError("no such job: job-000042"))
    assert body["error"]["message"] == "no such job: job-000042"


def test_error_body_foreign_exception_degrades():
    body = error_body(RuntimeError("boom"))
    assert body["error"]["code"] == "internal_error"
    assert body["error"]["status"] == 500
    assert "RuntimeError" not in body["error"]["message"]


def test_wire_round_trip():
    for code, (cls, status) in CONTRACT.items():
        exc = cls(f"{code} happened")
        back = error_from_body(error_body(exc))
        assert type(back) is cls
        assert back.http_status == status
        assert str(back.args[0]) == f"{code} happened"


def test_unknown_code_degrades_to_base():
    exc = error_from_body({"error": {"code": "from_the_future", "message": "hi"}})
    assert type(exc) is ReproError
    assert "hi" in str(exc)
    assert type(error_from_body({})) is ReproError


def test_checkpoint_error_is_taxonomy_member():
    """The parallel layer's CheckpointError aliases checkpoint_mismatch."""
    from repro.parallel import CheckpointError

    assert issubclass(CheckpointError, CheckpointMismatchError)
    assert CheckpointError.code == "checkpoint_mismatch"
    with pytest.raises(ValueError):
        raise CheckpointError("still a ValueError")
