"""Typed error taxonomy shared by the API, the CLI, and the service.

Every failure the public surfaces can report is an instance of
:class:`ReproError`.  Each concrete class pins two stable identifiers:

* ``code`` -- a machine-readable snake_case string.  Codes are part of
  the wire API (the job server's error bodies carry them) and are
  never renamed once released, nor reused once retired;
* ``http_status`` -- the HTTP status the job server answers with when
  this error reaches a handler.

The mapping is the contract table in DESIGN.md §13.  Classes whose
failure is the *caller's* fault subclass :class:`ValueError` as well,
so pre-taxonomy code (and tests) catching ``ValueError`` keep working.

:func:`error_body` renders the one wire shape
(``{"error": {"code", "message", "status"}}``) and
:func:`error_from_body` reconstructs the typed exception client-side,
so a remote failure raises the *same* class the server raised.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

__all__ = [
    "ReproError",
    "InvalidRequestError",
    "UnsupportedSchemaVersionError",
    "CompileError",
    "BudgetExhaustedError",
    "CheckpointMismatchError",
    "JobNotFoundError",
    "QueueFullError",
    "ResultNotReadyError",
    "JobCancelledError",
    "JobFailedError",
    "ServiceUnavailableError",
    "ClientTimeoutError",
    "ERROR_CODES",
    "error_body",
    "error_from_body",
]


class ReproError(Exception):
    """Base of the repro error taxonomy.

    ``code`` and ``http_status`` are class-level constants -- one pair
    per concrete class -- so a handler can map any caught
    :class:`ReproError` to a stable wire error without isinstance
    ladders.
    """

    code: str = "internal_error"
    http_status: int = 500

    def body(self) -> Dict:
        """The machine-readable wire form of this error."""
        return error_body(self)


class InvalidRequestError(ReproError, ValueError):
    """The request itself is malformed or fails validation (caller bug)."""

    code = "invalid_request"
    http_status = 400


class UnsupportedSchemaVersionError(InvalidRequestError):
    """A payload written by a *newer* schema than this build reads.

    Mirrors the journal-version policy: current and older versions are
    accepted, newer ones are rejected with an upgrade hint.
    """

    code = "unsupported_schema_version"
    http_status = 400


class CompileError(ReproError, ValueError):
    """A netlist payload cannot be parsed/built into a circuit."""

    code = "compile_error"
    http_status = 422


class BudgetExhaustedError(ReproError):
    """A retry/resource budget ran out before the work completed.

    The job server raises it when a job's crash-resume retry budget is
    exhausted (the job keeps dying faster than it checkpoints).
    """

    code = "budget_exhausted"
    http_status = 500


class CheckpointMismatchError(ReproError, ValueError):
    """A checkpoint exists but does not match the submitted run."""

    code = "checkpoint_mismatch"
    http_status = 409


class JobNotFoundError(ReproError, KeyError):
    """No job with the requested id."""

    code = "job_not_found"
    http_status = 404


class QueueFullError(ReproError):
    """The bounded job queue is at capacity; retry later."""

    code = "queue_full"
    http_status = 429


class ResultNotReadyError(ReproError):
    """The job exists but has not produced its outcome yet."""

    code = "result_not_ready"
    http_status = 409


class JobCancelledError(ReproError):
    """The job was cancelled before producing an outcome."""

    code = "job_cancelled"
    http_status = 409


class JobFailedError(ReproError):
    """Catch-all wrapper for a job that failed with a non-taxonomy
    error; the message carries the underlying cause."""

    code = "job_failed"
    http_status = 500


class ServiceUnavailableError(ReproError):
    """The server is shutting down or cannot accept work."""

    code = "service_unavailable"
    http_status = 503


class ClientTimeoutError(ServiceUnavailableError):
    """A client-side request deadline expired before the server
    answered.

    Subclasses :class:`ServiceUnavailableError` so callers treating
    "could not get an answer" uniformly keep working; the distinct code
    lets retry logic tell a dead server from a slow one.
    """

    code = "client_timeout"
    http_status = 504


def _collect_codes() -> Dict[str, Type[ReproError]]:
    codes: Dict[str, Type[ReproError]] = {ReproError.code: ReproError}
    stack = [ReproError]
    while stack:
        cls = stack.pop()
        for sub in cls.__subclasses__():
            codes[sub.code] = sub
            stack.append(sub)
    return codes


#: code -> class for every taxonomy member defined in this module.
#: Built once at import; the taxonomy is closed by design (new codes
#: are a schema change and land here, not ad hoc in callers).
ERROR_CODES: Dict[str, Type[ReproError]] = _collect_codes()


def error_body(exc: Exception) -> Dict:
    """The wire JSON body for any exception.

    Taxonomy members keep their own code/status; anything else maps to
    the ``internal_error``/500 fallback so a handler can ship whatever
    it caught without leaking Python class names into the API.
    """
    if isinstance(exc, ReproError):
        code, status = exc.code, exc.http_status
    else:
        code, status = ReproError.code, ReproError.http_status
    # KeyError-derived taxonomy members repr() their message; read the
    # original argument back instead.
    message = str(exc.args[0]) if exc.args else str(exc)
    return {"error": {"code": code, "message": message, "status": status}}


def error_from_body(body: Dict) -> ReproError:
    """Reconstruct the typed exception from a wire error body.

    Unknown codes (a newer server) degrade to the :class:`ReproError`
    base rather than failing, so old clients still surface the message.
    """
    err = (body or {}).get("error") or {}
    cls = ERROR_CODES.get(err.get("code"), ReproError)
    exc = cls(err.get("message") or "unknown error")
    return exc
