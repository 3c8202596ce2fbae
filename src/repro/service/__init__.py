"""Simplification-as-a-service: the async job server and its client.

``repro serve`` runs :func:`~repro.service.server.serve` -- a
stdlib-only HTTP server exposing the versioned ``/v1`` API over a
bounded job queue, a child-process worker pool, and a
content-addressed result cache.  ``repro submit`` / ``repro jobs``
drive it through :class:`~repro.service.client.ServiceClient`.

See DESIGN.md §13 for the architecture (cache keying, crash-resume
semantics, API versioning and the error-code table), §14 for the
observability surface (structured service logs keyed by job id and
the event stream) and §15 for failure
forensics (the worker pool's hang watchdog, and what a failed job
leaves: its journal and ``runner.log``).
"""

from .cache import ResultCache, cache_key
from .client import ServiceClient
from .jobs import (
    ACTIVE_STATES,
    TERMINAL_STATES,
    Job,
    JobStore,
    job_journal_events,
)
from .server import SimplifyService, create_server, serve, serve_in_thread
from .slog import ServiceLog
from .workers import WorkerPool

__all__ = [
    "ACTIVE_STATES",
    "TERMINAL_STATES",
    "Job",
    "JobStore",
    "ResultCache",
    "ServiceClient",
    "ServiceLog",
    "SimplifyService",
    "WorkerPool",
    "cache_key",
    "create_server",
    "job_journal_events",
    "serve",
    "serve_in_thread",
]
