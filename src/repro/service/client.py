"""Stdlib HTTP client for the job server (``urllib``, no dependencies).

The CLI's ``repro submit`` / ``repro jobs`` subcommands and the tests
all talk to the server through this one class, so the wire protocol is
exercised end-to-end everywhere.  Error responses are rehydrated into
the same typed taxonomy the server raised
(:func:`repro.core.errors.error_from_body`): a client catching
:class:`~repro.core.errors.QueueFullError` does not care which side of
the socket it was on.  :meth:`ServiceClient.stream` consumes the
server's long-poll event feed (``GET /v1/jobs/<id>/events``).
"""

from __future__ import annotations

import json
import socket
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Iterator, List, Optional, Union

from ..core.api import SimplifyOutcome, SimplifyRequest
from ..core.errors import (
    ClientTimeoutError,
    ReproError,
    ServiceUnavailableError,
    error_from_body,
)

__all__ = ["ServiceClient"]


class ServiceClient:
    """Talk to one repro job server at ``base_url``."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- transport ---------------------------------------------------------
    def _call(
        self,
        method: str,
        path: str,
        payload: Optional[Dict] = None,
        parse: bool = True,
        timeout: Optional[float] = None,
    ) -> Any:
        url = f"{self.base_url}{path}"
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(url, data=data, method=method, headers=headers)
        effective_timeout = self.timeout if timeout is None else timeout
        try:
            with urllib.request.urlopen(req, timeout=effective_timeout) as resp:
                text = resp.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            body = exc.read().decode("utf-8", errors="replace")
            try:
                raise error_from_body(json.loads(body)) from None
            except (json.JSONDecodeError, TypeError):
                raise ReproError(
                    f"{method} {path} failed with HTTP {exc.code}: {body[:200]}"
                ) from None
        except urllib.error.URLError as exc:
            # A connect-phase timeout arrives wrapped in URLError.
            if isinstance(exc.reason, (TimeoutError, socket.timeout)):
                raise ClientTimeoutError(
                    f"{method} {path} timed out after {effective_timeout:g}s"
                ) from None
            raise ServiceUnavailableError(
                f"cannot reach {self.base_url}: {exc.reason}"
            ) from None
        except (TimeoutError, socket.timeout):
            # A read-phase timeout is raised bare by http.client.
            raise ClientTimeoutError(
                f"{method} {path} timed out after {effective_timeout:g}s"
            ) from None
        if not parse:
            return text
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ReproError(
                f"{method} {path}: server returned malformed JSON: {exc}"
            ) from None

    # -- API ---------------------------------------------------------------
    # Every method takes an optional per-request ``timeout`` (seconds)
    # overriding the client-wide default; an expired deadline raises
    # the typed :class:`~repro.core.errors.ClientTimeoutError` (code
    # ``client_timeout``), never a raw ``socket.timeout``.
    def healthz(self, timeout: Optional[float] = None) -> Dict:
        return self._call("GET", "/v1/healthz", timeout=timeout)

    def metrics(self, timeout: Optional[float] = None) -> str:
        """The raw OpenMetrics exposition text."""
        return self._call("GET", "/v1/metrics", parse=False, timeout=timeout)

    def submit(
        self,
        request: Union[SimplifyRequest, Dict],
        netlist: Optional[str] = None,
        name: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> Dict:
        """Submit one job; returns the server's job snapshot."""
        if isinstance(request, SimplifyRequest):
            request = request.to_dict()
        payload: Dict[str, Any] = {"request": request}
        if netlist is not None:
            payload["netlist"] = netlist
        if name is not None:
            payload["name"] = name
        return self._call("POST", "/v1/jobs", payload, timeout=timeout)

    def jobs(self, timeout: Optional[float] = None) -> List[Dict]:
        return self._call("GET", "/v1/jobs", timeout=timeout)["jobs"]

    def status(self, job_id: str, timeout: Optional[float] = None) -> Dict:
        return self._call("GET", f"/v1/jobs/{job_id}", timeout=timeout)

    def result_json(self, job_id: str, timeout: Optional[float] = None) -> str:
        """The stored outcome document, verbatim."""
        return self._call(
            "GET", f"/v1/jobs/{job_id}/result", parse=False, timeout=timeout
        )

    def result(self, job_id: str) -> SimplifyOutcome:
        """The job's :class:`SimplifyOutcome`, rehydrated."""
        return SimplifyOutcome.from_json(self.result_json(job_id))

    def cancel(self, job_id: str, timeout: Optional[float] = None) -> Dict:
        return self._call("DELETE", f"/v1/jobs/{job_id}", timeout=timeout)

    def events(self, job_id: str, offset: int = 0, wait: float = 10.0) -> Dict:
        """One long-poll of the job's event feed past ``offset``.

        Returns the server's batch: ``events`` past the cursor,
        ``next_offset`` to poll from, ``state``/``progress``/
        ``complete``.  The socket timeout is padded past ``wait`` so a
        full-length empty poll is not a client-side error."""
        return self._call(
            "GET",
            f"/v1/jobs/{job_id}/events?offset={int(offset)}&wait={float(wait):g}",
            timeout=max(self.timeout, float(wait) + 10.0),
        )

    def stream(
        self,
        job_id: str,
        offset: int = 0,
        wait: float = 10.0,
        timeout: float = 600.0,
    ) -> Iterator[Dict]:
        """Yield the job's journal events live until it finishes.

        A generator over repeated :meth:`events` long-polls: yields
        each journal event exactly once, in order, and returns when the
        job is terminal and the feed is drained.  Raises
        :class:`ServiceUnavailableError` if the job outlives
        ``timeout`` (it keeps running server-side)."""
        deadline = time.monotonic() + timeout
        cursor = int(offset)
        while True:
            batch = self.events(job_id, offset=cursor, wait=wait)
            for event in batch.get("events") or []:
                yield event
            cursor = max(batch.get("next_offset", cursor), cursor)
            if batch.get("complete") and not (batch.get("events") or []):
                return
            if time.monotonic() >= deadline:
                raise ServiceUnavailableError(
                    f"timed out after {timeout:g}s streaming {job_id} "
                    f"(last state: {batch.get('state')})"
                )

    def wait(
        self,
        job_id: str,
        timeout: float = 600.0,
        poll_interval: float = 0.2,
    ) -> Dict:
        """Poll until the job reaches a terminal state; returns the
        final snapshot.  Raises :class:`ServiceUnavailableError` on
        timeout (the job keeps running server-side)."""
        deadline = time.monotonic() + timeout
        while True:
            snap = self.status(job_id)
            if snap["state"] in ("done", "failed", "cancelled"):
                return snap
            if time.monotonic() >= deadline:
                raise ServiceUnavailableError(
                    f"timed out after {timeout:g}s waiting for {job_id} "
                    f"(last state: {snap['state']})"
                )
            time.sleep(poll_interval)
