"""urllib client for the sweep service: what ``repro submit`` speaks.

A deliberately small wrapper over :mod:`urllib.request` — no sessions,
no retries beyond repeating a long-poll — returning the server's JSON
payloads as plain dicts so the CLI can print them directly.
Server-side rejections (4xx/5xx) surface as :class:`ServiceClientError`
carrying the HTTP status and the server's ``error`` message; connection
failures raise the underlying :class:`urllib.error.URLError` untouched,
so "server not running" stays distinguishable from "server said no".
"""

from __future__ import annotations

import json
import math
import urllib.error
import urllib.request
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Union

from repro.sim.engine import (
    ExperimentSpec,
    MacExperimentSpec,
    RunResult,
    Spec,
)

__all__ = ["DEFAULT_URL", "ServiceClient", "ServiceClientError"]

#: Where ``repro serve`` listens by default.
DEFAULT_URL = "http://127.0.0.1:8351"

#: Longest single long-poll the client asks for, seconds (the server
#: caps ``wait=`` at the same value, ``repro.service.http.MAX_WAIT_S``).
_LONG_POLL_S = 20.0


class ServiceClientError(RuntimeError):
    """The server answered with an error status."""

    def __init__(self, status: int, message: str) -> None:
        self.status = status
        super().__init__(f"HTTP {status}: {message}")


class ServiceClient:
    """Typed access to one running sweep service."""

    def __init__(self, base_url: str = DEFAULT_URL,
                 timeout_s: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = float(timeout_s)

    # -- transport ---------------------------------------------------------

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None) -> bytes:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(self.base_url + path, data=data,
                                         headers=headers, method=method)
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout_s) as response:
                return bytes(response.read())
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            try:
                message = str(json.loads(raw).get("error", raw.decode()))
            except (json.JSONDecodeError, UnicodeDecodeError, AttributeError):
                message = raw.decode("utf-8", "replace")
            raise ServiceClientError(exc.code, message) from exc

    def _request_json(self, method: str, path: str,
                      body: Optional[Dict[str, Any]] = None
                      ) -> Dict[str, Any]:
        payload = json.loads(self._request(method, path, body))
        if not isinstance(payload, dict):
            raise ServiceClientError(502, f"non-object response from {path}")
        return payload

    # -- API ---------------------------------------------------------------

    def submit(self, payload: Union[Spec, Mapping[str, Any]]
               ) -> Dict[str, Any]:
        """Submit a spec (object or envelope dict); returns the job dict.

        The returned dict is the server's job record: look at
        ``state``/``cached``/``cache_hit`` to see whether the
        submission was answered from the result cache.  A cache hit
        serves the stored result without a new engine run; if the
        payload carried an ``"obs"`` section requesting run-scoped
        observability artifacts, the record's ``warning`` field says
        they were not regenerated.
        """
        if isinstance(payload, (ExperimentSpec, MacExperimentSpec)):
            from repro.sim.spec import dump_spec

            body = dump_spec(payload)
        else:
            body = dict(payload)
        return dict(self._request_json("POST", "/jobs", body)["job"])

    def status(self, job_id: str, wait_s: float = 0.0) -> Dict[str, Any]:
        """One job's status; with *wait_s* > 0 a long-poll that answers
        once the job settles, or after *wait_s* seconds (server-capped)
        with the still-active status."""
        query = f"?wait={wait_s:g}" if wait_s > 0 else ""
        return self._request_json("GET", f"/jobs/{job_id}{query}")

    def jobs(self) -> List[Dict[str, Any]]:
        return list(self._request_json("GET", "/jobs")["jobs"])

    def fetch_record(self, job_id: str) -> Dict[str, Any]:
        """The stored result record (version/fingerprint/envelope/result)."""
        return dict(json.loads(self._request(
            "GET", f"/jobs/{job_id}/result")))

    def fetch_raw(self, job_id: str) -> bytes:
        """The stored result record's exact bytes (bit-identical)."""
        return self._request("GET", f"/jobs/{job_id}/result")

    def fetch(self, job_id: str) -> RunResult:
        """The completed :class:`RunResult` for *job_id*."""
        return RunResult.from_dict(self.fetch_record(job_id)["result"])

    def metrics(self) -> str:
        """The ``/metrics`` endpoint's Prometheus text."""
        return self._request("GET", "/metrics").decode("utf-8")

    def healthz(self) -> Dict[str, Any]:
        """The ``/healthz`` payload: ``ok`` plus queue saturation
        (``depth`` and jobs-by-state counts)."""
        return self._request_json("GET", "/healthz")

    def health(self) -> bool:
        try:
            return bool(self.healthz().get("ok"))
        except (ServiceClientError, urllib.error.URLError, OSError):
            return False

    def events(self, job_id: str, cursor: int = 0,
               wait_s: float = 0.0) -> Dict[str, Any]:
        """One page of the job's progress stream, after *cursor*.

        Returns the server payload: ``events`` (journal rows with
        ``seq`` > *cursor*), ``cursor`` (pass it back to resume),
        ``state`` and ``cached``.  A stale cursor yields no events and
        echoes itself; a cached job has no stream (it never ran).  With
        *wait_s* > 0 an empty page of an active job is held until a row
        lands or the job settles, at most *wait_s* seconds.
        """
        query = f"?cursor={int(cursor)}"
        if wait_s > 0:
            query += f"&wait={wait_s:g}"
        return self._request_json("GET", f"/jobs/{job_id}/events{query}")

    def _long_polls(self, timeout_s: float) -> Tuple[float, int]:
        """``(wait_s, attempts)``: *timeout_s* cut into long-polls that
        each stay well inside this client's socket timeout."""
        piece = min(float(timeout_s), _LONG_POLL_S, self.timeout_s / 2)
        if piece <= 0:
            return 0.0, 1
        return piece, math.ceil(timeout_s / piece)

    def follow(self, job_id: str, timeout_s: float = 120.0
               ) -> Iterator[Dict[str, Any]]:
        """Yield progress rows until the job leaves pending/running.

        Each page is a long-poll that returns as soon as rows land.
        The server reads job state *before* the journal, so a page
        reporting a settled state provably carries the final rows —
        the generator drains that page, then stops.  The budget counts
        only pages that came back empty, so a job that keeps reporting
        progress is followed to its end; raises :class:`TimeoutError`
        once *timeout_s* passes with no news and the job still live.
        """
        wait_s, attempts = self._long_polls(timeout_s)
        cursor = 0
        state = ""
        idle = 0
        while idle < attempts:
            page = self.events(job_id, cursor=cursor, wait_s=wait_s)
            cursor = int(page.get("cursor", cursor))
            state = str(page.get("state", ""))
            rows = page.get("events", [])
            for row in rows:
                yield dict(row)
            if state not in ("pending", "running"):
                return
            idle = 0 if rows else idle + 1
        raise TimeoutError(
            f"job {job_id} still {state} after ~{timeout_s}s")

    def wait(self, job_id: str, timeout_s: float = 120.0) -> Dict[str, Any]:
        """Long-poll :meth:`status` until the job leaves pending/running.

        One request when the job settles inside one long-poll.  Raises
        :class:`TimeoutError` when the budget runs out.  Bounded by
        attempt count rather than a clock read: ``timeout_s`` is a
        budget, not a deadline, in keeping with the repo's
        no-wall-clock discipline.
        """
        wait_s, attempts = self._long_polls(timeout_s)
        status: Dict[str, Any] = {}
        for _ in range(attempts):
            status = self.status(job_id, wait_s=wait_s)
            if status.get("state") not in ("pending", "running"):
                return status
        raise TimeoutError(
            f"job {job_id} still {status.get('state')} after ~{timeout_s}s")
