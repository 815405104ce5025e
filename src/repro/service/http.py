"""Stdlib HTTP front end for the sweep service.

A thin, dependency-free translation layer: JSON in, JSON (or
Prometheus text) out, every route delegating to one
:class:`~repro.service.service.SweepService` method.  Threaded
(``ThreadingHTTPServer``) so a held long-poll never blocks a
submitter; the service's own locks make that safe.

Routes
------
``POST /jobs``
    Body: a spec envelope (:func:`repro.sim.spec.dump_spec`) or legacy
    bare spec dict, optionally with an ``"obs"`` section requesting
    observability artifacts.  Returns ``{"job": {...}}`` — state
    ``done`` with ``"cached": true`` and ``"cache_hit": true`` when the
    result store already held the spec's fingerprint, else ``pending``.
    Dedup keys on the spec fingerprint alone, so a cache hit cannot
    regenerate run-scoped obs artifacts: when the submission requested
    any, the job dict carries a ``"warning"`` naming them.  ``400`` on
    malformed payloads.
``GET /jobs``
    ``{"jobs": [...]}``, oldest first.
``GET /jobs/<id>[?wait=S]``
    One job's status, including aggregated decode-forensics
    ``stage_counts`` once done.  With ``wait=S`` a long-poll: the reply
    comes as soon as the job leaves ``pending``/``running``, or with
    the still-active status after ``S`` seconds (capped at
    :data:`MAX_WAIT_S`, below the client's 30 s socket timeout).
    ``400`` on a non-numeric or negative ``wait``, ``404`` for unknown
    ids.
``GET /jobs/<id>/result``
    The stored result record, served as the exact bytes the store
    holds (bit-identical across cache hits).  ``409`` while the job is
    pending/running or after it failed.
``GET /jobs/<id>/events?cursor=N[&wait=S]``
    Incremental progress stream: ``{"events": [...], "cursor": M,
    "state": ..., "cached": ...}`` with every journal row whose ``seq``
    exceeds ``N``; ask again with ``cursor=M``.  With ``wait=S`` (same
    cap) an active job with no such row yet holds the reply until one
    lands or the job settles.  A stale cursor (past the end) returns no
    events; a cached job streams nothing (it never ran).  ``400`` on a
    non-integer cursor or a bad ``wait``, ``404`` for unknown ids.
``GET /metrics``
    Prometheus text exposition of the service registry (service
    counters + folded engine/PHY metrics + live queue/job gauges and
    latency histograms).
``GET /healthz``
    Liveness *and* saturation: ``{"ok": true, "queue": {"depth": ...,
    "pending": ..., "running": ..., "done": ..., "failed": ...}}``.
"""

from __future__ import annotations

import json
import math
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional
from urllib.parse import parse_qs, urlparse

from repro.service.queue import JOB_STATES
from repro.service.service import ServiceError, SweepService, UnknownJobError

__all__ = ["MAX_WAIT_S", "ServiceHTTPServer", "serve"]

_MAX_BODY_BYTES = 8 * 1024 * 1024  # a spec envelope is tiny; cap abuse

#: Longest a ``wait=`` long-poll holds its reply, seconds: well below
#: the client's default 30 s socket timeout.
MAX_WAIT_S = 20.0


class _Handler(BaseHTTPRequestHandler):
    """Request handler; ``self.server`` is the :class:`ServiceHTTPServer`."""

    server: "ServiceHTTPServer"
    protocol_version = "HTTP/1.1"

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        # BaseHTTPRequestHandler logs with a wall-clock timestamp by
        # default; keep it quiet unless the server asked for logs, and
        # then emit a timestamp-free line (results never depend on it).
        if self.server.verbose:
            sys.stderr.write("service.http: " + format % args + "\n")

    def _send(self, code: int, body: bytes,
              content_type: str = "application/json") -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, code: int, payload: Dict[str, Any]) -> None:
        self._send(code, (json.dumps(payload) + "\n").encode("utf-8"))

    def _send_error_json(self, code: int, message: str) -> None:
        self._send_json(code, {"error": message})

    def _read_body(self) -> Optional[bytes]:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > _MAX_BODY_BYTES:
            self._send_error_json(400, "missing or oversized Content-Length")
            return None
        return self.rfile.read(length)

    def _wait_param(self, query: Dict[str, List[str]]) -> Optional[float]:
        """The capped ``wait=`` seconds (0 when absent), or ``None``
        after answering ``400`` for a bad value."""
        raw = query.get("wait", ["0"])[-1]
        try:
            wait_s = float(raw)
        except ValueError:
            wait_s = -1.0
        if not (math.isfinite(wait_s) and wait_s >= 0):
            self._send_error_json(
                400, f"wait must be a number of seconds >= 0, got {raw!r}")
            return None
        return min(wait_s, MAX_WAIT_S)

    # -- routes ------------------------------------------------------------

    @property
    def service(self) -> SweepService:
        return self.server.service

    def do_POST(self) -> None:  # noqa: N802  (stdlib handler contract)
        self._count("post")
        if self.path.rstrip("/") != "/jobs":
            self._send_error_json(404, f"no such route: POST {self.path}")
            return
        body = self._read_body()
        if body is None:
            return
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            self._send_error_json(400, f"body is not valid JSON: {exc}")
            return
        try:
            record = self.service.submit_record(payload)
        except ValueError as exc:
            # SpecFormatError and friends: the submitter's problem.
            self._send_error_json(400, str(exc))
            return
        self._send_json(200, {"job": record})

    def do_GET(self) -> None:  # noqa: N802  (stdlib handler contract)
        self._count("get")
        parsed = urlparse(self.path)
        path = parsed.path.rstrip("/") or "/"
        if path == "/healthz":
            counts = self.service.queue.counts()
            by_state = {state: counts.get(state, 0) for state in JOB_STATES}
            self._send_json(200, {
                "ok": True,
                "queue": dict(depth=counts.get("pending", 0), **by_state),
            })
            return
        if path == "/metrics":
            self._send(200, self.service.metrics_text().encode("utf-8"),
                       content_type="text/plain; version=0.0.4")
            return
        if path == "/jobs":
            self._send_json(200, {"jobs": self.service.jobs()})
            return
        parts = path.strip("/").split("/")
        if len(parts) >= 2 and parts[0] == "jobs":
            job_id = parts[1]
            query = parse_qs(parsed.query)
            try:
                if len(parts) == 2:
                    wait_s = self._wait_param(query)
                    if wait_s is None:
                        return
                    self._send_json(200,
                                    self.service.status(job_id, wait_s))
                elif len(parts) == 3 and parts[2] == "result":
                    self._send(200, self.service.raw_result(job_id))
                elif len(parts) == 3 and parts[2] == "events":
                    raw_cursor = query.get("cursor", ["0"])[-1]
                    try:
                        cursor = int(raw_cursor)
                    except ValueError:
                        self._send_error_json(
                            400, f"cursor must be an integer, "
                                 f"got {raw_cursor!r}")
                        return
                    wait_s = self._wait_param(query)
                    if wait_s is None:
                        return
                    self._send_json(200, self.service.events(
                        job_id, cursor, wait_s))
                else:
                    self._send_error_json(
                        404, f"no such route: GET {self.path}")
            except UnknownJobError as exc:
                self._send_error_json(404, str(exc))
            except ServiceError as exc:
                self._send_error_json(409, str(exc))
            return
        self._send_error_json(404, f"no such route: GET {self.path}")

    def _count(self, method: str) -> None:
        self.service._inc("service.http.requests")
        self.service._inc(f"service.http.{method}")


class ServiceHTTPServer(ThreadingHTTPServer):
    """The sweep service bound to a listening socket.

    ``port=0`` picks a free port (read it back from :attr:`url`) —
    what the tests and the CI smoke job use.
    """

    daemon_threads = True

    def __init__(self, service: SweepService, host: str = "127.0.0.1",
                 port: int = 0, verbose: bool = False) -> None:
        super().__init__((host, port), _Handler)
        self.service = service
        self.verbose = verbose

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def serve(service: SweepService, host: str = "127.0.0.1", port: int = 8351,
          verbose: bool = False) -> None:
    """Start the workers and serve HTTP until interrupted.

    Blocks in ``serve_forever``; ``KeyboardInterrupt`` (or
    ``server.shutdown()`` from another thread) triggers a clean stop:
    workers drain their current job, the queue journal keeps the rest.
    """
    server = ServiceHTTPServer(service, host=host, port=port,
                               verbose=verbose)
    service.start()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass  # clean shutdown path below
    finally:
        server.server_close()
        service.stop()
