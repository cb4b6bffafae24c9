"""HTTP API for the campaign service (stdlib only, no new dependencies).

Routes (all JSON unless noted):

* ``POST /sweeps`` — async submit.  Body is a sweep payload
  (``{"experiment_id", "base", "grid", "zipped", "seeds"}``); responds 202
  with the job document (200 when the sweep deduped to an existing job),
  400 on malformed sweeps and **429 + Retry-After when an admission bound is
  hit** — the global job-queue bound or the per-client one (clients identify
  themselves with an ``X-Repro-Client`` header) — so heavy traffic degrades
  gracefully instead of piling up.
* ``GET /jobs`` — every job's summary, oldest first.
* ``GET /jobs/<id>`` — one job's status document.
* ``GET /jobs/<id>/events`` — the job's progress lines as ``text/plain``;
  ``?follow=1`` keeps the response open as an **HTTP/1.1 chunked stream**,
  flushing new :class:`~repro.engine.campaign.ProgressEvent` lines as they
  land and writing ``: keep-alive`` comment lines during quiet stretches so
  buffering proxies and idle-timeout middleboxes do not kill the stream.
* ``POST /jobs/<id>/cancel`` — cancel a queued/running job.
* ``GET /results/<id>`` — the job's records read *cache-first*: every point
  is fetched straight from the content-addressed result cache, so repeat
  queries cost ~0 compute whether they hit the same daemon or a fresh one.
* ``GET /healthz`` — liveness + worker-pool and federation health (live
  workers, respawn budget, per-node liveness, cluster ``degraded`` flag) +
  job counts.  The body always answers; clients decide what "degraded"
  means for them.

Federation routes (the ``repro node`` agent protocol):

* ``POST /nodes`` — register (or revive) a node agent; returns the lease and
  heartbeat configuration the agent must follow.
* ``POST /nodes/<id>/heartbeat`` — liveness ping; the response relays drain
  and quarantine instructions.  **410 Gone** once the node was declared dead
  (it must re-register); 404 for never-registered ids.
* ``POST /nodes/<id>/drain`` — operator request: the node finishes leased
  runs, claims nothing new, then deregisters.
* ``POST /nodes/<id>/deregister`` — graceful goodbye; held leases requeue.
* ``GET /nodes`` — per-node liveness summaries (also inside ``/healthz``).
* ``POST /leases`` — claim up to ``max_runs`` runs as time-bounded leases.
* ``POST /leases/<id>/renew`` — extend a lease; **409 Conflict** when the
  lease token no longer matches (expired/revoked/reassigned — *fenced*).
* ``POST /leases/<id>/result`` — upload one finished record under the lease
  token; 409 when fenced (the record is discarded: the re-dispatched attempt
  owns the run), 400 for torn/unparseable uploads.

The server is a :class:`ThreadingHTTPServer`: handler threads only touch the
:class:`~repro.serve.service.CampaignService` (which is thread-safe); all
actual compute happens in the worker processes.

Failure semantics: an :class:`~repro.faults.InjectedFault` at the
``api.handle`` fault point (chaos testing a flaky front end) maps to **503 +
Retry-After** — the transient-server-error shape clients are expected to
retry; any other unexpected handler exception maps to a JSON 500 instead of
the stdlib's HTML traceback page, so one buggy route can never take the
daemon thread down silently or leak stack traces to clients.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from threading import Thread

from repro.faults import InjectedFault, fault_point
from repro.serve.federation import FencedLeaseError, NodeGoneError, UnknownNodeError
from repro.serve.jobstore import TERMINAL_STATES
from repro.serve.service import AdmissionError, CampaignService
from repro.utils.validation import ValidationError
from repro.version import __version__

__all__ = ["ServeDaemon", "ServeAPIHandler", "DEFAULT_HOST", "DEFAULT_PORT"]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8321

#: Seconds of event-stream silence before a ``: keep-alive`` comment chunk.
STREAM_KEEPALIVE_S = 1.0


class ServeAPIHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the attached :class:`CampaignService`."""

    server_version = f"repro-serve/{__version__}"
    #: HTTP/1.1 enables chunked transfer encoding for ``?follow=1`` event
    #: streams (every other response carries an explicit Content-Length).
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> CampaignService:
        return self.server.service  # type: ignore[attr-defined]

    # --------------------------------------------------------------- routes
    def do_GET(self) -> None:  # noqa: N802 — http.server API
        path, _, query = self.path.partition("?")
        parts = [part for part in path.split("/") if part]
        try:
            fault_point("api.handle", key=f"GET {path}")
            if parts == ["healthz"]:
                self._send_json(200, self.service.health())
            elif parts == ["jobs"]:
                self._send_json(
                    200, {"jobs": [job.summary() for job in self.service.jobs()]}
                )
            elif len(parts) == 2 and parts[0] == "jobs":
                job = self.service.job(parts[1])
                if job is None:
                    self._send_json(404, {"error": f"unknown job {parts[1]!r}"})
                else:
                    self._send_json(200, job.to_dict())
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "events":
                self._send_events(parts[1], follow="follow=1" in query)
            elif parts == ["nodes"]:
                self._send_json(200, {"nodes": self.service.federation.nodes()})
            elif len(parts) == 2 and parts[0] == "results":
                results = self.service.results(parts[1])
                if results is None:
                    self._send_json(404, {"error": f"unknown job {parts[1]!r}"})
                else:
                    self._send_json(200, results)
            else:
                self._send_json(404, {"error": f"no route for GET {path}"})
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response
        except InjectedFault as exc:
            self._send_unavailable(exc)
        except Exception as exc:  # noqa: BLE001 — see module docstring
            self._send_error(exc)

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        parts = [part for part in self.path.split("/") if part]
        try:
            fault_point("api.handle", key=f"POST {self.path}")
            if parts == ["sweeps"]:
                self._submit_sweep()
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
                job = self.service.cancel(parts[1])
                if job is None:
                    self._send_json(404, {"error": f"unknown job {parts[1]!r}"})
                else:
                    self._send_json(200, job.summary())
            elif parts == ["nodes"]:
                self._register_node()
            elif len(parts) == 3 and parts[0] == "nodes":
                self._node_action(parts[1], parts[2])
            elif parts == ["leases"]:
                self._claim_leases()
            elif len(parts) == 3 and parts[0] == "leases":
                self._lease_action(parts[1], parts[2])
            else:
                self._send_json(404, {"error": f"no route for POST {self.path}"})
        except (BrokenPipeError, ConnectionResetError):
            pass
        except InjectedFault as exc:
            self._send_unavailable(exc)
        except UnknownNodeError as exc:
            self._send_json(404, {"error": str(exc.args[0] if exc.args else exc)})
        except NodeGoneError as exc:
            self._send_json(410, {"error": str(exc)})
        except FencedLeaseError as exc:
            self._send_json(409, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 — see module docstring
            self._send_error(exc)

    def _send_unavailable(self, exc: Exception) -> None:
        """Transient-failure shape (503 + Retry-After): the client should retry."""
        try:
            self._send_json(
                503,
                {"error": f"temporarily unavailable: {exc}"},
                headers={"Retry-After": "1"},
            )
        except (BrokenPipeError, ConnectionResetError):
            pass

    def _send_error(self, exc: Exception) -> None:
        """Terminal-failure shape (JSON 500), replacing stdlib HTML tracebacks."""
        try:
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
        except (BrokenPipeError, ConnectionResetError):
            pass

    # -------------------------------------------------------------- actions
    def _read_json(self) -> dict:
        """Parse the request body; raises ``ValueError`` for torn/bad bodies."""
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length) if length else b""
        if length and len(body) < length:
            raise ValueError("request body shorter than Content-Length (torn upload)")
        payload = json.loads(body or b"{}")
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _submit_sweep(self) -> None:
        try:
            payload = self._read_json()
        except (ValueError, json.JSONDecodeError) as exc:
            self._send_json(400, {"error": f"bad request body: {exc}"})
            return
        client = str(self.headers.get("X-Repro-Client", "")).strip()
        try:
            job, created = self.service.submit(payload, client=client)
        except AdmissionError as exc:
            self._send_json(429, {"error": str(exc)}, headers={"Retry-After": "1"})
            return
        except (ValidationError, KeyError, TypeError, ValueError) as exc:
            message = exc.args[0] if exc.args else exc
            self._send_json(400, {"error": f"invalid sweep: {message}"})
            return
        self._send_json(202 if created else 200, job.to_dict() | {"created": created})

    # ------------------------------------------------------ federation routes
    def _register_node(self) -> None:
        try:
            payload = self._read_json()
            config = self.service.federation.register_node(
                node_id=str(payload.get("node_id", "")),
                workers=int(payload.get("workers", 1)),
                host=str(payload.get("host", "")),
                pid=payload.get("pid"),
            )
        except (ValueError, TypeError, json.JSONDecodeError) as exc:
            self._send_json(400, {"error": f"bad node registration: {exc}"})
            return
        self._send_json(200, config)

    def _node_action(self, node_id: str, action: str) -> None:
        federation = self.service.federation
        if action == "heartbeat":
            self._send_json(200, federation.heartbeat(node_id))
        elif action == "drain":
            self._send_json(200, federation.drain(node_id))
        elif action == "deregister":
            self._send_json(200, federation.deregister_node(node_id))
        else:
            self._send_json(404, {"error": f"no route for POST {self.path}"})

    def _claim_leases(self) -> None:
        try:
            payload = self._read_json()
            node_id = str(payload["node_id"])
            max_runs = int(payload.get("max_runs", 1))
        except (ValueError, TypeError, KeyError, json.JSONDecodeError) as exc:
            self._send_json(400, {"error": f"bad lease claim: {exc}"})
            return
        leases = self.service.federation.claim(node_id, max_runs=max_runs)
        self._send_json(200, {"leases": leases})

    def _lease_action(self, lease_id: str, action: str) -> None:
        try:
            payload = self._read_json()
            node_id = str(payload["node_id"])
            token = str(payload["token"])
        except (ValueError, TypeError, KeyError, json.JSONDecodeError) as exc:
            self._send_json(400, {"error": f"bad lease request: {exc}"})
            return
        federation = self.service.federation
        if action == "renew":
            self._send_json(200, federation.renew(lease_id, node_id, token))
        elif action == "result":
            record_dict = payload.get("record")
            if not isinstance(record_dict, dict):
                self._send_json(400, {"error": "lease result needs a 'record' object"})
                return
            try:
                record = federation.upload(lease_id, node_id, token, record_dict)
            except (KeyError, TypeError, ValueError) as exc:
                self._send_json(400, {"error": f"malformed run record: {exc}"})
                return
            self._send_json(200, {"accepted": True, "ok": record.ok})
        else:
            self._send_json(404, {"error": f"no route for POST {self.path}"})

    # --------------------------------------------------------- event streams
    def _send_events(self, job_id: str, follow: bool) -> None:
        if self.service.job(job_id) is None:
            self._send_json(404, {"error": f"unknown job {job_id!r}"})
            return
        if not follow:
            body = "".join(
                line + "\n" for line in self.service.events(job_id)
            ).encode()
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; charset=utf-8")
            self.send_header("Cache-Control", "no-store")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        self._follow_chunked(job_id)

    def _follow_chunked(self, job_id: str) -> None:
        """Chunked event stream with keep-alive comments during silence.

        Each batch of new progress lines is flushed as its own chunk, so
        proxies that buffer unframed bodies still deliver promptly; when no
        event lands for :data:`STREAM_KEEPALIVE_S`, a ``: keep-alive`` comment
        line (ignored by readers — it starts with ``:``, like SSE comments)
        keeps idle-timeout middleboxes from cutting the stream.  The stream
        ends with a proper zero-length chunk once the job is terminal, so
        clients can tell completion from a dropped connection.
        """
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        sent = 0
        last_write = time.monotonic()
        while True:
            events = self.service.events(job_id)
            batch = "".join(line + "\n" for line in events[sent:])
            sent = len(events)
            if batch:
                self._write_chunk(batch.encode())
                last_write = time.monotonic()
            job = self.service.job(job_id)
            if job is None or job.state in TERMINAL_STATES:
                break
            if time.monotonic() - last_write >= STREAM_KEEPALIVE_S:
                self._write_chunk(b": keep-alive\n")
                last_write = time.monotonic()
            time.sleep(0.2)
        self._write_chunk(b"")  # terminal chunk: the stream ended cleanly

    def _write_chunk(self, data: bytes) -> None:
        self.wfile.write(f"{len(data):X}\r\n".encode() + data + b"\r\n")
        self.wfile.flush()

    # -------------------------------------------------------------- plumbing
    def _send_json(
        self, code: int, payload: dict, headers: dict[str, str] | None = None
    ) -> None:
        body = json.dumps(payload, indent=2, sort_keys=True).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002 — stdlib name
        pass  # per-request stderr chatter off; the CLI prints the service lines


class ServeDaemon:
    """A :class:`ThreadingHTTPServer` bound to one :class:`CampaignService`."""

    def __init__(
        self,
        service: CampaignService,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
    ):
        self.service = service
        # Fork the workers before binding: a worker holding the listening
        # socket would keep the port after this process died.  Jobs are
        # recovered and scheduled only once the port is ours.
        if service.pool is not None:
            service.pool.start()
        try:
            self.server = ThreadingHTTPServer((host, port), ServeAPIHandler)
        except OSError:
            if service.pool is not None:
                service.pool.stop()
            raise
        self.server.daemon_threads = True
        self.server.service = service  # type: ignore[attr-defined]
        self._thread: Thread | None = None

    @property
    def host(self) -> str:
        return self.server.server_address[0]

    @property
    def port(self) -> int:
        return self.server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        """Start the service and serve HTTP on a background thread."""
        self.service.start()
        self._thread = Thread(
            target=self.server.serve_forever, name="repro-serve-http", daemon=True
        )
        self._thread.start()

    def serve_forever(self) -> None:
        """Start the service and serve HTTP on the calling thread."""
        self.service.start()
        self.server.serve_forever()

    def shutdown(self, graceful: bool = True) -> None:
        self.server.shutdown()
        self.server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.service.shutdown(graceful=graceful)
