"""Thin stdlib HTTP client for a running ``repro serve`` daemon.

Wraps :mod:`urllib.request` so the CLI (``repro submit`` / ``repro jobs``)
and tests talk to the service without any new dependency.  Error responses
raise :class:`ServeError` carrying the HTTP status and the server's decoded
JSON error payload, so callers can distinguish "queue full, retry" (429)
from "bad sweep" (400).

Transient failures are retried transparently with capped exponential backoff
and deterministic jitter: **429** and **503** responses (honoring the
server's ``Retry-After`` header) and connection-level errors (daemon
restarting, socket reset) are re-attempted up to ``retries`` extra times
before the final :class:`ServeError` surfaces.  Definitive errors — 400 bad
sweep, 404 unknown job — are never retried.  Jitter is derived from
``(retry_seed, request, attempt)`` via the same machinery as the engine's
:class:`~repro.engine.executor.RetryPolicy`, so client behavior in chaos
tests is reproducible.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import time
import urllib.error
import urllib.request

from repro.engine.executor import RetryPolicy
from repro.serve.api import DEFAULT_HOST, DEFAULT_PORT
from repro.serve.jobstore import TERMINAL_STATES

__all__ = ["ServeClient", "ServeError", "JobFailedError", "DEFAULT_URL"]

DEFAULT_URL = f"http://{DEFAULT_HOST}:{DEFAULT_PORT}"

#: HTTP statuses that mean "try the same request again shortly".
_RETRYABLE_STATUSES = (429, 503)


class ServeError(RuntimeError):
    """An error response (or connection failure) from the serve daemon."""

    def __init__(self, message: str, status: int = 0, payload: dict | None = None):
        super().__init__(message)
        self.status = status
        self.payload = payload or {}


class JobFailedError(ServeError):
    """A job reached a *failed*/*cancelled* terminal state.

    Raised by :meth:`ServeClient.wait` so callers can tell "the campaign
    finished badly" apart from transport-level :class:`ServeError`\\ s (which
    carry an HTTP status).  Carries the full job document and the
    quarantined-point list — exactly which runs were given up on and why.
    """

    def __init__(self, job: dict):
        self.job = dict(job)
        self.state = str(job.get("state", ""))
        self.quarantined = [dict(entry) for entry in job.get("quarantined", ())]
        detail = job.get("error") or job.get("note") or ""
        labels = ", ".join(
            str(entry.get("label", "?")) for entry in self.quarantined[:3]
        )
        if labels:
            more = len(self.quarantined) - 3
            detail += f" (quarantined: {labels}{f' +{more} more' if more > 0 else ''})"
        message = f"job {job.get('job_id', '?')} {self.state}"
        super().__init__(
            f"{message}: {detail}" if detail else message,
            status=0,
            payload=self.job,
        )


class ServeClient:
    """Talks JSON to one daemon; every method maps to one endpoint.

    Parameters
    ----------
    retries:
        Extra attempts after the first for retryable failures (429/503/
        connection errors).  ``0`` disables retrying entirely.
    backoff_s / backoff_cap_s:
        Exponential backoff base and ceiling between attempts; a server
        ``Retry-After`` hint raises (never lowers) the computed delay, still
        capped at ``backoff_cap_s``.
    retry_seed:
        Seed for the deterministic backoff jitter.
    client:
        Self-declared client identity, sent as ``X-Repro-Client`` on every
        request — the key the daemon's per-client admission quota charges.
        Empty means anonymous (all anonymous callers share one quota bucket).
    """

    def __init__(
        self,
        url: str = DEFAULT_URL,
        timeout: float = 30.0,
        retries: int = 3,
        backoff_s: float = 0.2,
        backoff_cap_s: float = 3.0,
        retry_seed: int = 0,
        client: str = "",
    ):
        self.url = url.rstrip("/")
        self.timeout = timeout
        self.client = str(client)
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.retries = retries
        self._backoff = RetryPolicy(
            max_attempts=retries + 1,
            backoff_s=backoff_s,
            backoff_cap_s=backoff_cap_s,
            seed=retry_seed,
        )

    # ------------------------------------------------------------- plumbing
    def _request(self, method: str, path: str, payload: dict | None = None):
        for attempt in range(1, self.retries + 2):
            try:
                return self._request_once(method, path, payload)
            except ServeError as exc:
                delay = self._retry_delay(exc, attempt, f"{method} {path}")
                if delay is None:
                    raise
                time.sleep(delay)
        raise AssertionError("unreachable")  # loop always returns or raises

    def _retry_delay(self, exc: ServeError, attempt: int, key: str) -> float | None:
        """Backoff before retrying after failed ``attempt``; None: give up."""
        retryable = exc.status in _RETRYABLE_STATUSES or exc.status == 0
        if attempt > self.retries or not retryable:
            return None
        delay = self._backoff.delay_s(attempt, key=key)
        retry_after = exc.payload.get("retry_after")
        if retry_after is not None:
            delay = max(delay, float(retry_after))
        return min(delay, self._backoff.backoff_cap_s)

    def _request_once(self, method: str, path: str, payload: dict | None = None):
        data = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        if self.client:
            headers["X-Repro-Client"] = self.client
        request = urllib.request.Request(
            f"{self.url}{path}", data=data, method=method, headers=headers
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                body = response.read()
                content_type = response.headers.get("Content-Type", "")
        except urllib.error.HTTPError as exc:
            try:
                error_payload = json.loads(exc.read() or b"{}")
            except json.JSONDecodeError:
                error_payload = {}
            retry_after = exc.headers.get("Retry-After") if exc.headers else None
            if retry_after is not None:
                try:
                    error_payload.setdefault("retry_after", float(retry_after))
                except ValueError:
                    pass
            message = error_payload.get("error", f"HTTP {exc.code}")
            raise ServeError(message, status=exc.code, payload=error_payload) from exc
        except (urllib.error.URLError, OSError) as exc:
            raise ServeError(
                f"cannot reach repro serve at {self.url}: {exc}"
            ) from exc
        if "text/plain" in content_type:
            return body.decode()
        return json.loads(body) if body else {}

    # ------------------------------------------------------------ endpoints
    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def submit(self, sweep: dict) -> dict:
        """``POST /sweeps``; raises :class:`ServeError` with status 429 when full.

        A 429 is retried with backoff first (it is the service saying "soon");
        the error only surfaces once the retry budget is spent.
        """
        return self._request("POST", "/sweeps", payload=sweep)

    def jobs(self) -> list[dict]:
        return self._request("GET", "/jobs")["jobs"]

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}")

    def events(self, job_id: str) -> list[str]:
        text = self._request("GET", f"/jobs/{job_id}/events")
        return [line for line in str(text).splitlines() if line]

    def cancel(self, job_id: str) -> dict:
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def results(self, job_id: str) -> dict:
        return self._request("GET", f"/results/{job_id}")

    # ----------------------------------------------------------- federation
    def nodes(self) -> list[dict]:
        return self._request("GET", "/nodes")["nodes"]

    def register_node(
        self, node_id: str, workers: int = 1, host: str = "", pid: int | None = None
    ) -> dict:
        return self._request(
            "POST",
            "/nodes",
            payload={"node_id": node_id, "workers": workers, "host": host, "pid": pid},
        )

    def node_heartbeat(self, node_id: str) -> dict:
        return self._request("POST", f"/nodes/{node_id}/heartbeat", payload={})

    def drain_node(self, node_id: str) -> dict:
        return self._request("POST", f"/nodes/{node_id}/drain", payload={})

    def deregister_node(self, node_id: str) -> dict:
        return self._request("POST", f"/nodes/{node_id}/deregister", payload={})

    def claim_leases(self, node_id: str, max_runs: int = 1) -> list[dict]:
        answer = self._request(
            "POST", "/leases", payload={"node_id": node_id, "max_runs": max_runs}
        )
        return list(answer.get("leases", ()))

    def renew_lease(self, lease_id: str, node_id: str, token: str) -> dict:
        return self._request(
            "POST",
            f"/leases/{lease_id}/renew",
            payload={"node_id": node_id, "token": token},
        )

    def upload_result(
        self, lease_id: str, node_id: str, token: str, record: dict
    ) -> dict:
        return self._request(
            "POST",
            f"/leases/{lease_id}/result",
            payload={"node_id": node_id, "token": token, "record": record},
        )

    # ------------------------------------------------------------ streaming
    def stream_events(self, job_id: str):
        """Yield the job's progress lines live until it reaches a terminal state.

        Consumes the chunked ``?follow=1`` stream; ``: keep-alive`` comment
        lines are filtered out.  The per-read socket timeout is
        ``self.timeout`` — the server's keep-alive cadence (~1s) keeps an idle
        but healthy stream alive indefinitely, while a dead daemon still times
        out.
        """
        return (line for line in self._follow(job_id) if line)

    def _follow(self, job_id: str):
        """The job's event stream line by line, each keep-alive comment as ``""``."""
        headers = {"X-Repro-Client": self.client} if self.client else {}
        request = urllib.request.Request(
            f"{self.url}/jobs/{job_id}/events?follow=1", headers=headers
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                for raw in response:
                    for line in raw.decode(errors="replace").splitlines():
                        yield "" if line.startswith(":") else line
        except urllib.error.HTTPError as exc:
            try:
                payload = json.loads(exc.read() or b"{}")
            except json.JSONDecodeError:
                payload = {}
            raise ServeError(
                payload.get("error", f"HTTP {exc.code}"), status=exc.code,
                payload=payload,
            ) from exc
        except (urllib.error.URLError, OSError, http.client.HTTPException) as exc:
            raise ServeError(
                f"event stream for job {job_id} broke: {exc}"
            ) from exc

    # ------------------------------------------------------------ waiting
    def wait(self, job_id: str, timeout: float | None = None, on_event=None) -> dict:
        """Follow the job's event stream until it is terminal; returns its document.

        ``on_event`` (if given) receives every progress line exactly once as
        the wait progresses — the CLI uses it to mirror the sweep command's
        live per-point output.  A stream broken by a daemon restart is
        re-opened under the client's retry policy, skipping the lines already
        delivered.  The daemon's keep-alive comments (about one a second) let
        an idle wait notice its ``timeout``.

        A job ending ``failed`` or ``cancelled`` raises
        :class:`JobFailedError` (carrying the terminal job document and its
        quarantined-point list) so callers cannot mistake a bad campaign for
        a good one.  Transport problems and a passed ``timeout`` raise plain
        :class:`ServeError` — the two failure modes are different types.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        delivered = 0
        broken = 0  # consecutive failed stream attempts
        while True:
            seen = 0
            try:
                with contextlib.closing(self._follow(job_id)) as lines:
                    for line in lines:
                        broken = 0
                        if line:
                            seen += 1
                            if seen > delivered:
                                delivered = seen
                                if on_event is not None:
                                    on_event(line)
                        if deadline is not None and time.monotonic() > deadline:
                            break
            except ServeError as exc:
                broken += 1
                delay = self._retry_delay(exc, broken, f"GET /jobs/{job_id}/events")
                if delay is None:
                    raise
                time.sleep(delay)
                continue
            job = self.job(job_id)
            if job["state"] in TERMINAL_STATES:
                if on_event is not None:
                    for line in self.events(job_id)[delivered:]:
                        on_event(line)
                if job["state"] in ("failed", "cancelled"):
                    raise JobFailedError(job)
                return job
            if deadline is not None and time.monotonic() > deadline:
                raise ServeError(
                    f"timed out after {timeout}s waiting for job {job_id} "
                    f"({job['done']}/{job['total']} points done)"
                )
