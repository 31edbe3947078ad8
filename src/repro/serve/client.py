"""A tiny stdlib client for the job server.

:class:`ServeClient` speaks the server's one-request-per-connection
HTTP/1.1 subset through :mod:`http.client` — no dependencies, safe to
import anywhere.  ``repro submit`` is a thin CLI wrapper around it, and
the tests and the CI smoke script drive the server with it.

Rejections surface as :class:`ServeError` carrying the HTTP status and
the server's ``Retry-After`` hint, so callers can implement honest
backoff::

    client = ServeClient()              # a default ``repro serve``
    try:
        job = client.submit("characterize", {"smoke": True})
    except ServeError as exc:
        if exc.status == 429:
            time.sleep(exc.retry_after)
"""

from __future__ import annotations

import http.client
import json
import time

#: Where a default ``repro serve`` listens (``ServeConfig``'s defaults).
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8080


class ServeError(RuntimeError):
    """A request the server rejected (or a job that failed)."""

    def __init__(self, message: str, status: int = None,
                 retry_after: int = None, body: dict = None) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after
        self.body = body or {}


class ServeClient:
    """Submit jobs and poll the server, synchronously."""

    def __init__(self, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
                 url: str = None, name: str = None,
                 timeout: float = 60.0) -> None:
        if url is not None:
            host, port = self._parse_url(url)
        self.host = host
        self.port = port
        self.name = name        #: sent as X-Repro-Client (rate-limit id)
        self.timeout = timeout

    @staticmethod
    def _parse_url(url: str):
        stripped = url.strip().rstrip("/")
        for prefix in ("http://", "https://"):
            if stripped.startswith(prefix):
                stripped = stripped[len(prefix):]
        host, _, port = stripped.partition(":")
        if not host or not port.isdigit():
            raise ServeError(f"cannot parse server url {url!r}; "
                             "expected http://HOST:PORT")
        return host, int(port)

    def _request(self, method: str, target: str, doc=None):
        """One round trip; returns (status, parsed body, headers)."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout)
        headers = {"Content-Type": "application/json"}
        if self.name:
            headers["X-Repro-Client"] = self.name
        body = json.dumps(doc).encode() if doc is not None else None
        try:
            connection.request(method, target, body=body,
                               headers=headers)
            response = connection.getresponse()
            raw = response.read()
            try:
                parsed = json.loads(raw) if raw else None
            except json.JSONDecodeError as exc:
                raise ServeError(
                    f"server sent non-JSON body for {method} {target}: "
                    f"{raw[:200]!r}", status=response.status) from exc
            return response.status, parsed, dict(response.getheaders())
        except (ConnectionError, OSError, http.client.HTTPException) \
                as exc:
            raise ServeError(
                f"cannot reach server at {self.host}:{self.port}: "
                f"{exc}") from exc
        finally:
            connection.close()

    def _checked(self, method: str, target: str, doc=None):
        status, body, headers = self._request(method, target, doc)
        if status >= 400:
            retry = headers.get("Retry-After")
            message = (body or {}).get("error", f"HTTP {status}")
            raise ServeError(f"{method} {target} -> {status}: "
                             f"{message}", status=status,
                             retry_after=int(retry) if retry else None,
                             body=body)
        return body

    # -- the service surface -------------------------------------------

    def submit(self, command: str, params: dict = None,
               wait: bool = True, poll: float = 0.05,
               timeout: float = 600.0) -> dict:
        """Submit one job; with ``wait``, block until it finishes.

        Returns the job document.  A job that *fails* raises
        :class:`ServeError` (with ``status=None`` — the submission
        itself was accepted); rejected submissions raise with the HTTP
        status and any ``Retry-After`` hint.
        """
        job = self._checked("POST", "/jobs",
                            {"command": command, "params": params or {}})
        if wait:
            job = self.wait(job["id"], poll=poll, timeout=timeout)
        if job["status"] == "failed":
            raise ServeError(f"job {job['id']} failed: {job['error']}",
                             body=job)
        return job

    def wait(self, job_id: str, poll: float = 0.05,
             timeout: float = 600.0) -> dict:
        """Poll ``/jobs/<id>`` until the job is done or failed."""
        deadline = time.monotonic() + timeout
        while True:
            job = self.job(job_id)
            if job["status"] in ("done", "failed"):
                return job
            if time.monotonic() >= deadline:
                raise ServeError(f"timed out after {timeout}s waiting "
                                 f"for job {job_id} "
                                 f"(status {job['status']})")
            time.sleep(poll)

    def job(self, job_id: str) -> dict:
        return self._checked("GET", f"/jobs/{job_id}")

    def jobs(self) -> list:
        return self._checked("GET", "/jobs")["jobs"]

    def metrics(self) -> dict:
        return self._checked("GET", "/metrics")

    def health(self) -> dict:
        return self._checked("GET", "/healthz")
