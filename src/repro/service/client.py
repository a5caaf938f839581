"""Blocking JSON-line client for the job service (stdlib sockets only).

The client the tests, the docs snippets and the CI smoke driver share.
Each call opens one fresh connection — the protocol is stateless per
request, so there is no connection lifecycle to manage and a killed
server never wedges a client between calls.

Failures arrive as the typed hierarchy of :mod:`repro.service.errors`:
the server's ``code`` field picks the exception class, so callers catch
:class:`~repro.service.errors.RejectedError` (and read its
``retry_after``) or :class:`~repro.service.errors.UnknownJobError`
instead of matching message strings.

>>> client = ServiceClient("127.0.0.1", 8831, token="s3cret")  # doctest: +SKIP
>>> job = client.submit({"experiment": "fig1", "trials": 1})
>>> transcript = client.events(job["job"])           # blocks to terminal
>>> artifact = client.artifact(job["job"])
"""

from __future__ import annotations

import socket

from repro.exceptions import ServiceError
from repro.service.errors import error_from_payload
from repro.service.protocol import decode_line, encode_line


class ServiceClient:
    """Talk to a :class:`~repro.service.server.JobServer` synchronously.

    Parameters
    ----------
    host / port:
        Where the server listens (the ``repro serve`` readiness line).
    timeout:
        Per-socket-operation timeout in seconds.  For :meth:`events` it
        bounds the silence *between* events, not the whole stream.
    token:
        Bearer token sent with every request; required when the server
        runs with ``--auth-token-file``, ignored by an open server.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 120.0,
        token: str | None = None,
    ):
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self.token = token

    def _connect(self):
        return socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )

    def _message(self, op: str, **fields) -> dict:
        message = {"op": op, **fields}
        if self.token is not None:
            message["token"] = self.token
        return message

    def _call(self, message: dict) -> dict:
        """One request/one reply; raises the typed error on ok=false."""
        with self._connect() as sock, sock.makefile("rwb") as stream:
            stream.write(encode_line(message))
            stream.flush()
            raw = stream.readline()
        if not raw:
            raise ServiceError("server closed the connection without replying")
        reply = decode_line(raw)
        if not reply.get("ok"):
            raise error_from_payload(reply)
        return reply

    def ping(self) -> bool:
        """True when the server answers."""
        return bool(self._call(self._message("ping")).get("pong"))

    def hello(self) -> dict:
        """Server identity: protocol version, job counts, counters."""
        reply = self._call(self._message("hello"))
        reply.pop("ok", None)
        return reply

    def submit(self, job: dict) -> dict:
        """Submit a job object; returns its status (``job`` is the id)."""
        return self._call(self._message("submit", spec=job))

    def status(self, job_id: str) -> dict:
        """Current status of one job."""
        return self._call(self._message("status", job=job_id))

    def jobs(self) -> list[dict]:
        """Statuses of every job this token can see, in submission order."""
        return self._call(self._message("jobs"))["jobs"]

    def artifact(self, job_id: str) -> dict:
        """The finished ``repro.sweep/1`` artifact; raises if not done."""
        return self._call(self._message("artifact", job=job_id))["artifact"]

    def cancel(self, job_id: str) -> dict:
        """Request cancellation (idempotent); returns the status.

        The reply's ``cancelled`` field reports whether this call
        changed anything — ``False`` means the job was already terminal.
        """
        return self._call(self._message("cancel", job=job_id))

    def events(self, job_id: str) -> list[dict]:
        """The job's full event transcript; blocks until it terminates.

        Replays every event emitted so far, then streams live ones; the
        server ends the stream with a ``done`` marker once the job is
        terminal, so calling this on a finished job returns immediately.
        """
        transcript: list[dict] = []
        with self._connect() as sock, sock.makefile("rwb") as stream:
            stream.write(encode_line(self._message("events", job=job_id)))
            stream.flush()
            while True:
                raw = stream.readline()
                if not raw:
                    raise ServiceError("event stream ended without a done marker")
                message = decode_line(raw)
                if "event" in message:
                    transcript.append(message)
                    continue
                if not message.get("ok"):
                    raise error_from_payload(message)
                if message.get("done"):
                    return transcript

    def wait(self, job_id: str) -> dict:
        """Block until the job terminates; returns its final status."""
        self.events(job_id)
        return self.status(job_id)
