"""The asyncio job server: one event loop owning every connection.

:class:`JobServer` binds a single listening socket.  Every connection is
a JSON-line session (see :mod:`repro.service.protocol`): one request
object per line, one reply per line, many requests per connection.  All
I/O and all job bookkeeping run on the one event loop; only job
execution leaves it, into per-job supervisor threads managed by
:class:`~repro.service.manager.JobManager`.

The op table lives in :mod:`repro.service.routes` — ``docs/api.md`` is
generated from it — and every failure is one of the typed errors in
:mod:`repro.service.errors`, answered in band with its ``code``; an
error never ends the session.

On boot (before accepting connections) the server replays the durable
job table from the store, re-queueing every job a previous life left
unfinished — see :meth:`~repro.service.manager.JobManager.recover`.
"""

from __future__ import annotations

import asyncio

from repro.exceptions import ReproError
from repro.service.auth import TokenAuthenticator
from repro.service.errors import (
    AuthError,
    ProtocolError,
    as_service_error,
    error_payload,
)
from repro.service.manager import JobManager
from repro.service.protocol import MAX_LINE_BYTES, decode_line, encode_line
from repro.service.routes import PROTOCOL_VERSION


class JobServer:
    """A job service bound to one host/port (``port=0`` = ephemeral)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        store_dir=None,
        workers: int = 2,
        job_timeout: float | None = None,
        job_retries: int = 1,
        executor_factory=None,
        max_queued: int | None = None,
        max_jobs_per_tenant: int | None = None,
        auth_token_file=None,
    ):
        self.manager = JobManager(
            store_dir=store_dir,
            workers=workers,
            job_timeout=job_timeout,
            job_retries=job_retries,
            executor_factory=executor_factory,
            max_queued=max_queued,
            max_jobs_per_tenant=max_jobs_per_tenant,
        )
        self.auth = (
            TokenAuthenticator.from_file(auth_token_file)
            if auth_token_file is not None
            else TokenAuthenticator()
        )
        self._requested = (host, port)
        self._server: asyncio.AbstractServer | None = None
        self.host: str | None = None
        self.port: int | None = None
        #: Jobs re-queued from the durable table by the last start().
        self.recovered = 0

    async def start(self) -> tuple[str, int]:
        """Recover durable jobs, then bind; returns the actual (host, port)."""
        self.recovered = self.manager.recover()
        host, port = self._requested
        self._server = await asyncio.start_server(
            self._handle, host, port, limit=MAX_LINE_BYTES
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self.host, self.port

    async def serve_forever(self) -> None:
        """Block until the server is closed (CLI entry point)."""
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, cancel live jobs, wait for their actors."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.manager.close()

    def _authenticate(self, token: str | None) -> str:
        """Token → tenant; counts and re-raises authentication failures."""
        try:
            return self.auth.authenticate(token)
        except AuthError:
            self.manager.counters["unauthorized"] += 1
            raise

    # -- connection handling ----------------------------------------------

    async def _handle(self, reader, writer) -> None:
        try:
            while line := await reader.readline():
                if line.strip():
                    await self._answer(line, writer)
        except (ConnectionError, ValueError):  # ValueError: overlong line
            pass  # client went away or sent garbage framing; drop it
        except asyncio.CancelledError:
            # Server shutdown cancelled this connection's task; finish
            # normally so the streams machinery doesn't log the teardown.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _answer(self, line: bytes, writer) -> None:
        try:
            message = decode_line(line)
            op = message.get("op")
            if op == "events":
                tenant = self._authenticate(message.get("token"))
                await self._stream_events(str(message.get("job")), writer, tenant)
                return
            reply = self._dispatch(op, message)
        except ReproError as error:
            reply = {"ok": False, **error_payload(as_service_error(error))}
        writer.write(encode_line(reply))
        await writer.drain()

    def _dispatch(self, op, message: dict) -> dict:
        """Non-streaming ops; raises a typed service error on failure."""
        manager = self.manager
        if op == "ping":
            return {"ok": True, "pong": True, "protocol_version": PROTOCOL_VERSION}
        if op == "hello":
            return {
                "ok": True,
                "protocol_version": PROTOCOL_VERSION,
                "auth": self.auth.enabled,
                **manager.stats(),
            }
        tenant = self._authenticate(message.get("token"))
        if op == "submit":
            if "spec" not in message:
                raise ProtocolError("submit carries its job object in a 'spec' field")
            record = manager.submit(message["spec"], tenant)
            return {"ok": True, **record.status()}
        if op == "status":
            return {
                "ok": True,
                **manager.get(str(message.get("job")), tenant).status(),
            }
        if op == "jobs":
            return {
                "ok": True,
                "jobs": [record.status() for record in manager.jobs(tenant)],
            }
        if op == "artifact":
            return {
                "ok": True,
                "artifact": manager.artifact(str(message.get("job")), tenant),
            }
        if op == "cancel":
            record, changed = manager.cancel(str(message.get("job")), tenant)
            return {"ok": True, "cancelled": changed, **record.status()}
        raise ProtocolError(f"unknown op {op!r}")

    async def _stream_events(self, job_id: str, writer, tenant: str) -> None:
        """Replay a job's transcript, then stream live events to terminal."""
        replay, queue = self.manager.subscribe(job_id, tenant)
        try:
            for event in replay:
                writer.write(encode_line(event))
            await writer.drain()
            if queue is not None:
                while True:
                    event = await queue.get()
                    if event is None:
                        break
                    writer.write(encode_line(event))
                    await writer.drain()
            state = self.manager.get(job_id, tenant).state
            writer.write(encode_line({"ok": True, "done": True, "state": state}))
            await writer.drain()
        finally:
            if queue is not None:
                self.manager.unsubscribe(job_id, queue)


def serve(
    host: str = "127.0.0.1",
    port: int = 8831,
    *,
    store_dir=None,
    workers: int = 2,
    job_timeout: float | None = None,
    job_retries: int = 1,
    max_queued: int | None = None,
    max_jobs_per_tenant: int | None = None,
    auth_token_file=None,
) -> int:
    """Run a job server until interrupted (the ``repro serve`` command).

    Prints one readiness line (``repro serve: listening on HOST:PORT``)
    once the socket is bound — with ``--port 0`` that line is how callers
    learn the ephemeral port — and shuts down cleanly on Ctrl-C.  The
    durable-recovery count is reported on its own line first (0 when the
    store held nothing, or no store is attached).
    """

    async def _main() -> None:
        server = JobServer(
            host,
            port,
            store_dir=store_dir,
            workers=workers,
            job_timeout=job_timeout,
            job_retries=job_retries,
            max_queued=max_queued,
            max_jobs_per_tenant=max_jobs_per_tenant,
            auth_token_file=auth_token_file,
        )
        bound_host, bound_port = await server.start()
        print(f"repro serve: recovered {server.recovered} job(s)", flush=True)
        print(f"repro serve: listening on {bound_host}:{bound_port}", flush=True)
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("repro serve: shut down", flush=True)
    return 0
