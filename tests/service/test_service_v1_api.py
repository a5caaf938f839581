"""The versioned service surface: protocol version, typed errors, docs.

Pins the surface contracts: ``ping``/``hello`` carry
``protocol_version``; every failure speaks the one typed error
vocabulary of :mod:`repro.service.errors`; cancellation is idempotent;
every op of the table is served; and ``docs/api.md`` embeds exactly what
the op table renders — the docs cannot drift from the server.
"""

import json
import pathlib
import socket

import pytest

from repro.service.errors import (
    ERROR_CODES,
    InvalidJobError,
    RejectedError,
    ServiceError,
    UnknownJobError,
    error_from_payload,
    error_payload,
)
from repro.service.routes import OPS, PROTOCOL_VERSION, render_api_reference
from repro.service.supervisor import InlineJobExecutor

DOCS_API = pathlib.Path(__file__).resolve().parents[2] / "docs" / "api.md"


class TestProtocolVersion:
    def test_ping_and_hello_carry_protocol_version(self, service_server):
        client = service_server(executor_factory=InlineJobExecutor).client()
        assert client.ping() is True
        hello = client.hello()
        assert hello["protocol_version"] == PROTOCOL_VERSION
        assert "api_version" not in hello
        assert hello["auth"] is False
        assert hello["durable"] is False
        assert set(hello["load_shed"]) == {
            "rejected_queue_full",
            "rejected_tenant_quota",
            "unauthorized",
            "recovered",
        }

    def test_hello_counts_jobs_by_state(self, service_server, small_fig1_job):
        client = service_server(executor_factory=InlineJobExecutor).client()
        job_id = client.submit(small_fig1_job)["job"]
        client.events(job_id)
        jobs = client.hello()["jobs"]
        assert jobs == {
            "queued": 0,
            "running": 0,
            "completed": 1,
            "failed": 0,
            "cancelled": 0,
        }


class TestIdempotentCancel:
    def test_cancel_twice_reports_true_then_false(
        self, service_server, small_fig1_job, wait_until
    ):
        from test_service_faults import _HangingJobExecutor

        client = service_server(executor_factory=_HangingJobExecutor).client()
        job_id = client.submit(small_fig1_job)["job"]
        first = client.cancel(job_id)
        assert first["ok"] is True and first["cancelled"] is True
        wait_until(
            lambda: client.status(job_id)["state"] == "cancelled",
            message="cancellation to land",
        )
        second = client.cancel(job_id)
        assert second["ok"] is True and second["cancelled"] is False
        assert second["state"] == "cancelled"

    def test_cancelling_a_completed_job_twice_changes_nothing(
        self, service_server, small_fig1_job
    ):
        client = service_server(executor_factory=InlineJobExecutor).client()
        job_id = client.submit(small_fig1_job)["job"]
        client.events(job_id)
        first = client.cancel(job_id)
        second = client.cancel(job_id)
        assert first["cancelled"] is second["cancelled"] is False
        assert first["state"] == second["state"] == "completed"


class TestErrorSurface:
    def test_every_code_round_trips_through_the_payload(self):
        for code, cls in ERROR_CODES.items():
            err = (
                cls("boom", retry_after=7) if cls is RejectedError else cls("boom")
            )
            payload = error_payload(err)
            assert payload["code"] == code
            assert payload["retryable"] is cls.retryable
            back = error_from_payload(payload)
            assert type(back) is cls and str(back) == "boom"
            assert issubclass(cls, ServiceError)
        assert error_from_payload({"code": "from_the_future"}).code == (
            "service_error"
        )

    def test_rejected_error_carries_retry_after(self):
        err = error_from_payload(error_payload(RejectedError("full", retry_after=9)))
        assert isinstance(err, RejectedError)
        assert err.retry_after == 9 and err.retryable

    def test_client_raises_the_typed_error(self, service_server):
        client = service_server(executor_factory=InlineJobExecutor).client()
        with pytest.raises(UnknownJobError):
            client.status("j9999-cafecafe")
        with pytest.raises(InvalidJobError):
            client.submit({"experiment": "nope"})


class TestApiDocsGenerated:
    def test_docs_api_md_embeds_the_rendered_route_table(self):
        """docs/api.md's generated block is byte-identical to the
        renderer — the same check tools/lint_api_surface.py runs in CI."""
        text = DOCS_API.read_text(encoding="utf-8")
        begin = text.index("<!-- generated:begin -->")
        end = text.index("<!-- generated:end -->")
        block = text[begin + len("<!-- generated:begin -->") : end].strip("\n")
        assert block == render_api_reference().strip("\n")

    def test_every_documented_op_is_served(self, service_server):
        """Each op of the table reaches its handler: none is answered as
        an unknown op, and an op outside the table is."""
        server = service_server(executor_factory=InlineJobExecutor)
        with socket.create_connection((server.host, server.port), timeout=60) as sock:
            stream = sock.makefile("rwb")
            for op in [name for name, _ in OPS] + ["warp"]:
                stream.write(json.dumps({"op": op, "job": "nope"}).encode() + b"\n")
                stream.flush()
                reply = json.loads(stream.readline())
                unknown = "unknown op" in reply.get("error", "")
                assert unknown == (op == "warp"), (op, reply)
