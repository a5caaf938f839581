"""Multi-tenant auth and admission control on the JSON-line surface.

The deployment-unit contracts: bearer tokens map to tenants and scope
every job lookup (a foreign job id is indistinguishable from a missing
one); queue-depth and per-tenant bounds shed submissions with the
retryable ``rejected`` error (``retry_after`` 5) while already-accepted
jobs still run to completion; and every shed/auth failure is visible in
the ``load_shed`` counters of ``hello``.  Each contract is checked both
through :class:`~repro.service.client.ServiceClient` (the typed error)
and on a raw socket (the reply's wire fields).

Determinism comes from ``_GatedExecutor``: each job attempt blocks on a
shared :class:`threading.Event` *inside the supervisor's worker thread*
(the event loop stays free), so tests can hold jobs in ``running`` for
as long as admission needs to be observed, then open the gate and watch
everything finish.
"""

import json
import socket
import threading

import pytest

from repro.service.supervisor import InlineJobExecutor
from repro.service.auth import DEFAULT_TENANT
from repro.service.errors import AuthError, RejectedError, UnknownJobError
from repro.service.jobtable import JobTable
from repro.store import ContentStore

from test_service_faults import _HangingJobExecutor

#: Every op that touches jobs, and so needs a token on an authenticated
#: server; ``ping`` and ``hello`` are the only open ones.
JOB_OPS = ("submit", "status", "jobs", "artifact", "cancel", "events")


class _GatedExecutor:
    """Runs jobs inline, but only once the shared gate opens."""

    def __init__(self, gate):
        self._gate = gate
        self._inner = InlineJobExecutor()

    def submit(self, fn, args):
        assert self._gate.wait(60), "the test never opened the job gate"
        return self._inner.submit(fn, args)


@pytest.fixture()
def gate():
    """A gate held closed for the test; always opened at teardown so
    blocked supervisor threads never outlive the server shutdown."""
    event = threading.Event()
    yield event
    event.set()


@pytest.fixture()
def token_file(tmp_path):
    path = tmp_path / "tokens.txt"
    path.write_text(
        "# tenant:token, one per line\nalice:tok-alice\nbob:tok-bob\n",
        encoding="utf-8",
    )
    return path


def _reply(server, message):
    """Send one JSON-line request on a raw socket → the decoded reply."""
    with socket.create_connection((server.host, server.port), timeout=60) as sock:
        stream = sock.makefile("rwb")
        stream.write(json.dumps(message).encode("utf-8") + b"\n")
        stream.flush()
        return json.loads(stream.readline())


class TestAuthMatrix:
    def test_missing_and_wrong_tokens_raise_auth_error(
        self, service_server, token_file
    ):
        server = service_server(
            executor_factory=InlineJobExecutor, auth_token_file=token_file
        )
        anonymous = server.client()
        assert anonymous.ping() is True  # ping/hello stay open
        assert anonymous.hello()["auth"] is True
        with pytest.raises(AuthError):
            anonymous.jobs()
        with pytest.raises(AuthError):
            server.client(token="tok-wrong").jobs()
        body = _reply(server, {"op": "jobs"})
        assert body["ok"] is False and body["code"] == "unauthorized"
        body = _reply(server, {"op": "jobs", "token": "tok-wrong"})
        assert body["ok"] is False and body["code"] == "unauthorized"
        assert anonymous.hello()["load_shed"]["unauthorized"] == 4

    @pytest.mark.parametrize("bad_token", [None, "tok-wrong"], ids=["missing", "wrong"])
    @pytest.mark.parametrize("op", JOB_OPS)
    def test_every_job_op_refuses_a_bad_token(
        self, service_server, token_file, small_fig1_job, op, bad_token
    ):
        """Aimed at alice's real job, each job op without her token is
        ``unauthorized`` — never her job's status, events or artifact —
        counts once, and changes nothing."""
        server = service_server(
            executor_factory=_HangingJobExecutor, auth_token_file=token_file
        )
        alice = server.client(token="tok-alice")
        job_id = alice.submit(small_fig1_job)["job"]
        message = {"op": op, "job": job_id, "spec": small_fig1_job}
        if bad_token is not None:
            message["token"] = bad_token
        body = _reply(server, message)
        assert body["ok"] is False and body["code"] == "unauthorized"
        assert body["retryable"] is False
        assert "event" not in body and "artifact" not in body
        assert alice.hello()["load_shed"]["unauthorized"] == 1
        assert [job["job"] for job in alice.jobs()] == [job_id]
        assert alice.status(job_id)["state"] == "running"

    @pytest.mark.parametrize("op", ["ping", "hello"])
    def test_ping_and_hello_need_no_token(self, service_server, token_file, op):
        server = service_server(
            executor_factory=InlineJobExecutor, auth_token_file=token_file
        )
        body = _reply(server, {"op": op})
        assert body["ok"] is True and body["protocol_version"] == 1
        assert _reply(server, {"op": "hello"})["load_shed"]["unauthorized"] == 0

    def test_tenants_cannot_see_each_others_jobs(
        self, service_server, token_file, small_fig1_job
    ):
        server = service_server(
            executor_factory=InlineJobExecutor, auth_token_file=token_file
        )
        alice = server.client(token="tok-alice")
        bob = server.client(token="tok-bob")

        submitted = alice.submit(small_fig1_job)
        job_id = submitted["job"]
        assert submitted["tenant"] == "alice"
        transcript = alice.events(job_id)
        assert transcript[0]["tenant"] == "alice"  # the submitted event

        # Bob's view: the job does not exist, on every operation — the
        # same unknown_job as a missing id, so ids leak nothing.
        assert bob.jobs() == []
        for call in (bob.status, bob.artifact, bob.cancel, bob.events):
            with pytest.raises(UnknownJobError):
                call(job_id)
        body = _reply(server, {"op": "status", "job": job_id, "token": "tok-bob"})
        assert body["ok"] is False and body["code"] == "unknown_job"

        # Alice's view is complete and tenant-stamped.
        assert [job["job"] for job in alice.jobs()] == [job_id]
        assert alice.status(job_id)["tenant"] == "alice"
        assert alice.artifact(job_id)["records"]

    def test_tenant_lands_in_the_durable_row(
        self, service_server, token_file, small_fig1_job, tmp_path
    ):
        store = tmp_path / "store"
        server = service_server(
            executor_factory=InlineJobExecutor,
            auth_token_file=token_file,
            store_dir=store,
        )
        alice = server.client(token="tok-alice")
        job_id = alice.submit(small_fig1_job)["job"]
        alice.events(job_id)
        row = JobTable(ContentStore(root=store)).load_row(job_id)
        assert row["tenant"] == "alice"
        assert row["state"] == "completed"
        assert row["events"][0]["tenant"] == "alice"

    def test_open_server_uses_the_public_tenant(
        self, service_server, small_fig1_job
    ):
        client = service_server(executor_factory=InlineJobExecutor).client()
        submitted = client.submit(small_fig1_job)
        assert submitted["tenant"] == DEFAULT_TENANT
        client.events(submitted["job"])


class TestAdmissionControl:
    def test_full_queue_sheds_and_accepted_jobs_still_finish(
        self, service_server, small_fig1_job, gate, wait_until
    ):
        server = service_server(
            workers=1,
            max_queued=1,
            executor_factory=lambda: _GatedExecutor(gate),
        )
        client = server.client()
        first = client.submit(small_fig1_job)["job"]
        wait_until(
            lambda: client.status(first)["state"] == "running",
            message="first job to occupy the only worker",
        )
        second = client.submit(small_fig1_job)["job"]
        assert client.status(second)["state"] == "queued"

        # The queue is at its bound: the client raises the typed
        # retryable error, whose wire fields carry retry_after.
        with pytest.raises(RejectedError) as excinfo:
            client.submit(small_fig1_job)
        assert excinfo.value.retryable and excinfo.value.retry_after == 5
        body = _reply(server, {"op": "submit", "spec": small_fig1_job})
        assert body["ok"] is False and body["retry_after"] == 5
        assert body["code"] == "rejected" and body["retryable"] is True
        assert client.hello()["load_shed"]["rejected_queue_full"] == 2
        assert [job["job"] for job in client.jobs()] == [first, second]

        # Shedding never harmed the admitted work: open the gate and
        # both accepted jobs complete with artifacts.
        gate.set()
        for job_id in (first, second):
            assert client.events(job_id)[-1]["event"] == "completed"
            assert client.artifact(job_id)["records"]
        # And with the queue drained, admission opens up again.
        reaccepted = client.submit(small_fig1_job)["job"]
        assert client.events(reaccepted)[-1]["event"] == "completed"

    def test_tenant_quota_sheds_only_the_noisy_tenant(
        self, service_server, token_file, small_fig1_job, gate, wait_until
    ):
        server = service_server(
            workers=2,
            max_jobs_per_tenant=1,
            auth_token_file=token_file,
            executor_factory=lambda: _GatedExecutor(gate),
        )
        alice = server.client(token="tok-alice")
        bob = server.client(token="tok-bob")
        held = alice.submit(small_fig1_job)["job"]
        wait_until(
            lambda: alice.status(held)["state"] == "running",
            message="alice's job to start",
        )
        with pytest.raises(RejectedError) as excinfo:
            alice.submit(small_fig1_job)
        assert excinfo.value.retry_after == 5
        body = _reply(
            server, {"op": "submit", "spec": small_fig1_job, "token": "tok-alice"}
        )
        assert body["code"] == "rejected" and body["retry_after"] == 5
        # The bound is per tenant: bob is unaffected by alice's quota.
        bobs = bob.submit(small_fig1_job)["job"]
        shed = alice.hello()["load_shed"]
        assert shed["rejected_tenant_quota"] == 2
        assert shed["rejected_queue_full"] == 0

        gate.set()
        assert alice.events(held)[-1]["event"] == "completed"
        assert bob.events(bobs)[-1]["event"] == "completed"
        # Alice's slot freed: her next submission is admitted again.
        assert alice.events(alice.submit(small_fig1_job)["job"])[-1][
            "event"
        ] == "completed"

    def test_shed_counters_start_clean_in_hello(self, service_server):
        server = service_server(executor_factory=InlineJobExecutor)
        stats = _reply(server, {"op": "hello"})
        assert stats["ok"] is True
        assert stats["load_shed"] == {
            "rejected_queue_full": 0,
            "rejected_tenant_quota": 0,
            "unauthorized": 0,
            "recovered": 0,
        }
