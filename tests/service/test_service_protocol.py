"""The JSON-line protocol edges, on a real listening socket.

Raw sockets send protocol-level garbage (non-JSON lines, an HTTP request
line, unknown ops, a submit without its ``spec`` or with a spec that is
not a job object) and check that each is answered in band with a typed
``code`` while the session keeps serving.  They also drive a whole job
lifecycle on one connection, including the ``events`` stream and its
``done`` marker.  No third-party stack is involved on either side.
"""

import json
import socket
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ExperimentError
from repro.experiments.runner import JOB_KEYS, normalize_job, registry
from repro.service.errors import ArtifactNotReadyError, ProtocolError
from repro.service.protocol import decode_line
from repro.service.supervisor import InlineJobExecutor

from test_service_faults import _HangingJobExecutor
from test_service_tenancy import _GatedExecutor

PONG = {"ok": True, "pong": True, "protocol_version": 1}

#: Lines that are not a request object, each answered ``code: protocol``.
MALFORMED_LINES = {
    "not-json": b"{this is not json\n",
    "not-utf8": b"\xff\xfe\n",
    "json-array": b'["ping"]\n',
    "json-string": b'"ping"\n',
    "json-number": b"42\n",
    "json-null": b"null\n",
    "missing-op": b"{}\n",
    "null-op": b'{"op": null}\n',
    "unknown-op": b'{"op": "warp"}\n',
    # deeper than the JSON parser's recursion limit
    "deep-nesting": b"[" * 20000 + b"\n",
}

#: ``spec`` values that are not a job object, each answered ``invalid_job``.
NOT_A_JOB = {
    "null": None,
    "string": "fig1",
    "list": [{"experiment": "fig1"}],
    "number": 5,
    "empty-object": {},
    "list-experiment": {"experiment": ["fig1"]},
}


def _read_stream(stream):
    """Event lines of one ``events`` reply, up to and with its done marker."""
    events = []
    while True:
        message = json.loads(stream.readline())
        if "event" not in message:
            return events, message
        events.append(message)


class TestJsonLineProtocol:
    def _session(self, server, lines):
        """Send raw lines over one connection, one reply line each."""
        replies = []
        with socket.create_connection((server.host, server.port), timeout=60) as sock:
            stream = sock.makefile("rwb")
            for line in lines:
                stream.write(line)
                stream.flush()
                replies.append(json.loads(stream.readline()))
        return replies

    def test_ping_and_multiple_ops_per_connection(
        self, service_server, small_fig1_job
    ):
        server = service_server(executor_factory=InlineJobExecutor)
        spec = json.dumps(small_fig1_job).encode("utf-8")
        replies = self._session(
            server,
            [
                b'{"op": "ping"}\n',
                b'{"op": "submit", "spec": ' + spec + b"}\n",
                b'{"op": "jobs"}\n',
            ],
        )
        assert replies[0] == PONG
        assert replies[1]["ok"] and replies[1]["job"]
        assert [j["job"] for j in replies[2]["jobs"]] == [replies[1]["job"]]

    def test_protocol_errors_answer_in_band(self, service_server):
        server = service_server(executor_factory=InlineJobExecutor)
        replies = self._session(
            server,
            [
                b'{"op": "warp"}\n',
                b"{this is not json\n",
                b'{"op": "status", "job": "nope"}\n',
                b'{"op": "ping"}\n',  # the session survives all of it
            ],
        )
        assert not replies[0]["ok"] and "unknown op" in replies[0]["error"]
        assert replies[0]["code"] == "protocol"
        assert not replies[1]["ok"] and replies[1]["code"] == "protocol"
        assert not replies[2]["ok"] and "unknown job" in replies[2]["error"]
        assert replies[2]["code"] == "unknown_job"
        assert replies[3] == {"ok": True, "pong": True, "protocol_version": 1}

    def test_blank_lines_are_ignored(self, service_server):
        server = service_server(executor_factory=InlineJobExecutor)
        with socket.create_connection((server.host, server.port), timeout=60) as sock:
            stream = sock.makefile("rwb")
            stream.write(b'{"op": "ping"}\n\n\n{"op": "ping"}\n')
            stream.flush()
            first = json.loads(stream.readline())
            second = json.loads(stream.readline())
        assert first == second == {"ok": True, "pong": True, "protocol_version": 1}

    def test_http_request_line_is_answered_in_band(self, service_server):
        """The server speaks JSON lines only: an HTTP request line is one
        more malformed line, answered in band, and the session lives on."""
        server = service_server(executor_factory=InlineJobExecutor)
        replies = self._session(
            server, [b"GET /v1/stats HTTP/1.1\r\n", b'{"op": "ping"}\n']
        )
        assert replies[0]["ok"] is False and replies[0]["code"] == "protocol"
        assert replies[1] == {"ok": True, "pong": True, "protocol_version": 1}

    def test_submit_reads_only_the_spec_field(self, service_server, small_fig1_job):
        """A submit without ``spec`` is a typed protocol error, even when
        the job object sits under ``job``; nothing is created."""
        server = service_server(executor_factory=InlineJobExecutor)
        misplaced = json.dumps({"op": "submit", "job": small_fig1_job}).encode()
        replies = self._session(
            server, [misplaced + b"\n", b'{"op": "submit"}\n', b'{"op": "jobs"}\n']
        )
        for reply in replies[:2]:
            assert reply["ok"] is False and reply["code"] == "protocol"
            assert "'spec'" in reply["error"]
        assert replies[2] == {"ok": True, "jobs": []}

    def test_error_codes_are_distinguished(self, service_server):
        server = service_server(executor_factory=InlineJobExecutor)
        lines = [
            json.dumps({"op": op, "job": "nope"}).encode() + b"\n"
            for op in ("status", "artifact", "cancel", "events")
        ]
        lines.append(b'{"op": "submit", "spec": {"experiment": "zzz"}}\n')
        replies = self._session(server, lines)
        for reply in replies[:4]:
            assert reply["ok"] is False and reply["code"] == "unknown_job"
        assert "unknown experiment" in replies[4]["error"]
        assert replies[4]["code"] == "invalid_job"
        assert replies[4]["retryable"] is False

    def test_artifact_before_completion_is_not_ready(
        self, service_server, small_fig1_job, wait_until
    ):
        server = service_server(executor_factory=_HangingJobExecutor)
        client = server.client()
        job_id = client.submit(small_fig1_job)["job"]
        with pytest.raises(ArtifactNotReadyError, match="artifact") as excinfo:
            client.artifact(job_id)
        assert excinfo.value.code == "artifact_not_ready"
        assert excinfo.value.retryable is True
        assert client.cancel(job_id)["cancelled"] is True
        wait_until(
            lambda: client.status(job_id)["state"] == "cancelled",
            message="cancellation to land",
        )

    @pytest.mark.parametrize("line", MALFORMED_LINES.values(), ids=MALFORMED_LINES)
    def test_malformed_line_is_answered_in_band(self, service_server, line):
        server = service_server(executor_factory=InlineJobExecutor)
        replies = self._session(server, [line, b'{"op": "ping"}\n'])
        assert replies[0]["ok"] is False and replies[0]["code"] == "protocol"
        assert replies[0]["retryable"] is False
        assert replies[1] == PONG

    @pytest.mark.parametrize("spec", NOT_A_JOB.values(), ids=NOT_A_JOB)
    def test_submit_refuses_a_spec_that_is_not_a_job(self, service_server, spec):
        """Each is a typed ``invalid_job`` reply; nothing is created and
        the session keeps serving."""
        server = service_server(executor_factory=InlineJobExecutor)
        line = json.dumps({"op": "submit", "spec": spec}).encode() + b"\n"
        replies = self._session(
            server, [line, b'{"op": "jobs"}\n', b'{"op": "ping"}\n']
        )
        assert replies[0]["ok"] is False and replies[0]["code"] == "invalid_job"
        assert replies[1] == {"ok": True, "jobs": []}
        assert replies[2] == PONG

    def test_submit_watch_and_fetch_lifecycle(self, service_server, small_fig1_job):
        """One connection carries a whole job: submit, the event stream
        to its done marker, then status, artifact, cancel and jobs."""
        server = service_server(executor_factory=InlineJobExecutor)
        with socket.create_connection((server.host, server.port), timeout=60) as sock:
            stream = sock.makefile("rwb")

            def send(message):
                stream.write(json.dumps(message).encode() + b"\n")
                stream.flush()

            send({"op": "submit", "spec": small_fig1_job})
            submitted = json.loads(stream.readline())
            job_id = submitted["job"]
            assert submitted["ok"] is True and submitted["state"] == "queued"
            send({"op": "events", "job": job_id})
            events, done = _read_stream(stream)
            assert done == {"ok": True, "done": True, "state": "completed"}
            assert events[-1]["event"] == "completed"
            send({"op": "status", "job": job_id})
            status = json.loads(stream.readline())
            assert status["ok"] is True and status["state"] == "completed"
            send({"op": "artifact", "job": job_id})
            artifact = json.loads(stream.readline())["artifact"]
            assert artifact["schema"] == "repro.sweep/1"
            send({"op": "cancel", "job": job_id})
            cancel = json.loads(stream.readline())
            assert cancel["cancelled"] is False and cancel["state"] == "completed"
            send({"op": "jobs"})
            assert [j["job"] for j in json.loads(stream.readline())["jobs"]] == [
                job_id
            ]
        assert server.client().events(job_id) == events

    def test_events_streams_live_then_replays(self, service_server, small_fig1_job):
        """A stream opened while the job is held carries the rest of the
        transcript live; a later stream replays exactly the same events."""
        gate = threading.Event()
        try:
            server = service_server(executor_factory=lambda: _GatedExecutor(gate))
            client = server.client()
            job_id = client.submit(small_fig1_job)["job"]
            with socket.create_connection(
                (server.host, server.port), timeout=60
            ) as sock:
                stream = sock.makefile("rwb")
                stream.write(json.dumps({"op": "events", "job": job_id}).encode())
                stream.write(b"\n")
                stream.flush()
                held = []
                while not held or held[-1]["event"] != "attempt":
                    held.append(json.loads(stream.readline()))
                assert client.status(job_id)["state"] == "running"
                gate.set()
                rest, done = _read_stream(stream)
        finally:
            gate.set()
        assert done == {"ok": True, "done": True, "state": "completed"}
        assert rest and rest[-1]["event"] == "completed"
        assert client.events(job_id) == held + rest


#: Any JSON value (no NaN or infinity: JSON has none).
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=16,
)
#: Job-shaped objects: real top-level and override names as well as
#: arbitrary ones, so generated jobs reach every check of ``normalize_job``.
OVERRIDE_NAMES = st.sampled_from(
    ["trials", "num_nodes", "shots", "store_dir", "strengths", "bogus"]
)
JOBS = st.dictionaries(
    st.sampled_from(JOB_KEYS) | st.text(max_size=8),
    st.sampled_from(sorted(registry()))
    | st.dictionaries(OVERRIDE_NAMES | st.text(max_size=8), JSON_VALUES, max_size=3)
    | JSON_VALUES,
    max_size=4,
)


class TestBoundaryProperties:
    """Whatever arrives, the boundary answers with a value or its own
    typed error; no other exception type escapes."""

    @given(
        raw=st.binary(max_size=64)
        | st.integers(1, 30000).map(lambda depth: b"[" * depth)
        | JSON_VALUES.map(lambda value: json.dumps(value).encode())
    )
    @settings(max_examples=200, deadline=None)
    def test_decode_line_gives_a_message_or_a_protocol_error(self, raw):
        try:
            message = decode_line(raw)
        except ProtocolError:
            return
        assert isinstance(message, dict)

    @given(job=JSON_VALUES | JOBS)
    @settings(max_examples=200, deadline=None)
    def test_normalize_job_gives_a_job_or_an_experiment_error(self, job):
        try:
            normalized = normalize_job(job)
        except ExperimentError:
            return
        assert set(normalized) == set(JOB_KEYS)
