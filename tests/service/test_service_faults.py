"""Fault tolerance of the served path: kills, restarts, cancellation.

The acceptance test of this suite is
``test_failed_job_resubmits_and_recomputes_only_missing_stages``: a job
that fails inside its readout stage leaves the stages it completed
checkpointed in the shared store, and the resubmitted job finishes by
loading those stages and computing only the ones that never landed —
asserted from the ``loaded`` / ``computed`` counters in the streamed
stage telemetry, not from timing.
"""

import pytest

from repro.exceptions import ClusteringError
from repro.service.errors import ArtifactNotReadyError
from repro.experiments.runner import SweepRunner, spec_from_job
from repro.pipeline import stages
from repro.service.supervisor import InlineJobExecutor, JobHandle

from test_supervisor import FaultyJobExecutor, _always


class _HungJobHandle(JobHandle):
    """A job attempt that never finishes; cancellation must kill it."""

    def __init__(self):
        self.killed = False

    def done(self) -> bool:
        return False

    def result(self):
        raise AssertionError("a hung job has no result")

    def kill(self) -> None:
        self.killed = True


class _HangingJobExecutor:
    """Every job attempt hangs forever (until killed)."""

    def __init__(self):
        self.hung = []

    def submit(self, fn, args):
        handle = _HungJobHandle()
        self.hung.append(handle)
        return handle


class TestStageCheckpointResume:
    def test_failed_job_resubmits_and_recomputes_only_missing_stages(
        self, service_server, small_fig1_job, tmp_path, monkeypatch
    ):
        """Fail the job inside its readout stage, resubmit, and prove the
        completion came from the stage checkpoints the first run
        published: laplacian and threshold loaded, readout computed."""
        server = service_server(
            store_dir=tmp_path / "store",
            executor_factory=InlineJobExecutor,
            job_retries=0,
        )
        client = server.client()

        # First submission: the readout raises, so the job's (single)
        # attempt fails — after the laplacian and threshold stages have
        # been published to the shared store.
        def broken_readout(*args, **kwargs):
            raise ClusteringError("injected readout failure")

        monkeypatch.setattr(stages, "batched_readout", broken_readout)
        first = client.submit(small_fig1_job)["job"]
        transcript = client.events(first)
        assert transcript[-1]["event"] == "failed"
        assert "injected readout failure" in transcript[-1]["error"]
        assert client.status(first)["state"] == "failed"
        with pytest.raises(ArtifactNotReadyError):
            client.artifact(first)

        # Resubmission with the fault cleared: same fingerprint, fresh
        # job.  The upstream stages are served; the readout is computed.
        monkeypatch.undo()
        second = client.submit(small_fig1_job)["job"]
        transcript = client.events(second)
        assert transcript[-1]["event"] == "completed"
        rows = {e["stage"]: e for e in transcript if e["event"] == "stage"}
        for name in ("laplacian", "threshold"):
            assert rows[name]["loaded"] >= 1 and rows[name]["computed"] == 0
        assert rows["readout"]["computed"] >= 1 and rows["readout"]["loaded"] == 0

        # And the artifact is still record-identical to a direct run.
        direct = SweepRunner(spec_from_job(small_fig1_job), jobs=1).run()
        records = client.artifact(second)["records"]
        assert records == direct.to_artifact()["records"]


class TestJobRestart:
    def test_crashed_job_worker_is_restarted(self, service_server, small_fig1_job):
        """The per-job supervisor restarts a dead worker:
        attempt 1 crashes, attempt 2 is launched with ``restarted`` set,
        and the job still completes."""
        server = service_server(
            executor_factory=lambda: FaultyJobExecutor({1: "crash"}),
            job_retries=1,
        )
        client = server.client()
        job_id = client.submit(small_fig1_job)["job"]
        transcript = client.events(job_id)
        attempts = [e for e in transcript if e["event"] == "attempt"]
        assert [(e["attempt"], e["restarted"]) for e in attempts] == [
            (1, False),
            (2, True),
        ]
        assert transcript[-1]["event"] == "completed"
        assert transcript[-1]["attempts"] == 2
        assert client.status(job_id)["attempts"] == 2

    def test_job_exhausting_retries_fails_with_the_shard_error(
        self, service_server, small_fig1_job
    ):
        server = service_server(
            executor_factory=lambda: FaultyJobExecutor(_always("crash")),
            job_retries=1,
        )
        client = server.client()
        job_id = client.submit(small_fig1_job)["job"]
        transcript = client.events(job_id)
        assert [e["event"] for e in transcript[:2]] == ["submitted", "started"]
        assert transcript[-1]["event"] == "failed"
        assert "injected crash" in transcript[-1]["error"]
        status = client.status(job_id)
        assert status["state"] == "failed"
        assert status["error"] == transcript[-1]["error"]
        with pytest.raises(ArtifactNotReadyError):
            client.artifact(job_id)


class TestCancellation:
    def test_cancel_running_job_kills_its_worker(
        self, service_server, small_fig1_job, wait_until
    ):
        executors = []

        def factory():
            executor = _HangingJobExecutor()
            executors.append(executor)
            return executor

        server = service_server(executor_factory=factory)
        client = server.client()
        job_id = client.submit(small_fig1_job)["job"]
        wait_until(
            lambda: client.status(job_id)["state"] == "running",
            message="job to start",
        )
        wait_until(lambda: executors and executors[0].hung, message="job launch")
        assert client.cancel(job_id)["state"] in ("running", "cancelled")
        wait_until(
            lambda: client.status(job_id)["state"] == "cancelled",
            message="cancellation to land",
        )
        transcript = client.events(job_id)
        assert transcript[-1]["event"] == "cancelled"
        assert executors[0].hung[0].killed

    def test_cancel_queued_job_never_starts_it(
        self, service_server, small_fig1_job, wait_until
    ):
        server = service_server(executor_factory=_HangingJobExecutor, workers=1)
        client = server.client()
        first = client.submit(small_fig1_job)["job"]
        wait_until(
            lambda: client.status(first)["state"] == "running",
            message="first job to occupy the only worker",
        )
        second = client.submit(small_fig1_job)["job"]
        assert client.status(second)["state"] == "queued"
        client.cancel(second)
        wait_until(
            lambda: client.status(second)["state"] == "cancelled",
            message="queued cancellation",
        )
        assert [e["event"] for e in client.events(second)] == [
            "submitted",
            "cancelled",
        ]
        client.cancel(first)  # unblock teardown
        wait_until(
            lambda: client.status(first)["state"] == "cancelled",
            message="running cancellation",
        )

    def test_cancelling_a_finished_job_is_a_no_op(
        self, service_server, small_fig1_job
    ):
        client = service_server(executor_factory=InlineJobExecutor).client()
        job_id = client.submit(small_fig1_job)["job"]
        client.events(job_id)
        reply = client.cancel(job_id)
        assert reply["state"] == "completed"
        assert reply["cancelled"] is False
        assert client.status(job_id)["state"] == "completed"
