"""Job lifecycle through the served path: identity, transcripts, store reuse.

The headline contract (the ISSUE's acceptance criterion): a fig1 job
submitted through ``repro serve`` yields a ``repro.sweep/1`` artifact
whose records are identical to the same sweep run directly through
:class:`~repro.experiments.runner.SweepRunner` — serving is a transport,
never a semantics change.
"""

import numpy as np
import pytest

from repro.exceptions import ServiceError
from repro.service.errors import InvalidJobError, UnknownJobError
from repro.experiments.runner import (
    SweepRunner,
    job_fingerprint,
    spec_from_job,
    validate_artifact,
)
from repro.pipeline import STAGE_NAMES
from repro.service.supervisor import InlineJobExecutor
from repro.service.manager import JobManager


def _direct_records(job):
    """The records of the same job run directly, without the service."""
    return SweepRunner(spec_from_job(job), jobs=1).run().to_artifact()["records"]


class TestManagerSettings:
    """Job deadlines and retry budgets are checked when the manager is
    built: a NaN deadline would never fire, and a bool is not a count."""

    @pytest.mark.parametrize(
        "timeout", [-1.0, 0.0, float("nan"), float("inf"), True]
    )
    def test_job_timeout_must_be_a_finite_positive_number(self, timeout):
        with pytest.raises(ServiceError, match="job_timeout"):
            JobManager(job_timeout=timeout)

    @pytest.mark.parametrize("retries", [-1, 1.5, True, "2"])
    def test_job_retries_must_be_a_non_negative_integer(self, retries):
        with pytest.raises(ServiceError, match="job_retries"):
            JobManager(job_retries=retries)

    def test_valid_settings_are_kept(self):
        manager = JobManager(job_timeout=30, job_retries=0)
        assert (manager.job_timeout, manager.job_retries) == (30, 0)
        assert JobManager().job_timeout is None

    @pytest.mark.parametrize(
        "option, value",
        [
            ("workers", True),
            ("workers", 1.5),
            ("workers", 0),
            ("max_queued", True),
            ("max_queued", 0),
            ("max_jobs_per_tenant", 2.5),
            ("max_jobs_per_tenant", 0),
        ],
    )
    def test_capacities_must_be_positive_integers(self, option, value):
        with pytest.raises(ServiceError, match=option):
            JobManager(**{option: value})

    def test_integral_capacities_are_kept(self):
        manager = JobManager(
            workers=np.int64(3), max_queued=np.int64(4), max_jobs_per_tenant=2
        )
        assert (manager.max_queued, manager.max_jobs_per_tenant) == (4, 2)
        assert JobManager(max_queued=None).max_queued is None


class TestServedExecution:
    def test_served_fig1_record_identical_to_direct_run(
        self, service_server, small_fig1_job, tmp_path
    ):
        """End to end through a real worker process (the default
        ProcessJobExecutor): the served artifact validates
        and its records match the direct run bit for bit."""
        server = service_server(store_dir=tmp_path / "store")
        client = server.client()
        submitted = client.submit(small_fig1_job)
        assert submitted["state"] in ("queued", "running")
        transcript = client.events(submitted["job"])
        artifact = client.artifact(submitted["job"])
        validate_artifact(artifact)
        assert artifact["records"] == _direct_records(small_fig1_job)
        kinds = [event["event"] for event in transcript]
        assert kinds[:3] == ["submitted", "started", "attempt"]
        assert kinds[-2:] == ["artifact", "completed"]
        assert client.status(submitted["job"])["state"] == "completed"

    def test_transcript_structure_is_deterministic(
        self, service_server, small_fig1_job
    ):
        """Event kinds, ordering, stage sequence and seq numbering are
        exact — the transcript is pinnable like a golden digest."""
        server = service_server(executor_factory=InlineJobExecutor)
        client = server.client()
        job_id = client.submit(small_fig1_job)["job"]
        transcript = client.events(job_id)
        assert [event["event"] for event in transcript] == [
            "submitted",
            "started",
            "attempt",
            *(["stage"] * len(STAGE_NAMES)),
            "artifact",
            "completed",
        ]
        assert [event["seq"] for event in transcript] == list(range(len(transcript)))
        assert all(event["job"] == job_id for event in transcript)
        stages = [e["stage"] for e in transcript if e["event"] == "stage"]
        assert stages == list(STAGE_NAMES)
        for event in transcript:
            if event["event"] == "stage":
                assert event["computed"] == 1 and event["loaded"] == 0
        artifact_event = transcript[-2]
        assert artifact_event["source"] == "computed"
        assert transcript[2] == {
            "event": "attempt",
            "job": job_id,
            "seq": 2,
            "attempt": 1,
            "restarted": False,
        }

    def test_events_on_finished_job_replays_without_blocking(
        self, service_server, small_fig1_job
    ):
        server = service_server(executor_factory=InlineJobExecutor)
        client = server.client()
        job_id = client.submit(small_fig1_job)["job"]
        first = client.events(job_id)
        again = client.events(job_id)  # pure replay; returns immediately
        assert again == first

    def test_resubmission_is_served_from_the_store(
        self, service_server, small_fig1_job, tmp_path
    ):
        """Same fingerprint → the artifact resolves from the job
        namespace of the shared store: no attempt, no stages, identical
        records, ``artifact.source == "store"``."""
        server = service_server(
            store_dir=tmp_path / "store", executor_factory=InlineJobExecutor
        )
        client = server.client()
        first = client.submit(small_fig1_job)
        client.events(first["job"])
        second = client.submit(small_fig1_job)
        assert second["job"] != first["job"]
        assert second["fingerprint"] == first["fingerprint"]
        transcript = client.events(second["job"])
        assert [event["event"] for event in transcript] == [
            "submitted",
            "started",
            "artifact",
            "completed",
        ]
        assert transcript[-2]["source"] == "store"
        assert client.artifact(second["job"]) == client.artifact(first["job"])

    def test_without_a_store_every_submission_computes(
        self, service_server, small_fig1_job
    ):
        server = service_server(executor_factory=InlineJobExecutor)
        client = server.client()
        first = client.submit(small_fig1_job)["job"]
        client.events(first)
        second = client.submit(small_fig1_job)["job"]
        transcript = client.events(second)
        assert transcript[-2]["source"] == "computed"
        # Timings and cache counters differ run to run; records may not.
        second_artifact = client.artifact(second)
        assert second_artifact["records"] == client.artifact(first)["records"]


class TestSubmissionValidation:
    def test_unknown_experiment_is_rejected_at_submit(self, service_server):
        client = service_server(executor_factory=InlineJobExecutor).client()
        with pytest.raises(InvalidJobError, match="unknown experiment"):
            client.submit({"experiment": "fig9"})
        assert client.jobs() == []  # nothing was created

    def test_unknown_override_is_rejected_at_submit(
        self, service_server, small_fig1_job
    ):
        client = service_server(executor_factory=InlineJobExecutor).client()
        small_fig1_job["overrides"]["warp_factor"] = 9
        with pytest.raises(InvalidJobError, match="warp_factor"):
            client.submit(small_fig1_job)

    def test_retired_readout_shards_override_is_rejected_at_submit(
        self, service_server, small_fig1_job
    ):
        """The readout runs in one process; its old shard count is an
        unknown override, refused before a job is created."""
        client = service_server(executor_factory=InlineJobExecutor).client()
        small_fig1_job["overrides"]["readout_shards"] = 2
        with pytest.raises(InvalidJobError, match="readout_shards"):
            client.submit(small_fig1_job)
        assert client.jobs() == []

    def test_a_job_cannot_pick_the_store_directory(
        self, service_server, small_fig1_job, tmp_path
    ):
        """A served job runs against the server's store; naming another
        directory would let a client choose where the server writes."""
        client = service_server(executor_factory=InlineJobExecutor).client()
        elsewhere = tmp_path / "elsewhere"
        small_fig1_job["overrides"]["store_dir"] = str(elsewhere)
        with pytest.raises(InvalidJobError, match="store_dir"):
            client.submit(small_fig1_job)
        assert client.jobs() == []
        assert not elsewhere.exists()

    def test_bad_trials_and_bad_shapes_are_rejected(self, service_server):
        client = service_server(executor_factory=InlineJobExecutor).client()
        with pytest.raises(InvalidJobError, match="trials"):
            client.submit({"experiment": "fig1", "trials": 0})
        with pytest.raises(InvalidJobError, match="must be an object"):
            client.submit({"experiment": "fig1", "overrides": [1, 2]})
        with pytest.raises(InvalidJobError, match="unknown job field"):
            client.submit({"experiment": "fig1", "prioritty": "high"})

    def test_unknown_job_queries_raise(self, service_server):
        client = service_server(executor_factory=InlineJobExecutor).client()
        for call in (client.status, client.artifact, client.cancel, client.events):
            with pytest.raises(UnknownJobError):
                call("j9999-deadbeef")

    def test_job_listing_in_submission_order(self, service_server, small_fig1_job):
        client = service_server(executor_factory=InlineJobExecutor).client()
        first = client.submit(small_fig1_job)["job"]
        second = client.submit(small_fig1_job)["job"]
        client.events(second)
        listed = [status["job"] for status in client.jobs()]
        assert listed == [first, second]

    def test_fingerprint_matches_library_derivation(
        self, service_server, small_fig1_job
    ):
        client = service_server(executor_factory=InlineJobExecutor).client()
        submitted = client.submit(small_fig1_job)
        assert submitted["fingerprint"] == job_fingerprint(small_fig1_job)
        assert submitted["job"].endswith(submitted["fingerprint"][:8])
