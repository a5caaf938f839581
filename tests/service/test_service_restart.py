"""Durable restart recovery: kill the server, reboot, finish the work.

The tentpole contract of the v1 service: job state lives in the store's
``jobtable`` namespace, written through on every transition, so a server
that dies — even ``kill -9`` mid-readout — comes back, re-queues every
non-terminal job, resumes from the stage checkpoints its previous life
already published, and produces record-identical artifacts.

Two layers of test:

* **Manager-level**: deterministic single-process recovery semantics.
  Phase one submits inside ``asyncio.run`` and cancels the spawned job
  actors before the loop gives them a step, so nothing ever executes —
  exactly the durable state a hard kill leaves behind (rows persisted as
  ``queued``).  Running/drifted rows are fabricated directly through
  :class:`~repro.service.jobtable.JobTable`.
* **Process-level** (:class:`TestKillDashNine`): the acceptance test.
  A real ``python -m repro serve`` subprocess is SIGKILLed the moment the
  first stage checkpoint lands, rebooted on the same store, and must
  finish both the in-flight and the queued job with records identical to
  a direct :class:`~repro.experiments.runner.SweepRunner`, serving the
  stages its previous life published.
"""

import asyncio
import os
import pathlib
import signal
import subprocess
import sys

import repro
from repro.experiments.runner import SweepRunner, job_fingerprint, spec_from_job
from repro.pipeline.supervisor import InlineShardExecutor
from repro.service.client import ServiceClient
from repro.service.jobtable import JobTable
from repro.service.manager import JobManager
from repro.store import ContentStore


def _manager(store_dir, **kwargs):
    kwargs.setdefault("executor_factory", InlineShardExecutor)
    return JobManager(store_dir=store_dir, **kwargs)


async def _drain(manager):
    """Wait for every spawned job actor to finish."""
    while manager._tasks:
        await asyncio.gather(*list(manager._tasks), return_exceptions=True)


def _submit_and_die(store_dir, jobs):
    """Phase one of a manager-level restart test: persist, never run.

    The job actors ``submit`` spawned are cancelled before the loop ever
    gives them a step, so not one statement of ``_run_job`` executes —
    the durable table is left exactly as a hard kill would leave it:
    rows in state ``queued``, index written, nothing started.
    """

    async def first_life():
        manager = _manager(store_dir)
        ids = [manager.submit(job).id for job in jobs]
        for task in manager._tasks:
            task.cancel()  # the "kill": actors die before their first step
        return ids

    return asyncio.run(first_life())


def _recover_and_finish(store_dir, **kwargs):
    """Phase two: a fresh manager on the same store, recovered and drained."""

    async def second_life():
        manager = _manager(store_dir, **kwargs)
        resumed = manager.recover()
        await _drain(manager)
        return manager, resumed

    return asyncio.run(second_life())


def _table(store_dir):
    return JobTable(ContentStore(root=store_dir))


class TestQueuedRecovery:
    def test_queued_jobs_survive_and_complete_record_identically(
        self, tmp_path, pristine_store, small_fig1_job
    ):
        store = tmp_path / "store"
        ids = _submit_and_die(store, [small_fig1_job, small_fig1_job])
        manager, resumed = _recover_and_finish(store)
        assert resumed == 2
        assert manager.counters["recovered"] == 2
        for job_id in ids:
            record = manager.get(job_id)
            assert record.state == "completed"
            kinds = [e["event"] for e in record.events]
            assert kinds[0] == "submitted" and kinds[-1] == "completed"
            recovered = next(e for e in record.events if e["event"] == "recovered")
            assert recovered["previous_state"] == "queued"
        direct = SweepRunner(spec_from_job(small_fig1_job), jobs=1).run()
        assert (
            manager.artifact(ids[0])["records"]
            == direct.to_artifact()["records"]
        )
        # Same fingerprint: both recovered jobs (racing on two workers)
        # agree record for record, however the store race resolved.
        assert (
            manager.artifact(ids[1])["records"]
            == manager.artifact(ids[0])["records"]
        )

    def test_recovery_preserves_ids_order_and_id_counter(
        self, tmp_path, pristine_store, small_fig1_job
    ):
        store = tmp_path / "store"
        ids = _submit_and_die(store, [small_fig1_job, small_fig1_job])
        manager, _ = _recover_and_finish(store)
        assert [record.id for record in manager.jobs()] == ids

        async def submit_more():
            later = _manager(store)
            later.recover()
            record = later.submit(small_fig1_job)
            return record.id

        new_id = asyncio.run(submit_more())
        taken = {int(job_id[1:5]) for job_id in ids}
        assert int(new_id[1:5]) > max(taken)  # ids never collide across lives

    def test_recovery_is_idempotent_within_one_life(
        self, tmp_path, pristine_store, small_fig1_job
    ):
        store = tmp_path / "store"
        _submit_and_die(store, [small_fig1_job])

        async def second_life():
            manager = _manager(store)
            first = manager.recover()
            second = manager.recover()  # rows already registered: no-op
            await _drain(manager)
            return first, second

        first, second = asyncio.run(second_life())
        assert (first, second) == (1, 0)


class TestRunningAndDriftedRows:
    def test_row_killed_while_running_is_requeued(
        self, tmp_path, pristine_store, small_fig1_job
    ):
        store = tmp_path / "store"
        (job_id,) = _submit_and_die(store, [small_fig1_job])
        table = _table(store)
        row = table.load_row(job_id)
        row["state"] = "running"
        row["attempts"] = 1
        table.save_row(row)

        manager, resumed = _recover_and_finish(store)
        assert resumed == 1
        record = manager.get(job_id)
        assert record.state == "completed"
        recovered = next(e for e in record.events if e["event"] == "recovered")
        assert recovered["previous_state"] == "running"

    def test_fingerprint_drift_fails_closed(
        self, tmp_path, pristine_store, small_fig1_job
    ):
        """A row whose spec no longer reproduces its recorded fingerprint
        must fail, not silently compute something the submitter never
        asked for."""
        store = tmp_path / "store"
        (job_id,) = _submit_and_die(store, [small_fig1_job])
        table = _table(store)
        row = table.load_row(job_id)
        row["spec"]["trials"] = 7  # still a valid job — but not *this* job
        assert job_fingerprint(row["spec"]) != row["fingerprint"]
        table.save_row(row)

        manager, resumed = _recover_and_finish(store)
        assert resumed == 0
        record = manager.get(job_id)
        assert record.state == "failed"
        assert "fingerprint drifted" in record.error
        assert record.events[-1]["event"] == "failed"

    def test_unparseable_spec_fails_closed(
        self, tmp_path, pristine_store, small_fig1_job
    ):
        store = tmp_path / "store"
        unknown, retired, pinned, healthy = _submit_and_die(
            store, [small_fig1_job] * 4
        )
        table = _table(store)
        row = table.load_row(unknown)
        row["spec"] = {"experiment": "fig9"}
        table.save_row(row)
        # The row an older server leaves for a job that set an override
        # this one no longer has.
        row = table.load_row(retired)
        row["spec"]["overrides"]["readout_shards"] = 2
        table.save_row(row)
        # A row that names its own store directory.
        row = table.load_row(pinned)
        row["spec"]["overrides"]["store_dir"] = str(tmp_path / "elsewhere")
        table.save_row(row)

        manager, resumed = _recover_and_finish(store)
        assert resumed == 1
        for job_id in (unknown, retired, pinned):
            record = manager.get(job_id)
            assert record.state == "failed"
            assert "unrecoverable job" in record.error
        assert "readout_shards" in manager.get(retired).error
        assert "store_dir" in manager.get(pinned).error
        assert not (tmp_path / "elsewhere").exists()
        # The bad rows do not stop the manager: the healthy job finishes.
        assert manager.get(healthy).state == "completed"


class TestTerminalRecovery:
    def test_completed_rows_recover_without_rerunning(
        self, tmp_path, pristine_store, small_fig1_job
    ):
        store = tmp_path / "store"

        async def first_life():
            manager = _manager(store)
            record = manager.submit(small_fig1_job)
            await _drain(manager)
            assert record.state == "completed"
            return record.id, manager.artifact(record.id)

        job_id, artifact = asyncio.run(first_life())

        async def second_life():
            manager = _manager(store)
            resumed = manager.recover()
            # No tasks were spawned for a terminal row: nothing to drain.
            assert not manager._tasks
            return manager, resumed

        manager, resumed = asyncio.run(second_life())
        assert resumed == 0
        assert manager.counters["recovered"] == 0
        record = manager.get(job_id)
        assert record.state == "completed"
        assert record.artifact is None  # not in memory until asked for
        assert manager.artifact(job_id) == artifact  # lazy re-resolve
        assert record.events == [
            dict(event) for event in _table(store).load_row(job_id)["events"]
        ]

    def test_manager_without_store_recovers_nothing(self):
        async def main():
            return JobManager(executor_factory=InlineShardExecutor).recover()

        assert asyncio.run(main()) == 0


# -- the acceptance test: kill -9 a real server mid-readout ----------------

READY_PREFIX = "repro serve: listening on "
RECOVERED_PREFIX = "repro serve: recovered "

#: Twelve quantum fits: big enough that the job is still running when its
#: first stage checkpoint lands (the kill trigger); small enough to finish
#: in seconds on recovery.
KILL_JOB = {
    "experiment": "fig1",
    "trials": 2,
    "overrides": {
        "strengths": [0.9, 0.7, 0.5, 0.3, 0.1, 0.0],
        "num_nodes": 48,
        "num_clusters": 2,
        "shots": 256,
        "precision_bits": 6,
    },
}


def _serve_env():
    env = dict(os.environ)
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    return env


def _boot_server(store_dir):
    """Launch ``repro serve`` on the store; return (process, client, recovered)."""
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--store-dir",
            str(store_dir),
            "--workers",
            "1",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_serve_env(),
    )
    recovered = None
    while True:
        line = process.stdout.readline()
        if not line:
            raise AssertionError(
                f"server exited during boot (code {process.poll()})"
            )
        if line.startswith(RECOVERED_PREFIX):
            recovered = int(line[len(RECOVERED_PREFIX) :].split()[0])
        if line.startswith(READY_PREFIX):
            host, _, port = line[len(READY_PREFIX) :].strip().rpartition(":")
            return process, ServiceClient(host, int(port), timeout=600.0), recovered


class TestKillDashNine:
    def test_sigkill_mid_readout_restart_finishes_record_identically(
        self, tmp_path, pristine_store, wait_until, small_fig1_job
    ):
        store = tmp_path / "store"
        stage_dir = store / "stage"
        first, client, recovered = _boot_server(store)
        try:
            assert recovered == 0
            big = client.submit(KILL_JOB)["job"]
            queued = client.submit(small_fig1_job)["job"]  # waits behind big
            # The instant the first stage checkpoint is durable, the
            # server dies the hard way.
            wait_until(
                lambda: stage_dir.is_dir() and any(stage_dir.rglob("*.cas")),
                timeout=120.0,
                message="first stage checkpoint to land",
            )
        finally:
            first.kill()
            first.wait(30)

        second, client, recovered = _boot_server(store)
        try:
            assert recovered == 2  # the running job and the queued one
            for job_id in (big, queued):
                wait_until(
                    lambda job_id=job_id: client.status(job_id)["state"]
                    == "completed",
                    timeout=300.0,
                    message=f"recovered job {job_id} to complete",
                )
            transcript = client.events(big)
            kinds = [event["event"] for event in transcript]
            assert "recovered" in kinds and kinds[-1] == "completed"
            # The recovered job served what its first life published.
            stages = {e["stage"]: e for e in transcript if e["event"] == "stage"}
            assert stages["laplacian"]["loaded"] >= 1
            served = client.artifact(big)["records"]
            queued_served = client.artifact(queued)["records"]
        finally:
            second.send_signal(signal.SIGINT)
            try:
                second.wait(30)
            except subprocess.TimeoutExpired:
                second.kill()

        direct = SweepRunner(spec_from_job(KILL_JOB), jobs=1).run()
        assert served == direct.to_artifact()["records"]
        direct_small = SweepRunner(spec_from_job(small_fig1_job), jobs=1).run()
        assert queued_served == direct_small.to_artifact()["records"]
