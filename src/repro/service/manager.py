"""The job manager: one supervising parent actor per submitted job.

The manager is the single owner of all job state.  It lives on the
server's event loop and is only ever touched from that loop — connection
handlers call it directly, and the per-job worker threads marshal their
callbacks back with ``loop.call_soon_threadsafe`` — so there is no lock
anywhere in the job bookkeeping.

Per job, the manager runs one
:class:`~repro.service.supervisor.JobSupervisor` in a worker thread
(``asyncio.to_thread``) around :func:`~repro.service.executor.execute_job`:
per-job timeout, crashed-worker restart with capped backoff, and
kill-based cancellation through the supervisor's ``cancel`` event.  Job
concurrency is bounded by a semaphore (the ``--workers`` CLI flag).

Three service-hardening layers sit on top of that core:

* **Durability** — with a store attached, every state transition
  re-writes the job's row in the durable job table
  (:mod:`repro.service.jobtable`); :meth:`JobManager.recover` replays
  the table at boot, re-fingerprints non-terminal jobs and re-queues
  them, so a killed server's restart finishes its in-flight work from
  the stage checkpoints already in the store.
* **Admission control** — ``max_queued`` bounds total queue depth and
  ``max_jobs_per_tenant`` bounds one tenant's in-flight jobs; both shed
  with a retryable :class:`~repro.service.errors.RejectedError` (with
  its ``retry_after``) and count into :attr:`JobManager.counters`.
* **Tenancy** — every record carries the tenant that submitted it, and
  every lookup is tenant-scoped when the caller passes one: a foreign
  job id answers :class:`~repro.service.errors.UnknownJobError`,
  indistinguishable from a job that never existed.

Completed artifacts are published to the shared content store under the
job's content fingerprint; a resubmission of the same job resolves from
the store without running anything (its transcript shows
``artifact.source == "store"``).
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass, field

from repro.core.config import is_count, is_deadline
from repro.exceptions import ExperimentError, ReproError, ServiceError
from repro.experiments.runner import job_fingerprint, normalize_job
from repro.service import executor as job_executor
from repro.service.auth import DEFAULT_TENANT
from repro.service.errors import (
    ArtifactNotReadyError,
    RejectedError,
    UnknownJobError,
    as_service_error,
)
from repro.service.events import build_event, stage_event_rows
from repro.service.jobtable import JobTable
from repro.service.supervisor import JobCancelled, JobSupervisor, ProcessJobExecutor
from repro.store import ContentStore


def _normalize_served_job(job: dict) -> dict:
    """:func:`~repro.experiments.runner.normalize_job` for a served job.

    A served job also may not override ``store_dir``: it runs against the
    server's store, and a client may not choose where the server writes.
    """
    spec = normalize_job(job)
    if "store_dir" in spec["overrides"]:
        raise ExperimentError(
            "a job may not set store_dir: it runs against the server's store"
        )
    return spec


#: Job lifecycle states.
JOB_STATES = ("queued", "running", "completed", "failed", "cancelled")

#: States from which a job never moves again.
TERMINAL_JOB_STATES = ("completed", "failed", "cancelled")

#: Load-shed / recovery counters the stats surface reports.
SHED_COUNTER_KEYS = (
    "rejected_queue_full",
    "rejected_tenant_quota",
    "unauthorized",
    "recovered",
)


@dataclass
class JobRecord:
    """Everything the manager knows about one submitted job."""

    id: str
    spec: dict
    fingerprint: str
    tenant: str = DEFAULT_TENANT
    state: str = "queued"
    attempts: int = 0
    error: str | None = None
    artifact: dict | None = None
    events: list = field(default_factory=list)

    def status(self) -> dict:
        """The client-facing status object (no artifact body)."""
        return {
            "job": self.id,
            "experiment": self.spec["experiment"],
            "tenant": self.tenant,
            "state": self.state,
            "fingerprint": self.fingerprint,
            "attempts": self.attempts,
            "events": len(self.events),
            "error": self.error,
            "artifact_ready": self.artifact is not None
            or self.state == "completed",
        }

    def row(self) -> dict:
        """The durable form of this record (artifact stored separately)."""
        return {
            "id": self.id,
            "tenant": self.tenant,
            "spec": self.spec,
            "fingerprint": self.fingerprint,
            "state": self.state,
            "attempts": self.attempts,
            "error": self.error,
            "events": self.events,
        }


class JobManager:
    """Owns every job's lifecycle; loop-confined (see module docstring)."""

    def __init__(
        self,
        *,
        store_dir=None,
        workers: int = 2,
        job_timeout: float | None = None,
        job_retries: int = 1,
        executor_factory=None,
        max_queued: int | None = None,
        max_jobs_per_tenant: int | None = None,
    ):
        if not is_count(workers, 1):
            raise ServiceError(f"workers must be an integer >= 1, got {workers!r}")
        if not is_deadline(job_timeout):
            raise ServiceError(
                f"job_timeout must be a finite positive number or None, "
                f"got {job_timeout!r}"
            )
        if not is_count(job_retries, 0):
            raise ServiceError(
                f"job_retries must be a non-negative integer, got {job_retries!r}"
            )
        for name, value in (
            ("max_queued", max_queued),
            ("max_jobs_per_tenant", max_jobs_per_tenant),
        ):
            if value is not None and not is_count(value, 1):
                raise ServiceError(
                    f"{name} must be an integer >= 1 or None, got {value!r}"
                )
        self.store_dir = None if store_dir is None else str(store_dir)
        self.job_timeout = job_timeout
        self.job_retries = job_retries
        self.max_queued = max_queued
        self.max_jobs_per_tenant = max_jobs_per_tenant
        self._executor_factory = executor_factory or ProcessJobExecutor
        # The manager's own handle on the shared store (job namespace).
        # Deliberately not the process-global store — the server process
        # never mutates the global configuration its tests control.
        self._store = (
            None if self.store_dir is None else ContentStore(root=self.store_dir)
        )
        self._table = None if self._store is None else JobTable(self._store)
        self._jobs: dict[str, JobRecord] = {}
        self._order: list[str] = []
        self._cancels: dict[str, threading.Event] = {}
        self._subscribers: dict[str, list[asyncio.Queue]] = {}
        self._tasks: set[asyncio.Task] = set()
        self._semaphore = asyncio.Semaphore(workers)
        self._next_id = 1
        self.counters = {key: 0 for key in SHED_COUNTER_KEYS}

    # -- client-facing operations (called from connection handlers) -------

    def submit(self, job: dict, tenant: str = DEFAULT_TENANT) -> JobRecord:
        """Validate, admit and enqueue one job; returns its (queued) record.

        Raises :class:`~repro.service.errors.InvalidJobError` on
        malformed jobs and :class:`~repro.service.errors.RejectedError`
        when admission control sheds the submission — nothing is created
        in either case.
        """
        try:
            spec = _normalize_served_job(job)
        except ReproError as error:
            raise as_service_error(error) from error
        self._admit(tenant)
        fingerprint = job_fingerprint(spec)
        record = JobRecord(
            id=f"j{self._next_id:04d}-{fingerprint[:8]}",
            spec=spec,
            fingerprint=fingerprint,
            tenant=tenant,
        )
        self._next_id += 1
        self._register(record)
        self._emit(
            record,
            "submitted",
            experiment=spec["experiment"],
            trials=spec["trials"],
            fingerprint=fingerprint,
            tenant=tenant,
        )
        self._persist_index()
        self._spawn(record)
        return record

    def _admit(self, tenant: str) -> None:
        """Shed the submission if a queue or tenant bound is at capacity."""
        if self.max_queued is not None:
            queued = sum(
                1 for record in self._jobs.values() if record.state == "queued"
            )
            if queued >= self.max_queued:
                self.counters["rejected_queue_full"] += 1
                raise RejectedError(
                    f"job queue is full ({queued} queued, max {self.max_queued})"
                )
        if self.max_jobs_per_tenant is not None:
            active = sum(
                1
                for record in self._jobs.values()
                if record.tenant == tenant
                and record.state in ("queued", "running")
            )
            if active >= self.max_jobs_per_tenant:
                self.counters["rejected_tenant_quota"] += 1
                raise RejectedError(
                    f"tenant {tenant!r} already has {active} jobs in flight "
                    f"(max {self.max_jobs_per_tenant})"
                )

    def get(self, job_id: str, tenant: str | None = None) -> JobRecord:
        """The record of ``job_id``, scoped to ``tenant`` when given.

        A job owned by another tenant raises the same
        :class:`~repro.service.errors.UnknownJobError` as a job that
        never existed — ids are not enumerable across tenants.
        """
        record = self._jobs.get(job_id)
        if record is None or (tenant is not None and record.tenant != tenant):
            raise UnknownJobError(f"unknown job {job_id!r}")
        return record

    def jobs(self, tenant: str | None = None) -> list[JobRecord]:
        """Records in submission order, scoped to ``tenant`` when given."""
        records = [self._jobs[job_id] for job_id in self._order]
        if tenant is None:
            return records
        return [record for record in records if record.tenant == tenant]

    def artifact(self, job_id: str, tenant: str | None = None) -> dict:
        """A completed job's artifact; raises if the job is not done.

        A completed job recovered from the durable table holds no
        artifact in memory — it is re-resolved (and cached back) from
        the store's ``job`` namespace on first request.
        """
        record = self.get(job_id, tenant)
        if (
            record.artifact is None
            and record.state == "completed"
            and self._store is not None
        ):
            record.artifact = job_executor.load_artifact(
                self._store, record.fingerprint
            )
        if record.artifact is None:
            raise ArtifactNotReadyError(
                f"job {job_id} has no artifact (state: {record.state})"
            )
        return record.artifact

    def cancel(
        self, job_id: str, tenant: str | None = None
    ) -> tuple[JobRecord, bool]:
        """Request cancellation; returns ``(record, changed)``.

        Idempotent: cancelling a terminal job (including an already
        cancelled one) changes nothing and reports ``changed=False``.  A
        queued job cancels immediately.  A running job's supervisor
        observes the cancel event, kills the in-flight worker (or cuts its
        backoff short) and raises — best-effort, so a job whose worker
        finishes first still completes.
        """
        record = self.get(job_id, tenant)
        if record.state in TERMINAL_JOB_STATES:
            return record, False
        self._cancels[job_id].set()
        if record.state == "queued":
            self._settle(record, "cancelled")
        return record, True

    def subscribe(self, job_id: str, tenant: str | None = None):
        """Transcript so far, plus a live queue (``None`` if terminal).

        The queue yields event dicts and then a ``None`` sentinel once
        the job reaches a terminal state.  Replay and registration happen
        atomically on the loop, so no event is ever missed or duplicated.
        """
        record = self.get(job_id, tenant)
        replay = list(record.events)
        if record.state in TERMINAL_JOB_STATES:
            return replay, None
        queue: asyncio.Queue = asyncio.Queue()
        self._subscribers[job_id].append(queue)
        return replay, queue

    def unsubscribe(self, job_id: str, queue) -> None:
        """Drop a live subscription (client disconnected mid-stream)."""
        listeners = self._subscribers.get(job_id)
        if listeners is not None and queue in listeners:
            listeners.remove(queue)

    def stats(self) -> dict:
        """Job-state counts plus the load-shed/recovery counters."""
        states = {state: 0 for state in JOB_STATES}
        for record in self._jobs.values():
            states[record.state] += 1
        return {
            "jobs": states,
            "load_shed": dict(self.counters),
            "durable": self._table is not None,
        }

    async def close(self) -> None:
        """Cancel every live job and wait for their actors to finish."""
        for job_id, record in self._jobs.items():
            if record.state not in TERMINAL_JOB_STATES:
                self.cancel(job_id)
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    # -- durable recovery (called once, at server boot) ---------------------

    def recover(self) -> int:
        """Re-queue every non-terminal job the durable table holds.

        Terminal rows come back as-is (artifacts re-resolve lazily from
        the store).  Non-terminal rows are re-validated and
        re-fingerprinted — a row whose spec no longer reproduces its
        recorded fingerprint settles as ``failed`` instead of silently
        computing something else — then re-queued with a ``recovered``
        event and a fresh run task, which resumes from whatever stage
        checkpoints the previous life already published.
        Returns the number of jobs re-queued.
        """
        if self._table is None:
            return 0
        rows, next_id = self._table.load()
        self._next_id = max(self._next_id, next_id)
        resumed = 0
        for row in rows:
            if row["id"] in self._jobs:
                continue
            record = JobRecord(
                id=str(row["id"]),
                spec=row["spec"],
                fingerprint=str(row["fingerprint"]),
                tenant=str(row["tenant"]),
                state=str(row["state"]),
                attempts=int(row["attempts"]),
                error=row["error"],
                events=list(row["events"]),
            )
            self._register(record)
            if record.state in TERMINAL_JOB_STATES:
                continue
            previous_state = record.state
            try:
                spec = _normalize_served_job(record.spec)
                fingerprint = job_fingerprint(spec)
            except ReproError as error:
                record.error = f"unrecoverable job: {error}"
                self._settle(record, "failed", error=record.error)
                continue
            if fingerprint != record.fingerprint:
                record.error = (
                    "unrecoverable job: fingerprint drifted across restart"
                )
                self._settle(record, "failed", error=record.error)
                continue
            record.spec = spec
            record.state = "queued"
            self.counters["recovered"] += 1
            resumed += 1
            self._emit(record, "recovered", previous_state=previous_state)
            self._spawn(record)
        self._persist_index()
        return resumed

    def _register(self, record: JobRecord) -> None:
        self._jobs[record.id] = record
        self._order.append(record.id)
        self._cancels[record.id] = threading.Event()
        self._subscribers[record.id] = []

    def _spawn(self, record: JobRecord) -> None:
        task = asyncio.get_running_loop().create_task(self._run_job(record))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _persist(self, record: JobRecord) -> None:
        """Re-write one job's durable row (no-op without a store)."""
        if self._table is not None:
            self._table.save_row(record.row())

    def _persist_index(self) -> None:
        if self._table is not None:
            self._table.save_index(self._order, self._next_id)

    # -- the per-job actor -------------------------------------------------

    async def _run_job(self, record: JobRecord) -> None:
        async with self._semaphore:
            if record.state != "queued":  # cancelled while waiting its turn
                return
            record.state = "running"
            self._emit(record, "started")
            try:
                artifact = await self._resolve_from_store(record)
                if artifact is not None:
                    record.artifact = artifact
                    self._emit(
                        record,
                        "artifact",
                        source="store",
                        records=len(artifact["records"]),
                    )
                    self._settle(record, "completed")
                    return
                artifact = await self._supervise(record)
                record.artifact = artifact
                for row in stage_event_rows(artifact.get("profile")):
                    self._emit(record, "stage", **row)
                self._emit(
                    record,
                    "artifact",
                    source="computed",
                    records=len(artifact["records"]),
                )
                await self._publish(record, artifact)
            except JobCancelled:
                self._settle(record, "cancelled")
                return
            except Exception as error:  # noqa: BLE001 — the actor must
                # settle the job whatever went wrong; an unsettled job
                # would hang every subscriber forever.
                record.error = str(error)
                self._settle(record, "failed", error=record.error)
                return
            self._settle(record, "completed", attempts=record.attempts)

    async def _supervise(self, record: JobRecord) -> dict:
        """Run the job under a fresh supervisor in a worker thread."""
        loop = asyncio.get_running_loop()

        def on_attempt(attempt: int) -> None:
            # Fires on the supervisor thread; marshal back to the loop.
            loop.call_soon_threadsafe(self._note_attempt, record, attempt)

        supervisor = JobSupervisor(
            self._executor_factory(),
            timeout=self.job_timeout,
            retries=self.job_retries,
        )
        return await asyncio.to_thread(
            supervisor.run,
            job_executor.execute_job,
            ({"job": record.spec, "store_dir": self.store_dir},),
            on_attempt=on_attempt,
            cancel=self._cancels[record.id],
        )

    def _note_attempt(self, record: JobRecord, attempt: int) -> None:
        if record.state in TERMINAL_JOB_STATES:
            return
        record.attempts = attempt
        self._emit(record, "attempt", attempt=attempt, restarted=attempt > 1)

    async def _resolve_from_store(self, record: JobRecord) -> dict | None:
        if self._store is None:
            return None
        return await asyncio.to_thread(
            job_executor.load_artifact, self._store, record.fingerprint
        )

    async def _publish(self, record: JobRecord, artifact: dict) -> None:
        if self._store is None:
            return
        await asyncio.to_thread(
            job_executor.publish_artifact, self._store, record.fingerprint, artifact
        )

    # -- event plumbing (loop-confined) ------------------------------------

    def _emit(self, record: JobRecord, kind: str, **payload) -> None:
        event = build_event(kind, record.id, len(record.events), **payload)
        record.events.append(event)
        self._persist(record)
        for queue in self._subscribers.get(record.id, ()):
            queue.put_nowait(event)

    def _settle(self, record: JobRecord, state: str, **payload) -> None:
        """Move a job to a terminal state and close its subscriptions."""
        record.state = state
        self._emit(record, state, **payload)
        for queue in self._subscribers.pop(record.id, ()):
            queue.put_nowait(None)
        self._subscribers[record.id] = []
