"""Clustering-as-a-service: the async job server over the staged pipeline.

* one **event loop** (:class:`~repro.service.server.JobServer`) owns
  every connection and all job bookkeeping — connection handlers and
  worker callbacks are messages into the loop, never shared state;
* one **supervising parent actor per job**
  (:class:`~repro.service.manager.JobManager`) runs each submission
  under a :class:`~repro.service.supervisor.JobSupervisor` in a worker
  thread: per-job timeout, crashed-worker restart with backoff,
  kill-based cancellation;
* the **content store** makes jobs restartable and repeatable — stage
  checkpoints land in the shared store as they complete,
  finished artifacts are published under the job's content fingerprint
  so identical resubmissions are served without recomputing, and the
  durable **job table** (:mod:`repro.service.jobtable`) lets a rebooted
  server re-queue whatever a kill left unfinished;
* **admission control and tenancy** bound the damage of overload: queue
  depth and per-tenant in-flight caps shed with the retryable
  ``rejected`` error (:mod:`repro.service.errors`), and bearer tokens
  (:mod:`repro.service.auth`) scope every job to the tenant its token
  proves;
* progress streams as **events** built from the pipeline's telemetry
  profile (per-stage seconds plus ``computed`` / ``loaded``
  counters), one JSON line per event.

The wire format — JSON lines, the one protocol — lives in
:mod:`repro.service.protocol`; the op table (and the generated
``docs/api.md``) in :mod:`repro.service.routes`; ``repro serve`` is the
CLI entry point.
"""

from repro.service.auth import DEFAULT_TENANT, TokenAuthenticator
from repro.service.client import ServiceClient
from repro.service.errors import (
    ArtifactNotReadyError,
    AuthError,
    InvalidJobError,
    ProtocolError,
    RejectedError,
    UnknownJobError,
)
from repro.service.events import EVENT_TYPES, TERMINAL_STATES, build_event
from repro.service.executor import execute_job, job_store_key
from repro.service.harness import ServerThread
from repro.service.jobtable import JobTable
from repro.service.manager import JOB_STATES, JobManager, JobRecord
from repro.service.routes import PROTOCOL_VERSION
from repro.service.server import JobServer, serve

__all__ = [
    "ArtifactNotReadyError",
    "AuthError",
    "DEFAULT_TENANT",
    "EVENT_TYPES",
    "InvalidJobError",
    "JOB_STATES",
    "JobManager",
    "JobRecord",
    "JobServer",
    "JobTable",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RejectedError",
    "ServerThread",
    "ServiceClient",
    "TERMINAL_STATES",
    "TokenAuthenticator",
    "UnknownJobError",
    "build_event",
    "execute_job",
    "job_store_key",
    "serve",
]
