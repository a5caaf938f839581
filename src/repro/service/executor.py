"""Job execution: the supervised worker entry point and artifact storage.

A job is one call of :func:`execute_job` under a
:class:`~repro.service.supervisor.JobSupervisor` — a module-level,
picklable entry point so the default
:class:`~repro.service.supervisor.ProcessJobExecutor` can run it in a
dedicated worker process.

Crash-resume falls out of the content store rather than being built
here: the worker configures the server's shared content store before
running, and every stage output is checkpointed into that store the
moment it is computed — so a killed worker's restart (or a resubmission
of the same job) serves each stage the previous run published and
computes only the stages that never finished.  Finished jobs additionally
publish their whole validated artifact under the store's ``job``
namespace keyed by the job's content fingerprint, letting repeat
submissions skip execution entirely.
"""

from __future__ import annotations

from repro.experiments.runner import (
    ARTIFACT_SCHEMA,
    SweepRunner,
    job_fingerprint,
    spec_from_job,
    stamp_provenance,
    validate_artifact,
)
from repro.service.routes import PROTOCOL_VERSION
from repro.store import (
    JOB_NAMESPACE,
    ContentStore,
    configure_store,
    decode_json_payload,
    encode_json_payload,
)


def execute_job(payload: dict) -> dict:
    """Run one job to completion; returns its validated artifact dict.

    ``payload`` is ``{"job": <normalized job object>, "store_dir": ...}``.
    Module-level and picklable — this is the function the per-job
    supervisor hands to its executor, inline or worker-process alike.
    """
    job = payload["job"]
    store_dir = payload.get("store_dir")
    if store_dir is not None:
        # The worker inherits the server's shared store so stage
        # checkpoints land where the next attempt (or resubmission) of
        # this job will look for them.
        configure_store(root=store_dir)
    spec = spec_from_job(job, store_dir=store_dir)
    # Parallelism comes from concurrent jobs — never from a nested
    # process pool inside the worker.
    result = SweepRunner(spec, jobs=1).run()
    # Provenance is additive and scalar-only; deliberately no tenant —
    # artifacts are content-addressed and shared across tenants, so a
    # store-served resubmission must not leak who computed it first.
    return stamp_provenance(
        result.to_artifact(),
        fingerprint=job_fingerprint(job),
        experiment=job["experiment"],
        protocol_version=PROTOCOL_VERSION,
        served=True,
    )


def job_store_key(fingerprint: str) -> str:
    """Store key of a job's published artifact (schema-versioned)."""
    return f"{ARTIFACT_SCHEMA}:{fingerprint}"


def publish_artifact(store: ContentStore, fingerprint: str, artifact: dict) -> None:
    """Persist a finished job's artifact under the ``job`` namespace."""
    store.put(JOB_NAMESPACE, job_store_key(fingerprint), encode_json_payload(artifact))


def load_artifact(store: ContentStore, fingerprint: str) -> dict | None:
    """A previously published artifact for this fingerprint, or ``None``.

    Anything unusable — missing entry, corrupt payload, schema drift —
    returns ``None`` so the caller falls back to computing; a store can
    never make a job fail.
    """
    payload = store.get(JOB_NAMESPACE, job_store_key(fingerprint))
    if payload is None:
        return None
    try:
        return validate_artifact(decode_json_payload(payload))
    except Exception:  # noqa: BLE001 — any damage (StoreError, schema) → recompute
        return None
