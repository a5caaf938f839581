"""Job lifecycle events: the service's streamed progress vocabulary.

Every job accumulates an ordered transcript of event objects; clients
replay the transcript on subscription and then receive live events until
the job reaches a terminal state.  Events are deterministic in structure
(kind, ordering, counters) — only the ``seconds`` figures inside stage
events vary run to run — which is what lets the test harness pin exact
transcripts the way the pipeline tests pin golden digests.

Event kinds, in the order a healthy job emits them:

``submitted`` → ``started`` → ``attempt`` (one per worker launch;
``attempt >= 2`` means a crashed or expired child was restarted) →
``stage`` (one per pipeline stage, from the artifact's telemetry profile)
→ ``artifact``
(``source`` is ``"computed"`` or ``"store"`` — the latter for repeat
submissions resolved from the content store, which skip the ``attempt``
and ``stage`` events entirely) → ``completed``.  Failed jobs end with
``failed`` (carrying ``error``), cancelled jobs with ``cancelled``.

One extra kind sits outside the healthy ordering: ``recovered``, emitted
when a rebooted server re-queues a non-terminal job from the durable
job table (:mod:`repro.service.jobtable`) — it appears in the transcript
between the original events and the fresh ``started``, carrying the
state the job was found in.
"""

from __future__ import annotations

from repro.pipeline.stages import STAGE_NAMES
from repro.pipeline.telemetry import profile_stage_rows

#: Every event kind the service emits.
EVENT_TYPES = (
    "submitted",
    "recovered",
    "started",
    "attempt",
    "stage",
    "artifact",
    "completed",
    "failed",
    "cancelled",
)

#: Job states from which no further events follow.
TERMINAL_STATES = ("completed", "failed", "cancelled")


def build_event(kind: str, job_id: str, seq: int, **payload) -> dict:
    """One event object: kind + job + monotonic sequence number + payload."""
    if kind not in EVENT_TYPES:
        raise ValueError(f"unknown event kind {kind!r}")
    event = {"event": kind, "job": job_id, "seq": int(seq)}
    event.update(payload)
    return event


def stage_event_rows(profile: dict) -> list[dict]:
    """Per-stage event payloads from an artifact's telemetry profile.

    Pipeline stages come first in execution order (:data:`STAGE_NAMES`);
    each row carries the stage's aggregate seconds and computed/loaded
    counts — the counters the resume tests assert on.
    """
    return profile_stage_rows(profile or {}, order=STAGE_NAMES)
