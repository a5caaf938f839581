"""Deterministic row-sharding of the readout stage.

The readout stage is embarrassingly parallel across rows — row ``i``
consumes only its own spawned RNG stream and its own backend projection —
so it can be split into N contiguous **row shards** executed by the
supervised work queue (:mod:`repro.pipeline.supervisor`) without changing
a single bit of the merged result:

* shard boundaries derive *only* from ``(num_rows, shard_count)``
  (:func:`shard_layout` — balanced contiguous spans, larger shards first);
* each shard receives exactly the per-row generators it owns, sliced from
  the one :func:`~repro.utils.rng.spawn_rngs` layout the unsharded stage
  uses, and runs the same :func:`~repro.core.readout.readout_span` code;
* shard payloads merge in shard-index order and the (row-local) phase
  canonicalization runs once over the merged matrix — so any shard count
  up to ``num_rows // 2``, and any executor, retry schedule or completion
  order, is bit-identical to the unsharded stage (golden-pinned in
  ``tests/pipeline/test_sharding.py``).  More shards than that leave
  one-row shards, whose filter runs as a matrix-vector product and moves
  the row by float rounding (see :mod:`repro.core.readout`).

Each completed shard can be checkpointed as ``readout.shard-<i>.npz``
next to the regular stage checkpoints, stamped with the stage's context
fingerprint *plus* the shard layout.  A crashed run resumes by loading the
completed shards and recomputing only the missing ones; a degraded run
(``shard_failure_mode="degrade"``) returns partial results with the failed
shards' rows zeroed and their indices reported in ``incomplete_shards``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from repro.core.qpe_engine import AnalyticQPEBackend
from repro.core.readout import (
    ReadoutResult,
    anchor_row_phases,
    readout_span,
)
from repro.exceptions import ClusteringError
from repro.pipeline import checkpoint
from repro.pipeline.supervisor import (
    InlineShardExecutor,
    ProcessShardExecutor,
    ShardSupervisor,
    ShardTask,
)
from repro.pipeline.telemetry import ShardReport
from repro.store import active_store
from repro.utils.rng import spawn_rngs


@dataclass(frozen=True)
class RowShard:
    """One contiguous row span of a sharded stage."""

    index: int
    start: int
    stop: int

    @property
    def rows(self) -> int:
        """Number of rows the shard owns."""
        return self.stop - self.start


def shard_layout(num_rows: int, shard_count: int) -> tuple[RowShard, ...]:
    """Balanced contiguous row shards, a pure function of its arguments.

    Row counts differ by at most one, larger shards first (the
    ``numpy.array_split`` convention).  ``shard_count`` may exceed
    ``num_rows``; the surplus shards are empty and complete trivially.
    The layout depends on nothing else — not the executor, not the config
    — so a resuming run with the same ``(num_rows, shard_count)`` maps
    shard files back to identical spans.
    """
    if shard_count < 1:
        raise ClusteringError(f"shard_count must be >= 1, got {shard_count}")
    if num_rows < 0:
        raise ClusteringError(f"num_rows must be >= 0, got {num_rows}")
    base, extra = divmod(num_rows, shard_count)
    shards = []
    start = 0
    for index in range(shard_count):
        size = base + (1 if index < extra else 0)
        shards.append(RowShard(index=index, start=start, stop=start + size))
        start += size
    return tuple(shards)


def shard_checkpoint_name(stage_name: str, shard_index: int) -> str:
    """Checkpoint-file stem of one shard (``<stage>.shard-<i>``)."""
    return f"{stage_name}.shard-{shard_index}"


def shard_fingerprint(
    context_fingerprint: str, num_rows: int, shard_count: int, shard: RowShard
) -> str:
    """Context fingerprint of one shard checkpoint.

    Extends the stage's run-context fingerprint with the shard layout so a
    shard file is only ever loaded back into the *same* span of the same
    decomposition — a shard file left over from a different shard count or
    run configuration is a hard :class:`~repro.exceptions.ClusteringError`
    (delete the stale shard files, or the directory, to re-shard).
    """
    return (
        f"{context_fingerprint}/rows={num_rows}"
        f"/shards={shard_count}/span={shard.start}:{shard.stop}"
    )


def compute_shard(backend, accepted, shots, shard_rngs, shard, chunk_size) -> dict:
    """Worker entry point: the readout payload of one shard.

    ``shard_rngs`` are the shard's own per-row generators
    (``shard_rngs[i]`` serves absolute row ``shard.start + i``), sliced by
    the parent from the full spawn layout — the worker never re-spawns, so
    its draws are exactly the unsharded stage's draws for those rows.
    Module-level and pickle-clean, as the process executor requires.
    """
    rows, norms, probabilities = readout_span(
        backend,
        accepted,
        shots,
        shard_rngs,
        shard.start,
        shard.stop,
        chunk_size=chunk_size,
    )
    return {"rows": rows, "norms": norms, "probabilities": probabilities}


def default_max_workers() -> int:
    """Worker cap used when the caller passes ``max_workers=None``.

    One in-flight attempt per core: launching every shard at once at high
    shard counts would oversubscribe (or exhaust) the host.
    """
    return os.cpu_count() or 1


def default_executor(shard_count: int):
    """Executor used when the caller does not inject one.

    One shard runs inline (a worker process would only add overhead);
    multiple shards run in supervised worker processes.  Tests monkeypatch
    this hook to route the real pipeline through fault-injecting or
    inline executors.
    """
    if shard_count <= 1:
        return InlineShardExecutor()
    return ProcessShardExecutor()


@dataclass(frozen=True)
class ShardedReadout:
    """Merged result of a sharded readout pass.

    Attributes
    ----------
    result:
        The merged :class:`~repro.core.readout.ReadoutResult` — bit-equal
        to the unsharded stage when ``incomplete_shards`` is empty and no
        shard has exactly one row.
    shards:
        One :class:`~repro.pipeline.telemetry.ShardReport` per shard, in
        shard order.
    incomplete_shards:
        Indices of shards that failed under ``on_failure="degrade"``;
        their rows are zero in ``result`` (the same representation dead
        rows already use).  Empty on a complete run.
    """

    result: ReadoutResult
    shards: tuple
    incomplete_shards: tuple


def sharded_readout(
    backend,
    accepted,
    shots: int,
    rng,
    *,
    shard_count: int,
    chunk_size: int | None = None,
    canonical_phases: bool = True,
    executor=None,
    timeout: float | None = None,
    retries: int = 2,
    on_failure: str = "raise",
    max_workers: int | None = None,
    checkpoint_dir=None,
    save_dir=None,
    context_fingerprint: str = "",
    stage_name: str = "readout",
) -> ShardedReadout:
    """Run the readout stage as ``shard_count`` supervised row shards.

    Parameters
    ----------
    backend, accepted, shots, rng, chunk_size, canonical_phases:
        Exactly as :func:`~repro.core.readout.batched_readout`; the merged
        result is bit-identical to it for any ``shard_count`` that leaves
        no one-row shard (at most ``num_rows // 2``).
    shard_count:
        Number of row shards (see :func:`shard_layout`).
    executor:
        Attempt executor override; ``None`` uses
        :func:`default_executor` (worker processes when sharded).
    timeout / retries / on_failure / max_workers:
        Supervision policy — see
        :class:`~repro.pipeline.supervisor.ShardSupervisor`.
        ``max_workers=None`` caps in-flight attempts at
        :func:`default_max_workers` (one per core) rather than running
        every shard at once.
    checkpoint_dir:
        Directory to load completed shard checkpoints from (crash
        resume); shards found there are not re-run.  A shard file whose
        fingerprint does not match this run is a hard error.
    save_dir:
        Directory to write shard checkpoints into as shards complete —
        written by the supervising parent, so results survive both worker
        *and* parent crashes.
    context_fingerprint:
        The stage's run-context fingerprint
        (:func:`repro.pipeline.checkpoint.context_fingerprint`), extended
        per shard with the layout.
    stage_name:
        Stem of the shard checkpoint files.

    Returns
    -------
    :class:`ShardedReadout`
    """
    num_rows = int(backend.num_nodes)
    if shots < 0:
        raise ClusteringError(f"shots must be non-negative, got {shots}")
    layout = shard_layout(num_rows, shard_count)
    # Spawn ALL row streams once, exactly like the unsharded stage, then
    # hand each shard its own slice — spawning is stateful on a Generator,
    # so per-shard spawning would change the layout.
    row_rngs = spawn_rngs(rng, num_rows)

    store = active_store()
    payloads: dict[int, dict] = {}
    reports: dict[int, ShardReport] = {}
    tasks = []
    for shard in layout:
        fingerprint = shard_fingerprint(
            context_fingerprint, num_rows, shard_count, shard
        )
        name = shard_checkpoint_name(stage_name, shard.index)
        load_start = time.perf_counter()
        payload = None
        if checkpoint_dir is not None and checkpoint.has_stage_checkpoint(
            checkpoint_dir, name
        ):
            try:
                payload = checkpoint.load_stage_payload(
                    checkpoint_dir, name, fingerprint
                )
            except checkpoint.CorruptCheckpointError:
                # A corrupt shard file is evicted and *only this shard*
                # recomputed — the sibling checkpoints stay trusted, so
                # a damaged entry costs one shard, never the stage.
                checkpoint.evict_stage_checkpoint(checkpoint_dir, name)
        if payload is None and store is not None:
            # Shared-store resolution: a shard computed by any process
            # under this exact context/layout fingerprint serves here.
            payload = store.get(
                checkpoint.SHARD_NAMESPACE, checkpoint.store_key(name, fingerprint)
            )
        if payload is not None:
            payloads[shard.index] = {
                "rows": np.asarray(payload["rows"], dtype=complex),
                "norms": np.asarray(payload["norms"], dtype=float),
                "probabilities": np.asarray(
                    payload["probabilities"], dtype=float
                ),
            }
            reports[shard.index] = ShardReport(
                shard=shard.index,
                start=shard.start,
                stop=shard.stop,
                seconds=time.perf_counter() - load_start,
                attempts=0,
                source="checkpoint",
            )
            continue
        shard_rngs = row_rngs[shard.start : shard.stop]
        tasks.append(
            ShardTask(
                index=shard.index,
                fn=compute_shard,
                args=(backend, accepted, shots, shard_rngs, shard, chunk_size),
            )
        )

    if tasks:
        if isinstance(backend, AnalyticQPEBackend):
            # A deferred spectrum loads here, once, before workers fork.
            backend._spectrum()
        supervisor = ShardSupervisor(
            executor if executor is not None else default_executor(shard_count),
            timeout=timeout,
            retries=retries,
            on_failure=on_failure,
            max_workers=(
                default_max_workers() if max_workers is None else max_workers
            ),
        )

        def persist(outcome) -> None:
            # Checkpoint the moment a shard succeeds: completed work
            # survives both a later shard aborting the run and a parent
            # crash, which is what makes crash-resume recompute only the
            # genuinely missing shards.  The shared store is written too
            # (when attached), so the shard also serves sibling processes.
            if save_dir is None and store is None:
                return
            shard = layout[outcome.index]
            name = shard_checkpoint_name(stage_name, shard.index)
            fingerprint = shard_fingerprint(
                context_fingerprint, num_rows, shard_count, shard
            )
            if save_dir is not None:
                checkpoint.save_stage_payload(
                    save_dir, name, outcome.value, fingerprint
                )
            if store is not None:
                store.put(
                    checkpoint.SHARD_NAMESPACE,
                    checkpoint.store_key(name, fingerprint),
                    outcome.value,
                )

        outcomes = supervisor.run(tasks, on_complete=persist)
        for shard in layout:
            outcome = outcomes.get(shard.index)
            if outcome is None:
                continue
            if outcome.failed:
                reports[shard.index] = ShardReport(
                    shard=shard.index,
                    start=shard.start,
                    stop=shard.stop,
                    seconds=outcome.seconds,
                    attempts=outcome.attempts,
                    source="failed",
                    error=outcome.error,
                )
                continue
            payloads[shard.index] = outcome.value
            reports[shard.index] = ShardReport(
                shard=shard.index,
                start=shard.start,
                stop=shard.stop,
                seconds=outcome.seconds,
                attempts=outcome.attempts,
                source="computed",
            )

    # Merge in shard order — completion order never matters.
    rows = np.zeros((num_rows, backend.dim), dtype=complex)
    norms = np.zeros(num_rows)
    probabilities = np.zeros(num_rows)
    incomplete = []
    for shard in layout:
        payload = payloads.get(shard.index)
        if payload is None:
            incomplete.append(shard.index)
            continue
        rows[shard.start : shard.stop] = payload["rows"]
        norms[shard.start : shard.stop] = payload["norms"]
        probabilities[shard.start : shard.stop] = payload["probabilities"]
    if canonical_phases:
        # Row-local (each row's anchor is its own diagonal entry), so
        # canonicalizing once after the merge equals the unsharded order.
        anchor_row_phases(rows)
    return ShardedReadout(
        result=ReadoutResult(rows=rows, norms=norms, probabilities=probabilities),
        shards=tuple(reports[shard.index] for shard in layout),
        incomplete_shards=tuple(incomplete),
    )
