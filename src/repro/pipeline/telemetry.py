"""Per-stage telemetry of the staged clustering pipeline.

Two sinks record every stage execution:

* the **run-local profile** — each :meth:`~repro.pipeline.pipeline.QSCPipeline.run`
  collects one :class:`StageReport` per stage (wall time, data source,
  content-store counter delta) and attaches the tuple to
  ``QSCResult.profile``;
* the **process-wide totals** (:func:`stage_totals`) — an accumulator the
  experiment sweep runner brackets around each trial, exactly like the
  content-store counters, so ``repro.sweep/1`` artifacts can report the
  aggregate seconds spent per stage across a whole sweep.

Totals are process-local: parallel sweep workers each accumulate their
own, and the runner sums the per-task deltas — correct under any
multiprocessing start method.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Where a stage's output came from during a pipeline run.
STAGE_SOURCES = ("computed", "store", "reused")

#: Counter keys of one stage's process-wide totals entry.
TOTAL_KEYS = ("seconds", "computed", "loaded")

#: String annotation keys a stage may attach to its totals entry (set by
#: the laplacian stage from the matrix it built and the eigensolve its QPE
#: engine ran).  They appear only where recorded, so the classic totals
#: shape is unchanged for every other stage.
ANNOTATION_KEYS = ("linalg_backend", "eigensolver")


@dataclass(frozen=True)
class StageReport:
    """Telemetry of one stage execution inside one pipeline run.

    Attributes
    ----------
    stage:
        Stage name (one of ``QSCPipeline.stage_names``).
    seconds:
        Wall time of the stage (compute, store read, or in-memory
        reuse — whichever path ran).
    source:
        ``"computed"`` (ran for real, also when an entry the run looked
        for was missing or corrupt), ``"store"`` (served from the content
        store's entry for this stage context), or ``"reused"`` (taken
        from another run's in-memory state).
    memory_hits / disk_hits / misses:
        Delta of the content store's counters
        (:meth:`repro.store.ContentStore.counters`, every namespace)
        bracketing the stage: spectral entries served from memory or
        disk, stage entries read, and lookups that found nothing.
    backend / eigensolver:
        Representation of the Laplacian the stage built (``"dense"`` or
        ``"sparse"``) and the eigensolve that ran on it (``"eigh(D=…)"``,
        ``"eigh-mrrr(n=…)"``) — ``None`` on stages that don't touch the
        linalg contract.
    """

    stage: str
    seconds: float
    source: str
    memory_hits: int
    disk_hits: int
    misses: int
    backend: str | None = None
    eigensolver: str | None = None

    def as_dict(self) -> dict:
        """Plain-dict form used by ``QSCResult.profile`` and the CLI."""
        row = {
            "stage": self.stage,
            "seconds": float(self.seconds),
            "source": self.source,
            "memory_hits": int(self.memory_hits),
            "disk_hits": int(self.disk_hits),
            "misses": int(self.misses),
        }
        if self.backend is not None:
            row["linalg_backend"] = self.backend
        if self.eigensolver is not None:
            row["eigensolver"] = self.eigensolver
        return row


_TOTALS: dict[str, dict] = {}


def record_stage(report: StageReport) -> None:
    """Fold one stage execution into the process-wide totals."""
    entry = _TOTALS.setdefault(
        report.stage, {"seconds": 0.0, "computed": 0, "loaded": 0}
    )
    entry["seconds"] += float(report.seconds)
    if report.source == "computed":
        entry["computed"] += 1
    else:
        entry["loaded"] += 1
    # Annotations overwrite (latest run wins) rather than accumulate —
    # they describe *which* backend ran, not how much work it did.
    if report.backend is not None:
        entry["linalg_backend"] = report.backend
    if report.eigensolver is not None:
        entry["eigensolver"] = report.eigensolver


def stage_totals() -> dict:
    """Snapshot of the process-wide per-stage totals.

    Returns ``{stage: {"seconds": float, "computed": int, "loaded": int}}``
    — ``computed`` counts real executions, ``loaded`` counts store reads
    and in-memory reuses (work the staged pipeline
    *skipped*).
    """
    return {stage: dict(entry) for stage, entry in _TOTALS.items()}


def reset_stage_totals() -> None:
    """Zero the process-wide totals (tests and benchmarks)."""
    _TOTALS.clear()


def totals_delta(before: dict, after: dict) -> dict:
    """Per-stage difference of two :func:`stage_totals` snapshots."""
    delta = {}
    for stage, entry in after.items():
        base = before.get(stage, {})
        row = {key: entry[key] - base.get(key, 0) for key in TOTAL_KEYS}
        if row["computed"] or row["loaded"] or row["seconds"]:
            # String annotations are copied, not subtracted.
            for key in ANNOTATION_KEYS:
                if key in entry:
                    row[key] = entry[key]
            delta[stage] = row
    return delta


def merge_totals(accumulator: dict, delta: dict) -> dict:
    """Fold a :func:`totals_delta` into ``accumulator`` (in place)."""
    for stage, row in delta.items():
        entry = accumulator.setdefault(
            stage, {"seconds": 0.0, "computed": 0, "loaded": 0}
        )
        for key in row:
            if isinstance(row[key], str):
                entry[key] = row[key]
            else:
                entry[key] = entry.get(key, 0) + row[key]
    return accumulator


def profile_stage_rows(profile: dict, order: tuple = ()) -> list[dict]:
    """Flatten an artifact/result ``profile`` mapping into ordered rows.

    ``profile`` is the ``{stage: {seconds, computed, loaded, ...}}``
    mapping a ``repro.sweep/1`` artifact (or :func:`stage_totals`) carries.
    Stages listed in ``order`` come first in that order; any extras follow
    alphabetically.  Each row is a flat event-ready dict — the service
    layer streams these as per-stage progress events.
    """
    names = [stage for stage in order if stage in profile]
    names += [stage for stage in sorted(profile) if stage not in names]
    rows = []
    for stage in names:
        entry = profile[stage]
        row = {
            "stage": stage,
            "seconds": float(entry.get("seconds", 0.0)),
            "computed": int(entry.get("computed", 0)),
            "loaded": int(entry.get("loaded", 0)),
        }
        for key in ANNOTATION_KEYS:
            if key in entry:
                row[key] = str(entry[key])
        rows.append(row)
    return rows
