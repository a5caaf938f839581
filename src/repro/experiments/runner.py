"""The unified experiment sweep engine.

Every paper artifact (fig1–fig4, table1–table2) used to reproduce itself
with a bespoke serial double loop that rebuilt the graph and re-ran the
full eigendecomposition per trial.  This module replaces those loops with
one declarative subsystem:

* :class:`SweepSpec` — a frozen description of a sweep: named axes, a
  per-trial function, the experiment's (legacy-compatible) seed derivation
  and fixed parameters.  Each experiment module exposes a ``spec(...)``
  factory building its own.
* :class:`SweepRunner` — executes a spec's cartesian task grid either
  serially or across a process pool (``jobs > 1``).  Per-task RNG streams
  are spawned up front with :func:`repro.utils.rng.spawn_rngs` and results
  are reassembled in task order, so serial and parallel runs are
  bit-identical at a fixed seed.  Each worker's content-store counter
  deltas (:mod:`repro.store`) are aggregated into the result.
* :func:`write_artifact` / :func:`validate_artifact` — every sweep can be
  serialized to one JSON artifact of schema :data:`ARTIFACT_SCHEMA`, which
  the ``repro experiments`` CLI emits and CI validates.  Since the staged
  pipeline core (:mod:`repro.pipeline`) the artifact carries an additive
  ``profile`` field: per-stage wall seconds and computed/loaded execution
  counts aggregated across every trial, bracketed per task exactly like
  the store counters.

Determinism contract: a task's trial seed depends only on (point, trial,
base_seed) via the spec's ``seed`` function, and its RNG stream only on
(base_seed, task index) — never on scheduling.  Experiment modules keep
their historical integer-seed formulas, so sweeps produce the same records
they did under the hand-rolled loops.
"""

from __future__ import annotations

import inspect
import itertools
import json
import pathlib
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.exceptions import ClusteringError, ExperimentError
from repro.experiments.common import TrialRecord
from repro.pipeline.telemetry import (
    ANNOTATION_KEYS as _PROFILE_ANNOTATIONS,
    TOTAL_KEYS as _PROFILE_KEYS,
    merge_totals,
    stage_totals,
    totals_delta,
)
from repro.store import COUNTER_KEYS as _STORE_COUNTERS, get_store
from repro.utils.rng import spawn_rngs

#: Version tag of the JSON artifact layout written by :func:`write_artifact`.
ARTIFACT_SCHEMA = "repro.sweep/1"


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: a name and the tuple of values it takes."""

    name: str
    values: tuple

    def __post_init__(self):
        if not self.name:
            raise ExperimentError("axis name must be non-empty")
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ExperimentError(f"axis {self.name!r} has no values")


@dataclass(frozen=True)
class SweepTask:
    """One unit of sweep work: a point on the axis grid and a trial index."""

    index: int
    point: dict
    trial: int
    seed: int


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of one experiment sweep.

    Attributes
    ----------
    name:
        Registry key and artifact file stem (e.g. ``"fig2"``).
    artifact:
        The paper artifact this sweep reproduces (e.g. ``"Figure 2"``).
    description:
        One-line summary shown by ``repro experiments --list``.
    axes:
        Swept parameters; the task grid is their cartesian product in axis
        order (first axis outermost), matching the historical loop nesting.
    trial:
        ``trial(point, trial_index, seed, rng, **fixed) -> list[TrialRecord]``.
        Must be a module-level function so tasks can cross process
        boundaries.  ``rng`` is the task's spawned stream; the refactored
        paper experiments ignore it and derive everything from the integer
        ``seed`` to stay record-identical with their pre-runner outputs.
    seed:
        ``seed(point, trial_index, base_seed) -> int`` — the experiment's
        per-trial seed derivation (each module keeps its legacy formula).
    base_seed:
        Master seed: feeds ``seed`` and the spawned per-task RNG streams.
    trials:
        Trials per grid point.
    fixed:
        Non-swept keyword parameters forwarded to every ``trial`` call.
    render:
        Optional ``render(records) -> str`` producing the markdown
        table/series quoted in the docs; stored in the JSON artifact.
    """

    name: str
    artifact: str
    description: str
    axes: tuple[SweepAxis, ...]
    trial: Callable
    seed: Callable
    base_seed: int
    trials: int = 1
    fixed: dict = field(default_factory=dict)
    render: Callable | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ExperimentError(f"trials must be >= 1, got {self.trials}")
        if not self.axes:
            raise ExperimentError(f"sweep {self.name!r} has no axes")

    def points(self) -> list[dict]:
        """The axis grid: one dict per point, first axis outermost."""
        names = [axis.name for axis in self.axes]
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*(axis.values for axis in self.axes))
        ]

    def tasks(self) -> list[SweepTask]:
        """The full task list in deterministic execution order."""
        tasks = []
        for point in self.points():
            for trial in range(self.trials):
                tasks.append(
                    SweepTask(
                        index=len(tasks),
                        point=point,
                        trial=trial,
                        seed=int(self.seed(point, trial, self.base_seed)),
                    )
                )
        return tasks

    def with_updates(self, **kwargs) -> "SweepSpec":
        """A modified copy — how the CLI applies ``--trials`` overrides."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class SweepResult:
    """Everything one sweep execution produced.

    ``records`` is the flat list of :class:`TrialRecord` rows in task
    order — independent of ``jobs``, bit-identical between serial and
    parallel runs.  ``store`` holds the content-store counter deltas
    (:data:`repro.store.COUNTER_KEYS`) accumulated across all worker
    processes — all zeros when no sweep touched the store; ``profile``
    holds the per-stage pipeline telemetry deltas (seconds,
    computed/loaded counts per stage of
    :data:`repro.pipeline.STAGE_NAMES`) aggregated the same way.
    """

    spec: SweepSpec
    records: list
    jobs: int
    elapsed_seconds: float
    store: dict
    profile: dict = field(default_factory=dict)

    def rendered(self) -> str | None:
        """The spec's markdown rendering of the records (if it has one)."""
        if self.spec.render is None:
            return None
        return self.spec.render(self.records)

    def to_artifact(self) -> dict:
        """The JSON-serializable artifact dictionary (validated schema)."""
        artifact = {
            "schema": ARTIFACT_SCHEMA,
            "name": self.spec.name,
            "artifact": self.spec.artifact,
            "description": self.spec.description,
            "spec": {
                "axes": {
                    axis.name: [_jsonable(v) for v in axis.values]
                    for axis in self.spec.axes
                },
                "trials": self.spec.trials,
                "base_seed": self.spec.base_seed,
                "fixed": _jsonable(dict(self.spec.fixed)),
            },
            "jobs": self.jobs,
            "elapsed_seconds": float(self.elapsed_seconds),
            # Content-store traffic across every worker process.  A warm
            # ``--store-dir`` re-run shows nonzero ``disk_hits`` here — the
            # counter the CI smoke and the trajectory gate assert on.
            "store": {k: int(self.store[k]) for k in _STORE_COUNTERS},
            "profile": {
                stage: {
                    "seconds": float(entry.get("seconds", 0.0)),
                    "computed": int(entry.get("computed", 0)),
                    "loaded": int(entry.get("loaded", 0)),
                    # Backend annotations exist only for stages that
                    # resolved the linalg contract (laplacian/threshold) —
                    # served jobs can then report which backend ran.
                    **{
                        key: str(entry[key])
                        for key in _PROFILE_ANNOTATIONS
                        if key in entry
                    },
                }
                for stage, entry in self.profile.items()
            },
            "records": [_record_dict(record) for record in self.records],
            "table": self.rendered(),
        }
        validate_artifact(artifact)
        return artifact


def _jsonable(value):
    """Recursively coerce numpy scalars/arrays into plain JSON types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    return value


def _record_dict(record: TrialRecord) -> dict:
    """One artifact row for a :class:`TrialRecord`."""
    return {
        "experiment": record.experiment,
        "method": record.method,
        "parameters": _jsonable(record.parameters),
        "seed": int(record.seed),
        "ari": None if record.ari is None else float(record.ari),
        "accuracy": None if record.accuracy is None else float(record.accuracy),
        "extra": _jsonable(record.extra),
    }


# -- execution ------------------------------------------------------------


def _execute_task(spec: SweepSpec, task: SweepTask, rng) -> tuple:
    """Run one task; returns (index, records, store/profile deltas).

    Module-level so process-pool workers can unpickle it.  The
    content-store counter delta and the per-stage pipeline telemetry
    delta are measured *inside* the executing process,
    bracketing the trial call, so the accounting is exact regardless of
    multiprocessing start method (fork workers inherit nonzero counters,
    spawn workers start at zero — a delta is correct either way).
    """
    store_before = get_store().counters()
    stages_before = stage_totals()
    records = list(spec.trial(task.point, task.trial, task.seed, rng, **spec.fixed))
    store_after = get_store().counters()
    stages_after = stage_totals()
    for record in records:
        if not isinstance(record, TrialRecord):
            raise ExperimentError(
                f"sweep {spec.name!r} trial returned {type(record).__name__}, "
                "expected TrialRecord"
            )
    store_delta = {key: store_after[key] - store_before[key] for key in _STORE_COUNTERS}
    return (
        task.index,
        records,
        store_delta,
        totals_delta(stages_before, stages_after),
    )


class SweepRunner:
    """Executes a :class:`SweepSpec` serially or across a process pool.

    Parameters
    ----------
    spec:
        The sweep to run.
    jobs:
        Worker process count.  ``1`` (default) runs in-process; ``N > 1``
        fans tasks out over a :class:`~concurrent.futures.ProcessPoolExecutor`.
        Output is bit-identical either way: seeds and RNG streams are fixed
        per task before any scheduling happens, and records are reassembled
        in task order.
    """

    def __init__(self, spec: SweepSpec, jobs: int = 1):
        if jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {jobs}")
        self.spec = spec
        self.jobs = int(jobs)

    def run(self) -> SweepResult:
        """Execute every task of the spec and assemble the result."""
        tasks = self.spec.tasks()
        # One independent, deterministic RNG stream per task, spawned from
        # the spec's base seed — identical whether consumed here or in a
        # worker process, which is what makes --jobs reproducible.
        rngs = spawn_rngs(self.spec.base_seed, len(tasks))
        start = time.perf_counter()
        if self.jobs == 1 or len(tasks) <= 1:
            outcomes = [
                _execute_task(self.spec, task, rng)
                for task, rng in zip(tasks, rngs)
            ]
        else:
            # One future per task (not ``pool.map``) so a worker process
            # dying mid-task — OOM kill, segfault, os._exit — surfaces as
            # a ClusteringError naming the first affected task instead of
            # a raw BrokenProcessPool traceback.  Results are still
            # collected in task order, so the output stays bit-identical.
            with ProcessPoolExecutor(max_workers=self.jobs) as pool:
                futures = [
                    pool.submit(_execute_task, self.spec, task, rng)
                    for task, rng in zip(tasks, rngs)
                ]
                outcomes = []
                for task, future in zip(tasks, futures):
                    try:
                        outcomes.append(future.result())
                    except BrokenProcessPool as exc:
                        raise ClusteringError(
                            f"sweep {self.spec.name!r} task {task.index} "
                            f"(point={task.point}, trial={task.trial}): worker "
                            "process died mid-task (killed, out of memory, or "
                            "hard-exited) and took the pool down with it"
                        ) from exc
        elapsed = time.perf_counter() - start
        by_index: dict[int, list] = {}
        store = {key: 0 for key in _STORE_COUNTERS}
        profile: dict = {}
        for index, records, store_delta, stage_delta in outcomes:
            by_index[index] = records
            for key in _STORE_COUNTERS:
                store[key] += store_delta[key]
            merge_totals(profile, stage_delta)
        records = [record for index in sorted(by_index) for record in by_index[index]]
        return SweepResult(
            spec=self.spec,
            records=records,
            jobs=self.jobs,
            elapsed_seconds=elapsed,
            store=store,
            profile=profile,
        )


# -- JSON artifacts -------------------------------------------------------


def validate_artifact(artifact: dict) -> dict:
    """Check an artifact dictionary against :data:`ARTIFACT_SCHEMA`.

    Raises :class:`~repro.exceptions.ExperimentError` describing the first
    violation; returns the artifact unchanged when valid.  This is the
    contract the CI ``experiments-smoke`` step enforces.
    """
    if not isinstance(artifact, dict):
        raise ExperimentError("artifact must be a JSON object")
    if artifact.get("schema") != ARTIFACT_SCHEMA:
        raise ExperimentError(
            f"artifact schema must be {ARTIFACT_SCHEMA!r}, "
            f"got {artifact.get('schema')!r}"
        )
    for key, kind in (
        ("name", str),
        ("artifact", str),
        ("description", str),
        ("spec", dict),
        ("jobs", int),
        ("elapsed_seconds", (int, float)),
        ("records", list),
    ):
        if not isinstance(artifact.get(key), kind):
            raise ExperimentError(f"artifact field {key!r} missing or mistyped")
    spec = artifact["spec"]
    for key, kind in (
        ("axes", dict),
        ("trials", int),
        ("base_seed", int),
        ("fixed", dict),
    ):
        if not isinstance(spec.get(key), kind):
            raise ExperimentError(f"artifact spec field {key!r} missing or mistyped")
    if not spec["axes"]:
        raise ExperimentError("artifact spec has no axes")
    store = artifact.get("store")
    if store is not None:
        # Additive field (schema unchanged): content-store counter deltas.
        # Artifacts written before the shared store stay valid, and so do
        # those that still carry the retired spectral ``cache`` block; when
        # the field is present every counter must be an integer so the CI
        # warm-store assertion cannot silently read garbage.
        if not isinstance(store, dict):
            raise ExperimentError("artifact store must be an object")
        for counter in _STORE_COUNTERS:
            if not isinstance(store.get(counter), int):
                raise ExperimentError(
                    f"artifact store counter {counter!r} missing or mistyped"
                )
    profile = artifact.get("profile")
    if profile is not None:
        # Additive field (schema unchanged): per-stage pipeline telemetry.
        # Older artifacts without it stay valid; when present the layout
        # is checked so the CI profile upload cannot silently degrade.
        if not isinstance(profile, dict):
            raise ExperimentError("artifact profile must be an object")
        for stage, entry in profile.items():
            if not isinstance(entry, dict):
                raise ExperimentError(f"profile stage {stage!r} is not an object")
            for key in _PROFILE_KEYS:
                value = entry.get(key)
                kind = (int, float) if key == "seconds" else int
                if not isinstance(value, kind):
                    raise ExperimentError(
                        f"profile stage {stage!r} field {key!r} missing or mistyped"
                    )
            for key in _PROFILE_ANNOTATIONS:
                # Optional (linalg-resolving stages only), strings when
                # present.
                if key in entry and not isinstance(entry[key], str):
                    raise ExperimentError(
                        f"profile stage {stage!r} annotation {key!r} mistyped"
                    )
    provenance = artifact.get("provenance")
    if provenance is not None:
        # Additive field (schema unchanged): who/what produced this
        # artifact — the service stamps the job fingerprint, experiment
        # and protocol version here (never the tenant: artifacts are
        # content-addressed and shared across tenants).  Scalar values
        # only, so the block stays JSON-round-trippable and diffable.
        if not isinstance(provenance, dict):
            raise ExperimentError("artifact provenance must be an object")
        for key, value in provenance.items():
            if not isinstance(key, str):
                raise ExperimentError("artifact provenance keys must be strings")
            if value is not None and not isinstance(value, (str, int, float, bool)):
                raise ExperimentError(
                    f"artifact provenance field {key!r} must be a scalar or null"
                )
    if not artifact["records"]:
        raise ExperimentError("artifact has no records")
    for position, record in enumerate(artifact["records"]):
        if not isinstance(record, dict):
            raise ExperimentError(f"record #{position} is not an object")
        for key, kind in (
            ("experiment", str),
            ("method", str),
            ("parameters", dict),
            ("seed", int),
            ("extra", dict),
        ):
            if not isinstance(record.get(key), kind):
                raise ExperimentError(
                    f"record #{position} field {key!r} missing or mistyped"
                )
        for key in ("ari", "accuracy"):
            value = record.get(key)
            if value is not None and not isinstance(value, (int, float)):
                raise ExperimentError(
                    f"record #{position} field {key!r} must be a number or null"
                )
    table = artifact.get("table")
    if table is not None and not isinstance(table, str):
        raise ExperimentError("artifact table must be a string or null")
    return artifact


def stamp_provenance(artifact: dict, **fields) -> dict:
    """Merge scalar ``fields`` into the artifact's ``provenance`` block.

    The block is additive (see :func:`validate_artifact`); stamping an
    artifact never touches ``records`` or any other field, so two
    artifacts with different provenance can still be record-identical —
    the property the service's restart tests assert.  Returns the same
    artifact, validated.
    """
    provenance = dict(artifact.get("provenance") or {})
    provenance.update(fields)
    artifact["provenance"] = provenance
    return validate_artifact(artifact)


def validate_artifact_file(path) -> dict:
    """Load a JSON artifact from ``path`` and validate it."""
    with open(path, encoding="utf-8") as handle:
        return validate_artifact(json.load(handle))


def write_artifact(
    result: SweepResult, out_dir, artifact: dict | None = None
) -> pathlib.Path:
    """Serialize a sweep result to ``<out_dir>/<spec.name>.json``.

    The directory is created if needed; the artifact is validated before
    anything touches disk.  Pass ``artifact`` to reuse a dictionary you
    already obtained from :meth:`SweepResult.to_artifact` (rendering the
    table can be the expensive part of large sweeps); it is re-validated
    here either way.
    """
    if artifact is None:
        artifact = result.to_artifact()
    else:
        validate_artifact(artifact)
    directory = pathlib.Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{result.spec.name}.json"
    path.write_text(
        json.dumps(artifact, indent=2, sort_keys=False) + "\n", encoding="utf-8"
    )
    return path


# -- registry -------------------------------------------------------------


def registry() -> dict:
    """Name → ``spec(**overrides)`` factory for every paper artifact sweep.

    Built lazily because the experiment modules import this module for
    :class:`SweepSpec`; importing them at module load would be circular.
    """
    from repro.experiments import (
        fig1_direction_sweep,
        fig2_precision_sweep,
        fig3_runtime_scaling,
        fig4_shots_sweep,
        table1_msbm,
        table2_netlist,
    )

    return {
        "fig1": fig1_direction_sweep.spec,
        "fig2": fig2_precision_sweep.spec,
        "fig3": fig3_runtime_scaling.spec,
        "fig4": fig4_shots_sweep.spec,
        "table1": table1_msbm.spec,
        "table2": table2_netlist.spec,
    }


def get_spec(name: str, **overrides) -> SweepSpec:
    """Build the named sweep's spec, forwarding factory overrides."""
    specs = registry()
    if name not in specs:
        raise ExperimentError(
            f"unknown experiment {name!r}; known: {', '.join(sorted(specs))}"
        )
    return specs[name](**overrides)


# -- job specs (clustering-as-a-service submissions) ----------------------

#: Top-level keys a submitted job object may carry.
JOB_KEYS = ("experiment", "trials", "overrides")


def normalize_job(job: dict) -> dict:
    """Validate a submitted job object and return its canonical form.

    A job is the service-layer unit of work: a JSON object naming a
    registered experiment plus optional ``trials`` and spec-factory
    ``overrides``.  The canonical form — experiment name, explicit trial
    count, overrides with sorted keys — is what the job fingerprint (and
    therefore the store's job-artifact key) is computed from, so two
    submissions that mean the same sweep normalize identically.

    Raises :class:`~repro.exceptions.ExperimentError` on unknown
    experiments, unknown override names, or malformed values.
    """
    if not isinstance(job, dict):
        raise ExperimentError(
            f"job must be an object, got {type(job).__name__}"
        )
    unknown = sorted(set(job) - set(JOB_KEYS))
    if unknown:
        raise ExperimentError(
            f"unknown job field(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(JOB_KEYS)}"
        )
    specs = registry()
    experiment = job.get("experiment")
    if not isinstance(experiment, str) or experiment not in specs:
        raise ExperimentError(
            f"unknown experiment {experiment!r}; known: {', '.join(sorted(specs))}"
        )
    trials = job.get("trials", 1)
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
        raise ExperimentError(f"job trials must be a positive integer, got {trials!r}")
    overrides = job.get("overrides", {})
    if not isinstance(overrides, dict):
        raise ExperimentError(
            f"job overrides must be an object, got {type(overrides).__name__}"
        )
    allowed = set(inspect.signature(specs[experiment]).parameters)
    bad = sorted(set(overrides) - allowed)
    if bad:
        raise ExperimentError(
            f"experiment {experiment!r} does not accept override(s) "
            f"{', '.join(map(repr, bad))}; allowed: {', '.join(sorted(allowed))}"
        )
    return {
        "experiment": experiment,
        "trials": trials,
        "overrides": {key: overrides[key] for key in sorted(overrides)},
    }


def job_fingerprint(job: dict) -> str:
    """Content fingerprint of a job's canonical form (blake2b hex).

    Two submissions describing the same sweep share a fingerprint, which
    is how the service resolves repeat submissions straight from the
    content store's job-artifact namespace.
    """
    import hashlib

    canonical = json.dumps(_jsonable(normalize_job(job)), sort_keys=True)
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


def spec_from_job(job: dict, store_dir=None) -> SweepSpec:
    """Build the :class:`SweepSpec` a submitted job object describes.

    ``store_dir`` is the *server's* shared content store; it is injected
    into the factory call when the factory supports it (a served job
    cannot set its own), so every served job checkpoints into (and
    resumes from) the same store.  The injection deliberately happens
    after normalization — it never changes the job's fingerprint.
    """
    job = normalize_job(job)
    factory = registry()[job["experiment"]]
    kwargs = dict(job["overrides"])
    if store_dir is not None and "store_dir" in inspect.signature(factory).parameters:
        kwargs["store_dir"] = str(store_dir)
    spec = factory(**kwargs)
    if job["trials"] != spec.trials:
        spec = spec.with_updates(trials=job["trials"])
    return spec
