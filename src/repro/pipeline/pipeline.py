"""``QSCPipeline`` — the staged driver of quantum spectral clustering.

The paper's four-step chain used to live as one opaque ``fit`` method;
this driver runs it as five composable stages
(:data:`repro.pipeline.stages.STAGE_NAMES`) over a shared
:class:`~repro.pipeline.stage.StageContext`:

* **bit-identical** — ``QSCPipeline.run(graph)`` spawns the same three RNG
  streams from the config seed and executes the same code the monolithic
  ``fit`` did, so outputs are bit-for-bit unchanged at a fixed seed
  (golden-pinned in ``tests/pipeline/test_golden.py``);
* **read-through** — with a content store attached, each stage is served
  from its published store entry when one exists (``source="store"``),
  and computed and published otherwise;
* **resumable** — ``run(graph, resume_from="readout", upstream=state)``
  reuses a previous run's in-memory stages upstream of ``readout`` and
  runs ``readout`` onward.  Because each stage owns an independent
  spawned stream, a resumed run equals the full run exactly;
* **profiled** — every stage execution is timed and bracketed with
  the content store's counters; the per-run profile lands in
  ``QSCResult.profile`` and the process-wide totals
  (:func:`repro.pipeline.telemetry.stage_totals`) feed the sweep runner's
  artifact field.

``QuantumSpectralClustering.fit`` is now a thin wrapper over this class.
"""

from __future__ import annotations

import time
from collections.abc import Mapping

import numpy as np

from repro.core.config import QSCConfig
from repro.core.result import QSCResult
from repro.exceptions import ClusteringError
from repro.pipeline import checkpoint, telemetry
from repro.pipeline.stage import StageContext, StageState
from repro.pipeline.stages import STAGE_NAMES, build_stages
from repro.store import attached_store, get_store
from repro.utils.rng import ensure_rng, spawn_rngs

#: Names of the per-stage RNG streams, in spawn order (the historical
#: ``fit`` spawn order — changing it would change every seeded output).
RNG_STREAMS = ("histogram", "rows", "qmeans")


class QSCPipeline:
    """Composable, checkpointable runner of the quantum clustering chain.

    Parameters
    ----------
    num_clusters:
        Cluster count k, or ``"auto"`` for histogram-native selection in
        the threshold stage.
    config:
        Pipeline tunables; ``None`` uses :class:`QSCConfig` defaults.

    Attributes
    ----------
    state:
        Stage outputs of the most recent :meth:`run` (key → value, e.g.
        ``state["backend"]`` is the QPE backend) — diagnostics passes
        reuse these instead of refitting, and a later run can resume from
        them in memory via ``upstream=pipeline.state``.
    profile:
        Per-stage telemetry of the most recent run, as the same tuple of
        dicts attached to ``QSCResult.profile``.
    """

    #: Stage vocabulary, in execution order (``resume_from`` choices).
    stage_names = STAGE_NAMES

    def __init__(self, num_clusters, config: QSCConfig | None = None):
        if num_clusters == "auto":
            self.num_clusters = "auto"
        else:
            if int(num_clusters) < 1:
                raise ClusteringError(
                    f"num_clusters must be >= 1 or 'auto', got {num_clusters}"
                )
            self.num_clusters = int(num_clusters)
        self.config = config or QSCConfig()
        self.state: StageState = StageState()
        self._reports: list = []

    def run(
        self,
        graph,
        *,
        resume_from: str | None = None,
        upstream: dict | None = None,
        graph_digest: str | None = None,
    ) -> QSCResult:
        """Execute the staged pipeline on ``graph``.

        Parameters
        ----------
        graph:
            The mixed graph to cluster.
        resume_from:
            Stage name to resume at: every stage *before* it is taken
            from ``upstream`` instead of computed, and it plus everything
            downstream runs (or is served from an attached store).
            ``None`` (default) computes all five stages, or serves them
            from an attached store (see Notes).  Needs ``upstream``.
        upstream:
            In-memory stage state (a previous run's ``pipeline.state``) to
            reuse — the zero-copy resume the experiment sweeps use.
        graph_digest:
            :func:`~repro.pipeline.checkpoint.graph_fingerprint` of
            ``graph`` when the caller already holds it (the sweeps hash
            each trial's graph once for the quantum fit and the baselines'
            store keys); ``None`` hashes the graph here when something
            keys on it, a content store.  A run without one computes no
            graph or stage fingerprint.

        Notes
        -----
        When the config carries ``store_dir`` (see :mod:`repro.store`),
        stages resolve *through the store*: every cleanly computed stage
        is published under its context fingerprint, and a run without
        ``resume_from`` serves each stage whose entry already exists
        instead of computing it (``source="store"``).  A config without
        ``store_dir`` names no store: the run reads and writes no disk
        entry, whatever an earlier run attached.  An in-memory resume
        (``upstream``) reuses the upstream stages and reads the resumed
        stage onward through the store like a plain run.  One rule covers
        an entry that is missing, one written for another context (its
        key differs) and a corrupt one: each is a miss, and the stage is
        recomputed from its own RNG stream and published
        (``source="computed"``).

        A served stage resolves on first use: the
        run only checks that its entry exists, and reads it the first time
        a computing stage, the result, or a caller reading
        ``pipeline.state`` asks for one of its keys.  The embedding entry
        carries the row norms, so a fully served run never reads its
        readout rows, and reads its Laplacian only when something asks for
        ``state["backend"]``.  An entry found corrupt or gone at that point
        is recomputed from the stage's untouched RNG stream and published,
        and its profile row says ``computed`` — which is also what reading
        ``pipeline.state`` after the store is detached does.

        Returns
        -------
        :class:`~repro.core.result.QSCResult` with ``result.profile``
        carrying one telemetry row per stage.
        """
        cfg = self.config
        if self.num_clusters != "auto" and self.num_clusters > graph.num_nodes:
            raise ClusteringError(
                f"cannot form {self.num_clusters} clusters from "
                f"{graph.num_nodes} nodes"
            )
        resume_index = 0
        if resume_from is not None:
            if resume_from not in STAGE_NAMES:
                raise ClusteringError(
                    f"unknown stage {resume_from!r}; stages are "
                    f"{', '.join(STAGE_NAMES)}"
                )
            if upstream is None:
                raise ClusteringError(
                    f"resume_from={resume_from!r} needs an in-memory upstream "
                    "state; a store-backed run serves stored stages without it"
                )
            resume_index = STAGE_NAMES.index(resume_from)
        # A config carrying ``store_dir`` attaches the shared content
        # store for this (worker) process.
        store = attached_store(cfg.store_dir)

        # Fingerprints name store entries; without a store nothing reads
        # them, so nothing is hashed.
        if store is not None and not graph_digest:
            graph_digest = checkpoint.graph_fingerprint(graph)
        ctx = StageContext(
            graph=graph,
            config=cfg,
            requested_clusters=self.num_clusters,
            rngs=_Streams(cfg.seed),
            graph_digest=graph_digest or "",
        )
        reports = []
        served: list[_ServedStage] = []
        self._run_stages(ctx, reports, served, resume_index, upstream, store)
        self.state = ctx.state
        self._reports = reports
        outputs = _result_fields(ctx.state, cfg)
        for report in reports:
            telemetry.record_stage(report)
        for stage in served:
            stage.recorded = True
        return QSCResult(**outputs, profile=self.profile)

    @property
    def profile(self) -> tuple:
        """Per-stage telemetry of the most recent run (one dict per stage)."""
        return tuple(report.as_dict() for report in self._reports)

    def _run_stages(
        self,
        ctx: StageContext,
        reports: list,
        served: list,
        resume_index: int,
        upstream: dict | None,
        store,
    ) -> None:
        """Execute, load or defer every stage, appending telemetry reports."""
        cfg = self.config
        for index, stage in enumerate(build_stages()):
            counters_before = get_store().counters()
            start = time.perf_counter()
            ctx.backend_info = {}
            values = None
            source = "computed"
            # The context fingerprint binds a store entry to everything the
            # stage's output depends on (graph content, requested k, its
            # cumulative config fields) — under a different graph or an
            # upstream-relevant config change the key differs, so stale
            # state is a miss, never served.  In-memory `upstream` reuse
            # is exempt: the caller explicitly hands over state it owns
            # (the fig4 pattern, where only downstream fields differ).
            if store is not None:
                ctx.fingerprint = checkpoint.context_fingerprint(
                    ctx.graph_digest,
                    cfg,
                    self.num_clusters if stage.fingerprint_clusters else None,
                    stage.fingerprint_fields,
                )
                entry = checkpoint.store_key(stage.name, ctx.fingerprint)
            if index < resume_index:
                values = {key: upstream[key] for key in stage.provides}
                source = "reused"
            elif store is not None and store.contains(
                checkpoint.STAGE_NAMESPACE, entry
            ):
                # A stage whose entry exists is read only when something
                # asks for its keys.
                deferred = _ServedStage(stage, ctx, store, reports)
                ctx.state.defer(stage.provides, deferred)
                served.append(deferred)
                values = {}
                source = "store"
            elif store is not None:
                # A lookup that found no entry still asks once, so the
                # store counts the miss.  A miss recomputes.
                payload = store.get(checkpoint.STAGE_NAMESPACE, entry)
                if payload is not None:
                    values = stage.unpack(payload, ctx)
                    source = "store"
            if values is None:
                values = _compute(stage, ctx, store)
            ctx.state.update(values)
            reports.append(_report(stage, source, start, counters_before, ctx))


class _Streams(Mapping):
    """The run's per-stage RNG streams (:data:`RNG_STREAMS`), spawned from
    ``seed`` the first time a stage asks for one — a fully served run
    spawns none.  A ``Generator`` seed spawns at once: its spawn count is
    state shared with its other users, so the spawn keeps its place."""

    def __init__(self, seed):
        self._seed = seed
        self._streams: dict | None = None
        if isinstance(seed, np.random.Generator):
            self._spawn()

    def _spawn(self) -> dict:
        if self._streams is None:
            streams = spawn_rngs(ensure_rng(self._seed), len(RNG_STREAMS))
            self._streams = dict(zip(RNG_STREAMS, streams))
        return self._streams

    def __getitem__(self, name):
        return self._spawn()[name]

    def __iter__(self):
        return iter(RNG_STREAMS)

    def __len__(self) -> int:
        return len(RNG_STREAMS)


class _ServedStage:
    """A stage the store holds, read the first time its keys are asked for.

    If the entry turns out corrupt or gone by then, the stage is computed
    from its own (still untouched) RNG stream and published instead, and
    its report says ``computed``.  It keeps a copy of the run's inputs,
    not the run's context or state, so no reference cycle outlives a run.
    """

    def __init__(self, stage, ctx: StageContext, store, reports: list):
        self.stage = stage
        self.inputs = {
            "graph": ctx.graph,
            "config": ctx.config,
            "requested_clusters": ctx.requested_clusters,
            "rngs": ctx.rngs,
            "graph_digest": ctx.graph_digest,
            "fingerprint": ctx.fingerprint,
        }
        self.store = store
        self.reports = reports
        self.index = len(reports)
        #: Set once the run has folded its reports into the process-wide
        #: totals; a recompute after that is recorded on its own.
        self.recorded = False

    def __call__(self, state: StageState) -> dict:
        ctx = StageContext(state=state, **self.inputs)
        counters_before = get_store().counters()
        # The report's time is the registration's plus this resolution's.
        start = time.perf_counter() - self.reports[self.index].seconds
        payload = self.store.get(
            checkpoint.STAGE_NAMESPACE,
            checkpoint.store_key(self.stage.name, ctx.fingerprint),
        )
        if payload is not None:
            values, source = self.stage.unpack(payload, ctx), "store"
        else:
            values = _compute(self.stage, ctx, self.store)
            source = "computed"
        report = _report(self.stage, source, start, counters_before, ctx)
        if self.recorded and source == "computed":
            telemetry.record_stage(report)
        self.reports[self.index] = report
        return values


def _compute(stage, ctx: StageContext, store) -> dict:
    """Run ``stage`` and publish its output to ``store``, if any."""
    values = stage.execute(ctx)
    if store is not None:
        store.put(
            checkpoint.STAGE_NAMESPACE,
            checkpoint.store_key(stage.name, ctx.fingerprint),
            stage.pack(values),
        )
    return values


def _report(stage, source: str, start: float, counters_before: dict, ctx):
    """Telemetry of one stage execution that began at ``start``."""
    after = get_store().counters()
    return telemetry.StageReport(
        stage=stage.name,
        seconds=time.perf_counter() - start,
        source=source,
        memory_hits=after["memory_hits"] - counters_before["memory_hits"],
        disk_hits=after["disk_hits"] - counters_before["disk_hits"],
        misses=after["misses"] - counters_before["misses"],
        backend=ctx.backend_info.get("linalg_backend"),
        eigensolver=ctx.backend_info.get("eigensolver"),
    )


def _result_fields(state: StageState, config: QSCConfig) -> dict:
    """The public result's fields from the final stage state.

    Reads only what a result keeps: a fully served run reads its
    threshold, embedding and q-means entries, never its readout rows or
    its Laplacian (the backend's name is the config's).
    """
    km = state["qmeans"]
    return {
        "labels": km.labels,
        "embedding": state["features"],
        "row_norms": state["norms"],
        "eigenvalue_histogram": state["histogram"],
        "threshold": state["threshold"],
        "accepted_bins": np.asarray(state["accepted"], dtype=int),
        "qmeans": km,
        "backend_name": config.backend,
    }
