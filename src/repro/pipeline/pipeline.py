"""``QSCPipeline`` — the staged driver of quantum spectral clustering.

The paper's four-step chain used to live as one opaque ``fit`` method;
this driver runs it as five composable stages
(:data:`repro.pipeline.stages.STAGE_NAMES`) over a shared
:class:`~repro.pipeline.stage.StageContext`:

* **bit-identical** — ``QSCPipeline.run(graph)`` spawns the same three RNG
  streams from the config seed and executes the same code the monolithic
  ``fit`` did, so outputs are bit-for-bit unchanged at a fixed seed
  (golden-pinned in ``tests/pipeline/test_golden.py``);
* **checkpointable** — ``run(graph, save_stages=DIR)`` writes one
  ``<stage>.npz`` per stage; ``run(graph, resume_from="readout",
  stages_dir=DIR)`` loads everything upstream of ``readout`` from those
  files and recomputes only ``readout`` onward.  Because each stage owns an
  independent spawned stream, a resumed run equals the full run exactly;
* **read-through** — with a content store attached, each stage is served
  from its published store entry when one exists (``source="store"``),
  and computed and published otherwise;
* **profiled** — every stage execution is timed and bracketed with
  spectral-cache counters; the per-run profile lands in
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
from repro.core.qpe_engine import spectral_cache_counters
from repro.core.result import QSCResult
from repro.exceptions import ClusteringError
from repro.pipeline import checkpoint, telemetry
from repro.pipeline.stage import StageContext, StageState
from repro.pipeline.stages import STAGE_NAMES, build_stages
from repro.store import attached_store
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

    #: Stage vocabulary, in execution order (``--resume-from`` choices).
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
        save_stages=None,
        resume_from: str | None = None,
        stages_dir=None,
        upstream: dict | None = None,
        graph_digest: str | None = None,
    ) -> QSCResult:
        """Execute the staged pipeline on ``graph``.

        Parameters
        ----------
        graph:
            The mixed graph to cluster.
        save_stages:
            Directory to checkpoint every computed or store-served stage
            into (created if needed); ``None`` skips checkpointing.
        resume_from:
            Stage name to resume at: every stage *before* it is loaded
            from ``upstream`` / ``stages_dir`` instead of computed, and it
            plus everything downstream runs for real.  ``None`` (default)
            computes all five stages, or serves them from an attached
            store (see Notes).
        stages_dir:
            Checkpoint directory to load upstream stages from; defaults
            to ``save_stages`` when resuming.
        upstream:
            In-memory stage state (a previous run's ``pipeline.state``) to
            reuse instead of reading checkpoints — the zero-copy resume
            the experiment sweeps use.
        graph_digest:
            :func:`~repro.pipeline.checkpoint.graph_fingerprint` of
            ``graph`` when the caller already holds it (the sweeps hash
            each trial's graph once for the quantum fit and the baselines'
            store keys); ``None`` hashes the graph here when something
            keys on it: a content store or a checkpoint directory.  A run
            with neither computes no graph or stage fingerprint.

        Notes
        -----
        When the config carries ``store_dir`` (or a shared content store
        is already attached — see :mod:`repro.store`), stages resolve
        *through the store*: every cleanly computed stage is published
        under its context fingerprint, and a run without ``resume_from``
        serves each stage whose entry already exists instead of computing
        it (``source="store"``; a served stage is still written to
        ``save_stages``).  An in-memory resume (``upstream``) reuses the upstream
        stages and reads the resumed stage onward through the store like
        a plain run.  A resume from a run directory loads the upstream
        stages from it, falling back to the store when it lacks (or holds
        a corrupt copy of) a stage file, and the resumed stage onward
        always recomputes.  A corrupt run-dir checkpoint is evicted and
        recomputed instead of aborting the resume.

        Without ``save_stages``, a served stage resolves on first use: the
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
            resume_index = STAGE_NAMES.index(resume_from)
        if stages_dir is None:
            stages_dir = save_stages
        # A config carrying ``store_dir`` attaches the shared content
        # store for this (worker) process.
        store = attached_store(cfg.store_dir)
        if resume_index > 0 and upstream is None and stages_dir is None and store is None:
            raise ClusteringError(
                f"resume_from={resume_from!r} needs checkpoints: pass "
                "stages_dir/save_stages, a store_dir, or an in-memory "
                "upstream state"
            )

        # Fingerprints name store entries and checkpoint files; with
        # neither in play nothing reads them, so nothing is hashed.
        keyed = store is not None or stages_dir is not None
        if keyed and not graph_digest:
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
        read_through = store is not None and (
            resume_from is None or upstream is not None
        )
        self._run_stages(
            ctx, reports, served, resume_index, upstream,
            stages_dir, save_stages, store,
            keyed=keyed,
            read_through=read_through,
            # Without a run directory to fill, a stage whose entry
            # exists is read only when something asks for its keys.
            lazy=read_through and save_stages is None,
        )
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
        stages_dir,
        save_stages,
        store,
        keyed: bool,
        read_through: bool,
        lazy: bool,
    ) -> None:
        """Execute, load or defer every stage, appending telemetry reports."""
        cfg = self.config
        for index, stage in enumerate(build_stages()):
            cache_before = spectral_cache_counters()
            start = time.perf_counter()
            ctx.backend_info = {}
            # The context fingerprint binds a checkpoint to everything the
            # stage's output depends on (graph content, requested k, its
            # cumulative config fields) — loading under a different graph
            # or an upstream-relevant config change is a hard error, not
            # silently stale state.  In-memory `upstream` reuse is exempt:
            # the caller explicitly hands over state it owns (the fig4
            # pattern, where only downstream fields differ).
            if keyed:
                ctx.fingerprint = checkpoint.context_fingerprint(
                    ctx.graph_digest,
                    cfg,
                    self.num_clusters if stage.fingerprint_clusters else None,
                    stage.fingerprint_fields,
                )
            fingerprint = ctx.fingerprint
            values = None
            source = "computed"
            resuming = index < resume_index
            if resuming and upstream is not None:
                values = {key: upstream[key] for key in stage.provides}
                source = "reused"
            elif lazy and store.contains(
                checkpoint.STAGE_NAMESPACE,
                checkpoint.store_key(stage.name, fingerprint),
            ):
                deferred = _ServedStage(stage, ctx, store, reports)
                ctx.state.defer(stage.provides, deferred)
                served.append(deferred)
                values = {}
                source = "store"
            elif resuming or read_through:
                # Resume loads the prefix from the run directory (falling
                # back on the store); without --resume-from every stage
                # reads through the store first.
                payload = _load_payload(
                    stage.name, fingerprint, stages_dir if resuming else None, store
                )
                if payload is not None:
                    values = stage.unpack(payload, ctx)
                    source = "checkpoint" if resuming else "store"
                    if source == "store" and save_stages is not None:
                        checkpoint.save_stage_payload(
                            save_stages, stage.name, payload, fingerprint
                        )
            if values is None:
                values = _compute(stage, ctx, save_stages, store)
            ctx.state.update(values)
            reports.append(_report(stage, source, start, cache_before, ctx))


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
        cache_before = spectral_cache_counters()
        # The report's time is the registration's plus this resolution's.
        start = time.perf_counter() - self.reports[self.index].seconds
        payload = self.store.get(
            checkpoint.STAGE_NAMESPACE,
            checkpoint.store_key(self.stage.name, ctx.fingerprint),
        )
        if payload is not None:
            values, source = self.stage.unpack(payload, ctx), "store"
        else:
            values = _compute(self.stage, ctx, None, self.store)
            source = "computed"
        report = _report(self.stage, source, start, cache_before, ctx)
        if self.recorded and source == "computed":
            telemetry.record_stage(report)
        self.reports[self.index] = report
        return values


def _compute(stage, ctx: StageContext, save_stages, store) -> dict:
    """Run ``stage`` and publish its output."""
    values = stage.execute(ctx)
    if save_stages is not None or store is not None:
        packed = stage.pack(values)
        if save_stages is not None:
            checkpoint.save_stage_payload(
                save_stages, stage.name, packed, ctx.fingerprint
            )
        if store is not None:
            store.put(
                checkpoint.STAGE_NAMESPACE,
                checkpoint.store_key(stage.name, ctx.fingerprint),
                packed,
            )
    return values


def _report(stage, source: str, start: float, cache_before: dict, ctx):
    """Telemetry of one stage execution that began at ``start``."""
    cache_after = spectral_cache_counters()
    return telemetry.StageReport(
        stage=stage.name,
        seconds=time.perf_counter() - start,
        source=source,
        cache_hits=cache_after["hits"] - cache_before["hits"],
        cache_misses=cache_after["misses"] - cache_before["misses"],
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


def _load_payload(stage_name: str, fingerprint: str, stages_dir, store):
    """Packed payload of one stage from ``stages_dir``, else the store.

    Returns ``None`` on a miss the caller should recompute.  A corrupt
    run-dir checkpoint is evicted (the recompute rewrites it); a plainly
    missing one with no store to fall back on is the classic hard error,
    and a context mismatch always raises.
    """
    corrupt = False
    if stages_dir is not None and checkpoint.has_stage_checkpoint(
        stages_dir, stage_name
    ):
        try:
            return checkpoint.load_stage_payload(stages_dir, stage_name, fingerprint)
        except checkpoint.CorruptCheckpointError:
            # Damaged bits are never served; the rewrite heals the file.
            checkpoint.evict_stage_checkpoint(stages_dir, stage_name)
            corrupt = True
    if store is not None:
        return store.get(
            checkpoint.STAGE_NAMESPACE, checkpoint.store_key(stage_name, fingerprint)
        )
    if not corrupt:
        # Raises the "no checkpoint for stage ..." error.
        checkpoint.load_stage_payload(stages_dir, stage_name, fingerprint)
    return None
