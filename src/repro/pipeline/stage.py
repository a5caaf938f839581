"""The stage contract of the staged clustering pipeline.

A :class:`Stage` is one step of the paper's algorithm with declared, typed
inputs and outputs: it reads named values from the shared
:class:`StageContext` state (``requires``), computes and returns new ones
(``provides``), and can round-trip its outputs through a dumb
array-only checkpoint payload (``pack``/``unpack``) so runs can publish
stages to the content store and serve them from it.  The concrete five stages live in
:mod:`repro.pipeline.stages`; :class:`repro.pipeline.pipeline.QSCPipeline`
chains them.

Contract rules (enforced by the pipeline driver):

* a stage may read only ``ctx.state`` keys it declares in ``requires`` and
  the run-wide inputs (graph, config, its own RNG stream);
* ``run`` returns exactly the keys in ``provides``;
* ``unpack(pack(values), ctx)`` must reproduce ``values`` for every
  checkpointable key — resuming downstream of a checkpoint is then
  bit-identical to a full run, because each stage consumes its *own*
  spawned RNG stream (skipping upstream stages never shifts a downstream
  stream).
"""

from __future__ import annotations

from collections.abc import MutableMapping
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ClusteringError


class StageState(MutableMapping):
    """Stage outputs by key, where a store-served stage's keys may resolve
    on first read.

    :meth:`defer` registers a stage's keys with a resolver — a callable
    taking this state and returning the stage's values — that runs the
    first time any of those keys is read.  A later stage providing the
    same key takes it over, as a later assignment would; a resolver writes
    only the keys nobody else holds (while it runs, its own keys are
    released, so a recomputing stage can read an upstream stage's copy).
    """

    def __init__(self):
        self._values: dict = {}
        self._pending: dict = {}

    def defer(self, keys, resolve) -> None:
        """Resolve ``keys`` by ``resolve(self)`` the first time one is read."""
        for key in keys:
            self._values.pop(key, None)
            self._pending[key] = resolve

    def __getitem__(self, key):
        if key in self._pending:
            self._resolve(self._pending[key])
        return self._values[key]

    def _resolve(self, resolve) -> None:
        keys = [key for key, owner in self._pending.items() if owner is resolve]
        for key in keys:
            del self._pending[key]
        try:
            values = resolve(self)
        except BaseException:
            for key in keys:
                self._pending.setdefault(key, resolve)
            raise
        for key, value in values.items():
            if key not in self._values and key not in self._pending:
                self._values[key] = value

    def __setitem__(self, key, value) -> None:
        self._pending.pop(key, None)
        self._values[key] = value

    def __delitem__(self, key) -> None:
        if self._pending.pop(key, None) is None:
            del self._values[key]

    def __contains__(self, key) -> bool:
        return key in self._values or key in self._pending

    def __iter__(self):
        yield from self._values
        yield from self._pending

    def __len__(self) -> int:
        return len(self._values) + len(self._pending)


@dataclass
class StageContext:
    """Everything a stage may touch during one pipeline run.

    Attributes
    ----------
    graph:
        The input :class:`~repro.graphs.mixed_graph.MixedGraph`.
    config:
        The run's :class:`~repro.core.config.QSCConfig`.
    requested_clusters:
        The caller's cluster count — an ``int`` or ``"auto"`` (resolved to
        a concrete ``num_clusters`` by the threshold stage).
    rngs:
        Named per-stage RNG streams (``"histogram"``, ``"rows"``,
        ``"qmeans"``), spawned once from the config seed exactly as the
        monolithic ``fit`` did.  Streams are independent: a stage served
        from a checkpoint simply never consumes its stream, and every
        downstream stream is unaffected.
    state:
        The shared key → value :class:`StageState` stages read from and
        write to.
    graph_digest:
        :func:`~repro.pipeline.checkpoint.graph_fingerprint` of ``graph``,
        computed once per run by the pipeline; every stage's context
        fingerprint is derived from it instead of re-hashing the graph.
        Empty, like ``fingerprint``, in a run with no content store:
        nothing there is keyed by them.
    fingerprint:
        The executing stage's context fingerprint, set by the driver
        before each stage.
    backend_info:
        Side channel for linalg telemetry: the laplacian stage records
        ``{"linalg_backend": ..., "eigensolver": ...}`` here — the
        representation of the Laplacian it built (``"dense"`` or
        ``"sparse"``, read off the matrix) and the eigensolve the QPE
        engine ran (``eigensolver`` is ``None`` when none ran); the pipeline
        annotates the stage's report with it and resets the dict between
        stages.
    """

    graph: object
    config: object
    requested_clusters: object
    rngs: dict
    state: StageState = field(default_factory=StageState)
    graph_digest: str = ""
    fingerprint: str = ""
    backend_info: dict = field(default_factory=dict)

    def require(self, key: str):
        """Fetch a state value a stage declared in ``requires``."""
        if key not in self.state:
            raise ClusteringError(
                f"pipeline state has no {key!r} — upstream stage missing"
            )
        return self.state[key]


class Stage:
    """Base class of one pipeline step.

    Subclasses set ``name``, ``requires`` and ``provides`` and implement
    :meth:`run`; stages whose outputs can be checkpointed also implement
    :meth:`pack` and :meth:`unpack` (the default raises, marking the stage
    non-resumable).
    """

    #: Stage name — the ``resume_from`` / store-key identifier.
    name: str = ""
    #: State keys the stage reads.
    requires: tuple = ()
    #: State keys the stage writes.
    provides: tuple = ()
    #: ``QSCConfig`` fields this stage's output depends on, cumulative
    #: with its upstream — the checkpoint context fingerprint hashes these
    #: (plus graph content and the requested cluster count), so state
    #: written under an incompatible run lives under another store key
    #: while fields the output provably ignores may differ freely.
    fingerprint_fields: tuple = ()
    #: Whether the output depends on the requested cluster count (only
    #: the laplacian stage's does not — k first matters at threshold).
    fingerprint_clusters: bool = True

    def run(self, ctx: StageContext) -> dict:
        """Execute the stage; returns ``{key: value}`` for ``provides``."""
        raise NotImplementedError

    def pack(self, values: dict) -> dict:
        """Serializable (array/scalar-only) payload of ``values``."""
        raise ClusteringError(f"stage {self.name!r} does not support checkpoints")

    def unpack(self, payload: dict, ctx: StageContext) -> dict:
        """Rebuild the ``provides`` values from a :meth:`pack` payload."""
        raise ClusteringError(f"stage {self.name!r} does not support checkpoints")

    def execute(self, ctx: StageContext) -> dict:
        """Driver entry point: validate the declared contract around run."""
        for key in self.requires:
            ctx.require(key)
        values = self.run(ctx)
        missing = [key for key in self.provides if key not in values]
        extra = [key for key in values if key not in self.provides]
        if missing or extra:
            raise ClusteringError(
                f"stage {self.name!r} broke its contract "
                f"(missing {missing}, undeclared {extra})"
            )
        return values


def scalar(value) -> np.ndarray:
    """Pack helper: a 0-d array for a checkpoint scalar."""
    return np.asarray(value)
