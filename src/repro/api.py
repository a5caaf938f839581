"""The stable public facade: three verbs covering the common workflows.

``repro.api`` is the surface external code should import — everything
here is covered by the compatibility promise of the versioned service
protocol (protocol version 1), whereas deep imports like
``repro.core.qpe_engine`` are internal and may move between releases.

* :func:`cluster` — cluster one mixed graph, quantum or classical.
* :func:`run_experiment` — run a registered paper sweep locally,
  validated exactly like a served job.
* :func:`connect` — a :class:`~repro.service.client.ServiceClient` for
  a running ``repro serve`` instance (``host`` or ``host:port``,
  optional bearer token).

>>> from repro import api
>>> graph, truth = api.mixed_sbm(24, 2, seed=0)
>>> result = api.cluster(graph, 2, method="classical", seed=0)
>>> len(result.labels) == graph.num_nodes
True
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from dataclasses import replace

from repro.core import QSCConfig, QSCResult, QuantumSpectralClustering
from repro.exceptions import ClusteringError, ServiceError
from repro.graphs import MixedGraph, mixed_sbm
from repro.service.client import ServiceClient
from repro.spectral import ClassicalSpectralClustering

__all__ = [
    "MixedGraph",
    "QSCConfig",
    "QSCResult",
    "ServiceClient",
    "cluster",
    "connect",
    "mixed_sbm",
    "run_experiment",
]

#: Port ``repro serve`` binds when none is given (mirrors the CLI default).
DEFAULT_PORT = 8831

_CLASSICAL_FIELDS = (
    "theta",
    "normalization",
    "normalize_rows",
    "backend",
    "seed",
)


def cluster(
    graph: MixedGraph,
    num_clusters,
    *,
    method: str = "quantum",
    config: QSCConfig | None = None,
    **fields,
):
    """Cluster one mixed graph; returns the estimator's result object.

    ``method="quantum"`` runs the paper's QPE pipeline
    (:class:`~repro.core.qsc.QuantumSpectralClustering`); extra keyword
    ``fields`` override :class:`~repro.core.config.QSCConfig` attributes
    (on top of ``config`` when both are given).  ``method="classical"``
    runs the exact Hermitian baseline; ``fields`` then go to
    :class:`~repro.spectral.clustering.ClassicalSpectralClustering`
    (``config`` must be omitted).
    """
    if method == "quantum":
        resolved = config if config is not None else QSCConfig()
        if fields:
            accepted = [field.name for field in dataclass_fields(QSCConfig)]
            unknown = sorted(set(fields) - set(accepted))
            if unknown:
                raise ClusteringError(
                    f"unknown quantum clustering fields: {unknown} "
                    f"(accepted QSCConfig fields: {accepted})"
                )
            resolved = replace(resolved, **fields)
        return QuantumSpectralClustering(num_clusters, resolved).fit(graph)
    if method == "classical":
        if config is not None:
            raise ClusteringError(
                "config is a quantum-pipeline object; pass classical "
                "options as keyword fields instead"
            )
        unknown = sorted(set(fields) - set(_CLASSICAL_FIELDS))
        if unknown:
            raise ClusteringError(
                f"unknown classical clustering fields: {unknown} "
                f"(accepted: {list(_CLASSICAL_FIELDS)})"
            )
        return ClassicalSpectralClustering(num_clusters, **fields).fit(graph)
    raise ClusteringError(
        f"method must be 'quantum' or 'classical', got {method!r}"
    )


def run_experiment(name: str, *, trials=None, jobs: int = 1, **overrides):
    """Run one registered paper sweep locally; returns its SweepResult.

    The request is validated through the same
    :func:`~repro.experiments.runner.normalize_job` path a served job
    goes through, so a job object that the service would accept runs
    identically here (and vice versa): ``run_experiment("fig1",
    trials=1).to_artifact()`` is record-identical to submitting
    ``{"experiment": "fig1", "trials": 1}``.
    """
    from repro.experiments.runner import (
        SweepRunner,
        normalize_job,
        spec_from_job,
    )

    job: dict = {"experiment": name}
    if trials is not None:
        job["trials"] = trials
    if overrides:
        job["overrides"] = overrides
    spec = spec_from_job(normalize_job(job))
    return SweepRunner(spec, jobs=jobs).run()


def connect(
    url: str, *, token: str | None = None, timeout: float = 120.0
) -> ServiceClient:
    """A client for a running ``repro serve`` instance.

    ``url`` names the endpoint as ``host:port`` (``"127.0.0.1:8831"``) or
    a bare ``host`` (``"localhost"``, default port).  The server speaks
    JSON lines over plain TCP, so a ``scheme://`` URL is refused rather
    than read as something it is not.  The optional bearer ``token``
    identifies the tenant on an authenticated server.
    """
    target = url.strip()
    if "//" in target:
        raise ServiceError(
            f"service endpoint {url!r} is a URL; the server speaks JSON "
            "lines on a bare host:port"
        )
    host, _, tail = target.partition(":")
    port = tail or None
    if not host:
        raise ServiceError(f"cannot parse service endpoint from {url!r}")
    try:
        port = DEFAULT_PORT if port is None else int(port)
    except ValueError as error:
        raise ServiceError(f"bad port in service endpoint {url!r}") from error
    return ServiceClient(host, port, timeout=timeout, token=token)
