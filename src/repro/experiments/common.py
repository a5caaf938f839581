"""Shared experiment-harness utilities.

Every experiment module produces a list of :class:`TrialRecord` rows (its
sweep is declared as a :class:`~repro.experiments.runner.SweepSpec` and
executed by :class:`~repro.experiments.runner.SweepRunner`); the helpers
here aggregate those rows over seeds and render them as markdown tables.
A *method* is any object with a ``fit(graph)``
returning something with a ``labels`` attribute.  With a content store
attached, :func:`trial_graph` serves each trial's graph from the store's
``graph`` namespace instead of regenerating it, and :func:`evaluate_methods`
serves each seeded baseline's labels from the ``baseline`` namespace
instead of refitting it.
"""

from __future__ import annotations

import inspect
import numbers
from dataclasses import dataclass, field

import numpy as np

from repro.baselines import (
    AdjacencyKMeans,
    DiSimClustering,
    RandomWalkSpectralClustering,
    SymmetrizedSpectralClustering,
)
from repro.core import QSCConfig, QuantumSpectralClustering
from repro.exceptions import ExperimentError
from repro.graphs import MixedGraph, ensure_connected
from repro.metrics import label_scores
from repro.pipeline import checkpoint
from repro.spectral import ClassicalSpectralClustering
from repro.store import attached_store

#: Spectral engine every paper sweep's quantum fits run.  A constant, not a
#: factory knob: sweeps pin the byte-stable ``"v1"`` eigensolve (recorded in
#: each spec's ``fixed``) so their artifacts stay byte-stable, while plain
#: ``QSCConfig()`` defaults to the faster MRRR block eigensolve ``"v3"``.
SWEEP_SPECTRAL_ENGINE = "v1"

#: Content-store namespace of the comparison panel's baseline labels.
BASELINE_NAMESPACE = "baseline"
#: Version leading every ``baseline`` key.  Bump it whenever a baseline's
#: algorithm changes, so labels the old code published miss instead of
#: being served.
BASELINE_KEY_VERSION = 1

#: Content-store namespace of the sweeps' trial graphs.
GRAPH_NAMESPACE = "graph"
#: Version leading every ``graph`` key.  Bump it whenever a graph builder's
#: output changes (a generator, netlist conversion or ``ensure_connected``),
#: so graphs the old code published miss instead of being served.
GRAPH_KEY_VERSION = 1


@dataclass(frozen=True)
class TrialRecord:
    """One (method, graph-instance) evaluation.

    Attributes
    ----------
    experiment:
        Experiment id (e.g. ``"T1"``).
    method:
        Method tag.
    parameters:
        The sweep coordinates of this trial (n, k, strength, ...).
    seed:
        Trial seed.
    ari / accuracy:
        Clustering quality against ground truth; ``None`` for sweeps with
        no ground-truth labels (e.g. the F3 runtime profile, whose
        measurements live entirely in ``extra``).
    extra:
        Free-form additional measurements.
    """

    experiment: str
    method: str
    parameters: dict
    seed: int
    ari: float | None = None
    accuracy: float | None = None
    extra: dict = field(default_factory=dict)


def standard_methods(num_clusters: int, seed, quantum_config: QSCConfig | None = None,
                     theta: float | None = None) -> dict:
    """The method panel used by the comparison tables.

    Returns a mapping tag -> estimator.  The quantum entry uses the given
    config (analytic backend by default so the panel scales).
    """
    config = quantum_config or QSCConfig(seed=seed)
    if theta is not None:
        config = config.with_updates(theta=theta)
    classical_kwargs = {} if theta is None else {"theta": theta}
    return {
        "quantum": QuantumSpectralClustering(num_clusters, config),
        "classical": ClassicalSpectralClustering(
            num_clusters, seed=seed, **classical_kwargs
        ),
        "symmetrized": SymmetrizedSpectralClustering(num_clusters, seed=seed),
        "random-walk": RandomWalkSpectralClustering(num_clusters, seed=seed),
        "disim": DiSimClustering(num_clusters, seed=seed),
        "adjacency": AdjacencyKMeans(num_clusters, seed=seed),
    }


def estimator_digest(estimator) -> str:
    """Everything but the graph that a baseline's labels depend on: the
    estimator's class and ``name=repr(value);`` for each of its
    attributes, sorted by name."""
    cls = type(estimator)
    fields = "".join(
        f"{name}={value!r};" for name, value in sorted(vars(estimator).items())
    )
    return f"{cls.__module__}.{cls.__qualname__}({fields})"


def baseline_key(tag: str, estimator, graph_digest: str) -> str | None:
    """Store key of a baseline's labels on the graph ``graph_digest`` names.

    ``None`` when the labels are not served: for an estimator whose
    ``seed`` is not a plain ``int`` (``None`` or a ``Generator`` draws
    fresh labels on every fit), and so for the quantum method, which has
    no ``seed`` attribute and reads through its own stage entries.
    """
    if type(getattr(estimator, "seed", None)) is not int:
        return None
    return (
        f"v{BASELINE_KEY_VERSION}:{tag}@{estimator_digest(estimator)}"
        f"@{graph_digest}"
    )


def graph_key(builder, *, connect_seed, **kwargs) -> str:
    """Store key of the graph ``builder(**kwargs)`` builds, stitched by
    ``ensure_connected(seed=connect_seed)``.

    Names the builder's module and qualified name and every argument it
    binds, defaults included, so a default the trial does not pass still
    reaches the key.  A ``functools.wraps`` wrapper keeps all three, so a
    wrapped builder has the same key.
    """
    bound = inspect.signature(builder).bind(**kwargs)
    bound.apply_defaults()
    arguments = "".join(
        f"{name}={value!r};" for name, value in bound.arguments.items()
    )
    return (
        f"v{GRAPH_KEY_VERSION}:{builder.__module__}.{builder.__qualname__}"
        f"({arguments})+ensure_connected(seed={connect_seed!r})"
    )


def trial_graph(store_dir, builder, *, connect_seed, **kwargs):
    """One trial's ``(graph, truth, graph_digest)``, read through the store.

    ``builder(**kwargs)`` returns ``(graph, truth)``; the graph is then
    stitched by ``ensure_connected(seed=connect_seed)`` and hashed with
    :func:`~repro.pipeline.checkpoint.graph_fingerprint`.  With a store
    attached, a graph published under :func:`graph_key` is rebuilt from its
    entry instead, and its stored digest returned: nothing is generated or
    hashed.  A miss builds, hashes and publishes.
    """
    store = attached_store(store_dir)
    if store is not None:
        key = graph_key(builder, connect_seed=connect_seed, **kwargs)
        payload = store.get(GRAPH_NAMESPACE, key)
        if payload is not None:
            return _unpack_graph(payload)
    graph, truth = builder(**kwargs)
    ensure_connected(graph, seed=connect_seed)
    graph_digest = checkpoint.graph_fingerprint(graph)
    if store is not None:
        store.put(GRAPH_NAMESPACE, key, _pack_graph(graph, truth, graph_digest))
    return graph, truth, graph_digest


def _pack_graph(graph, truth, graph_digest) -> dict:
    edges, arcs = graph.connection_tables()
    payload = {
        "num_nodes": graph.num_nodes,
        "edges": edges,
        "arcs": arcs,
        "truth": np.asarray(truth),
        "digest": graph_digest,
    }
    labels = graph.node_labels
    if labels is not None:
        payload["node_labels"] = np.asarray(labels, dtype=str)
    return payload


def _unpack_graph(payload):
    labels = payload.get("node_labels")
    graph = MixedGraph(
        int(payload["num_nodes"]), None if labels is None else labels.tolist()
    )
    graph.add_edges(payload["edges"])
    graph.add_arcs(payload["arcs"])
    return graph, payload["truth"], str(payload["digest"])


def evaluate_methods(
    experiment: str,
    methods: dict,
    graph,
    truth,
    parameters: dict,
    seed: int,
    store_dir=None,
    graph_digest: str | None = None,
) -> list[TrialRecord]:
    """Run every method on one graph instance and score against truth.

    ``store_dir`` attaches the content store as ``QSCPipeline.run`` does.
    With a store attached, each baseline's labels are read through the
    ``baseline`` namespace (see :func:`baseline_key`): served when
    published, otherwise fitted and published.  ``graph_digest`` is the
    graph's :func:`~repro.pipeline.checkpoint.graph_fingerprint` when the
    caller holds it (:func:`trial_graph` returns it); otherwise, with a
    store attached, the graph is hashed here, once.  The quantum fit
    reuses the digest for its stage keys, so a trial whose graph was
    served hashes nothing.  Each record's ARI and matched accuracy come
    from one contingency table (:func:`~repro.metrics.label_scores`).
    """
    store = attached_store(store_dir)
    if graph_digest is None and store is not None:
        graph_digest = checkpoint.graph_fingerprint(graph)
    records = []
    for tag, estimator in methods.items():
        if isinstance(estimator, QuantumSpectralClustering):
            labels = estimator.fit(graph, graph_digest=graph_digest).labels
        else:
            labels = _baseline_labels(tag, estimator, graph, graph_digest, store)
        ari, accuracy = label_scores(truth, labels)
        records.append(
            TrialRecord(
                experiment=experiment,
                method=tag,
                parameters=dict(parameters),
                seed=seed,
                ari=ari,
                accuracy=accuracy,
            )
        )
    return records


def _baseline_labels(tag, estimator, graph, graph_digest, store):
    """A baseline's labels: from ``store`` when published there, else fitted
    (and published when the labels are servable)."""
    key = None if store is None else baseline_key(tag, estimator, graph_digest)
    if key is not None:
        payload = store.get(BASELINE_NAMESPACE, key)
        if payload is not None:
            return payload["labels"]
    labels = estimator.fit(graph).labels
    if key is not None:
        store.put(BASELINE_NAMESPACE, key, {"labels": labels})
    return labels


def aggregate(records: list[TrialRecord], group_keys: tuple[str, ...]):
    """Mean ± std of ARI/accuracy grouped by (method, *group_keys*).

    Returns a list of dictionaries sorted by group then method, ready for
    :func:`render_markdown_table`.
    """
    if not records:
        raise ExperimentError("no records to aggregate")
    groups: dict[tuple, list[TrialRecord]] = {}
    for record in records:
        key = (record.method,) + tuple(record.parameters[k] for k in group_keys)
        groups.setdefault(key, []).append(record)
    rows = []
    for key in sorted(groups, key=lambda k: tuple(_sort_part(part) for part in k)):
        bucket = groups[key]
        aris = np.array([r.ari for r in bucket])
        accs = np.array([r.accuracy for r in bucket])
        row = {"method": key[0]}
        row.update(dict(zip(group_keys, key[1:])))
        row.update(
            {
                "trials": len(bucket),
                "ari_mean": float(aris.mean()),
                "ari_std": float(aris.std()),
                "acc_mean": float(accs.mean()),
                "acc_std": float(accs.std()),
            }
        )
        rows.append(row)
    return rows


def _sort_part(value) -> tuple:
    """Order key of one group-key part: numbers numerically, before text."""
    if isinstance(value, numbers.Real):
        return (0, float(value), "")
    return (1, 0.0, str(value))


def render_markdown_table(rows: list[dict], columns: list[str] | None = None) -> str:
    """Render aggregated rows as a GitHub-markdown table."""
    if not rows:
        raise ExperimentError("no rows to render")
    columns = columns or list(rows[0].keys())
    header = "| " + " | ".join(columns) + " |"
    rule = "|" + "|".join("---" for _ in columns) + "|"
    lines = [header, rule]
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                cells.append(f"{value:.3f}")
            else:
                cells.append(str(value))
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)
