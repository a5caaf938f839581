"""Keys of the staged pipeline's checkpoints in the content store.

Every stage a keyed run computes is published to the content store's
``stage`` namespace (:data:`STAGE_NAMESPACE`, see :mod:`repro.store`) as
the stage's packed payload (see ``Stage.pack``/``Stage.unpack``: arrays
and scalars only, no pickling), under :func:`store_key`.  A later run
serves a stage from its entry instead of computing it.

Each key carries the **context fingerprint** of the stage — a digest of
the input graph plus exactly the config fields and the requested cluster
count that stage's output depends on (each stage declares them,
cumulatively with its upstream).  State written for a different graph,
seed, precision or ``--clusters`` therefore lives under another key and
is never served: to the resuming run it is a miss, and the stage is
recomputed.  Fields a stage's output provably does *not* depend on
(e.g. ``shots`` for the threshold stage) stay outside its fingerprint, so
the supported pattern of resuming the readout stage at a different shot
budget keeps reusing the upstream entries.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: Layout version of stage checkpoints, embedded in every store key.
CHECKPOINT_VERSION = 3

#: Content-store namespace of stage checkpoint entries (see
#: :mod:`repro.store`).
STAGE_NAMESPACE = "stage"


def store_key(stage_name: str, fingerprint: str) -> str:
    """Content-store key of one stage checkpoint entry.

    Embeds :data:`CHECKPOINT_VERSION` so a format bump naturally misses
    every entry written under the old layout instead of misreading it.
    """
    return f"v{CHECKPOINT_VERSION}:{stage_name}@{fingerprint}"


def graph_fingerprint(graph) -> str:
    """Content digest of a mixed graph (size + full connection list).

    Hashes the node count, then one ``"u,v,w,directed;"`` record per
    connection — edges, then arcs, each in sorted ``(u, v)`` order, with
    ``w`` as its Python ``repr`` — built from the graph's sorted arrays.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(graph.num_nodes).encode())
    node_text = np.array([f"{node}," for node in range(graph.num_nodes)], dtype=bytes)
    for table, directed in zip(graph.sorted_connection_tables(), (False, True)):
        if len(table):
            digest.update(_record_bytes(table, node_text, f",{directed};"))
    return digest.hexdigest()


def _record_bytes(table: np.ndarray, node_text: np.ndarray, suffix: str) -> np.ndarray:
    """The ``"u,v,w" + suffix`` records of a ``[u, v, weight]`` table, as
    one byte run.

    Each record is laid out as NUL-padded byte strings looked up per node
    id (``"u,"``) and per distinct weight (``repr(w) + suffix``), not
    formatted per record; no record text holds a NUL, so dropping the
    padding in row-major order leaves exactly the concatenated records.
    """
    weights, inverse = np.unique(table[:, 2], return_inverse=True)
    weight_text = np.array([f"{w!r}{suffix}" for w in weights.tolist()], dtype=bytes)
    count = len(table)
    padded = np.concatenate(
        [
            node_text[table[:, :2].astype(np.intp)].view(np.uint8).reshape(count, -1),
            weight_text[inverse].view(np.uint8).reshape(count, -1),
        ],
        axis=1,
    )
    return padded[padded != 0]


def context_fingerprint(graph, config, requested_clusters, fields) -> str:
    """Digest of everything a stage's checkpointed output depends on.

    ``graph`` is the mixed graph or, equivalently, its
    :func:`graph_fingerprint` digest — the pipeline hashes the graph once
    per run and passes the digest for every stage.  ``fields`` is the
    stage's cumulative tuple of :class:`QSCConfig` attribute names; the
    graph content is always included, and ``requested_clusters`` (``int``
    or ``"auto"``) participates unless the caller passes ``None`` — the
    laplacian stage's output does not depend on k, so changing
    ``--clusters`` legitimately reuses its checkpoint.
    """
    graph_digest = graph if isinstance(graph, str) else graph_fingerprint(graph)
    text = [graph_digest]
    if requested_clusters is not None:
        text.append(repr(requested_clusters))
    text.extend(f"{name}={getattr(config, name)!r};" for name in fields)
    # One update of the joined text hashes the same bytes as one per part.
    return hashlib.blake2b("".join(text).encode(), digest_size=16).hexdigest()
