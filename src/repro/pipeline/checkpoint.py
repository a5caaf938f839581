"""On-disk checkpoint format of the staged pipeline.

One pipeline run with ``save_stages=DIR`` writes one ``<stage>.npz`` file
per stage into ``DIR`` — a plain :func:`numpy.savez_compressed` archive of
the stage's packed payload (see ``Stage.pack``/``Stage.unpack``) plus a
``__checkpoint_version__`` tag.  A later run with ``resume_from=STAGE``
loads the payloads of every stage *upstream* of ``STAGE`` instead of
recomputing them, and re-runs ``STAGE`` and everything downstream.

The format is deliberately dumb: arrays and scalars only, no pickling, so
checkpoints are portable across processes, machines and library versions
(a version bump is detected and rejected rather than misread).

Every archive also records the **context fingerprint** of the run that
wrote it — a digest of the input graph plus exactly the config fields and
the requested cluster count that stage's output depends on (each stage
declares them, cumulatively with its upstream).  Loading verifies the
fingerprint against the resuming run, so stale state — a different graph,
seed, precision, or ``--clusters`` — is a hard error instead of silently
wrong labels.  Fields a stage's output provably does *not* depend on
(e.g. ``shots`` for the threshold stage) stay outside its fingerprint, so
the supported pattern of resuming the readout stage at a different shot
budget keeps working.
"""

from __future__ import annotations

import hashlib
import pathlib

import numpy as np

from repro.exceptions import ClusteringError

#: Version tag stored inside every stage checkpoint archive.
CHECKPOINT_VERSION = 3

#: Content-store namespaces of stage and shard checkpoint entries (see
#: :mod:`repro.store`): the pipeline and the sharded-readout path resolve
#: checkpoints through the store when one is attached, with the per-run
#: ``.npz`` directories kept as a compatibility alias.
STAGE_NAMESPACE = "stage"
SHARD_NAMESPACE = "shard"

_VERSION_KEY = "__checkpoint_version__"
_CONTEXT_KEY = "__context_fingerprint__"


class CorruptCheckpointError(ClusteringError):
    """A checkpoint file exists but cannot be read back (bit flips,
    truncation, a crashed writer).  Distinct from a *missing* checkpoint
    — consumers evict the corrupt file and recompute the stage/shard
    instead of serving or propagating bad bits."""


def store_key(stage_name: str, fingerprint: str) -> str:
    """Content-store key of one stage/shard checkpoint entry.

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


def stage_path(directory, stage_name: str) -> pathlib.Path:
    """The archive path of one stage's checkpoint inside ``directory``."""
    return pathlib.Path(directory) / f"{stage_name}.npz"


def save_stage_payload(
    directory, stage_name: str, payload: dict, fingerprint: str = ""
) -> pathlib.Path:
    """Write one stage's packed payload to ``<directory>/<stage>.npz``.

    ``payload`` maps names to arrays or scalars (anything
    :func:`numpy.asarray` accepts); the directory is created if needed.
    ``fingerprint`` is the writing run's context digest for this stage
    (see :func:`context_fingerprint`), verified again at load time.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = stage_path(directory, stage_name)
    arrays = {key: np.asarray(value) for key, value in payload.items()}
    arrays[_VERSION_KEY] = np.asarray(CHECKPOINT_VERSION)
    arrays[_CONTEXT_KEY] = np.asarray(fingerprint)
    np.savez_compressed(path, **arrays)
    return path


def load_stage_payload(directory, stage_name: str, fingerprint: str = "") -> dict:
    """Read one stage's payload back; raises on missing/incompatible files.

    A non-empty ``fingerprint`` must match the one stored at save time —
    a mismatch means the checkpoint was written for a different graph,
    cluster count, or an upstream-relevant config field, and loading it
    would silently corrupt the resumed run.
    """
    path = stage_path(directory, stage_name)
    if not path.exists():
        raise ClusteringError(
            f"no checkpoint for stage {stage_name!r} in {path.parent} — "
            f"run with save_stages first"
        )
    try:
        with np.load(path) as archive:
            payload = {key: archive[key] for key in archive.files}
    except ClusteringError:
        raise
    except Exception as error:
        # The zip layer CRC-checks every member, so bit flips, truncation
        # and half-written files all surface here (as BadZipFile,
        # zlib.error, OSError, ...).  Anything unreadable is corruption:
        # report it as such so callers evict and recompute rather than
        # abort on, or worse silently trust, a damaged file.
        raise CorruptCheckpointError(
            f"checkpoint {path} is corrupt or truncated ({error}); "
            "delete it (or let the pipeline recompute the stage)"
        ) from error
    version = int(payload.pop(_VERSION_KEY, -1))
    if version != CHECKPOINT_VERSION:
        raise ClusteringError(
            f"checkpoint {path} has version {version}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    stored = str(payload.pop(_CONTEXT_KEY, ""))
    if fingerprint and stored != fingerprint:
        raise ClusteringError(
            f"checkpoint {path} was written for a different run context "
            "(graph, cluster count, or an upstream config field changed); "
            "re-run with save_stages to refresh it"
        )
    return payload


def has_stage_checkpoint(directory, stage_name: str) -> bool:
    """Whether ``directory`` holds a checkpoint for ``stage_name``."""
    return stage_path(directory, stage_name).exists()


def evict_stage_checkpoint(directory, stage_name: str) -> bool:
    """Remove one stage's checkpoint file; ``True`` if something was removed.

    The self-heal half of :class:`CorruptCheckpointError`: a corrupt file
    left in place would fail every subsequent resume, so consumers evict
    it, recompute, and (when saving) write a fresh replacement.
    """
    path = stage_path(directory, stage_name)
    try:
        path.unlink()
        return True
    except OSError:
        return False
