"""Shared content-addressed compute store (memory LRU + on-disk tier).

See :mod:`repro.store.content_store` for the design; the public surface
is re-exported here:

* :class:`ContentStore` — the two-tier store itself;
* :func:`get_store` / :func:`attached_store` / :func:`configure_store` —
  the process-wide instance the spectral engine and checkpoint paths
  share (``QSCConfig.store_dir`` / ``--store-dir`` name its disk tier);
  its :meth:`~ContentStore.counters` are the only cache counters (the
  sweep runner brackets their deltas per task, the pipeline per stage).
"""

from repro.store.content_store import (
    COUNTER_KEYS,
    DEFAULT_DISK_BYTES,
    DEFAULT_MEMORY_BYTES,
    JOB_NAMESPACE,
    JOBTABLE_NAMESPACE,
    ContentStore,
    attached_store,
    configure_store,
    content_key,
    decode_json_payload,
    decode_payload,
    encode_json_payload,
    encode_payload,
    get_store,
)

__all__ = [
    "COUNTER_KEYS",
    "DEFAULT_DISK_BYTES",
    "DEFAULT_MEMORY_BYTES",
    "JOB_NAMESPACE",
    "JOBTABLE_NAMESPACE",
    "ContentStore",
    "attached_store",
    "configure_store",
    "content_key",
    "decode_json_payload",
    "decode_payload",
    "encode_json_payload",
    "encode_payload",
    "get_store",
]
