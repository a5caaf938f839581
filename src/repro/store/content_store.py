"""The shared content-addressed compute store.

:class:`ContentStore` is the persistence tier underneath every cached
computation in the repo: spectral eigendecompositions and QPE kernels
(:mod:`repro.core.qpe_engine` reads them through
:meth:`ContentStore.get_or_create`), and whole stage checkpoints
(:mod:`repro.pipeline.pipeline` publishes and serves every stage through
it).  Entries are **content-addressed**: the key of an
entry is derived from fingerprints of everything its payload depends on
(Laplacian bytes, run-context digests), so a warm store can serve repeat
traffic across a fleet of worker processes and never serve stale bits.

Two tiers:

* an **in-memory LRU tier** (per process) bounded by ``max_memory_bytes``
  — the moral successor of the PR 3 spectral cache, still serving
  read-only shared arrays on process-local repeat lookups;
* an optional **on-disk tier** (shared between processes) bounded by
  ``max_disk_bytes``, attached with :meth:`ContentStore.attach` or the
  module-level :func:`configure_store` (what ``QSCConfig.store_dir`` /
  ``--store-dir`` call).

Failure behavior is the contract (tested in ``tests/store/``):

* **atomic writes** — payloads land in a temp file in the final entry's
  directory and are published with :func:`os.replace`; a writer crashing
  mid-put leaves a stale temp file (reaped by :meth:`gc`), never a
  half-written entry;
* **publish once** — a put of an entry already on disk only bumps its
  ``mtime`` (the key names everything the payload depends on, so a
  rewrite could only rewrite the same bytes); the job table is the one
  namespace whose puts overwrite, and a corrupt entry is healed by the
  next read, which evicts it so the recompute republishes it;
* **integrity-checked reads** — every entry carries a SHA-256 digest of
  its raw-array body plus its own (namespace, key) identity; a corrupt,
  truncated or misplaced entry is detected on read, evicted, counted in
  ``corrupt_evictions`` and recomputed — wrong bits are never served;
* **locked eviction** — byte-budget enforcement and :meth:`gc` take an
  exclusive ``flock`` on ``<root>/.lock`` so concurrent workers never
  race each other's eviction sweeps (readers need no lock: whole-file
  reads of an atomically-replaced file are torn-proof, and an entry
  unlinked mid-read simply reads as a miss).

The store is deliberately *transparent*: hit or miss, memory or disk, the
arrays handed back are bit-identical to recomputation — golden-pinned in
``tests/store/test_store_golden.py``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import numbers
import os
import pathlib
import re
import struct
import tempfile
import time
from collections import OrderedDict
from contextlib import contextmanager

import numpy as np

from repro.core.config import is_count
from repro.exceptions import StoreError

try:  # POSIX file locking; the store degrades to lockless on other OSes.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

#: Magic prefix of every on-disk entry (8 bytes, versioned).
MAGIC = b"RCAS0002"
#: Default byte budget of the in-memory LRU tier (~256 MiB).
DEFAULT_MEMORY_BYTES = 256 << 20
#: Default byte budget of the on-disk tier (~2 GiB).
DEFAULT_DISK_BYTES = 2 << 30
#: Monotonic counters every namespace tracks (deltas are meaningful: the
#: sweep runner brackets them per task, the pipeline per stage).
COUNTER_KEYS = (
    "memory_hits",
    "disk_hits",
    "misses",
    "memory_evictions",
    "disk_evictions",
    "corrupt_evictions",
)

#: Namespace of served job artifacts — validated ``repro.sweep/1``
#: dictionaries the service layer stores under the job's content
#: fingerprint (see :func:`repro.experiments.runner.job_fingerprint`),
#: wrapped via :func:`encode_json_payload` so repeat submissions of the
#: same job resolve without recomputing anything.
JOB_NAMESPACE = "job"

#: Namespace of the durable service job table — one JSON row per
#: submitted job plus one index entry (see
#: :mod:`repro.service.jobtable`), written through the same atomic
#: temp-file + checksum path as every other entry so a job row is either
#: fully the old version or fully the new one after any crash.
JOBTABLE_NAMESPACE = "jobtable"


def _overwrites(namespace: str) -> bool:
    """Whether puts replace existing entries: only the job table's, whose
    ``row:<id>``/``index`` keys name slots rewritten on every transition."""
    return namespace == JOBTABLE_NAMESPACE


#: File suffix of on-disk entries.
_ENTRY_SUFFIX = ".cas"
#: Prefix of in-flight temp files (same directory as their entry).
_TMP_PREFIX = ".tmp-"
#: Payload field carrying the entry's own (namespace, key) identity.
_ENTRY_KEY = "__store_entry__"

_DIGEST_BYTES = 16
_HEADER_BYTES = len(MAGIC) + 2 * _DIGEST_BYTES
#: Length prefix of an entry body's JSON array header.
_HEAD_LENGTH = struct.Struct("<Q")
#: No entry is shorter: magic, digest and the header length.
_MIN_ENTRY_BYTES = _HEADER_BYTES + _HEAD_LENGTH.size
_NAMESPACE_RE = re.compile(r"^[a-z0-9_-]+$")
#: Shape of a plain numpy ``dtype.str`` (byte order, kind, item size, unit).
_DTYPE_RE = re.compile(r"^[<>|][biufcmMSUV]\d+(\[\w+\])?$")


def content_key(namespace: str, key: str) -> str:
    """Stable 32-hex address of one ``(namespace, key)`` pair.

    Keys are arbitrary strings (fingerprints, composite ``name@digest``
    forms); hashing them keeps every on-disk filename fixed-width and
    path-safe regardless of what callers embed in the key.
    """
    text = f"{namespace}\x00{key}".encode()
    return hashlib.blake2b(text, digest_size=_DIGEST_BYTES).hexdigest()


def _entry_identity(namespace: str, key: str) -> str:
    return f"{namespace}\x00{key}"


def _plain_dtype(text):
    """The dtype ``text`` names if it is a plain, sized ``dtype.str`` (no
    objects or fields), else ``None``: all encoder and decoder accept."""
    return _parse_dtype(text) if type(text) is str else None


@functools.lru_cache(maxsize=256)
def _parse_dtype(text: str):
    if _DTYPE_RE.match(text):
        dtype = np.dtype(text)
        if dtype.str == text and dtype.itemsize:
            return dtype
    return None


def encode_payload(namespace: str, key: str, payload: dict) -> bytes:
    """Serialize a payload into the checksummed on-disk entry format.

    Layout: ``MAGIC`` + 32 hex chars of the body's SHA-256 + the body: an
    8-byte little-endian header length, a JSON list of
    ``[name, dtype.str, shape, offset, nbytes]`` (offsets count from the
    header's end), then each array's raw C-order bytes — the payload plus
    the entry's own identity.  Object, structured and zero-size dtypes
    raise :class:`StoreError`: there is no pickle path.
    """
    arrays = {name: np.asarray(value) for name, value in payload.items()}
    arrays[_ENTRY_KEY] = np.asarray(_entry_identity(namespace, key))
    header, chunks, offset = [], [], 0
    for name, array in arrays.items():
        dtype = _plain_dtype(array.dtype.str)
        if dtype is None or dtype != array.dtype:
            raise StoreError(
                f"store payload {name!r} has unstorable dtype {array.dtype}"
            )
        data = np.ascontiguousarray(array).reshape(-1).view(np.uint8)
        header.append([name, dtype.str, list(array.shape), offset, data.size])
        chunks.append(data)
        offset += data.size
    head = json.dumps(header).encode("utf-8")
    body = [_HEAD_LENGTH.pack(len(head)), head, *chunks]
    digest = hashlib.sha256()
    for part in body:
        digest.update(part)
    return b"".join([MAGIC, digest.hexdigest()[:32].encode("ascii"), *body])


def _read_arrays(body: memoryview) -> dict:
    """Every array of a digest-checked entry body, as independent copies.

    Raises :class:`StoreError` on any header inconsistency: a length,
    offset or size past the body, ``nbytes`` other than shape × itemsize,
    or a dtype the encoder would not write (unknown, object, structured).
    """
    start = _HEAD_LENGTH.size + _HEAD_LENGTH.unpack_from(body)[0]
    if start > len(body):
        raise StoreError("store entry header runs past the body")
    try:
        header = json.loads(bytes(body[_HEAD_LENGTH.size : start]))
        if type(header) is not list:
            raise StoreError("store entry header is not a list of arrays")
        arrays = {}
        for name, dtype_str, shape, offset, nbytes in header:
            dtype = _plain_dtype(dtype_str)
            if dtype is None:
                raise StoreError(f"store entry array has dtype {dtype_str!r}")
            shape = tuple(shape)
            if type(name) is not str or any(
                type(n) is not int or n < 0 for n in (*shape, offset, nbytes)
            ):
                raise StoreError(f"store entry array {name!r} has a bad span")
            if math.prod(shape) * dtype.itemsize != nbytes:
                raise StoreError(f"store entry array {name!r} mismatches its shape")
            # frombuffer refuses a span that runs past the body
            data = np.frombuffer(body, dtype, nbytes // dtype.itemsize, start + offset)
            arrays[name] = data.reshape(shape).copy()
    except (TypeError, ValueError, OverflowError, RecursionError) as error:
        # malformed JSON or rows, or a span numpy refuses: corruption
        raise StoreError(f"store entry header is unreadable: {error}") from error
    return arrays


def decode_payload(blob: bytes, namespace: str | None = None, key: str | None = None) -> dict:
    """Parse and integrity-check one on-disk entry; raises :class:`StoreError`.

    Verifies, in order: the magic header, the body digest (before anything
    is parsed), the array header, and — when ``namespace``/``key`` are
    given — that the entry belongs to the requested address (a guard
    against renamed or cross-linked entry files).  Arrays come back as
    writable copies sharing no memory.  Any failure raises
    :class:`~repro.exceptions.StoreError`; callers evict and recompute.
    """
    if len(blob) < _MIN_ENTRY_BYTES or blob[: len(MAGIC)] != MAGIC:
        raise StoreError("store entry is truncated or has a bad header")
    body = memoryview(blob)[_HEADER_BYTES:]
    actual = hashlib.sha256(body).hexdigest()[:32]
    if actual.encode("ascii") != blob[len(MAGIC) : _HEADER_BYTES]:
        raise StoreError("store entry failed its integrity checksum")
    payload = _read_arrays(body)
    identity = payload.pop(_ENTRY_KEY, None)
    # str of the 0-d array's element: the array's own str formats it first
    identity = "" if identity is None else str(identity[()])
    if namespace is not None and identity != _entry_identity(namespace, key):
        raise StoreError("store entry belongs to a different namespace/key")
    return payload


def encode_json_payload(value) -> dict:
    """Wrap a JSON-serializable value as a store payload.

    The store's native payloads are dicts of numpy arrays; JSON documents
    (job artifacts) ride along as one uint8 byte array of their canonical
    serialization, gaining the same checksum/atomic-write/eviction
    machinery as every other entry.
    """
    data = json.dumps(value, sort_keys=True).encode("utf-8")
    return {"json": np.frombuffer(data, dtype=np.uint8).copy()}


def decode_json_payload(payload: dict):
    """Invert :func:`encode_json_payload`; raises :class:`StoreError`."""
    array = payload.get("json")
    if array is None:
        raise StoreError("store payload carries no JSON document")
    try:
        return json.loads(bytes(np.asarray(array, dtype=np.uint8)).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise StoreError(f"store JSON payload is unreadable: {error}") from error


def _byte_count(name: str, value) -> int:
    """``value`` as an ``int`` if it is a byte count (integral, >= 0, not a
    bool), else a :class:`StoreError` — a fraction or a bool is never
    rounded."""
    if not is_count(value, 0):
        raise StoreError(f"max_bytes must be >= 0 and integral, got {name}={value!r}")
    return int(value)


def _listing(directory) -> list:
    """The ``os.scandir`` entries of ``directory``, sorted by name."""
    with os.scandir(directory) as entries:
        return sorted(entries, key=lambda entry: entry.name)


class ContentStore:
    """Two-tier (memory LRU + shared disk) content-addressed store.

    Parameters
    ----------
    root:
        Directory of the shared on-disk tier; ``None`` (default) runs
        memory-only.  Created on attach if needed.
    max_memory_bytes:
        Byte budget of the in-memory LRU tier; least-recently-used
        entries are evicted first, and an entry larger than the whole
        budget is simply not kept resident.
    max_disk_bytes:
        Byte budget of the on-disk tier, enforced under an exclusive
        file lock after writes (oldest-``mtime`` entries evicted first;
        reads bump ``mtime``, so this approximates cross-process LRU).
        Writes keep a running byte total, seeded by one disk scan per
        attach, so another process's writes are counted from the next
        attach on.
    """

    def __init__(
        self,
        root=None,
        max_memory_bytes: int = DEFAULT_MEMORY_BYTES,
        max_disk_bytes: int = DEFAULT_DISK_BYTES,
    ):
        self.max_memory_bytes = _byte_count("max_memory_bytes", max_memory_bytes)
        self.max_disk_bytes = _byte_count("max_disk_bytes", max_disk_bytes)
        self._root: pathlib.Path | None = None
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        self._bytes = 0
        #: Running byte total of the disk tier: seeded by one scan at the
        #: first fresh put after each attach, ``None`` until then.
        self._disk_bytes: int | None = None
        self._counters: dict[str, dict] = {}
        if root is not None:
            self.attach(root)

    # -- configuration -----------------------------------------------------

    @property
    def root(self) -> pathlib.Path | None:
        """Directory of the on-disk tier, or ``None`` when memory-only."""
        return self._root

    def attach(self, root, max_disk_bytes: int | None = None) -> None:
        """Attach (and create if needed) the shared on-disk tier."""
        path = pathlib.Path(root)
        path.mkdir(parents=True, exist_ok=True)
        self._root = path
        self._disk_bytes = None  # counts other processes' writes once more
        if max_disk_bytes is not None:
            self.configure(max_disk_bytes=max_disk_bytes)

    def detach(self) -> None:
        """Drop the on-disk tier (files stay on disk; memory tier stays)."""
        self._root = None
        self._disk_bytes = None

    def configure(
        self,
        max_memory_bytes: int | None = None,
        max_disk_bytes: int | None = None,
    ) -> None:
        """Adjust the byte budgets (each an integral count >= 0)."""
        if max_memory_bytes is not None:
            self.max_memory_bytes = _byte_count("max_memory_bytes", max_memory_bytes)
            self._shrink_memory()
        if max_disk_bytes is not None:
            self.max_disk_bytes = _byte_count("max_disk_bytes", max_disk_bytes)

    # -- counters ----------------------------------------------------------

    def _count(self, namespace: str, counter: str, amount: int = 1) -> None:
        bucket = self._counters.setdefault(
            namespace, {key: 0 for key in COUNTER_KEYS}
        )
        bucket[counter] += amount

    def counters(self, namespace: str | None = None) -> dict:
        """Monotonic counter totals across every namespace, or of one.

        Deltas of this dict are meaningful across any code region — the
        sweep runner brackets them per task (inside the executing worker
        process) and the pipeline per stage.
        """
        if namespace is None:
            buckets = self._counters.values()
        else:
            buckets = [self._counters.get(namespace, {})]
        totals = {key: 0 for key in COUNTER_KEYS}
        for bucket in buckets:
            for key in COUNTER_KEYS:
                totals[key] += bucket.get(key, 0)
        return totals

    def stats(self) -> dict:
        """Budgets and memory-tier occupancy (the counters are
        :meth:`counters`)."""
        return {
            "root": None if self._root is None else str(self._root),
            "max_memory_bytes": self.max_memory_bytes,
            "max_disk_bytes": self.max_disk_bytes,
            "memory": {"entries": len(self._entries), "bytes": self._bytes},
        }

    def clear_memory(self, reset_stats: bool = True) -> None:
        """Drop the memory tier (and by default zero every counter).

        Disk entries survive — this is exactly what a fresh worker
        process looks like, which is how the warm-store tests simulate
        cross-process traffic without forking.
        """
        self._entries.clear()
        self._bytes = 0
        if reset_stats:
            self._counters = {}

    # -- memory tier -------------------------------------------------------

    def _shrink_memory(self) -> None:
        while self._bytes > self.max_memory_bytes and self._entries:
            (namespace, _), (_, nbytes) = self._entries.popitem(last=False)
            self._bytes -= nbytes
            self._count(namespace, "memory_evictions")

    def _memory_insert(self, namespace: str, key: str, payload: dict) -> None:
        nbytes = sum(array.nbytes for array in payload.values())
        if nbytes > self.max_memory_bytes:
            return
        previous = self._entries.pop((namespace, key), None)
        if previous is not None:
            self._bytes -= previous[1]
        self._entries[(namespace, key)] = (payload, nbytes)
        self._bytes += nbytes
        self._shrink_memory()

    # -- disk tier ---------------------------------------------------------

    def _entry_path(self, namespace: str, key: str) -> pathlib.Path:
        return pathlib.Path(self._entry_file(namespace, key))

    def _entry_file(self, namespace: str, key: str) -> str:
        """:meth:`_entry_path` as a plain string, for the read path (a
        ``pathlib`` join costs more than reading a small entry)."""
        if not _NAMESPACE_RE.match(namespace):
            raise StoreError(
                f"namespace must match {_NAMESPACE_RE.pattern}, got {namespace!r}"
            )
        name = content_key(namespace, key)
        return f"{self._root}/{namespace}/{name[:2]}/{name}{_ENTRY_SUFFIX}"

    @contextmanager
    def _locked(self):
        """Exclusive cross-process lock for eviction/gc sweeps."""
        if self._root is None or fcntl is None:
            yield
            return
        lock_path = self._root / ".lock"
        with open(lock_path, "w", encoding="utf-8") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    def _bucket_files(self):
        """Every file in a ``<root>/<namespace>/<hh>/`` bucket, in path order."""
        for namespace_dir in _listing(self._root):
            if namespace_dir.is_dir():
                for bucket in _listing(namespace_dir.path):
                    if bucket.is_dir():
                        yield from _listing(bucket.path)

    def _scan_disk(self) -> list:
        """Every on-disk entry as ``(path, size, mtime)`` (stale files skipped)."""
        entries = []
        if self._root is None:
            return entries
        for file in self._bucket_files():
            if os.path.splitext(file.name)[1] != _ENTRY_SUFFIX:
                continue
            try:
                status = file.stat()
            except OSError:
                continue
            entries.append((pathlib.Path(file.path), status.st_size, status.st_mtime))
        return entries

    def _evict_corrupt(self, path, namespace: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass
        self._count(namespace, "corrupt_evictions")

    def _disk_get(self, namespace: str, key: str) -> dict | None:
        if self._root is None:
            return None
        path = self._entry_file(namespace, key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            return None
        try:
            payload = decode_payload(blob, namespace, key)
        except StoreError:
            # Corrupt/truncated/misaddressed: evict so the recomputed
            # value can be re-published, and never serve the bad bits.
            self._evict_corrupt(path, namespace)
            return None
        try:
            os.utime(path)  # bump mtime: approximate cross-process LRU
        except OSError:
            pass
        return payload

    def _disk_put(self, namespace: str, key: str, payload: dict) -> None:
        if self._root is None:
            return
        path = self._entry_path(namespace, key)
        if not _overwrites(namespace):
            try:
                os.utime(path)  # already published: refresh recency only
                return
            except OSError:
                pass  # not on disk yet
        blob = encode_payload(namespace, key, payload)
        if len(blob) > self.max_disk_bytes:
            return
        replaced = 0
        if _overwrites(namespace):
            try:
                replaced = path.stat().st_size
            except OSError:
                pass  # a fresh slot
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, tmp_name = tempfile.mkstemp(prefix=_TMP_PREFIX, dir=path.parent)
        try:
            with os.fdopen(handle, "wb") as tmp:
                tmp.write(blob)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        # One scan per attach seeds the running total; after that only an
        # over-budget total pays for the (re-seeding) evicting scan.
        if self._disk_bytes is None:
            self._enforce_disk_budget()
        else:
            self._disk_bytes += len(blob) - replaced
            if self._disk_bytes > self.max_disk_bytes:
                self._enforce_disk_budget()

    def _enforce_disk_budget(self, max_bytes: int | None = None) -> int:
        """Evict oldest entries until the disk tier fits its budget.

        Re-seeds the running byte total of the disk tier from the scan.
        """
        if self._root is None:
            return 0
        budget = self.max_disk_bytes if max_bytes is None else max_bytes
        total = sum(size for _, size, _ in self._scan_disk())
        self._disk_bytes = total
        if total <= budget:
            return 0
        evicted = 0
        with self._locked():
            entries = self._scan_disk()  # rescan under the lock
            total = sum(size for _, size, _ in entries)
            entries.sort(key=lambda entry: entry[2])
            for path, size, _ in entries:
                if total <= budget:
                    break
                try:
                    path.unlink()
                    self._count(path.parent.parent.name, "disk_evictions")
                    evicted += 1
                except OSError:
                    pass
                total -= size
            self._disk_bytes = total
        return evicted

    # -- the public entry API ----------------------------------------------

    def get(self, namespace: str, key: str) -> dict | None:
        """Read ``(namespace, key)`` from the disk tier; ``None`` on a
        (counted) miss.  The memory tier is :meth:`get_or_create`'s."""
        payload = self._disk_get(namespace, key)
        self._count(namespace, "misses" if payload is None else "disk_hits")
        return payload

    def contains(self, namespace: str, key: str) -> bool:
        """Whether ``(namespace, key)`` is held, without reading or counting it.

        Checks the memory tier, then that the entry file exists; its bits
        are only integrity-checked when :meth:`get` reads them.
        """
        if (namespace, key) in self._entries:
            return True
        return self._root is not None and os.path.isfile(
            self._entry_file(namespace, key)
        )

    def put(self, namespace: str, key: str, payload: dict) -> None:
        """Publish a payload to the disk tier (an atomic write)."""
        payload = {name: np.asarray(value) for name, value in payload.items()}
        self._disk_put(namespace, key, payload)

    def get_or_create(self, namespace: str, key: str, builder) -> dict:
        """Serve ``(namespace, key)`` from memory, then disk, else build it.

        A payload read from disk or built is frozen read-only and kept in
        the memory LRU tier; a built one is also published to the disk
        tier.  Hit or miss, the arrays returned are bit-identical.
        """
        cached = self._entries.get((namespace, key))
        if cached is not None:
            self._entries.move_to_end((namespace, key))
            self._count(namespace, "memory_hits")
            return cached[0]
        payload = self.get(namespace, key)
        built = payload is None
        if built:
            payload = {name: np.asarray(value) for name, value in builder().items()}
        for array in payload.values():
            array.setflags(write=False)
        self._memory_insert(namespace, key, payload)
        if built:
            self._disk_put(namespace, key, payload)
        return payload

    # -- operations (the `repro store` subcommand) -------------------------

    def disk_report(self) -> dict:
        """Entry counts and byte totals of the on-disk tier, per namespace."""
        report = {"entries": 0, "bytes": 0, "namespaces": {}}
        for path, size, _ in self._scan_disk():
            namespace = path.parent.parent.name
            bucket = report["namespaces"].setdefault(
                namespace, {"entries": 0, "bytes": 0}
            )
            bucket["entries"] += 1
            bucket["bytes"] += size
            report["entries"] += 1
            report["bytes"] += size
        return report

    def verify(self) -> dict:
        """Integrity-check every on-disk entry without modifying anything."""
        report = {"checked": 0, "ok": 0, "corrupt": []}
        for path, _, _ in self._scan_disk():
            report["checked"] += 1
            try:
                decode_payload(path.read_bytes())
            except (StoreError, OSError):
                report["corrupt"].append(str(path))
            else:
                report["ok"] += 1
        return report

    def gc(self, max_bytes: int | None = None, tmp_grace_seconds: float = 60.0) -> dict:
        """Heal and shrink the disk tier.

        Removes corrupt entries, reaps stale temp files left by crashed
        writers (older than ``tmp_grace_seconds``, so a live writer's
        in-flight file survives), then enforces the byte budget
        (``max_bytes`` overrides the configured ``max_disk_bytes``).
        A ``max_bytes`` that is not a byte count, or a grace that is not a
        finite number >= 0, raises :class:`StoreError` before anything is
        removed.
        """
        if max_bytes is not None:
            _byte_count("max_bytes", max_bytes)
        if not (
            isinstance(tmp_grace_seconds, numbers.Real)
            and not isinstance(tmp_grace_seconds, bool)
            and math.isfinite(tmp_grace_seconds)
            and tmp_grace_seconds >= 0
        ):
            raise StoreError(
                "tmp_grace_seconds must be a finite number >= 0, "
                f"got {tmp_grace_seconds!r}"
            )
        report = {"corrupt_removed": 0, "temp_removed": 0, "evicted": 0}
        if self._root is None:
            return report
        with self._locked():
            cutoff = time.time() - tmp_grace_seconds
            for file in self._bucket_files():
                if file.name.startswith(_TMP_PREFIX):
                    try:
                        if file.stat().st_mtime <= cutoff:
                            os.unlink(file.path)
                            report["temp_removed"] += 1
                    except OSError:
                        pass
            for path, _, _ in self._scan_disk():
                try:
                    decode_payload(path.read_bytes())
                except (StoreError, OSError):
                    self._evict_corrupt(path, path.parent.parent.name)
                    report["corrupt_removed"] += 1
        report["evicted"] = self._enforce_disk_budget(max_bytes)
        usage = self.disk_report()
        report["entries"] = usage["entries"]
        report["bytes"] = usage["bytes"]
        return report


# -- the process-wide store ------------------------------------------------

_UNSET = object()

#: The process-wide store every consumer shares: the spectral engine
#: reads through it, and the pipeline's checkpoint path resolves
#: through it once a disk root is attached (``QSCConfig.store_dir``).
GLOBAL_STORE = ContentStore()


def get_store() -> ContentStore:
    """The process-wide :data:`GLOBAL_STORE`."""
    return GLOBAL_STORE


def attached_store(store_dir=None) -> ContentStore | None:
    """The store a run carrying ``store_dir`` reads through, or ``None``.

    The config is the only way to name a store: ``store_dir`` attaches
    the global store's disk tier there (so the store propagates into
    sweep worker processes under any multiprocessing start method) and
    returns the store; ``None`` detaches the disk tier and returns
    ``None``, so a run without a ``store_dir`` reads and writes no disk
    entry, whatever an earlier run attached.  The memory tier stays
    either way.  A store already rooted at ``store_dir`` is not
    re-attached: a re-attach would re-scan the disk tier on the next put.
    """
    if store_dir is None:
        GLOBAL_STORE.detach()
        return None
    if GLOBAL_STORE.root != pathlib.Path(store_dir):
        GLOBAL_STORE.attach(store_dir)
    return GLOBAL_STORE


def configure_store(
    root=_UNSET,
    max_memory_bytes: int | None = None,
    max_disk_bytes: int | None = None,
) -> ContentStore:
    """Configure the process-wide store; returns it.

    ``root`` attaches the shared on-disk tier (``None`` detaches it);
    omit it to leave the current attachment alone.  A run still reads
    through the disk tier only when its config names it: see
    :func:`attached_store`.
    """
    store = GLOBAL_STORE
    if root is not _UNSET:
        if root is None:
            store.detach()
        else:
            store.attach(root)
    store.configure(max_memory_bytes=max_memory_bytes, max_disk_bytes=max_disk_bytes)
    return store

