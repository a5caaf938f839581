"""Spans around the calls into each layer, for the benchmark's traced run.

Timed runs never install any of this.  A traced run wraps each op in a root
span and, inside :func:`instrumented`, rebinds the entry points listed in
:data:`SPAN_TARGETS` to wrappers that record one span per call (and those
of :data:`COUNT_TARGETS` to wrappers that only count); leaving the block
restores every original binding.  Spans stay in memory until the run ends.

A span's self time is its duration minus the time its direct children
cover.  Per op, the self times of all spans on the client thread add up to
the op's traced time; the root span's self time is ``unattributed_s``.
Spans opened on other threads (the in-process job server's event loop and
its helper threads) overlap the client's spans in wall time, so they count
towards their layer's metric but stay out of that sum.

The store's disk tier and the sweep runner's per-task call are timed at
internal boundaries (``ContentStore._disk_get`` / ``_disk_put`` and
``runner._execute_task``): the public ``get_or_create`` runs the build it
guards between its reads and writes, and the runner has no public
per-task function.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: Name of the root span every op opens.
ROOT = "op"

#: Estimated real floating-point operations of one complex Hermitian
#: ``eigh`` with eigenvectors, per cubed dimension: about 9·D³ for the real
#: symmetric case, times four for complex arithmetic.  A computed count.
EIGH_FLOPS_PER_DIM3 = 36.0

#: Span name → the per-layer metric its self time feeds.
SPAN_METRICS = {
    ROOT: "unattributed_s",
    "graphs.generate": "graphs.generate_s",
    "graphs.laplacian": "graphs.laplacian_s",
    "pipeline": "pipeline.self_s",
    "pipeline.fingerprint": "pipeline.fingerprint_s",
    "qpe_engine.build": "qpe_engine.build_s",
    "qpe_engine.histogram": "qpe_engine.histogram_s",
    "threshold": "threshold.s",
    "readout": "readout.s",
    "embedding": "embedding.s",
    "qmeans": "qmeans.s",
    "store.get": "store.get_s",
    "store.put": "store.put_s",
    "runner": "runner.self_s",
    "runner.task": "runner.task_s",
    "baselines": "baselines.s",
    "metrics": "metrics.s",
    "service.submit": "service.submit_s",
    "service.queue": "service.queue_s",
    "service.run": "service.run_s",
    "service.artifact": "service.artifact_s",
}

#: Every per-layer metric of a traced run: name, unit, better direction.
#: Values are means per traced op (see README.md for the exceptions).
PER_LAYER = (
    ("graphs.laplacian_s", "s", "lower"),
    ("graphs.generate_s", "s", "lower"),
    ("pipeline.fingerprint_s", "s", "lower"),
    ("pipeline.fingerprint_calls", "count", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("qpe_engine.build_s", "s", "lower"),
    ("qpe_engine.histogram_s", "s", "lower"),
    ("qpe_engine.padded_dim", "dim", "lower"),
    ("qpe_engine.pad_ratio", "ratio", "lower"),
    ("qpe_engine.eigh_gflop", "GFLOP", "lower"),
    ("readout.s", "s", "lower"),
    ("readout.rows", "count", "lower"),
    ("threshold.s", "s", "lower"),
    ("embedding.s", "s", "lower"),
    ("qmeans.s", "s", "lower"),
    ("qmeans.assign_calls", "count", "lower"),
    ("qmeans.temp_mb", "MiB", "lower"),
    ("store.get_s", "s", "lower"),
    ("store.put_s", "s", "lower"),
    ("store.disk_hits", "count", "higher"),
    ("store.misses", "count", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("store.bytes_read", "bytes", "lower"),
    ("store.bytes_written", "bytes", "lower"),
    ("store.entries", "count", "lower"),
    ("store.scanned_entries_per_put", "count", "lower"),
    ("store.scanned_mb_per_put", "MiB", "lower"),
    ("runner.task_s", "s", "lower"),
    ("runner.tasks", "count", "lower"),
    ("runner.self_s", "s", "lower"),
    ("baselines.s", "s", "lower"),
    ("metrics.s", "s", "lower"),
    ("service.submit_s", "s", "lower"),
    ("service.queue_s", "s", "lower"),
    ("service.run_s", "s", "lower"),
    ("service.artifact_s", "s", "lower"),
    ("unattributed_s", "s", "lower"),
    ("trace_overhead_s", "s", "lower"),
    ("import.repro_s", "s", "lower"),
)


@dataclass
class Span:
    """One timed call; ``parent`` indexes :attr:`Tracer.spans` (-1: none)."""

    name: str
    start: float
    end: float
    parent: int
    op: int
    main: bool


class Tracer:
    """In-memory recorder of spans and per-op counters.

    Spans begun on the thread that created the tracer nest through a
    stack, so a span's parent is the innermost span open when it began.
    Nothing is recorded outside an op.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = {}
        self.roots: dict[int, int] = {}
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._main = threading.get_ident()
        self._lock = threading.Lock()

    def begin(self, name: str) -> int | None:
        """Open a span; returns its index, or ``None`` outside an op."""
        op = self.op_id
        if op is None:
            return None
        main = threading.get_ident() == self._main
        parent = self._stack[-1] if main and self._stack else -1
        span = Span(name, self.clock(), math.nan, parent, op, main)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        if main:
            self._stack.append(index)
        return index

    def end(self, index: int | None) -> None:
        """Close the span :meth:`begin` returned."""
        if index is None:
            return
        span = self.spans[index]
        span.end = self.clock()
        if span.main:
            if self._stack[-1] != index:
                raise RuntimeError(f"span {span.name!r} closed out of order")
            self._stack.pop()

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span the caller timed itself, as a child of the
        innermost open span (a service phase timed by event arrival)."""
        if self.op_id is None:
            return
        parent = self._stack[-1] if self._stack else -1
        with self._lock:
            self.spans.append(Span(name, start, end, parent, self.op_id, True))

    def count(self, key: str, amount: float = 1.0, *, peak: bool = False) -> None:
        """Add ``amount`` to the current op's counter (or keep the peak)."""
        op = self.op_id
        if op is None:
            return
        with self._lock:
            bucket = self.counts.setdefault(op, {})
            if peak:
                bucket[key] = max(bucket.get(key, 0.0), amount)
            else:
                bucket[key] = bucket.get(key, 0.0) + amount

    @contextmanager
    def op(self, index: int):
        """The root span of op ``index``: everything begun inside belongs to it."""
        self.op_id = index
        self.roots[index] = self.begin(ROOT)
        try:
            yield
        finally:
            self.end(self.roots[index])
            self.op_id = None

    def op_seconds(self, index: int) -> float:
        """Traced wall time of op ``index``."""
        root = self.spans[self.roots[index]]
        return root.end - root.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    return [span.end - span.start - inside for span, inside in zip(spans, covered)]


def op_breakdown(spans: list[Span], tolerance: float = 1e-9) -> dict[int, dict]:
    """Per op: traced seconds, client-thread layer self-times, other threads.

    ``layers`` maps each per-layer metric to the self time its spans spent
    on the client thread, ``unattributed_s`` (the root's self time)
    included, and adds up to ``total_s``; ``concurrent`` holds the
    durations of spans from other threads.  Raises :class:`ValueError` for
    an unclosed span, children that overlap, or self-times that do not add
    up to the op's traced time.
    """
    ops: dict[int, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        if math.isnan(span.end):
            raise ValueError(f"op {span.op}: span {span.name!r} was never closed")
        entry = ops.setdefault(
            span.op, {"total_s": 0.0, "layers": {}, "concurrent": {}}
        )
        metric = SPAN_METRICS[span.name]
        if not span.main:
            bucket = entry["concurrent"]
            bucket[metric] = bucket.get(metric, 0.0) + span.end - span.start
            continue
        if own < -tolerance:
            raise ValueError(
                f"op {span.op}: the children of span {span.name!r} overlap "
                f"(self time {own:.3g} s)"
            )
        if span.name == ROOT:
            entry["total_s"] = span.end - span.start
        entry["layers"][metric] = entry["layers"].get(metric, 0.0) + own
    for op, entry in ops.items():
        attributed = sum(entry["layers"].values())
        if abs(attributed - entry["total_s"]) > tolerance * max(1.0, entry["total_s"]):
            raise ValueError(
                f"op {op}: self-times add up to {attributed!r} s, "
                f"not the traced {entry['total_s']!r} s"
            )
    return ops


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def _counted(counts: dict) -> dict:
    """The per-op counter metrics, from the raw counts the hooks recorded."""
    get = counts.get
    builds = get("qpe_engine.builds", 0.0)
    puts = get("store.puts", 0.0)
    hits = get("store.disk_hits", 0.0)
    misses = get("store.misses", 0.0)
    return {
        "pipeline.fingerprint_calls": get("pipeline.fingerprint_calls", 0.0),
        "qpe_engine.padded_dim": _per(get("qpe_engine.dim_sum", 0.0), builds),
        "qpe_engine.pad_ratio": _per(get("qpe_engine.ratio_sum", 0.0), builds),
        "qpe_engine.eigh_gflop": get("qpe_engine.eigh_gflop", 0.0),
        "readout.rows": get("readout.rows", 0.0),
        "qmeans.assign_calls": get("qmeans.assign_calls", 0.0),
        "qmeans.temp_mb": get("qmeans.temp_mb", 0.0),
        "store.disk_hits": hits,
        "store.misses": misses,
        "store.hit_ratio": _per(hits, hits + misses),
        "store.bytes_read": get("store.bytes_read", 0.0),
        "store.bytes_written": get("store.bytes_written", 0.0),
        "store.entries": get("store.entries", 0.0),
        "store.scanned_entries_per_put": _per(get("store.scanned_entries", 0.0), puts),
        "store.scanned_mb_per_put": _per(get("store.scanned_bytes", 0.0), puts) / 2**20,
        "runner.tasks": get("runner.tasks", 0.0),
    }


def layer_metrics(tracer: Tracer, untraced_p50: float, import_s: float) -> dict:
    """Every :data:`PER_LAYER` metric of a traced run (means per op)."""
    breakdown = op_breakdown(tracer.spans)
    if not breakdown:
        raise ValueError("the traced run recorded no ops")
    rows = []
    for op, entry in sorted(breakdown.items()):
        row = {name: 0.0 for name, _, _ in PER_LAYER}
        for source in (entry["layers"], entry["concurrent"]):
            for metric, seconds in source.items():
                row[metric] += seconds
        row.update(_counted(tracer.counts.get(op, {})))
        rows.append(row)
    metrics = {
        name: statistics.fmean(row[name] for row in rows) for name, _, _ in PER_LAYER
    }
    traced_p50 = statistics.median(entry["total_s"] for entry in breakdown.values())
    metrics["trace_overhead_s"] = traced_p50 - untraced_p50
    metrics["import.repro_s"] = import_s
    return metrics


def span_records(tracer: Tracer) -> list[dict]:
    """The spans as JSON rows, times in seconds from the first span."""
    origin = tracer.spans[0].start if tracer.spans else 0.0
    return [
        {
            "id": index,
            "name": span.name,
            "start": span.start - origin,
            "end": span.end - origin,
            "parent": span.parent,
            "op": span.op,
            "thread": "client" if span.main else "server",
        }
        for index, span in enumerate(tracer.spans)
    ]


# -- the instrumented entry points ---------------------------------------------


def _counter(key):
    def hook(tracer, args, kwargs, result):
        tracer.count(key)

    return hook


def _on_backend(tracer, args, kwargs, backend):
    tracer.count("qpe_engine.builds")
    tracer.count("qpe_engine.dim_sum", backend.dim)
    tracer.count("qpe_engine.ratio_sum", backend.dim / backend.num_nodes)


def _on_eigh(tracer, args, kwargs, decomposition):
    dim = len(decomposition.eigenvalues)
    tracer.count("qpe_engine.eigh_gflop", EIGH_FLOPS_PER_DIM3 * dim**3 / 1e9)


def _on_readout(tracer, args, kwargs, result):
    tracer.count("readout.rows", result.rows.shape[0])


def _on_assign(tracer, args, kwargs, labels):
    points, centroids = args[0], args[1]
    tracer.count("qmeans.assign_calls")
    # noisy_assign_labels broadcasts an (n, k, d) float64 temporary.
    temporary = points.shape[0] * centroids.shape[0] * points.shape[1] * 8
    tracer.count("qmeans.temp_mb", temporary / 2**20, peak=True)


def _entry_bytes(store, namespace, key) -> int:
    try:
        return store._entry_path(namespace, key).stat().st_size
    except OSError:  # evicted by the budget sweep right after the write
        return 0


def _on_disk_get(tracer, args, kwargs, payload):
    store, namespace, key = args[:3]
    if store.root is None:
        return
    if payload is None:
        tracer.count("store.misses")
        return
    tracer.count("store.disk_hits")
    tracer.count("store.bytes_read", _entry_bytes(store, namespace, key))


def _on_disk_put(tracer, args, kwargs, result):
    store, namespace, key = args[:3]
    if store.root is None:
        return
    tracer.count("store.puts")
    tracer.count("store.bytes_written", _entry_bytes(store, namespace, key))


def _on_scan(tracer, args, kwargs, entries):
    tracer.count("store.scanned_entries", len(entries))
    tracer.count("store.scanned_bytes", sum(size for _, size, _ in entries))
    tracer.count("store.entries", len(entries), peak=True)


#: (module, attribute path, span name, hook run after the call) of every
#: entry point a traced run times.
SPAN_TARGETS = (
    ("repro.graphs.generators", "mixed_sbm", "graphs.generate", None),
    ("repro.graphs.generators", "cyclic_flow_sbm", "graphs.generate", None),
    ("repro.graphs.generators", "ensure_connected", "graphs.generate", None),
    ("repro.graphs.netlist", "synthetic_netlist", "graphs.generate", None),
    ("repro.graphs.netlist", "Netlist.to_mixed_graph", "graphs.generate", None),
    ("repro.graphs.hermitian", "hermitian_laplacian", "graphs.laplacian", None),
    (
        "repro.pipeline.checkpoint",
        "graph_fingerprint",
        "pipeline.fingerprint",
        _counter("pipeline.fingerprint_calls"),
    ),
    ("repro.pipeline.pipeline", "QSCPipeline.run", "pipeline", None),
    ("repro.core.qpe_engine", "make_backend", "qpe_engine.build", _on_backend),
    (
        "repro.core.qpe_engine",
        "AnalyticQPEBackend.eigenvalue_histogram",
        "qpe_engine.histogram",
        None,
    ),
    (
        "repro.core.qpe_engine",
        "CircuitQPEBackend.eigenvalue_histogram",
        "qpe_engine.histogram",
        None,
    ),
    ("repro.core.projection", "select_threshold", "threshold", None),
    ("repro.core.projection", "accepted_outcomes", "threshold", None),
    ("repro.core.readout", "batched_readout", "readout", _on_readout),
    ("repro.spectral.embedding", "complex_to_real_features", "embedding", None),
    ("repro.spectral.embedding", "row_normalize", "embedding", None),
    ("repro.core.qmeans", "qmeans", "qmeans", None),
    (
        "repro.store.content_store",
        "ContentStore._disk_get",
        "store.get",
        _on_disk_get,
    ),
    (
        "repro.store.content_store",
        "ContentStore._disk_put",
        "store.put",
        _on_disk_put,
    ),
    ("repro.experiments.runner", "SweepRunner.run", "runner", None),
    ("repro.experiments.runner", "SweepResult.to_artifact", "runner", None),
    (
        "repro.experiments.runner",
        "_execute_task",
        "runner.task",
        _counter("runner.tasks"),
    ),
    (
        "repro.spectral.clustering",
        "ClassicalSpectralClustering.fit",
        "baselines",
        None,
    ),
    (
        "repro.baselines.symmetrized",
        "SymmetrizedSpectralClustering.fit",
        "baselines",
        None,
    ),
    (
        "repro.baselines.rw_laplacian",
        "RandomWalkSpectralClustering.fit",
        "baselines",
        None,
    ),
    ("repro.baselines.disim", "DiSimClustering.fit", "baselines", None),
    ("repro.baselines.naive", "AdjacencyKMeans.fit", "baselines", None),
    ("repro.metrics.clustering_metrics", "adjusted_rand_index", "metrics", None),
    ("repro.metrics.clustering_metrics", "matched_accuracy", "metrics", None),
)

#: (module, attribute path, hook) of entry points that only feed counters:
#: called too often, or always inside a span already, to be worth a span.
COUNT_TARGETS = (
    ("repro.core.qmeans", "noisy_assign_labels", _on_assign),
    ("repro.quantum.hamiltonian", "SpectralDecomposition.of", _on_eigh),
    ("repro.store.content_store", "ContentStore._scan_disk", _on_scan),
)


def _span_wrapper(function, tracer, name, hook):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.end(index)
        if hook is not None and index is not None:
            hook(tracer, args, kwargs, result)
        return result

    return wrapper


def _count_wrapper(function, tracer, hook):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        result = function(*args, **kwargs)
        if tracer.op_id is not None:
            hook(tracer, args, kwargs, result)
        return result

    return wrapper


def _patch(module_name: str, path: str, wrap, patches: list) -> None:
    owner = importlib.import_module(module_name)
    *owners, attribute = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        original = owner.__dict__[attribute]
        if isinstance(original, classmethod):
            replacement = classmethod(wrap(original.__func__))
        else:
            replacement = wrap(original)
        setattr(owner, attribute, replacement)
        patches.append((owner, attribute, original))
        return
    original = getattr(owner, attribute)
    replacement = wrap(original)
    # ``from module import name`` copies the binding into the importer, so
    # every repro module holding the function is rebound, not only its home.
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").partition(".")[0] != "repro":
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                patches.append((module, key, original))


@contextmanager
def instrumented(tracer: Tracer):
    """Rebind every traced entry point to a recording wrapper for the block."""
    patches: list = []
    try:
        for module_name, path, name, hook in SPAN_TARGETS:
            _patch(
                module_name,
                path,
                lambda f, name=name, hook=hook: _span_wrapper(f, tracer, name, hook),
                patches,
            )
        for module_name, path, hook in COUNT_TARGETS:
            _patch(
                module_name,
                path,
                lambda f, hook=hook: _count_wrapper(f, tracer, hook),
                patches,
            )
        yield tracer
    finally:
        for owner, attribute, original in reversed(patches):
            setattr(owner, attribute, original)
