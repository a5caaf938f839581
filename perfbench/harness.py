"""Drive one workload: repeated set-up, a closed timed loop, checks, metrics.

A timed run (``--trace 0``) sets the workload up ``setup_repeats`` times
(a workload attribute), runs its fixed op sequence once, checks every
output, and reports the :data:`END_TO_END` metrics.  A traced run (``--trace 1``) runs the
first half of that sequence untraced, then again with
:mod:`perfbench.tracing` installed, requires both passes to give identical
outputs, and reports the per-layer metrics.  Every run also writes a JSON
record (manifest, set-up samples, op latencies by op index, errors,
metrics; the spans of a traced run) under ``.perfbench_work/results/``.
"""

from __future__ import annotations

import ctypes
import gc
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import scipy

from perfbench import tracing, workloads

#: The end-to-end metrics: name, unit, better direction.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_s_p50", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("ari_mean", "ARI", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("success_rate", "fraction", "higher"),
)

#: OpenBLAS entry points reporting the live thread count, by build flavour
#: (NumPy and SciPy wheels ship symbol-prefixed, 64-bit-integer builds).
_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


# -- summary statistics ---------------------------------------------------------


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def ops_per_s(completed: int, wall_s: float) -> float:
    """Completed ops divided by the wall time of the timed loop."""
    if wall_s <= 0:
        raise ValueError(f"wall time must be positive, got {wall_s}")
    return completed / wall_s


def error_rate(failed: int, attempted: int) -> float:
    """Ops that raised or failed their check, over ops attempted."""
    if attempted < 1:
        raise ValueError("no ops attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} is outside [0, {attempted}]")
    return failed / attempted


def success_rate(failed: int, attempted: int) -> float:
    """``1 - error_rate``, the form reported because it is never 0."""
    return 1.0 - error_rate(failed, attempted)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child, MiB.

    Children count once waited for (the job server's worker processes);
    ``ru_maxrss`` is in KiB on Linux.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# -- the run manifest ---------------------------------------------------------------


def _loaded_libraries() -> list[str]:
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[5] for line in maps if len(line.split()) >= 6}
    except OSError:
        return []
    return sorted(path for path in paths if ".so" in os.path.basename(path))


def blas_libraries() -> list[dict]:
    """Every OpenBLAS loaded in this process with its live thread count."""
    import scipy.linalg  # noqa: F401 -- loads SciPy's own OpenBLAS as well

    found = []
    for path in _loaded_libraries():
        if "openblas" not in os.path.basename(path).lower():
            continue
        library = ctypes.CDLL(path)
        threads = None
        for symbol in _THREAD_SYMBOLS:
            function = getattr(library, symbol, None)
            if function is not None:
                function.argtypes = []
                function.restype = ctypes.c_int
                threads = int(function())
                break
        found.append({"library": os.path.basename(path), "threads": threads})
    return found


def _numpy_blas() -> dict | None:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # NumPy before 2.0 can only print its configuration
        return None
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def filesystem_of(path) -> dict:
    """File-system type and mount point holding ``path``."""
    target = os.path.realpath(path)
    best = {"type": "unknown", "mount": None}
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as mounts:
            for line in mounts:
                fields, _, tail = line.partition(" - ")
                mount = fields.split()[4].replace("\\040", " ")
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                longer = best["mount"] is None or len(mount) >= len(best["mount"])
                if inside and longer:
                    best = {"type": tail.split()[0], "mount": mount}
    except OSError:
        pass
    return best


def git_commit(root) -> str | None:
    """The checked-out commit, read from ``.git`` (``None`` outside git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: ") :]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(workload, seconds, traced, root, work_dir) -> dict:
    """What ran where; raises unless every OpenBLAS runs on one thread."""
    libraries = blas_libraries()
    unpinned = [entry for entry in libraries if entry["threads"] not in (1, None)]
    if unpinned:
        raise RuntimeError(f"BLAS is not pinned to one thread: {unpinned}")
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": seconds,
        "trace": int(traced),
        "ops": workload.ops,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"build": _numpy_blas(), "libraries": libraries},
        "thread_env": {
            name: value
            for name, value in sorted(os.environ.items())
            if name.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))
        },
        "git_commit": git_commit(root),
        "store_fs": filesystem_of(work_dir),
        "platform": platform.platform(),
    }


# -- the loop -------------------------------------------------------------------------


@dataclass
class LoopRun:
    """One pass over the op sequence; lists are indexed by op."""

    latencies: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def failed(self) -> int:
        return sum(error is not None for error in self.errors)

    def completed_latencies(self) -> list:
        return [
            latency
            for latency, error in zip(self.latencies, self.errors)
            if error is None
        ]


def run_loop(workload, count: int, tracer=None) -> LoopRun:
    """Ops ``0..count-1`` back to back; a failed op is counted, never dropped."""
    run = LoopRun()
    start = time.perf_counter()
    for index in range(count):
        workload.before_op(index)
        gc.collect()
        raw, error = None, None
        if tracer is None:
            began = time.perf_counter()
            try:
                raw = workload.op(index, None)
            except Exception:  # recorded as this op's failure
                error = traceback.format_exc()
            latency = time.perf_counter() - began
        else:
            with tracer.op(index):
                try:
                    raw = workload.op(index, tracer)
                except Exception:  # recorded as this op's failure
                    error = traceback.format_exc()
            latency = tracer.op_seconds(index)
        output = None
        if error is None:
            try:
                output = workload.summarize(index, raw)
            except Exception:  # an output the checks cannot read
                error = traceback.format_exc()
        del raw
        run.latencies.append(latency)
        run.outputs.append(output)
        run.errors.append(error)
    run.wall_s = time.perf_counter() - start
    return run


def check_run(workload, run: LoopRun) -> None:
    """Check every op that completed; a failed check fails the op."""
    for index, output in enumerate(run.outputs):
        if run.errors[index] is None:
            try:
                run.errors[index] = workload.check(index, output)
            except Exception:  # a check that cannot run fails its op
                run.errors[index] = traceback.format_exc()


def result_line(values: dict, metrics, attempted: int, failed: int) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit, _ in metrics
        },
    }


def run_timed(workload) -> tuple[dict, dict]:
    setup_samples = []
    for repeat in range(workload.setup_repeats):
        if repeat:
            workload.teardown()
        gc.collect()
        began = time.perf_counter()
        workload.setup()
        setup_samples.append(time.perf_counter() - began)
    run = run_loop(workload, workload.ops)
    check_run(workload, run)
    completed = run.completed_latencies()
    aris = [
        ari
        for output, error in zip(run.outputs, run.errors)
        if error is None
        for ari in workload.ari_values(output)
    ]
    values = {
        "setup_s": median(setup_samples),
        "op_s_p50": median(completed or run.latencies),
        "ops_per_s": ops_per_s(len(completed), run.wall_s),
        "ari_mean": statistics.fmean(aris) if aris else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "success_rate": success_rate(run.failed, len(run.errors)),
    }
    record = {
        "setup_s": setup_samples,
        "op_latency_s": run.latencies,
        "wall_s": run.wall_s,
        "errors": run.errors,
    }
    result = result_line(values, END_TO_END, len(run.errors), run.failed)
    return result, record


def run_traced(workload, import_s: float) -> tuple[dict, dict]:
    workload.setup()
    count = max(workloads.MIN_OPS, math.ceil(workload.ops / 2))
    plain = run_loop(workload, count)
    workload.reset()
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        traced = run_loop(workload, count, tracer)
    check_run(workload, plain)
    check_run(workload, traced)
    for index in range(count):
        if (
            plain.errors[index] is None
            and traced.errors[index] is None
            and not workload.same(plain.outputs[index], traced.outputs[index])
        ):
            traced.errors[index] = f"op {index}: traced output differs from untraced"
    untraced_p50 = median(plain.completed_latencies() or plain.latencies)
    values = tracing.layer_metrics(tracer, untraced_p50, import_s)
    breakdown = tracing.op_breakdown(tracer.spans)
    record = {
        "op_latency_s": {"untraced": plain.latencies, "traced": traced.latencies},
        "errors": {"untraced": plain.errors, "traced": traced.errors},
        "ops": [
            {"op": op, **entry, "counts": tracer.counts.get(op, {})}
            for op, entry in sorted(breakdown.items())
        ],
        "spans": tracing.span_records(tracer),
    }
    failed = plain.failed + traced.failed
    result = result_line(values, tracing.PER_LAYER, 2 * count, failed)
    return result, record


def reap_children(timeout: float = 30.0) -> None:
    """Join every worker process the run started."""
    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()


def main(name, seed, seconds, traced, import_s, root, work_dir) -> int:
    workload = workloads.build(name, seed, seconds, work_dir)
    info = manifest(workload, seconds, traced, root, work_dir)
    try:
        if traced:
            result, record = run_traced(workload, import_s)
        else:
            result, record = run_timed(workload)
    finally:
        workload.teardown()
        reap_children()
    record.update(manifest=info, result=result)
    results = work_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    print("manifest " + json.dumps(info, sort_keys=True))
    print(f"record {path.relative_to(root)}")
    print(json.dumps(result), flush=True)
    return 0
