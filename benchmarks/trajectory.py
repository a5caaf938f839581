"""CI perf-trajectory runner: smoke-scale benches -> a per-PR series.

The benchmark suite gates the repo's perf wins (generator vectorization,
batched kernel build, spectral cache), but pytest-benchmark output is not
a durable record.  This script runs the key measurements at smoke scale,
enforces the shared gates (thresholds live in ``perf_gates`` so the
pytest benchmarks and this runner cannot drift), and serializes one JSON
summary per run.  With ``--series`` it additionally maintains
``BENCH_trajectory.json`` — a schema-tagged list of one entry per PR —
and **diffs the new entry against the previous PR's**: every speedup
metric must reach at least ``perf_gates.MIN_RELATIVE_TREND`` of its
predecessor (a *relative* regression gate on top of the absolute
thresholds), so a vectorized path quietly degrading between PRs fails CI
even while it still clears the absolute bar.

Gating policy: wall-clock gates compare two timings from the *same* run
(v1 vs v2, loop vs batch), which is robust on noisy shared runners; the
spectral cache is gated on its deterministic hit/miss counters, with the
warm-sweep speedup recorded as data rather than enforced (a single
scheduler stall in a ~50 ms sweep would otherwise flake CI —
``benchmarks/bench_fig2_precision.py`` still gates it for local runs).
The shared content-addressed store is gated the same way: a warm
store-backed sweep with the memory tier cleared must be served entirely
by on-disk hits (``warm_store_*`` gates), its speedup recorded as data.
The cross-run trend gate uses the loose ``MIN_RELATIVE_TREND`` fraction
because its two sides come from different CI runs.

Run from the repository root::

    PYTHONPATH=src python benchmarks/trajectory.py \
        --out BENCH_pr10.json --series BENCH_trajectory.json --label pr10

Exit status is non-zero if any gate fails; the JSON (and the updated
series) is written either way so the failing numbers are inspectable.
An entry whose label already exists in the series is replaced, so local
re-runs stay idempotent.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys

import numpy as np
from perf_gates import (
    EIGENSOLVER_K,
    EIGENSOLVER_NODES,
    GENERATOR_NODES,
    KERNEL_PHASES,
    KERNEL_PRECISION,
    MIN_GENERATOR_SPEEDUP,
    MIN_KERNEL_SPEEDUP,
    MIN_LOBPCG_SPEEDUP,
    MIN_RELATIVE_TREND,
    batch_kernel_build,
    best_seconds,
    generator_cases,
    ill_conditioned_laplacian,
    kernel_phases,
    loop_kernel_build,
)

SCHEMA = "repro.bench/1"
SERIES_SCHEMA = "repro.bench-series/1"


def measure_generators() -> dict:
    """v1 vs v2 wall time of both SBM generators at smoke scale."""
    out = {}
    for name, build in generator_cases().items():
        v1 = best_seconds(lambda: build("v1"), repeats=2)
        v2 = best_seconds(lambda: build("v2"), repeats=3)
        out[name] = {
            "num_nodes": GENERATOR_NODES,
            "v1_seconds": v1,
            "v2_seconds": v2,
            "speedup": v1 / v2,
        }
    return out


def measure_kernel() -> dict:
    """Per-phase loop vs batched build of the QPE response kernel."""
    phases = kernel_phases()
    if not np.array_equal(loop_kernel_build(phases), batch_kernel_build(phases)):
        raise AssertionError("batched kernel differs from per-phase loop")
    loop = best_seconds(lambda: loop_kernel_build(phases), repeats=2)
    batch = best_seconds(lambda: batch_kernel_build(phases), repeats=3)
    return {
        "num_phases": KERNEL_PHASES,
        "precision_bits": KERNEL_PRECISION,
        "loop_seconds": loop,
        "batch_seconds": batch,
        "speedup": loop / batch,
    }


def measure_sweep_cache() -> dict:
    """Cold vs warm fig2 smoke sweep — the spectral cache's win.

    The warm speedup is recorded for the trajectory; the *gate* is the
    deterministic counter contract (warm pass fully cache-served,
    bit-identical records).
    """
    from repro.core.qpe_engine import clear_spectral_cache
    from repro.experiments import fig2_precision_sweep
    from repro.experiments.runner import SweepRunner

    spec = fig2_precision_sweep.spec(precisions=(2, 7), num_nodes=40, trials=1)
    runner = SweepRunner(spec)
    clear_spectral_cache()
    cold = runner.run()
    warm = runner.run()
    if warm.records != cold.records:
        raise AssertionError("warm sweep records differ from cold")
    return {
        "tasks": len(spec.tasks()),
        "cold_seconds": cold.elapsed_seconds,
        "warm_seconds": warm.elapsed_seconds,
        "warm_speedup": cold.elapsed_seconds / warm.elapsed_seconds,
        "cold_cache": cold.cache,
        "warm_cache": warm.cache,
    }


def measure_store() -> dict:
    """Cold vs warm *store-backed* smoke sweep — the cross-process gate.

    Extends the in-process ``measure_sweep_cache`` contract to the shared
    content-addressed store: the sweep runs twice against one temporary
    store root with the in-memory spectral tier cleared in between, so
    the warm pass simulates a *fresh process* that can only be served by
    the on-disk tier.  The gate is deterministic counters again — warm
    pass misses nothing, hits the disk tier at least once, and produces
    bit-identical records — while the warm speedup rides along as data.
    """
    import tempfile

    from repro.core.qpe_engine import clear_spectral_cache
    from repro.experiments import fig2_precision_sweep
    from repro.experiments.runner import SweepRunner
    from repro.store import configure_store

    spec_kwargs = {"precisions": (2, 7), "num_nodes": 40, "trials": 1}
    try:
        with tempfile.TemporaryDirectory(prefix="repro-store-") as root:
            spec = fig2_precision_sweep.spec(store_dir=root, **spec_kwargs)
            runner = SweepRunner(spec)
            clear_spectral_cache()
            cold = runner.run()
            # Drop the memory tier so the warm pass plays a fresh process:
            # only the on-disk store can serve it.
            clear_spectral_cache()
            warm = runner.run()
    finally:
        configure_store(root=None)
        clear_spectral_cache()
    if warm.records != cold.records:
        raise AssertionError("warm store-backed sweep records differ from cold")
    return {
        "tasks": len(spec.tasks()),
        "cold_seconds": cold.elapsed_seconds,
        "warm_seconds": warm.elapsed_seconds,
        "warm_speedup": cold.elapsed_seconds / warm.elapsed_seconds,
        "cold_store": cold.store,
        "warm_store": warm.store,
    }


def measure_eigensolver() -> dict:
    """Preconditioned LOBPCG vs ARPACK eigsh on the midrange workload.

    The matrix is the weight-skewed SBM Laplacian from
    ``perf_gates.ill_conditioned_laplacian`` — the problem class the
    "auto" midrange band routes to LOBPCG.  Eigenvalue agreement between
    the two routes is asserted (an ``AssertionError`` fails the whole
    run), the LOBPCG route must actually be taken (no silent eigsh
    fallback masquerading as a win), and the wall-clock speedup gates at
    ``MIN_LOBPCG_SPEEDUP``.
    """
    from repro.linalg.backends import SparseBackend

    laplacian = ill_conditioned_laplacian()
    eigsh_backend = SparseBackend(solver="eigsh")
    eigsh_values, _ = eigsh_backend.lowest_eigenpairs(laplacian, EIGENSOLVER_K)
    eigsh_seconds = best_seconds(
        lambda: eigsh_backend.lowest_eigenpairs(laplacian, EIGENSOLVER_K),
        repeats=2,
    )
    out = {
        "num_nodes": EIGENSOLVER_NODES,
        "k": EIGENSOLVER_K,
        "eigsh_seconds": eigsh_seconds,
        "gate_enforced": True,
    }
    lobpcg_backend = SparseBackend(solver="lobpcg")
    lobpcg_values, _ = lobpcg_backend.lowest_eigenpairs(laplacian, EIGENSOLVER_K)
    if lobpcg_backend.last_route != "lobpcg":
        raise AssertionError(
            "LOBPCG route fell back to "
            f"{lobpcg_backend.last_route!r} on the gated workload"
        )
    if not np.allclose(lobpcg_values, eigsh_values, rtol=1e-4, atol=1e-8):
        raise AssertionError("LOBPCG eigenvalues differ from eigsh")
    lobpcg_seconds = best_seconds(
        lambda: lobpcg_backend.lowest_eigenpairs(laplacian, EIGENSOLVER_K),
        repeats=2,
    )
    out["lobpcg_seconds"] = lobpcg_seconds
    out["speedup"] = eigsh_seconds / lobpcg_seconds
    return out


def trend_metrics(results: dict) -> dict:
    """The speedup metrics compared across PR entries by the trend gate.

    Only same-run *ratios* participate (absolute seconds shift with
    runner hardware; the warm-sweep speedup is too short-lived to compare
    across runs and is recorded as data only).
    """
    metrics = {
        f"generator:{name}": row["speedup"]
        for name, row in results["generators"].items()
    }
    metrics["kernel"] = results["kernel"]["speedup"]
    solver = results.get("eigensolver")
    if solver is not None and solver["gate_enforced"]:
        # Same enforced-only policy: a lobpcg-less host has no speedup
        # to trend and must not poison the baseline with its absence.
        metrics["eigensolver"] = solver["speedup"]
    return metrics


def load_series(path) -> dict:
    """Read (or initialise) the per-PR benchmark series."""
    path = pathlib.Path(path)
    if not path.exists():
        return {"schema": SERIES_SCHEMA, "entries": []}
    with open(path, encoding="utf-8") as handle:
        series = json.load(handle)
    if series.get("schema") != SERIES_SCHEMA or not isinstance(
        series.get("entries"), list
    ):
        raise AssertionError(
            f"{path} is not a {SERIES_SCHEMA} series file"
        )
    return series


def evaluate_trend_gates(summary: dict, series: dict) -> dict:
    """Relative regression gates of ``summary`` against the previous entry.

    The baseline is the newest series entry whose label differs from the
    current one (so re-running a PR's benches diffs against the *previous
    PR*, not against itself).  An empty series yields no trend gates —
    the first entry only seeds the baseline.
    """
    previous = None
    for entry in reversed(series["entries"]):
        if entry.get("label") != summary["label"]:
            previous = entry
            break
    if previous is None:
        return {}
    gates = {}
    baseline = trend_metrics(previous["results"])
    current = trend_metrics(summary["results"])
    for name, value in current.items():
        if name not in baseline:
            continue  # metric introduced this PR: no baseline to diff
        floor = baseline[name] * MIN_RELATIVE_TREND
        gates[f"trend:{name}"] = {
            "threshold": floor,
            "baseline": baseline[name],
            "baseline_label": previous.get("label"),
            "value": value,
            "passed": value >= floor,
        }
    for name in baseline:
        # A gated metric that vanished from the current run must FAIL,
        # not silently lose its gate — removing a bench case is a
        # deliberate act that has to touch the series on purpose.
        if name not in current:
            gates[f"trend:{name}"] = {
                "threshold": baseline[name] * MIN_RELATIVE_TREND,
                "baseline": baseline[name],
                "baseline_label": previous.get("label"),
                "value": None,
                "passed": False,
            }
    return gates


def update_series(series: dict, summary: dict) -> dict:
    """Replace-or-append the summary's entry in the series (label-keyed)."""
    entries = [
        entry
        for entry in series["entries"]
        if entry.get("label") != summary["label"]
    ]
    entries.append(summary)
    return {"schema": SERIES_SCHEMA, "entries": entries}


def evaluate_gates(results: dict) -> dict:
    """Gate name -> {threshold, value, passed} for every enforced gate."""
    gates = {}
    for name, row in results["generators"].items():
        gates[f"generator_speedup:{name}"] = {
            "threshold": MIN_GENERATOR_SPEEDUP,
            "value": row["speedup"],
            "passed": row["speedup"] >= MIN_GENERATOR_SPEEDUP,
        }
    gates["kernel_build_speedup"] = {
        "threshold": MIN_KERNEL_SPEEDUP,
        "value": results["kernel"]["speedup"],
        "passed": results["kernel"]["speedup"] >= MIN_KERNEL_SPEEDUP,
    }
    warm_cache = results["sweep_cache"]["warm_cache"]
    gates["warm_sweep_fully_cached"] = {
        "threshold": 0,
        "value": warm_cache["misses"],
        "passed": warm_cache["misses"] == 0 and warm_cache["hits"] > 0,
    }
    warm_store = results["store"]["warm_store"]
    gates["warm_store_fully_served"] = {
        "threshold": 0,
        "value": warm_store["misses"],
        "passed": warm_store["misses"] == 0,
    }
    gates["warm_store_cross_process_hits"] = {
        # The memory tier was cleared between passes, so every warm hit
        # must come from the on-disk tier — the cross-process contract.
        "threshold": 1,
        "value": warm_store["disk_hits"],
        "passed": warm_store["disk_hits"] >= 1,
    }
    solver = results["eigensolver"]
    if solver["gate_enforced"]:
        gates["lobpcg_speedup"] = {
            "threshold": MIN_LOBPCG_SPEEDUP,
            "value": solver["speedup"],
            "passed": solver["speedup"] >= MIN_LOBPCG_SPEEDUP,
        }
    return gates


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default="BENCH_pr10.json",
        metavar="PATH",
        help="where to write the JSON summary (default: ./BENCH_pr10.json)",
    )
    parser.add_argument(
        "--series",
        default=None,
        metavar="PATH",
        help=(
            "per-PR series file (e.g. BENCH_trajectory.json): the new "
            "entry is diffed against the previous PR's (relative "
            "regression gate) and appended; omit to skip the series"
        ),
    )
    parser.add_argument(
        "--label",
        default="pr10",
        metavar="NAME",
        help="series label of this entry (default: pr10)",
    )
    args = parser.parse_args(argv)

    results = {
        "generators": measure_generators(),
        "kernel": measure_kernel(),
        "sweep_cache": measure_sweep_cache(),
        "store": measure_store(),
        "eigensolver": measure_eigensolver(),
    }
    gates = evaluate_gates(results)
    summary = {
        "schema": SCHEMA,
        "label": args.label,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "results": results,
        "gates": gates,
        "passed": all(gate["passed"] for gate in gates.values()),
    }
    if args.series is not None:
        series = load_series(args.series)
        trend = evaluate_trend_gates(summary, series)
        gates.update(trend)
        summary["gates"] = gates
        summary["passed"] = all(gate["passed"] for gate in gates.values())
        series = update_series(series, summary)
        with open(args.series, "w", encoding="utf-8") as handle:
            json.dump(series, handle, indent=2)
            handle.write("\n")
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")

    for name, gate in gates.items():
        status = "ok" if gate["passed"] else "FAIL"
        against = (
            f"threshold {gate['threshold']:.2f}"
            if isinstance(gate["threshold"], float)
            else f"threshold {gate['threshold']}"
        )
        if "baseline_label" in gate:
            against += (
                f" = {MIN_RELATIVE_TREND} x {gate['baseline']:.2f} "
                f"@{gate['baseline_label']}"
            )
        shown = "missing" if gate["value"] is None else f"{gate['value']:.2f}"
        print(f"{status:4s} {name}: {shown} ({against})")
    if args.series is not None:
        print(f"updated series {args.series}")
    print(f"wrote {args.out}")
    if not summary["passed"]:
        print("perf trajectory gates FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
