"""CI benchmark-smoke runner: import every benchmark, run F1 reduced.

The full benchmark suite takes minutes; CI cannot afford that on every
push, but silent drift in the experiment harnesses is exactly the failure
mode benchmarks exist to catch.  This script does the cheap 95%:

1. import every ``bench_*.py`` module under ``benchmarks/`` (catches
   renamed APIs, missing imports, and collection-time breakage), and
2. run the F1 direction sweep at smoke scale (two strengths, one trial,
   small graphs) and re-assert the figure's qualitative shape — quantum
   separates the directed clusters, the symmetrized baseline cannot.

Run from the repository root::

    PYTHONPATH=src python benchmarks/smoke.py
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys


def import_benchmark_modules() -> list[str]:
    """Import each bench_*.py file in this directory; return module names."""
    bench_dir = pathlib.Path(__file__).resolve().parent
    # bench modules import the shared perf_gates helper as a sibling
    # (exactly how pytest resolves it); make that work here too
    if str(bench_dir) not in sys.path:
        sys.path.insert(0, str(bench_dir))
    imported = []
    for path in sorted(bench_dir.glob("bench_*.py")):
        name = f"benchmarks_smoke_{path.stem}"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        imported.append(path.stem)
    return imported


def run_fig1_smoke() -> None:
    """F1 at reduced scale; assert the crossover shape survives.

    Three trials instead of one: at 36 nodes the per-trial ARI variance is
    large (single seeds range from ~0.3 to ~0.9 on unchanged code), so a
    one-trial threshold flickers whenever an upstream RNG stream shifts.
    The thresholds below are calibrated against the 6-trial mean (~0.5–0.6
    for quantum at strength 1.0, ~0 for the weak and symmetrized arms).
    """
    import numpy as np

    from repro.experiments import fig1_direction_sweep
    from repro.experiments.runner import SweepRunner

    records = (
        SweepRunner(
            fig1_direction_sweep.spec(
                strengths=(0.5, 1.0), num_nodes=36, trials=3, shots=512
            )
        )
        .run()
        .records
    )
    assert records, "fig1 smoke produced no records"

    def mean_ari(method: str, strength: float) -> float:
        rows = [
            r.ari
            for r in records
            if r.method == method and r.parameters["strength"] == strength
        ]
        assert rows, f"no records for {method} at strength {strength}"
        return float(np.mean(rows))

    quantum_strong = mean_ari("quantum", 1.0)
    quantum_weak = mean_ari("quantum", 0.5)
    symmetrized_strong = mean_ari("symmetrized", 1.0)
    assert quantum_strong > 0.4, f"quantum ARI drifted low: {quantum_strong}"
    assert quantum_strong > quantum_weak + 0.2, (
        f"direction signal lost: {quantum_strong} vs {quantum_weak}"
    )
    assert abs(symmetrized_strong) < 0.3, (
        f"symmetrized baseline should stay near chance: {symmetrized_strong}"
    )


def main() -> int:
    imported = import_benchmark_modules()
    print(f"imported {len(imported)} benchmark modules: {', '.join(imported)}")
    run_fig1_smoke()
    print("fig1 smoke: crossover shape OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
