"""Benchmark — backend eigensolver routes on the midrange eigenproblem.

The "auto" backend's midrange band (``SPARSE_AUTO_THRESHOLD`` up to
``LOBPCG_AUTO_CEILING`` nodes) routes ``lowest_eigenpairs`` to block
LOBPCG with a degree/Jacobi preconditioner instead of ARPACK's shiftless
Lanczos.  The win shows on *ill-conditioned* graphs — here the
weight-skewed SBM Laplacian from ``perf_gates.ill_conditioned_laplacian``
whose degree diagonal spans ~10^6 — where the preconditioner hands LOBPCG
the rescaling eigsh has to earn through restarts.

Gates (shared with CI's ``bench-trajectory`` job via ``perf_gates``):

* LOBPCG must be >= 2x faster than eigsh on the gated workload and must
  actually take the ``lobpcg`` route (no silent fallback);
* both routes must agree on the eigenvalues to tolerance.

The LOBPCG gate needs a scipy build with ``lobpcg``; hosts without one
skip it (same policy as the trajectory runner's data-only mode).
"""

import numpy as np
import pytest
from perf_gates import (
    EIGENSOLVER_K,
    EIGENSOLVER_NODES,
    MIN_LOBPCG_SPEEDUP,
    best_seconds,
    ill_conditioned_laplacian,
)


@pytest.mark.benchmark(group="linalg-backends")
def test_bench_lobpcg_vs_eigsh(benchmark):
    from repro.linalg.backends import SparseBackend

    laplacian = ill_conditioned_laplacian()
    lobpcg_backend = SparseBackend(solver="lobpcg")
    eigsh_backend = SparseBackend(solver="eigsh")

    lobpcg_values, _ = lobpcg_backend.lowest_eigenpairs(laplacian, EIGENSOLVER_K)
    assert lobpcg_backend.last_route == "lobpcg", (
        f"gated workload fell back to {lobpcg_backend.last_route!r}"
    )
    eigsh_values, _ = eigsh_backend.lowest_eigenpairs(laplacian, EIGENSOLVER_K)
    assert np.allclose(lobpcg_values, eigsh_values, rtol=1e-4, atol=1e-8)

    eigsh_seconds = best_seconds(
        lambda: eigsh_backend.lowest_eigenpairs(laplacian, EIGENSOLVER_K),
        repeats=2,
    )
    benchmark.pedantic(
        lambda: lobpcg_backend.lowest_eigenpairs(laplacian, EIGENSOLVER_K),
        rounds=2,
        iterations=1,
    )
    lobpcg_seconds = best_seconds(
        lambda: lobpcg_backend.lowest_eigenpairs(laplacian, EIGENSOLVER_K),
        repeats=2,
    )

    speedup = eigsh_seconds / lobpcg_seconds
    benchmark.extra_info["eigsh_seconds"] = eigsh_seconds
    benchmark.extra_info["lobpcg_seconds"] = lobpcg_seconds
    benchmark.extra_info["speedup"] = speedup
    assert speedup >= MIN_LOBPCG_SPEEDUP, (
        f"LOBPCG speedup only {speedup:.2f}x over eigsh "
        f"(n={EIGENSOLVER_NODES}, k={EIGENSOLVER_K})"
    )
