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
* both routes must agree on the eigenvalues to tolerance;
* the array backend's dispatched QPE kernel must match the legacy numpy
  build (timed as data — the numpy fallback has no speedup claim).

The LOBPCG gate needs a scipy build with ``lobpcg``; hosts without one
skip it (same policy as the trajectory runner's data-only mode).
"""

import numpy as np
import pytest
from perf_gates import (
    EIGENSOLVER_K,
    EIGENSOLVER_NODES,
    MIN_LOBPCG_SPEEDUP,
    batch_kernel_build,
    best_seconds,
    ill_conditioned_laplacian,
    kernel_phases,
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


@pytest.mark.benchmark(group="linalg-backends")
def test_bench_array_dispatch_kernel(benchmark):
    """Dispatched QPE kernel == legacy numpy build; timing is data.

    On the default leg the dispatch namespace is the numpy fallback, so
    this pins the overhead at ~nil rather than gating a speedup; with
    torch/CuPy installed the same measurement shows the device win.
    """
    from repro.linalg import default_namespace_name, dispatch_scope

    phases = kernel_phases()
    legacy = batch_kernel_build(phases)

    def dispatched_build():
        with dispatch_scope():
            return batch_kernel_build(phases)

    assert np.allclose(dispatched_build(), legacy, atol=1e-9)
    plain_seconds = best_seconds(lambda: batch_kernel_build(phases), repeats=3)
    benchmark.pedantic(dispatched_build, rounds=3, iterations=1)
    dispatched_seconds = best_seconds(dispatched_build, repeats=3)

    benchmark.extra_info["namespace"] = default_namespace_name()
    benchmark.extra_info["plain_seconds"] = plain_seconds
    benchmark.extra_info["dispatched_seconds"] = dispatched_seconds
    # No speedup gate — but dispatch must not make the hot path pathological.
    assert dispatched_seconds < plain_seconds * 10
