"""Shared perf-gate definitions for the benchmark suite and CI trajectory.

The pytest benchmarks (``bench_generators.py``, ``bench_qpe_kernel.py``)
and the CI ``bench-trajectory`` runner (``trajectory.py``) enforce the
same speedup gates on the same workloads.  Thresholds, the timing helper
and the workload builders live here so the two entry points cannot drift
apart — raising a gate in one place raises it everywhere.
"""

from __future__ import annotations

import time

import numpy as np

# Wall-clock speedup gates (absolute thresholds; measured margins are
# listed in the modules that enforce them).
MIN_GENERATOR_SPEEDUP = 5.0
MIN_KERNEL_SPEEDUP = 3.0

# Preconditioned LOBPCG vs ARPACK eigsh on the ill-conditioned midrange
# eigenproblem (the workload the "auto" midrange band exists for).  Both
# timings come from the same run on the same matrix, so the gate is
# hardware-robust and applies everywhere (scipy >= 1.10 ships lobpcg).
MIN_LOBPCG_SPEEDUP = 2.0

# Relative trend gate of the per-PR benchmark series
# (``benchmarks/trajectory.py --series``): each speedup metric of the new
# entry must reach at least this fraction of the previous PR's value.
# Deliberately loose — both numbers come from different CI runs on noisy
# shared runners, so this catches real regressions (a vectorized path
# falling back to a loop) without flaking on scheduler jitter.
MIN_RELATIVE_TREND = 0.5

# Workload scales.
GENERATOR_NODES = 1000
GENERATOR_CLUSTERS = 3
KERNEL_PHASES = 1024
KERNEL_PRECISION = 7
EIGENSOLVER_NODES = 1024  # midrange: SPARSE_AUTO_THRESHOLD <= n < ceiling
EIGENSOLVER_CLUSTERS = 4
EIGENSOLVER_K = 4
EIGENSOLVER_WEIGHT_DECADES = 6.0
EIGENSOLVER_SEED = 7


def ill_conditioned_laplacian():
    """The gated midrange eigenproblem: a weight-skewed SBM Laplacian.

    The adjacency pattern is the standard sparse mixed SBM at midrange
    scale, but edge weights are drawn log-uniformly across
    ``EIGENSOLVER_WEIGHT_DECADES`` orders of magnitude, so the
    unnormalized Laplacian's degree diagonal — and with it the spectrum —
    spans ~10^6.  ARPACK's shiftless Lanczos needs many restarts to pull
    the smallest eigenvalues out of that spread; the degree/Jacobi
    preconditioner hands LOBPCG the rescaling for free, which is exactly
    the regime the "auto" midrange band routes to LOBPCG.  (A normalized
    Laplacian would be unit-diagonal and the preconditioner inert — the
    skewed weights are what makes this gate meaningful.)
    """
    import scipy.sparse as sparse

    from repro.graphs import sparse_mixed_sbm

    graph, _ = sparse_mixed_sbm(
        EIGENSOLVER_NODES, EIGENSOLVER_CLUSTERS, seed=EIGENSOLVER_SEED
    )
    pattern = sparse.csr_matrix(graph.symmetrized_adjacency()).tocoo()
    upper = pattern.row < pattern.col
    rows, cols = pattern.row[upper], pattern.col[upper]
    rng = np.random.default_rng(EIGENSOLVER_SEED)
    weights = 10.0 ** rng.uniform(0.0, EIGENSOLVER_WEIGHT_DECADES, size=rows.size)
    adjacency = sparse.coo_matrix(
        (
            np.concatenate([weights, weights]),
            (np.concatenate([rows, cols]), np.concatenate([cols, rows])),
        ),
        shape=pattern.shape,
    ).tocsr()
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    return (sparse.diags(degrees) - adjacency).astype(complex).tocsr()


def best_seconds(fn, repeats: int = 3) -> float:
    """Best-of-N wall time of ``fn()`` — robust to one-off scheduler noise."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def generator_cases() -> dict:
    """Name -> ``build(version)`` for the gated generator workloads."""
    from repro.graphs import cyclic_flow_sbm, mixed_sbm

    return {
        "mixed_sbm": lambda version: mixed_sbm(
            GENERATOR_NODES,
            GENERATOR_CLUSTERS,
            seed=0,
            generator_version=version,
        ),
        "cyclic_flow_sbm": lambda version: cyclic_flow_sbm(
            GENERATOR_NODES,
            GENERATOR_CLUSTERS,
            intra_directed=True,
            seed=0,
            generator_version=version,
        ),
    }


def kernel_phases() -> np.ndarray:
    """The gated kernel workload: a bulk spectrum plus dyadic phases so
    the Dirichlet-kernel limit branch is exercised too."""
    phases = np.random.default_rng(17).random(KERNEL_PHASES)
    phases[:8] = np.arange(8) / 2**KERNEL_PRECISION
    return phases


def loop_kernel_build(phases: np.ndarray) -> np.ndarray:
    """The legacy per-eigenvalue kernel build (one call per phase)."""
    from repro.quantum.phase_estimation import qpe_outcome_distribution

    return np.vstack(
        [qpe_outcome_distribution(phase, KERNEL_PRECISION) for phase in phases]
    )


def batch_kernel_build(phases: np.ndarray) -> np.ndarray:
    """The batched kernel build (one broadcast pass)."""
    from repro.quantum.phase_estimation import qpe_outcome_distributions

    return qpe_outcome_distributions(phases, KERNEL_PRECISION)
