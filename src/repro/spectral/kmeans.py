"""From-scratch k-means (Lloyd's algorithm) with k-means++ seeding.

This is both the final step of classical spectral clustering and the
noise-free limit of the q-means algorithm in ``repro.core.qmeans`` (which
subclasses the update loop by injecting bounded noise — their agreement at
δ = 0 is property-tested).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ClusteringError
from repro.utils.linalg import row_blocks
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of a k-means run.

    Attributes
    ----------
    labels:
        Cluster index per point.
    centroids:
        k × d centroid matrix.
    inertia:
        Sum of squared distances to assigned centroids.
    iterations:
        Lloyd iterations executed.
    converged:
        Whether assignments stabilised before the iteration cap.
    """

    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    iterations: int
    converged: bool


def kmeans_plusplus_init(
    points: np.ndarray, num_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by D² sampling."""
    n = points.shape[0]
    centroids = np.empty((num_clusters, points.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = points[first]
    blocks = row_blocks(n, points.shape[1])
    # one block-sized buffer for every distance pass, in the memory layout
    # NumPy gives ``points - center``, so each row sums in the same order
    buffer = np.empty_like(points[: blocks[0][1]], dtype=float)
    closest_sq = np.empty(n)
    squared_distances(points, centroids[0], blocks, buffer, closest_sq)
    distance_sq = np.empty(n)
    for index in range(1, num_clusters):
        total = closest_sq.sum()
        if total <= 1e-18:
            # All points coincide with already-chosen centroids; fill the
            # remaining slots with random picks.
            for j in range(index, num_clusters):
                centroids[j] = points[int(rng.integers(n))]
            break
        probabilities = closest_sq / total
        choice = int(rng.choice(n, p=probabilities))
        centroids[index] = points[choice]
        squared_distances(points, centroids[index], blocks, buffer, distance_sq)
        np.minimum(closest_sq, distance_sq, out=closest_sq)
    return centroids


def squared_distances(
    points: np.ndarray,
    center: np.ndarray,
    blocks: list[tuple[int, int]],
    buffer: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """``((points - center) ** 2).sum(axis=1)`` into ``out``, bit for bit.

    Computed one row block of ``blocks`` (:func:`~repro.utils.linalg.
    row_blocks`) at a time in ``buffer``, which holds the largest block;
    each row's sum is a reduction over that row alone, so blocking
    cannot change it.
    """
    for start, stop in blocks:
        difference = np.subtract(points[start:stop], center, out=buffer[: stop - start])
        np.square(difference, out=difference)
        np.add.reduce(difference, axis=1, out=out[start:stop])
    return out


def assign_labels(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of the nearest centroid for every point."""
    distances = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return distances.argmin(axis=1)


def update_centroids(
    points: np.ndarray,
    labels: np.ndarray,
    num_clusters: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Mean of each cluster; empty clusters respawn at a random point."""
    centroids = np.empty((num_clusters, points.shape[1]))
    for cluster in range(num_clusters):
        members = points[labels == cluster]
        if members.size == 0:
            centroids[cluster] = points[int(rng.integers(points.shape[0]))]
        else:
            centroids[cluster] = members.mean(axis=0)
    return centroids


def cluster_inertia(
    points: np.ndarray, centroids: np.ndarray, labels: np.ndarray
) -> float:
    """``((points - centroids[labels]) ** 2).sum()`` through one temporary."""
    residuals = centroids[labels]
    np.subtract(points, residuals, out=residuals)
    return float(np.square(residuals, out=residuals).sum())


def kmeans(
    points: np.ndarray,
    num_clusters: int,
    max_iterations: int = 100,
    num_restarts: int = 4,
    seed=None,
) -> KMeansResult:
    """Lloyd's algorithm with k-means++ initialization and restarts.

    Parameters
    ----------
    points:
        n × d real data matrix.
    num_clusters:
        k; must satisfy 1 <= k <= n.
    max_iterations:
        Per-restart Lloyd iteration cap.
    num_restarts:
        Independent initializations; the lowest-inertia run wins.
    seed:
        RNG seed or generator.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ClusteringError(f"points must be 2-D, got shape {points.shape}")
    n = points.shape[0]
    if not 1 <= num_clusters <= n:
        raise ClusteringError(f"num_clusters must be in [1, {n}], got {num_clusters}")
    if max_iterations < 1 or num_restarts < 1:
        raise ClusteringError("max_iterations and num_restarts must be >= 1")
    rng = ensure_rng(seed)
    best: KMeansResult | None = None
    for _ in range(num_restarts):
        centroids = kmeans_plusplus_init(points, num_clusters, rng)
        labels = assign_labels(points, centroids)
        converged = False
        iterations = 0
        for iterations in range(1, max_iterations + 1):
            centroids = update_centroids(points, labels, num_clusters, rng)
            new_labels = assign_labels(points, centroids)
            if np.array_equal(new_labels, labels):
                converged = True
                break
            labels = new_labels
        candidate = KMeansResult(
            labels=labels,
            centroids=centroids,
            inertia=cluster_inertia(points, centroids, labels),
            iterations=iterations,
            converged=converged,
        )
        if best is None or candidate.inertia < best.inertia:
            best = candidate
    return best
