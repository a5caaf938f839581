"""q-means: the δ-noisy quantum k-means clustering model.

Following the q-means construction (Kerenidis, Landman, Luongo & Prakash,
NeurIPS 2019), the quantum algorithm is equivalent to classical Lloyd
iteration with two bounded noise sources:

* every squared distance used for assignment carries additive error
  uniformly bounded by δ (swap-test / amplitude-estimation error), and
* every updated centroid is reported with an l2 perturbation of norm at
  most δ (vector-tomography error).

At δ = 0 the iteration *is* Lloyd's algorithm (property-tested against
``repro.spectral.kmeans``).  The closed-form noise model is used instead of
per-distance swap-test circuits so q-means scales to thousands of rows.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ClusteringError
from repro.spectral.kmeans import (
    KMeansResult,
    cluster_inertia,
    kmeans_plusplus_init,
    update_centroids,
)
from repro.utils.rng import ensure_rng


def _broadcast_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared distances by the legacy (rows, k, d) broadcast — the
    reference :func:`noisy_assign_labels` must reproduce label for label."""
    return ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)


def noisy_assign_labels(
    points: np.ndarray,
    centroids: np.ndarray,
    delta: float,
    rng: np.random.Generator,
    x_norms: np.ndarray | None = None,
) -> np.ndarray:
    """Assignment under distance estimates with additive error <= δ.

    Distances use the expanded form ‖x‖² − 2x·c + ‖c‖² (one matmul, no
    (n, k, d) temporary), yet the labels are bit-identical to those of the
    ``Σ (x − c)²`` broadcast (:func:`_broadcast_distances`).  Either form
    of a noisy distance lies within B = (d + 6)·u·((‖x‖ + max‖c‖)² + δ)
    of its exact value (u the unit roundoff; the standard summation and
    dot-product bounds, with |x·c| ≤ ‖x‖‖c‖).  So when a row's best
    expanded distance beats its runner-up by more than 4B (two distances,
    two forms), both forms pick the same unique minimum.  Rows inside that
    margin — near-ties, duplicate centroids, non-finite input — are
    recomputed with the broadcast.  The noise draw is the same either way.

    ``x_norms`` are the rows' ‖x‖², computed here when omitted; a caller
    assigning the same points repeatedly passes them once.
    """
    count, dim = points.shape
    if x_norms is None:
        x_norms = np.einsum("ij,ij->i", points, points)
    c_norms = np.einsum("ij,ij->i", centroids, centroids)
    distances = x_norms[:, None] - 2.0 * (points @ centroids.T) + c_norms[None, :]
    if delta > 0:
        noise = rng.uniform(-delta, delta, size=distances.shape)
        distances = distances + noise
    labels = distances.argmin(axis=1)
    if centroids.shape[0] < 2:
        return labels
    runner_up = np.partition(distances, 1, axis=1)[:, 1]
    margin = runner_up - distances[np.arange(count), labels]
    reach = (np.sqrt(x_norms) + np.sqrt(c_norms.max())) ** 2
    # eps = 2u, so this is 2B: a factor of two for the rounding of the
    # bound and the margin themselves
    bound = (dim + 6) * np.finfo(float).eps * (reach + delta)
    # written so NaN margins (non-finite input) fall back too
    unsure = np.flatnonzero(~(margin > 4.0 * bound))
    if unsure.size:
        legacy = _broadcast_distances(points[unsure], centroids)
        if delta > 0:
            legacy = legacy + noise[unsure]
        labels[unsure] = legacy.argmin(axis=1)
    return labels


def perturb_centroids(
    centroids: np.ndarray, delta: float, rng: np.random.Generator
) -> np.ndarray:
    """Add an l2-bounded perturbation of norm <= δ to each centroid."""
    if delta <= 0:
        return centroids
    noise = rng.normal(size=centroids.shape)
    norms = np.linalg.norm(noise, axis=1, keepdims=True)
    norms = np.where(norms > 0, norms, 1.0)
    radii = rng.uniform(0.0, delta, size=(centroids.shape[0], 1))
    return centroids + noise / norms * radii


def qmeans(
    points: np.ndarray,
    num_clusters: int,
    delta: float = 0.05,
    max_iterations: int = 30,
    num_restarts: int = 4,
    stability_window: int = 3,
    seed=None,
) -> KMeansResult:
    """δ-noisy k-means (the q-means execution model).

    Parameters
    ----------
    points:
        n × d real data matrix (the spectral embedding rows).
    num_clusters:
        k.
    delta:
        Noise bound δ of the quantum subroutines; 0 reduces to Lloyd.
    max_iterations:
        Iteration cap per restart.
    num_restarts:
        Independent q-means++ initializations; lowest noisy inertia wins.
    stability_window:
        Stop once assignments are unchanged for this many consecutive
        iterations (noise means single-step equality is too strict).
    seed:
        RNG seed or generator.

    Returns
    -------
    :class:`repro.spectral.kmeans.KMeansResult`

    Raises
    ------
    ClusteringError
        On invalid arguments, and when ``points`` has fewer than
        ``num_clusters`` distinct rows.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ClusteringError(f"points must be 2-D, got shape {points.shape}")
    if not np.isfinite(points).all():
        raise ClusteringError("points must be finite (found NaN or inf)")
    n = points.shape[0]
    if not 1 <= num_clusters <= n:
        raise ClusteringError(f"num_clusters must be in [1, {n}], got {num_clusters}")
    if delta < 0:
        raise ClusteringError(f"delta must be >= 0, got {delta}")
    if max_iterations < 1 or num_restarts < 1 or stability_window < 1:
        raise ClusteringError("iteration parameters must be >= 1")
    rng = ensure_rng(seed)
    x_norms = np.einsum("ij,ij->i", points, points)
    best: KMeansResult | None = None
    for _ in range(num_restarts):
        centroids = kmeans_plusplus_init(points, num_clusters, rng)
        # D² seeding repeats a row only once every row sits on a chosen
        # seed (to 1e-9), so repeated seeds mean fewer than k distinct
        # rows: a k × k × d check instead of a pass over all n rows.  Only
        # the k diagonal pairs of distinct seeds compare equal.
        equal = (centroids[:, None, :] == centroids[None, :, :]).all(axis=2)
        if np.count_nonzero(equal) > num_clusters:
            raise ClusteringError(
                f"cannot form {num_clusters} clusters from points with fewer "
                f"than {num_clusters} distinct rows"
            )
        labels = noisy_assign_labels(points, centroids, delta, rng, x_norms)
        stable_steps = 0
        converged = False
        iterations = 0
        for iterations in range(1, max_iterations + 1):
            centroids = perturb_centroids(
                update_centroids(points, labels, num_clusters, rng), delta, rng
            )
            new_labels = noisy_assign_labels(
                points, centroids, delta, rng, x_norms
            )
            if np.array_equal(new_labels, labels):
                stable_steps += 1
                if stable_steps >= (1 if delta == 0 else stability_window):
                    converged = True
                    labels = new_labels
                    break
            else:
                stable_steps = 0
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
