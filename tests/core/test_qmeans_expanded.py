"""Expanded-form q-means assignment: labels identical to the broadcast.

``noisy_assign_labels`` computes ‖x‖² − 2x·c + ‖c‖² and recomputes only
the rows whose best-versus-runner-up margin sits inside the floating-point
error bound with the legacy ``Σ (x − c)²`` broadcast.  These tests pin the
resulting labels to that broadcast bit for bit, including adversarial
near-ties that must take the fallback.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.qmeans import noisy_assign_labels, qmeans
from repro.exceptions import ClusteringError

# the package re-exports the function ``qmeans`` under the module's name
qmeans_module = importlib.import_module("repro.core.qmeans")


def broadcast_labels(points, centroids, delta, rng):
    """The assignment as computed before the expanded form landed."""
    distances = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    if delta > 0:
        distances = distances + rng.uniform(-delta, delta, size=distances.shape)
    return distances.argmin(axis=1)


def adversarial(scenario, rng, n, k, d):
    """(points, centroids) built to produce exact or near ties.

    The grid scenarios use small integers times a power of two, so
    distances that tie in exact arithmetic also tie in floating point.
    The ``near-*`` scenarios use continuous coordinates perturbed by about
    one ulp, where the two formulas round differently and only the
    fallback keeps the labels equal.
    """
    scale = 2.0 ** int(rng.integers(-20, 20))
    centroids = rng.integers(-3, 4, size=(k, d)).astype(float) * scale
    points = rng.integers(-3, 4, size=(n, d)).astype(float) * scale
    if scenario == "duplicate-centroids":
        centroids[-1] = centroids[0]
    elif scenario == "points-on-centroids":
        points[: min(n, k)] = centroids[: min(n, k)]
    elif scenario == "midpoints":
        points[0] = (centroids[0] + centroids[-1]) / 2.0
    elif scenario == "mirror":
        # centroids ±v and points orthogonal to v are equidistant from both
        centroids[:] = 0.0
        centroids[0, 0], centroids[-1, 0] = scale, -scale
        points[:, 0] = 0.0
    else:
        points = rng.normal(size=(n, d)) * scale
        centroids = rng.normal(size=(k, d)) * scale
        ulp = 1e-15 * scale
        if scenario == "near-duplicate-centroids":
            centroids[-1] = centroids[0] + rng.normal(size=d) * ulp
        elif scenario == "near-midpoints":
            middle = (centroids[0] + centroids[-1]) / 2.0
            points[:] = middle + rng.normal(size=(n, d)) * ulp
    return points, centroids


SCENARIOS = (
    "integer-grid",
    "duplicate-centroids",
    "points-on-centroids",
    "midpoints",
    "mirror",
    "continuous",
    "near-duplicate-centroids",
    "near-midpoints",
)


@given(
    scenario=st.sampled_from(SCENARIOS),
    n=st.integers(1, 40),
    k=st.integers(2, 6),
    d=st.integers(1, 24),
    # 1e-18 keeps δ > 0 while leaving the ulp-scale near-ties intact
    delta=st.sampled_from([0.0, 1e-18, 0.05, 1.0]),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=200, deadline=None)
def test_expanded_labels_equal_broadcast_labels(scenario, n, k, d, delta, seed):
    points, centroids = adversarial(scenario, np.random.default_rng(seed), n, k, d)
    expanded = noisy_assign_labels(
        points, centroids, delta, np.random.default_rng(seed)
    )
    legacy = broadcast_labels(points, centroids, delta, np.random.default_rng(seed))
    np.testing.assert_array_equal(expanded, legacy)


class TestFallback:
    def counting(self, monkeypatch):
        calls = []
        original = qmeans_module._broadcast_distances

        def spy(points, centroids):
            calls.append(points.shape[0])
            return original(points, centroids)

        monkeypatch.setattr(qmeans_module, "_broadcast_distances", spy)
        return calls

    def test_exact_ties_take_the_fallback(self, monkeypatch):
        calls = self.counting(monkeypatch)
        points = np.array([[0.0, 1.0], [0.0, -2.0], [5.0, 0.0]])
        centroids = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
        labels = noisy_assign_labels(points, centroids, 0.0, None)
        # rows 0 and 1 tie between all three; row 2 ties centroids 0 and 2
        assert calls == [3]
        np.testing.assert_array_equal(labels, [0, 0, 0])

    def test_separated_rows_skip_the_fallback(self, monkeypatch):
        calls = self.counting(monkeypatch)
        rng = np.random.default_rng(0)
        centroids = np.array([[10.0, 0.0], [-10.0, 0.0]])
        points = centroids[rng.integers(0, 2, size=50)] + rng.normal(size=(50, 2))
        noisy_assign_labels(points, centroids, 0.05, np.random.default_rng(1))
        assert calls == []

    def test_noise_draw_is_unchanged(self):
        """The expanded form consumes exactly the broadcast's draws."""
        points = np.random.default_rng(2).normal(size=(9, 3))
        centroids = points[:3].copy()
        first, second = np.random.default_rng(5), np.random.default_rng(5)
        noisy_assign_labels(points, centroids, 0.1, first)
        broadcast_labels(points, centroids, 0.1, second)
        assert first.random() == second.random()


class TestNonFinitePoints:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_qmeans_rejects_non_finite_points(self, bad):
        points = np.random.default_rng(0).normal(size=(12, 3))
        points[4, 1] = bad
        with pytest.raises(ClusteringError, match="finite"):
            qmeans(points, 2, seed=0)
