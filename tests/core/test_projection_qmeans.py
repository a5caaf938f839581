"""Tests for threshold selection and q-means."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.projection import accepted_outcomes, bin_value, select_threshold
from repro.core.qmeans import noisy_assign_labels, perturb_centroids, qmeans
from repro.exceptions import ClusteringError
from repro.metrics import adjusted_rand_index
from repro.spectral.kmeans import kmeans


class TestBinValue:
    def test_conversion(self):
        assert np.isclose(bin_value(8, 4, 2.0), 1.0)
        assert np.isclose(bin_value(0, 4, 2.0), 0.0)


class TestSelectThreshold:
    def make_histogram(self, precision=5):
        # 8-node graph, k=2: two low eigenvectors at bins 2 and 3,
        # six high ones at bins 20..25 — clean gap.
        histogram = np.zeros(2**precision)
        histogram[2] = 50
        histogram[3] = 50
        for bin_index in range(20, 26):
            histogram[bin_index] = 50
        return histogram

    def test_threshold_in_the_gap(self):
        histogram = self.make_histogram()
        selection = select_threshold(histogram, 2, 8, 5, 2.0)
        gap_low = bin_value(3, 5, 2.0)
        gap_high = bin_value(20, 5, 2.0)
        assert gap_low < selection.threshold < gap_high

    def test_accepted_bins_are_the_low_ones(self):
        selection = select_threshold(self.make_histogram(), 2, 8, 5, 2.0)
        assert set(selection.accepted_bins) == {2, 3}

    def test_all_mass_low_accepts_everything_occupied(self):
        histogram = np.zeros(16)
        histogram[1] = 100
        selection = select_threshold(histogram, 2, 2, 4, 2.0)
        assert 1 in selection.accepted_bins

    def test_empty_histogram_rejected(self):
        with pytest.raises(ClusteringError):
            select_threshold(np.zeros(16), 2, 8, 4, 2.0)

    def test_k_validation(self):
        with pytest.raises(ClusteringError):
            select_threshold(self.make_histogram(), 0, 8, 5, 2.0)
        with pytest.raises(ClusteringError):
            select_threshold(self.make_histogram(), 9, 8, 5, 2.0)

    def test_accepted_outcomes_window(self):
        accepted = accepted_outcomes(0.5, 4, 2.0)
        # bins with value <= 0.5: bins 0..4 (value = bin/16*2)
        assert list(accepted) == [0, 1, 2, 3, 4]

    def test_accepted_outcomes_positive_threshold(self):
        with pytest.raises(ClusteringError):
            accepted_outcomes(0.0, 4, 2.0)


class TestQMeans:
    def blobs(self, seed=0):
        rng = np.random.default_rng(seed)
        points = np.vstack([rng.normal(0, 0.15, (25, 2)), rng.normal(4, 0.15, (25, 2))])
        truth = np.repeat([0, 1], 25)
        return points, truth

    def test_delta_zero_matches_lloyd(self):
        points, _ = self.blobs()
        noisy = qmeans(points, 2, delta=0.0, num_restarts=2, seed=11)
        exact = kmeans(points, 2, num_restarts=2, seed=11)
        assert adjusted_rand_index(noisy.labels, exact.labels) == 1.0
        assert np.isclose(noisy.inertia, exact.inertia, rtol=1e-9)

    def test_small_delta_still_recovers_clusters(self):
        points, truth = self.blobs(1)
        result = qmeans(points, 2, delta=0.1, seed=0)
        assert adjusted_rand_index(truth, result.labels) == 1.0

    def test_huge_delta_degrades(self):
        points, truth = self.blobs(2)
        scores = []
        for seed in range(5):
            result = qmeans(points, 2, delta=50.0, seed=seed)
            scores.append(adjusted_rand_index(truth, result.labels))
        assert np.mean(scores) < 0.9  # noise must hurt at absurd delta

    def test_validation(self):
        points = np.zeros((4, 2))
        with pytest.raises(ClusteringError):
            qmeans(points, 0)
        with pytest.raises(ClusteringError):
            qmeans(points, 2, delta=-1.0)
        with pytest.raises(ClusteringError):
            qmeans(np.zeros(4), 2)
        with pytest.raises(ClusteringError):
            qmeans(points, 2, max_iterations=0)

    @pytest.mark.parametrize("delta", [0.0, 0.05])
    def test_fewer_distinct_rows_than_clusters_raises(self, delta):
        points = np.repeat([[0.0, 1.0], [1.0, 0.0]], 5, axis=0)
        with pytest.raises(ClusteringError, match="fewer than 4 distinct rows"):
            qmeans(points, 4, delta=delta, seed=0)
        # as many distinct rows as clusters is fine, duplicates and all
        result = qmeans(points, 2, delta=delta, seed=0)
        assert adjusted_rand_index(np.repeat([0, 1], 5), result.labels) == 1.0

    def test_noisy_assignment_reduces_to_exact_at_zero_delta(self):
        points, _ = self.blobs(3)
        centroids = np.array([[0.0, 0.0], [4.0, 4.0]])
        rng = np.random.default_rng(0)
        noisy = noisy_assign_labels(points, centroids, 0.0, rng)
        exact = noisy_assign_labels(points, centroids, 0.0, rng)
        assert np.array_equal(noisy, exact)

    def test_perturbation_bounded(self):
        rng = np.random.default_rng(0)
        centroids = np.zeros((10, 3))
        perturbed = perturb_centroids(centroids, 0.2, rng)
        assert (np.linalg.norm(perturbed, axis=1) <= 0.2 + 1e-12).all()

    def test_perturbation_zero_delta_is_identity(self):
        centroids = np.ones((3, 2))
        rng = np.random.default_rng(0)
        assert perturb_centroids(centroids, 0.0, rng) is centroids

    @given(delta=st.floats(0.0, 0.3), seed=st.integers(0, 10))
    @settings(max_examples=15, deadline=None)
    def test_labels_always_valid(self, delta, seed):
        points, _ = self.blobs(seed)
        result = qmeans(points, 2, delta=delta, num_restarts=1, seed=seed)
        assert set(result.labels) <= {0, 1}
        assert result.centroids.shape == (2, 2)
