"""Clustering-quality metrics: ARI, matched accuracy, confusion.

All metrics are implemented from first principles on contingency tables;
only the Hungarian assignment uses ``scipy.optimize.linear_sum_assignment``,
imported on first use so ``import repro`` does not load ``scipy.optimize``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ClusteringError


def _validate_pair(truth, predicted) -> tuple[np.ndarray, np.ndarray]:
    truth = np.asarray(truth, dtype=int).ravel()
    predicted = np.asarray(predicted, dtype=int).ravel()
    if truth.size != predicted.size:
        raise ClusteringError(
            f"label vectors differ in length: {truth.size} vs {predicted.size}"
        )
    if truth.size == 0:
        raise ClusteringError("label vectors are empty")
    return truth, predicted


def contingency_table(truth, predicted) -> np.ndarray:
    """Counts table C[i, j] = |truth cluster i ∩ predicted cluster j|, over
    the label ids present, in increasing id order.

    Labels whose id spans are small together (the usual ``0..k-1``) are
    counted by one ``bincount`` over their offsets from the smallest id,
    and ids absent from the labels are dropped; other labels are coded by
    ``np.unique`` first.  Both give the same table.
    """
    truth, predicted = _validate_pair(truth, predicted)
    truth_low, predicted_low = int(truth.min()), int(predicted.min())
    rows = int(truth.max()) - truth_low + 1
    cols = int(predicted.max()) - predicted_low + 1
    if rows * cols > 4 * truth.size + 1024:
        truth_ids, truth_codes = np.unique(truth, return_inverse=True)
        predicted_ids, predicted_codes = np.unique(predicted, return_inverse=True)
        rows, cols = truth_ids.size, predicted_ids.size
    else:
        truth_codes, predicted_codes = truth - truth_low, predicted - predicted_low
    cells = np.bincount(truth_codes * cols + predicted_codes, minlength=rows * cols)
    table = cells.reshape(rows, cols)
    present_rows, present_cols = table.any(axis=1), table.any(axis=0)
    if not (present_rows.all() and present_cols.all()):
        table = table[present_rows][:, present_cols]
    return table


def adjusted_rand_index(truth, predicted) -> float:
    """ARI ∈ [−1, 1]: chance-corrected pair-counting agreement."""
    return _table_ari(contingency_table(truth, predicted))


def matched_accuracy(truth, predicted) -> float:
    """Best-case accuracy over all cluster-label permutations (Hungarian)."""
    return _table_accuracy(contingency_table(truth, predicted))


def label_scores(truth, predicted) -> tuple[float, float]:
    """``(adjusted_rand_index, matched_accuracy)`` from one contingency
    table: what an experiment record keeps."""
    table = contingency_table(truth, predicted)
    return _table_ari(table), _table_accuracy(table)


def _table_ari(table: np.ndarray) -> float:
    n = table.sum()

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_cells = comb2(table.astype(float)).sum()
    sum_rows = comb2(table.sum(axis=1).astype(float)).sum()
    sum_cols = comb2(table.sum(axis=0).astype(float)).sum()
    expected = sum_rows * sum_cols / comb2(float(n)) if n > 1 else 0.0
    maximum = (sum_rows + sum_cols) / 2.0
    # np.isclose(maximum, expected) for two finite scalars, without its
    # array machinery
    if abs(maximum - expected) <= 1e-08 + 1e-05 * abs(expected):
        return 1.0  # both partitions are trivial and identical in structure
    return float((sum_cells - expected) / (maximum - expected))


def _table_accuracy(table: np.ndarray) -> float:
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(-table)
    return float(table[rows, cols].sum() / table.sum())
