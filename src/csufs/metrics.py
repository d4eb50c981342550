"""Agreement metrics between two labelings of the same samples."""

from __future__ import annotations

import numpy as np

from .data import LabelVector
from .errors import LengthMismatch


def _check_paired(s: LabelVector, r: LabelVector) -> None:
    if len(s) != len(r):
        raise LengthMismatch(f"label vectors differ in length: {len(s)} vs {len(r)}")


def contingency_table(s: LabelVector, r: LabelVector) -> np.ndarray:
    """counts[i, j] = number of samples labeled i in s and j in r."""
    _check_paired(s, r)
    cells = s.n_classes * r.n_classes
    return np.bincount(s.labels * r.n_classes + r.labels, minlength=cells).reshape(s.n_classes, r.n_classes)


def _max_assignment_total(weights: np.ndarray) -> int:
    """Largest sum of n entries of an n x n integer table, one per row and column.

    The Hungarian method with shortest augmenting paths: rows join one at a
    time, and each join runs a Dijkstra search over the columns on costs
    reduced by integer row and column potentials, vectorized across columns.
    All arithmetic is in int64, so the optimum is exact. O(n^3) time.
    """
    weights = np.asarray(weights, dtype=np.int64)
    n = weights.shape[0]
    # index 0 is a virtual column (and row) that seeds each search
    cost = np.zeros((n + 1, n + 1), dtype=np.int64)
    cost[1:, 1:] = weights.max() - weights  # non-negative, minimized
    unreached = np.iinfo(np.int64).max
    row_pot = np.zeros(n + 1, dtype=np.int64)
    col_pot = np.zeros(n + 1, dtype=np.int64)
    owner = np.zeros(n + 1, dtype=np.intp)  # owner[j]: row matched to column j, 0 for none
    via = np.zeros(n + 1, dtype=np.intp)  # via[j]: previous column on the shortest path to j
    for i in range(1, n + 1):
        owner[0] = i
        col = 0
        dist = np.full(n + 1, unreached, dtype=np.int64)
        done = np.zeros(n + 1, dtype=bool)
        while owner[col] != 0:
            done[col] = True
            row = owner[col]
            reduced = cost[row] - row_pot[row] - col_pot
            closer = ~done & (reduced < dist)
            dist[closer] = reduced[closer]
            via[closer] = col
            col = int(np.where(done, unreached, dist).argmin())
            delta = dist[col]
            row_pot[owner[done]] += delta
            col_pot[done] -= delta
            dist[~done] -= delta
        while col != 0:
            prev = via[col]
            owner[col] = owner[prev]
            col = prev
    return int(weights[owner[1:] - 1, np.arange(n)].sum())


def clustering_accuracy(s: LabelVector, r: LabelVector) -> float:
    """Fraction of samples matched under the best one-to-one label mapping.

    The mapping from r's labels onto s's labels is solved exactly as an
    assignment problem on the square-padded contingency counts (see
    _max_assignment_total), so the result is the true optimum, not a greedy
    approximation. Only the optimal matched count enters the result, and
    that count is unique even when several mappings reach it.
    """
    counts = contingency_table(s, r)
    size = max(counts.shape)
    padded = np.zeros((size, size), dtype=np.int64)
    padded[: counts.shape[0], : counts.shape[1]] = counts
    return _max_assignment_total(padded) / len(s)


def _entropy_from_counts(counts: np.ndarray, n: int) -> float:
    p = counts[counts > 0] / n
    return float(-(p * np.log(p)).sum())


def entropy(labels: LabelVector) -> float:
    """Shannon entropy (natural log) of the empirical label frequencies."""
    counts = np.bincount(labels.labels, minlength=labels.n_classes)
    return _entropy_from_counts(counts, len(labels))


def normalized_mutual_information(s: LabelVector, r: LabelVector) -> float:
    """Mutual information scaled by the larger marginal entropy, in [0, 1].

    When both labelings are single-cluster the partitions are identical and
    the result is defined as 1.0; when exactly one marginal entropy is zero
    the mutual information (and so the result) is 0.0.
    """
    _check_paired(s, r)
    n = len(s)
    counts = contingency_table(s, r)
    row = counts.sum(axis=1)
    col = counts.sum(axis=0)
    h_s = _entropy_from_counts(row, n)
    h_r = _entropy_from_counts(col, n)
    denom = max(h_s, h_r)
    if denom == 0.0:
        return 1.0
    si, ri = np.nonzero(counts)
    joint = counts[si, ri] / n
    mi = float((joint * (np.log(joint) - np.log(row[si] / n) - np.log(col[ri] / n))).sum())
    return min(max(mi / denom, 0.0), 1.0)
