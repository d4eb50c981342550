"""Reference compactness scores, written apart from the csufs kernels.

Each sample's k nearest values within a feature sit next to it in the
feature's sorted order, so a two-pointer merge outward from every sorted
position visits them in ascending distance. The merge runs on all
positions of a block of columns at once.
"""

from __future__ import annotations

import numpy as np

VARIANCE_TOL = 1e-12
ZERO_TOL = 1e-12
_BLOCK_COLUMNS = 64


def knn_distance_sums(values: np.ndarray, k: int) -> np.ndarray:
    """Per-column sum over samples of the k smallest distances to other samples."""
    values = np.asarray(values, dtype=np.float64)
    n, m = values.shape
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    out = np.empty(m)
    for lo in range(0, m, _BLOCK_COLUMNS):
        s = np.sort(values[:, lo : lo + _BLOCK_COLUMNS], axis=0)
        cols = np.arange(s.shape[1])[np.newaxis, :]
        left = np.repeat(np.arange(-1, n - 1)[:, np.newaxis], s.shape[1], axis=1)
        right = left + 2
        total = np.zeros_like(s)
        for _ in range(k):
            left_gap = np.where(left >= 0, s - s[np.maximum(left, 0), cols], np.inf)
            right_gap = np.where(right < n, s[np.minimum(right, n - 1), cols] - s, np.inf)
            take_left = left_gap <= right_gap
            total += np.where(take_left, left_gap, right_gap)
            left -= take_left
            right += ~take_left
        out[lo : lo + s.shape[1]] = total.sum(axis=0)
    return out


def expected_selection(X: np.ndarray, k: int, d: int):
    """(d, v, cs, selected) that `csufs select` should report for raw matrix X.

    Rows are scaled to unit length first (rows with norm at or below
    ZERO_TOL stay as they are); a feature whose variance is at or below
    VARIANCE_TOL scores +inf. Ties in score fall to the lower index.
    """
    norms = np.sqrt((X * X).sum(axis=1))
    Xn = X / np.where(norms > ZERO_TOL, norms, 1.0)[:, np.newaxis]
    dist = knn_distance_sums(Xn, k)
    var = Xn.var(axis=0)
    cs = np.full(var.shape, np.inf)
    live = var > VARIANCE_TOL
    cs[live] = dist[live] / var[live]
    selected = np.lexsort((np.arange(cs.size), cs))[:d]
    return dist, var, cs, selected
