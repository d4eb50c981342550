"""Compactness scoring and feature selection.

A feature earns a small score when its values sit in tight local groups
relative to the feature's overall spread: the score is the summed
k-nearest-neighbor distance (over all samples, within that one feature)
divided by the feature's variance. Selection keeps the lowest scores.

Two interchangeable kernels compute the distance sums. The naive kernel
forms every pairwise distance per sample and fully sorts each distance
list, which costs O(n^2 log n) per feature. The window kernel sorts blocks
of columns once; in sorted order a sample's k nearest values fill a
contiguous window, j below it and k - j above, so its sum is the minimum
over j of the summed gaps to j positions below plus k - j above. That is
k shifted subtractions and k + 1 elementwise minimums per block, for
O(n (log n + k)) per feature and no per-feature Python loop.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset, FeatureScores, Method, SelectionResult
from .errors import KTooLarge, TooFewSamples
from .preprocess import ensure_normalized

DEFAULT_K = 5
DEFAULT_VARIANCE_TOL = 1e-12

MODES = ("optimized", "naive")

# caps on one block: pairwise distances for the naive kernel (16 MB); sorted
# values for the window kernel, whose working set is about k + 5 times that
# (a longer column is a block of its own). Every n gets the same per-block
# footprint, so timings follow the arithmetic rather than the cache
_BLOCK_ELEMENTS = 2_000_000
_WINDOW_BLOCK_ELEMENTS = 32_768


@dataclass
class ScoringConfig:
    """Knobs for one scoring pass."""

    k: int = DEFAULT_K
    mode: str = "optimized"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


def _require_kernel_args(n: int, k: int) -> None:
    if n < 2:
        raise TooFewSamples(f"need at least 2 samples for distance sums, got {n}")
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if k >= n:
        raise KTooLarge(f"k={k} needs at least k+1={k + 1} samples, got {n}")


def _as_feature(f) -> np.ndarray:
    f = np.ascontiguousarray(f, dtype=np.float64)
    if f.ndim != 1:
        raise ValueError("feature must be one-dimensional")
    return f


def _naive_per_sample(f: np.ndarray, k: int) -> np.ndarray:
    """Each sample's k smallest inter-sample distances, summed small to large."""
    n = f.size
    sums = np.empty(n)
    block = max(1, _BLOCK_ELEMENTS // n)
    for start in range(0, n, block):
        stop = min(start + block, n)
        dist = f[start:stop, np.newaxis] - f[np.newaxis, :]
        np.abs(dist, out=dist)
        dist.sort(axis=1)
        # each sorted row carries one zero for the sample itself; skipping a
        # single leading zero excludes it even when duplicates add more zeros
        sums[start:stop] = dist[:, 1 : k + 1].sum(axis=1)
    return sums


def _window_per_sample(s: np.ndarray, k: int) -> np.ndarray:
    """Per-position kNN sums of an (n, c) Fortran-order block of ascending
    columns, same shape and order. Steps run on the flat buffer, so gaps near
    a column's end reach into the next one; +inf overwrites them, as those
    positions lack neighbors on that side, and no minimum picks +inf."""
    n, c = s.shape
    flat = s.ravel(order="F")
    size = flat.size
    above = np.zeros((k + 1, size))  # above[t]: summed gaps to the t positions above
    below = np.zeros(size)
    work = np.empty(size)
    for t in range(1, k + 1):
        np.subtract(flat[t:], flat[:-t], out=above[t, : size - t])
        above[t, : size - t] += above[t - 1, : size - t]
        above[t].reshape(c, n)[:, n - t :] = np.inf
    best = above[k].copy()
    for j in range(1, k + 1):  # j neighbors below, k - j above
        np.subtract(flat[j:], flat[:-j], out=work[j:])
        below[j:] += work[j:]
        below.reshape(c, n)[:, :j] = np.inf
        np.minimum(best, np.add(below, above[k - j], out=work), out=best)
    return best.reshape(c, n).T


def knn_distance_sum_naive(f, k: int) -> float:
    """Summed k-nearest-neighbor distances via the exhaustive kernel.

    For every sample all n-1 distances to the other samples are formed and
    fully sorted before the k smallest are accumulated.
    """
    return float(knn_distance_sums(_as_feature(f)[:, np.newaxis], k, mode="naive")[0])


def knn_distance_sum_sorted(f, k: int) -> float:
    """Summed k-nearest-neighbor distances via the sorted-window kernel.

    Matches knn_distance_sum_naive exactly on integer-valued data and
    within a relative 1e-9 otherwise. The input is left untouched; the
    kernel works on a sorted copy and only forms distances to the k
    positions on either side of each sample.
    """
    return float(knn_distance_sums(_as_feature(f)[:, np.newaxis], k)[0])


@dataclass(eq=False)
class KernelTrace:
    """Instrumented kernel run: per-sample sums and formed-distance counts.

    Both arrays follow the original sample order whichever kernel ran.
    """

    total: float
    per_sample: np.ndarray
    candidate_counts: np.ndarray


def knn_distance_trace(f, k: int, mode: str = "optimized") -> KernelTrace:
    """Run one kernel and keep its per-sample workings for inspection."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    f = _as_feature(f)
    _require_kernel_args(f.size, k)
    n = f.size
    if mode == "naive":
        sums = _naive_per_sample(f, k)
        counts = np.full(n, n - 1, dtype=np.int64)
        return KernelTrace(float(sums.sum()), sums, counts)
    # position p in the sorted order belongs to original sample order[p];
    # tied values give identical sums, so the stable tie order is harmless
    order = np.argsort(f, kind="stable")
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    pos_sums = _window_per_sample(f[order, np.newaxis], k)[:, 0]
    counts = np.minimum(pos, k) + np.minimum(n - 1 - pos, k)
    return KernelTrace(float(pos_sums.sum()), pos_sums[pos], counts)


def feature_variance(f) -> tuple[float, float]:
    """Population variance (divisor n) and mean of one feature."""
    f = _as_feature(f)
    if f.size == 0:
        raise ValueError("feature must be non-empty")
    mu = float(f.mean())
    v = float(np.mean((f - mu) ** 2))
    return v, mu


def compactness_score(d_r: float, v_r: float) -> float:
    """Ratio of distance sum to variance; near-constant features score +inf.

    The +inf sentinel ranks constant features after every finite score, so
    they are picked last.
    """
    if v_r > DEFAULT_VARIANCE_TOL:
        return d_r / v_r
    return float("inf")


def feature_variances(X: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """feature_variance of every column at once, bit for bit: each column of
    the column-major matrix is reduced as one contiguous run."""
    mu = X.values.mean(axis=0)
    return np.square(X.values - mu).mean(axis=0), mu


def score_all_features(X: Dataset, cfg: ScoringConfig | None = None) -> FeatureScores:
    """Score every feature of an (already normalized) dataset."""
    cfg = cfg or ScoringConfig()
    d = knn_distance_sums(X.values, cfg.k, cfg.mode)
    v, mu = feature_variances(X)
    cs = np.divide(d, v, out=np.full_like(d, np.inf), where=v > DEFAULT_VARIANCE_TOL)
    return FeatureScores(d=d, v=v, cs=cs, mu=mu, k_used=cfg.k)


def knn_distance_sums(values: np.ndarray, k: int, mode: str = "optimized") -> np.ndarray:
    """Distance-sum vector over all columns of a bare (n, m) matrix of finite
    values; the naive mode runs one column at a time."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("values must be a 2-D matrix")
    n, m = values.shape
    _require_kernel_args(n, k)
    if mode == "naive":
        return np.array([_naive_per_sample(np.ascontiguousarray(values[:, r]), k).sum() for r in range(m)])
    out = np.empty(m)
    step = max(1, _WINDOW_BLOCK_ELEMENTS // n)
    for lo in range(0, m, step):
        block = np.array(values[:, lo : lo + step], order="F")
        block.sort(axis=0)
        out[lo : lo + step] = _window_per_sample(block, k).sum(axis=0)
    return out


def _prefix_selection(order: np.ndarray, scores: FeatureScores, d: int, method: Method) -> SelectionResult:
    """The first d entries of a full ranking. d > m clamps to all m with a
    warning aimed at the line that called the public selector."""
    if d < 1:
        raise ValueError(f"d must be a positive integer, got {d}")
    m = order.size
    if d > m:
        warnings.warn(f"requested d={d} features but only {m} exist; selecting all {m}", stacklevel=3)
    return SelectionResult(selected=order[:d], scores=scores, method=method, d_requested=d)


def select_features(scores: FeatureScores, d: int, method: Method = Method.CSUFS_OPTIMIZED) -> SelectionResult:
    """Pick the d lowest-scoring feature indices, in ascending score order.

    Ties fall to the lower feature index. Asking for more features than
    exist clamps to all of them with a warning.
    """
    return _prefix_selection(scores.ranking(), scores, d, method)


def csufs(X: Dataset, d: int, cfg: ScoringConfig | None = None) -> SelectionResult:
    """Full selection pipeline: normalize samples (unless X is a NormalizedDataset), score, rank, cut at d."""
    cfg = cfg or ScoringConfig()
    scores = score_all_features(ensure_normalized(X), cfg)
    method = Method.CSUFS_NAIVE if cfg.mode == "naive" else Method.CSUFS_OPTIMIZED
    return select_features(scores, d, method=method)
