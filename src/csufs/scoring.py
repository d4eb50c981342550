"""Compactness scoring and feature selection.

A feature earns a small score when its values sit in tight local groups
relative to the feature's overall spread: the score is the summed
k-nearest-neighbor distance (over all samples, within that one feature)
divided by the feature's variance. Selection keeps the lowest scores; the
reference selectors (largest variance, all features) live here too.

Two interchangeable kernels compute the distance sums. The naive kernel
forms every pairwise distance per sample and fully sorts each distance
list, which costs O(n^2 log n) per feature. The window kernel sorts blocks
of columns once; in sorted order a sample's k nearest values fill a
contiguous window, j below it and k - j above, so its sum is the minimum
over j of the summed gaps to j positions below plus k - j above. That is
k shifted subtractions and k + 1 elementwise minimums per block, for
O(n (log n + k)) per feature and no per-feature Python loop. A grid of k
values shares one pass: the running gap sums are built once, up to the
largest k, and every k takes its own minimums from them.

Each kernel has one routine that scores a whole k grid within one block
of memory. The window routine frames each sorted column with kmax -inf
below and kmax +inf above, so batched short columns, a long column and
the trace alike are one flat run, scored in chunks with a halo of kmax.
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
MODE_METHODS = {"optimized": Method.CSUFS_OPTIMIZED, "naive": Method.CSUFS_NAIVE}  # the Method a csufs run reports

# caps on one block: pairwise distances for the naive kernel (16 MB); framed
# sorted values for one window chunk, whose working set is about kmax + 5
# times that. Every n gets the same per-block footprint, so timings follow
# the arithmetic rather than the cache
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


def _naive_per_sample(f: np.ndarray, ks: tuple[int, ...]) -> np.ndarray:
    """(len(ks), n): each sample's k smallest inter-sample distances, summed
    small to large, per k of ks; every k slices the same sorted rows."""
    n = f.size
    sums = np.empty((len(ks), n))
    block = max(1, _BLOCK_ELEMENTS // n)
    for start in range(0, n, block):
        stop = min(start + block, n)
        dist = f[start:stop, np.newaxis] - f[np.newaxis, :]
        np.abs(dist, out=dist)
        dist.sort(axis=1)
        # each sorted row carries one zero for the sample itself; skipping a
        # single leading zero excludes it even when duplicates add more zeros
        for row, k in zip(sums, ks):
            row[start:stop] = dist[:, 1 : k + 1].sum(axis=1)
    return sums


def _window_per_sample(s: np.ndarray, ks: tuple[int, ...]) -> np.ndarray:
    """Per-position kNN sums of a 1-D ascending run for each k of the strictly
    ascending tuple ks, shape (len(ks), s.size). A position whose window runs
    past either end of s gets no true sum; callers read only positions with
    kmax values on both sides. Every k reads the same running sums and adds
    them in the same order as a kernel run for that k alone, so each row has
    the same bits."""
    size = s.size
    kmax = ks[-1]
    above = np.zeros((kmax + 1, size))  # above[t]: summed gaps to the t positions above
    below = np.zeros(size)
    work = np.empty(size)
    for t in range(1, kmax + 1):
        np.subtract(s[t:], s[:-t], out=above[t, : size - t])
        above[t, : size - t] += above[t - 1, : size - t]
    best = above[list(ks)]
    for j in range(1, kmax + 1):  # j neighbors below, k - j above
        np.subtract(s[j:], s[:-j], out=work[j:])
        below[j:] += work[j:]
        for k, row in zip(ks, best):
            if k >= j:
                np.minimum(row, np.add(below, above[k - j], out=work), out=row)
    return best


def _window_block_values(ks: tuple[int, ...]) -> int:
    """Values per window block for ascending ks: a grid holds kmax + len(ks) + 4
    block-sized arrays, so its blocks shrink to one k = kmax's footprint."""
    return (ks[-1] + 5) * _WINDOW_BLOCK_ELEMENTS // (ks[-1] + len(ks) + 4)


def _window_block(values: np.ndarray, ks: tuple[int, ...]) -> np.ndarray:
    """(len(ks), c, n) per-position sums, in sorted order, of each column of an
    (n, c) block for ascending ks. Each sorted column sits between kmax -inf
    and kmax +inf; no minimum picks the +inf gap to a sentinel, so column
    ends need no masks. The framed columns are one flat run, scored in chunks
    with kmax values of halo on both sides, as if in one run per column."""
    n, c = values.shape
    kmax = ks[-1]
    framed = np.empty((n + 2 * kmax, c), order="F")
    framed[:kmax] = -np.inf
    framed[kmax + n :] = np.inf
    column = framed[kmax : kmax + n]
    column[:] = values
    column.sort(axis=0)
    flat = framed.ravel(order="F")
    size = flat.size
    core = max(_window_block_values(ks) - 2 * kmax, kmax)  # at least kmax bounds the halo's share of the work
    out = np.empty((len(ks), size))
    with np.errstate(invalid="ignore"):  # inf - inf between two sentinels; those positions are never read
        for lo in range(kmax, size - kmax, core):
            hi = min(lo + core, size - kmax)
            out[:, lo:hi] = _window_per_sample(flat[lo - kmax : hi + kmax], ks)[:, kmax:-kmax]
    return out.reshape(len(ks), c, n + 2 * kmax)[:, :, kmax : kmax + n]


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
        sums = _naive_per_sample(f, (k,))[0]
        counts = np.full(n, n - 1, dtype=np.int64)
        return KernelTrace(float(sums.sum()), sums, counts)
    # position p in the sorted order belongs to original sample order[p];
    # tied values give identical sums, so the stable tie order is harmless
    order = np.argsort(f, kind="stable")
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    pos_sums = _window_block(f[:, np.newaxis], (k,))[0, 0]
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
    dev = X.values - mu
    return np.square(dev, out=dev).mean(axis=0), mu


def score_all_features(X: Dataset, cfg: ScoringConfig | None = None, *, d: np.ndarray | None = None) -> FeatureScores:
    """Score every feature of an (already normalized) dataset. A caller that
    already holds cfg.k's distance sums of X, as a sweep over a k grid
    does, passes them as d and the kernel is not run again."""
    cfg = cfg or ScoringConfig()
    if d is None:
        d = knn_distance_sums(X.values, cfg.k, cfg.mode)
    v, mu = feature_variances(X)
    cs = np.divide(d, v, out=np.full_like(d, np.inf), where=v > DEFAULT_VARIANCE_TOL)
    return FeatureScores(d=d, v=v, cs=cs, mu=mu, k_used=cfg.k)


def knn_distance_sums(values: np.ndarray, k, mode: str = "optimized") -> np.ndarray:
    """Distance sums of every column of a bare (n, m) matrix of finite values.

    An int k gives an (m,) vector. A sequence of ints gives one row per
    entry, in the order given and duplicates allowed, shape (len(k), m);
    each row has the bits of its own int call. The whole sequence is scored
    in one pass: the window kernel takes as many whole framed columns per
    block as fit, at least one; the naive kernel one column at a time.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("values must be a 2-D matrix")
    n, m = values.shape
    single = np.ndim(k) == 0
    ks = (k,) if single else tuple(k)
    if not ks:
        raise ValueError("k must hold at least one neighbor count")
    for kk in ks:
        _require_kernel_args(n, kk)
    grid = tuple(sorted(set(ks)))
    rows = np.empty((len(grid), m))
    if mode == "optimized":
        step = max(1, _window_block_values(grid) // (n + 2 * grid[-1]))  # whole framed columns per block
        for lo in range(0, m, step):
            rows[:, lo : lo + step] = _window_block(values[:, lo : lo + step], grid).sum(axis=2)
    else:
        for r, col in enumerate(values.T):
            rows[:, r] = _naive_per_sample(np.ascontiguousarray(col), grid).sum(axis=1)
    rows = rows[[grid.index(kk) for kk in ks]]
    return rows[0] if single else rows


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
    return _prefix_selection(scores.ranking(), scores, d, MODE_METHODS[cfg.mode])


def _variance_scores(X: Dataset) -> FeatureScores:
    m = X.n_features
    v, mu = feature_variances(X)
    return FeatureScores(d=np.zeros(m), v=v, cs=np.zeros(m), mu=mu, k_used=None)


def select_all(X: Dataset) -> SelectionResult:
    """Identity selection; variances are computed for reporting only."""
    m = X.n_features
    return SelectionResult(np.arange(m, dtype=np.int64), _variance_scores(X), Method.ALL_FEATURES, d_requested=m)


def select_max_variance(X: Dataset, d: int) -> SelectionResult:
    """The d largest-variance features of the sample-normalized matrix.

    Runs on the same normalized matrix csufs scores, so the two methods
    compare like for like: a NormalizedDataset is used as it is, any other
    Dataset is normalized first. Ties fall to the lower index; d > m clamps
    with a warning.
    """
    scores = _variance_scores(ensure_normalized(X))
    order = np.lexsort((np.arange(scores.n_features), -scores.v))
    return _prefix_selection(order, scores, d, Method.MAX_VARIANCE)
