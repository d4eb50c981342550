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
the trace alike are one flat run, scored in chunks that read kmax values
of halo on each side and score only their core, within one block at any k.
range_sums is the one path to either kernel over a range of columns. A
matrix of at least 2 x PART_VALUES values is scored by at most one process
per usable CPU and one per PART_VALUES values, this one and forked
children (csufs.parts), and cut into parts.PIECES contiguous column ranges
per process. A column's sums do not depend on the columns it shares a
block with, so the bits are the same for any number of ranges.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset, FeatureScores, Method, SelectionResult, require_integer
from .errors import KTooLarge, TooFewSamples
from .parts import in_parts, pieces
from .preprocess import ensure_normalized

DEFAULT_K = 5
DEFAULT_VARIANCE_TOL = 1e-12

MODES = ("optimized", "naive")
MODE_METHODS = {"optimized": Method.CSUFS_OPTIMIZED, "naive": Method.CSUFS_NAIVE}  # the Method a csufs run reports

# caps on one block: pairwise distances for the naive kernel (16 MB); core
# positions of one window chunk, whose working set is about kmax + 5 times
# that, held to the naive kernel's cap from kmax = 57 on (see
# _window_block_values). Every n gets the same per-block footprint, so
# timings follow the arithmetic rather than the cache
_BLOCK_ELEMENTS = 2_000_000
_WINDOW_BLOCK_ELEMENTS = 32_768


@dataclass
class ScoringConfig:
    """Knobs for one scoring pass."""

    k: int = DEFAULT_K
    mode: str = "optimized"

    def __post_init__(self):
        _kernel_grid(None, (self.k,), self.mode)


def _kernel_grid(n: int | None, ks: tuple, mode: str) -> tuple[int, ...]:
    """Every kernel call's argument check; returns the sorted distinct ks.
    mode must be one of MODES, n at least 2 and each k of ks, in the order
    given, an integer from 1 to n - 1. n is None where the sample count is
    not known yet, as in ScoringConfig."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if n is not None and n < 2:
        raise TooFewSamples(f"need at least 2 samples for distance sums, got {n}")
    if not ks:
        raise ValueError("k must hold at least one neighbor count")
    for k in ks:
        require_integer("k", k, 1)
        if n is not None and k >= n:
            raise KTooLarge(f"k={k} needs at least k+1={k + 1} samples, got {n}")
    return tuple(sorted(set(ks)))


def _matrix(values) -> np.ndarray:
    """values as a float64 array, which must be 2-D."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"values must be a 2-D matrix, got ndim={values.ndim}")
    return values


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
        del dist  # freed before the next block is formed, so one block is held at a time
    return sums


def _window_per_sample(s: np.ndarray, ks: tuple[int, ...]) -> np.ndarray:
    """Per-position kNN sums of the core of a 1-D ascending run for each k of
    the strictly ascending tuple ks, shape (len(ks), s.size - 2 * kmax): s
    holds kmax values of halo on each side of its core, read but not scored.
    Every k reads the same running sums and adds them in the same order as a
    kernel run for that k alone, so each row has the same bits."""
    kmax = ks[-1]
    stop = s.size - kmax  # the core is s[kmax:stop]
    above = np.empty((kmax + 1, stop - kmax))  # above[t]: summed gaps to the t positions above
    above[0] = 0.0  # each later row is written whole by its subtraction
    below = np.zeros(stop - kmax)
    work = np.empty(stop - kmax)
    for t in range(1, kmax + 1):
        np.subtract(s[kmax + t : stop + t], s[kmax:stop], out=above[t])
        above[t] += above[t - 1]
    best = above[list(ks)]
    for j in range(1, kmax + 1):  # j neighbors below, k - j above
        np.subtract(s[kmax:stop], s[kmax - j : stop - j], out=work)
        below += work
        for k, row in zip(ks, best):
            if k >= j:
                np.minimum(row, np.add(below, above[k - j], out=work), out=row)
    return best


def _window_block_values(ks: tuple[int, ...]) -> int:
    """Core positions per window chunk, and values per block of framed
    columns, for ascending ks: a chunk holds kmax + len(ks) + 4 core-sized
    arrays, so its core shrinks to one k = kmax's footprint, at most
    _BLOCK_ELEMENTS values, down to one position."""
    return max(1, min((ks[-1] + 5) * _WINDOW_BLOCK_ELEMENTS, _BLOCK_ELEMENTS) // (ks[-1] + len(ks) + 4))


def _window_block(values: np.ndarray, ks: tuple[int, ...]) -> np.ndarray:
    """(len(ks), c, n) per-position sums, in sorted order, of each column of an
    (n, c) block for ascending ks. Each sorted column sits between kmax -inf
    and kmax +inf; no minimum picks the +inf gap to a sentinel, so column
    ends need no masks. The framed columns are one flat run, scored in chunks
    of _window_block_values(ks) core positions, as if in one run per column."""
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
    core = _window_block_values(ks)
    out = np.empty((len(ks), size))
    with np.errstate(invalid="ignore"):  # inf - inf between two sentinels; those positions are never read
        for lo in range(kmax, size - kmax, core):
            hi = min(lo + core, size - kmax)
            out[:, lo:hi] = _window_per_sample(flat[lo - kmax : hi + kmax], ks)
    return out.reshape(len(ks), c, n + 2 * kmax)[:, :, kmax : kmax + n]


# The least values per process: kernel values for either kernel, and values
# clustered (samples x columns x seeds) for a sweep's fits. A kernel's column
# range, one of parts.PIECES per process, may hold less. One process against
# two, window-kernel knn_distance_sums medians of 15 calls at k = 5 on 2
# shared cores, in a process holding 60 MB: 3.6 / 4.8 ms at 200000 values,
# 5.2 / 5.7 ms at 300000, 8.7 / 7.5 ms at 500000, 9.8 / 8.0 ms at 600000.
# The crossover is near 350000 values, so the smallest matrix split, 500000
# values, saves about a seventh. The naive kernel does far more work per
# value, so a part pays for its fork sooner: 80 x 10000 at k = (7, 3, 7),
# median of 7, took 0.27 s in one part and 0.14 s in two. A sweep's fits
# alone, at 4 clusters, won with two parts at all 15 shapes probed from
# 300000 values (BENCH_fit_loop.json); at 2 clusters, sweep_kgrid's 800000
# lost by 5-9 ms, about 1% of that command (BENCH_value_floor.json).
PART_VALUES = 250_000


def range_sums(values: np.ndarray, start: int, stop: int, ks: tuple[int, ...], mode: str) -> np.ndarray:
    """(len(ks), stop - start) distance sums of columns [start, stop) of a
    bare (n, m) float64 matrix, by mode's kernel in this process, for the
    strictly ascending tuple ks: the naive kernel one column at a time, the
    window kernel as many whole framed columns per _window_block call as fit
    in a block, at least one. Each column has the bits knn_distance_sums
    gives it, for any range. This is one knn_distance_sums part, and bench
    times each kernel on one core with it. Checks its arguments as
    knn_distance_sums does, and raises ValueError unless ks is strictly
    ascending and 0 <= start <= stop <= m, before any column is scored."""
    values = _matrix(values)
    n, m = values.shape
    if tuple(ks) != _kernel_grid(n, ks, mode):
        raise ValueError(f"ks must be strictly ascending, got {ks}")
    if not 0 <= start <= stop <= m:
        raise ValueError(f"column range [{start}, {stop}) is not within the matrix's {m} columns")
    sums = np.empty((len(ks), stop - start))
    if mode == "naive":
        for r in range(start, stop):
            sums[:, r - start] = _naive_per_sample(np.ascontiguousarray(values[:, r]), ks).sum(axis=1)
        return sums
    step = max(1, _window_block_values(ks) // (n + 2 * ks[-1]))
    for lo in range(start, stop, step):
        hi = min(lo + step, stop)
        sums[:, lo - start : hi - start] = _window_block(values[:, lo:hi], ks).sum(axis=2)
    return sums


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
    f = _as_feature(f)
    n = f.size
    _kernel_grid(n, (k,), mode)
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


def score_all_features(
    X: Dataset, cfg: ScoringConfig | None = None, *, d: np.ndarray | None = None, variances: tuple | None = None
) -> FeatureScores:
    """Score every feature of an (already normalized) dataset. A caller that
    already holds cfg.k's distance sums of X, as a sweep over a k grid
    does, passes them as d and the kernel is not run again; one that holds
    feature_variances(X) passes it as variances, and the columns are not
    reduced again."""
    cfg = cfg or ScoringConfig()
    if d is None:
        d = knn_distance_sums(X.values, cfg.k, cfg.mode)
    v, mu = feature_variances(X) if variances is None else variances
    cs = np.divide(d, v, out=np.full_like(d, np.inf), where=v > DEFAULT_VARIANCE_TOL)
    return FeatureScores(d=d, v=v, cs=cs, mu=mu, k_used=cfg.k)


def knn_distance_sums(values: np.ndarray, k, mode: str = "optimized") -> np.ndarray:
    """Distance sums of every column of a bare (n, m) matrix of finite values.

    An int k gives an (m,) vector. A sequence of ints gives one row per
    entry, in the order given and duplicates allowed, shape (len(k), m);
    each row has the bits of its own int call. The whole sequence is scored
    in one pass: the window kernel takes as many whole framed columns per
    block as fit, at least one; the naive kernel one column at a time.

    Either kernel scores a matrix of at least 2 x PART_VALUES values in at
    most one process per usable CPU and one per PART_VALUES values, this
    one and forked children, and cuts it into contiguous column ranges of
    about equal width, parts.PIECES per process (csufs.parts.pieces), each
    scored by one range_sums call in whichever process in_parts runs it
    in; a range whose child does not deliver is scored here. A smaller
    matrix is one range. The sums have the same bits for any number of
    ranges. Every k is checked before any child forks.
    """
    values = _matrix(values)
    n, m = values.shape
    single = np.ndim(k) == 0
    ks = (k,) if single else tuple(k)
    grid = _kernel_grid(n, ks, mode)
    rows = np.empty((len(grid), m))
    workers, bounds = pieces(m, n * m // PART_VALUES)
    jobs = [functools.partial(range_sums, values, a, b, grid, mode) for a, b in zip(bounds, bounds[1:])]
    with in_parts(jobs, workers) as parts:
        for a, b, sums in zip(bounds, bounds[1:], parts):
            rows[:, a:b] = sums
    rows = rows[[grid.index(kk) for kk in ks]]
    return rows[0] if single else rows


def _prefix_selection(order: np.ndarray, scores: FeatureScores, d: int, method: Method) -> SelectionResult:
    """The first d entries of a full ranking. d > m clamps to all m with a
    warning aimed at the line that called the public selector."""
    require_integer("d", d, 1)
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


def rankings(X: Dataset, method: Method, k_values) -> list[np.ndarray]:
    """Every feature index of the already-normalized X, best first, once per
    entry of k_values, in the order given and duplicates kept. For csufs one
    kernel pass computes the distance sums of the whole k grid, and each k
    ranks the features from its own row, all by the same variances; other
    methods rank once per grid."""
    mode = {csufs_method: kernel_mode for kernel_mode, csufs_method in MODE_METHODS.items()}.get(method)
    if mode is None:
        m = X.n_features
        return [select_max_variance(X, m).selected if method is Method.MAX_VARIANCE else np.arange(m)] * len(k_values)
    grid_sums = knn_distance_sums(X.values, k_values, mode)
    variances = feature_variances(X)
    return [
        score_all_features(X, ScoringConfig(k=k, mode=mode), d=row, variances=variances).ranking()
        for k, row in zip(k_values, grid_sums)
    ]


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
