"""Seeded clustering evaluation over selected feature subsets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, LabelVector, Method
from .errors import LengthMismatch
from .kmeans import DEFAULT_CONV_TOL, DEFAULT_MAX_ITER, kmeans
from .metrics import clustering_accuracy, normalized_mutual_information
from .preprocess import ensure_normalized
from .scoring import MODE_METHODS, ScoringConfig, knn_distance_sums, score_all_features, select_max_variance

DEFAULT_SEEDS = tuple(range(10))


@dataclass
class EvalConfig:
    """One evaluation protocol: cluster count, seed list, stop rules.

    Reuse the same seed list when comparing selectors so every method sees
    identical clustering initializations.
    """

    n_clusters: int
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    max_iter: int = DEFAULT_MAX_ITER
    conv_tol: float = DEFAULT_CONV_TOL

    def __post_init__(self):
        self.seeds = tuple(int(s) for s in self.seeds)
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be non-negative, got {min(self.seeds)}")
        if self.n_clusters < 1:
            raise ValueError(f"n_clusters must be positive, got {self.n_clusters}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be positive, got {self.max_iter}")
        if not self.conv_tol >= 0:  # NaN included: like a negative, it never stops a run
            raise ValueError(f"conv_tol must be non-negative, got {self.conv_tol}")


@dataclass
class EvalReport:
    """Per-seed and averaged clustering agreement for one feature subset."""

    per_seed: list[tuple[int, float, float]]  # (seed, acc, nmi)
    mean_acc: float
    mean_nmi: float
    n_features_used: int
    method: Method

    def __post_init__(self):
        self.per_seed = [(int(s), float(a), float(m)) for s, a, m in self.per_seed]
        self.method = Method(self.method)


def evaluate_selection(
    X: Dataset,
    selected,
    truth: LabelVector,
    cfg: EvalConfig,
    method: Method = Method.ALL_FEATURES,
) -> EvalReport:
    """Cluster the selected columns once per seed and score against truth.

    Columns are taken from the sample-normalized matrix, matching the
    preprocessing the selectors apply: a NormalizedDataset is used as it
    is, any other Dataset is normalized first. `method` only labels the
    report. An index outside 0..m-1 raises ValueError naming it.
    """
    indices = np.asarray(selected, dtype=np.int64)
    if indices.ndim != 1 or indices.size == 0:
        raise ValueError("selected must be a non-empty 1-D index list")
    outside = indices[(indices < 0) | (indices >= X.n_features)]
    if outside.size:
        raise ValueError(f"selected index {outside[0]} is outside 0..{X.n_features - 1}")
    if len(truth) != X.n_samples:
        raise LengthMismatch(f"{len(truth)} labels for {X.n_samples} samples")
    # copies the selected columns only (np.take on the Fortran-order matrix
    # would first copy all of it to C order)
    sub = ensure_normalized(X).values[:, indices]
    per_seed: list[tuple[int, float, float]] = []
    for seed in cfg.seeds:
        found = kmeans(sub, cfg.n_clusters, seed, max_iter=cfg.max_iter, conv_tol=cfg.conv_tol)
        acc = clustering_accuracy(truth, found)
        nmi = normalized_mutual_information(truth, found)
        per_seed.append((int(seed), acc, nmi))
    return EvalReport(
        per_seed=per_seed,
        mean_acc=float(np.mean([a for _, a, _ in per_seed])),
        mean_nmi=float(np.mean([m for _, _, m in per_seed])),
        n_features_used=int(indices.size),
        method=Method(method),
    )


@dataclass
class SweepCell:
    d: int
    k: int
    report: EvalReport


@dataclass
class SweepReport:
    """Evaluation grid over feature counts d and neighbor counts k."""

    method: Method
    d_values: list[int]
    k_values: list[int]
    cells: list[SweepCell]


def sweep(
    X: Dataset,
    truth: LabelVector,
    method: Method,
    d_values,
    k_values,
    cfg: EvalConfig,
) -> SweepReport:
    """One evaluation per (d, k) grid cell.

    The matrix is normalized once, unless it is a NormalizedDataset. For
    csufs one kernel pass computes the distance sums of the whole k grid,
    and each k ranks the features from its own row; other methods rank
    once per grid. Each d takes a prefix of the ranking (ALL_FEATURES
    takes all of it). Cells that select the same columns in the same order
    share one report. Every d and k must be at least 1, for every method;
    a d over the feature count takes all of them.
    """
    method = Method(method)
    d_values = [int(d) for d in d_values]
    k_values = [int(k) for k in k_values]
    for name, values in (("d_values", d_values), ("k_values", k_values)):
        if not values or min(values) < 1:
            raise ValueError(f"{name} must be a non-empty list of positive integers, got {values}")
    Xn = ensure_normalized(X)
    m = Xn.n_features
    mode = {csufs_method: kernel_mode for kernel_mode, csufs_method in MODE_METHODS.items()}.get(method)
    ranking = select_max_variance(Xn, m).selected if method is Method.MAX_VARIANCE else np.arange(m)
    if mode is not None:
        grid_sums = knn_distance_sums(Xn.values, k_values, mode)
    reports: dict[tuple[int, ...], EvalReport] = {}
    cells: list[SweepCell] = []
    for i, k in enumerate(k_values):
        if mode is not None:
            ranking = score_all_features(Xn, ScoringConfig(k=k, mode=mode), d=grid_sums[i]).ranking()
        for d in d_values:
            columns = ranking if method is Method.ALL_FEATURES else ranking[:d]
            key = tuple(columns.tolist())
            if key not in reports:
                reports[key] = evaluate_selection(Xn, columns, truth, cfg, method=method)
            cells.append(SweepCell(d=d, k=k, report=reports[key]))
    return SweepReport(method=method, d_values=d_values, k_values=k_values, cells=cells)
