"""Seeded clustering evaluation over selected feature subsets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, LabelVector, Method, is_integer
from .errors import LengthMismatch
from .kmeans import DEFAULT_CONV_TOL, DEFAULT_MAX_ITER, kmeans
from .metrics import clustering_accuracy, normalized_mutual_information
from .preprocess import ensure_normalized
from .scoring import rankings

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
        self.seeds = tuple(self.seeds)
        if not all(is_integer(s) for s in self.seeds):
            raise ValueError(f"seeds must be integers, got {self.seeds}")
        self.seeds = tuple(int(s) for s in self.seeds)
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be non-negative, got {min(self.seeds)}")
        for name in ("n_clusters", "max_iter"):
            value = getattr(self, name)
            if not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
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
    indices = np.asarray(selected)
    if indices.ndim != 1 or indices.size == 0:
        raise ValueError("selected must be a non-empty 1-D index list")
    if not np.issubdtype(indices.dtype, np.integer):  # a bool mask or float positions would be cast to indices
        raise ValueError(f"selected must hold integer indices, got dtype {indices.dtype}")
    indices = indices.astype(np.int64, copy=False)
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

    The matrix is normalized once, unless it is a NormalizedDataset, and
    scoring.rankings ranks its features once per k. Each d takes a prefix
    of the ranking (ALL_FEATURES takes all of it). Cells that select the
    same columns in the same order share one report. Every d and k must be
    at least 1, for every method; a d over the feature count takes all of
    them.
    """
    method = Method(method)
    d_values, k_values = list(d_values), list(k_values)
    for name, values in (("d_values", d_values), ("k_values", k_values)):
        if not values or not all(is_integer(v) and v >= 1 for v in values):
            raise ValueError(f"{name} must be a non-empty list of positive integers, got {values}")
    d_values, k_values = [int(d) for d in d_values], [int(k) for k in k_values]
    Xn = ensure_normalized(X)
    reports: dict[tuple[int, ...], EvalReport] = {}
    cells: list[SweepCell] = []
    for k, ranking in zip(k_values, rankings(Xn, method, k_values)):
        for d in d_values:
            columns = ranking if method is Method.ALL_FEATURES else ranking[:d]
            key = tuple(columns.tolist())
            if key not in reports:
                reports[key] = evaluate_selection(Xn, columns, truth, cfg, method=method)
            cells.append(SweepCell(d=d, k=k, report=reports[key]))
    return SweepReport(method=method, d_values=d_values, k_values=k_values, cells=cells)
