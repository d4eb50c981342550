"""Seeded clustering evaluation over selected feature subsets.

evaluate_selection clusters one column list once per seed and scores the
labels against the truth. Every fit runs on one BLAS thread, held by
csufs.kmeans.kmeans_fit. A sweep evaluates each distinct column list of
its grid once. It deals them to parts (csufs.parts), longest first, each
to the part holding the fewest columns so far, when its fits hold at least
2 x scoring.PART_VALUES values clustered (samples x columns x seeds), the
kernel's own floor, and csufs.parts can hold BLAS to one thread; the
calling process evaluates the first part and a forked child each other
one. A profile or trace of the caller sees only the first part's
evaluations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .data import Dataset, LabelVector, Method, require_integer, require_integers
from .errors import LengthMismatch
from .kmeans import DEFAULT_CONV_TOL, DEFAULT_MAX_ITER, kmeans
from .metrics import clustering_accuracy, normalized_mutual_information
from .parts import in_parts, one_blas_thread, workers
from .preprocess import ensure_normalized
from .scoring import PART_VALUES, rankings

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
        self.seeds = tuple(require_integers("seeds", self.seeds, 0))
        for name in ("n_clusters", "max_iter"):
            require_integer(name, getattr(self, name), 1)
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


def _evaluate_each(X: Dataset, selections: list, truth: LabelVector, cfg: EvalConfig, method: Method) -> list:
    """evaluate_selection's report of each of selections, in order: the
    work of one fit part."""
    return [evaluate_selection(X, columns, truth, cfg, method=method) for columns in selections]


def _deal(sizes: list, count: int) -> list:
    """The indices of sizes dealt to count parts: largest first (the first
    of equal sizes first), each to the part with the smallest total so far
    (the first of equal totals)."""
    dealt = [[] for _ in range(count)]
    totals = [0] * count
    for i in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
        p = totals.index(min(totals))
        dealt[p].append(i)
        totals[p] += sizes[i]
    return dealt


def _evaluate_all(X: Dataset, selections: list, truth: LabelVector, cfg: EvalConfig, method: Method) -> list:
    """evaluate_selection's report of each of selections, in order, dealt
    to parts as sweep says."""
    import numpy.random  # kmeans seeds by it; loaded before any fit part forks, no child imports it (parts._fork)

    sizes = [len(columns) for columns in selections]
    values = X.n_samples * len(cfg.seeds) * sum(sizes)
    count = workers(len(selections), values // PART_VALUES)
    reports = [None] * len(selections)
    with one_blas_thread() as held:  # a forked fit part starts on one thread
        dealt = _deal(sizes, count if held else 1)
        jobs = [functools.partial(_evaluate_each, X, [selections[i] for i in part], truth, cfg, method) for part in dealt]
        with in_parts(jobs, len(jobs)) as parts:
            for part, part_reports in zip(dealt, parts):
                for i, report in zip(part, part_reports):
                    reports[i] = report
    return reports


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

    The distinct selections are evaluated after every ranking is known,
    with one csufs.parts.in_parts call. They are dealt longest first (the
    first seen of equal lengths first), each to the part holding the fewest
    columns so far (the first of equal parts); every selection is clustered
    on the same samples with the same seeds, so the parts' column totals
    differ by at most the longest selection. There is at most one part per
    usable CPU and one per scoring.PART_VALUES values clustered, and one
    where the loaded BLAS cannot be held to one thread
    (csufs.parts.one_blas_thread). Every fit runs on one BLAS thread
    (csufs.kmeans.kmeans_fit), and the parts are forked while it is held,
    so each child starts on one thread. A part whose child does not
    deliver is evaluated here. The reports have the same bits for any
    number of parts: the fits are the same calls on one thread each.
    """
    method = Method(method)
    d_values, k_values = require_integers("d_values", d_values, 1), require_integers("k_values", k_values, 1)
    Xn = ensure_normalized(X)
    selections: dict[tuple[int, ...], np.ndarray] = {}  # each distinct column list, first seen first
    grid: list[tuple[int, int, tuple[int, ...]]] = []
    for k, ranking in zip(k_values, rankings(Xn, method, k_values)):
        for d in d_values:
            columns = ranking if method is Method.ALL_FEATURES else ranking[:d]
            key = tuple(columns.tolist())
            selections.setdefault(key, columns)
            grid.append((d, k, key))
    reports = dict(zip(selections, _evaluate_all(Xn, list(selections.values()), truth, cfg, method)))
    cells = [SweepCell(d=d, k=k, report=reports[key]) for d, k, key in grid]
    return SweepReport(method=method, d_values=d_values, k_values=k_values, cells=cells)
