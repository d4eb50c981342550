"""Seeded k-means with plus-plus initialization.

Runs are fully reproducible: every random draw comes from a generator
seeded per call, assignment ties fall to the lowest cluster id, and
clusters that lose all members are re-seeded deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabelVector
from .errors import TooFewSamples

DEFAULT_MAX_ITER = 300
DEFAULT_CONV_TOL = 1e-4


@dataclass(eq=False)
class KMeansResult:
    labels: np.ndarray
    centers: np.ndarray
    inertia: float
    inertia_history: list[float]
    n_iter: int


def _plusplus_init(X: np.ndarray, n_clusters: int, rng: np.random.Generator) -> np.ndarray:
    """Spread initial centers by sampling points proportionally to their
    squared distance from the centers chosen so far."""
    n = X.shape[0]
    centers = np.empty((n_clusters, X.shape[1]))
    centers[0] = X[int(rng.integers(n))]
    diff = X - centers[0]
    d2 = np.einsum("ij,ij->i", diff, diff)
    for c in range(1, n_clusters):
        total = float(d2.sum())
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))  # every point already sits on a center
        centers[c] = X[idx]
        np.subtract(X, centers[c], out=diff)
        d2 = np.minimum(d2, np.einsum("ij,ij->i", diff, diff))
    return centers


def _squared_distances(X: np.ndarray, centers: np.ndarray, x_sq: np.ndarray) -> np.ndarray:
    # |x - c|^2 = |x|^2 - 2 x.c + |c|^2, clipped at zero against fp dips
    d2 = x_sq[:, np.newaxis] - 2.0 * (X @ centers.T) + np.einsum("ij,ij->i", centers, centers)[np.newaxis, :]
    np.maximum(d2, 0.0, out=d2)
    return d2


def kmeans_fit(
    X_sub,
    n_clusters: int,
    seed: int,
    max_iter: int = DEFAULT_MAX_ITER,
    conv_tol: float = DEFAULT_CONV_TOL,
) -> KMeansResult:
    """Lloyd iterations from a seeded plus-plus start.

    Stops at an assignment fixpoint, when the relative drop of the
    within-cluster squared-distance objective falls under conv_tol, or at
    max_iter. A cluster left with no members grabs the point farthest from
    its assigned centroid; each grab marks its point so later empty
    clusters pick distinct points. The objective never increases from one
    iteration to the next.
    """
    X = np.ascontiguousarray(X_sub, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("expected a 2-D matrix of samples")
    n = X.shape[0]
    if n_clusters < 1:
        raise ValueError(f"n_clusters must be positive, got {n_clusters}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be positive, got {max_iter}")
    if not conv_tol >= 0:  # NaN included: like a negative, it never fires
        raise ValueError(f"conv_tol must be non-negative, got {conv_tol}")
    if n < n_clusters:
        raise TooFewSamples(f"{n} samples cannot fill {n_clusters} clusters")
    rng = np.random.default_rng(seed)
    x_sq = np.einsum("ij,ij->i", X, X)
    centers = _plusplus_init(X, n_clusters, rng)
    labels = np.full(n, -1, dtype=np.int64)
    history: list[float] = []
    prev_inertia = np.inf
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        d2 = _squared_distances(X, centers, x_sq)
        new_labels = d2.argmin(axis=1).astype(np.int64)
        own = d2[np.arange(n), new_labels]
        sizes = np.bincount(new_labels, minlength=n_clusters)
        empty = np.flatnonzero(sizes == 0)
        if empty.size:
            # claim mask, not own itself: keeps picks distinct even when
            # every distance is zero, and keeps the inertia sum finite
            claim = own.copy()
            for c in empty:
                far = int(claim.argmax())
                new_labels[far] = c
                claim[far] = -np.inf
                own[far] = 0.0
                centers[c] = X[far]
        inertia = float(own.sum())
        history.append(inertia)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        if np.isfinite(prev_inertia):
            if prev_inertia <= 0.0:
                break  # objective already zero, nothing can improve
            if (prev_inertia - inertia) / prev_inertia < conv_tol:
                break
        prev_inertia = inertia
        counts = np.bincount(labels, minlength=n_clusters)
        for c in range(n_clusters):
            # a relocation can steal a singleton's only member; keep the old
            # center then instead of averaging nothing
            if counts[c]:
                centers[c] = X[labels == c].mean(axis=0)
    return KMeansResult(
        labels=labels,
        centers=centers,
        inertia=history[-1],
        inertia_history=history,
        n_iter=n_iter,
    )


def kmeans(
    X_sub,
    n_clusters: int,
    seed: int,
    max_iter: int = DEFAULT_MAX_ITER,
    conv_tol: float = DEFAULT_CONV_TOL,
) -> LabelVector:
    """Hard cluster assignments for one seeded run."""
    res = kmeans_fit(X_sub, n_clusters, seed, max_iter=max_iter, conv_tol=conv_tol)
    return LabelVector(labels=res.labels, n_classes=n_clusters)
