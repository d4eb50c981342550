"""Seeded k-means with plus-plus initialization.

Runs are fully reproducible: every random draw comes from a generator
seeded per call, assignment ties fall to the lowest cluster id, and
clusters that lose all members are re-seeded deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabelVector, require_integer
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


def _plusplus_init(X: np.ndarray, n_clusters: int, x_sq: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Spread initial centers by sampling points proportionally to their
    squared distance from the centers chosen so far."""
    n = X.shape[0]
    centers = np.empty((n_clusters, X.shape[1]))
    centers[0] = X[int(rng.integers(n))]
    d2 = _squared_distances(X, centers[:1], x_sq)[:, 0]
    for c in range(1, n_clusters):
        total = float(d2.sum())
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))  # every point already sits on a center
        centers[c] = X[idx]
        np.minimum(d2, _squared_distances(X, centers[c : c + 1], x_sq)[:, 0], out=d2)
    return centers


def _squared_distances(X: np.ndarray, centers: np.ndarray, x_sq: np.ndarray) -> np.ndarray:
    # |x - c|^2 = |x|^2 - 2 x.c + |c|^2, clipped at zero against fp dips;
    # formed in place in the product's buffer, no n x d temporary
    d2 = X @ centers.T
    d2 *= -2.0
    d2 += x_sq[:, np.newaxis]
    d2 += np.einsum("ij,ij->i", centers, centers)[np.newaxis, :]
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
    max_iter. Each update takes every center at once from one product of the
    one-hot cluster membership matrix with X, divided by the cluster sizes.
    A cluster left with no members grabs the point farthest from its
    assigned centroid; each grab marks its point so later empty clusters
    pick distinct points. The objective never increases from one iteration
    to the next. A float64 X is used as it is, in C or Fortran order.
    n_clusters and max_iter must be positive integers and seed a
    non-negative one (a bool is not an integer).
    """
    X = np.asarray(X_sub, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("expected a 2-D matrix of samples")
    for name, value, least in (("n_clusters", n_clusters, 1), ("seed", seed, 0), ("max_iter", max_iter, 1)):
        require_integer(name, value, least)
    n = X.shape[0]
    if not conv_tol >= 0:  # NaN included: like a negative, it never fires
        raise ValueError(f"conv_tol must be non-negative, got {conv_tol}")
    if n < n_clusters:
        raise TooFewSamples(f"{n} samples cannot fill {n_clusters} clusters")
    rng = np.random.default_rng(seed)
    x_sq = np.einsum("ij,ij->i", X, X)
    centers = _plusplus_init(X, n_clusters, x_sq, rng)
    ids = np.arange(n_clusters)
    rows = np.arange(n)
    labels = np.full(n, -1, dtype=np.int64)
    history: list[float] = []
    prev_inertia = np.inf
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        d2 = _squared_distances(X, centers, x_sq)
        new_labels = d2.argmin(axis=1)
        own = d2[rows, new_labels]
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
        # every cluster's sum in one product with the one-hot membership
        # matrix; a relocation can steal a singleton's only member, so an
        # empty cluster keeps its old center instead of averaging nothing
        onehot = (labels == ids[:, np.newaxis]).astype(np.float64)
        counts = np.bincount(labels, minlength=n_clusters)
        filled = counts > 0
        centers[filled] = (onehot @ X)[filled] / counts[filled, np.newaxis]
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
