"""Seeded k-means with plus-plus initialization.

Runs are fully reproducible: every random draw comes from a generator
seeded per call, assignment ties fall to the lowest cluster id, and
clusters that lose all members are re-seeded deterministically.

Every fit runs on one BLAS thread: kmeans_fit holds the OpenBLAS that
numpy loaded to one thread (csufs.parts.one_blas_thread) for its
plus-plus start and its Lloyd loop, whose products are csufs's only BLAS
calls, and restores the thread count after. So `evaluate`, a sweep in one
part or in several, and a library call all fit the same way, and no fit
spins a pool of BLAS threads on cores that other processes hold. On 2
cores beside two busy processes, `csufs evaluate --d 100 --seeds 0..9` on
sweep_grid's fixture took a median 2.9 s with its fits on the pool and
0.69 s on one thread. On idle cores the pool is faster only for wide fits:
over select_wide's 500 columns they took 1.1-1.4x as long on one thread,
and `evaluate --method all` took a median 1.11 s end to end, against
1.06 s on the pool; at 100 columns the command was level. Holding and
restoring costs about 3.5 us a fit. Where no OpenBLAS control is found,
nothing is changed. One thread gives the products the bits of the pool
(tests/test_kmeans.py's references run on the pool).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabelVector, require_integer
from .errors import NonFiniteEntry, TooFewSamples
from .parts import one_blas_thread

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
    d2 = _squared_distances(X, centers[:1], x_sq)[0]
    for c in range(1, n_clusters):
        total = float(d2.sum())
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))  # every point already sits on a center
        centers[c] = X[idx]
        np.minimum(d2, _squared_distances(X, centers[c : c + 1], x_sq)[0], out=d2)
    return centers


def _squared_distances(X: np.ndarray, centers: np.ndarray, x_sq: np.ndarray) -> np.ndarray:
    """(K, n) squared distances of every point to every center: row c holds
    center c's. |x - c|^2 = |x|^2 - 2 x.c + |c|^2, clipped at zero against
    fp dips, formed in place in one K x n buffer, so every broadcast runs
    along a contiguous row. The product is X @ centers.T, transposed once;
    each cell has the bits it had when the buffer was n x K."""
    d2 = (X @ centers.T).T.copy()
    d2 *= -2.0
    d2 += x_sq[np.newaxis, :]
    d2 += np.einsum("ij,ij->i", centers, centers)[:, np.newaxis]
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
    max_iter. Each iteration holds its distances in one (K, n) buffer, a row
    per center (see _squared_distances): a point's squared distance to its
    own center is the minimum down its column, and its label the first
    cluster at that minimum, as argmin would pick. Each update takes every
    center at once from one product of the one-hot cluster membership
    matrix with X, divided by the cluster sizes. A cluster left with no
    members grabs the point farthest from its assigned centroid; each grab
    marks its point so later empty clusters pick distinct points. The
    objective never increases from one iteration to the next. A float64 X
    is used as it is, in C or Fortran order. A NaN or an infinity raises
    NonFiniteEntry at the first row holding one, a finite row whose squared
    norm overflows ValueError.
    n_clusters and max_iter must be positive integers and seed a
    non-negative one (a bool is not an integer). The start and the
    iterations run on one BLAS thread (see the module docstring).
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
    finite = np.isfinite(x_sq)
    if not finite.all():
        row = int(np.flatnonzero(~finite)[0])
        bad = np.flatnonzero(~np.isfinite(X[row]))
        if bad.size:
            raise NonFiniteEntry(row, int(bad[0]))
        raise ValueError(f"row {row}'s squared norm overflows")
    with one_blas_thread():
        centers = _plusplus_init(X, n_clusters, x_sq, rng)
        ids = np.arange(n_clusters)
        labels = np.full(n, -1, dtype=np.int64)
        history: list[float] = []
        prev_inertia = np.inf
        n_iter = 0
        for n_iter in range(1, max_iter + 1):
            d2 = _squared_distances(X, centers, x_sq)
            own = d2.min(axis=0)
            # a point's label counts the leading clusters it is not nearest to:
            # argmin's lowest id on a tie, without argmin's strided scan
            behind = d2[0] != own
            new_labels = behind.astype(np.int64)
            for row in d2[1:-1]:
                behind &= row != own
                new_labels += behind
            counts = np.bincount(new_labels, minlength=n_clusters)
            empty = np.flatnonzero(counts == 0)
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
                counts = np.bincount(new_labels, minlength=n_clusters)
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
            sums = (labels == ids[:, np.newaxis]).astype(np.float64) @ X
            np.divide(sums, counts[:, np.newaxis], out=centers, where=(counts > 0)[:, np.newaxis])
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
