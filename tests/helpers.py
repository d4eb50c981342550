"""Shared test oracles, written independently of the library kernels, and call counters."""

import itertools
import sys
from dataclasses import dataclass, field

import numpy as np

import csufs.evaluation
import csufs.io
import csufs.parts
import csufs.preprocess
import csufs.scoring


def count_normalizations(monkeypatch):
    """Wrap normalize_samples at every csufs module that binds it, so a call
    from any of them counts; returns the list each call's input lands in."""
    original = csufs.preprocess.normalize_samples
    calls = []

    def counting(X):
        calls.append(X)
        return original(X)

    for name, module in list(sys.modules.items()):
        if name == "csufs" or name.startswith("csufs."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting)
    return calls


@dataclass
class Forks:
    """What csufs.parts forked for csufs.io, csufs.scoring and
    csufs.evaluation: the (start, stop) byte range of each load range, the
    row count of each written matrix part, the (start, stop) column range
    of each kernel part and, for each fit part, the column lists of the
    selections it evaluates."""

    loads: list = field(default_factory=list)
    writes: list = field(default_factory=list)
    kernels: list = field(default_factory=list)
    fits: list = field(default_factory=list)


def count_forks(monkeypatch, cpus):
    """Make csufs.parts see `cpus` usable CPUs and record each child it
    forks, read off the job handed to csufs.parts._fork: the byte range a
    load job parses, the row count a write job writes, the column range
    a kernel job scores or the selections a fit job evaluates. Any other
    job fails the test. Returns the Forks they land in."""
    fork = csufs.parts._fork
    forks = Forks()

    def counting(job):
        if job.func is csufs.io._parse_range:
            _, start, stop, _ = job.args
            forks.loads.append((start, stop))
        elif job.func is csufs.io._write_part:
            forks.writes.append(len(job.args[1]))
        elif job.func is csufs.scoring.range_sums:
            _, start, stop, _, _ = job.args
            forks.kernels.append((start, stop))
        else:
            assert job.func is csufs.evaluation._evaluate_each, f"unknown job {job!r}"
            _, selections, _, _, _ = job.args
            forks.fits.append([columns.tolist() for columns in selections])
        return fork(job)

    monkeypatch.setattr(csufs.parts, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(csufs.parts, "_fork", counting)
    return forks


def knn_sum_oracle(f, k):
    """Exhaustive per-sample oracle: form all n-1 distances for every sample
    and take the k smallest by partial selection (no full sort involved)."""
    f = np.asarray(f, dtype=np.float64)
    n = f.size
    total = 0.0
    for i in range(n):
        dist = np.abs(f - f[i])
        dist[i] = np.inf
        total += float(np.partition(dist, k - 1)[:k].sum())
    return total


def knn_sum_oracle_py(f, k):
    """Pure-python restatement used to cross-check the numpy oracle."""
    vals = [float(x) for x in f]
    total = 0.0
    for i, a in enumerate(vals):
        ds = sorted(abs(a - b) for j, b in enumerate(vals) if j != i)
        total += sum(ds[:k])
    return total


def acc_bruteforce_matched(s_labels, r_labels, c_s, c_r):
    """Best matched-sample count over every one-to-one label mapping,
    found by trying all permutations on the square-padded count table."""
    size = max(c_s, c_r)
    table = np.zeros((size, size), dtype=int)
    for a, b in zip(s_labels, r_labels):
        table[a, b] += 1
    return assignment_bruteforce_total(table)


def assignment_bruteforce_total(table):
    """Largest sum of one entry per row and column of a square table,
    found by trying every permutation."""
    size = len(table)
    best = 0
    for perm in itertools.permutations(range(size)):
        best = max(best, sum(table[perm[j], j] for j in range(size)))
    return best


def random_labels(rng, n, c):
    """A label vector of length n that uses every class in 0..c-1."""
    if n < c:
        raise ValueError("need at least one sample per class")
    labels = np.concatenate([np.arange(c), rng.integers(0, c, n - c)])
    rng.shuffle(labels)
    return labels


def make_two_class_data(rng, n=300, informative=10, noise=90, sigma=0.1):
    """Balanced two-class matrix: informative columns sit at -1/+1 per class
    plus gaussian jitter, noise columns are uniform on [-1, 1]."""
    labels = np.array([0] * (n // 2) + [1] * (n - n // 2))
    means = np.where(labels == 0, -1.0, 1.0)
    X = rng.uniform(-1.0, 1.0, (n, informative + noise))
    for j in range(informative):
        X[:, j] = means + rng.normal(0.0, sigma, n)
    return X, labels


def kmeans_fit_reference(X_sub, n_clusters, seed, max_iter=300, conv_tol=1e-4):
    """k-means as csufs ran it before its matrix-form rewrite, frozen as an
    oracle: plus-plus distances from an explicit difference matrix, each
    center the mean of its cluster's row subset. Returns (labels, n_iter,
    number of empty-cluster re-seeds, number of times a cluster emptied by
    a re-seed kept its old center)."""
    X = np.ascontiguousarray(X_sub, dtype=np.float64)
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    x_sq = np.einsum("ij,ij->i", X, X)

    def squared_distances(centers):
        d2 = x_sq[:, np.newaxis] - 2.0 * (X @ centers.T) + np.einsum("ij,ij->i", centers, centers)[np.newaxis, :]
        np.maximum(d2, 0.0, out=d2)
        return d2

    centers = np.empty((n_clusters, X.shape[1]))
    centers[0] = X[int(rng.integers(n))]
    diff = X - centers[0]
    d2 = np.einsum("ij,ij->i", diff, diff)
    for c in range(1, n_clusters):
        total = float(d2.sum())
        idx = int(rng.choice(n, p=d2 / total)) if total > 0.0 else int(rng.integers(n))
        centers[c] = X[idx]
        np.subtract(X, centers[c], out=diff)
        d2 = np.minimum(d2, np.einsum("ij,ij->i", diff, diff))

    labels = np.full(n, -1, dtype=np.int64)
    prev_inertia = np.inf
    reseeds = kept = 0
    for n_iter in range(1, max_iter + 1):
        d2 = squared_distances(centers)
        new_labels = d2.argmin(axis=1).astype(np.int64)
        own = d2[np.arange(n), new_labels]
        empty = np.flatnonzero(np.bincount(new_labels, minlength=n_clusters) == 0)
        if empty.size:
            claim = own.copy()
            for c in empty:
                far = int(claim.argmax())
                new_labels[far] = c
                claim[far] = -np.inf
                own[far] = 0.0
                centers[c] = X[far]
                reseeds += 1
        inertia = float(own.sum())
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        if np.isfinite(prev_inertia):
            if prev_inertia <= 0.0:
                break
            if (prev_inertia - inertia) / prev_inertia < conv_tol:
                break
        prev_inertia = inertia
        counts = np.bincount(labels, minlength=n_clusters)
        for c in range(n_clusters):
            if counts[c]:
                centers[c] = X[labels == c].mean(axis=0)
            else:
                kept += 1
    return labels, n_iter, reseeds, kept


def kmeans_fit_matrix_reference(X_sub, n_clusters, seed, max_iter=300, conv_tol=1e-4):
    """k-means as csufs ran it in matrix form with (n, K) distances, frozen
    as a bit-for-bit oracle: argmin labels, every center from one product of
    the one-hot membership matrix with X. Returns (labels, centers,
    inertia history, n_iter)."""
    X = np.asarray(X_sub, dtype=np.float64)
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    x_sq = np.einsum("ij,ij->i", X, X)

    def squared_distances(centers):
        d2 = X @ centers.T
        d2 *= -2.0
        d2 += x_sq[:, np.newaxis]
        d2 += np.einsum("ij,ij->i", centers, centers)[np.newaxis, :]
        np.maximum(d2, 0.0, out=d2)
        return d2

    centers = np.empty((n_clusters, X.shape[1]))
    centers[0] = X[int(rng.integers(n))]
    d2 = squared_distances(centers[:1])[:, 0]
    for c in range(1, n_clusters):
        total = float(d2.sum())
        idx = int(rng.choice(n, p=d2 / total)) if total > 0.0 else int(rng.integers(n))
        centers[c] = X[idx]
        np.minimum(d2, squared_distances(centers[c : c + 1])[:, 0], out=d2)

    ids = np.arange(n_clusters)
    rows = np.arange(n)
    labels = np.full(n, -1, dtype=np.int64)
    history = []
    prev_inertia = np.inf
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        d2 = squared_distances(centers)
        new_labels = d2.argmin(axis=1)
        own = d2[rows, new_labels]
        empty = np.flatnonzero(np.bincount(new_labels, minlength=n_clusters) == 0)
        if empty.size:
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
                break
            if (prev_inertia - inertia) / prev_inertia < conv_tol:
                break
        prev_inertia = inertia
        onehot = (labels == ids[:, np.newaxis]).astype(np.float64)
        counts = np.bincount(labels, minlength=n_clusters)
        filled = counts > 0
        centers[filled] = (onehot @ X)[filled] / counts[filled, np.newaxis]
    return labels, centers, history, n_iter
