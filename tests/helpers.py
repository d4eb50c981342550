"""Shared test oracles, written independently of the library kernels, call
counters, and the loader of the scripts under test."""

import ast
import importlib
import itertools
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import csufs.evaluation
import csufs.io
import csufs.parts
import csufs.preprocess
import csufs.scoring

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    """scripts/NAME.py as a module, with scripts/ on sys.path for its `import launch`."""
    if str(SCRIPTS) not in sys.path:
        sys.path.insert(0, str(SCRIPTS))
    return importlib.import_module(name)


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
class Split:
    """One split stage's call to csufs.parts.in_parts: the processes it may
    use, this one included, and what each of its pieces does, in order."""

    workers: int
    pieces: list


@dataclass
class Forks:
    """Each split (a call with more than one piece) that csufs.io,
    csufs.scoring and csufs.evaluation hand csufs.parts, by stage: a load's
    pieces are the (start, stop) byte ranges it parses, a written matrix's
    the row count of each range, a kernel's the (start, stop) column range
    each scores and a sweep's fits the column lists of the selections each
    evaluates. children counts the children csufs.parts._fork was asked
    for, all stages together."""

    loads: list = field(default_factory=list)
    writes: list = field(default_factory=list)
    kernels: list = field(default_factory=list)
    fits: list = field(default_factory=list)
    children: int = 0


def _piece(job) -> tuple[str, object]:
    """(stage, what the job does) of one job of a split stage; any other
    job fails the test."""
    if job.func is csufs.io._parse_range:
        return "loads", tuple(job.args[1:3])
    if job.func in (csufs.io._write_rows, csufs.io._write_part):
        return "writes", len(job.args[1])
    if job.func is csufs.scoring.range_sums:
        return "kernels", tuple(job.args[1:3])
    assert job.func is csufs.evaluation._evaluate_each, f"unknown job {job!r}"
    return "fits", [columns.tolist() for columns in job.args[1]]


def count_forks(monkeypatch, cpus):
    """Make csufs.parts see `cpus` usable CPUs, record each split that a
    stage hands csufs.parts.in_parts and count each child it forks. Returns
    the Forks they land in."""
    in_parts, fork = csufs.parts.in_parts, csufs.parts._fork
    forks = Forks()

    def recording(jobs, workers):
        if len(jobs) > 1:
            stages, pieces = zip(*map(_piece, jobs))
            assert len(set(stages)) == 1, f"jobs of several stages {stages}"
            getattr(forks, stages[0]).append(Split(workers, list(pieces)))
        return in_parts(jobs, workers)

    def forking(job):
        forks.children += 1
        return fork(job)

    for module in (csufs.io, csufs.scoring, csufs.evaluation):
        monkeypatch.setattr(module, "in_parts", recording)
    monkeypatch.setattr(csufs.parts, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(csufs.parts, "_fork", forking)
    return forks


def tiles(pieces, start, stop) -> bool:
    """Whether the (start, stop) ranges of pieces, in order, cover
    [start, stop) once each: each starts where the one before stopped."""
    ends = [start] + [b for _, b in pieces]
    return bool(pieces) and [a for a, _ in pieces] == ends[:-1] and ends[-1] == stop


def record_calls(monkeypatch, module, name, log, describe):
    """Wrap module.name so that each call, here or in a forked child, appends
    (pid, describe(*args)) to the file log; returns a function that reads
    the records back, in the order they were made."""
    original = getattr(module, name)

    def recording(*args):
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, (repr((os.getpid(), describe(*args))) + "\n").encode())
        finally:
            os.close(fd)
        return original(*args)

    def read():
        lines = log.read_text().splitlines() if log.exists() else []
        return [ast.literal_eval(line) for line in lines]

    monkeypatch.setattr(module, name, recording)
    return read


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
