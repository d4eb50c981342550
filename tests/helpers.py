"""Shared test oracles, written independently of the library kernels, and a call counter."""

import itertools
import sys

import numpy as np

import csufs.preprocess


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
