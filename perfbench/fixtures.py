"""Seeded synthetic CSV fixtures for the benchmark workloads.

The recipe is the one in scripts/make_synthetic.py (class-dependent means
with gaussian jitter on the first `informative` columns, uniform noise on
the rest, a header row and a trailing `class` column). It is kept here so
that edits under scripts/ cannot shift the benchmark's data.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

SIGMA = 0.1


def build(n: int, classes: int, informative: int, noise: int, seed: int):
    """Matrix (n, informative + noise) and integer labels for one seed."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % classes
    rng.shuffle(labels)
    means = np.linspace(-1.0, 1.0, classes)
    X = rng.uniform(-1.0, 1.0, (n, informative + noise))
    X[:, :informative] = means[labels][:, None] + rng.normal(0.0, SIGMA, (n, informative))
    return X, labels


def write_csv(path: Path, X: np.ndarray, labels: np.ndarray) -> int:
    """Write header f0..f{m-1},class and one row per sample; returns the byte size.

    Cells use Python's shortest round-trip repr, so parsing the file gives
    back X bit for bit.
    """
    lines = [",".join(f"f{j}" for j in range(X.shape[1])) + ",class"]
    for row, label in zip(X.tolist(), labels.tolist()):
        lines.append(",".join(map(repr, row)) + f",{label}")
    data = ("\n".join(lines) + "\n").encode("utf-8")
    Path(path).write_bytes(data)
    return len(data)
