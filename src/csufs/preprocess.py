"""Sample-wise unit-norm scaling applied ahead of scoring and clustering."""

from __future__ import annotations

import warnings

import numpy as np

from .data import Dataset

DEFAULT_ZERO_TOL = 1e-12


class NormalizedDataset(Dataset):
    """What normalize_samples returns; selectors, evaluate_selection and sweep use it as it is."""


def normalize_samples(X: Dataset) -> NormalizedDataset:
    """Scale every sample (row) to unit Euclidean length.

    One division by a per-row scale writes the array the result owns; the
    input Dataset is untouched. Rows with norm at most DEFAULT_ZERO_TOL get
    scale 1.0 and pass through unchanged; a single dead row should not reject
    an otherwise usable matrix, so degenerate rows are only reported with a
    warning. Rows whose squared norm overflows are first scaled down.
    """
    vals = X.values
    norms = np.sqrt(np.einsum("ij,ij->i", vals, vals))
    live = norms > DEFAULT_ZERO_TOL
    out = np.divide(vals, np.where(live, norms, 1.0)[:, np.newaxis], order="F")
    huge = np.isinf(norms)
    rows = vals[huge] / np.abs(vals[huge]).max(axis=1, keepdims=True)
    out[huge] = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    n_dead = int(out.shape[0] - live.sum())
    if n_dead:
        warnings.warn(
            f"{n_dead} sample(s) with near-zero norm left unnormalized",
            RuntimeWarning,
            stacklevel=2,
        )
    return NormalizedDataset(out, X.feature_names)


def ensure_normalized(X: Dataset) -> NormalizedDataset:
    """X itself when it is already a NormalizedDataset, else normalize_samples(X)."""
    return X if isinstance(X, NormalizedDataset) else normalize_samples(X)
