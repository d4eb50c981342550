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

    Rows with norm at most DEFAULT_ZERO_TOL pass through unchanged; a single
    dead row should not reject an otherwise usable matrix, so degenerate
    rows are only reported with a warning. The input Dataset is untouched.
    """
    vals = X.values
    norms = np.sqrt(np.einsum("ij,ij->i", vals, vals))
    out = np.array(vals, order="F")
    live = norms > DEFAULT_ZERO_TOL
    out[live] /= norms[live, np.newaxis]
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
