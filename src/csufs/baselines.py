"""Reference selectors: keep everything, or rank by variance."""

from __future__ import annotations

import warnings

import numpy as np

from .data import Dataset, FeatureScores, Method, SelectionResult
from .preprocess import normalize_samples
from .scoring import feature_variances


def _variance_scores(X: Dataset) -> FeatureScores:
    m = X.n_features
    v, mu = feature_variances(X)
    return FeatureScores(d=np.zeros(m), v=v, cs=np.zeros(m), mu=mu, k_used=None)


def select_all(X: Dataset) -> SelectionResult:
    """Identity selection; variances are computed for reporting only."""
    scores = _variance_scores(X)
    return SelectionResult(
        selected=np.arange(X.n_features, dtype=np.int64),
        scores=scores,
        method=Method.ALL_FEATURES,
        d_requested=X.n_features,
    )


def select_max_variance(X_raw: Dataset, d: int) -> SelectionResult:
    """The d largest-variance features of the sample-normalized matrix.

    Runs on the same normalized matrix the compactness selector scores, so
    the two methods compare like for like. Ties fall to the lower index;
    d > m clamps with a warning.
    """
    if d < 1:
        raise ValueError(f"d must be a positive integer, got {d}")
    scores = _variance_scores(normalize_samples(X_raw))
    m = scores.n_features
    if d > m:
        warnings.warn(f"requested d={d} features but only {m} exist; selecting all {m}", stacklevel=2)
    order = np.lexsort((np.arange(m), -scores.v))
    return SelectionResult(
        selected=order[: min(d, m)],
        scores=scores,
        method=Method.MAX_VARIANCE,
        d_requested=d,
    )
