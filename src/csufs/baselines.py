"""Reference selectors: keep everything, or rank by variance."""

from __future__ import annotations

import numpy as np

from .data import Dataset, FeatureScores, Method, SelectionResult
from .preprocess import ensure_normalized
from .scoring import _prefix_selection, feature_variances


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


def select_max_variance(X: Dataset, d: int) -> SelectionResult:
    """The d largest-variance features of the sample-normalized matrix.

    Runs on the same normalized matrix the compactness selector scores, so
    the two methods compare like for like: a NormalizedDataset is used as
    it is, any other Dataset is normalized first. Ties fall to the lower
    index; d > m clamps with a warning.
    """
    scores = _variance_scores(ensure_normalized(X))
    order = np.lexsort((np.arange(scores.n_features), -scores.v))
    return _prefix_selection(order, scores, d, Method.MAX_VARIANCE)
