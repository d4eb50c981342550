"""Core value types: datasets, label vectors, score bundles, selections."""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .errors import EmptyMatrix, NonFiniteEntry


def is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def require_integer(name: str, value, least: int) -> None:
    """Raise a ValueError naming name unless value is an integer (see
    is_integer) of at least least, which is 0 or 1."""
    if not is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be {'positive' if least else 'non-negative'}, got {value}")


def require_integers(name: str, values, least: int) -> list[int]:
    """values as a list of ints: a ValueError naming name unless values is
    non-empty and holds only integers (see is_integer) of at least least,
    which is 0 or 1."""
    values = list(values)
    if not values:
        raise ValueError(f"{name} must be non-empty")
    if not all(is_integer(v) for v in values):
        raise ValueError(f"{name} must be integers, got {values}")
    require_integer(name, min(values), least)
    return [int(v) for v in values]


class Method(str, Enum):
    """Selector identities recorded in results and reports."""

    CSUFS_OPTIMIZED = "csufs_optimized"
    CSUFS_NAIVE = "csufs_naive"
    MAX_VARIANCE = "max_variance"
    ALL_FEATURES = "all_features"


@dataclass(eq=False)
class Dataset:
    """Dense matrix of n samples (rows) by m features (columns).

    Takes and freezes the array it is handed when that is float64 and
    column-contiguous, and converts anything else, so a Dataset can be shared
    freely and per-feature column access is a contiguous read-only view.
    Construction rejects empty matrices and non-finite entries.
    """

    values: np.ndarray
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64, order="F")
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got ndim={arr.ndim}")
        if arr.shape[0] == 0 or arr.shape[1] == 0:
            raise EmptyMatrix(f"matrix must have at least one sample and one feature, got shape {arr.shape}")
        finite = np.isfinite(arr)
        if not finite.all():
            row, col = np.argwhere(~finite)[0]
            raise NonFiniteEntry(int(row), int(col))
        arr.flags.writeable = False
        self.values = arr
        if self.feature_names is not None:
            names = tuple(str(s) for s in self.feature_names)
            if len(names) != arr.shape[1]:
                raise ValueError(f"got {len(names)} feature names for {arr.shape[1]} columns")
            self.feature_names = names

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def feature(self, r: int) -> np.ndarray:
        """Read-only contiguous view of column r."""
        return self.values[:, r]


def validate_dataset(values, feature_names=None) -> Dataset:
    """Check a raw matrix and wrap it as an immutable Dataset.

    The one place a matrix from outside is copied: into a float64, column-
    contiguous array the Dataset owns; the input is never mutated. Raises
    EmptyMatrix when either dimension is zero and NonFiniteEntry (with
    row/col of the first bad cell) when a value is NaN or infinite.
    """
    return Dataset(np.array(values, dtype=np.float64, order="F"), feature_names)


@dataclass(eq=False)
class LabelVector:
    """Hard assignments for n samples, values in 0..n_classes-1."""

    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        arr = np.asarray(self.labels)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("labels must be a non-empty 1-D sequence")
        if not np.issubdtype(arr.dtype, np.integer):  # bool included: it is no class index
            raise ValueError(f"labels must be integers, got dtype {arr.dtype}")
        require_integer("n_classes", self.n_classes, 1)
        if arr.min() < 0 or arr.max() >= self.n_classes:
            raise ValueError(f"labels must lie in 0..{self.n_classes - 1}")
        arr = arr.astype(np.int64)  # always a copy, so freezing it leaves the caller's array alone
        arr.flags.writeable = False
        self.labels = arr
        self.n_classes = int(self.n_classes)

    @classmethod
    def from_raw(cls, raw) -> "LabelVector":
        """Canonicalize arbitrary distinct labels to a dense 0-based range.

        Two samples share a canonical label exactly when they share a raw
        label; gaps and arbitrary tokens in the input are collapsed away.
        """
        arr = np.asarray(raw)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("labels must be a non-empty 1-D sequence")
        uniques, inverse = np.unique(arr, return_inverse=True)
        return cls(labels=inverse.astype(np.int64), n_classes=int(uniques.size))

    def __len__(self) -> int:
        return int(self.labels.size)


def _fields_equal(self, other):
    """Dataclass equality for results holding arrays: arrays compare by shape and values."""
    if not isinstance(other, type(self)):
        return NotImplemented
    return all(
        np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
        for a, b in ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
    )


@dataclass(eq=False)
class FeatureScores:
    """Per-feature distance sums, variances, means and compactness scores.

    k_used is None when the bundle comes from a selector that never ran a
    kNN pass; baseline selectors fill d and cs with zeros.
    """

    d: np.ndarray
    v: np.ndarray
    cs: np.ndarray
    mu: np.ndarray
    k_used: int | None

    def __post_init__(self):
        self.d = np.asarray(self.d, dtype=np.float64)
        self.v = np.asarray(self.v, dtype=np.float64)
        self.cs = np.asarray(self.cs, dtype=np.float64)
        self.mu = np.asarray(self.mu, dtype=np.float64)
        if not (self.d.shape == self.v.shape == self.cs.shape == self.mu.shape) or self.d.ndim != 1:
            raise ValueError("d, v, cs, mu must be 1-D arrays of equal length")
        if self.k_used is not None:
            self.k_used = int(self.k_used)

    @property
    def n_features(self) -> int:
        return int(self.cs.size)

    def ranking(self) -> np.ndarray:
        """All feature indices by ascending score; ties fall to the lower index."""
        return np.lexsort((np.arange(self.n_features), self.cs))

    __eq__ = _fields_equal


@dataclass(eq=False)
class SelectionResult:
    """Selected feature indices (ascending score order) plus their scores."""

    selected: np.ndarray
    scores: FeatureScores
    method: Method
    d_requested: int

    def __post_init__(self):
        self.selected = np.asarray(self.selected, dtype=np.int64)
        self.method = Method(self.method)
        self.d_requested = int(self.d_requested)

    def __len__(self) -> int:
        return int(self.selected.size)

    __eq__ = _fields_equal
