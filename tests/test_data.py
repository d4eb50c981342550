import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from csufs import (
    Dataset,
    EmptyMatrix,
    FeatureScores,
    LabelVector,
    Method,
    NonFiniteEntry,
    SelectionResult,
    validate_dataset,
)
from csufs.data import require_integers


def test_validate_accepts_rectangular_matrix():
    ds = validate_dataset([[1.0, 2.0], [3.0, 4.0]])
    assert ds.n_samples == 2
    assert ds.n_features == 2
    assert np.array_equal(ds.values, [[1.0, 2.0], [3.0, 4.0]])


def test_validate_rejects_empty():
    with pytest.raises(EmptyMatrix):
        validate_dataset(np.empty((0, 5)))
    with pytest.raises(EmptyMatrix):
        validate_dataset(np.empty((5, 0)))


def test_validate_reports_first_non_finite_cell():
    with pytest.raises(NonFiniteEntry) as exc:
        validate_dataset([[1.0, float("nan")], [3.0, 4.0]])
    assert exc.value.row == 0
    assert exc.value.col == 1
    with pytest.raises(NonFiniteEntry) as exc:
        validate_dataset([[1.0, 2.0], [float("inf"), 4.0]])
    assert (exc.value.row, exc.value.col) == (1, 0)


def test_validate_never_mutates_input():
    # the Fortran-order float64 array is the layout a Dataset takes without
    # copying, so only validate_dataset's own copy keeps the caller's apart
    for arr in (np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[1.0, 2.0], [3.0, 4.0]], order="F")):
        before = arr.copy()
        ds = validate_dataset(arr)
        arr[0, 0] = 99.0  # the dataset must hold its own copy
        assert np.array_equal(ds.values[0], before[0])
        assert arr.flags.writeable


def test_dataset_takes_and_freezes_a_float64_fortran_array():
    arr = np.array([[1.0, 2.0], [3.0, 4.0]], order="F")
    ds = Dataset(arr)
    assert ds.values is arr
    assert not arr.flags.writeable


def test_dataset_converts_any_other_layout_or_dtype():
    for arr in (np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[1, 2], [3, 4]], order="F")):
        ds = Dataset(arr)
        assert ds.values.dtype == np.float64 and ds.values.flags["F_CONTIGUOUS"]
        assert not np.shares_memory(ds.values, arr)
        assert arr.flags.writeable


def test_dataset_values_are_frozen():
    ds = validate_dataset([[1.0, 2.0]])
    with pytest.raises(ValueError):
        ds.values[0, 0] = 5.0


def test_feature_view_is_contiguous():
    ds = validate_dataset(np.arange(12.0).reshape(3, 4))
    col = ds.feature(2)
    assert col.flags["C_CONTIGUOUS"]
    assert np.array_equal(col, [2.0, 6.0, 10.0])


def test_feature_names_length_checked():
    with pytest.raises(ValueError):
        validate_dataset([[1.0, 2.0]], feature_names=["only-one"])


def test_ragged_input_rejected():
    with pytest.raises(ValueError):
        validate_dataset([[1.0, 2.0], [3.0]])


def test_label_canonicalization_collapses_gaps():
    lv = LabelVector.from_raw([5, 9, 5])
    assert np.array_equal(lv.labels, [0, 1, 0])
    assert lv.n_classes == 2


def test_label_canonicalization_handles_strings():
    lv = LabelVector.from_raw(["b", "a", "b", "c"])
    assert lv.n_classes == 3
    assert lv.labels[0] == lv.labels[2]
    assert lv.labels[0] != lv.labels[1]


@given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=60))
def test_label_canonicalization_preserves_partition(raw):
    lv = LabelVector.from_raw(np.array(raw))
    assert lv.labels.min() >= 0
    assert lv.labels.max() == lv.n_classes - 1
    assert np.unique(lv.labels).size == lv.n_classes
    for i in range(len(raw)):
        for j in range(i + 1, len(raw)):
            assert (raw[i] == raw[j]) == (lv.labels[i] == lv.labels[j])


def test_label_vector_rejects_out_of_range():
    with pytest.raises(ValueError):
        LabelVector(labels=np.array([0, 2]), n_classes=2)
    with pytest.raises(ValueError):
        LabelVector(labels=np.array([-1, 0]), n_classes=2)
    with pytest.raises(ValueError):
        LabelVector(labels=np.array([], dtype=np.int64), n_classes=1)


def test_label_vector_rejects_non_integer_labels():
    """0.5 and 1.9 must not be truncated to classes 0 and 1."""
    for labels in ([0.5, 1.9], np.array([0.0, 1.0]), np.array([False, True])):
        with pytest.raises(ValueError, match="labels must be integers"):
            LabelVector(labels=labels, n_classes=2)


def test_label_vector_rejects_non_integer_class_count():
    for n_classes in (2.0, 2.5, True, np.float64(2)):
        with pytest.raises(ValueError, match="n_classes must be an integer"):
            LabelVector(labels=[0, 1], n_classes=n_classes)


@pytest.mark.parametrize(
    "values, least, rule",
    [([], 1, "^grid must be non-empty$"),
     ([3, 2.0], 1, r"^grid must be integers, got \[3, 2.0\]$"),
     ([True], 0, r"^grid must be integers, got \[True\]$"),
     ([4, 0, -2], 1, "^grid must be positive, got -2$"),
     ((5, -1), 0, "^grid must be non-negative, got -1$")],
    ids=["empty", "float", "bool", "below-one", "negative"],
)
def test_require_integers_names_the_list_and_the_rule(values, least, rule):
    with pytest.raises(ValueError, match=rule):
        require_integers("grid", values, least)


def test_require_integers_returns_python_ints_in_order():
    got = require_integers("grid", np.array([3, 0, 3], dtype=np.uint8), 0)
    assert got == [3, 0, 3]
    assert all(type(v) is int for v in got)
    assert require_integers("grid", iter([7, 1]), 1) == [7, 1]


def test_label_vector_accepts_numpy_integers():
    lv = LabelVector(labels=np.array([0, 1, 1], dtype=np.uint8), n_classes=np.int32(2))
    assert lv.labels.dtype == np.int64
    assert lv.labels.tolist() == [0, 1, 1]
    assert type(lv.n_classes) is int


def test_label_vector_is_frozen():
    lv = LabelVector.from_raw([0, 1])
    with pytest.raises(ValueError):
        lv.labels[0] = 1


def test_ranking_breaks_ties_by_index():
    scores = FeatureScores(
        d=np.zeros(4), v=np.ones(4), cs=np.array([0.3, 0.1, 0.3, np.inf]), mu=np.zeros(4), k_used=2
    )
    assert np.array_equal(scores.ranking(), [1, 0, 2, 3])


def test_feature_scores_shape_checked():
    with pytest.raises(ValueError):
        FeatureScores(d=np.zeros(2), v=np.zeros(3), cs=np.zeros(2), mu=np.zeros(2), k_used=1)


def test_selection_result_equality():
    scores = FeatureScores(d=np.zeros(2), v=np.ones(2), cs=np.array([0.5, np.inf]), mu=np.zeros(2), k_used=1)
    a = SelectionResult(selected=np.array([0]), scores=scores, method=Method.CSUFS_OPTIMIZED, d_requested=1)
    b = SelectionResult(selected=np.array([0]), scores=scores, method=Method.CSUFS_OPTIMIZED, d_requested=1)
    c = SelectionResult(selected=np.array([1]), scores=scores, method=Method.CSUFS_OPTIMIZED, d_requested=1)
    assert a == b
    assert a != c


def test_dataset_preserves_values_bit_exact():
    rng = np.random.default_rng(3)
    raw = rng.normal(size=(7, 5))
    ds = validate_dataset(raw)
    assert ds.values.dtype == np.float64
    assert np.array_equal(ds.values, raw)
