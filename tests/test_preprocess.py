import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from csufs import normalize_samples, validate_dataset

finite_matrices = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 20), st.integers(1, 8)),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, width=64),
)


def test_three_four_five_row():
    ds = normalize_samples(validate_dataset([[3.0, 4.0]]))
    assert ds.values[0, 0] == 0.6
    assert ds.values[0, 1] == 0.8


def test_unit_row_unchanged():
    ds = normalize_samples(validate_dataset([[1.0, 0.0, 0.0]]))
    assert np.array_equal(ds.values[0], [1.0, 0.0, 0.0])


def test_zero_row_passes_through_with_warning():
    with pytest.warns(RuntimeWarning):
        ds = normalize_samples(validate_dataset([[0.0, 0.0], [3.0, 4.0]]))
    assert np.array_equal(ds.values[0], [0.0, 0.0])
    assert np.allclose(ds.values[1], [0.6, 0.8])


def test_row_whose_squared_norm_overflows_comes_out_unit_length():
    ds = normalize_samples(validate_dataset([[1e200, 1e200], [3.0, 4.0]]))
    assert np.allclose(ds.values[0], [np.sqrt(0.5), np.sqrt(0.5)], rtol=1e-15, atol=0)
    # rows with a finite norm keep the bits of a plain division by it
    assert ds.values[1].tobytes() == (np.array([3.0, 4.0]) / 5.0).tobytes()


@settings(deadline=None, max_examples=60)
@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, 10), st.integers(1, 6)),
        elements=st.floats(-1e308, 1e308, allow_nan=False, allow_infinity=False, width=64),
    )
)
def test_rows_of_any_magnitude_come_out_unit_norm(raw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        out = normalize_samples(validate_dataset(raw))
    for i in range(raw.shape[0]):
        if math.hypot(*raw[i]) > 1e-12:  # hypot never overflows
            assert abs(math.hypot(*out.values[i]) - 1.0) <= 1e-12


def test_input_not_mutated():
    src = validate_dataset([[3.0, 4.0], [5.0, 12.0]])
    before = src.values.copy()
    normalize_samples(src)
    assert np.array_equal(src.values, before)


@settings(deadline=None, max_examples=60)
@given(finite_matrices)
def test_rows_come_out_unit_norm(raw):
    ds = validate_dataset(raw)
    with warnings.catch_warnings():
        # generated matrices may contain near-zero rows; that path has its
        # own test below
        warnings.simplefilter("ignore", RuntimeWarning)
        out = normalize_samples(ds)
    norms = np.linalg.norm(raw, axis=1)
    out_norms = np.linalg.norm(out.values, axis=1)
    for i in range(raw.shape[0]):
        if norms[i] > 1e-12:
            assert abs(out_norms[i] - 1.0) <= 1e-12
        else:
            assert np.array_equal(out.values[i], raw[i])


@settings(deadline=None, max_examples=60)
@given(finite_matrices)
def test_idempotent(raw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        once = normalize_samples(validate_dataset(raw))
        twice = normalize_samples(once)
    assert np.allclose(once.values, twice.values, rtol=0, atol=1e-12)


@settings(deadline=None, max_examples=40)
@given(finite_matrices, st.floats(0.01, 100.0))
def test_row_scale_invariance(raw, c):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        base = normalize_samples(validate_dataset(raw))
        scaled = normalize_samples(validate_dataset(raw * c))
    norms = np.linalg.norm(raw, axis=1)
    keep = (norms > 1e-12) & (norms * c > 1e-12)
    assert np.allclose(base.values[keep], scaled.values[keep], rtol=0, atol=1e-9)


def test_feature_names_carried_over():
    ds = validate_dataset([[3.0, 4.0]], feature_names=["a", "b"])
    assert normalize_samples(ds).feature_names == ("a", "b")
