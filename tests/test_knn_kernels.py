import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csufs.scoring as scoring
from csufs import (
    KTooLarge,
    TooFewSamples,
    knn_distance_sum_naive,
    knn_distance_sum_sorted,
    knn_distance_sums,
    knn_distance_trace,
)
from helpers import knn_sum_oracle, knn_sum_oracle_py


def both(f, k):
    return knn_distance_sum_naive(f, k), knn_distance_sum_sorted(f, k)


def test_worked_example_four_points():
    f = [1.0, 2.0, 4.0, 7.0]
    # per-sample nearest distances are 1, 1, 2, 3
    assert knn_sum_oracle(f, 1) == 7.0
    assert knn_sum_oracle_py(f, 1) == 7.0
    naive, fast = both(f, 1)
    assert naive == 7.0
    assert fast == 7.0


def test_worked_example_pair():
    assert knn_sum_oracle([0.0, 1.0], 1) == 2.0
    naive, fast = both([0.0, 1.0], 1)
    assert naive == 2.0
    assert fast == 2.0


def test_constant_feature_sums_to_zero():
    naive, fast = both([5.0] * 8, 3)
    assert naive == 0.0
    assert fast == 0.0


def test_duplicates_handled_like_distinct_zero_distances():
    f = [1.0, 1.0, 1.0, 9.0]
    expected = knn_sum_oracle_py(f, 2)
    naive, fast = both(f, 2)
    assert naive == expected
    assert fast == expected


def test_k_too_large_rejected():
    with pytest.raises(KTooLarge):
        knn_distance_sum_naive([1.0, 2.0, 3.0], 3)
    with pytest.raises(KTooLarge):
        knn_distance_sum_sorted([1.0, 2.0, 3.0], 5)


def test_too_few_samples_rejected():
    with pytest.raises(TooFewSamples):
        knn_distance_sum_naive([1.0], 1)
    with pytest.raises(TooFewSamples):
        knn_distance_sum_sorted([], 1)


def test_bad_k_rejected():
    with pytest.raises(ValueError):
        knn_distance_sum_naive([1.0, 2.0], 0)


def test_input_not_mutated():
    f = np.array([3.0, 1.0, 2.0])
    knn_distance_sum_sorted(f, 1)
    knn_distance_sum_naive(f, 1)
    assert np.array_equal(f, [3.0, 1.0, 2.0])


real_features = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, width=64),
    min_size=2,
    max_size=120,
)
int_features = st.lists(st.integers(-1000, 1000), min_size=2, max_size=120)


@settings(deadline=None, max_examples=120)
@given(real_features, st.data())
def test_kernels_match_oracle_on_reals(values, data):
    f = np.array(values)
    k = data.draw(st.integers(1, min(10, f.size - 1)))
    expected = knn_sum_oracle(f, k)
    naive, fast = both(f, k)
    tol = 1e-9 * max(1.0, abs(expected))
    assert abs(naive - expected) <= tol
    assert abs(fast - expected) <= tol
    assert abs(naive - fast) <= tol


@settings(deadline=None, max_examples=120)
@given(int_features, st.data())
def test_kernels_exact_on_integers(values, data):
    f = np.array(values, dtype=np.float64)
    k = data.draw(st.integers(1, min(10, f.size - 1)))
    expected = knn_sum_oracle(f, k)
    naive, fast = both(f, k)
    assert naive == expected
    assert fast == expected


@settings(deadline=None, max_examples=60)
@given(int_features, st.data())
def test_sample_permutation_invariance(values, data):
    f = np.array(values, dtype=np.float64)
    k = data.draw(st.integers(1, min(10, f.size - 1)))
    perm = np.random.default_rng(data.draw(st.integers(0, 2**16))).permutation(f.size)
    naive, fast = both(f, k)
    p_naive, p_fast = both(f[perm], k)
    assert naive == p_naive
    assert fast == p_fast


@settings(deadline=None, max_examples=60)
@given(int_features, st.integers(-500, 500), st.data())
def test_translation_invariance(values, shift, data):
    f = np.array(values, dtype=np.float64)
    k = data.draw(st.integers(1, min(10, f.size - 1)))
    naive, fast = both(f, k)
    t_naive, t_fast = both(f + shift, k)
    assert naive == t_naive
    assert fast == t_fast


@settings(deadline=None, max_examples=60)
@given(int_features, st.integers(-8, 8).filter(lambda c: c != 0), st.data())
def test_scale_equivariance(values, c, data):
    f = np.array(values, dtype=np.float64)
    k = data.draw(st.integers(1, min(10, f.size - 1)))
    naive, fast = both(f, k)
    s_naive, s_fast = both(f * c, k)
    assert s_naive == abs(c) * naive
    assert s_fast == abs(c) * fast


@settings(deadline=None, max_examples=40)
@given(real_features.filter(lambda v: len(v) >= 3))
def test_monotone_in_k(values):
    f = np.array(values)
    sums = [knn_distance_sum_sorted(f, k) for k in range(1, min(6, f.size - 1) + 1)]
    for a, b in zip(sums, sums[1:]):
        assert b >= a


@settings(deadline=None, max_examples=80)
@given(real_features, st.data())
def test_window_per_sample_matches_naive(values, data):
    f = np.array(values)
    k = data.draw(st.integers(1, min(10, f.size - 1)))
    fast = knn_distance_trace(f, k, mode="optimized")
    naive = knn_distance_trace(f, k, mode="naive")
    scale = np.maximum(1.0, np.abs(naive.per_sample))
    assert np.all(np.abs(fast.per_sample - naive.per_sample) <= 1e-9 * scale)


@settings(deadline=None, max_examples=80)
@given(real_features, st.data())
def test_candidate_counts_bounded_by_two_k(values, data):
    f = np.array(values)
    k = data.draw(st.integers(1, min(10, f.size - 1)))
    fast = knn_distance_trace(f, k, mode="optimized")
    naive = knn_distance_trace(f, k, mode="naive")
    assert fast.candidate_counts.max() <= 2 * k
    assert np.all(naive.candidate_counts == f.size - 1)
    assert fast.candidate_counts.min() >= min(k, f.size - 1)


def test_window_candidate_counts_small_example():
    # ten sorted samples, k=2: interior samples look at 4 candidates while
    # the exhaustive kernel always forms 9
    f = np.arange(10, dtype=np.float64)
    fast = knn_distance_trace(f, 2, mode="optimized")
    naive = knn_distance_trace(f, 2, mode="naive")
    assert fast.candidate_counts.max() == 4
    assert np.all(naive.candidate_counts == 9)
    assert np.allclose(fast.per_sample, naive.per_sample, rtol=0, atol=0)


def test_trace_orders_follow_original_samples():
    f = np.array([10.0, 0.0, 5.0, 4.0])
    fast = knn_distance_trace(f, 1, mode="optimized")
    naive = knn_distance_trace(f, 1, mode="naive")
    assert np.array_equal(fast.per_sample, naive.per_sample)
    assert fast.total == naive.total == float(naive.per_sample.sum())


def per_k_rows(X, ks, mode="optimized"):
    return [knn_distance_sums(X, k, mode=mode).tolist() for k in ks]


def oracle_sums(X, k):
    return np.array([knn_sum_oracle(X[:, r], k) for r in range(X.shape[1])])


def check_matrix_kernel(X_int, X_real, k):
    """Integer-valued columns must match the oracle exactly, real ones within 1e-9."""
    for mode in ("optimized", "naive"):
        assert knn_distance_sums(X_int, k, mode=mode).tolist() == oracle_sums(X_int, k).tolist()
        np.testing.assert_allclose(knn_distance_sums(X_real, k, mode=mode), oracle_sums(X_real, k), rtol=1e-9, atol=0)


# at k = 1 a framed column holds n + 2 values and a block holds budget values
@pytest.mark.parametrize(
    "budget, n, m, runs_at_k1",
    [
        (64, 100, 3, 3 * 2),  # n above the budget: each column is cut into two chunks
        (64, 14, 8, 2),  # four columns per block, two full blocks
        (64, 18, 7, 3),  # three columns per block, partial last block
    ],
    ids=["64-100-3", "64-14-8", "64-18-7"],  # budget-n-m
)
def test_knn_distance_sums_block_shapes_match_oracle(monkeypatch, budget, n, m, runs_at_k1):
    monkeypatch.setattr(scoring, "_WINDOW_BLOCK_ELEMENTS", budget)
    rng = np.random.default_rng(n * m)
    X_int = rng.integers(-4, 5, (n, m)).astype(np.float64)  # many duplicate values
    X_int[:, 1] = 3.0  # a constant column
    X_real = rng.normal(0.0, 10.0, (n, m))
    X_real[: n // 2, 0] = X_real[0, 0]  # half the column tied
    for k in (1, 3, n - 1):
        check_matrix_kernel(X_int, X_real, k)
    assert knn_distance_sums(X_int, 2)[1] == 0.0
    # a k grid in one pass gives each k's row the bits of its own call
    for X in (X_int, X_real):
        for ks in ((1, 2, 3), (1, n // 2, n - 1)):
            assert knn_distance_sums(X, ks).tolist() == per_k_rows(X, ks)
    runs = count_kernel_runs(monkeypatch)
    knn_distance_sums(X_real, 1)
    assert len(runs) == runs_at_k1
    assert max(runs) <= budget


def test_knn_distance_sums_default_budget_match_oracle():
    rng = np.random.default_rng(8)
    # short columns: many per block and a partial last block
    n, m = 40, 2 * (scoring._WINDOW_BLOCK_ELEMENTS // 40) + 5
    check_matrix_kernel(rng.integers(-20, 21, (n, m)).astype(np.float64), rng.normal(size=(n, m)), 4)
    # one column longer than the budget is cut into chunks
    f = rng.integers(-1000, 1001, (scoring._WINDOW_BLOCK_ELEMENTS + 1, 1)).astype(np.float64)
    assert knn_distance_sums(f, 3)[0] == knn_sum_oracle(f[:, 0], 3)


def count_kernel_runs(monkeypatch):
    runs = []
    original = scoring._window_per_sample

    def counting(s, ks):
        runs.append(s.size)
        return original(s, ks)

    monkeypatch.setattr(scoring, "_window_per_sample", counting)
    return runs


def test_k_grid_on_a_column_cut_into_chunks(monkeypatch):
    monkeypatch.setattr(scoring, "_WINDOW_BLOCK_ELEMENTS", 24)
    n = 90
    # runs of equal values, so ties straddle every chunk border
    f = np.repeat(np.arange(-7.0, 8.0), 6)[np.random.default_rng(5).permutation(n)]
    X = np.column_stack([f, f * 0.37 + 1.0])
    runs = count_kernel_runs(monkeypatch)
    for ks in ((1, 2, 3), (2, 5, 9), (1, 30, n - 1)):
        runs.clear()
        got = knn_distance_sums(X, ks)
        assert len(runs) >= 2 * 2  # every column spans at least two chunks
        assert got.tolist() == per_k_rows(X, ks)
        assert got[:, 0].tolist() == [knn_sum_oracle(f, k) for k in ks]
    runs.clear()
    knn_distance_sums(X, (1, 2, 3))
    # a block holds 8 * 24 // 10 = 19 values: chunks of 13 positions and 3
    # of halo on each side, seven chunks per column
    assert len(runs) == 2 * 7
    assert max(runs) == 19


def test_trace_across_chunk_borders_is_exact_and_bounded(monkeypatch):
    monkeypatch.setattr(scoring, "_WINDOW_BLOCK_ELEMENTS", 24)
    n = 90
    # runs of equal values, so ties straddle every chunk border
    f = np.repeat(np.arange(-7.0, 8.0), 6)[np.random.default_rng(6).permutation(n)]
    runs = count_kernel_runs(monkeypatch)
    for k in (1, 3, 8):  # up to the largest k whose chunk (k of core, 2k of halo) fits a block
        runs.clear()
        fast = knn_distance_trace(f, k)
        naive = knn_distance_trace(f, k, mode="naive")
        assert len(runs) >= 2
        assert max(runs) <= 24
        assert fast.per_sample.tolist() == naive.per_sample.tolist()
        assert fast.total == naive.total == knn_sum_oracle(f, k)


def test_sentinels_raise_no_floating_point_warnings(monkeypatch):
    # inf - inf between two sentinels is NaN at positions never read; it
    # must stay silent even where warnings are errors
    monkeypatch.setattr(scoring, "_WINDOW_BLOCK_ELEMENTS", 64)
    rng = np.random.default_rng(12)
    short = rng.normal(size=(10, 6))  # two framed columns per block
    long = rng.normal(size=(200, 2))  # each column cut into chunks
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for X in (short, long):
            got = knn_distance_sums(X, (1, 3, 5))
            np.testing.assert_allclose(got, [oracle_sums(X, k) for k in (1, 3, 5)], rtol=1e-9, atol=0)
        trace = knn_distance_trace(long[:, 0], 4)
    assert trace.total == pytest.approx(knn_sum_oracle(long[:, 0], 4), rel=1e-9, abs=0)


def test_one_naive_call_per_column_serves_the_whole_grid(monkeypatch):
    calls = []
    original = scoring._naive_per_sample

    def counting(f, ks):
        calls.append(ks)
        return original(f, ks)

    monkeypatch.setattr(scoring, "_naive_per_sample", counting)
    X = np.random.default_rng(11).integers(-5, 6, (30, 4)).astype(np.float64)
    got = knn_distance_sums(X, (3, 1, 3, 29), mode="naive")
    assert calls == [(1, 3, 29)] * 4
    assert got.tolist() == knn_distance_sums(X, (3, 1, 3, 29)).tolist()  # exact on integers


def test_k_grid_order_and_duplicates_follow_the_request():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(40, 5))
    ks = (7, 2, 7, 1, 2)
    got = knn_distance_sums(X, ks)
    assert got.shape == (5, 5)
    assert got.tolist() == per_k_rows(X, ks)
    assert knn_distance_sums(X, [4]).tolist() == [knn_distance_sums(X, 4).tolist()]
    assert knn_distance_sums(X, np.int64(4)).tolist() == knn_distance_sums(X, 4).tolist()


def test_naive_k_grid_rows_equal_per_k_naive_calls():
    rng = np.random.default_rng(10)
    X = rng.integers(-5, 6, (30, 4)).astype(np.float64)
    ks = (3, 1, 3, 29)
    got = knn_distance_sums(X, ks, mode="naive")
    assert got.tolist() == per_k_rows(X, ks, mode="naive")
    assert got.tolist() == knn_distance_sums(X, ks).tolist()  # exact on integers


def test_k_grid_rejects_a_too_large_or_empty_grid():
    X = np.arange(10.0)[:, np.newaxis]
    for mode in ("optimized", "naive"):
        with pytest.raises(KTooLarge):
            knn_distance_sums(X, (1, 3, 10), mode=mode)
        with pytest.raises(ValueError, match="positive"):
            knn_distance_sums(X, (2, 0), mode=mode)
        with pytest.raises(ValueError):
            knn_distance_sums(X, (), mode=mode)
