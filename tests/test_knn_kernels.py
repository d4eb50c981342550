import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csufs.parts
import csufs.scoring as scoring
from csufs import (
    KTooLarge,
    TooFewSamples,
    knn_distance_sum_naive,
    knn_distance_sum_sorted,
    knn_distance_sums,
    knn_distance_trace,
)
from helpers import Split, count_forks, knn_sum_oracle, knn_sum_oracle_py, tiles
from test_parts import assert_no_children, fail_first_fork, truncate_pickles


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
    """The core size of each _window_per_sample call, which must return sums
    for at most _window_block_values(ks) core positions and read kmax values
    of halo on each side of them."""
    cores = []
    original = scoring._window_per_sample

    def counting(s, ks):
        sums = original(s, ks)
        core = sums.shape[1]
        assert core <= scoring._window_block_values(ks)
        assert s.size == core + 2 * ks[-1]
        cores.append(core)
        return sums

    monkeypatch.setattr(scoring, "_window_per_sample", counting)
    return cores


def test_k_grid_on_a_column_cut_into_chunks(monkeypatch):
    monkeypatch.setattr(scoring, "_WINDOW_BLOCK_ELEMENTS", 24)
    n = 90
    # runs of equal values, so ties straddle every chunk border
    f = np.repeat(np.arange(-7.0, 8.0), 6)[np.random.default_rng(5).permutation(n)]
    X = np.column_stack([f, f * 0.37 + 1.0])
    runs = count_kernel_runs(monkeypatch)
    for ks in ((1, 2, 3), (2, 5, 9), (1, 30, n - 1), (30, n - 1)):
        runs.clear()
        got = knn_distance_sums(X, ks)
        assert len(runs) >= 2 * 2  # every column spans at least two chunks
        assert got.tolist() == per_k_rows(X, ks)
        assert got[:, 0].tolist() == [knn_sum_oracle(f, k) for k in ks]
    runs.clear()
    knn_distance_sums(X, (1, 2, 3))
    # a block holds 8 * 24 // 10 = 19 values: chunks of 19 core positions
    # with 3 of halo on each side, five chunks per column
    assert len(runs) == 2 * 5
    assert max(runs) == 19
    runs.clear()
    knn_distance_sums(X, (30, n - 1))
    # 94 * 24 // 95 = 23 core positions with 89 of halo on each side: the
    # halo outgrows the core, four chunks per column
    assert len(runs) == 2 * 4
    assert max(runs) == 23


def test_trace_across_chunk_borders_is_exact_and_bounded(monkeypatch):
    monkeypatch.setattr(scoring, "_WINDOW_BLOCK_ELEMENTS", 24)
    n = 90
    # runs of equal values, so ties straddle every chunk border
    f = np.repeat(np.arange(-7.0, 8.0), 6)[np.random.default_rng(6).permutation(n)]
    runs = count_kernel_runs(monkeypatch)
    for k in (1, 3, 8, 30, n - 1):  # 24 core positions per chunk at every k, past k = 24 too
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


SPLIT_SHAPE = (2500, 307)  # 767500 values: up to three kernel parts, of 102, 102 and 103 columns
# 800000 values, up to three parts of 3333, 3333 and 3334 columns: short and
# wide, since 2500 rows are too slow for the naive kernel's O(n^2 log n) columns
WIDE_SHAPE = (80, 10_000)


@pytest.fixture(scope="module")
def split_values():
    return np.random.default_rng(21).normal(size=SPLIT_SHAPE)


@pytest.fixture(scope="module")
def split_matrices(split_values):
    """The matrix each kernel is split on."""
    return {"optimized": split_values, "naive": np.random.default_rng(24).normal(size=WIDE_SHAPE)}


def one_part_sums(monkeypatch, values, k, mode):
    with monkeypatch.context() as patch:
        patch.setattr(csufs.parts, "usable_cpus", lambda: 1)
        return knn_distance_sums(values, k, mode=mode)


@pytest.mark.parametrize(
    "k, mode",
    [(5, "optimized"), ((7, 3, 7), "optimized"), (5, "naive"), ((7, 3, 7), "naive")],
    ids=["single-k", "grid-with-duplicate", "naive-single-k", "naive-grid-with-duplicate"],
)
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_kernel_parts_give_the_same_bits_for_any_cpu_count(monkeypatch, split_matrices, cpus, k, mode):
    values = split_matrices[mode]
    expected = one_part_sums(monkeypatch, values, k, mode)
    forks = count_forks(monkeypatch, cpus)
    sums = knn_distance_sums(values, k, mode=mode)
    assert sums.shape == expected.shape and sums.tobytes() == expected.tobytes()
    m = values.shape[1]
    count = min(m, cpus * csufs.parts.PIECES)
    bounds = [i * m // count for i in range(count)] + [m]
    assert forks.kernels == ([Split(cpus, list(zip(bounds, bounds[1:])))] if cpus > 1 else [])
    assert forks.children == cpus - 1
    assert_no_children()


@pytest.mark.parametrize(
    "lose, mode",
    [
        (fail_first_fork, "optimized"),
        (lambda patch: truncate_pickles(patch, lambda obj: True), "optimized"),
        (fail_first_fork, "naive"),
        (lambda patch: truncate_pickles(patch, lambda obj: True), "naive"),
    ],
    ids=["fork-fails", "truncated-pickle", "naive-fork-fails", "naive-truncated-pickle"],
)
def test_lost_kernel_part_gives_the_same_sums(monkeypatch, split_matrices, lose, mode):
    values = split_matrices[mode]
    expected = one_part_sums(monkeypatch, values, (7, 3, 7), mode)
    forks = count_forks(monkeypatch, 3)
    lose(monkeypatch)
    assert knn_distance_sums(values, (7, 3, 7), mode=mode).tobytes() == expected.tobytes()
    assert [split.workers for split in forks.kernels] == [3] and forks.children == 2
    assert tiles(forks.kernels[0].pieces, 0, values.shape[1])
    assert_no_children()


@pytest.mark.parametrize(
    "n, m, mode",
    [(2000, 50, "optimized"), (4000, 50, "optimized"), (999, 500, "optimized"), (600_000, 1, "optimized"),
     (50, 9_999, "naive")],
)
def test_kernel_stays_one_part_below_two_parts_of_values_or_on_one_column(monkeypatch, n, m, mode):
    """A3's 2000 x 50 and 4000 x 50 matrices and one just under two parts'
    worth are one part, with either kernel; so is a long single column."""
    values = np.random.default_rng(22).normal(size=(n, m))
    forks = count_forks(monkeypatch, 4)
    knn_distance_sums(values, 5, mode=mode)
    assert forks.kernels == []


@pytest.mark.parametrize("k", [2.5, (5, 2.5), True], ids=["float", "float-in-grid", "bool"])
def test_non_integer_k_is_rejected_before_any_part_forks(monkeypatch, split_values, k):
    forks = count_forks(monkeypatch, 3)
    with pytest.raises(ValueError, match="^k must be an integer"):
        knn_distance_sums(split_values, k)
    assert forks.kernels == []


@pytest.mark.parametrize(
    "ks, error, rule",
    [((), ValueError, "^k must hold at least one"), ((7, 3), ValueError, "^ks must be strictly ascending"),
     ((3, 3), ValueError, "^ks must be strictly ascending"), ([3, 7, 5], ValueError, "^ks must be strictly ascending"),
     ((2.5, 3), ValueError, "^k must be an integer"), ((5, 999), KTooLarge, "^k=999 needs")],
    ids=["empty", "descending", "repeated", "unsorted-list", "float", "k-too-large"],
)
def test_window_sums_checks_its_ks(ks, error, rule):
    """scoring.range_sums checks its ks in either mode."""
    values = np.random.default_rng(23).normal(size=(999, 4))
    for mode in ("optimized", "naive"):
        with pytest.raises(error, match=rule):
            scoring.range_sums(values, 0, 4, ks, mode)


@pytest.mark.parametrize("start, stop", [(-2, 1), (0, 6), (3, 2), (5, 5)])
def test_range_sums_rejects_a_range_outside_the_matrix(start, stop):
    """Unchecked, (-2, 1) would score columns 2, 3 and 0 through negative
    indexing, and (0, 6) would overrun the sums' columns."""
    values = np.random.default_rng(24).normal(size=(50, 4))
    for mode in ("optimized", "naive"):
        with pytest.raises(ValueError, match=rf"^column range \[{start}, {stop}\) is not within"):
            scoring.range_sums(values, start, stop, (3,), mode)


def test_range_sums_takes_any_range_within_the_matrix():
    values = np.random.default_rng(25).normal(size=(50, 4))
    for mode in ("optimized", "naive"):
        whole = knn_distance_sums(values, (1, 3), mode)
        for start, stop in [(0, 4), (1, 3), (4, 4), (0, 0)]:
            assert scoring.range_sums(values, start, stop, (1, 3), mode).tolist() == whole[:, start:stop].tolist()


@pytest.mark.parametrize("values", [np.arange(50.0), np.ones((2, 3, 4))], ids=["1-D", "3-D"])
def test_range_sums_rejects_values_that_are_not_a_matrix(values):
    for mode in ("optimized", "naive"):
        with pytest.raises(ValueError, match="^values must be a 2-D matrix"):
            scoring.range_sums(values, 0, 1, (3,), mode)


def test_range_sums_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="mode must be one of"):
        scoring.range_sums(np.ones((4, 2)), 0, 2, (1,), "fast")


@pytest.mark.parametrize("k, rule", [(2.5, "^k must be an integer"), (True, "^k must be an integer"),
                                     (0, "^k must be positive")], ids=["float", "bool", "zero"])
def test_trace_rejects_a_k_that_is_not_a_positive_integer(k, rule):
    for mode in ("optimized", "naive"):
        with pytest.raises(ValueError, match=rule):
            knn_distance_trace(np.arange(10.0), k, mode=mode)


def test_trace_names_a_bad_mode_too_few_samples_and_too_large_a_k():
    with pytest.raises(ValueError, match="mode must be one of"):
        knn_distance_trace(np.arange(10.0), 2, mode="fast")
    with pytest.raises(TooFewSamples, match="^need at least 2 samples for distance sums, got 1$"):
        knn_distance_trace([1.0], 1)
    with pytest.raises(KTooLarge, match=r"^k=10 needs at least k\+1=11 samples, got 10$"):
        knn_distance_trace(np.arange(10.0), 10, mode="naive")
