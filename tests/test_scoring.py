import math

import numpy as np
import pytest

import csufs.scoring as scoring
from csufs import (
    FeatureScores,
    Method,
    ScoringConfig,
    compactness_score,
    csufs,
    feature_variance,
    knn_distance_sums,
    normalize_samples,
    score_all_features,
    select_features,
    select_max_variance,
    validate_dataset,
)
from helpers import knn_sum_oracle


def test_variance_worked_example():
    v, mu = feature_variance([1.0, 2.0, 3.0, 4.0])
    assert v == 1.25
    assert mu == 2.5


def test_variance_constant_feature():
    v, mu = feature_variance([5.0, 5.0, 5.0])
    assert v == 0.0
    assert mu == 5.0


def test_variance_single_sample():
    v, mu = feature_variance([7.0])
    assert v == 0.0
    assert mu == 7.0


def test_variance_translation_invariant_scale_quadratic():
    rng = np.random.default_rng(0)
    f = rng.integers(-50, 50, 30).astype(np.float64)
    v, _ = feature_variance(f)
    v_shift, _ = feature_variance(f + 17.0)
    v_scale, _ = feature_variance(3.0 * f)
    assert v_shift == v
    assert v_scale == pytest.approx(9.0 * v, rel=1e-12)


def test_compactness_score_worked_example():
    assert compactness_score(7.0, 5.25) == 7.0 / 5.25
    assert compactness_score(0.0, 2.0) == 0.0


def test_compactness_score_degenerate_variance():
    assert math.isinf(compactness_score(3.0, 0.0))
    assert math.isinf(compactness_score(3.0, 1e-13))
    assert not math.isinf(compactness_score(3.0, 1e-3))


def test_score_all_features_worked_example():
    X = validate_dataset(np.column_stack([[1.0, 2.0, 4.0, 7.0], [5.0, 5.0, 5.0, 5.0]]))
    scores = score_all_features(X, ScoringConfig(k=1))
    assert scores.d[0] == 7.0
    assert scores.v[0] == 5.25
    assert scores.cs[0] == 7.0 / 5.25
    assert math.isinf(scores.cs[1])
    assert scores.k_used == 1


def test_modes_agree_on_random_matrix():
    rng = np.random.default_rng(11)
    X = validate_dataset(rng.normal(size=(40, 9)))
    fast = score_all_features(X, ScoringConfig(k=4, mode="optimized"))
    slow = score_all_features(X, ScoringConfig(k=4, mode="naive"))
    assert np.allclose(fast.d, slow.d, rtol=1e-9, atol=0)
    assert np.array_equal(fast.v, slow.v)
    assert np.array_equal(fast.mu, slow.mu)


# at k = 1 a framed column holds n + 2 values and a block holds budget values
@pytest.mark.parametrize(
    "budget, n, m, blocks_at_k1",
    [
        (50, 60, 4, 4),  # n above the budget: every block is one column
        (50, 8, 10, 2),  # five columns per block, two full blocks
        (50, 10, 9, 3),  # four columns per block, partial last block
    ],
    ids=["50-60-4", "50-8-10", "50-10-9"],  # budget-n-m
)
def test_score_all_features_matches_oracle_column_by_column(monkeypatch, budget, n, m, blocks_at_k1):
    monkeypatch.setattr(scoring, "_WINDOW_BLOCK_ELEMENTS", budget)
    blocks = []
    original = scoring._window_block

    def counting(values, ks):
        blocks.append(values.shape)
        return original(values, ks)

    monkeypatch.setattr(scoring, "_window_block", counting)
    rng = np.random.default_rng(budget + n)
    values = rng.normal(0.0, 3.0, (n, m))
    values[:, 0] = rng.integers(-3, 4, n)  # integer-valued with duplicates
    values[:, 2] = -1.5  # constant
    X = validate_dataset(values)
    for k in (1, 4, n - 1):
        scores = score_all_features(X, ScoringConfig(k=k))
        for r in range(m):
            f = X.feature(r)
            expected = knn_sum_oracle(f, k)
            if r in (0, 2):
                assert scores.d[r] == expected
            else:
                assert abs(scores.d[r] - expected) <= 1e-9 * expected
            assert (scores.v[r], scores.mu[r]) == feature_variance(f)
            assert scores.cs[r] == compactness_score(scores.d[r], scores.v[r])
        assert math.isinf(scores.cs[2])
        if k == 1:
            assert len(blocks) == blocks_at_k1
        blocks.clear()


@pytest.mark.parametrize("n, m", [(1, 3), (2, 5), (9, 4), (130, 17), (3000, 3)])
def test_matrix_variances_bit_identical_to_feature_variance(n, m):
    rng = np.random.default_rng(n + m)
    X = validate_dataset(rng.normal(size=(n, m)) * rng.uniform(0.1, 50.0, m) + rng.normal(0.0, 20.0, m))
    Xn = normalize_samples(X)
    per_column = [feature_variance(Xn.feature(r)) for r in range(m)]
    by_variance = select_max_variance(X, m).scores
    assert list(zip(by_variance.v, by_variance.mu)) == per_column
    if n >= 2:
        scores = score_all_features(Xn, ScoringConfig(k=1))
        assert list(zip(scores.v, scores.mu)) == per_column


def test_knn_distance_sums_matches_oracle():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(25, 6))
    expected = np.array([knn_sum_oracle(X[:, r], 3) for r in range(6)])
    for mode in ("naive", "optimized"):
        got = knn_distance_sums(X, 3, mode=mode)
        assert np.allclose(got, expected, rtol=1e-9, atol=0)


def test_select_worked_example():
    scores = make_scores(cs=[0.5, 0.1, 0.3])
    result = select_features(scores, 2)
    assert np.array_equal(result.selected, [1, 2])
    assert result.d_requested == 2


def test_select_tie_falls_to_lower_index():
    result = select_features(make_scores(cs=[0.2, 0.2, 0.9]), 2)
    assert np.array_equal(result.selected, [0, 1])


def test_select_infinite_scores_rank_last():
    result = select_features(make_scores(cs=[np.inf, 0.4]), 2)
    assert np.array_equal(result.selected, [1, 0])


def test_select_clamps_with_warning():
    with pytest.warns(UserWarning):
        result = select_features(make_scores(cs=[0.5, 0.1]), 5)
    assert np.array_equal(result.selected, [1, 0])
    assert result.d_requested == 5


def test_clamp_warning_points_at_the_selector_call():
    X = validate_dataset([[1.0, 2.0], [3.0, 1.0]])
    with pytest.warns(UserWarning) as record:
        select_features(make_scores(cs=[0.5, 0.1]), 5)
        select_max_variance(X, 9)
        csufs(X, 9, ScoringConfig(k=1))
    assert [w.filename for w in record] == [__file__, __file__, __file__]


def test_select_rejects_nonpositive_d():
    with pytest.raises(ValueError):
        select_features(make_scores(cs=[0.5]), 0)


def make_scores(cs):
    cs = np.asarray(cs, dtype=np.float64)
    m = cs.size
    return FeatureScores(d=np.zeros(m), v=np.ones(m), cs=cs, mu=np.zeros(m), k_used=1)


def test_csufs_selects_the_grouped_feature():
    rng = np.random.default_rng(9)
    n = 100
    grouped = np.where(rng.random(n) < 0.5, -1.0, 1.0) + rng.normal(0, 0.01, n)
    uniform = rng.uniform(-1.0, 1.0, n)
    X = validate_dataset(np.column_stack([grouped, uniform]))
    result = csufs(X, d=1, cfg=ScoringConfig(k=5))
    # independent check: score the normalized columns exhaustively
    Xn = normalize_samples(X)
    oracle_cs = []
    for r in range(2):
        f = Xn.feature(r)
        v, _ = feature_variance(f)
        oracle_cs.append(knn_sum_oracle(f, 5) / v)
    assert oracle_cs[0] < oracle_cs[1]
    assert np.array_equal(result.selected, [0])


def test_csufs_naive_and_optimized_select_identically():
    rng = np.random.default_rng(21)
    X = validate_dataset(rng.normal(size=(50, 12)))
    fast = csufs(X, d=5, cfg=ScoringConfig(k=3, mode="optimized"))
    slow = csufs(X, d=5, cfg=ScoringConfig(k=3, mode="naive"))
    assert np.array_equal(fast.selected, slow.selected)
    assert fast.method is Method.CSUFS_OPTIMIZED
    assert slow.method is Method.CSUFS_NAIVE


def test_csufs_with_d_equal_m_is_a_permutation():
    rng = np.random.default_rng(13)
    X = validate_dataset(rng.normal(size=(30, 8)))
    result = csufs(X, d=8)
    assert sorted(result.selected.tolist()) == list(range(8))


def test_feature_permutation_equivariance():
    rng = np.random.default_rng(17)
    raw = rng.normal(size=(40, 7))
    perm = rng.permutation(7)
    base = csufs(validate_dataset(raw), d=3, cfg=ScoringConfig(k=2))
    shuffled = csufs(validate_dataset(raw[:, perm]), d=3, cfg=ScoringConfig(k=2))
    # selecting from permuted columns finds the same underlying features
    assert np.array_equal(perm[shuffled.selected], base.selected)


def test_uniform_feature_scale_keeps_ranking():
    rng = np.random.default_rng(23)
    Xn = normalize_samples(validate_dataset(rng.normal(size=(35, 9))))
    base = score_all_features(Xn, ScoringConfig(k=3))
    scaled = score_all_features(validate_dataset(Xn.values * 4.0), ScoringConfig(k=3))
    assert np.array_equal(base.ranking(), scaled.ranking())


def test_scoring_config_validation():
    with pytest.raises(ValueError):
        ScoringConfig(k=0)
    with pytest.raises(ValueError):
        ScoringConfig(mode="fastest")
