import numpy as np
import pytest

from csufs import LabelVector, NonFiniteEntry, TooFewSamples, clustering_accuracy, kmeans, kmeans_fit
from helpers import kmeans_fit_matrix_reference, kmeans_fit_reference


def blobs(rng, centers, per, spread=0.1):
    parts = [rng.normal(c, spread, (per, len(c))) for c in centers]
    labels = np.repeat(np.arange(len(centers)), per)
    return np.vstack(parts), labels


def test_recovers_separated_blobs():
    rng = np.random.default_rng(0)
    X, truth_raw = blobs(rng, [(-5.0, -5.0), (5.0, 5.0)], 25)
    found = kmeans(X, 2, seed=1)
    truth = LabelVector.from_raw(truth_raw)
    assert clustering_accuracy(truth, found) == 1.0


def test_three_blobs():
    rng = np.random.default_rng(2)
    X, truth_raw = blobs(rng, [(-8.0,), (0.0,), (8.0,)], 20)
    found = kmeans(X, 3, seed=0)
    assert clustering_accuracy(LabelVector.from_raw(truth_raw), found) == 1.0


def test_single_cluster_labels_all_zero():
    rng = np.random.default_rng(3)
    found = kmeans(rng.normal(size=(12, 4)), 1, seed=0)
    assert np.array_equal(found.labels, np.zeros(12, dtype=np.int64))


def test_seeded_runs_reproduce_bitwise():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 6))
    a = kmeans_fit(X, 4, seed=7)
    b = kmeans_fit(X, 4, seed=7)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.centers, b.centers)
    assert a.inertia == b.inertia
    assert a.inertia_history == b.inertia_history


def test_different_seeds_may_differ_but_stay_valid():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 3))
    for seed in range(5):
        found = kmeans(X, 3, seed=seed)
        assert found.labels.min() >= 0
        assert found.labels.max() < 3


def test_objective_never_increases():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(80, 5))
    res = kmeans_fit(X, 5, seed=11)
    hist = res.inertia_history
    for prev, cur in zip(hist, hist[1:]):
        assert cur <= prev * (1.0 + 1e-12) + 1e-12


def test_too_few_samples():
    with pytest.raises(TooFewSamples):
        kmeans(np.zeros((2, 3)), 5, seed=0)


def test_identical_points_converge():
    X = np.ones((6, 2))
    found = kmeans(X, 3, seed=0)
    assert found.labels.min() >= 0
    assert found.labels.max() < 3
    # every cluster must end up with a member even though all distances tie
    result = kmeans_fit(X, 3, seed=0)
    assert np.isfinite(result.centers).all()
    assert np.unique(result.labels).size == 3
    assert result.inertia == 0.0


def test_empty_cluster_reseeded_to_farthest_point():
    # two coincident heavy groups plus one outlier force an empty cluster
    # on some seeds; every cluster id must still be a valid assignment
    X = np.array([[0.0, 0.0]] * 10 + [[0.1, 0.0]] * 10 + [[50.0, 0.0]])
    for seed in range(8):
        res = kmeans_fit(X, 3, seed=seed)
        assert res.labels.min() >= 0
        assert res.labels.max() < 3
        # the outlier always ends up alone or with its nearest neighbors,
        # never merged across the big gap by a degenerate center
        assert res.inertia < 100.0


def test_max_iter_caps_iterations():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(50, 4))
    res = kmeans_fit(X, 4, seed=0, max_iter=1)
    assert res.n_iter == 1
    assert len(res.inertia_history) == 1


def test_conv_tol_stops_early():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(60, 4))
    loose = kmeans_fit(X, 3, seed=1, conv_tol=0.5)
    tight = kmeans_fit(X, 3, seed=1, conv_tol=1e-12)
    assert loose.n_iter <= tight.n_iter


def test_negative_conv_tol_rejected():
    X = np.random.default_rng(0).normal(size=(20, 2))
    with pytest.raises(ValueError, match="conv_tol"):
        kmeans_fit(X, 2, seed=0, conv_tol=-1.0)
    with pytest.raises(ValueError, match="conv_tol"):
        kmeans_fit(X, 2, seed=0, conv_tol=float("nan"))
    assert kmeans_fit(X, 2, seed=0, conv_tol=0.0).n_iter >= 1


@pytest.mark.parametrize(
    "args, name",
    [((2.5, 0), "n_clusters"), ((True, 0), "n_clusters"), ((np.float64(2), 0), "n_clusters"),
     ((2, 1.5), "seed"), ((2, False), "seed"), ((2, 0, 10.0), "max_iter"), ((2, 0, True), "max_iter")],
)
def test_non_integer_counts_rejected_naming_the_argument(args, name):
    X = np.random.default_rng(0).normal(size=(20, 2))
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        kmeans_fit(X, *args)


def test_numpy_integer_counts_accepted():
    X = np.random.default_rng(0).normal(size=(20, 2))
    expected = kmeans_fit(X, 2, 3, max_iter=5)
    got = kmeans_fit(X, np.int64(2), np.uint8(3), max_iter=np.int32(5))
    assert np.array_equal(got.labels, expected.labels) and got.n_iter == expected.n_iter


# Gate for the matrix-form k-means: on every family below, labels and
# iteration counts must equal the frozen row-subset implementation in
# tests/helpers.py, in C and Fortran order alike. Only the last bits of the
# centers may differ from it. Every fit must also have all the bits of the
# frozen (n, K) matrix form, centers and inertias included.
FITS_PER_FAMILY = 300


def fit_with_matrix_form_bits(X, k, fit_seed, where):
    """kmeans_fit's result, once it is shown bit-identical to the frozen
    (n, K) matrix form in tests/helpers.py."""
    labels, centers, history, n_iter = kmeans_fit_matrix_reference(X, k, fit_seed)
    got = kmeans_fit(X, k, fit_seed)
    assert np.array_equal(got.labels, labels), where
    assert got.centers.tobytes() == centers.tobytes(), where
    assert got.inertia_history == history, where
    assert got.n_iter == n_iter, where
    return got


def corpus_matrix(family, rng, k):
    n = int(rng.integers(40, 121))
    d = int(rng.integers(2, 21))
    if family == "separated":
        return rng.normal(0.0, 10.0, (k, d))[rng.integers(0, k, n)] + rng.normal(0.0, 0.3, (n, d))
    if family == "overlapping":
        return rng.normal(0.0, 1.0, (k, d))[rng.integers(0, k, n)] + rng.normal(0.0, 1.0, (n, d))
    if family == "duplicate_rows":
        base = rng.normal(0.0, 1.0, (n // 3, d))
        return base[rng.integers(0, base.shape[0], n)]
    if family == "integer_ties":
        return rng.integers(0, 4, (n, d)).astype(np.float64)
    if family == "unit_norm":
        X = rng.normal(0.0, 1.0, (n, d))
        return X / np.linalg.norm(X, axis=1, keepdims=True)
    # fewer distinct points than clusters, so clusters empty and re-seed
    p = int(rng.integers(1, k))
    if family == "coincident_integer":  # every sum exact; a few rows, so re-seeds can empty singletons
        return rng.integers(-3, 4, (p, d)).astype(np.float64)[rng.integers(0, p, int(rng.integers(k, 2 * k + 1)))]
    if family == "coincident":
        return rng.normal(0.0, 1.0, (p, d))[rng.integers(0, p, n)]
    raise ValueError(family)


def corpus(family, seed):
    """(matrix, cluster count, k-means seed) per fit, each matrix in C and in Fortran order."""
    rng = np.random.default_rng(seed)
    for _ in range(FITS_PER_FAMILY):
        k = int(rng.integers(2, 11))
        X = corpus_matrix(family, rng, k)
        fit_seed = int(rng.integers(0, 1000))
        for order in "CF":
            yield np.asarray(X, order=order), k, fit_seed


@pytest.mark.parametrize(
    "family, seed",
    [("separated", 1), ("overlapping", 2), ("duplicate_rows", 3), ("integer_ties", 4), ("unit_norm", 5),
     ("coincident_integer", 7)],
)
def test_fit_matches_frozen_reference(family, seed):
    fits = reseeds = kept = 0
    for X, k, fit_seed in corpus(family, seed):
        want_labels, want_iter, fit_reseeds, fit_kept = kmeans_fit_reference(X, k, fit_seed)
        got = fit_with_matrix_form_bits(X, k, fit_seed, (family, k, fit_seed, X.flags.f_contiguous))
        assert np.array_equal(got.labels, want_labels), (family, k, fit_seed, X.flags.f_contiguous)
        assert got.n_iter == want_iter, (family, k, fit_seed, X.flags.f_contiguous)
        fits += 1
        reseeds += fit_reseeds
        kept += fit_kept
    assert fits == 2 * FITS_PER_FAMILY
    if family == "coincident_integer":  # the family reaches both empty-cluster paths
        assert reseeds > 0 and kept > 0


# Distinct integer points with a seed whose Lloyd run empties a cluster,
# found by searching small grids with the frozen reference. Every variant
# below (scaled by a power of two, padded with zero columns, either layout)
# must still re-seed.
RESEED_CASES = [
    ([[4, 2], [2, 5], [1, 1], [1, 0], [2, 4], [5, 1]], 4, 6),
    ([[2, 6], [5, 6], [3, 1], [5, 4], [5, 3], [2, 2], [6, 3]], 4, 0),
    ([[7, 0], [6, 7], [2, 2], [0, 7], [3, 1], [1, 7], [5, 6], [7, 1], [4, 0], [4, 4], [6, 7]], 6, 0),
    ([[3, 0, 2], [7, 5, 6], [7, 1, 7], [3, 3, 7], [7, 0, 7], [4, 2, 6], [4, 2, 4], [5, 0, 6], [4, 3, 1],
      [6, 3, 7], [4, 3, 6]], 5, 6),
]


@pytest.mark.parametrize("points, k, fit_seed", RESEED_CASES)
def test_fit_matches_frozen_reference_through_empty_cluster_reseeds(points, k, fit_seed):
    base = np.array(points, dtype=np.float64)
    for power in range(-4, 5):
        for pad in (0, 5):
            scaled = np.hstack([base * 2.0**power, np.zeros((base.shape[0], pad))])
            for order in "CF":
                X = np.asarray(scaled, order=order)
                want_labels, want_iter, reseeds, _ = kmeans_fit_reference(X, k, fit_seed)
                assert reseeds > 0  # the case still exercises the re-seed path
                got = fit_with_matrix_form_bits(X, k, fit_seed, (power, pad, order))
                assert np.array_equal(got.labels, want_labels), (power, pad, order)
                assert got.n_iter == want_iter, (power, pad, order)


@pytest.mark.parametrize("k", [1, 2])
def test_one_and_two_clusters_have_the_bits_of_the_frozen_matrix_form(k):
    rng = np.random.default_rng(20 + k)
    for fit_seed in range(40):
        X = rng.normal(size=(int(rng.integers(k, 80)), int(rng.integers(1, 8))))
        for order in "CF":
            fit_with_matrix_form_bits(np.asarray(X, order=order), k, fit_seed, (k, fit_seed, order))


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_ties_between_duplicated_centers_have_the_bits_of_the_frozen_matrix_form(k):
    # two or three distinct points repeated: plus-plus runs out of distance
    # and draws centers onto points it already took, so whole rows of the
    # distance matrix tie and every tied point goes to the lowest id
    rng = np.random.default_rng(k)
    for fit_seed in range(40):
        distinct = rng.integers(-2, 3, (int(rng.integers(2, 4)), 3)).astype(np.float64)
        X = distinct[np.arange(3 * k) % distinct.shape[0]]
        fit_with_matrix_form_bits(X, k, fit_seed, (k, fit_seed))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("fit_seed", range(4))
def test_non_finite_matrix_rejected(bad, fit_seed):
    X = np.random.default_rng(0).normal(size=(20, 3))
    X[7, 1] = bad
    X[12, 2] = 1e200  # a later row's overflow is not the one reported
    with pytest.raises(NonFiniteEntry) as exc:
        kmeans_fit(X, 3, fit_seed)
    assert (exc.value.row, exc.value.col) == (7, 1)


@pytest.mark.parametrize("fit_seed", range(4))
def test_overflowing_squared_norm_rejected(fit_seed):
    X = np.random.default_rng(0).normal(size=(20, 3))
    X[7, 1] = 1e200  # finite, but its square overflows
    with pytest.raises(ValueError, match="row 7's squared norm overflows"):
        kmeans_fit(X, 3, fit_seed)


def labeling_objective(X, labels, k):
    return sum(float(((X[labels == c] - X[labels == c].mean(axis=0)) ** 2).sum()) for c in range(k))


def test_coincident_points_reach_a_zero_objective():
    # more clusters than distinct points: many labelings are optimal, and the
    # centers' last bits may pick a different one than the reference does
    for X, k, fit_seed in corpus("coincident", 6):
        got = fit_with_matrix_form_bits(X, k, fit_seed, (k, fit_seed, X.flags.f_contiguous))
        assert got.labels.shape == (X.shape[0],)
        assert np.array_equal(np.unique(got.labels), np.arange(k))
        assert labeling_objective(X, got.labels, k) <= 1e-12 * float((X**2).sum())
