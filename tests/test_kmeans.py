import numpy as np
import pytest

from csufs import LabelVector, TooFewSamples, clustering_accuracy, kmeans, kmeans_fit


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
