import importlib

import numpy as np
import pytest

import csufs
from csufs import (
    EvalConfig,
    LabelVector,
    LengthMismatch,
    Method,
    ScoringConfig,
    evaluate_selection,
    kmeans,
    normalize_samples,
    score_all_features,
    select_max_variance,
    sweep,
    validate_dataset,
)
from helpers import count_normalizations, make_two_class_data


@pytest.fixture(scope="module")
def clustered_dataset():
    rng = np.random.default_rng(30)
    X, labels = make_two_class_data(rng, n=60, informative=4, noise=8)
    return validate_dataset(X), LabelVector.from_raw(labels)


def test_self_consistency_perfect_scores(clustered_dataset):
    X, _ = clustered_dataset
    all_idx = np.arange(X.n_features)
    truth = kmeans(np.ascontiguousarray(normalize_samples(X).values), 2, seed=3)
    cfg = EvalConfig(n_clusters=2, seeds=(3,))
    report = evaluate_selection(X, all_idx, truth, cfg)
    assert report.per_seed == [(3, 1.0, 1.0)]
    assert report.mean_acc == 1.0
    assert report.mean_nmi == 1.0


def test_one_row_per_seed_and_exact_means(clustered_dataset):
    X, truth = clustered_dataset
    cfg = EvalConfig(n_clusters=2, seeds=tuple(range(10)))
    report = evaluate_selection(X, np.arange(4), truth, cfg, method=Method.CSUFS_OPTIMIZED)
    assert len(report.per_seed) == 10
    assert [s for s, _, _ in report.per_seed] == list(range(10))
    accs = [a for _, a, _ in report.per_seed]
    nmis = [m for _, _, m in report.per_seed]
    assert abs(report.mean_acc - sum(accs) / 10) <= 1e-12
    assert abs(report.mean_nmi - sum(nmis) / 10) <= 1e-12
    assert report.n_features_used == 4
    assert report.method is Method.CSUFS_OPTIMIZED


def test_reruns_are_identical(clustered_dataset):
    X, truth = clustered_dataset
    cfg = EvalConfig(n_clusters=2, seeds=(0, 1, 2))
    a = evaluate_selection(X, np.arange(6), truth, cfg)
    b = evaluate_selection(X, np.arange(6), truth, cfg)
    assert a == b


def test_informative_subset_beats_noise_subset(clustered_dataset):
    X, truth = clustered_dataset
    cfg = EvalConfig(n_clusters=2, seeds=tuple(range(5)))
    good = evaluate_selection(X, np.arange(4), truth, cfg)
    bad = evaluate_selection(X, np.arange(4, 12), truth, cfg)
    assert good.mean_acc > bad.mean_acc


def test_empty_selection_rejected(clustered_dataset):
    X, truth = clustered_dataset
    with pytest.raises(ValueError):
        evaluate_selection(X, [], truth, EvalConfig(n_clusters=2))


def test_truth_length_checked(clustered_dataset):
    X, _ = clustered_dataset
    short = LabelVector.from_raw(np.arange(2))
    with pytest.raises(LengthMismatch):
        evaluate_selection(X, [0], short, EvalConfig(n_clusters=2))


def test_seed_list_must_be_nonempty():
    with pytest.raises(ValueError):
        EvalConfig(n_clusters=2, seeds=())


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="seeds must be non-negative"):
        EvalConfig(n_clusters=2, seeds=(0, -1))


def test_negative_conv_tol_rejected():
    with pytest.raises(ValueError, match="conv_tol"):
        EvalConfig(n_clusters=2, conv_tol=-1e-4)
    assert EvalConfig(n_clusters=2, conv_tol=0.0).conv_tol == 0.0


def test_nonpositive_max_iter_rejected():
    # caught here, before any k is scored, not by the first kmeans_fit
    for max_iter in (0, -1):
        with pytest.raises(ValueError, match="max_iter must be positive"):
            EvalConfig(n_clusters=2, max_iter=max_iter)
    assert EvalConfig(n_clusters=2, max_iter=1).max_iter == 1


def test_sweep_covers_full_grid(clustered_dataset):
    X, truth = clustered_dataset
    cfg = EvalConfig(n_clusters=2, seeds=(0, 1))
    d_values = list(range(1, 11))
    k_values = [1, 2, 3, 4, 5, 6]
    report = sweep(X, truth, Method.CSUFS_OPTIMIZED, d_values, k_values, cfg)
    assert len(report.cells) == 60
    seen = {(c.d, c.k) for c in report.cells}
    assert seen == {(d, k) for d in d_values for k in k_values}
    for cell in report.cells:
        assert cell.report.n_features_used == cell.d


def test_sweep_full_d_matches_all_features(clustered_dataset):
    X, truth = clustered_dataset
    m = X.n_features
    cfg = EvalConfig(n_clusters=2, seeds=(0, 1, 2))
    swept = sweep(X, truth, Method.CSUFS_OPTIMIZED, [m], [3], cfg)
    direct = evaluate_selection(X, np.arange(m), truth, cfg)
    (cell,) = swept.cells
    assert (cell.d, cell.k) == (m, 3)
    report = cell.report
    # the same columns in a different order cluster identically
    assert report.mean_acc == pytest.approx(direct.mean_acc, abs=1e-12)
    assert report.mean_nmi == pytest.approx(direct.mean_nmi, abs=1e-12)


def test_sweep_shares_seeds_across_methods(clustered_dataset):
    X, truth = clustered_dataset
    m = X.n_features
    cfg = EvalConfig(n_clusters=2, seeds=(0, 1, 2, 3))
    a = sweep(X, truth, Method.MAX_VARIANCE, [m], [1], cfg)
    b = sweep(X, truth, Method.ALL_FEATURES, [m], [1], cfg)
    # with d=m both methods cluster the same column set, so the shared
    # seeds must give the same metrics
    (ca,), (cb,) = a.cells, b.cells
    ra, rb = ca.report, cb.report
    for (sa, aa, na), (sb, ab, nb) in zip(ra.per_seed, rb.per_seed):
        assert sa == sb
        assert aa == pytest.approx(ab, abs=1e-12)
        assert na == pytest.approx(nb, abs=1e-12)


def test_sweep_all_features_ignores_d(clustered_dataset):
    X, truth = clustered_dataset
    cfg = EvalConfig(n_clusters=2, seeds=(0,))
    report = sweep(X, truth, Method.ALL_FEATURES, [1, 2], [1], cfg)
    for cell in report.cells:
        assert cell.report.n_features_used == X.n_features


def test_sweep_rejects_empty_grid(clustered_dataset):
    X, truth = clustered_dataset
    cfg = EvalConfig(n_clusters=2)
    with pytest.raises(ValueError):
        sweep(X, truth, Method.CSUFS_OPTIMIZED, [], [1], cfg)
    with pytest.raises(ValueError):
        sweep(X, truth, Method.CSUFS_OPTIMIZED, [1], [], cfg)


def test_sweep_reruns_identical(clustered_dataset):
    X, truth = clustered_dataset
    cfg = EvalConfig(n_clusters=2, seeds=(0, 1))
    a = sweep(X, truth, Method.CSUFS_OPTIMIZED, [2, 4], [2, 3], cfg)
    b = sweep(X, truth, Method.CSUFS_OPTIMIZED, [2, 4], [2, 3], cfg)
    assert a == b


@pytest.mark.parametrize("method", [Method.CSUFS_OPTIMIZED, Method.ALL_FEATURES, Method.MAX_VARIANCE])
def test_sweep_normalizes_once_and_matches_per_cell_evaluation(clustered_dataset, monkeypatch, method):
    X, truth = clustered_dataset
    cfg = EvalConfig(n_clusters=2, seeds=(0, 1))
    calls = count_normalizations(monkeypatch)
    swept = sweep(X, truth, method, [2, 4], [2, 3], cfg)
    assert len(calls) == 1
    for cell in swept.cells:
        if method is Method.ALL_FEATURES:
            selected = np.arange(X.n_features)
        elif method is Method.MAX_VARIANCE:
            selected = select_max_variance(X, cell.d).selected
        else:
            selected = csufs.csufs(X, cell.d, ScoringConfig(k=cell.k)).selected
        assert cell.report == evaluate_selection(X, selected, truth, cfg, method=method)


def test_sweep_clusters_each_distinct_selection_once(clustered_dataset, monkeypatch):
    X, truth = clustered_dataset
    cfg = EvalConfig(n_clusters=2, seeds=(0, 1))
    d_values, k_values = [2, 4], [2, 3, 4]
    selections = {(d, k): csufs.csufs(X, d, ScoringConfig(k=k)).selected for d in d_values for k in k_values}
    distinct = {tuple(s.tolist()) for s in selections.values()}
    assert len(distinct) < len(selections)  # some k values rank alike
    kmeans_module = importlib.import_module("csufs.kmeans")
    original, fits = kmeans_module.kmeans_fit, []

    def counting(*args, **kwargs):
        fits.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(kmeans_module, "kmeans_fit", counting)
    swept = sweep(X, truth, Method.CSUFS_OPTIMIZED, d_values, k_values, cfg)
    assert len(fits) == len(distinct) * len(cfg.seeds)
    for cell in swept.cells:
        expected = evaluate_selection(X, selections[cell.d, cell.k], truth, cfg, method=Method.CSUFS_OPTIMIZED)
        assert cell.report == expected


def test_sweep_over_an_unsorted_k_grid_with_a_repeat_picks_per_k_prefixes(clustered_dataset, monkeypatch):
    X, truth = clustered_dataset
    cfg = EvalConfig(n_clusters=2, seeds=(0,))
    evaluation = importlib.import_module("csufs.evaluation")
    original, picked = evaluation.evaluate_selection, {}

    def recording(Xn, selected, *args, **kwargs):
        report = original(Xn, selected, *args, **kwargs)
        picked[id(report)] = np.asarray(selected).tolist()
        return report

    monkeypatch.setattr(evaluation, "evaluate_selection", recording)
    d_values, k_values = [2, 7, 12], (10, 3, 10)  # k = 3 and 10 rank alike only up to d = 6
    swept = sweep(X, truth, Method.CSUFS_OPTIMIZED, d_values, k_values, cfg)
    Xn = normalize_samples(X)
    rankings = {k: score_all_features(Xn, ScoringConfig(k=k)).ranking() for k in set(k_values)}
    assert [(c.d, c.k) for c in swept.cells] == [(d, k) for k in k_values for d in d_values]
    for cell in swept.cells:
        assert picked[id(cell.report)] == rankings[cell.k][: cell.d].tolist()


def test_normalized_input_is_used_as_it_is(clustered_dataset, monkeypatch):
    X, truth = clustered_dataset
    cfg = EvalConfig(n_clusters=2, seeds=(0, 1))
    expected = (
        evaluate_selection(X, np.arange(4), truth, cfg),
        csufs.csufs(X, 3),
        select_max_variance(X, 3),
    )
    Xn = normalize_samples(X)
    calls = count_normalizations(monkeypatch)
    got = (evaluate_selection(Xn, np.arange(4), truth, cfg), csufs.csufs(Xn, 3), select_max_variance(Xn, 3))
    assert got == expected
    assert calls == []
