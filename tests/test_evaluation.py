import heapq
import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import csufs
import csufs.parts
from csufs import (
    EvalConfig,
    LabelVector,
    LengthMismatch,
    Method,
    ScoringConfig,
    evaluate_selection,
    kmeans,
    kmeans_fit,
    normalize_samples,
    score_all_features,
    select_max_variance,
    sweep,
    validate_dataset,
)
from helpers import Split, count_forks, count_normalizations, make_two_class_data
from test_parts import assert_no_children, fail_first_fork, truncate_pickles

evaluation = importlib.import_module("csufs.evaluation")
kmeans_module = importlib.import_module("csufs.kmeans")


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


@pytest.mark.parametrize(
    "index_of", [lambda m: -1, lambda m: -m, lambda m: m, lambda m: m + 5], ids=["-1", "-m", "m", "m+5"]
)
def test_selection_index_outside_the_matrix_rejected(clustered_dataset, index_of):
    """-1 must not wrap round to the last column, and m must not end in
    numpy's bare IndexError."""
    X, truth = clustered_dataset
    m = X.n_features
    index = index_of(m)
    with pytest.raises(ValueError, match=rf"selected index {index} is outside 0\.\.{m - 1}"):
        evaluate_selection(X, [0, index], truth, EvalConfig(n_clusters=2))


@pytest.mark.parametrize(
    "selected",
    [np.array([False, False, False, True, True, True]), [1.7], np.array([0.0, 1.0])],
    ids=["bool-mask", "float", "integral-float"],
)
def test_selection_that_is_not_integer_indices_rejected(clustered_dataset, selected):
    """A boolean mask must not turn into columns 0 and 1, nor 1.7 into column 1."""
    X, truth = clustered_dataset
    with pytest.raises(ValueError, match="selected must hold integer indices"):
        evaluate_selection(X, selected, truth, EvalConfig(n_clusters=2, seeds=(0,)))


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16, np.uint64])
def test_signed_and_unsigned_integer_selections_accepted(clustered_dataset, dtype):
    X, truth = clustered_dataset
    cfg = EvalConfig(n_clusters=2, seeds=(0,))
    report = evaluate_selection(X, np.array([3, 4, 5], dtype=dtype), truth, cfg)
    assert report == evaluate_selection(X, [3, 4, 5], truth, cfg)


def test_non_integer_seeds_rejected():
    for seeds in ([1.5], [True], [0, 2.0], ["3"]):
        with pytest.raises(ValueError, match="seeds must be integers"):
            EvalConfig(n_clusters=2, seeds=seeds)
    assert EvalConfig(n_clusters=2, seeds=np.arange(3, dtype=np.uint8)).seeds == (0, 1, 2)


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


@pytest.mark.parametrize("field", ["n_clusters", "max_iter"])
@pytest.mark.parametrize("count", [2.5, 3.0, True, "3"])
def test_non_integer_counts_rejected_naming_the_field(field, count):
    fields = {"n_clusters": 2, "seeds": [0], field: count}
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        EvalConfig(**fields)


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
    with pytest.raises(ValueError, match="^d_values must be non-empty"):
        sweep(X, truth, Method.CSUFS_OPTIMIZED, [], [1], cfg)
    with pytest.raises(ValueError, match="^k_values must be non-empty"):
        sweep(X, truth, Method.CSUFS_OPTIMIZED, [1], [], cfg)
    for method in Method:
        for d_values, k_values, rule in [([-1], [1], "d_values must be positive, got -1"),
                                         ([0], [1], "d_values must be positive, got 0"),
                                         ([2, 0], [1], "d_values must be positive, got 0"),
                                         ([2], [0, -4], "k_values must be positive, got -4"),
                                         ([2], [3, -1], "k_values must be positive, got -1"),
                                         ([2.5], [1], "d_values must be integers"),
                                         ([2], [1.0], "k_values must be integers"),
                                         ([True], [1], "d_values must be integers"),
                                         ([2], [np.float64(3)], "k_values must be integers")]:
            with pytest.raises(ValueError, match=f"^{rule}"):
                sweep(X, truth, method, d_values, k_values, cfg)


def test_sweep_accepts_numpy_integer_grids(clustered_dataset):
    X, truth = clustered_dataset
    cfg = EvalConfig(n_clusters=2, seeds=(0,))
    report = sweep(X, truth, Method.CSUFS_OPTIMIZED, np.array([2, 3], dtype=np.uint8), np.arange(1, 3), cfg)
    assert report == sweep(X, truth, Method.CSUFS_OPTIMIZED, [2, 3], [1, 2], cfg)
    assert [type(d) for d in report.d_values + report.k_values] == [int] * 4


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


FIT_GRID = dict(d_values=[10, 20, 30, 40], k_values=[5, 3])


@pytest.fixture(scope="module")
def fit_sized():
    """A sweep over FIT_GRID whose fits hold at least 6 x
    scoring.PART_VALUES values clustered (1500 samples x 100 columns x 10
    seeds over the four selections of k = 5, more when k = 3 ranks
    otherwise), so up to three parts run; its 50 columns keep the kernel in
    one part."""
    assert 1500 * (10 + 20 + 30 + 40) * 10 >= 6 * csufs.scoring.PART_VALUES
    rng = np.random.default_rng(31)
    X, labels = make_two_class_data(rng, n=1500, informative=10, noise=40)
    return normalize_samples(validate_dataset(X)), LabelVector.from_raw(labels), EvalConfig(2, seeds=range(10))


def distinct_selections(Xn, d_values, k_values):
    """Each distinct column list of a csufs sweep, first seen first."""
    distinct = {}
    for k in k_values:
        ranking = score_all_features(Xn, ScoringConfig(k=k)).ranking()
        for d in d_values:
            distinct.setdefault(tuple(ranking[:d].tolist()), None)
    return [list(key) for key in distinct]


def dealt_longest_first(selections, cpus):
    """selections dealt to cpus parts, longest first (the first seen of equal
    lengths first), each to the part holding the fewest columns so far (the
    lowest part of equal totals)."""
    parts = [(0, p, []) for p in range(cpus)]
    for columns in sorted(selections, key=len, reverse=True):  # stable: first seen first among equals
        total, p, held = heapq.heappop(parts)
        held.append(columns)
        heapq.heappush(parts, (total + len(columns), p, held))
    return [held for _, _, held in sorted(parts, key=lambda part: part[1])]


def one_part_sweep(monkeypatch, Xn, truth, cfg, d_values, k_values):
    with monkeypatch.context() as patch:
        patch.setattr(csufs.parts, "usable_cpus", lambda: 1)
        return sweep(Xn, truth, Method.CSUFS_OPTIMIZED, d_values, k_values, cfg)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_sweep_report_is_the_same_for_any_cpu_count(monkeypatch, fit_sized, cpus):
    Xn, truth, cfg = fit_sized
    expected = one_part_sweep(monkeypatch, Xn, truth, cfg, **FIT_GRID)
    forks = count_forks(monkeypatch, cpus)
    assert sweep(Xn, truth, Method.CSUFS_OPTIMIZED, cfg=cfg, **FIT_GRID) == expected
    selections = distinct_selections(Xn, **FIT_GRID)
    dealt = dealt_longest_first(selections, cpus)  # one part per process, the caller's first
    assert forks.fits == ([Split(cpus, dealt)] if cpus > 1 else [])
    assert forks.kernels == [] and forks.children == cpus - 1
    assert_no_children()


@pytest.mark.parametrize("count", [1, 2, 3, 5])
def test_deal_keeps_part_totals_within_the_largest_size(count):
    rng = np.random.default_rng(count)
    for _ in range(200):
        sizes = rng.integers(1, 50, int(rng.integers(count, 25))).tolist()
        dealt = evaluation._deal(sizes, count)
        assert sorted(i for part in dealt for i in part) == list(range(len(sizes)))
        totals = [sum(sizes[i] for i in part) for part in dealt]
        assert max(totals) - min(totals) <= max(sizes)


@pytest.mark.parametrize(
    "lose",
    [fail_first_fork, lambda patch: truncate_pickles(patch, lambda obj: True)],
    ids=["fork-fails", "truncated-pickle"],
)
def test_lost_fit_part_gives_the_same_report(monkeypatch, fit_sized, lose):
    Xn, truth, cfg = fit_sized
    expected = one_part_sweep(monkeypatch, Xn, truth, cfg, **FIT_GRID)
    forks = count_forks(monkeypatch, 3)
    lose(monkeypatch)
    assert sweep(Xn, truth, Method.CSUFS_OPTIMIZED, cfg=cfg, **FIT_GRID) == expected
    assert [(split.workers, len(split.pieces)) for split in forks.fits] == [(3, 3)] and forks.children == 2
    assert_no_children()


def test_sweep_keeps_one_part_without_blas_thread_control(monkeypatch, fit_sized):
    Xn, truth, cfg = fit_sized
    expected = one_part_sweep(monkeypatch, Xn, truth, cfg, **FIT_GRID)
    monkeypatch.setattr(csufs.parts, "_blas_threads", lambda: None)
    forks = count_forks(monkeypatch, 3)
    assert sweep(Xn, truth, Method.CSUFS_OPTIMIZED, cfg=cfg, **FIT_GRID) == expected
    assert forks.fits == []


@pytest.mark.parametrize("path", ["split-sweep", "one-part-sweep", "evaluate", "kmeans_fit"])
def test_fit_parts_run_on_one_blas_thread_which_is_restored_after(monkeypatch, fit_sized, path):
    """Every fit reads one BLAS thread, in the caller and in a forked fit
    part, and the caller's count is back after: a sweep in two parts, a
    sweep below the floor (one part), the `evaluate` command's
    evaluate_selection and a bare kmeans_fit, which gives the same result
    where no OpenBLAS control is found."""
    threads = csufs.parts._blas_threads()
    if threads is None:
        pytest.skip("no OpenBLAS thread control in this process")
    get, put = threads
    before = get()
    put(2)
    try:
        held = get()  # 2, or fewer where OpenBLAS was built for fewer
        Xn, truth, cfg = fit_sized
        parent, seen = os.getpid(), []
        distances, evaluate = kmeans_module._squared_distances, evaluation.evaluate_selection

        def reading(*args):  # inside a fit: in the caller or not, and on how many BLAS threads
            seen.append((os.getpid() == parent, get()))
            return distances(*args)

        def recording(*args, **kwargs):  # brings what a fit part's fits read back to the caller
            start = len(seen)
            report = evaluate(*args, **kwargs)
            report.blas = set(seen[start:])  # not a field, so == ignores it
            return report

        monkeypatch.setattr(kmeans_module, "_squared_distances", reading)
        monkeypatch.setattr(evaluation, "evaluate_selection", recording)
        forks = count_forks(monkeypatch, 2)
        if path == "split-sweep":
            swept = sweep(Xn, truth, Method.CSUFS_OPTIMIZED, cfg=cfg, **FIT_GRID)
            assert [(split.workers, len(split.pieces)) for split in forks.fits] == [(2, 2)] and forks.children == 1
        elif path == "one-part-sweep":
            small, small_truth, _ = floor_sized(60, [2, 4, 12])
            swept = sweep(small, small_truth, Method.CSUFS_OPTIMIZED, [2, 4, 12], [5], cfg)
            assert forks.fits == [] and forks.children == 0
        elif path == "evaluate":
            evaluate_selection(Xn, range(20), truth, cfg)
        else:
            fit = kmeans_fit(Xn.values, 4, 3)
        observed = set().union(*(cell.report.blas for cell in swept.cells)) if "sweep" in path else set(seen)
        assert observed == ({(True, 1), (False, 1)} if path == "split-sweep" else {(True, 1)})
        assert get() == held
        if path == "kmeans_fit":
            monkeypatch.setattr(csufs.parts, "_blas_threads", lambda: None)
            unpinned = kmeans_fit(Xn.values, 4, 3)  # on the pool of held threads
            assert np.array_equal(unpinned.labels, fit.labels) and np.array_equal(unpinned.centers, fit.centers)
            assert (unpinned.inertia_history, unpinned.n_iter) == (fit.inertia_history, fit.n_iter)
            assert seen[-1] == (True, held)
    finally:
        put(before)


def floor_sized(n, d_values):
    """A normalized n x 40 matrix, its labels, and the distinct selections
    of a csufs sweep over d_values at k = 5."""
    rng = np.random.default_rng(32)
    X, labels = make_two_class_data(rng, n=n, informative=4, noise=36)
    Xn = normalize_samples(validate_dataset(X))
    return Xn, LabelVector.from_raw(labels), distinct_selections(Xn, d_values, [5])


@pytest.mark.parametrize(
    "n, d_values, seeds",
    [(60, [2, 4, 12], 10), (1000, [10, 20, 19], 10)],
    ids=["small", "just-under-two-parts"],
)
def test_sweep_below_the_floor_forks_no_fit_part(monkeypatch, n, d_values, seeds):
    """490000 values clustered (1000 samples x 49 columns x 10 seeds) is
    under 2 x scoring.PART_VALUES, so it is one part, as is a small sweep."""
    Xn, truth, selections = floor_sized(n, d_values)
    assert n * seeds * sum(map(len, selections)) < 2 * csufs.scoring.PART_VALUES
    forks = count_forks(monkeypatch, 4)
    sweep(Xn, truth, Method.CSUFS_OPTIMIZED, d_values, [5], EvalConfig(2, seeds=range(seeds)))
    assert forks.fits == []


def test_sweep_from_two_floors_forks_one_fit_part_on_two_cpus(monkeypatch):
    """990000 values clustered (1000 samples x 99 columns x 10 seeds) is
    at least 2 x scoring.PART_VALUES, the kernel's own floor, so on two
    usable CPUs a child evaluates the second of two parts; the 40000 kernel
    values are one part."""
    d_values = [10, 20, 30, 39]
    Xn, truth, selections = floor_sized(1000, d_values)
    assert 2 * csufs.scoring.PART_VALUES <= 1000 * 10 * sum(map(len, selections)) < 4 * csufs.scoring.PART_VALUES
    cfg = EvalConfig(2, seeds=range(10))
    expected = one_part_sweep(monkeypatch, Xn, truth, cfg, d_values, [5])
    forks = count_forks(monkeypatch, 2)
    assert sweep(Xn, truth, Method.CSUFS_OPTIMIZED, d_values, [5], cfg) == expected
    assert forks.fits == [Split(2, dealt_longest_first(selections, 2))]
    assert forks.kernels == [] and forks.children == 1
    assert_no_children()


# A fresh interpreter that loads no numpy.random before the sweep: its
# 1000 x 40 matrix and labels come from np.sin, and its two selections of
# 25 and 40 columns at 10 seeds cluster 650000 values, two fit parts on
# two usable CPUs. Prints whether numpy.random was loaded before the sweep
# and at each fork of a fit part.
FORK_PROBE = """
import json, sys
import numpy as np
import csufs, csufs.evaluation, csufs.parts
loaded_first = "numpy.random" in sys.modules
fork, at_forks = csufs.parts._fork, []

def recording(work):  # a parts._work call: the jobs, the child's own job's index, the queue
    jobs, (own,), _ = work.args
    if jobs[own].func is csufs.evaluation._evaluate_each:
        at_forks.append("numpy.random" in sys.modules)
    return fork(work)

csufs.parts.usable_cpus = lambda: 2
csufs.parts._fork = recording
labels = np.arange(1000) % 2
X = np.sin(np.arange(40000.0).reshape(1000, 40) * 0.37) + labels[:, None] * (np.arange(40) < 4)
truth = csufs.LabelVector.from_raw(labels)
csufs.sweep(csufs.validate_dataset(X), truth, csufs.Method.CSUFS_OPTIMIZED, [25, 40], [5], csufs.EvalConfig(2))
print(json.dumps({"loaded_first": loaded_first, "at_forks": at_forks}))
"""


def test_fit_part_forks_with_numpy_random_loaded():
    """kmeans seeds by numpy.random, which `import numpy` does not load: a
    fit part's child must not import it after the fork (parts._fork), so
    the sweep loads it before it forks."""
    if csufs.parts._blas_threads() is None:
        pytest.skip("no OpenBLAS thread control in this process, so fits keep one part")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(csufs.__file__)))
    out = subprocess.run([sys.executable, "-c", FORK_PROBE], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {"loaded_first": False, "at_forks": [True]}
