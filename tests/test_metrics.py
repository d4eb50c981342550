import math

import numpy as np
import pytest

from csufs import (
    LabelVector,
    LengthMismatch,
    clustering_accuracy,
    contingency_table,
    entropy,
    normalized_mutual_information,
)
from csufs.metrics import _max_assignment_total
from helpers import acc_bruteforce_matched, assignment_bruteforce_total, random_labels


def lv(values):
    return LabelVector.from_raw(np.asarray(values))


def test_contingency_counts():
    table = contingency_table(lv([0, 0, 1, 1]), lv([0, 1, 1, 1]))
    assert np.array_equal(table, [[1, 1], [0, 2]])


def test_contingency_matches_brute_loop_with_unused_classes():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        c_s, c_r = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        # n_classes may exceed the labels drawn, leaving whole rows and columns empty
        s = LabelVector(labels=rng.integers(0, c_s, n), n_classes=c_s + int(rng.integers(0, 3)))
        r = LabelVector(labels=rng.integers(0, c_r, n), n_classes=c_r + int(rng.integers(0, 3)))
        want = np.zeros((s.n_classes, r.n_classes), dtype=np.int64)
        for a, b in zip(s.labels.tolist(), r.labels.tolist()):
            want[a, b] += 1
        got = contingency_table(s, r)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


def test_acc_worked_examples():
    s = lv([0, 0, 1, 1])
    assert clustering_accuracy(s, lv([1, 1, 0, 0])) == 1.0
    assert clustering_accuracy(s, lv([0, 1, 0, 1])) == 0.5
    assert clustering_accuracy(s, s) == 1.0


def test_acc_rectangular_contingency():
    # r splits one of s's classes; the best map matches 3 of 4
    s = lv([0, 0, 1, 1])
    r = lv([0, 1, 2, 2])
    assert clustering_accuracy(s, r) == 0.75


def test_acc_length_mismatch():
    with pytest.raises(LengthMismatch):
        clustering_accuracy(lv([0, 1]), lv([0, 1, 1]))


def test_acc_matches_bruteforce_on_random_pairs():
    rng = np.random.default_rng(14)
    for _ in range(30):
        n = int(rng.integers(5, 31))
        c_s = int(rng.integers(2, 6))
        c_r = int(rng.integers(2, 6))
        s_raw = random_labels(rng, n, c_s)
        r_raw = random_labels(rng, n, c_r)
        expected = acc_bruteforce_matched(s_raw, r_raw, c_s, c_r) / n
        got = clustering_accuracy(lv(s_raw), lv(r_raw))
        assert got == expected


def test_acc_invariant_under_relabeling():
    rng = np.random.default_rng(15)
    s_raw = random_labels(rng, 40, 4)
    r_raw = random_labels(rng, 40, 3)
    base = clustering_accuracy(lv(s_raw), lv(r_raw))
    perm = rng.permutation(3)
    assert clustering_accuracy(lv(s_raw), lv(perm[r_raw])) == base


def test_acc_matches_bruteforce_on_edge_tables():
    # k=1, clusters fewer or more than classes (all-zero padded rows or
    # columns), a label absent from the other vector (all-zero counts),
    # and tables where several mappings reach the optimum
    rng = np.random.default_rng(20)
    cases = [([0, 0, 0], [0, 0, 0]), ([0, 1, 2, 0], [0, 0, 0, 0]), ([0, 0, 0, 0], [0, 1, 2, 3]),
             ([0, 1, 0, 1], [0, 0, 1, 1]), ([0, 1, 2, 0, 1, 2], [0, 1, 2, 1, 2, 0])]
    for _ in range(60):
        n = int(rng.integers(1, 25))
        c_s = int(rng.integers(1, min(n, 7) + 1))
        c_r = int(rng.integers(1, min(n, 7) + 1))
        cases.append((random_labels(rng, n, c_s), random_labels(rng, n, c_r)))
    for s_raw, r_raw in cases:
        s_raw, r_raw = np.asarray(s_raw), np.asarray(r_raw)
        c_s, c_r = int(s_raw.max()) + 1, int(r_raw.max()) + 1
        expected = acc_bruteforce_matched(s_raw, r_raw, c_s, c_r) / len(s_raw)
        assert clustering_accuracy(lv(s_raw), lv(r_raw)) == expected


def test_assignment_total_matches_bruteforce_with_zero_lines_and_ties():
    rng = np.random.default_rng(21)
    for _ in range(200):
        size = int(rng.integers(1, 8))
        table = rng.integers(0, 4, (size, size))  # small range: many tied optima
        if size > 1 and rng.random() < 0.5:
            table[rng.integers(size)] = 0
            table[:, rng.integers(size)] = 0
        assert _max_assignment_total(table) == assignment_bruteforce_total(table)


def test_assignment_total_matches_scipy_on_larger_tables():
    scipy_optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(22)
    for size in [8, 9, 12, 16, 23, 32, 47, 64]:
        for high in (3, 1000):
            table = rng.integers(0, high, (size, size))
            rows, cols = scipy_optimize.linear_sum_assignment(table, maximize=True)
            assert _max_assignment_total(table) == int(table[rows, cols].sum())


def test_entropy_examples():
    assert entropy(lv([0, 0, 0])) == 0.0
    assert entropy(lv([0, 1])) == math.log(2)
    assert entropy(lv([0, 0, 1, 1, 2, 2, 3, 3])) == math.log(4)


def test_entropy_upper_bound_is_uniform():
    rng = np.random.default_rng(16)
    for _ in range(20):
        c = int(rng.integers(2, 6))
        raw = random_labels(rng, 36, c)
        assert entropy(lv(raw)) <= math.log(c) + 1e-12


def test_nmi_identical_partitions():
    s = lv([0, 0, 1, 1])
    assert normalized_mutual_information(s, s) == 1.0
    assert normalized_mutual_information(s, lv([1, 1, 0, 0])) == 1.0


def test_nmi_independent_case_is_zero():
    # joint equals the product of marginals, so mutual information vanishes
    assert normalized_mutual_information(lv([0, 0, 1, 1]), lv([0, 1, 0, 1])) == 0.0


def test_nmi_degenerate_cases():
    both_const = normalized_mutual_information(lv([0, 0, 0]), lv([1, 1, 1]))
    assert both_const == 1.0
    one_const = normalized_mutual_information(lv([0, 0, 0]), lv([0, 1, 2]))
    assert one_const == 0.0


def test_nmi_range_and_symmetry():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(5, 40))
        s_raw = random_labels(rng, n, int(rng.integers(2, 6)))
        r_raw = random_labels(rng, n, int(rng.integers(2, 6)))
        a = normalized_mutual_information(lv(s_raw), lv(r_raw))
        b = normalized_mutual_information(lv(r_raw), lv(s_raw))
        assert 0.0 <= a <= 1.0
        assert abs(a - b) <= 1e-12


def test_nmi_invariant_under_relabeling():
    rng = np.random.default_rng(18)
    s_raw = random_labels(rng, 50, 4)
    r_raw = random_labels(rng, 50, 3)
    base = normalized_mutual_information(lv(s_raw), lv(r_raw))
    perm = rng.permutation(3)
    assert abs(normalized_mutual_information(lv(s_raw), lv(perm[r_raw])) - base) <= 1e-12


def test_nmi_length_mismatch():
    with pytest.raises(LengthMismatch):
        normalized_mutual_information(lv([0, 1]), lv([0, 1, 0]))


def test_nmi_against_sklearn_on_nondegenerate_pairs():
    sklearn_metrics = pytest.importorskip("sklearn.metrics")
    rng = np.random.default_rng(19)
    for _ in range(25):
        n = int(rng.integers(8, 60))
        s_raw = random_labels(rng, n, int(rng.integers(2, 5)))
        r_raw = random_labels(rng, n, int(rng.integers(2, 5)))
        ours = normalized_mutual_information(lv(s_raw), lv(r_raw))
        ref = sklearn_metrics.normalized_mutual_info_score(s_raw, r_raw, average_method="max")
        assert abs(ours - ref) <= 1e-9
