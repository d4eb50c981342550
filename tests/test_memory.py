"""Peak traced memory of whole CLI commands, from CSV on disk to report on disk.

A command holds at most two matrix-sized buffers at once: while loading,
the parsed ranges' label-free blocks and the one table they are concatenated
into, then that table and the Dataset's copy of it; after that, the
normalized matrix and at most one copy taken from it. The written matrix
is streamed a row at a time. Each command's tracemalloc peak must stay within C times the
feature matrix's bytes plus a small constant. Below the CLI, k-means and the
evaluation of a few columns form no matrix-sized temporary at all.
"""

import tracemalloc

import numpy as np
import pytest

import csufs.parts
import csufs.scoring as scoring
from csufs import (
    EvalConfig,
    LabelVector,
    evaluate_selection,
    kmeans_fit,
    knn_distance_sums,
    knn_distance_trace,
    normalize_samples,
    validate_dataset,
)
from csufs.cli import main
from helpers import Split, count_forks, tiles

N, M = 2600, 500  # 10.4 MB of float64 features, 9.0 MB of CSV
MATRIX_BYTES = N * M * 8
C = 2.25  # every command measures 2.14 here; a copy per stage measured 4.0, and 10.9 for all --write-matrix
SLACK = 1 << 20
WORKING_SET = 0.25  # k-means and a few-column evaluation measure about 1.0 with an n x d temporary


def write_wide_csv(path, label_prefix=""):
    """Label column in the middle, so loading must copy the features out of the parsed table."""
    rng = np.random.default_rng(11)
    X = rng.uniform(-1.0, 1.0, (N, M)).round(4)
    labels = rng.integers(0, 2, N)
    mid = M // 2
    names = [f"f{j}" for j in range(M)]
    lines = [",".join(names[:mid] + ["class"] + names[mid:])]
    for row, label in zip(X.tolist(), labels.tolist()):
        cells = list(map(repr, row))
        lines.append(",".join(cells[:mid] + [f"{label_prefix}{label}"] + cells[mid:]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def wide_csv(tmp_path_factory):
    return write_wide_csv(tmp_path_factory.mktemp("memory") / "wide.csv")


@pytest.fixture(scope="module")
def named_csv(tmp_path_factory):
    """The same file with labels named class_0 and class_1, which load on the same one-pass path."""
    return write_wide_csv(tmp_path_factory.mktemp("memory") / "named.csv", label_prefix="class_")


COMMANDS = {
    "select_csufs_write_matrix": ["select", "--d", "50", "--write-matrix", "reduced.csv"],
    "select_maxvar": ["select", "--method", "maxvar", "--d", "50"],
    "select_all_write_matrix": ["select", "--method", "all", "--write-matrix", "reduced.csv"],
    "evaluate": ["evaluate", "--d", "20", "--seeds", "0"],
    "evaluate_all": ["evaluate", "--method", "all", "--seeds", "0"],
    "sweep": ["sweep", "--d-grid", "10,20", "--k-grid", "5", "--seeds", "0"],
    "sweep_kgrid": ["sweep", "--d-grid", "10", "--k-grid", "5:30:5", "--seeds", "0"],
    "sweep_all": ["sweep", "--method", "all", "--d-grid", "10", "--k-grid", "5", "--seeds", "0"],
    "select_named_labels": ["select", "--d", "50"],
}


def traced_peak(fn, *args):
    """fn(*args) and its peak traced bytes above the traced memory at its start."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - start


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_peak_stays_within_two_matrix_buffers(wide_csv, named_csv, tmp_path, capsys, monkeypatch, name):
    """Two usable CPUs, so the file loads in two processes, parts.PIECES
    ranges each: the blocks of the ranges a child parses are received from
    it and concatenated with the others. A written matrix is formatted by two
    processes too, and a csufs command's kernel scores its columns in two,
    one child each time."""
    forks = count_forks(monkeypatch, 2)
    source = named_csv if name.endswith("named_labels") else wide_csv
    argv = COMMANDS[name][:1] + ["--input", str(source), "--label-col", "class"] + COMMANDS[name][1:]
    argv = [str(tmp_path / a) if a == "reduced.csv" else a for a in argv]
    argv += ["--output", str(tmp_path / "report.json")]
    code, peak = traced_peak(main, argv)
    assert code == 0, capsys.readouterr().err
    pieces = 2 * csufs.parts.PIECES
    assert [(split.workers, len(split.pieces)) for split in forks.loads] == [(2, pieces)]
    assert tiles(forks.loads[0].pieces, forks.loads[0].pieces[0][0], source.stat().st_size)
    assert [split.workers for split in forks.writes] == ([2] if "--write-matrix" in argv else [])
    assert all(sum(split.pieces) == N and len(split.pieces) == pieces for split in forks.writes)
    bounds = [i * M // pieces for i in range(pieces)] + [M]
    assert forks.kernels == ([] if "--method" in argv else [Split(2, list(zip(bounds, bounds[1:])))])
    assert forks.fits == []  # 2600 x 60 x 1 values clustered at most (sweep_kgrid), under 2 x PART_VALUES
    assert forks.children == len(forks.loads) + len(forks.writes) + len(forks.kernels)
    assert peak <= C * MATRIX_BYTES + SLACK, f"peak {peak / MATRIX_BYTES:.2f}x the matrix"


@pytest.fixture(scope="module")
def normalized():
    rng = np.random.default_rng(12)
    return normalize_samples(validate_dataset(rng.uniform(-1.0, 1.0, (N, M))))


def test_evaluating_a_few_columns_copies_only_those(normalized):
    truth = LabelVector(labels=np.arange(N) % 2, n_classes=2)
    cfg = EvalConfig(n_clusters=2, seeds=(0,))
    _, peak = traced_peak(evaluate_selection, normalized, np.arange(0, M, M // 10), truth, cfg)
    assert peak <= WORKING_SET * MATRIX_BYTES, f"peak {peak / MATRIX_BYTES:.2f}x the matrix"


def test_kmeans_fit_forms_no_matrix_sized_temporary(normalized):
    _, peak = traced_peak(kmeans_fit, normalized.values, 2, 0)
    assert peak <= WORKING_SET * MATRIX_BYTES, f"peak {peak / MATRIX_BYTES:.2f}x the matrix"


def test_window_kernel_on_a_long_column_stays_within_one_block_budget():
    """A column longer than a block is scored in chunks, by knn_distance_sums
    and knn_distance_trace alike: the kernel's working set is one block of
    k + 5 arrays, plus a few column-length buffers. knn_distance_sums holds
    the sorted column and its per-position sums; the trace also holds its
    sort order, the inverse order and its two per-sample outputs."""
    n, k = 200_000, 30
    column = np.random.default_rng(13).normal(size=(n, 1))
    for kernel, arg, buffers in ((knn_distance_sums, column, 4), (knn_distance_trace, column[:, 0], 6)):
        _, peak = traced_peak(kernel, arg, k)
        bound = (k + 5) * scoring._WINDOW_BLOCK_ELEMENTS * 8 + buffers * n * 8 + SLACK
        assert peak <= bound, f"{kernel.__name__}: peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"


def test_window_kernel_block_stays_within_the_naive_cap_at_large_k():
    """Past k = 56 a window chunk's k + 5 arrays would outgrow the naive
    kernel's block; the block shrinks instead, so at k = 400 the kernel
    holds one _BLOCK_ELEMENTS block plus the matrix's sorted copy, sums and
    output. A chunk's core shrinks with it whatever its halo, so a column of
    5000 at k = 2000, under 1000 core positions per chunk with 2000 of halo
    on each side, holds one block plus a few framed-column buffers, by
    knn_distance_sums and knn_distance_trace alike."""
    n, m, k = 4000, 8, 400
    values = np.random.default_rng(14).normal(size=(n, m))
    _, peak = traced_peak(knn_distance_sums, values, k)
    bound = scoring._BLOCK_ELEMENTS * 8 + 4 * n * m * 8 + SLACK
    assert peak <= bound, f"peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"
    n, k = 5000, 2000
    column = np.random.default_rng(16).normal(size=(n, 1))
    for kernel, arg, buffers in ((knn_distance_sums, column, 4), (knn_distance_trace, column[:, 0], 6)):
        _, peak = traced_peak(kernel, arg, k)
        bound = scoring._BLOCK_ELEMENTS * 8 + buffers * (n + 2 * k) * 8 + SLACK
        assert peak <= bound, f"{kernel.__name__}: peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"


def test_naive_kernel_holds_one_distance_block_at_a_time():
    """The naive kernel forms a block of _BLOCK_ELEMENTS pairwise distances
    at a time and frees it before forming the next, so a long column peaks
    at one block plus a few column-length buffers."""
    n, k = 5000, 5
    column = np.random.default_rng(15).normal(size=(n, 1))
    _, peak = traced_peak(knn_distance_sums, column, k, "naive")
    bound = scoring._BLOCK_ELEMENTS * 8 + SLACK
    assert peak <= bound, f"peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"
