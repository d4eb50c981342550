"""Tests of the benchmark's own parts: oracle, fixtures and tracer.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fixtures
import oracle
import tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def brute_force_sums(values: np.ndarray, k: int) -> np.ndarray:
    out = []
    for f in values.T:
        dist = np.abs(f[:, None] - f[None, :])
        np.fill_diagonal(dist, np.inf)
        out.append(np.sort(dist, axis=1)[:, :k].sum())
    return np.array(out)


@pytest.mark.parametrize("seed", range(6))
def test_two_pointer_sums_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    k = int(rng.integers(1, n))
    real = rng.normal(size=(n, 3))
    ties = rng.integers(-3, 4, size=(n, 3)).astype(float)  # many equal values
    for values in (real, ties, np.zeros((n, 1))):
        np.testing.assert_allclose(oracle.knn_distance_sums(values, k), brute_force_sums(values, k), rtol=1e-12)


def test_two_pointer_sums_are_exact_on_integers():
    values = np.array([[0.0, 5.0], [1.0, 5.0], [3.0, 5.0], [7.0, 6.0], [8.0, 9.0]])
    assert oracle.knn_distance_sums(values, 2).tolist() == brute_force_sums(values, 2).tolist()


def test_sums_span_column_blocks():
    values = np.random.default_rng(7).normal(size=(12, oracle._BLOCK_COLUMNS + 5))
    np.testing.assert_allclose(oracle.knn_distance_sums(values, 3), brute_force_sums(values, 3), rtol=1e-12)


def test_expected_selection_ranks_constant_features_last():
    X = np.random.default_rng(3).uniform(1.0, 2.0, size=(30, 4))
    X[:, 1] = X[:, 0]  # tie in score: lower index first
    X[:, 2] = 0.0  # constant after normalization
    _, var, cs, selected = oracle.expected_selection(X, k=2, d=4)
    assert np.isinf(cs[2]) and var[2] == 0.0
    assert selected[-1] == 2
    assert list(selected).index(0) < list(selected).index(1)


def test_expected_selection_matches_csufs():
    sys.path.insert(0, str(SRC))
    from csufs import ScoringConfig, csufs, validate_dataset

    X = np.random.default_rng(11).normal(size=(60, 8))
    dist, var, cs, selected = oracle.expected_selection(X, k=4, d=5)
    got = csufs(validate_dataset(X), 5, ScoringConfig(k=4))
    np.testing.assert_allclose(got.scores.d, dist, rtol=1e-9)
    np.testing.assert_allclose(got.scores.v, var, rtol=1e-9)
    np.testing.assert_allclose(got.scores.cs, cs, rtol=1e-9)
    assert got.selected.tolist() == selected.tolist()


def test_fixture_is_seeded_and_round_trips(tmp_path):
    X, labels = fixtures.build(50, 3, 2, 4, seed=5)
    size = fixtures.write_csv(tmp_path / "a.csv", X, labels)
    fixtures.write_csv(tmp_path / "b.csv", *fixtures.build(50, 3, 2, 4, seed=5))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert size == (tmp_path / "a.csv").stat().st_size
    lines = (tmp_path / "a.csv").read_text().splitlines()
    assert lines[0] == "f0,f1,f2,f3,f4,f5,class"
    parsed = np.array([[float(t) for t in line.split(",")] for line in lines[1:]])
    assert np.array_equal(parsed[:, :-1], X) and np.array_equal(parsed[:, -1], labels)


def span(id_, parent, name, start, end, **counts):
    return {"id": id_, "parent": parent, "name": name, "start": start, "end": end, "counts": counts}


def test_summarize_times_counts_and_rates():
    spans = [
        span(0, None, "cli.main", 0.0, 10.0),
        span(1, 0, "io.load_csv", 0.0, 4.0, bytes_read=2_000_000, cells_parsed=100),
        span(2, 1, "data.validate_dataset", 3.0, 4.0),
        span(3, 0, "kmeans.kmeans_fit", 5.0, 6.0, iterations=4),
        span(4, 0, "kmeans.kmeans_fit", 6.0, 8.0, iterations=6),
    ]
    got = tracer.summarize(spans)
    assert got["io.load_csv.self_s"] == 3.0 and got["io.load_csv.s"] == 4.0
    assert got["cli.main.self_s"] == 3.0
    assert got["io.load_csv.mb_per_s"] == 0.5 and got["io.cells_parsed"] == 100
    assert got["kmeans.kmeans_fit.calls"] == 2 and got["kmeans.iterations"] == 10
    assert got["kmeans.ms_per_iter"] == 300.0
    assert got["scoring.score_all_features.calls"] == 0 and got["scoring.ns_per_value"] == 0.0


def test_summarize_rejects_a_forest():
    with pytest.raises(RuntimeError):
        tracer.summarize([span(0, None, "cli.main", 0.0, 1.0), span(1, None, "io.load_csv", 1.0, 2.0)])


@pytest.mark.parametrize("child", [
    span(1, 0, "io.load_csv", 9.0, 11.0),  # ends after its parent
    span(1, 7, "io.load_csv", 1.0, 2.0),  # parent that was never recorded
])
def test_summarize_rejects_a_span_outside_its_parent(child):
    with pytest.raises(RuntimeError, match="outside its parent"):
        tracer.summarize([span(0, None, "cli.main", 0.0, 10.0), child])


def test_summarize_rejects_overlapping_children():
    spans = [span(0, None, "cli.main", 0.0, 10.0), span(1, 0, "io.load_csv", 1.0, 7.0),
             span(2, 0, "kmeans.kmeans_fit", 3.0, 9.0)]
    with pytest.raises(RuntimeError, match="negative self time"):
        tracer.summarize(spans)


def test_span_cost_is_positive_and_small():
    assert 0.0 < tracer.span_cost(calls=2000, repeats=3) < 1e-3


def test_traced_child_reaches_every_import_site(tmp_path):
    X, labels = fixtures.build(40, 2, 2, 4, seed=0)
    fixtures.write_csv(tmp_path / "in.csv", X, labels)
    argv = ["sweep", "--input", "in.csv", "--has-header", "--label-col", "class",
            "--d-grid", "2,4", "--k-grid", "3", "--seeds", "0,1", "--output", "out.json"]
    env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}
    cmd = [sys.executable, str(HERE / "tracer.py"), "--out", "t.json", "--", *argv]
    subprocess.run(cmd, cwd=tmp_path, env=env, check=True, capture_output=True, timeout=120)
    result = json.loads((tmp_path / "t.json").read_text())
    assert result["exit_code"] == 0 and result["span_cost_s"] > 0
    got = tracer.summarize(result["spans"])
    assert got["io.load_csv.calls"] == 1 and got["data.validate_dataset.calls"] == 1
    assert got["io.cells_parsed"] == 40 * 7
    assert got["scoring.score_all_features.calls"] == 1
    assert got["evaluation.evaluate_selection.calls"] == 2
    # sweep normalizes once for scoring and once per evaluated cell
    assert got["preprocess.normalize_samples.calls"] == 3
    assert got["kmeans.kmeans_fit.calls"] == 4 and got["kmeans.iterations"] >= 4
    assert got["metrics.clustering_accuracy.calls"] == 4
    assert got["io.write_report.calls"] == 1 and got["io.bytes_written"] == (tmp_path / "out.json").stat().st_size


def test_metric_names_match_benchmark_json():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.UNITS)
    assert all(run.UNITS[m["name"]] == m["unit"] for m in spec["end_to_end"])
    traced = set(tracer.summarize([span(0, None, "cli.main", 0.0, 1.0)])) | {"cli.import_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == traced
    assert all(run.layer_unit(m["name"]) == m["unit"] for m in spec["per_layer"])
