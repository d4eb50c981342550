"""scripts/bench_pairs.py's summary and its refusal of unfair trees, on hand-made run lists and directories."""

import pytest

from helpers import load_script

bench_pairs = load_script("bench_pairs")
launch = load_script("launch")


def result(wall_rel, correct=True, peak=100.0):
    """A run.py result line holding two end-to-end metrics."""
    metrics = {"wall_rel": {"value": wall_rel, "unit": "x"}, "peak_rss_mb": {"value": peak, "unit": "MB"}}
    return {"correct": correct, "attempted": 3, "failed": 0 if correct else 1, "metrics": metrics}


def pairs_of(parent, change):
    return [{"parent": result(a), "change": result(b)} for a, b in zip(parent, change)]


def test_spread_of_ten_runs():
    assert launch.spread([float(v) for v in range(10, 0, -1)]) == {
        "median": 5.5, "q1": 3.25, "q3": 7.75, "min": 1.0, "max": 10.0
    }
    assert launch.spread([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0, "min": 2.0, "max": 2.0}


def test_clear_gain_is_claimable():
    parent = [2.6, 2.7, 2.5, 2.8, 2.6, 2.65, 2.7, 2.55, 2.6, 2.75]
    change = [2.0, 2.1, 1.9, 2.0, 2.05, 2.7, 2.0, 1.95, 2.1, 2.0]  # pair 6 ties
    row = bench_pairs.summarize(pairs_of(parent, change), "parent", "change")["wall_rel"]
    assert row["unit"] == "x"
    assert row["change_better_pairs"] == "9 of 10"
    assert row["parent"]["median"] == 2.625 and row["change"]["median"] == 2.0
    assert row["median_gap_over_base_iqr"] == pytest.approx(0.625 / (2.7 - 2.6))
    assert row["median_change_rel"] == pytest.approx(-0.625 / 2.625)
    assert row["gain_claimable"]


@pytest.mark.parametrize(
    "change",
    [
        [2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.9, 2.9],  # wins only 8 of 10
        [2.55, 2.6, 2.45, 2.75, 2.55, 2.6, 2.65, 2.5, 2.55, 2.7],  # wins 10 of 10 by less than the parent's spread
        [2.0, 2.1, 1.9, 2.0, 2.05, 2.0, 2.0, 1.95, 2.1],  # wins 9 of 9: too few pairs
    ],
    ids=["too-few-wins", "gap-within-spread", "too-few-pairs"],
)
def test_gain_is_not_claimable(change):
    parent = [2.6, 2.7, 2.5, 2.8, 2.6, 2.65, 2.7, 2.55, 2.6, 2.75]
    row = bench_pairs.summarize(pairs_of(parent[: len(change)], change), "parent", "change")["wall_rel"]
    assert not row["gain_claimable"]


def test_pairs_with_a_failed_or_missing_run_are_left_out():
    pairs = pairs_of([3.0, 3.0, 3.0], [2.0, 2.0, 2.0])
    pairs[0]["change"] = result(1.0, correct=False)
    pairs[1]["parent"] = None
    row = bench_pairs.summarize(pairs, "parent", "change")["wall_rel"]
    assert row["change_better_pairs"] == "1 of 1"
    assert row["median_gap_over_base_iqr"] is None  # one pair: no spread to compare with
    assert bench_pairs.summarize(pairs[:2], "parent", "change") == {}


def test_equal_metric_counts_no_win():
    row = bench_pairs.summarize(pairs_of([2.0, 2.5], [2.0, 2.4]), "parent", "change")["peak_rss_mb"]
    assert row["change_better_pairs"] == "0 of 2"
    assert row["median_gap_over_base_iqr"] is None and not row["gain_claimable"]


def make_checkout(root, name):
    tree = root / name
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text("print(1)\n")
    (tree / "src" / "csufs").mkdir(parents=True)
    (tree / "src" / "csufs" / "io.py").write_text("x = 1\n")
    return tree


def test_refuses_different_benchmarks_and_bytecode_caches(tmp_path):
    trees = {"parent": make_checkout(tmp_path, "a"), "change": make_checkout(tmp_path, "b")}
    (trees["change"] / "perfbench" / "__pycache__").mkdir()  # the harness's own caches and work directory are ignored
    (trees["change"] / "perfbench" / "__pycache__" / "run.cpython-311.pyc").write_bytes(b"\0")
    (trees["change"] / "perfbench" / ".work").mkdir()
    (trees["change"] / "perfbench" / ".work" / "input.csv").write_text("1\n")
    (trees["change"] / "src" / "csufs" / "io.py").write_text("x = 2\n")  # the code under test may differ
    assert bench_pairs.refusal(trees) is None

    cache = trees["parent"] / "src" / "csufs" / "__pycache__"
    cache.mkdir()
    assert bench_pairs.refusal(trees) == f"remove the bytecode caches first: {cache}"
    cache.rmdir()

    (trees["change"] / "perfbench" / "run.py").write_text("print(2)\n")
    assert bench_pairs.refusal(trees) == "parent and change hold different perfbench/ directories"
