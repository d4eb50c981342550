"""scripts/part_balance.py's per-run timing on a small CLI run, and its
summary, on hand-made runs."""

import sys
from pathlib import Path

import numpy as np
import pytest

import csufs.parts
from helpers import load_script

part_balance = load_script("part_balance")
SRC = Path(csufs.__file__).resolve().parents[1]


def stage(name, ends):
    return {"stage": name, "busy_ms": ends, "end_ms": ends, "slowest_past_mean_ms": max(ends) - sum(ends) / len(ends)}


def test_summary_takes_medians_and_quartiles_per_stage():
    runs = [{"wall_ms": w, "exit_ms": w / 100, "stages": [stage("load", [w, w + d])]}
            for w, d in [(100.0, 2.0), (110.0, 6.0), (90.0, 4.0)]]
    row = part_balance.summarize(runs)
    assert (row["runs"], row["wall_ms"], row["wall_ms_quartiles"]) == (3, 100.0, [95.0, 100.0, 105.0])
    assert row["exit_ms_all"] == [1.0, 1.1, 0.9]
    (load,) = row["stages"]
    assert (load["stage"], load["processes"], load["end_ms"]) == ("load", 2, [100.0, 102.0])
    assert load["slowest_past_mean_ms"] == 2.0 and load["slowest_past_mean_ms_quartiles"] == [1.5, 2.0, 2.5]


def test_one_run_times_the_exit_and_each_split_stage(tmp_path):
    """A 3000 x 200 select splits its load and its kernel over two workers
    on a host with two usable CPUs (one part on one CPU); each stage reports
    one busy time per process that ran a piece."""
    rng = np.random.default_rng(0)
    lines = [",".join(map(repr, row)) for row in rng.uniform(-1, 1, (3000, 200)).tolist()]
    (tmp_path / "x.csv").write_text("\n".join(lines) + "\n")
    got = part_balance.one_run(["select", "--input", "x.csv", "--d", "5"], SRC, tmp_path, 2)
    assert 0 < got["exit_ms"] < got["wall_ms"]
    assert [s["stage"] for s in got["stages"]] == (["load", "kernel"] if csufs.parts.usable_cpus() > 1 else [])
    for s in got["stages"]:
        assert 1 <= len(s["busy_ms"]) <= 2 and len(s["end_ms"]) == len(s["busy_ms"])
        assert s["slowest_past_mean_ms"] >= 0


def test_a_tree_holding_bytecode_caches_is_refused(tmp_path, monkeypatch, capsys):
    """It imports faster than the benchmark's runs do, so its wall times
    would not compare with another tree's; nothing is run or written."""
    cache = tmp_path / "src" / "csufs" / "__pycache__"
    cache.mkdir(parents=True)
    out = tmp_path / "out.json"
    monkeypatch.setattr(sys, "argv", ["part_balance.py", "--src", f"change={tmp_path / 'src'}", "--out", str(out)])
    with pytest.raises(SystemExit) as refused:
        part_balance.main()
    assert refused.value.code == 2
    assert f"error: remove the bytecode caches first: {cache}" in capsys.readouterr().err
    assert not out.exists()
