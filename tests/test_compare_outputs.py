"""scripts/compare_outputs.py's comparison, on small hand-made run directories."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)

REPORT = '{\n "kind": "sweep",\n "timestamp": "2024-01-01T00:00:00+00:00",\n "payload": {"acc": 0.5}\n}\n'


def make_run(root: Path, name: str, report: str = REPORT, flat: str = "d,k,acc\n5,3,0.5\n",
             stdout: str = "swept 1 cells\n", code: int = 0) -> Path:
    """One tree's run directory holding a single sweep command's outputs and streams."""
    runs = root / name
    (runs / "sweep").mkdir(parents=True)
    (runs / "sweep" / "report.json").write_text(report)
    (runs / "sweep" / "report_flat.csv").write_text(flat)
    (runs / "sweep.stdout").write_text(stdout)
    (runs / "sweep.stderr").write_text("")
    (runs / "sweep.exit").write_text(f"{code}\n")
    return runs


def test_equal_runs_have_no_differences(tmp_path):
    assert compare_outputs.differences(make_run(tmp_path, "a"), make_run(tmp_path, "b")) == []


def test_reports_that_differ_only_in_timestamp_are_equal(tmp_path):
    later = REPORT.replace("2024-01-01T00:00:00", "2025-06-30T12:34:56.789")
    assert compare_outputs.differences(make_run(tmp_path, "a"), make_run(tmp_path, "b", report=later)) == []


@pytest.mark.parametrize(
    "change, named",
    [
        ({"flat": "d,k,acc\n5,3,0.6\n"}, "sweep/report_flat.csv: differs from line 2 of a's"),
        ({"report": REPORT.replace("0.5", "0.4")}, "sweep/report.json: differs from line 4 of a's"),
        ({"stdout": "swept 2 cells\n"}, "sweep.stdout: differs from line 1 of a's"),
        ({"code": 1}, "sweep.exit: differs from line 1 of a's"),
    ],
    ids=["flat-csv", "report", "stdout", "exit-code"],
)
def test_one_changed_byte_is_named(tmp_path, change, named):
    assert compare_outputs.differences(make_run(tmp_path, "a"), make_run(tmp_path, "b", **change)) == [named]


def test_a_file_written_under_one_tree_only_is_named(tmp_path):
    a, b = make_run(tmp_path, "a"), make_run(tmp_path, "b")
    (b / "sweep" / "extra.csv").write_text("1\n")
    assert compare_outputs.differences(a, b) == ["sweep/extra.csv: only under b"]


def test_unexpected_exit_codes_are_named(tmp_path):
    runs = make_run(tmp_path, "a", code=1)
    (runs / "small_sweep_k_too_large.exit").write_text("1\n")
    (runs / "small_sweep_k_too_large.stderr").write_text("error: KTooLarge: k=300 needs at least k+1=301 samples\n")
    assert compare_outputs.unexpected_exits(runs, ["sweep", "small_sweep_k_too_large"]) == [
        "sweep: exited 1, expected 0"
    ]
