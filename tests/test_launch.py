"""scripts/launch.py: the launcher's exit code and ru_maxrss, the child
environment's rule of no bytecode, and the benchmark commands' inputs."""

import shutil
import sys
from pathlib import Path

import numpy as np

import csufs
from helpers import load_script

launch = load_script("launch")
SRC = Path(csufs.__file__).resolve().parents[1]
MIB = 1024  # ru_maxrss is in KiB


def test_launcher_reports_the_childs_own_peak_and_exit_code(tmp_path):
    """A child's ru_maxrss can include its spawner's memory: with 256 MiB
    held here, a child of the launcher still reads its own small peak."""
    ballast = np.ones(256 << 17)  # 256 MiB of float64, every page written
    code, rss, start, stop = launch.spawn([sys.executable, "-c", "pass"], SRC, tmp_path)
    assert code == 0 and start < stop
    assert rss < 64 * MIB, f"{rss / MIB:.1f} MiB"
    assert launch.spawn([sys.executable, "-c", "raise SystemExit(3)"], SRC, tmp_path)[0] == 3
    del ballast


def test_a_child_leaves_no_bytecode_in_its_tree(tmp_path, monkeypatch):
    """Without PYTHONDONTWRITEBYTECODE in the caller's environment, a CLI run
    still writes no __pycache__ into the tree it imports csufs from."""
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    code, *_ = launch.spawn([sys.executable, "-m", "csufs.cli", "select", "--help"], src, tmp_path)
    assert code == 0
    assert list(src.rglob("__pycache__")) == []


def test_commands_read_the_files_write_fixtures_writes(tmp_path, monkeypatch):
    """The eight commands' inputs are exactly the fixture files, recorded
    instead of written."""
    written = []
    monkeypatch.setattr(launch.fixtures, "build", lambda *shape: (np.zeros((1, 1)), np.zeros(1, dtype=int)))
    monkeypatch.setattr(launch.fixtures, "write_csv", lambda path, X, labels: written.append(path))
    launch.write_fixtures(tmp_path, 0)
    commands = launch.commands()
    assert len(commands) == 8
    assert {argv[argv.index("--input") + 1] for argv, _ in commands.values()} == {p.name for p in written}
    assert len(written) == 4 and all(p.parent == tmp_path for p in written)
    assert list(tmp_path.iterdir()) == []
