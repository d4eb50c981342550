#!/usr/bin/env python3
"""Run one fixed set of CLI commands on several source trees and compare every output.

    python3 scripts/compare_outputs.py --src parent=PATH --src change=src [--seed N ...]

For each seed given (--seed once per seed; default 0), the inputs are
written once to a temp directory: the benchmark's fixtures at that seed
(scripts/memory_peaks.py's write_fixtures) and a 300 x 30 fixture from
perfbench/fixtures.py for the slow and edge cases. The benchmark's
fixtures are 11 MB and more, so csufs.io.load_csv splits them into byte
ranges on a host with two usable CPUs, while the 300 x 30 fixture is one
range: one run covers both sides of that choice. Likewise every reduced
matrix written from a benchmark fixture (select_wide's 5000 x 100 and
more) has at least 2 x csufs.io._PART_CELLS cells, so on such a host it
is written in row ranges, while the 300 x 30 fixture's matrices, 9000
cells at most, are written in one. The command set is memory_peaks.py's
commands() (the three workloads, the named-label copy, maxvar and all
selects with --write-matrix, csufs and all evaluates) plus SMALL on the
300 x 30 fixture: naive and all selects with --write-matrix, optimized
and naive sweeps over a k grid with a duplicate and k = n - 1, maxvar
and all sweeps, and a sweep at k = n that must fail with KTooLarge.

Each command runs once per tree as `python -m csufs.cli` in a fresh
process, in that tree's own work directory, with the same relative paths
in every tree. Its stdout, stderr (the tree's src path written as <src>)
and exit code are kept beside the files it wrote. Every tree is then
compared with the first, file by file and byte by byte; only the
"timestamp" line of a JSON report is left out. Exits 0 when every tree
matches at every seed and every command exits as expected (0, or 1 for
the KTooLarge run), 1 naming each difference with its seed.

Both trees run on one host: report bytes have not been shown to be the
same across hosts, so no golden output is kept.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SMALL_SHAPE = (300, 3, 5, 25)  # fixtures.build's n, classes, informative, noise
SMALL = {  # name -> CLI arguments after the shared input flags, on small.csv
    "small_select_naive": ["select", "--mode", "naive", "--d", "10", "--output", "report.json",
                           "--write-matrix", "reduced.csv"],
    "small_select_all": ["select", "--method", "all", "--output", "report.json", "--write-matrix", "reduced.csv"],
    "small_sweep_kgrid": ["sweep", "--d-grid", "5,10", "--k-grid", "7,3,7,299,1", "--seeds", "0..2",
                          "--output", "report.json"],
    "small_sweep_kgrid_naive": ["sweep", "--mode", "naive", "--d-grid", "5,10", "--k-grid", "7,3,7,299,1",
                                "--seeds", "0..2", "--output", "report.json"],
    "small_sweep_maxvar": ["sweep", "--method", "maxvar", "--d-grid", "5,10", "--k-grid", "5", "--seeds", "0..2",
                           "--output", "report.json"],
    "small_sweep_all": ["sweep", "--method", "all", "--d-grid", "5", "--k-grid", "5", "--seeds", "0..2",
                        "--output", "report.json"],
    "small_sweep_k_too_large": ["sweep", "--d-grid", "5", "--k-grid", "300", "--seeds", "0",
                                "--output", "report.json"],
}
FAILS = {"small_sweep_k_too_large": "KTooLarge"}  # commands that must exit 1 naming this error; the rest exit 0
INPUTS = Path("..", "..", "..", "inputs")  # from runs/TREE/COMMAND to the shared inputs


def _memory_peaks():
    """scripts/memory_peaks.py, which brings perfbench's fixtures and harness."""
    sys.dont_write_bytecode = True  # leave no cache files under perfbench/ or scripts/
    sys.path.insert(0, str(ROOT / "scripts"))
    import memory_peaks

    return memory_peaks


def command_set(memory_peaks) -> dict[str, list[str]]:
    """name -> CLI argv, input paths relative to the command's work directory."""
    out = {}
    for name, (argv, _) in memory_peaks.commands().items():
        i = argv.index("--input") + 1
        out[name] = [*argv[:i], str(INPUTS / argv[i]), *argv[i + 1:]]
    for name, rest in SMALL.items():
        out[name] = [rest[0], "--input", str(INPUTS / "small.csv"), "--has-header", "--label-col", "class", *rest[1:]]
    return out


def write_inputs(memory_peaks, inputs: Path, seed: int) -> None:
    memory_peaks.write_fixtures(inputs, seed)
    X, labels = memory_peaks.fixtures.build(*SMALL_SHAPE, seed)
    memory_peaks.fixtures.write_csv(inputs / "small.csv", X, labels)


def run_tree(src: Path, runs: Path, commands: dict[str, list[str]]) -> None:
    """Run every command under src, each in runs/NAME, keeping its streams as runs/NAME.stdout etc."""
    env = dict(os.environ, PYTHONPATH=str(src))
    for name, argv in commands.items():
        cwd = runs / name
        cwd.mkdir(parents=True)
        proc = subprocess.run([sys.executable, "-m", "csufs.cli", *argv], cwd=cwd, env=env, capture_output=True)
        (runs / f"{name}.stdout").write_bytes(proc.stdout)
        (runs / f"{name}.stderr").write_bytes(proc.stderr.replace(os.fsencode(src), b"<src>"))
        (runs / f"{name}.exit").write_text(f"{proc.returncode}\n")


def unexpected_exits(runs: Path, commands) -> list[str]:
    """Each command whose exit code, or named error, is not the one FAILS expects."""
    found = []
    for name in commands:
        code = int((runs / f"{name}.exit").read_text())
        error = FAILS.get(name)
        if code != (1 if error else 0) or (error and f"error: {error}:" not in (runs / f"{name}.stderr").read_text()):
            found.append(f"{name}: exited {code}, expected {f'1 with {error}' if error else 0}")
    return found


def _comparable(path: Path) -> list[tuple[int, bytes]]:
    """(line number, bytes) of each line, a JSON file's "timestamp" lines left out."""
    lines = enumerate(path.read_bytes().splitlines(keepends=True), 1)
    if path.suffix == ".json":
        return [(i, line) for i, line in lines if not line.strip().startswith(b'"timestamp"')]
    return list(lines)


def differences(a: Path, b: Path) -> list[str]:
    """Each file under a or b, by relative path, that is missing from one of
    them or whose bytes differ (a JSON file's "timestamp" lines left out)."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    found = [f"{rel}: only under {(a if rel in files_a else b).name}" for rel in sorted(files_a ^ files_b)]
    for rel in sorted(files_a & files_b):
        lines_a, lines_b = _comparable(a / rel), _comparable(b / rel)
        if [line for _, line in lines_a] != [line for _, line in lines_b]:
            first = next((i for (i, x), (_, y) in zip(lines_a, lines_b) if x != y), None)
            found.append(f"{rel}: differs from line {first or len(lines_a) + 1} of {a.name}'s")
    return found


def compare_seed(trees: dict[str, Path], work: Path, seed: int) -> tuple[int, list[str]]:
    """Run the command set on seed's inputs under every tree, in work; the
    number of commands and each difference or unexpected exit found."""
    (work / "inputs").mkdir(parents=True)
    memory_peaks = _memory_peaks()
    write_inputs(memory_peaks, work / "inputs", seed)
    commands = command_set(memory_peaks)
    for name, src in trees.items():
        print(f"seed {seed}: running {len(commands)} commands under {name} ({src})", file=sys.stderr, flush=True)
        run_tree(src, work / "runs" / name, commands)
    first, *others = trees
    found = [f"{name}: {line}" for name in trees for line in unexpected_exits(work / "runs" / name, commands)]
    found += [f"{other}: {line}" for other in others
              for line in differences(work / "runs" / first, work / "runs" / other)]
    return len(commands), found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", required=True, help="NAME=PATH of a src directory holding csufs")
    parser.add_argument("--seed", type=int, action="append", help="fixture seed, once per seed to check (default 0)")
    args = parser.parse_args()
    trees = {name: Path(path).resolve() for name, path in (spec.split("=", 1) for spec in args.src)}
    if len(trees) < 2:
        parser.error("give at least two --src trees to compare")
    seeds = args.seed or [0]
    found = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            n_commands, got = compare_seed(trees, Path(tmp) / f"seed{seed}", seed)
            found += [f"seed {seed}: {line}" for line in got]
    for line in found:
        print(line)
    if found:
        return 1
    first, *others = trees
    print(f"{n_commands} commands at seed{'s' if len(seeds) > 1 else ''} {', '.join(map(str, seeds))}: "
          f"every output, stream and exit code of {', '.join(others)} equals {first}'s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
