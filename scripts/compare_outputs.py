#!/usr/bin/env python3
"""Run one fixed set of CLI commands on several source trees and compare every output.

    python3 scripts/compare_outputs.py --src parent=PATH --src change=src [--seed N ...]

For each seed given (--seed once per seed; default 0), the inputs are
written once to a temp directory: launch.py's fixtures at that seed, a
300 x 30 one from perfbench/fixtures.py for the slow and edge cases, and an
80 x 10000 one from the same recipe for the naive kernel on a wide matrix.
The benchmark's fixtures are 11 MB and more, so on a host with two usable
CPUs csufs.io.load_csv parses them in two processes, in csufs.parts.PIECES
byte ranges each that the processes claim as they go, while the 300 x 30
fixture is one range: one run covers both sides of that choice. Likewise
every reduced matrix written from a benchmark fixture (select_wide's
5000 x 100 and more) has at least 2 x csufs.io._PART_CELLS cells, so on
such a host it is written by two processes in row ranges, while the
300 x 30 fixture's matrices, 9000 cells at most, are written in one. And
every csufs kernel run on a benchmark fixture (40000 x 25, 5000 x 500,
3000 x 200, at least 2 x csufs.scoring.PART_VALUES values) scores its
columns in two processes, in column ranges, on such a host, while on the
300 x 30 fixture the kernel is one range. Either kernel shares that rule:
the naive select on the 80 x 10000 fixture (800000 values) scores its
columns in two processes on such a host, while every naive command on
the 300 x 30 fixture is one range. Which process runs which range changes
from run to run; the outputs may not. A
sweep deals its distinct selections' fits to parts from the same
2 x csufs.scoring.PART_VALUES values, counted as values clustered
(samples x selected columns x seeds, summed). On such a host the
sweep_grid command (3000 samples x 1100 columns x 10 seeds) runs in two
parts, and so do the sweep_kgrid command and its named-label copy
(40000 x 5 x 1 per distinct ranking) when their six k values give three
distinct rankings or more: four at seed 0, three at seed 9, and one at
seed 5, where they are one part. Every SMALL sweep (54000 values at
most) is one part.
The command set is launch.commands() plus SMALL on the 300 x 30 fixture:
naive and all selects with --write-matrix, a naive evaluate that sets
k-means's stop rules (--max-iter 5, --conv-tol 0), optimized and naive sweeps
over a k grid with a duplicate and k = n - 1, maxvar and all sweeps, a
sweep at k = n that must fail with KTooLarge, and a select without --d
that must fail as flag misuse before it reads its input;
WIDE on the 80 x 10000 fixture: a naive select with --write-matrix; and
the same select --d 20 --write-matrix on three 3000 x 60 copies of one
fixture laid out unlike the others: CRLF line ends and the class column
in the middle. Each is about 3.5 MB, over the 2 MiB split size, so on
such a host its load splits into byte ranges, the first starting where
the header ends. crlf.csv starts with its one-line header;
crlf_blank.csv has two blank lines before it; crlf_quoted.csv starts
with a byte-order mark and one blank line, and its header's first name
is quoted and holds a CRLF, so its header spans two lines. crlf.csv is
also selected at --k 1000, where a window chunk's halo, 1000 values on
each side, outgrows its 1990 core positions. names_last.csv, a fourth
3000 x 60 copy in perfbench's layout, writes its last tenth of class
labels as names (class_0, class_1) and the rest as integers. Its first
data row's label is a number, so every byte range reads the class column
as numbers, loadtxt rejects the range that holds the names, and the
cell reader loads the file on any host; it is selected at --d 20. The
named-label copy of sweep_kgrid starts with a name, so each of its
ranges collects the class column's tokens. Last, one_row.csv holds the
300 x 30 fixture's recipe at one sample, and its select must fail with
TooFewSamples: with the KTooLarge sweep above, it compares both
kernel-argument errors the CLI can print.

Each command runs once per tree as `python -m csufs.cli` in a fresh
process, with launch.env's environment (in a tree whose cli has run, it
leaves by os._exit once its outputs are flushed, so that exit is compared
too), in that tree's own work directory, with the same relative paths in
every tree. Its stdout, stderr (the tree's src path written as <src>)
and exit code are kept beside the files it wrote. Every tree is then
compared with the first, file by file and byte by byte; only the
"timestamp" line of a JSON report is left out. Exits 0 when every tree
matches at every seed and every command exits as expected (0, or what
FAILS maps it to: 1 and an "error: KTooLarge:" or "error: TooFewSamples:"
stderr, or 2 and a "usage error: --d is required" one), 1 naming each
difference with its seed.

Both trees run on one host: report bytes have not been shown to be the
same across hosts, so no golden output is kept.
"""

from __future__ import annotations

import argparse
import functools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import launch

SMALL_SHAPE = (300, 3, 5, 25)  # fixtures.build's n, classes, informative, noise
WIDE_SHAPE = (80, 2, 10, 9990)  # 800000 values: over 2 x csufs.scoring.PART_VALUES
SMALL = {  # name -> CLI arguments after the shared input flags, on small.csv
    "small_select_naive": ["select", "--mode", "naive", "--d", "10", "--output", "report.json",
                           "--write-matrix", "reduced.csv"],
    "small_select_all": ["select", "--method", "all", "--output", "report.json", "--write-matrix", "reduced.csv"],
    "small_evaluate_stop_rules": ["evaluate", "--mode", "naive", "--d", "10", "--seeds", "0..2", "--max-iter", "5",
                                  "--conv-tol", "0", "--output", "report.json"],
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
    "small_select_no_d": ["select", "--output", "report.json"],
}
WIDE = {  # name -> CLI arguments after the shared input flags, on wide.csv
    "wide_select_naive": ["select", "--mode", "naive", "--d", "20", "--output", "report.json",
                          "--write-matrix", "reduced.csv"],
}
CRLF_SHAPE = (3000, 2, 10, 50)  # about 3.5 MB written: over 2 x csufs.io._PART_BYTES
CRLF_SELECT = ["select", "--d", "20", "--output", "report.json", "--write-matrix", "reduced.csv"]
LARGE_K_SELECT = ["select", "--d", "20", "--k", "1000", "--output", "report.json", "--write-matrix", "reduced.csv"]


def write_crlf_csv(path: Path, X, labels, lead: str, first_name: str) -> None:
    """X and labels as a CSV with CRLF line ends, lead written before the
    header, first_name as the header's first cell and the class column in
    the middle of the features."""
    mid = X.shape[1] // 2
    names = [first_name, *(f"f{j}" for j in range(1, X.shape[1]))]
    lines = [",".join([*names[:mid], "class", *names[mid:]])]
    for row, label in zip(X.tolist(), labels.tolist()):
        cells = list(map(repr, row))
        lines.append(",".join([*cells[:mid], str(label), *cells[mid:]]))
    path.write_bytes((lead + "\r\n".join(lines) + "\r\n").encode("utf-8"))


def write_names_last_csv(path: Path, X, labels) -> None:
    """X and labels in perfbench's layout (header f0..f{m-1},class, LF line
    ends), the last tenth of the labels written as names (class_0, ...)
    and the others as integers."""
    named_from = len(labels) - len(labels) // 10
    lines = [",".join([*(f"f{j}" for j in range(X.shape[1])), "class"])]
    for i, (row, label) in enumerate(zip(X.tolist(), labels.tolist())):
        lines.append(",".join([*map(repr, row), f"class_{label}" if i >= named_from else str(label)]))
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


FIXTURES = {  # input -> its shape, its writer(path, X, labels) (None: perfbench's), commands
    "small.csv": (SMALL_SHAPE, None, SMALL),
    "wide.csv": (WIDE_SHAPE, None, WIDE),
    "crlf.csv": (CRLF_SHAPE, functools.partial(write_crlf_csv, lead="", first_name="f0"),
                 {"crlf_select": CRLF_SELECT, "crlf_select_large_k": LARGE_K_SELECT}),
    "crlf_blank.csv": (CRLF_SHAPE, functools.partial(write_crlf_csv, lead="\r\n\r\n", first_name="f0"),
                       {"crlf_blank_select": CRLF_SELECT}),
    "crlf_quoted.csv": (CRLF_SHAPE, functools.partial(write_crlf_csv, lead="\ufeff\r\n", first_name='"f\r\n0"'),
                        {"crlf_quoted_select": CRLF_SELECT}),
    "names_last.csv": (CRLF_SHAPE, write_names_last_csv,
                       {"names_last_select": ["select", "--d", "20", "--output", "report.json"]}),
    "one_row.csv": ((1, *SMALL_SHAPE[1:]), None, {"one_row_select": ["select", "--d", "5", "--output", "report.json"]}),
}
# command -> the exit code and stderr prefix it must fail with; the rest exit 0
FAILS = {
    "small_sweep_k_too_large": (1, "error: KTooLarge:"),
    "one_row_select": (1, "error: TooFewSamples:"),
    "small_select_no_d": (2, "usage error: --d is required"),
}
INPUTS = Path("..", "..", "..", "inputs")  # from runs/TREE/COMMAND to the shared inputs


def command_set() -> dict[str, list[str]]:
    """name -> CLI argv, input paths relative to the command's work directory."""
    out = {}
    for name, (argv, _) in launch.commands().items():
        i = argv.index("--input") + 1
        out[name] = [*argv[:i], str(INPUTS / argv[i]), *argv[i + 1:]]
    for csv_name, (_, _, commands) in FIXTURES.items():
        for name, rest in commands.items():
            out[name] = [rest[0], "--input", str(INPUTS / csv_name), "--has-header", "--label-col", "class", *rest[1:]]
    return out


def run_tree(src: Path, runs: Path, commands: dict[str, list[str]]) -> None:
    """Run every command under src, each in runs/NAME, keeping its streams as runs/NAME.stdout etc."""
    env = launch.env(src)
    for name, argv in commands.items():
        cwd = runs / name
        cwd.mkdir(parents=True)
        proc = subprocess.run([sys.executable, "-m", "csufs.cli", *argv], cwd=cwd, env=env, capture_output=True)
        (runs / f"{name}.stdout").write_bytes(proc.stdout)
        (runs / f"{name}.stderr").write_bytes(proc.stderr.replace(os.fsencode(src), b"<src>"))
        (runs / f"{name}.exit").write_text(f"{proc.returncode}\n")


def unexpected_exits(runs: Path, commands) -> list[str]:
    """Each command whose exit code, or stderr prefix, is not the one FAILS expects."""
    found = []
    for name in commands:
        code = int((runs / f"{name}.exit").read_text())
        expected, prefix = FAILS.get(name, (0, ""))
        if code != expected or not (runs / f"{name}.stderr").read_text().startswith(prefix):
            found.append(f"{name}: exited {code}, expected {expected}" + (f" with stderr {prefix!r}..." if prefix else ""))
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
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    launch.write_fixtures(inputs, seed)
    for csv_name, (shape, write, _) in FIXTURES.items():
        X, labels = launch.fixtures.build(*shape, seed)
        (write or launch.fixtures.write_csv)(inputs / csv_name, X, labels)
    commands = command_set()
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
    trees = launch.trees(args.src)
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
