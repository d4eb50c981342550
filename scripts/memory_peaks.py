#!/usr/bin/env python3
"""Peak memory of CLI commands on the benchmark's fixtures, per source tree.

    python3 scripts/memory_peaks.py [--src NAME=PATH ...] [--seed N] [--reps R] > peaks.json

The three perfbench workloads' fixtures (perfbench/fixtures.py at the seed
given) are written to a temp directory, with a copy of the sweep_kgrid
fixture whose labels are named class_0, class_1 instead of numbered. Each
workload's command, its command on that named-label copy, and a few more
commands on the select_wide fixture then run once per source tree
(default: this checkout's src) in fresh processes, measured two ways:

- tracemalloc: `csufs.cli.main` runs in-process with tracemalloc started
  just before it; the peak above the traced memory at its start is
  reported in MiB and as a multiple of the fixture's feature-matrix bytes.
- ru_maxrss: `python -m csufs.cli` is spawned by a small launcher, an
  interpreter that imports only os, subprocess and sys, and the launcher
  reports the child's maximum RSS from os.wait4, R times. A child's
  ru_maxrss can include its spawner's memory, so only a small spawner
  shows the CLI's own peak.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no cache files under perfbench/
sys.path.insert(0, str(ROOT / "perfbench"))
import fixtures  # noqa: E402
from run import WORKLOADS, cli_argv  # noqa: E402

EXTRA = {  # more commands on the select_wide fixture: the other selectors and evaluate
    "select_maxvar": ["select", "--method", "maxvar", "--d", "100", "--output", "report.json",
                      "--write-matrix", "reduced.csv"],
    "select_all": ["select", "--method", "all", "--output", "report.json", "--write-matrix", "reduced.csv"],
    "evaluate_csufs": ["evaluate", "--d", "100", "--seeds", "0..2", "--output", "report.json"],
    "evaluate_all": ["evaluate", "--method", "all", "--seeds", "0..2", "--output", "report.json"],
}
NAMED = "sweep_kgrid"  # its command also runs on a copy of its fixture with class_N labels, as NAMED_named_labels
TRACED = (
    "import json, sys, tracemalloc\n"
    "from csufs.cli import main\n"
    "tracemalloc.start()\n"
    "start, _ = tracemalloc.get_traced_memory()\n"
    "tracemalloc.reset_peak()\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps([code, tracemalloc.get_traced_memory()[1] - start]))\n"
)
LAUNCHER = (
    "import os, subprocess, sys\n"
    "p = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(p.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)
MIB = 1 << 20


def commands() -> dict[str, tuple[list[str], int]]:
    """name -> (CLI argv, feature-matrix bytes of its input)."""
    out = {}
    for wl in WORKLOADS.values():
        argv = cli_argv(wl)
        argv[argv.index("input.csv")] = f"{wl.name}.csv"
        out[wl.name] = (argv, wl.n * (wl.informative + wl.noise) * 8)
    argv, matrix_bytes = out[NAMED]
    argv = [f"{NAMED}_named_labels.csv" if a == f"{NAMED}.csv" else a for a in argv]
    out[f"{NAMED}_named_labels"] = (argv, matrix_bytes)
    for name, rest in EXTRA.items():
        argv = [rest[0], "--input", "select_wide.csv", "--has-header", "--label-col", "class", *rest[1:]]
        out[name] = (argv, out["select_wide"][1])
    return out


def write_fixtures(work: Path, seed: int) -> None:
    """Each workload's fixture as NAME.csv in work, plus NAMED_named_labels.csv."""
    for wl in WORKLOADS.values():
        X, labels = fixtures.build(wl.n, wl.classes, wl.informative, wl.noise, seed)
        fixtures.write_csv(work / f"{wl.name}.csv", X, labels)
        if wl.name == NAMED:
            fixtures.write_csv(work / f"{NAMED}_named_labels.csv", X, np.char.add("class_", labels.astype(str)))
        del X, labels


def run(cmd: list[str], src: str, cwd: Path) -> str:
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, check=True)
    return proc.stdout.strip().splitlines()[-1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", default=None, help="NAME=PATH of a src directory holding csufs")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args()
    trees = dict(spec.split("=", 1) for spec in (args.src or [f"change={ROOT / 'src'}"]))
    trees = {name: str(Path(path).resolve()) for name, path in trees.items()}
    results: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_fixtures(work, args.seed)
        for name, (argv, matrix_bytes) in commands().items():
            row = results[name] = {"argv": argv, "matrix_mib": round(matrix_bytes / MIB, 2)}
            for tree, src in trees.items():
                code, peak = json.loads(run([sys.executable, "-c", TRACED, *argv], src, work))
                rss = [run([sys.executable, "-c", LAUNCHER, sys.executable, "-m", "csufs.cli", *argv], src, work)
                       for _ in range(args.reps)]
                if code != 0 or any(r.split()[0] != "0" for r in rss):
                    raise SystemExit(f"{name} failed under {tree}")
                row[tree] = {
                    "tracemalloc_peak_mib": round(peak / MIB, 1),
                    "tracemalloc_peak_x_matrix": round(peak / matrix_bytes, 2),
                    "child_ru_maxrss_mib": [round(int(r.split()[1]) / 1024, 1) for r in rss],
                }
                print(name, tree, json.dumps(row[tree]), file=sys.stderr, flush=True)
    host = {"python": platform.python_version(), "numpy": np.__version__, "nproc": os.cpu_count()}
    json.dump({"seed": args.seed, "trees": sorted(trees), "host": host, "results": results}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
