#!/usr/bin/env python3
"""Peak memory of CLI commands on the benchmark's fixtures, per source tree.

    python3 scripts/memory_peaks.py [--src NAME=PATH ...] [--seed N] [--reps R] > peaks.json

The benchmark's fixtures at the seed given are written to a temp directory,
and launch.commands() then run once per source tree (default: this
checkout's src) in fresh processes, measured two ways:

- tracemalloc: `csufs.cli.main` runs in-process with tracemalloc started
  just before it; the peak above the traced memory at its start is
  reported in MiB and as a multiple of the fixture's feature-matrix bytes.
- ru_maxrss: `python -m csufs.cli` is spawned R times by launch.py's small
  launcher, which reports the child's maximum RSS.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import launch

TRACED = (
    "import json, sys, tracemalloc\n"
    "from csufs.cli import main\n"
    "tracemalloc.start()\n"
    "start, _ = tracemalloc.get_traced_memory()\n"
    "tracemalloc.reset_peak()\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps([code, tracemalloc.get_traced_memory()[1] - start]))\n"
)
MIB = 1 << 20


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", default=None, help="NAME=PATH of a src directory holding csufs")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args()
    trees = launch.trees(args.src)
    results: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        launch.write_fixtures(work, args.seed)
        for name, (argv, matrix_bytes) in launch.commands().items():
            row = results[name] = {"argv": argv, "matrix_mib": round(matrix_bytes / MIB, 2)}
            for tree, src in trees.items():
                traced = subprocess.run([sys.executable, "-c", TRACED, *argv], cwd=work, env=launch.env(src),
                                        capture_output=True, text=True, check=True)
                code, peak = json.loads(traced.stdout.strip().splitlines()[-1])
                rss = [launch.spawn([sys.executable, "-m", "csufs.cli", *argv], src, work) for _ in range(args.reps)]
                if code != 0 or any(r[0] != 0 for r in rss):
                    raise SystemExit(f"{name} failed under {tree}")
                row[tree] = {
                    "tracemalloc_peak_mib": round(peak / MIB, 1),
                    "tracemalloc_peak_x_matrix": round(peak / matrix_bytes, 2),
                    "child_ru_maxrss_mib": [round(r[1] / 1024, 1) for r in rss],
                }
                print(name, tree, json.dumps(row[tree]), file=sys.stderr, flush=True)
    print(json.dumps({"seed": args.seed, "trees": sorted(trees), "host": launch.host(), "results": results}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
