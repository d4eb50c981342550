"""What the scripts share, each in one place: NAME=PATH source trees, each
tree's child environment, the benchmark's fixtures and commands, the small
launcher, the spread of a metric and the BENCH_*.json writer. Every script
in scripts/ imports it as `launch`; none imports another.

A child runs with the tree's src as its PYTHONPATH and with
PYTHONDONTWRITEBYTECODE=1, as the benchmark runs it: a tree holding
bytecode caches imports faster, so no run may leave them behind.

The fixtures are the three perfbench workloads' (perfbench/fixtures.py at a
seed, perfbench/run.py's WORKLOADS) as NAME.csv, plus a copy of NAMED's
whose labels are named class_0, class_1. commands() runs each workload's
command on its fixture, NAMED's also on that copy, and EXTRA on
select_wide's.

The launcher imports only os, subprocess, sys and time. It prints the
command's exit code, its ru_maxrss from os.wait4, and perf_counter at the
spawn and at the exit. A child's ru_maxrss can include its spawner's
memory, so only a small spawner shows the command's own peak.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
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
LAUNCHER = (
    "import os, subprocess, sys, time\n"
    "start = time.perf_counter()\n"
    "p = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(p.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, start, time.perf_counter())\n"
)


def trees(specs: list[str] | None) -> dict[str, Path]:
    """NAME -> resolved PATH of each NAME=PATH; none given: this checkout's src, named change."""
    specs = specs or [f"change={ROOT / 'src'}"]
    return {name: Path(path).resolve() for name, path in (spec.split("=", 1) for spec in specs)}


def env(src: Path) -> dict[str, str]:
    """The environment of a child that imports csufs from src and writes no bytecode."""
    return dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")


def cached(srcs) -> str | None:
    """Why trees whose src directories hold bytecode caches cannot be timed, or None."""
    found = [str(p) for src in srcs for p in sorted(Path(src).rglob("__pycache__"))]
    return f"remove the bytecode caches first: {' '.join(found)}" if found else None


def spawn(cmd: list[str], src: Path, cwd: Path) -> tuple[int, int, float, float]:
    """Run cmd from the launcher, under src's csufs in cwd, its stdout dropped:
    its exit code, its ru_maxrss in KiB, and the launcher's perf_counter at
    the spawn and at the exit."""
    proc = subprocess.run([sys.executable, "-c", LAUNCHER, *cmd], cwd=cwd, env=env(src),
                          capture_output=True, text=True, check=True)
    code, rss, start, stop = proc.stdout.split()
    return int(code), int(rss), float(start), float(stop)


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


def spread(values) -> dict[str, float]:
    """Median, quartiles (inclusive method), minimum and maximum of values."""
    values = list(values)
    q1, q3 = values * 2 if len(values) == 1 else statistics.quantiles(values, n=4, method="inclusive")[::2]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def host(**more) -> dict:
    """The Python and numpy versions and CPU count a result was measured with, and more."""
    return {"python": platform.python_version(), "numpy": np.__version__, "nproc": os.cpu_count(), **more}


def store(path: Path, keys: dict, under: str | None = None) -> None:
    """Set keys in the JSON object in path, or in its object under `under`,
    keeping every other key; a missing file starts as {}."""
    doc = json.loads(path.read_text()) if path.exists() else {}
    (doc.setdefault(under, {}) if under else doc).update(keys)
    path.write_text(json.dumps(doc, indent=1) + "\n")
