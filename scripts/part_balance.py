#!/usr/bin/env python3
"""Where a split CLI run spends its time, per source tree: the exit phase
and each split stage's busy time per process.

    python3 scripts/part_balance.py [--src NAME=PATH ...] [--probe NAME] \\
        [--pieces 1,2,4,8] [--seed N] [--reps R] [--out BENCH_part_queue.json]

The benchmark's fixtures at the seed given are written to a temp directory
by launch.write_fixtures. Each perfbench workload's command in
launch.commands() then runs R times per source tree (default: this
checkout's src), the trees taking turns within each repetition, and R times
more on the --probe tree (default: the last --src) at each parts.PIECES
value of --pieces, the values taking turns. A tree whose src holds bytecode
caches is refused, as scripts/bench_pairs.py refuses it: it imports faster.

Every run is one fresh CLI process, spawned by launch.py's small launcher,
whose spawn and exit times give the wall time. The CLI process runs PROBE
(argv: the log file, a PIECES value or "-", then the CLI's arguments),
which wraps each split stage's jobs (io's load and write, scoring's
kernel, evaluation's fits), so that every job appends its process id,
start and end (time.perf_counter, one clock for every process on the
host) to a log, and wraps cli.main to log when it returns.
It then leaves as `python -m csufs.cli` leaves in that tree: through
cli.run where the tree has it, through sys.exit(main()) otherwise. The exit
phase is the time from main's return to the launcher seeing the process end.

For each split stage of a run, the script reports each process's busy time
(the sum of its jobs' times) and end (its last job's end, from the stage's
start), and how far the slowest process ends past the mean end of all the
processes. Medians over the runs, with the quartiles of the wall time and
of that lead, are written to --out: per workload, under "exit_phase" each
tree's wall time, exit phase and stages, and under "pieces_probe" the same
for each PIECES value. Other keys already in that
file (such as the comparisons scripts/bench_pairs.py stores) are kept.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
from pathlib import Path

import launch

PROBE = """
import functools, os, sys, time
import csufs.cli, csufs.evaluation, csufs.io, csufs.parts, csufs.scoring

log = os.open(sys.argv[1], os.O_WRONLY | os.O_APPEND | os.O_CREAT)
if sys.argv[2] != "-":
    csufs.parts.PIECES = int(sys.argv[2])
calls = iter(range(1 << 30))


def note(*fields):
    os.write(log, (" ".join(map(str, fields)) + "\\n").encode())


def timed(module, in_parts):
    def split(jobs, *workers):
        if len(jobs) < 2:
            return in_parts(jobs, *workers)
        first = getattr(jobs[0], "func", None)
        io_stage = "load" if first is csufs.io._parse_range else "write"
        stage = {"scoring": "kernel", "evaluation": "fit"}.get(module, io_stage)
        call = next(calls)

        def job(i):
            start = time.perf_counter()
            result = jobs[i]()
            note("job", stage, call, os.getpid(), start, time.perf_counter())
            return result

        note("stage", stage, call, os.getpid(), time.perf_counter())
        return in_parts([functools.partial(job, i) for i in range(len(jobs))], *workers)

    return split


for name in ("io", "scoring", "evaluation"):
    module = getattr(csufs, name)
    module.in_parts = timed(name, module.in_parts)
main = csufs.cli.main


def logged_main(argv=None):
    code = main(argv)
    note("main", os.getpid(), time.perf_counter())
    return code


csufs.cli.main = logged_main
sys.argv = ["csufs", *sys.argv[3:]]
if hasattr(csufs.cli, "run"):
    csufs.cli.run()
sys.exit(csufs.cli.main())
"""
MS = 1000.0
QUARTILES = ("q1", "median", "q3")  # of launch.spread, as written


def one_run(argv: list[str], src: Path, work: Path, pieces: int | None) -> dict:
    """One CLI run of argv with src's csufs through PROBE: its wall and exit
    phase in ms, and per split stage, in order, each process's busy time
    and end in ms and the slowest process's end past the mean end."""
    log = work / "probe.log"
    log.unlink(missing_ok=True)
    probe = [sys.executable, "-c", PROBE, str(log), "-" if pieces is None else str(pieces), *argv]
    code, _, start, stop = launch.spawn(probe, src, work)
    if code != 0:
        raise SystemExit(f"{argv[0]} exited {code} under {src}")
    starts, jobs, main_end = {}, {}, None
    for fields in (line.split() for line in log.read_text().splitlines()):
        if fields[0] == "stage":
            starts[int(fields[2])] = (fields[1], int(fields[3]), float(fields[4]))
        elif fields[0] == "job":
            jobs.setdefault(int(fields[2]), []).append((int(fields[3]), float(fields[4]), float(fields[5])))
        else:
            main_end = float(fields[2])
    stages = []
    for call in sorted(starts):
        stage, caller, begun = starts[call]
        busy, ends = {}, {}
        for pid, a, b in jobs.get(call, []):
            busy[pid] = busy.get(pid, 0.0) + b - a
            ends[pid] = max(ends.get(pid, 0.0), b - begun)
        order = [caller] + sorted(pid for pid in busy if pid != caller)
        stages.append({
            "stage": stage,
            "busy_ms": [round(busy[pid] * MS, 2) for pid in order],
            "end_ms": [round(ends[pid] * MS, 2) for pid in order],
            "slowest_past_mean_ms": round((max(ends.values()) - statistics.mean(ends.values())) * MS, 2),
        })
    return {"wall_ms": (stop - start) * MS, "exit_ms": (stop - main_end) * MS, "stages": stages}


def summarize(runs: list[dict]) -> dict:
    """Medians over runs of one workload and tree, with the quartiles of the
    wall time and of each stage's slowest process past the mean."""
    wall = launch.spread(r["wall_ms"] for r in runs)
    out = {
        "runs": len(runs),
        "wall_ms": round(wall["median"], 1),
        "wall_ms_quartiles": [round(wall[q], 2) for q in QUARTILES],
        "exit_ms": round(statistics.median(r["exit_ms"] for r in runs), 2),
        "exit_ms_all": [round(r["exit_ms"], 2) for r in runs],
        "stages": [],
    }
    for i, first in enumerate(runs[0]["stages"]):
        same = [r["stages"][i] for r in runs if len(r["stages"]) > i and r["stages"][i]["stage"] == first["stage"]]
        processes = min(len(s["busy_ms"]) for s in same)
        lead = launch.spread(s["slowest_past_mean_ms"] for s in same)
        out["stages"].append({
            "stage": first["stage"],
            "processes": processes,
            "busy_ms": [round(statistics.median(s["busy_ms"][p] for s in same), 2) for p in range(processes)],
            "end_ms": [round(statistics.median(s["end_ms"][p] for s in same), 2) for p in range(processes)],
            "slowest_past_mean_ms": round(lead["median"], 2),
            "slowest_past_mean_ms_quartiles": [round(lead[q], 2) for q in QUARTILES],
        })
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", default=None, help="NAME=PATH of a src directory holding csufs")
    parser.add_argument("--probe", default=None, help="the --src NAME whose parts.PIECES is probed (default: the last)")
    parser.add_argument("--pieces", default="1,2,4,8", help="comma-separated parts.PIECES values to probe; '' for none")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=9)
    parser.add_argument("--out", type=Path, default=launch.ROOT / "BENCH_part_queue.json")
    args = parser.parse_args()
    trees = launch.trees(args.src)
    if reason := launch.cached(trees.values()):
        parser.error(reason)
    probe = args.probe or list(trees)[-1]
    values = [int(v) for v in args.pieces.split(",") if v]
    exits: dict[str, dict[str, list]] = {}
    probes: dict[str, dict[int, list]] = {}
    load = [os.getloadavg()]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        launch.write_fixtures(work, args.seed)
        for workload in launch.WORKLOADS:
            argv, _ = launch.commands()[workload]
            for rep in range(args.reps):
                names = list(trees) if rep % 2 == 0 else list(trees)[::-1]
                for name in names:
                    exits.setdefault(workload, {}).setdefault(name, []).append(one_run(argv, trees[name], work, None))
                order = values if rep % 2 == 0 else values[::-1]
                for pieces in order:
                    got = one_run(argv, trees[probe], work, pieces)
                    probes.setdefault(workload, {}).setdefault(pieces, []).append(got)
                print(workload, "rep", rep + 1, file=sys.stderr, flush=True)
    load.append(os.getloadavg())
    doc = {
        "part_balance": {"seed": args.seed, "reps": args.reps, "trees": sorted(trees), "probe_tree": probe,
                         "pieces": values, "host": launch.host(loadavg_before_after=load)},
        "exit_phase": {w: {name: summarize(runs) for name, runs in by.items()} for w, by in exits.items()},
        "pieces_probe": {w: {str(p): summarize(runs) for p, runs in by.items()} for w, by in probes.items()},
    }
    launch.store(args.out, doc)
    for w, by in doc["exit_phase"].items():
        for name, row in by.items():
            stages = "; ".join(f"{s['stage']} end {s['end_ms']} past mean {s['slowest_past_mean_ms']}"
                               for s in row["stages"])
            print(f"{w} {name}: wall {row['wall_ms']} ms, exit {row['exit_ms']} ms; {stages}")
    for w, by in doc["pieces_probe"].items():
        for p, row in by.items():
            print(f"{w} PIECES={p}: wall {row['wall_ms_quartiles']} ms, "
                  + "; ".join(f"{s['stage']} past mean {s['slowest_past_mean_ms']}" for s in row["stages"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
