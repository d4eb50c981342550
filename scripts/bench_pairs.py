#!/usr/bin/env python3
"""Alternating benchmark pairs of two source trees, summarized per metric.

    python3 scripts/bench_pairs.py --tree parent=PATH --tree change=PATH \\
        --workload W --seed S --pairs N --seconds T [--trace] --out BENCH_x.json

PATH is the root of a checkout holding perfbench/ and src/. Each pair runs
`perfbench/run.py --workload W --seed S --seconds T --trace 0` once in each
tree, with that tree's own perfbench/run.py and src/; the first tree runs
first in odd pairs and the second in even ones. The script refuses to run
unless the two perfbench/ directories are byte-identical (caches aside), so
both sides are measured by the same benchmark, and unless both src/
directories are free of bytecode caches: a tree holding them is spared
compiling its modules in every process, while with PYTHONDONTWRITEBYTECODE
set the other never gets them; that showed as 10-25 ms of setup_s on this
benchmark. With --trace, one
`--trace 1` run per tree follows the pairs.

Every run's stdout lines and result line are kept. For each metric of the
result lines, each tree's median, quartiles, minimum and maximum over the
pairs where both runs were correct are written, with the number of those
pairs the second tree won (ties count for neither), the gap between the
medians over the first tree's interquartile range (null when that range is
0), and whether a gain may be claimed: at least ten such pairs, nine wins
in ten and a gap wider than that range. Lower is better for every metric, as for every end-to-end metric in
BENCHMARK.json.

The comparison is stored in --out under the key "W seed S"; comparisons
already in that file under other keys are kept, so one file can hold a
workload's pairs on several seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

IGNORED_DIRS = {"__pycache__", ".work"}  # run.py's work directories and bytecode caches
MIN_PAIRS = 10  # the fewest pairs a gain may be claimed from


def tree_files(root: Path) -> dict[str, bytes]:
    """Relative path -> bytes of every file under root, caches aside."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and not IGNORED_DIRS.intersection(p.relative_to(root).parts)
    }


def refusal(trees: dict[str, Path]) -> str | None:
    """Why the two checkouts cannot be measured against each other, or None."""
    (base, a), (other, b) = trees.items()
    if tree_files(a / "perfbench") != tree_files(b / "perfbench"):
        return f"{base} and {other} hold different perfbench/ directories"
    cached = [str(p) for root in (a, b) for p in sorted((root / "src").rglob("__pycache__"))]
    if cached:
        return f"remove the bytecode caches first: {' '.join(cached)}"
    return None


def spread(values: list[float]) -> dict[str, float]:
    """Median, quartiles (inclusive method), minimum and maximum of values."""
    q1, q3 = values * 2 if len(values) == 1 else statistics.quantiles(values, n=4, method="inclusive")[::2]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def summarize(pairs: list[dict[str, dict | None]], base: str, other: str) -> dict[str, dict]:
    """Per metric, base's and other's spread over the pairs in which both
    result lines say correct, other's wins and the claim test. A pair maps
    each tree name to its run's result line (run.py's last stdout line,
    parsed) or None when the run printed none."""
    usable = [p for p in pairs if all(p[side] and p[side]["correct"] for side in (base, other))]
    if not usable:
        return {}
    out = {}
    for name in usable[0][base]["metrics"]:
        a = [p[base]["metrics"][name]["value"] for p in usable]
        b = [p[other]["metrics"][name]["value"] for p in usable]
        wins = sum(y < x for x, y in zip(a, b))
        base_spread, other_spread = spread(a), spread(b)
        iqr = base_spread["q3"] - base_spread["q1"]
        gap = base_spread["median"] - other_spread["median"]
        out[name] = {
            "unit": usable[0][base]["metrics"][name]["unit"],
            base: base_spread,
            other: other_spread,
            f"{other}_better_pairs": f"{wins} of {len(usable)}",
            "median_change_rel": -gap / base_spread["median"] if base_spread["median"] else None,
            "median_gap_over_base_iqr": gap / iqr if iqr else None,
            "gain_claimable": len(usable) >= MIN_PAIRS and wins >= 0.9 * len(usable) and gap > iqr,
        }
    return out


def run(tree: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One perfbench/run.py run in tree: its exit code, stdout lines and parsed result line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"exit": proc.returncode, "result": result, "lines": lines, "stderr": proc.stderr.splitlines()[-20:]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", required=True, help="NAME=PATH of a checkout; give two")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="run.py's measuring time per run")
    parser.add_argument("--trace", action="store_true", help="also one --trace 1 run per tree after the pairs")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to store the comparison in")
    args = parser.parse_args()
    trees = {name: Path(path).resolve() for name, path in (spec.split("=", 1) for spec in args.tree)}
    if len(trees) != 2 or args.pairs < 1:
        parser.error("give exactly two --tree NAME=PATH and at least one pair")
    base, other = trees
    reason = refusal(trees)
    if reason:
        print(f"error: {reason}", file=sys.stderr)
        return 2

    pairs, runs = [], []
    for i in range(1, args.pairs + 1):
        order = (base, other) if i % 2 else (other, base)
        pair = {}
        for side in order:
            print(f"pair {i}/{args.pairs}: {side}", file=sys.stderr, flush=True)
            got = run(trees[side], args.workload, args.seed, args.seconds, trace=False)
            pair[side] = got["result"]
            runs.append({"pair": i, "first": order[0], "tree": side, **got})
        pairs.append(pair)
    comparison = {
        "workload": args.workload,
        "seed": args.seed,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "trees": [base, other],
        "summary": summarize(pairs, base, other),
        "runs": runs,
    }
    if args.trace:
        comparison["trace"] = {}
        for side in (base, other):
            print(f"trace: {side}", file=sys.stderr, flush=True)
            comparison["trace"][side] = run(trees[side], args.workload, args.seed, args.seconds, trace=True)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {"comparisons": {}}
    doc["comparisons"][f"{args.workload} seed {args.seed}"] = comparison
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for name, row in comparison["summary"].items():
        print(f"{name}: {base} {row[base]['median']:.4g}, {other} {row[other]['median']:.4g}, "
              f"{other} better in {row[f'{other}_better_pairs']}, claimable {row['gain_claimable']}")
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
