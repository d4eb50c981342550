#!/usr/bin/env python3
"""Record a baseline: repeated benchmark runs, medians and spreads, host facts.

    python3 perfbench/baseline.py

Writes perfbench/baseline.json. Each of the two batches makes ten rounds;
a round runs every workload once through run.py with --trace 0 and the
run length of BENCHMARK.json, all on the round's seed (batch b, round r
uses seed 10 * b + r). Interleaving the workloads spreads drift of a shared host
over all of them alike. For each batch, workload and end-to-end metric the
summary holds the ten values' median, quartiles and spread (the distance
between the quartiles as a share of the median); the second batch also
holds its medians relative to the first's. After the batches,
one --trace 1 run per workload records the per-layer metrics.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "baseline.json"
ROUNDS, BATCHES = 10, 2
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["fixture"] = next((line for line in lines if ": fixture " in line), None)
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "n": len(values)}


def main() -> int:
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    names = list(WORKLOADS)

    batches = []
    for b in range(BATCHES):
        runs = {name: [] for name in names}
        for r in range(ROUNDS):
            seed = b * ROUNDS + r
            for name in names:
                t0 = time.perf_counter()
                result = run_once(name, seed, seconds, 0)
                runs[name].append(result)
                metrics = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                print(f"batch {b} seed {seed} {name} ({time.perf_counter() - t0:.0f} s): {metrics}", flush=True)
        summary = {
            name: {metric: spread([run["metrics"][metric]["value"] for run in runs[name]])
                   for metric in runs[name][0]["metrics"]}
            for name in names
        }
        batches.append({"seeds": [b * ROUNDS, (b + 1) * ROUNDS - 1], "summary": summary, "runs": runs})
    batches[1]["median_vs_first"] = {
        name: {metric: stats["median"] / batches[0]["summary"][name][metric]["median"]
               for metric, stats in batches[1]["summary"][name].items()}
        for name in names
    }
    traced = {name: run_once(name, 0, seconds, 1) for name in names}

    import host

    doc = {
        "command": "python3 perfbench/baseline.py",
        "run_seconds": seconds,
        "host": host.facts(),
        "fixtures": {name: {"rows": wl.n, "features": wl.informative + wl.noise, "classes": wl.classes,
                            "informative": wl.informative} for name, wl in WORKLOADS.items()},
        "batches": batches,
        "traced": traced,
    }
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for i, batch in enumerate(batches):
        for name in names:
            for metric, stats in batch["summary"][name].items():
                rel = batch.get("median_vs_first", {}).get(name, {}).get(metric)
                extra = f"  vs batch 0: {rel:.3f}" if rel is not None else ""
                print(f"batch {i} {name:12s} {metric:15s} median {stats['median']:.4g}  spread {stats['spread']:.3f}{extra}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
