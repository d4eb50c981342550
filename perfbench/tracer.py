"""Run one `csufs.cli.main(argv)` in this process, traced.

    python perfbench/tracer.py --out RESULT.json -- CLI ARGS...

The import of csufs.cli is timed untraced. Every function in LAYERS is
then replaced by a span-recording wrapper at each module where it is bound
(the CLI modules import names directly, so patching only the defining
module would miss calls), and cli.main itself is wrapped as the root span.
Spans stay in memory and are written to RESULT.json with the import time,
the exit code and the measured cost of one span when main returns. The
process exits with main's exit code.

summarize() turns the recorded spans into the per-layer metrics.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import time

# (span name, defining module, attribute, counter). A counter maps
# (result, args, kwargs) to the exact work counts the call did.
LAYERS = (
    ("io.load_csv", "csufs.io", "load_csv",
     lambda res, a, kw: {"bytes_read": os.path.getsize(a[0]),
                         "cells_parsed": res[0].n_samples * (res[0].n_features + (res[1] is not None))}),
    ("data.validate_dataset", "csufs.data", "validate_dataset", None),
    ("io.write_matrix_csv", "csufs.io", "write_matrix_csv",
     lambda res, a, kw: {"bytes_written": os.path.getsize(a[0])}),
    ("io.write_report", "csufs.io", "write_report",
     lambda res, a, kw: {"bytes_written": os.path.getsize(a[1])}),
    ("preprocess.normalize_samples", "csufs.preprocess", "normalize_samples",
     lambda res, a, kw: {"bytes_copied": res.n_samples * res.n_features * 8}),
    ("scoring.csufs", "csufs.scoring", "csufs", None),
    ("scoring.score_all_features", "csufs.scoring", "score_all_features",
     lambda res, a, kw: {"features_scored": res.n_features,
                         "values_scored": a[0].n_samples * res.n_features,
                         "candidates_computed": a[0].n_samples * res.n_features * 2 * res.k_used}),
    ("evaluation.sweep", "csufs.evaluation", "sweep", None),
    ("evaluation.evaluate_selection", "csufs.evaluation", "evaluate_selection", None),
    ("kmeans.kmeans_fit", "csufs.kmeans", "kmeans_fit",
     lambda res, a, kw: {"iterations": res.n_iter}),
    ("metrics.clustering_accuracy", "csufs.metrics", "clustering_accuracy", None),
    ("metrics.normalized_mutual_information", "csufs.metrics", "normalized_mutual_information", None),
)
ROOT_SPAN = "cli.main"
SPAN_NAMES = (ROOT_SPAN,) + tuple(layer[0] for layer in LAYERS)


class Tracer:
    """Nested spans of one thread: id, parent id, name, start, end, counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "parent": self._open[-1] if self._open else None, "name": name}
            self.spans.append(span)
            self._open.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                span["counts"] = counter(result, args, kwargs)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every LAYERS function at every csufs module that binds it.

    Raises when a defining module no longer has the function, so a renamed
    layer fails the run instead of reporting zero.
    """
    modules = [m for name, m in list(sys.modules.items()) if name == "csufs" or name.startswith("csufs.")]
    for name, module_name, attr, counter in LAYERS:
        # csufs/__init__.py rebinds the name `kmeans` to the function, so the
        # submodule is reached through sys.modules, not attribute access
        original = getattr(importlib.import_module(module_name), attr, None)
        if not callable(original):
            raise RuntimeError(f"trace site {module_name}.{attr} is gone")
        wrapped = tracer.wrap(name, original, counter)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def summarize(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans.

    Every span name gets .s (inclusive time), .self_s (time minus child
    spans) and .calls; layers that did not run read 0. Raises unless the
    spans form one tree under a single cli.main span in which every span
    lies within its parent's [start, end] and no self time is negative.
    """
    by_id = {span["id"]: span for span in spans}
    child_time = {span["id"]: 0.0 for span in spans}
    roots = [span for span in spans if span["parent"] is None]
    if len(roots) != 1 or roots[0]["name"] != ROOT_SPAN:
        raise RuntimeError(f"expected one {ROOT_SPAN} root span, got {[r['name'] for r in roots]}")
    for span in spans:
        if span["parent"] is None:
            continue
        parent = by_id.get(span["parent"])
        if parent is None or not parent["start"] <= span["start"] <= span["end"] <= parent["end"]:
            raise RuntimeError(f"span {span['id']} ({span['name']}) lies outside its parent {span['parent']}")
        child_time[span["parent"]] += span["end"] - span["start"]
    out: dict[str, float] = {}
    counts: dict[str, int] = {}
    for name in SPAN_NAMES:
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0
    for span in by_id.values():
        duration = span["end"] - span["start"]
        if duration < child_time[span["id"]]:
            raise RuntimeError(f"children of span {span['id']} ({span['name']}) overlap: negative self time")
        out[f"{span['name']}.s"] += duration
        out[f"{span['name']}.self_s"] += duration - child_time[span["id"]]
        out[f"{span['name']}.calls"] += 1
        for key, value in span.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + value

    def ratio(num, den):
        return num / den if den else 0.0

    out["io.load_csv.mb_per_s"] = ratio(counts.get("bytes_read", 0) / 1e6, out["io.load_csv.s"])
    out["io.cells_parsed"] = counts.get("cells_parsed", 0)
    out["io.bytes_written"] = counts.get("bytes_written", 0)
    out["preprocess.bytes_copied"] = counts.get("bytes_copied", 0)
    out["scoring.features_scored"] = counts.get("features_scored", 0)
    out["scoring.ns_per_value"] = ratio(out["scoring.score_all_features.s"] * 1e9, counts.get("values_scored", 0))
    out["scoring.candidates_computed"] = counts.get("candidates_computed", 0)
    out["kmeans.iterations"] = counts.get("iterations", 0)
    out["kmeans.ms_per_iter"] = ratio(out["kmeans.kmeans_fit.s"] * 1e3, out["kmeans.iterations"])
    return out


def span_cost(calls: int = 10000, repeats: int = 5) -> float:
    """Seconds one span adds to a call: the fastest of `repeats` loops of a
    wrapped no-op minus the fastest loop of the bare no-op. Layer counters
    are not included."""

    def noop():
        return None

    def loop(fn) -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - t0

    bare = min(loop(noop) for _ in range(repeats))
    wrapped = min(loop(Tracer().wrap("calibration", noop)) for _ in range(repeats))
    return (wrapped - bare) / calls


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write the timings and spans as JSON")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="arguments for csufs.cli.main, after --")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    t0 = time.perf_counter()
    cli = importlib.import_module("csufs.cli")
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    code = tracer.wrap(ROOT_SPAN, cli.main)(argv)
    result = {"import_s": import_s, "span_cost_s": span_cost(), "exit_code": code, "spans": tracer.spans}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
