"""Command-line front end: select, evaluate, sweep, bench.

Exit codes: 0 success, 1 runtime/data errors (bad values, impossible k,
kernel disagreement, an unwritable output path), 2 flag misuse. The last
two are reported before the input is read.

main is the entry for a caller in the same process; run is the process
entry of `python -m csufs.cli` and of the csufs script, which leaves as
soon as main's outputs are flushed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import run_benchmark
from .data import Method
from .errors import CsufsError, LabelColumnMissing
from .evaluation import DEFAULT_SEEDS, EvalConfig, evaluate_selection, sweep
from .io import ReportDocument, load_csv, require_writable, write_matrix_csv, write_report, write_sweep_csv
from .kmeans import DEFAULT_CONV_TOL, DEFAULT_MAX_ITER
from .parts import leave
from .preprocess import normalize_samples
from .scoring import DEFAULT_K, MODE_METHODS, MODES, ScoringConfig, csufs, select_all, select_max_variance

METHOD_CHOICES = ("csufs", "maxvar", "all")
LIST_FORMS = "comma-separated n, lo..hi or start:stop:step"  # parse_seed_list and parse_grid


class UsageError(Exception):
    """Bad flag combinations detected after argparse."""


def _int_type(minimum: int, name: str):
    """argparse type: one integer of at least minimum (0 or 1)."""
    word = "positive" if minimum else "non-negative"

    def parse(spec: str) -> int:
        value = int(spec)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be a {word} integer, got {value}")
        return value

    parse.__name__ = name  # argparse names the type in its "invalid value" message
    return parse


def _int_list_type(minimum: int, name: str):
    """argparse type: comma-separated items, each n, lo..hi (hi included) or
    start:stop:step (stop included when the step lands on it); every value
    at least minimum (0 or 1)."""
    word = "positive" if minimum else "non-negative"

    def parse(spec: str) -> tuple[int, ...]:
        values: list[int] = []
        for item in filter(None, (part.strip() for part in spec.split(","))):
            if ".." in item:
                lo, _, hi = item.partition("..")
                span = range(int(lo), int(hi) + 1)
            elif ":" in item:
                bounds = [int(p) for p in item.split(":")]
                if len(bounds) != 3 or bounds[2] < 1:
                    raise argparse.ArgumentTypeError(f"{item!r} is not start:stop:step with a positive step")
                span = range(bounds[0], bounds[1] + 1, bounds[2])
            else:
                span = [int(item)]
            if not span:
                raise argparse.ArgumentTypeError(f"empty range {item!r}")
            values.extend(span)
        if not values:
            raise argparse.ArgumentTypeError(f"empty list {spec!r}")
        if min(values) < minimum:
            raise argparse.ArgumentTypeError(f"values must be {word} integers, got {min(values)}")
        return tuple(values)

    parse.__name__ = name
    return parse


positive_int = _int_type(1, "positive_int")
nonnegative_int = _int_type(0, "nonnegative_int")
parse_seed_list = _int_list_type(0, "parse_seed_list")
parse_grid = _int_list_type(1, "parse_grid")


def nonnegative_float(spec: str) -> float:
    value = float(spec)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative number, got {spec}")
    return value


def parse_label_col(spec: str):
    try:
        return int(spec)
    except ValueError:
        return spec


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    """Flags of every command that reads a CSV and runs a selector."""
    p.add_argument("--input", required=True, type=Path, help="CSV matrix, rows are samples")
    p.add_argument("--has-header", action="store_true", help="first line holds column names")
    p.add_argument(
        "--label-col",
        type=parse_label_col,
        default=None,
        help="label column, by 0-based index or header name (a name implies --has-header)",
    )
    p.add_argument("--method", choices=METHOD_CHOICES, default="csufs", help="selector to run")
    p.add_argument("--mode", choices=MODES, default="optimized", help="csufs distance kernel")


def _add_selection_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=positive_int, default=None, help="number of features to keep (csufs and maxvar)")
    p.add_argument("--k", type=positive_int, default=DEFAULT_K, help="neighbor count for csufs scoring")


def _add_clustering_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seeds", type=parse_seed_list, default=DEFAULT_SEEDS, help=f'k-means seeds, {LIST_FORMS}; e.g. "0..9"')
    p.add_argument("--clusters", type=positive_int, default=None, help="cluster count (default: class count of the labels)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="csufs", description="Compactness-score feature selection toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sel = sub.add_parser("select", help="rank features and keep the best d")
    _add_data_flags(p_sel)
    _add_selection_flags(p_sel)
    p_sel.add_argument("--write-matrix", type=Path, default=None, help="write the reduced (normalized) matrix as CSV here")
    p_sel.add_argument("--output", type=Path, default=None, help="write a selection report here")
    p_sel.set_defaults(func=cmd_select)

    p_eval = sub.add_parser("evaluate", help="cluster a selected subset and score against labels")
    _add_data_flags(p_eval)
    _add_selection_flags(p_eval)
    _add_clustering_flags(p_eval)
    p_eval.add_argument("--max-iter", type=positive_int, default=DEFAULT_MAX_ITER, help="k-means iteration cap")
    p_eval.add_argument("--conv-tol", type=nonnegative_float, default=DEFAULT_CONV_TOL, help="k-means relative objective tolerance")
    p_eval.add_argument("--output", type=Path, default=None, help="write an evaluation report here")
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser("sweep", help="evaluate over a (d, k) grid")
    _add_data_flags(p_sweep)
    p_sweep.add_argument("--d-grid", type=parse_grid, required=True, help=f'feature counts, {LIST_FORMS}; e.g. "20:200:20"')
    p_sweep.add_argument("--k-grid", type=parse_grid, required=True, help=f'neighbor counts, {LIST_FORMS}; e.g. "1,3,5"')
    _add_clustering_flags(p_sweep)
    p_sweep.add_argument("--output", type=Path, required=True, help="write the sweep report here (flat CSV lands beside it)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_bench = sub.add_parser("bench", help="time the naive kernel against the optimized one")
    p_bench.add_argument("--n-list", type=parse_grid, required=True, help=f'sample counts, {LIST_FORMS}; e.g. "2000,4000"')
    p_bench.add_argument("--m", type=positive_int, default=50, help="feature count of the benchmark matrices")
    p_bench.add_argument("--k", type=positive_int, default=DEFAULT_K, help="neighbor count")
    p_bench.add_argument("--reps", type=positive_int, default=3, help="repetitions per cell; the median is reported")
    p_bench.add_argument("--seed", type=nonnegative_int, default=0, help="seed for the uniform benchmark matrices")
    p_bench.add_argument("--output", type=Path, default=None, help="write a bench report here")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def _invocation(args: argparse.Namespace) -> dict:
    """The parsed flags as JSON values; the handler function is left out."""
    out = {}
    for key, value in vars(args).items():
        if not callable(value):
            out[key] = str(value) if isinstance(value, Path) else list(value) if isinstance(value, tuple) else value
    return out


def _load(args: argparse.Namespace, require_labels: bool = False):
    if require_labels and args.label_col is None:
        raise LabelColumnMissing("this command needs labels; pass --label-col")
    has_header = args.has_header or isinstance(args.label_col, str)
    return load_csv(args.input, has_header=has_header, label_column=args.label_col)


def _eval_config(args: argparse.Namespace, labels, **stop_rules) -> EvalConfig:
    n_clusters = args.clusters if args.clusters is not None else labels.n_classes
    return EvalConfig(n_clusters, seeds=args.seeds, **stop_rules)


def _run_selection(args: argparse.Namespace, require_labels: bool = False):
    """Normalized input, labels and selection; select_all reports the raw matrix's variances."""
    if args.method != "all" and args.d is None:
        raise UsageError(f"--d is required for method {args.method!r}")
    X, labels = _load(args, require_labels)
    result = select_all(X) if args.method == "all" else None
    X = normalize_samples(X)  # the raw matrix is released here
    if args.method == "maxvar":
        result = select_max_variance(X, args.d)
    elif args.method == "csufs":
        result = csufs(X, args.d, ScoringConfig(k=args.k, mode=args.mode))
    return X, labels, result


def cmd_select(args: argparse.Namespace) -> int:
    Xn, _, result = _run_selection(args)
    if args.write_matrix is not None:
        header = [Xn.feature_names[i] for i in result.selected] if Xn.feature_names else None
        write_matrix_csv(args.write_matrix, Xn.values[:, result.selected], header=header)
    if args.output is not None:
        write_report(ReportDocument(payload=result, invocation=_invocation(args)), args.output)
    print(f"method={result.method.value} selected {len(result)} of {Xn.n_features} features")
    print("indices: " + " ".join(str(i) for i in result.selected))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    Xn, labels, result = _run_selection(args, require_labels=True)
    cfg = _eval_config(args, labels, max_iter=args.max_iter, conv_tol=args.conv_tol)
    report = evaluate_selection(Xn, result.selected, labels, cfg, method=result.method)
    if args.output is not None:
        write_report(ReportDocument(payload=report, invocation=_invocation(args)), args.output)
    print(
        f"method={report.method.value} features={report.n_features_used} "
        f"clusters={cfg.n_clusters} seeds={len(cfg.seeds)}"
    )
    print(f"ACC {100.0 * report.mean_acc:.2f}%  NMI {100.0 * report.mean_nmi:.2f}%")
    return 0


def _flat_path(output: Path) -> Path:
    """Where a sweep writes its flat CSV: <stem>_flat.csv beside output."""
    return output.with_name(output.stem + "_flat.csv")


def cmd_sweep(args: argparse.Namespace) -> int:
    X, labels = _load(args, require_labels=True)
    X = normalize_samples(X)  # the raw matrix is released here
    method = {"csufs": MODE_METHODS[args.mode], "maxvar": Method.MAX_VARIANCE, "all": Method.ALL_FEATURES}[args.method]
    report = sweep(X, labels, method, args.d_grid, args.k_grid, _eval_config(args, labels))
    write_report(ReportDocument(payload=report, invocation=_invocation(args)), args.output)
    flat_path = _flat_path(args.output)
    write_sweep_csv(flat_path, report)
    print(f"swept {len(report.cells)} cells ({len(report.d_values)} d values x {len(report.k_values)} k values)")
    print(f"report: {args.output}")
    print(f"flat csv: {flat_path}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    report = run_benchmark(args.n_list, args.m, args.k, reps=args.reps, seed=args.seed)
    if not report.all_agree:
        bad = [cell.n for cell in report.grid if not cell.agreement]
        print(f"error: kernel outputs disagree at n={bad}; timings withheld", file=sys.stderr)
        return 1
    print(f"{'n':>8} {'m':>4} {'k':>3} {'naive_s':>12} {'optimized_s':>12} {'speedup':>9} agree")
    for cell in report.grid:
        print(
            f"{cell.n:>8} {cell.m:>4} {cell.k:>3} {cell.naive_seconds:>12.6f} "
            f"{cell.optimized_seconds:>12.6f} {cell.speedup:>9.1f} yes"
        )
    if args.output is not None:
        write_report(ReportDocument(payload=report, invocation=_invocation(args)), args.output)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code is None else int(exc.code)
    try:
        flat = [_flat_path(args.output)] if args.command == "sweep" else []
        for path in (args.output, vars(args).get("write_matrix"), *flat):
            if path is not None:
                require_writable(path)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except CsufsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """Run main on the command line and end the process with its code. Once
    stdout and stderr are flushed, nothing is left for the interpreter's
    teardown to do but free memory, so the process leaves by os._exit,
    which skips it (parts.leave). It leaves by sys.exit instead when a
    flush fails (the interpreter then reports it as usual) or a profiler or
    tracer watches the process (which writes its results on the way out).
    An exception main does not handle propagates, with its traceback, as
    from main."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):  # a closed pipe or stream
        sys.exit(code)
    if _observed():
        sys.exit(code)
    leave(code)


def _observed() -> bool:
    """Whether a profiler or tracer is installed in this process."""
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+
    tools = monitoring is not None and any(monitoring.get_tool(i) is not None for i in range(6))
    return sys.getprofile() is not None or sys.gettrace() is not None or tools


if __name__ == "__main__":
    run()
