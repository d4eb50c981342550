"""Command-line front end: select, evaluate, sweep, bench.

Exit codes: 0 success, 1 runtime/data errors (bad values, impossible k,
kernel disagreement), 2 flag misuse.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .baselines import select_all, select_max_variance
from .bench import run_benchmark
from .data import Method
from .errors import CsufsError, LabelColumnMissing
from .evaluation import DEFAULT_SEEDS, EvalConfig, evaluate_selection, sweep
from .io import ReportDocument, _atomic_write_text, load_csv, write_matrix_csv, write_report
from .kmeans import DEFAULT_CONV_TOL, DEFAULT_MAX_ITER
from .preprocess import normalize_samples
from .scoring import DEFAULT_K, MODES, ScoringConfig, csufs

METHOD_CHOICES = ("csufs", "maxvar", "all")


class UsageError(Exception):
    """Bad flag combinations detected after argparse."""


def parse_seed_list(spec: str) -> tuple[int, ...]:
    """Accepts "0..9", "3", or comma lists mixing both forms; seeds are non-negative."""
    out: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo_text, _, hi_text = part.partition("..")
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise argparse.ArgumentTypeError(f"descending seed range {part!r}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(part))
    if not out:
        raise argparse.ArgumentTypeError(f"empty seed list {spec!r}")
    if min(out) < 0:
        raise argparse.ArgumentTypeError(f"seeds must be non-negative, got {min(out)}")
    return tuple(out)


def positive_int(spec: str) -> int:
    value = int(spec)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def nonnegative_int(spec: str) -> int:
    value = int(spec)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def nonnegative_float(spec: str) -> float:
    value = float(spec)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative number, got {spec}")
    return value


def parse_grid(spec: str) -> tuple[int, ...]:
    """Accepts "start:stop:step" (stop included when aligned) or comma lists of positive ints."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"grid spec must be start:stop:step, got {spec!r}")
        start, stop, step = (int(p) for p in parts)
        if step <= 0:
            raise argparse.ArgumentTypeError(f"grid step must be positive, got {step}")
        values = tuple(range(start, stop + 1, step))
    else:
        values = tuple(int(p) for p in spec.split(",") if p.strip())
    if not values:
        raise argparse.ArgumentTypeError(f"empty grid {spec!r}")
    if min(values) < 1:
        raise argparse.ArgumentTypeError(f"grid values must be positive integers, got {spec!r}")
    return values


def parse_int_list(spec: str) -> tuple[int, ...]:
    values = tuple(int(p) for p in spec.split(",") if p.strip())
    if not values:
        raise argparse.ArgumentTypeError(f"empty list {spec!r}")
    if min(values) < 1:
        raise argparse.ArgumentTypeError(f"values must be positive integers, got {spec!r}")
    return values


def parse_label_col(spec: str):
    try:
        return int(spec)
    except ValueError:
        return spec


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, type=Path, help="CSV matrix, rows are samples")
    p.add_argument("--has-header", action="store_true", help="first line holds column names")
    p.add_argument(
        "--label-col",
        type=parse_label_col,
        default=None,
        help="label column, by 0-based index or header name (a name implies --has-header)",
    )


def _add_selection_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=METHOD_CHOICES, default="csufs", help="selector to run")
    p.add_argument("--d", type=positive_int, default=None, help="number of features to keep (csufs and maxvar)")
    p.add_argument("--k", type=positive_int, default=DEFAULT_K, help="neighbor count for csufs scoring")
    p.add_argument("--mode", choices=MODES, default="optimized", help="csufs distance kernel")


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
    p_eval.add_argument("--seeds", type=parse_seed_list, default=DEFAULT_SEEDS, help='seed list, e.g. "0..9" or "1,5,7"')
    p_eval.add_argument("--clusters", type=positive_int, default=None, help="cluster count (default: class count of the labels)")
    p_eval.add_argument("--max-iter", type=positive_int, default=DEFAULT_MAX_ITER, help="k-means iteration cap")
    p_eval.add_argument("--conv-tol", type=nonnegative_float, default=DEFAULT_CONV_TOL, help="k-means relative objective tolerance")
    p_eval.add_argument("--output", type=Path, default=None, help="write an evaluation report here")
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser("sweep", help="evaluate over a (d, k) grid")
    _add_data_flags(p_sweep)
    p_sweep.add_argument("--method", choices=METHOD_CHOICES, default="csufs", help="selector to sweep")
    p_sweep.add_argument("--mode", choices=MODES, default="optimized", help="csufs distance kernel")
    p_sweep.add_argument("--d-grid", type=parse_grid, required=True, help='feature counts, "20:200:20" or "5,10,20"')
    p_sweep.add_argument("--k-grid", type=parse_grid, required=True, help='neighbor counts, "5:30:5" or "1,3,5"')
    p_sweep.add_argument("--seeds", type=parse_seed_list, default=DEFAULT_SEEDS, help='seed list, e.g. "0..9"')
    p_sweep.add_argument("--clusters", type=positive_int, default=None, help="cluster count (default: class count of the labels)")
    p_sweep.add_argument("--output", type=Path, required=True, help="write the sweep report here (flat CSV lands beside it)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_bench = sub.add_parser("bench", help="time the naive kernel against the optimized one")
    p_bench.add_argument("--n-list", type=parse_int_list, required=True, help='sample counts, e.g. "2000,4000,20000"')
    p_bench.add_argument("--m", type=positive_int, default=50, help="feature count of the benchmark matrices")
    p_bench.add_argument("--k", type=positive_int, default=DEFAULT_K, help="neighbor count")
    p_bench.add_argument("--reps", type=positive_int, default=3, help="repetitions per cell; the median is reported")
    p_bench.add_argument("--seed", type=nonnegative_int, default=0, help="seed for the uniform benchmark matrices")
    p_bench.add_argument("--output", type=Path, default=None, help="write a bench report here")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def _invocation(args: argparse.Namespace) -> dict:
    out = {}
    for key, value in vars(args).items():
        if key == "func" or callable(value):
            continue
        if isinstance(value, Path):
            value = str(value)
        elif isinstance(value, tuple):
            value = list(value)
        out[key] = value
    return out


def _load(args: argparse.Namespace, require_labels: bool = False):
    if require_labels and args.label_col is None:
        raise LabelColumnMissing("this command needs labels; pass --label-col")
    has_header = args.has_header or isinstance(args.label_col, str)
    return load_csv(args.input, has_header=has_header, label_column=args.label_col)


def _run_selection(X, args: argparse.Namespace):
    """X normalized, and the selection made on it; select_all reports the variances of the raw X."""
    if args.method != "all" and args.d is None:
        raise UsageError(f"--d is required for method {args.method!r}")
    Xn = normalize_samples(X)
    if args.method == "all":
        return Xn, select_all(X)
    if args.method == "maxvar":
        return Xn, select_max_variance(Xn, args.d)
    return Xn, csufs(Xn, args.d, ScoringConfig(k=args.k, mode=args.mode))


def cmd_select(args: argparse.Namespace) -> int:
    X, _ = _load(args)
    Xn, result = _run_selection(X, args)
    if args.write_matrix is not None:
        header = [Xn.feature_names[i] for i in result.selected] if Xn.feature_names else None
        write_matrix_csv(args.write_matrix, Xn.values[:, result.selected], header=header)
    if args.output is not None:
        write_report(ReportDocument(payload=result, invocation=_invocation(args)), args.output)
    print(f"method={result.method.value} selected {len(result)} of {X.n_features} features")
    print("indices: " + " ".join(str(i) for i in result.selected))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    X, labels = _load(args, require_labels=True)
    Xn, result = _run_selection(X, args)
    cfg = EvalConfig(
        n_clusters=args.clusters if args.clusters is not None else labels.n_classes,
        seeds=args.seeds,
        max_iter=args.max_iter,
        conv_tol=args.conv_tol,
    )
    report = evaluate_selection(Xn, result.selected, labels, cfg, method=result.method)
    if args.output is not None:
        write_report(ReportDocument(payload=report, invocation=_invocation(args)), args.output)
    print(
        f"method={report.method.value} features={report.n_features_used} "
        f"clusters={cfg.n_clusters} seeds={len(cfg.seeds)}"
    )
    print(f"ACC {100.0 * report.mean_acc:.2f}%  NMI {100.0 * report.mean_nmi:.2f}%")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    X, labels = _load(args, require_labels=True)
    if args.method == "csufs":
        method = Method.CSUFS_NAIVE if args.mode == "naive" else Method.CSUFS_OPTIMIZED
    elif args.method == "maxvar":
        method = Method.MAX_VARIANCE
    else:
        method = Method.ALL_FEATURES
    cfg = EvalConfig(
        n_clusters=args.clusters if args.clusters is not None else labels.n_classes,
        seeds=args.seeds,
    )
    report = sweep(X, labels, method, args.d_grid, args.k_grid, cfg)
    write_report(ReportDocument(payload=report, invocation=_invocation(args)), args.output)
    flat_path = args.output.with_name(args.output.stem + "_flat.csv")
    lines = ["d,k,mean_acc,mean_nmi"]
    for cell in report.cells:
        lines.append(f"{cell.d},{cell.k},{cell.report.mean_acc!r},{cell.report.mean_nmi!r}")
    _atomic_write_text(flat_path, "\n".join(lines) + "\n")
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


if __name__ == "__main__":
    sys.exit(main())
