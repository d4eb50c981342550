import os
import pstats
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import csufs
from csufs import Method, evaluate_selection, read_report, run_benchmark
from csufs.cli import main, parse_grid, parse_seed_list
from helpers import count_forks, count_normalizations, make_two_class_data


@pytest.fixture()
def labeled_csv(tmp_path):
    rng = np.random.default_rng(40)
    X, labels = make_two_class_data(rng, n=80, informative=3, noise=9)
    header = ",".join(f"f{j}" for j in range(12)) + ",class"
    rows = [",".join(repr(float(x)) for x in X[i]) + f",{labels[i]}" for i in range(80)]
    path = tmp_path / "data.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


def test_parse_seed_list_forms():
    assert parse_seed_list("0..3") == (0, 1, 2, 3)
    assert parse_seed_list("7") == (7,)
    assert parse_seed_list("1,4..6") == (1, 4, 5, 6)
    assert parse_seed_list("0:6:3") == (0, 3, 6)
    assert parse_seed_list("9, 0:4:2,2..3") == (9, 0, 2, 4, 2, 3)
    with pytest.raises(Exception):
        parse_seed_list("3..1")
    with pytest.raises(Exception):
        parse_seed_list("")


def test_parse_grid_forms():
    assert parse_grid("20:60:20") == (20, 40, 60)
    assert parse_grid("5:30:5") == (5, 10, 15, 20, 25, 30)
    assert parse_grid("1,9,4") == (1, 9, 4)
    assert parse_grid("1..3") == (1, 2, 3)
    assert parse_grid("50,1..2,10:30:10") == (50, 1, 2, 10, 20, 30)
    with pytest.raises(Exception):
        parse_grid("5:1:1")
    with pytest.raises(Exception):
        parse_grid("1:5")
    with pytest.raises(Exception):
        parse_grid("")
    with pytest.raises(Exception):
        parse_grid("5:1:0")


def test_select_writes_report_and_matrix(labeled_csv, tmp_path, capsys):
    report_path = tmp_path / "sel.json"
    matrix_path = tmp_path / "red.csv"
    code = main(
        [
            "select",
            "--input", str(labeled_csv),
            "--label-col", "class",
            "--d", "3",
            "--k", "5",
            "--output", str(report_path),
            "--write-matrix", str(matrix_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "selected 3 of 12" in out
    doc = read_report(report_path)
    assert doc.payload.method is Method.CSUFS_OPTIMIZED
    assert set(doc.payload.selected.tolist()) == {0, 1, 2}
    matrix_lines = matrix_path.read_text().strip().splitlines()
    assert len(matrix_lines) == 81  # header plus 80 samples
    assert len(matrix_lines[1].split(",")) == 3


@pytest.mark.parametrize("method", ["csufs", "maxvar", "all"])
@pytest.mark.parametrize("command", ["select", "evaluate"])
def test_select_and_evaluate_normalize_once(labeled_csv, tmp_path, monkeypatch, command, method):
    calls = count_normalizations(monkeypatch)
    argv = [command, "--input", str(labeled_csv), "--label-col", "class", "--method", method, "--d", "3"]
    if command == "select":
        argv += ["--write-matrix", str(tmp_path / "red.csv")]
    assert main(argv) == 0
    assert len(calls) == 1


def test_select_all_method(labeled_csv, capsys):
    code = main(["select", "--input", str(labeled_csv), "--label-col", "class", "--method", "all"])
    assert code == 0
    out = capsys.readouterr().out
    assert "selected 12 of 12" in out


def test_select_maxvar_method(labeled_csv, tmp_path):
    report_path = tmp_path / "mv.json"
    code = main(
        ["select", "--input", str(labeled_csv), "--label-col", "class",
         "--method", "maxvar", "--d", "4", "--output", str(report_path)]
    )
    assert code == 0
    assert read_report(report_path).payload.method is Method.MAX_VARIANCE


def test_select_naive_mode(labeled_csv, tmp_path):
    report_path = tmp_path / "nv.json"
    code = main(
        ["select", "--input", str(labeled_csv), "--label-col", "class",
         "--d", "3", "--mode", "naive", "--output", str(report_path)]
    )
    assert code == 0
    assert read_report(report_path).payload.method is Method.CSUFS_NAIVE


def test_evaluate_prints_two_decimal_percentages(labeled_csv, capsys):
    code = main(
        ["evaluate", "--input", str(labeled_csv), "--label-col", "class",
         "--d", "3", "--seeds", "0..9"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert re.search(r"ACC \d{1,3}\.\d{2}%  NMI \d{1,3}\.\d{2}%", out)


def test_evaluate_requires_labels(labeled_csv, capsys):
    code = main(["evaluate", "--input", str(labeled_csv), "--d", "3"])
    assert code == 1
    assert "label" in capsys.readouterr().err.lower()


def test_k_too_large_exits_one_naming_the_error(labeled_csv, capsys):
    code = main(
        ["select", "--input", str(labeled_csv), "--label-col", "class", "--d", "3", "--k", "500"]
    )
    assert code == 1
    assert "KTooLarge" in capsys.readouterr().err


def test_missing_d_is_flag_misuse(labeled_csv, tmp_path, capsys, monkeypatch):
    code = main(["select", "--input", str(labeled_csv), "--label-col", "class"])
    assert code == 2
    assert "--d" in capsys.readouterr().err
    # --d is checked before the input is read, so a malformed CSV is never parsed
    # and evaluate reports the missing --d before the missing --label-col
    calls = []
    monkeypatch.setattr(csufs.cli, "load_csv", lambda *args, **kwargs: calls.append("load_csv"))
    malformed = tmp_path / "malformed.csv"
    malformed.write_text("1,2\n3,x\n")
    for command in ("select", "evaluate"):
        assert main([command, "--input", str(malformed)]) == 2
        assert capsys.readouterr().err == "usage error: --d is required for method 'csufs'\n"
    assert calls == []


def test_unknown_method_is_flag_misuse(labeled_csv, capsys):
    code = main(["select", "--input", str(labeled_csv), "--method", "magic", "--d", "2"])
    assert code == 2


def test_missing_input_file_exits_one(tmp_path, capsys):
    code = main(["select", "--input", str(tmp_path / "absent.csv"), "--d", "2"])
    assert code == 1


def test_sweep_writes_report_and_flat_csv(labeled_csv, tmp_path):
    out_path = tmp_path / "sweep.json"
    code = main(
        ["sweep", "--input", str(labeled_csv), "--label-col", "class",
         "--d-grid", "2,4", "--k-grid", "1:3:1", "--seeds", "0..1",
         "--output", str(out_path)]
    )
    assert code == 0
    doc = read_report(out_path)
    assert len(doc.payload.cells) == 6
    flat = (tmp_path / "sweep_flat.csv").read_text().strip().splitlines()
    assert flat[0] == "d,k,mean_acc,mean_nmi"
    assert len(flat) == 7
    for line in flat[1:]:
        d, k, acc, nmi = line.split(",")
        assert int(d) in (2, 4)
        assert int(k) in (1, 2, 3)
        assert 0.0 <= float(acc) <= 1.0
        assert 0.0 <= float(nmi) <= 1.0



def test_sweep_flat_csv_written_atomically(labeled_csv, tmp_path):
    out_path = tmp_path / "sweep.json"
    code = main(
        ["sweep", "--input", str(labeled_csv), "--label-col", "class",
         "--d-grid", "2,4", "--k-grid", "1,2", "--seeds", "0", "--output", str(out_path)]
    )
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "sweep.json", "sweep_flat.csv"]
    cells = read_report(out_path).payload.cells
    expected = ["d,k,mean_acc,mean_nmi"] + [f"{c.d},{c.k},{c.report.mean_acc!r},{c.report.mean_nmi!r}" for c in cells]
    assert (tmp_path / "sweep_flat.csv").read_bytes() == ("\n".join(expected) + "\n").encode()


OUTPUT_COMMANDS = {  # id -> argv; DATA stands for the input flags, OUT for the output path
    "select-write-matrix": ["select", "DATA", "--d", "3", "--write-matrix", "OUT"],
    "select-output": ["select", "DATA", "--d", "3", "--output", "OUT"],
    "evaluate-output": ["evaluate", "DATA", "--d", "3", "--seeds", "0", "--output", "OUT"],
    "sweep-output": ["sweep", "DATA", "--d-grid", "2", "--k-grid", "1", "--seeds", "0", "--output", "OUT"],
    "bench-output": ["bench", "--n-list", "150", "--m", "4", "--k", "3", "--reps", "1", "--output", "OUT"],
}


@pytest.mark.parametrize(
    "argv, out, directory, requested",
    [
        *((argv, "nodir/out.csv", None, "nodir/out.csv") for argv in OUTPUT_COMMANDS.values()),
        *((argv, "outdir", "outdir", "outdir") for argv in OUTPUT_COMMANDS.values()),
        (OUTPUT_COMMANDS["sweep-output"], "r.json", "r_flat.csv", "r_flat.csv"),
    ],
    ids=[*OUTPUT_COMMANDS, *(f"{name}-onto-a-directory" for name in OUTPUT_COMMANDS), "sweep-flat-csv-onto-a-directory"],
)
def test_write_into_a_missing_directory_names_the_requested_path(
    labeled_csv, tmp_path, capsys, monkeypatch, argv, out, directory, requested
):
    """Every output path, a sweep's flat CSV included, is checked before the
    input is read or any kernel runs: into a missing directory, or onto a
    directory already there."""
    calls = []
    monkeypatch.setattr(csufs.cli, "load_csv", lambda *args, **kwargs: calls.append("load_csv"))
    monkeypatch.setattr(csufs.cli, "run_benchmark", lambda *args, **kwargs: calls.append("run_benchmark"))
    if directory is not None:
        (tmp_path / directory).mkdir()
    data = ["--input", str(labeled_csv), "--label-col", "class"]
    argv = [arg for a in argv for arg in (data if a == "DATA" else [str(tmp_path / out) if a == "OUT" else a])]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert f"'{tmp_path / requested}'" in err
    assert ".tmp" not in err
    assert calls == []
    assert sorted(p.name for p in tmp_path.rglob("*")) == sorted(["data.csv", *filter(None, [directory])])


def test_sweep_empty_grid_is_flag_misuse(labeled_csv, tmp_path, capsys):
    code = main(
        ["sweep", "--input", str(labeled_csv), "--label-col", "class",
         "--d-grid", "", "--k-grid", "1", "--output", str(tmp_path / "x.json")]
    )
    assert code == 2


def test_bench_reports_agreement(tmp_path, capsys):
    out_path = tmp_path / "bench.json"
    code = main(
        ["bench", "--n-list", "150,300", "--m", "4", "--k", "3", "--reps", "2",
         "--output", str(out_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "speedup" in out
    doc = read_report(out_path)
    assert doc.payload.repetitions == 2
    assert [cell.n for cell in doc.payload.grid] == [150, 300]
    assert all(cell.agreement for cell in doc.payload.grid)


def test_bench_with_disagreeing_kernels_exits_one_and_writes_nothing(tmp_path, monkeypatch, capsys):
    def disagreeing(n_list, m, k, reps, seed):
        report = run_benchmark(n_list, m, k, reps=reps, seed=seed)
        report.grid[-1].agreement = False
        return report

    monkeypatch.setattr(csufs.cli, "run_benchmark", disagreeing)
    out_path = tmp_path / "bench.json"
    code = main(["bench", "--n-list", "40,60", "--m", "2", "--k", "3", "--reps", "1", "--output", str(out_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert "disagree at n=[60]" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["select", "--d", "0"],
        ["select", "--d", "-1"],
        ["select", "--d", "2", "--k", "0"],
        ["evaluate", "--d", "2", "--clusters", "0"],
        ["evaluate", "--d", "2", "--max-iter", "0"],
        ["sweep", "--d-grid", "0,2", "--k-grid", "1"],
        ["sweep", "--d-grid", "2", "--k-grid", "0:2:1"],
        ["sweep", "--d-grid", "2", "--k-grid", "1", "--clusters", "0"],
        ["bench", "--n-list", "50", "--reps", "0"],
        ["bench", "--n-list", "50", "--k", "0"],
        ["bench", "--n-list", "50", "--m", "0"],
        ["bench", "--n-list", "50", "--m", "-1"],
        ["bench", "--n-list", "-5"],
    ],
)
def test_nonpositive_counts_are_flag_misuse(labeled_csv, tmp_path, capsys, argv):
    if argv[0] != "bench":
        argv = argv + ["--input", str(labeled_csv), "--label-col", "class"]
    if argv[0] == "sweep":
        argv = argv + ["--output", str(tmp_path / "sweep.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "positive" in err
    assert "Traceback" not in err


def test_run_benchmark_rejects_nonpositive_m():
    with pytest.raises(ValueError, match="m must be positive"):
        run_benchmark([50], m=0, k=3)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"n_list": [60.7]}, "n_list"),
        ({"m": 3.9}, "m"),
        ({"m": True}, "m"),
        ({"n_list": []}, "n_list"),
        ({"reps": 1.5}, "reps"),
    ],
    ids=["float-n", "float-m", "bool-m", "no-n", "float-reps"],
)
def test_run_benchmark_rejects_counts_that_are_not_integers(kwargs, field):
    args = {"n_list": [60], "m": 3, "k": 3, "reps": 1, **kwargs}
    with pytest.raises(ValueError, match=f"^{field} must be"):
        run_benchmark(**args)


def test_run_benchmark_times_a_split_sized_cell_in_one_process(monkeypatch):
    """100 x 5000 is 2 x PART_VALUES values, which knn_distance_sums cuts
    into two column ranges; the benchmark times both kernels unsplit."""
    assert 100 * 5000 >= 2 * csufs.scoring.PART_VALUES
    forks = count_forks(monkeypatch, 2)
    report = run_benchmark([100], m=5000, k=3, reps=1)
    assert report.all_agree
    assert forks.kernels == []


def test_negative_conv_tol_is_flag_misuse(labeled_csv, capsys):
    code = main(
        ["evaluate", "--input", str(labeled_csv), "--label-col", "class", "--d", "2", "--conv-tol", "-1"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "non-negative" in err
    assert "Traceback" not in err


def test_valid_stop_rules_reach_the_config_and_the_report(labeled_csv, tmp_path, monkeypatch):
    configs = []

    def recording(X, selected, truth, cfg, method):
        configs.append(cfg)
        return evaluate_selection(X, selected, truth, cfg, method=method)

    monkeypatch.setattr(csufs.cli, "evaluate_selection", recording)
    report_path = tmp_path / "eval.json"
    code = main(
        ["evaluate", "--input", str(labeled_csv), "--label-col", "class", "--d", "2", "--seeds", "0",
         "--conv-tol", "0.25", "--max-iter", "7", "--output", str(report_path)]
    )
    assert code == 0
    assert [(cfg.conv_tol, cfg.max_iter) for cfg in configs] == [(0.25, 7)]
    invocation = read_report(report_path).invocation
    assert (invocation["conv_tol"], invocation["max_iter"]) == (0.25, 7)


def test_threads_flag_is_gone(labeled_csv, capsys):
    code = main(["select", "--input", str(labeled_csv), "--label-col", "class", "--d", "2", "--threads", "2"])
    assert code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_no_subcommand_is_flag_misuse(capsys):
    assert main([]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def test_select_reports_are_deterministic(labeled_csv, tmp_path):
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["select", "--input", str(labeled_csv), "--label-col", "class", "--d", "3"]
    assert main(argv + ["--output", str(a_path)]) == 0
    assert main(argv + ["--output", str(b_path)]) == 0
    a = read_report(a_path)
    b = read_report(b_path)
    assert a.payload == b.payload
    assert a.invocation != b.invocation  # output paths differ


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "--d", "2", "--seeds=-1"],
        ["evaluate", "--d", "2", "--seeds=-2..3"],
        ["bench", "--n-list", "50", "--seed", "-1"],
    ],
    ids=["-1", "-2..3", "bench-seed"],
)
def test_negative_seed_is_flag_misuse(labeled_csv, capsys, argv):
    if argv[0] != "bench":
        argv = argv + ["--input", str(labeled_csv), "--label-col", "class"]
    code = main(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "non-negative" in err
    assert "Traceback" not in err


def test_field_over_csv_limit_on_cell_reader_exits_one(tmp_path, capsys):
    # the quoted first cell sends the file to the cell-by-cell reader,
    # whose csv module refuses the 140001-character second cell
    path = tmp_path / "big.csv"
    path.write_text('"1",' + "1" * 140001 + "\n2,3\n", encoding="utf-8")
    assert main(["select", "--input", str(path), "--d", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: MalformedCsv: line 1: field larger than field limit")
    assert "Traceback" not in err


def test_cli_import_loads_no_scipy():
    # a fresh interpreter, so no other test's imports count
    src = str(Path(csufs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = "import sys, csufs.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "content, flags",
    [
        (b"1,2\n3,\xff4\n", []),  # in the body: loadtxt gives up, the cell-by-cell reader meets it
        (b"a\xff,b\n1,2\n", ["--has-header"]),  # in the header
    ],
    ids=["body", "header"],
)
def test_non_utf8_input_exits_one(tmp_path, capsys, content, flags):
    path = tmp_path / "latin1.csv"
    path.write_bytes(content)
    assert main(["select", "--input", str(path), *flags, "--d", "1"]) == 1
    err = capsys.readouterr().err
    # the chunked decoder cannot know the line, so none is named
    assert err == "error: MalformedCsv: not UTF-8 text: cannot decode byte 0xff\n"


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)], ids=["umask022", "umask027"])
def test_outputs_get_the_mode_open_gives_a_new_file(labeled_csv, tmp_path, umask, mode):
    out = tmp_path / "out"
    out.mkdir()
    data = ["--input", str(labeled_csv), "--label-col", "class"]
    old = os.umask(umask)
    try:
        assert main(["select", *data, "--d", "2", "--output", str(out / "sel.json"),
                     "--write-matrix", str(out / "red.csv")]) == 0
        assert main(["sweep", *data, "--d-grid", "2", "--k-grid", "1", "--seeds", "0",
                     "--output", str(out / "sweep.json")]) == 0
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
    assert modes == {"sel.json": mode, "red.csv": mode, "sweep.json": mode, "sweep_flat.csv": mode}


def python(*argv):
    """`python argv` in a fresh interpreter that imports this checkout's csufs."""
    src = str(Path(csufs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["select", "--label-col", "class", "--d", "3"], 0),
        (["--help"], 0),
        (["select", "--label-col", "class", "--d", "3", "--k", "500"], 1),
        (["select", "--label-col", "class"], 2),
    ],
    ids=["select", "help", "k-too-large", "missing-d"],
)
def test_process_entry_exits_as_main_returns(labeled_csv, capsys, argv, code):
    """run, the process entry, prints what main prints and exits with the
    code main returns."""
    if argv[0] == "select":
        argv = [argv[0], "--input", str(labeled_csv), *argv[1:]]
    assert main(argv) == code
    expected = capsys.readouterr()
    proc = python("-m", "csufs.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, expected.out, expected.err)


def run_probe(labeled_csv, body):
    """A fresh interpreter that runs body and then csufs.cli.run() on a
    select of labeled_csv."""
    argv = ["csufs", "select", "--input", str(labeled_csv), "--label-col", "class", "--d", "2"]
    probe = f"import atexit, sys\nimport csufs.cli\nsys.argv = {argv!r}\n{body}\ncsufs.cli.run()\n"
    return python("-c", probe)


def test_unexpected_exception_prints_its_traceback_and_exits_one(labeled_csv):
    boom = "def boom(*args, **kwargs):\n    raise RuntimeError('boom')\ncsufs.cli.load_csv = boom"
    proc = run_probe(labeled_csv, boom)
    assert proc.returncode == 1
    assert "Traceback (most recent call last)" in proc.stderr and proc.stderr.endswith("RuntimeError: boom\n")


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
def test_process_leaves_without_teardown_unless_traced(labeled_csv, traced):
    """Once its outputs are flushed a plain run leaves by os._exit, so no
    exit handler runs; under a tracer it leaves by sys.exit, so the
    tracer's own exit work still runs."""
    body = "atexit.register(lambda: print('teardown'))" + ("\nsys.settrace(lambda *args: None)" if traced else "")
    proc = run_probe(labeled_csv, body)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("method=csufs_optimized selected 2 of 12 features\n")
    assert proc.stdout.endswith("teardown\n") == traced


def test_profiled_process_still_writes_its_profile(labeled_csv, tmp_path):
    profile = tmp_path / "cli.prof"
    argv = ["select", "--input", str(labeled_csv), "--label-col", "class", "--d", "2"]
    proc = python("-m", "cProfile", "-o", str(profile), "-m", "csufs.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("method=csufs_optimized selected 2 of 12 features\n")
    stats = pstats.Stats(str(profile))
    assert any(name == "main" and file.endswith("cli.py") for file, _, name in stats.stats)
