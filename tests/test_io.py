import contextlib
import csv
import errno
import io
import math
import os
import pickle
import signal
import stat
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import csufs.io
import csufs.parts
from csufs import (
    BenchCell,
    BenchReport,
    EmptyMatrix,
    EvalReport,
    FeatureScores,
    LabelColumnMissing,
    Method,
    NonFiniteEntry,
    ParseError,
    RaggedRows,
    ReportDocument,
    SelectionResult,
    SweepCell,
    SweepReport,
    load_csv,
    parse_report,
    read_report,
    serialize_report,
    write_matrix_csv,
    write_report,
)
from csufs.io import _load_csv_cells
from helpers import Split, count_forks, record_calls, tiles


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_plain_matrix(tmp_path):
    path = write(tmp_path, "1,2\n3,4\n5,6\n")
    ds, labels = load_csv(path)
    assert labels is None
    assert ds.n_samples == 3
    assert np.array_equal(ds.values, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])


def test_load_with_label_index(tmp_path):
    path = write(tmp_path, "1,2,0\n3,4,0\n5,6,1\n")
    ds, labels = load_csv(path, label_column=2)
    assert ds.n_features == 2
    assert np.array_equal(labels.labels, [0, 0, 1])
    assert labels.n_classes == 2


def test_load_with_label_name_and_header(tmp_path):
    path = write(tmp_path, "a,b,class\n1,2,x\n3,4,x\n5,6,y\n")
    ds, labels = load_csv(path, has_header=True, label_column="class")
    assert ds.feature_names == ("a", "b")
    assert np.array_equal(labels.labels, [0, 0, 1])


def test_numeric_label_tokens_coincide(tmp_path):
    path = write(tmp_path, "1,0\n2,0.0\n3,1\n")
    _, labels = load_csv(path, label_column=1)
    assert labels.n_classes == 2
    assert labels.labels[0] == labels.labels[1]


def test_label_gaps_canonicalized(tmp_path):
    path = write(tmp_path, "1,5\n2,9\n3,5\n")
    _, labels = load_csv(path, label_column=1)
    assert np.array_equal(labels.labels, [0, 1, 0])


def test_ragged_rows_reports_line_number(tmp_path):
    path = write(tmp_path, "1,2\n3\n5,6\n")
    with pytest.raises(RaggedRows) as exc:
        load_csv(path)
    assert "line 2" in str(exc.value)


def test_parse_error_coordinates(tmp_path):
    path = write(tmp_path, "1,2\n3,oops\n")
    with pytest.raises(ParseError) as exc:
        load_csv(path)
    assert exc.value.row == 1
    assert exc.value.col == 1
    assert exc.value.token == "oops"


def test_non_finite_cell_rejected(tmp_path):
    path = write(tmp_path, "1,2\nnan,4\n")
    with pytest.raises(NonFiniteEntry) as exc:
        load_csv(path)
    assert (exc.value.row, exc.value.col) == (1, 0)


def test_missing_label_name(tmp_path):
    path = write(tmp_path, "a,b\n1,2\n")
    with pytest.raises(LabelColumnMissing):
        load_csv(path, has_header=True, label_column="nope")


def test_label_name_without_header(tmp_path):
    path = write(tmp_path, "1,2\n")
    with pytest.raises(LabelColumnMissing):
        load_csv(path, label_column="class")


def test_label_column_true_is_not_an_index(tmp_path):
    path = write(tmp_path, "a,b\n1,2\n")
    with pytest.raises(LabelColumnMissing, match="index or name"):
        load_csv(path, has_header=True, label_column=True)


@pytest.mark.parametrize("loader", [load_csv, _load_csv_cells], ids=["load-csv", "cell-reader"])
@pytest.mark.parametrize("header", ["", "1,a,b\n"], ids=["no-header", "header"])
def test_numpy_integer_label_column_is_an_index(tmp_path, loader, header):
    """np.int64(1) is column 1, as 1 is, not a name to look up: with the
    header "1,a,b" the name "1" would pick column 0."""
    path = write(tmp_path, header + "1,0,2\n3,1,4\n5,0,6\n")
    ds, labels = loader(path, has_header=bool(header), label_column=np.int64(1))
    assert ds.values.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    assert ds.feature_names == (("1", "b") if header else None)
    assert labels.labels.tolist() == [0, 1, 0]


def test_label_index_out_of_range(tmp_path):
    path = write(tmp_path, "1,2\n")
    with pytest.raises(LabelColumnMissing):
        load_csv(path, label_column=5)


def test_empty_file_rejected(tmp_path):
    path = write(tmp_path, "")
    with pytest.raises(EmptyMatrix):
        load_csv(path)


def test_label_only_file_rejected(tmp_path):
    path = write(tmp_path, "0\n1\n")
    with pytest.raises(EmptyMatrix):
        load_csv(path, label_column=0)


def test_blank_lines_skipped(tmp_path):
    path = write(tmp_path, "1,2\n\n3,4\n")
    ds, _ = load_csv(path)
    assert ds.n_samples == 2


def test_header_only_file_rejected_without_a_warning(tmp_path):
    path = write(tmp_path, "a,b\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EmptyMatrix):
            load_csv(path, has_header=True)


def test_single_column_file_loads_as_one_feature(tmp_path):
    path = write(tmp_path, "1.5\n-2\n3e2\n")
    ds, labels = load_csv(path)
    assert labels is None
    assert ds.values.shape == (3, 1)
    assert np.array_equal(ds.values[:, 0], [1.5, -2.0, 300.0])


def test_cell_over_csv_field_limit_loads(tmp_path):
    # the one input the cell-by-cell reader rejects (with csv.Error) and load_csv reads
    path = write(tmp_path, "1," + "0" * 140000 + "1\n2,3\n")
    ds, _ = load_csv(path)
    assert np.array_equal(ds.values, [[1.0, 1.0], [2.0, 3.0]])


def spy_on_cell_reader(monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return _load_csv_cells(*args, **kwargs)

    monkeypatch.setattr(csufs.io, "_load_csv_cells", spy)
    return calls


@pytest.mark.parametrize(
    "text, has_header, label_column",
    [
        ("1,2\n3,4\n", False, None),  # the mark sits before the first number
        ("class,a,b\nx,1,2\ny,3,4\nx,5,6\n", True, "class"),  # and before the label column's name
    ],
    ids=["no-header", "named-label"],
)
@pytest.mark.parametrize("loader", [load_csv, _load_csv_cells], ids=["load_csv", "cells"])
def test_byte_order_mark_is_dropped(tmp_path, loader, text, has_header, label_column):
    plain = tmp_path / "plain.csv"
    plain.write_bytes(text.encode("utf-8"))
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))  # as spreadsheet "CSV UTF-8" exports write it
    expected = load_outcome(loader, plain, has_header, label_column)
    assert isinstance(expected[0], tuple)  # the plain file loads
    assert load_outcome(loader, marked, has_header, label_column) == expected


def test_numeric_file_skips_the_cell_reader(tmp_path, monkeypatch):
    calls = spy_on_cell_reader(monkeypatch)
    path = write(tmp_path, "a,class\r\n0.1,1\r\n\r\n2,1.0\r\n3,2\r\n")
    ds, labels = load_csv(path, has_header=True, label_column="class")
    assert calls == []
    assert ds.feature_names == ("a",)
    assert np.array_equal(labels.labels, [0, 0, 1])


def test_string_labels_skip_the_cell_reader(tmp_path, monkeypatch):
    calls = spy_on_cell_reader(monkeypatch)
    path = write(tmp_path, "a,b,class\n1,2,x\n3,4, y\n5,6,x \n")
    ds, labels = load_csv(path, has_header=True, label_column="class")
    assert calls == []
    assert np.array_equal(ds.values, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(labels.labels, [0, 1, 0])
    assert labels.n_classes == 2


@pytest.mark.parametrize("labels, plain, cells", [
    (lambda i: f"{i % 2}", True, False),
    (lambda i: f"c{i % 2}", False, False),
    (lambda i: f"c{i % 2}" if i >= 35 else f"{i % 2}", True, True),
], ids=["numeric-labels", "named-labels", "numbers-then-names"])
def test_each_range_is_parsed_once(tmp_path, monkeypatch, labels, plain, cells):
    """The first data row's label cell tells the ranges how to read the
    label column: numbers with no converter, or names with the token
    collector. Either way each range, here or in a child, is one loadtxt
    call; a range that holds a name after a numeric first row is rejected,
    and the cell reader loads the file."""
    monkeypatch.setattr(csufs.io, "_PART_BYTES", 1)
    forks = count_forks(monkeypatch, 2)
    calls = record_calls(monkeypatch, csufs.io, "_loadtxt", tmp_path / "calls",
                         lambda fd, a, b, converters: (a, b, converters is None))
    fallbacks = []
    monkeypatch.setattr(csufs.io, "_load_csv_cells", lambda *args: fallbacks.append(args) or _load_csv_cells(*args))
    path = write(tmp_path, "x,class,y\n" + "".join(f"{i},{labels(i)},{-i}\n" for i in range(40)))
    assert load_outcome(load_csv, path, True, "class") == load_outcome(_load_csv_cells, path, True, "class")
    (split,) = forks.loads
    assert len(split.pieces) == 2 * csufs.parts.PIECES
    assert sorted((a, b) for _, (a, b, _) in calls()) == split.pieces
    assert {p for _, (_, _, p) in calls()} == {plain}
    assert bool(fallbacks) == cells


@pytest.mark.parametrize(
    "text, collected",
    [
        ("a,class,b\n1,0,2\n3,1.0,4\n5,2e0,6\n", []),
        ("a,class,b\n1,x,2\n3, y ,4\n5,x,6\n", ["x", "y", "x"]),
    ],
    ids=["numeric-labels", "named-labels"],
)
def test_only_labels_loadtxt_cannot_read_reach_the_token_collector(tmp_path, monkeypatch, text, collected):
    """loadtxt reads a numeric label column as numbers, so no converter is
    made for it; a named one, whose first cell float() rejects, is read
    with its tokens collected in the same pass."""
    count_forks(monkeypatch, 1)
    factory, cells = csufs.io._token_collector, []

    def spying(tokens):
        collect = factory(tokens)
        return lambda cell: cells.append(cell.strip()) or collect(cell)

    monkeypatch.setattr(csufs.io, "_token_collector", spying)
    path = write(tmp_path, text)
    assert load_outcome(load_csv, path, True, "class") == load_outcome(_load_csv_cells, path, True, "class")
    assert cells == collected


# Cells the cell-by-cell reader parses like any number but np.loadtxt
# refuses, and cells both refuse; each pushes load_csv onto the fallback.
FLOAT_ONLY_CELLS = st.sampled_from(['"1"', "1_0", "\uff11", '" 2.5"'])
BAD_CELLS = st.sampled_from(["x", "", "0x10", "1 2", "#1"])
NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from([" 1.5 ", "+.5", "5.", "-0.0", "1E3", "\t2", "5e-324", "1e+308", "-Infinity", "nan"]),
)
# Label columns of each kind: the cells of every row, or, for
# "numbers-then-names", of the rows before a drawn one and of the rows from it.
LABEL_CELLS = {
    "integer": st.integers(-3, 3).map(str),
    "float-formatted": st.sampled_from(["1", "1.0", "2", "-0.0", "0", "2e0"]),
    "named": st.sampled_from(["a", "b", " b ", "class_1"]),
    "quoted": st.sampled_from(['"a"', '"1"', "a", "1"]),
    "tokens": st.sampled_from(["a", "b", "1", "1.0", '"a"', " b "]),
}
LABEL_KINDS = st.sampled_from(["integer", "float-formatted", "float-formatted", "named", "quoted", "tokens",
                               "numbers-then-names"])
HEADER_NAMES = st.sampled_from(["a", '"a,b"', " c ", "class", "f0"])


@st.composite
def csv_files(draw):
    """(text, has_header, label_column): numeric CSV text, with each kind of
    dirt switched on in about one file of four: cells that only float()
    reads or that nothing reads, ragged rows and headers, whitespace-only
    lines and "#"-prefixed lines. A label column, when there is one, is of
    one kind of LABEL_KINDS: integers, numbers written as floats or as
    integers ("1.0" beside "1"), names, names some of them quoted, a mix of
    all of these, or integers up to a drawn row and names from it on."""
    some = st.sampled_from([False, False, False, True])
    odd_cells, ragged, gap_lines, comments = (draw(some) for _ in range(4))
    width = draw(st.integers(1, 4))
    label_at = draw(st.none() | st.integers(0, width - 1))
    label_kind = draw(LABEL_KINDS)
    first_name = draw(st.integers(0, 5))  # the first row of names in "numbers-then-names"
    cells = st.one_of(NUMBER_CELLS, NUMBER_CELLS, FLOAT_ONLY_CELLS, BAD_CELLS) if odd_cells else NUMBER_CELLS
    lines = []
    has_header = draw(st.booleans())
    if has_header:
        lines.append(",".join(draw(st.lists(HEADER_NAMES, min_size=width, max_size=width + 1 if ragged else width))))
    for i in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"]) if gap_lines else st.just("")))
        if label_kind == "numbers-then-names":
            labels = LABEL_CELLS["integer" if i < first_name else "named"]
        else:
            labels = LABEL_CELLS[label_kind]
        row_width = width + (draw(st.sampled_from([0] * 6 + [-1, 1])) if ragged else 0)
        row = ",".join(draw(labels if j == label_at else cells) for j in range(row_width))
        lines.append(("#" if comments and draw(st.booleans()) else "") + row)
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)
    label_column = label_at
    if label_at is not None and has_header and draw(st.booleans()):
        label_column = draw(HEADER_NAMES).strip().strip('"')
    return text, has_header, label_column


def load_outcome(loader, path, has_header, label_column):
    try:
        ds, labels = loader(path, has_header=has_header, label_column=label_column)
    except Exception as exc:
        return type(exc), str(exc), [getattr(exc, key, None) for key in ("row", "col", "token")]
    return (
        ds.values.shape,
        ds.values.tobytes(),
        ds.feature_names,
        None if labels is None else (labels.labels.tolist(), labels.n_classes),
    )


@settings(deadline=None, max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_files(), st.integers(1, 3))
def test_load_csv_matches_cell_reader(tmp_path, monkeypatch, case, cpus):
    """On 1 to 3 usable CPUs, with _PART_BYTES at 1 so that any file of two
    bytes or more may split."""
    text, has_header, label_column = case
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = load_outcome(_load_csv_cells, path, has_header, label_column)
    with monkeypatch.context() as patch:
        patch.setattr(csufs.io, "_PART_BYTES", 1)
        count_forks(patch, cpus)
        assert load_outcome(load_csv, path, has_header, label_column) == expected


BOM = b"\xef\xbb\xbf"


def header_end(data: bytes, has_header: bool) -> int:
    """The byte just past the header's last line, 0 without a header: a
    leading byte-order mark and every line a csv reader reads up to and
    including the first non-blank row (the whole file when there is none)."""
    if not has_header:
        return 0
    text = data.removeprefix(BOM).decode()
    lines = io.StringIO(text, newline="").readlines()  # split at "\n", "\r\n" and a lone "\r", as csv reads them
    reader = csv.reader(lines)
    next((row for row in reader if row), None)
    return len(data) - len(text.encode()) + len("".join(lines[: reader.line_num]).encode())


def must_split(data: bytes, has_header: bool, cpus: int = 2) -> bool:
    """A file with a "\\n" past both the end of its first piece and its
    header's end (its last byte aside): with _PART_BYTES at 1 and cpus
    usable CPUs, two or more, load_csv cuts it into
    min(size, cpus x parts.PIECES) pieces and parses it in more than one
    range. A "\\n" past the middle is enough for any cpus."""
    count = max(1, min(len(data), cpus * csufs.parts.PIECES))
    return b"\n" in data[max(len(data) // count, header_end(data, has_header)) : -1]


def later_starts(splits) -> list[int]:
    """Where every range but the first of each split load starts."""
    return [start for split in splits for start, _ in split.pieces[1:]]


@pytest.fixture(params=[2, 3], ids=["2-cpus", "3-cpus"])
def forks(request, monkeypatch):
    """Any file of two bytes or more may split: _PART_BYTES is 1 and
    request.param CPUs are usable. Returns the list of split loads."""
    monkeypatch.setattr(csufs.io, "_PART_BYTES", 1)
    return count_forks(monkeypatch, request.param).loads


@settings(deadline=None, max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_files())
def test_split_load_matches_cell_reader(tmp_path, forks, case):
    text, has_header, label_column = case
    data = text.encode("utf-8")
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    forks.clear()
    expected = load_outcome(_load_csv_cells, path, has_header, label_column)
    assert load_outcome(load_csv, path, has_header, label_column) == expected
    assert forks or not must_split(data, has_header)
    starts = later_starts(forks)
    assert all(start >= header_end(data, has_header) and data[start - 1 : start] == b"\n" for start in starts)
    assert all(tiles(split.pieces, header_end(data, has_header), len(data)) for split in forks)


@pytest.mark.parametrize(
    "data, blank",
    [
        (b"1,2\n3,4\n" + b"\n" * 12 + b"5,6\n", [True, False]),  # ranges [0, 9), [9, 17), [17, 24)
        (b"1,2\n3,4\n" + b"\n" * 16, [True, True]),
    ],
    ids=["middle", "last-two"],
)
def test_range_of_blank_lines_only(tmp_path, monkeypatch, data, blank):
    """One range per process, so the ranges are the ones named."""
    monkeypatch.setattr(csufs.io, "_PART_BYTES", 1)
    monkeypatch.setattr(csufs.parts, "PIECES", 1)
    forks = count_forks(monkeypatch, 3).loads
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    expected = load_outcome(_load_csv_cells, path, False, None)
    assert load_outcome(load_csv, path, False, None) == expected
    assert expected[0] == (3 if data.endswith(b"5,6\n") else 2, 2)
    assert [not data[start:stop].strip() for split in forks for start, stop in split.pieces[1:]] == blank


def test_split_right_after_crlf(tmp_path, forks):
    path = tmp_path / "data.csv"
    data = b"a,b\r\n1,2\r\n3,4\r\n5,6\r\n7,8\r\n"
    path.write_bytes(data)
    expected = load_outcome(_load_csv_cells, path, True, None)
    assert load_outcome(load_csv, path, True, None) == expected
    assert expected[2] == ("a", "b")
    assert forks and all(data[start - 2 : start] == b"\r\n" for start in later_starts(forks))


def test_byte_order_mark_file_splits(tmp_path, forks):
    plain = tmp_path / "plain.csv"
    plain.write_bytes(b"a,b\n1,2\n3,4\n5,6\n")
    marked = tmp_path / "marked.csv"
    marked.write_bytes(BOM + plain.read_bytes())
    expected = load_outcome(_load_csv_cells, plain, True, None)
    assert load_outcome(load_csv, marked, True, None) == expected
    assert load_outcome(_load_csv_cells, marked, True, None) == expected
    assert forks and all(start > len(BOM) for start in later_starts(forks))


def test_named_label_column_splits(tmp_path, forks):
    path = write(tmp_path, "x,class,y\n1,a,2\n3,b,4\n5,a,6\n7,c,8\n9, b ,10\n")
    expected = load_outcome(_load_csv_cells, path, True, "class")
    assert load_outcome(load_csv, path, True, "class") == expected
    assert expected[2:] == (("x", "y"), ([0, 1, 0, 2, 1], 3))
    assert forks


@pytest.mark.parametrize(
    "data, splits",
    [(b"\na,b\n1,2\n3,4\n5,6\n", True), (b'"a",b\n1,2\n3,4\n5,6\n', True), (b"a,b\r1,2\r3,4\r5,6\r", False)],
    ids=["blank", "quoted", "no-newline"],
)
def test_first_line_that_keeps_a_file_whole(tmp_path, forks, data, splits):
    """Only a file with no "\\n" at all stays one range: a blank or quoted
    first line splits like any other, every range past the header."""
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    expected = load_outcome(_load_csv_cells, path, True, None)
    assert load_outcome(load_csv, path, True, None) == expected
    assert bool(forks) == splits
    assert all(start >= header_end(data, True) for start in later_starts(forks))


@pytest.mark.parametrize("cpus", [1, 2, 3], ids=["1-cpu", "2-cpus", "3-cpus"])
@pytest.mark.parametrize(
    "data, has_header, label_column, outcome",
    [
        pytest.param(b"x,class\n1.5,1\n2.5,0\n3.5,1\n4.5,-2\n", True, "class", "loadtxt", id="integer-labels"),
        pytest.param(b"x,class\n1.5,1\n2.5,1.0\n3.5,2\n4.5,2e0\n", True, "class", "loadtxt",
                     id="float-formatted-labels"),
        pytest.param(b"x,class,y\n1,a,2\n3,b,4\n5,a,6\n7, c ,8\n", True, "class", "loadtxt", id="named-labels"),
        # the cell reader unquotes "a" and reads every quoted file
        pytest.param(b'x,class\n1,"a"\n2,b\n3,"a"\n4,b\n', True, "class", "cells", id="quoted-labels"),
        # the first data row's label is a number, so every range reads the
        # labels as numbers; loadtxt rejects the names, on any CPU count
        pytest.param(b"x,class\n1,0\n2,1\n3,0\n4,b\n5,a\n6,b\n", True, "class", "cells", id="numbers-then-names"),
        # likewise "1_0", which float() reads as 10 and loadtxt rejects
        pytest.param(b"x,class\n1,0\n2,1_0\n3,0\n4,1\n5,0\n", True, "class", "cells", id="numbers-then-float-only"),
        # the first data row's label is a name, so every range collects tokens
        pytest.param(b"x,class\n1,a\n2,b\n3,a\n4,0\n5,1\n6,0\n", True, "class", "loadtxt", id="names-then-numbers"),
        pytest.param(b"\n\r\n\n0,1\n1,2\n3,4\n5,6\n7,8\n", True, None, "loadtxt", id="blank-lines-before-header"),
        pytest.param(b"0,1\r\n1,2\r\n3,4\r\n5,6\r\n7,8\r\n", True, None, "loadtxt", id="crlf"),
        pytest.param(b"0,1\n1,2\r3,4\n5,6\n7,8\n9,10\n", True, None, "loadtxt", id="lone-cr-in-first-range"),
        pytest.param(b"0,1\r1,2\n3,4\n5,6\n7,8\n", True, None, "loadtxt", id="header-ended-by-lone-cr"),
        pytest.param(BOM + b"0,1\n1,2\n3,4\n5,6\n7,8\n", True, None, "loadtxt", id="byte-order-mark"),
        pytest.param(b"x,class,y\r\n1,a,2\r\n3,b,4\r\n5,a,6\r\n7,c,8\r\n", True, "class", "loadtxt", id="middle-label"),
        # split at byte 8: the first range's rows hold the label alone, a
        # table of width 1 that must not pass for a range of blank lines
        pytest.param(b"a,a\n1\r1\n1,0.0\n", True, 0, RaggedRows, id="label-only-range"),
        pytest.param(b'"a\nb",c\n1,2\n3,4\n5,6\n7,8\n', True, None, "loadtxt", id="quoted-multi-line-header"),
        pytest.param(b'"1\n2\n3\n4",5\n6,7\n8,9\n10,11\n', True, None, "loadtxt", id="header-past-the-first-share"),
        pytest.param(BOM + b'\r\n\r\n"0\r\n1",2\r\n1,2\r\n3,4\r\n5,6\r\n', True, None, "loadtxt",
                     id="bom-blank-crlf-quoted-header"),
        pytest.param(b"0,1\n", True, None, EmptyMatrix, id="header-only"),
        pytest.param(b"0,1", True, None, EmptyMatrix, id="header-only-no-final-newline"),
    ],
)
def test_split_load_case_matches_cell_reader(tmp_path, monkeypatch, cpus, data, has_header, label_column, outcome):
    """Each case loads as the cell reader loads it whether or not it
    splits: outcome is the error it raises, or which reader loads it
    ("loadtxt" or "cells"), on every CPU count. It splits whenever more than one
    CPU is usable and must_split says so, the ranges cover the body once
    each, and no range starts before the header's end. A numeric header read as a data row, or a data row
    skipped with it, would change the outcome."""
    monkeypatch.setattr(csufs.io, "_PART_BYTES", 1)
    forks = count_forks(monkeypatch, cpus).loads
    fallbacks = []
    monkeypatch.setattr(csufs.io, "_load_csv_cells", lambda *args: fallbacks.append(args) or _load_csv_cells(*args))
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    expected = load_outcome(_load_csv_cells, path, has_header, label_column)
    assert load_outcome(load_csv, path, has_header, label_column) == expected
    assert expected[0] is outcome if isinstance(outcome, type) else expected[2] is not None
    assert bool(fallbacks) == (outcome != "loadtxt")
    assert bool(forks) == (cpus > 1 and must_split(data, has_header, cpus))
    body = header_end(data, has_header)
    assert all(split.workers == cpus and tiles(split.pieces, body, len(data)) for split in forks)
    if label_column == 0 and cpus > 1:
        assert later_starts(forks)[0] == 8


@pytest.mark.parametrize("short, forked", [(1, False), (0, True)], ids=["one-byte-short", "two-parts"])
def test_a_file_splits_from_two_parts(tmp_path, monkeypatch, short, forked):
    forks = count_forks(monkeypatch, 2).loads
    rows = (2 * csufs.io._PART_BYTES - 4) // 4
    data = b"a,b\n" + b"1,2\n" * rows
    path = tmp_path / "data.csv"
    path.write_bytes(data[: len(data) - short])
    assert len(data) == 2 * csufs.io._PART_BYTES
    ds, _ = load_csv(path, has_header=True)
    assert ds.values.shape == (rows, 2)
    assert [(split.workers, len(split.pieces)) for split in forks] == [(2, 2 * csufs.parts.PIECES)] * forked


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def split_file(tmp_path, monkeypatch):
    """(path, its outcome through the cell reader) of a file that three
    processes load, parts.PIECES ranges each, after its 10-byte header."""
    monkeypatch.setattr(csufs.io, "_PART_BYTES", 1)
    path = write(tmp_path, "a,class,b\n" + "".join(f"{i}.5,c{i % 3},{-i}\n" for i in range(60)))
    return path, load_outcome(_load_csv_cells, path, True, "class")


def ranges_parsed(monkeypatch, tmp_path):
    """Record the (start, stop) of each byte range that this process or a
    child parses; returns a function giving (pid, range) of each, in order.
    The header read parses no range."""
    return record_calls(monkeypatch, csufs.io, "_parse_range", tmp_path / "parsed", lambda fd, a, b, *_: (a, b))


def one_split(forks, path):
    """The pieces of the one split load of path, by three processes."""
    (split,) = forks
    assert split.workers == 3 and len(split.pieces) == 3 * csufs.parts.PIECES
    assert tiles(split.pieces, 10, path.stat().st_size)
    return split.pieces


@pytest.mark.parametrize("fails_at", [0, 1], ids=["first-fork", "second-fork"])
def test_range_whose_fork_fails_is_parsed_here(split_file, tmp_path, monkeypatch, fails_at):
    """Every range is parsed once: this process parses the first range,
    the own range of each child that did not start, and what it claims."""
    path, expected = split_file
    forks = count_forks(monkeypatch, 3)
    parsed = ranges_parsed(monkeypatch, tmp_path)
    real_fork, calls = os.fork, []

    def fork():
        calls.append(1)
        if len(calls) > fails_at:
            raise BlockingIOError("fork: resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    assert load_outcome(load_csv, path, True, "class") == expected
    pieces = one_split(forks.loads, path)
    assert forks.children == len(calls) == 2
    assert sorted(piece for _, piece in parsed()) == pieces
    here = [piece for pid, piece in parsed() if pid == os.getpid()]
    assert here[0] == pieces[0] and set(pieces[1 + fails_at : 3]) <= set(here)
    assert_no_children()


def test_range_whose_child_exits_before_it_writes_is_parsed_here(split_file, tmp_path, monkeypatch):
    """Each child exits on its own range, before it claims one: every range
    is parsed here, once, the children's last."""
    path, expected = split_file
    forks = count_forks(monkeypatch, 3)
    parsed = ranges_parsed(monkeypatch, tmp_path)
    parent, parse_range = os.getpid(), csufs.io._parse_range

    def parse(*args):
        if os.getpid() != parent:
            os._exit(1)
        return parse_range(*args)

    monkeypatch.setattr(csufs.io, "_parse_range", parse)
    assert load_outcome(load_csv, path, True, "class") == expected
    pieces = one_split(forks.loads, path)
    assert forks.children == 2
    assert [pid for pid, _ in parsed()] == [parent] * len(pieces)
    assert [piece for _, piece in parsed()] == pieces[:1] + pieces[3:] + pieces[1:3]
    assert_no_children()


@pytest.mark.parametrize(
    "keep",
    [lambda n: 0, lambda n: 1, lambda n: n // 2, lambda n: n - 1],
    ids=["empty", "one-byte", "half", "all-but-one"],
)
def test_range_whose_child_sends_a_truncated_pickle_is_parsed_here(split_file, tmp_path, monkeypatch, keep):
    """No child's results arrive, so every range a child parsed, its own and
    those it claimed, is parsed again here, and every other range once."""
    path, expected = split_file
    forks = count_forks(monkeypatch, 3)
    parsed = ranges_parsed(monkeypatch, tmp_path)

    def truncated(obj, file, protocol):
        data = pickle.dumps(obj, protocol=protocol)
        file.write(data[: keep(len(data))])

    monkeypatch.setattr(pickle, "dump", truncated)  # the children inherit it; this process only loads
    assert load_outcome(load_csv, path, True, "class") == expected
    pieces = one_split(forks.loads, path)
    assert forks.children == 2
    here = [piece for pid, piece in parsed() if pid == os.getpid()]
    in_children = {piece for pid, piece in parsed() if pid != os.getpid()}
    assert sorted(here) == pieces
    assert set(pieces[1:3]) <= in_children
    assert_no_children()


def test_rejected_range_stops_the_load_and_kills_the_children(split_file, monkeypatch):
    """loadtxt rejects a cell on line 2, in this process's own range, so the
    children, still parsing, are killed unread and the cell reader, which
    reads "1_0" as float() does, loads the file."""
    path, _ = split_file
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = "1_0" + lines[1][lines[1].index(",") :]
    path.write_text("".join(lines))
    expected = load_outcome(_load_csv_cells, path, True, "class")
    assert expected[1][:8] == np.float64(10.0).tobytes()
    forks = count_forks(monkeypatch, 3)
    parent, parse_range = os.getpid(), csufs.io._parse_range

    def parse(*args):
        if os.getpid() != parent:
            time.sleep(60)  # a child still parsing
        return parse_range(*args)

    monkeypatch.setattr(csufs.io, "_parse_range", parse)
    started = time.perf_counter()
    assert load_outcome(load_csv, path, True, "class") == expected
    assert time.perf_counter() - started < 30, "the children were waited for, not killed"
    assert [split.workers for split in forks.loads] == [3] and forks.children == 2
    assert_no_children()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_error_in_own_range_kills_the_children(split_file, monkeypatch, error):
    path, _ = split_file
    forks = count_forks(monkeypatch, 3)
    parent, parse_range = os.getpid(), csufs.io._parse_range

    def parse(*args):
        if os.getpid() == parent:
            raise error("parse interrupted")
        time.sleep(60)  # a child still parsing
        return parse_range(*args)

    monkeypatch.setattr(csufs.io, "_parse_range", parse)
    started = time.perf_counter()
    with pytest.raises(error):
        load_csv(path, has_header=True, label_column="class")
    assert time.perf_counter() - started < 30, "the children were waited for, not killed"
    assert [split.workers for split in forks.loads] == [3] and forks.children == 2
    assert_no_children()


def make_selection():
    scores = FeatureScores(
        d=np.array([7.0, 0.0]),
        v=np.array([5.25, 0.0]),
        cs=np.array([7.0 / 5.25, math.inf]),
        mu=np.array([3.5, 5.0]),
        k_used=1,
    )
    return SelectionResult(selected=np.array([0]), scores=scores, method=Method.CSUFS_OPTIMIZED, d_requested=1)


def make_eval():
    return EvalReport(
        per_seed=[(0, 0.96, 0.83), (1, 1.0, 1.0)],
        mean_acc=0.98,
        mean_nmi=0.915,
        n_features_used=3,
        method=Method.MAX_VARIANCE,
    )


def make_sweep():
    return SweepReport(
        method=Method.CSUFS_NAIVE,
        d_values=[2, 4],
        k_values=[1],
        cells=[SweepCell(d=2, k=1, report=make_eval()), SweepCell(d=4, k=1, report=make_eval())],
    )


def make_bench():
    return BenchReport(
        grid=[BenchCell(n=100, m=5, k=3, naive_seconds=0.125, optimized_seconds=0.005, speedup=25.0, agreement=True)],
        repetitions=3,
    )


@pytest.mark.parametrize("payload_maker", [make_selection, make_eval, make_sweep, make_bench])
def test_payload_round_trip(payload_maker):
    doc = ReportDocument(payload=payload_maker(), invocation={"command": "x", "d": 2})
    assert parse_report(serialize_report(doc)) == doc


def test_infinity_serialized_as_token():
    text = serialize_report(ReportDocument(payload=make_selection(), invocation={}))
    assert '"inf"' in text
    assert "Infinity" not in text
    restored = parse_report(text)
    assert math.isinf(restored.payload.scores.cs[1])


def test_nan_in_a_payload_is_not_serialized():
    report = EvalReport(per_seed=[(0, float("nan"), 1.0)], mean_acc=float("nan"), mean_nmi=1.0,
                        n_features_used=1, method=Method.ALL_FEATURES)
    with pytest.raises(ValueError):
        serialize_report(ReportDocument(payload=report, invocation={}))


def test_awkward_floats_round_trip_bit_exact(tmp_path):
    tricky = [0.1, 1.0 / 3.0, 5e-324, 1e308, 2.0**-1074, 1.2345678901234567]
    scores = FeatureScores(
        d=np.array(tricky[:3]), v=np.array(tricky[3:]), cs=np.array(tricky[:3]), mu=np.array(tricky[3:]), k_used=2
    )
    payload = SelectionResult(selected=np.array([0, 1]), scores=scores, method=Method.CSUFS_NAIVE, d_requested=2)
    doc = ReportDocument(payload=payload, invocation={})
    path = tmp_path / "r.json"
    write_report(doc, path)
    restored = read_report(path)
    assert restored == doc
    assert restored.payload.scores.d.tobytes() == scores.d.tobytes()


def test_serialization_is_deterministic():
    doc = ReportDocument(payload=make_eval(), invocation={"b": 1, "a": 2}, timestamp="2026-01-01T00:00:00+00:00")
    assert serialize_report(doc) == serialize_report(doc)


def test_write_report_and_read_back(tmp_path):
    doc = ReportDocument(payload=make_eval(), invocation={"command": "evaluate"})
    path = tmp_path / "eval.json"
    write_report(doc, path)
    assert read_report(path) == doc


def test_write_to_missing_directory_raises_oserror(tmp_path):
    doc = ReportDocument(payload=make_eval(), invocation={})
    with pytest.raises(OSError):
        write_report(doc, tmp_path / "nope" / "eval.json")


@pytest.mark.parametrize(
    "target, code",
    [
        ("nope/eval.json", errno.ENOENT),
        ("nope/deeper/eval.json", errno.ENOENT),
        ("file/eval.json", errno.ENOTDIR),
        ("file/deeper/eval.json", errno.ENOTDIR),
        ("dir", errno.EISDIR),
        ("denied/eval.json", errno.EACCES),
    ],
    ids=["nope", "nope/deeper", "file", "file/deeper", "dir", "eacces"],
)
def test_require_writable_raises_what_a_write_raises(tmp_path, monkeypatch, target, code):
    """The check runs the write's own first step: the same errno and text,
    naming the requested path, and no file left behind. A directory that
    refuses new files is simulated, since root may write anywhere."""
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    (tmp_path / "denied").mkdir()
    os_open = os.open

    def open_unless_denied(name, *args, **kwargs):
        if str(name).startswith(str(tmp_path / "denied")) and str(name).endswith(".tmp"):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), name)
        return os_open(name, *args, **kwargs)

    monkeypatch.setattr(csufs.io.os, "open", open_unless_denied)
    before = sorted(tmp_path.rglob("*"))
    path = tmp_path / target
    with pytest.raises(OSError) as written:
        write_report(ReportDocument(payload=make_eval(), invocation={}), path)
    with pytest.raises(OSError) as checked:
        csufs.io.require_writable(path)
    assert (checked.value.errno, str(checked.value)) == (written.value.errno, str(written.value))
    assert str(checked.value) == f"[Errno {code}] {os.strerror(code)}: '{path}'"
    assert sorted(tmp_path.rglob("*")) == before


def test_require_writable_leaves_no_file(tmp_path, monkeypatch):
    """Where the write would succeed the check passes and leaves nothing:
    a new name, an existing file, a link to a directory (os.replace
    replaces the link) and a bare name, which lands in the working directory."""
    (tmp_path / "old.json").write_text("{}")
    (tmp_path / "dir").mkdir()
    (tmp_path / "link").symlink_to(tmp_path / "dir")
    before = sorted(tmp_path.rglob("*"))
    monkeypatch.chdir(tmp_path)
    for path in (tmp_path / "eval.json", tmp_path / "old.json", tmp_path / "link", "eval.json"):
        csufs.io.require_writable(path)
    assert sorted(tmp_path.rglob("*")) == before
    write_report(ReportDocument(payload=make_eval(), invocation={}), "link")
    assert (tmp_path / "link").is_file() and list((tmp_path / "dir").iterdir()) == []


def test_a_failed_rename_names_the_path_and_leaves_no_file(tmp_path, monkeypatch):
    def busy(src, dst):
        raise OSError(errno.EBUSY, os.strerror(errno.EBUSY), src, None, dst)

    monkeypatch.setattr(csufs.io.os, "replace", busy)
    path = tmp_path / "eval.json"
    with pytest.raises(OSError) as exc:
        write_report(ReportDocument(payload=make_eval(), invocation={}), path)
    assert str(exc.value) == f"[Errno {errno.EBUSY}] {os.strerror(errno.EBUSY)}: '{path}'"
    assert list(tmp_path.iterdir()) == []


def test_no_stray_temp_files_after_write(tmp_path):
    doc = ReportDocument(payload=make_eval(), invocation={})
    write_report(doc, tmp_path / "eval.json")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["eval.json"]


def test_write_matrix_csv_round_trips_values(tmp_path):
    values = np.array([[0.1, 2.0], [1.0 / 3.0, 4.0]])
    path = tmp_path / "w.csv"
    write_matrix_csv(path, values, header=["a", "b"])
    ds, _ = load_csv(path, has_header=True)
    assert ds.feature_names == ("a", "b")
    assert ds.values.tobytes() == np.asfortranarray(values).tobytes()


@pytest.mark.parametrize(
    "values, header",
    [(np.ones((3, 3)), ["a"]), (np.ones((3, 2)), ["a", "b", "c"]), (np.ones(3), None), (np.ones((2, 2, 2)), None)],
    ids=["short-header", "long-header", "1-D", "3-D"],
)
def test_write_matrix_csv_rejects_what_load_csv_could_not_read(tmp_path, values, header):
    """A header of the wrong length would give RaggedRows on reading back;
    the check comes before any temp or part file is made."""
    with pytest.raises(ValueError, match="header names for|2-D matrix"):
        write_matrix_csv(tmp_path / "w.csv", values, header=header)
    assert list(tmp_path.iterdir()) == []


def test_write_matrix_csv_quotes_header_names_only_where_needed(tmp_path):
    path = tmp_path / "w.csv"
    header = ["a", "b,c", 'say "d"']
    write_matrix_csv(path, np.array([[1.0, 2.0, 3.0]]), header=header)
    assert path.read_text().splitlines()[0] == 'a,"b,c","say ""d"""'
    ds, _ = load_csv(path, has_header=True)
    assert ds.feature_names == tuple(header)


def test_write_matrix_csv_hands_over_one_chunk_per_line(tmp_path, monkeypatch):
    """A matrix below the part minimum forks nothing and is formatted here,
    a line at a time, into the temp file."""
    forks = count_forks(monkeypatch, 3)
    atomic_file, seen = csufs.io._atomic_file, []

    class Recorder:
        """The temp file's handle, recording each chunk written through it."""

        def __init__(self, fh):
            self.fh = fh

        def write(self, chunk):
            seen.append(chunk)
            return self.fh.write(chunk)

        def writelines(self, chunks):
            for chunk in chunks:
                self.write(chunk)

        def flush(self):
            self.fh.flush()

    @contextlib.contextmanager
    def recording(path):
        with atomic_file(path) as fh:
            yield Recorder(fh)

    monkeypatch.setattr(csufs.io, "_atomic_file", recording)
    path = tmp_path / "w.csv"
    write_matrix_csv(path, np.array([[0.1, -0.0], [1e300, 2.0]]), header=["a", "b"])
    assert seen == ["a,b\n", "0.1,-0.0\n", "1e+300,2.0\n"]
    assert path.read_text() == "".join(seen)
    assert forks.writes == []


def test_failed_streaming_write_leaves_no_file(tmp_path):
    def lines():
        yield "1.0\n"
        raise RuntimeError("formatting failed")

    with pytest.raises(RuntimeError), csufs.io._atomic_file(tmp_path / "w.csv") as fh:
        fh.writelines(lines())
    assert list(tmp_path.iterdir()) == []


def test_write_matrix_csv_onto_a_directory_fails_before_any_fork(tmp_path, monkeypatch):
    """A matrix that splits is refused at the write's first step, before any
    row is formatted or any child forked, and nothing is left behind."""
    forks = count_forks(monkeypatch, 3)
    values = np.ones((1000, 2 * csufs.io._PART_CELLS // 1000))
    write_matrix_csv(tmp_path / "w.csv", values)
    count = 2 * csufs.parts.PIECES
    split = Split(2, [(i + 1) * 1000 // count - i * 1000 // count for i in range(count)])
    assert forks.writes == [split] and forks.children == 1  # two processes where the write can go ahead
    target = tmp_path / "out"
    target.mkdir()
    with pytest.raises(IsADirectoryError) as exc:
        write_matrix_csv(target, values)
    assert str(exc.value) == f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{target}'"
    assert forks.writes == [split] and forks.children == 1
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["out", "w.csv"]


EDGE_VALUES = [-0.0, 1e300, 5e-324, math.nan, math.inf, -math.inf, 0.1, 1.0 / 3.0]
EDGE_TOKENS = {"-0.0", "1e+300", "5e-324", "nan", "inf", "-inf", "0.1", "0.3333333333333333"}


def edge_matrix(rows, cols):
    """A rows x cols matrix cycling through EDGE_VALUES row by row."""
    return np.resize(np.array(EDGE_VALUES), (rows, cols))


def one_part_bytes(tmp_path, values, header):
    """What write_matrix_csv writes for values in one part, as a matrix
    below the part minimum is written."""
    path = tmp_path / "one-part.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(csufs.io, "_PART_CELLS", 1 << 62)
        write_matrix_csv(path, values, header=header)
    data = path.read_bytes()
    path.unlink()
    return data


@pytest.fixture(params=[1, 2, 3], ids=["1-cpu", "2-cpus", "3-cpus"])
def write_forks(request, monkeypatch):
    """Any matrix of two cells or more may split: _PART_CELLS is 1 and
    request.param CPUs are usable. Returns the list of split writes."""
    monkeypatch.setattr(csufs.io, "_PART_CELLS", 1)
    return count_forks(monkeypatch, request.param).writes


@pytest.mark.parametrize(
    "shape, header",
    [
        ((2, 4), ["a", "b", "c", "d"]),
        ((8, 1), ["x"]),
        ((9, 3), None),
        ((7, 3), ["a", "b,c", 'say "d"\nnext']),
        ((40, 8), [f"f{j}" for j in range(8)]),
    ],
    ids=["fewer-rows-than-parts", "one-column", "no-header", "quoted-header", "many-rows"],
)
def test_split_write_matches_one_part(tmp_path, write_forks, shape, header):
    values = edge_matrix(*shape)
    expected = one_part_bytes(tmp_path, values, header)
    path = tmp_path / "w.csv"
    write_matrix_csv(path, values, header=header)
    assert path.read_bytes() == expected
    assert EDGE_TOKENS <= set(expected.decode().replace("\n", ",").split(","))
    workers = min(csufs.parts.usable_cpus(), shape[0])
    count = min(shape[0], workers * csufs.parts.PIECES)
    bounds = [i * shape[0] // count for i in range(count)] + [shape[0]]
    rows = [b - a for a, b in zip(bounds, bounds[1:])]  # every row once
    assert write_forks == ([Split(workers, rows)] if workers > 1 else [])
    assert [p.name for p in tmp_path.iterdir()] == ["w.csv"]


@pytest.fixture
def split_write(tmp_path, monkeypatch):
    """(values, header, the bytes of their one-part write) of a matrix that
    three processes write at three CPUs, in ranges of two rows."""
    values, header = edge_matrix(6 * csufs.parts.PIECES, 4), ["a", "b", "c", "d"]
    expected = one_part_bytes(tmp_path, values, header)
    monkeypatch.setattr(csufs.io, "_PART_CELLS", 1)
    return values, header, expected


def break_formatting(monkeypatch, in_child=None, in_parent=None):
    """Make each writer child call in_child, and this process in_parent,
    once its first line is formatted; None formats as usual."""
    parent, csv_lines = os.getpid(), csufs.io._csv_lines

    def lines(values):
        act = in_parent if os.getpid() == parent else in_child
        for i, line in enumerate(csv_lines(values)):
            if i == 1 and act is not None:
                act()
            yield line

    monkeypatch.setattr(csufs.io, "_csv_lines", lines)


@pytest.mark.parametrize("fails_at", [0, 1], ids=["first-fork", "second-fork"])
def test_writer_fork_failure_writes_the_part_here(tmp_path, split_write, monkeypatch, fails_at):
    values, header, expected = split_write
    forks = count_forks(monkeypatch, 3)
    real_fork, calls = os.fork, []

    def fork():
        calls.append(1)
        if len(calls) > fails_at:
            raise BlockingIOError("fork: resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    write_matrix_csv(tmp_path / "w.csv", values, header=header)
    assert (tmp_path / "w.csv").read_bytes() == expected
    assert [split.workers for split in forks.writes] == [3] and forks.children == len(calls) == 2
    assert_no_children()
    assert [p.name for p in tmp_path.iterdir()] == ["w.csv"]


@pytest.mark.parametrize(
    "die",
    [lambda: os._exit(3), lambda: os.kill(os.getpid(), signal.SIGKILL)],
    ids=["exits-non-zero", "killed"],
)
def test_writer_child_that_dies_midway_has_its_part_written_here(tmp_path, split_write, monkeypatch, die):
    values, header, expected = split_write
    forks = count_forks(monkeypatch, 3)
    break_formatting(monkeypatch, in_child=die)
    write_matrix_csv(tmp_path / "w.csv", values, header=header)
    assert (tmp_path / "w.csv").read_bytes() == expected
    assert [split.workers for split in forks.writes] == [3] and forks.children == 2
    assert_no_children()
    assert [p.name for p in tmp_path.iterdir()] == ["w.csv"]


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_error_while_writing_kills_the_children_and_leaves_no_file(tmp_path, split_write, monkeypatch, error):
    values, header, _ = split_write
    forks = count_forks(monkeypatch, 3)
    path = tmp_path / "w.csv"
    path.write_text("old\n")

    def interrupt():
        raise error("formatting interrupted")

    break_formatting(monkeypatch, in_child=lambda: time.sleep(60), in_parent=interrupt)  # children still writing
    started = time.perf_counter()
    with pytest.raises(error):
        write_matrix_csv(path, values, header=header)
    assert time.perf_counter() - started < 30, "the children were waited for, not killed"
    assert [split.workers for split in forks.writes] == [3] and forks.children == 2
    assert_no_children()
    assert [p.name for p in tmp_path.iterdir()] == ["w.csv"]
    assert path.read_text() == "old\n"


@pytest.mark.parametrize("part_cells", [1 << 62, 1], ids=["one-part", "split"])
def test_written_matrix_gets_the_mode_open_gives_a_new_file(tmp_path, monkeypatch, part_cells):
    monkeypatch.setattr(csufs.io, "_PART_CELLS", part_cells)
    forks = count_forks(monkeypatch, 2).writes
    old = os.umask(0o027)
    try:
        write_matrix_csv(tmp_path / "w.csv", edge_matrix(4, 2))
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "w.csv").stat().st_mode) == 0o640
    assert len(forks) == (part_cells == 1)


def test_report_includes_tool_version_and_timestamp():
    text = serialize_report(ReportDocument(payload=make_eval(), invocation={}))
    assert '"tool_version"' in text
    assert '"timestamp"' in text


# Exact report texts: the JSON keys of each payload body are the field names
# of its result type, so any change to a field name or to float, infinity or
# enum formatting shows up here.
GOLDEN_SELECTION = """\
{
  "invocation": {
    "command": "x",
    "d": 2
  },
  "payload": {
    "body": {
      "d_requested": 2,
      "method": "csufs_naive",
      "scores": {
        "cs": [
          0.1,
          "inf",
          0.3333333333333333
        ],
        "d": [
          0.1,
          0.3333333333333333,
          5e-324
        ],
        "k_used": 2,
        "mu": [
          "-inf",
          0.0,
          1e+308
        ],
        "v": [
          1e+308,
          5e-324,
          1.2345678901234567
        ]
      },
      "selected": [
        0,
        2
      ]
    },
    "kind": "selection"
  },
  "timestamp": "2026-01-01T00:00:00+00:00",
  "tool_version": "0.1.0"
}
"""

GOLDEN_EVALUATION = """\
{
  "invocation": {
    "command": "x",
    "d": 2
  },
  "payload": {
    "body": {
      "mean_acc": 0.98,
      "mean_nmi": 0.915,
      "method": "max_variance",
      "n_features_used": 3,
      "per_seed": [
        [
          0,
          0.96,
          0.83
        ],
        [
          1,
          1.0,
          1.0
        ]
      ]
    },
    "kind": "evaluation"
  },
  "timestamp": "2026-01-01T00:00:00+00:00",
  "tool_version": "0.1.0"
}
"""

GOLDEN_SWEEP = """\
{
  "invocation": {
    "command": "x",
    "d": 2
  },
  "payload": {
    "body": {
      "cells": [
        {
          "d": 2,
          "k": 1,
          "report": {
            "mean_acc": 0.98,
            "mean_nmi": 0.915,
            "method": "max_variance",
            "n_features_used": 3,
            "per_seed": [
              [
                0,
                0.96,
                0.83
              ],
              [
                1,
                1.0,
                1.0
              ]
            ]
          }
        },
        {
          "d": 4,
          "k": 1,
          "report": {
            "mean_acc": 0.98,
            "mean_nmi": 0.915,
            "method": "max_variance",
            "n_features_used": 3,
            "per_seed": [
              [
                0,
                0.96,
                0.83
              ],
              [
                1,
                1.0,
                1.0
              ]
            ]
          }
        }
      ],
      "d_values": [
        2,
        4
      ],
      "k_values": [
        1
      ],
      "method": "csufs_naive"
    },
    "kind": "sweep"
  },
  "timestamp": "2026-01-01T00:00:00+00:00",
  "tool_version": "0.1.0"
}
"""

GOLDEN_BENCH = """\
{
  "invocation": {
    "command": "x",
    "d": 2
  },
  "payload": {
    "body": {
      "grid": [
        {
          "agreement": true,
          "k": 3,
          "m": 5,
          "n": 100,
          "naive_seconds": 0.125,
          "optimized_seconds": 0.005,
          "speedup": 25.0
        }
      ],
      "repetitions": 3
    },
    "kind": "bench"
  },
  "timestamp": "2026-01-01T00:00:00+00:00",
  "tool_version": "0.1.0"
}
"""


def make_golden_selection():
    scores = FeatureScores(
        d=np.array([0.1, 1.0 / 3.0, 5e-324]),
        v=np.array([1e308, 2.0**-1074, 1.2345678901234567]),
        cs=np.array([0.1, math.inf, 1.0 / 3.0]),
        mu=np.array([-math.inf, 0.0, 1e308]),
        k_used=2,
    )
    return SelectionResult(selected=np.array([0, 2]), scores=scores, method=Method.CSUFS_NAIVE, d_requested=2)


@pytest.mark.parametrize(
    "payload_maker, expected",
    [
        (make_golden_selection, GOLDEN_SELECTION),
        (make_eval, GOLDEN_EVALUATION),
        (make_sweep, GOLDEN_SWEEP),
        (make_bench, GOLDEN_BENCH),
    ],
)
def test_serialized_report_matches_golden_text(payload_maker, expected):
    doc = ReportDocument(
        payload=payload_maker(),
        invocation={"command": "x", "d": 2},
        tool_version="0.1.0",
        timestamp="2026-01-01T00:00:00+00:00",
    )
    text = serialize_report(doc)
    assert text == expected
    assert parse_report(text) == doc


def test_codec_rejects_unknown_kind_and_payload_type():
    text = serialize_report(ReportDocument(payload=make_eval(), invocation={}))
    with pytest.raises(ValueError, match="unknown report kind"):
        parse_report(text.replace('"kind": "evaluation"', '"kind": "histogram"'))
    with pytest.raises(TypeError, match="unsupported payload type"):
        serialize_report(ReportDocument(payload={"selected": [0]}, invocation={}))
