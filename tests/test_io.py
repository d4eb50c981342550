import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import csufs.io
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


# Cells the cell-by-cell reader parses like any number but np.loadtxt
# refuses, and cells both refuse; each pushes load_csv onto the fallback.
FLOAT_ONLY_CELLS = st.sampled_from(['"1"', "1_0", "\uff11", '" 2.5"'])
BAD_CELLS = st.sampled_from(["x", "", "0x10", "1 2", "#1"])
NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from([" 1.5 ", "+.5", "5.", "-0.0", "1E3", "\t2", "5e-324", "1e+308", "-Infinity", "nan"]),
)
LABEL_CELLS = st.sampled_from(["1", "1.0", "2", "-0.0", "0", "2e0"])
STRING_LABEL_CELLS = st.sampled_from(["a", "b", "1", "1.0", '"a"', " b "])
HEADER_NAMES = st.sampled_from(["a", '"a,b"', " c ", "class", "f0"])


@st.composite
def csv_files(draw):
    """(text, has_header, label_column): numeric CSV text, with each kind of
    dirt switched on in about one file of four: cells that only float()
    reads or that nothing reads, ragged rows and headers, whitespace-only
    lines, "#"-prefixed lines and string labels."""
    some = st.sampled_from([False, False, False, True])
    odd_cells, ragged, gap_lines, comments, string_labels = (draw(some) for _ in range(5))
    width = draw(st.integers(1, 4))
    label_at = draw(st.none() | st.integers(0, width - 1))
    labels = STRING_LABEL_CELLS if string_labels else LABEL_CELLS
    cells = st.one_of(NUMBER_CELLS, NUMBER_CELLS, FLOAT_ONLY_CELLS, BAD_CELLS) if odd_cells else NUMBER_CELLS
    lines = []
    has_header = draw(st.booleans())
    if has_header:
        lines.append(",".join(draw(st.lists(HEADER_NAMES, min_size=width, max_size=width + 1 if ragged else width))))
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"]) if gap_lines else st.just("")))
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
@given(csv_files())
def test_load_csv_matches_cell_reader(tmp_path, case):
    text, has_header, label_column = case
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = load_outcome(_load_csv_cells, path, has_header, label_column)
    assert load_outcome(load_csv, path, has_header, label_column) == expected


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


def test_write_matrix_csv_quotes_header_names_only_where_needed(tmp_path):
    path = tmp_path / "w.csv"
    header = ["a", "b,c", 'say "d"']
    write_matrix_csv(path, np.array([[1.0, 2.0, 3.0]]), header=header)
    assert path.read_text().splitlines()[0] == 'a,"b,c","say ""d"""'
    ds, _ = load_csv(path, has_header=True)
    assert ds.feature_names == tuple(header)


def test_write_matrix_csv_hands_over_one_chunk_per_line(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(csufs.io, "_atomic_write_text", lambda path, chunks: seen.append(list(chunks)))
    write_matrix_csv(tmp_path / "w.csv", np.array([[0.1, -0.0], [1e300, 2.0]]), header=["a", "b"])
    assert seen == [["a,b\n", "0.1,-0.0\n", "1e+300,2.0\n"]]


def test_failed_streaming_write_leaves_no_file(tmp_path):
    def lines():
        yield "1.0\n"
        raise RuntimeError("formatting failed")

    with pytest.raises(RuntimeError):
        csufs.io._atomic_write_text(tmp_path / "w.csv", lines())
    assert list(tmp_path.iterdir()) == []


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
