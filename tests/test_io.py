import math

import numpy as np
import pytest

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
