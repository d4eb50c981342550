"""CSV ingestion and report-document round-tripping.

Reports are JSON trees written atomically (temp file, then rename). A
payload body is keyed by the field names of its result dataclass, so one
encoder and one decoder, steered by the type annotations, serve every
report kind. Floats are emitted with Python's shortest round-trip repr so
parsing a report reproduces every value bit for bit; infinities travel as
the string tokens "inf" and "-inf" since JSON has no literal for them.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import math
import os
import secrets
import typing
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from io import StringIO
from pathlib import Path

import numpy as np

from ._version import __version__
from .bench import BenchReport
from .data import LabelVector, SelectionResult, validate_dataset
from .errors import EmptyMatrix, LabelColumnMissing, MalformedCsv, ParseError, RaggedRows
from .evaluation import EvalReport, SweepReport


def load_csv(path, has_header: bool = False, label_column: int | str | None = None):
    """Read a samples-by-features CSV, optionally splitting off a label column.

    Returns (dataset, labels); labels is None unless label_column names a
    column by 0-based index or by header name. Label tokens that all parse
    as numbers are canonicalized numerically (so "1" and "1.0" coincide),
    otherwise as strings. Blank lines are skipped.

    The body is parsed in one np.loadtxt pass; the label column's tokens,
    numbers or names, are collected as they are read. loadtxt reads a
    strict subset of the cells float() reads, to the same bits, so whenever
    it rejects the file, or the file has no data rows or a header of the
    wrong width, the cell-by-cell reader runs instead: it reads what
    loadtxt refuses (quoted cells, "1_0", non-ASCII digits) and reports
    every error with its row, column or line. loadtxt has no csv field-size
    limit, so a cell over 131072 characters loads where loadtxt reads the
    file; on the cell-by-cell path it raises MalformedCsv.
    """
    path = Path(path)
    header, table, tokens = _parse_vectorized(path, has_header, label_column)  # no tuple keeps the table alive
    if table is None:
        return _load_csv_cells(path, has_header, label_column)
    label_idx, feature_cols = _split_columns(label_column, header, table.shape[1])
    labels = None
    if label_idx is not None:
        labels = _canonical_labels(tokens)
        table = np.delete(table, label_idx, axis=1)
    names = [header[j] for j in feature_cols] if header is not None else None
    return validate_dataset(table, names), labels


def _parse_vectorized(path: Path, has_header: bool, label_column):
    """(header, float table, label tokens) of a CSV in one np.loadtxt pass.
    A label column that resolves before parsing has its tokens collected
    (0.0 stands in the table); any other is parsed as numbers and tokens is
    None, so _split_columns reports it as the cell reader would. The table
    is None when the cell-by-cell reader must decide: loadtxt rejected a
    cell or a row (a quoted label included), there are no data rows, or the
    header width differs from the rows'."""
    with path.open(newline="", encoding="utf-8-sig") as fh:  # a leading byte-order mark is dropped
        header = None
        if has_header:
            header = next(([cell.strip() for cell in row] for _, row in _csv_rows(fh)), None)
        try:
            label_idx = None if label_column is None else _resolve_label_column(label_column, header, math.inf)
        except LabelColumnMissing:
            label_idx = None
        tokens = None if label_idx is None else []
        converters = None if label_idx is None else {label_idx: _token_collector(tokens)}
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                table = np.loadtxt(fh, delimiter=",", comments=None, dtype=np.float64, ndmin=2, converters=converters)
        except ValueError:
            return header, None, None
    if table.size == 0 or (header is not None and len(header) != table.shape[1]):
        return header, None, None
    return header, table, tokens


def _token_collector(tokens: list[str]):
    """An np.loadtxt converter that appends each stripped cell to tokens, one
    str per distinct value, and stores 0.0. A cell holding a quote raises,
    so the cell reader, which unquotes as csv does, reads the file."""
    seen: dict[str, str] = {}

    def collect(cell: str) -> float:
        if '"' in cell:
            raise ValueError("quoted cell")
        cell = cell.strip()
        tokens.append(seen.setdefault(cell, cell))
        return 0.0

    return collect


def _load_csv_cells(path, has_header: bool = False, label_column: int | str | None = None):
    """load_csv's reference reader: csv.reader rows and float() per cell."""
    path = Path(path)
    header: list[str] | None = None
    rows: list[list[str]] = []
    line_nums: list[int] = []
    with path.open(newline="", encoding="utf-8-sig") as fh:  # a leading byte-order mark is dropped
        for line_num, row in _csv_rows(fh):
            if has_header and header is None:
                header = [cell.strip() for cell in row]
                continue
            rows.append(row)
            line_nums.append(line_num)
    if not rows:
        raise EmptyMatrix(f"no data rows in {path}")
    width = len(rows[0])
    for row, line_num in zip(rows, line_nums):
        if len(row) != width:
            raise RaggedRows(f"line {line_num} has {len(row)} fields, expected {width}")
    if header is not None and len(header) != width:
        raise RaggedRows(f"header has {len(header)} fields, data rows have {width}")

    label_idx, feature_cols = _split_columns(label_column, header, width)
    matrix = np.empty((len(rows), len(feature_cols)))
    for i, row in enumerate(rows):
        for jj, j in enumerate(feature_cols):
            token = row[j].strip()
            try:
                matrix[i, jj] = float(token)
            except ValueError:
                raise ParseError(i, j, token) from None

    names = [header[j] for j in feature_cols] if header is not None else None
    labels = None
    if label_idx is not None:
        labels = _canonical_labels([row[label_idx].strip() for row in rows])
    return validate_dataset(matrix, names), labels


def _csv_rows(fh):
    """(line number, fields) of each non-blank csv row of fh; a line the csv
    module rejects raises MalformedCsv naming it."""
    reader = csv.reader(fh)
    try:
        for row in reader:
            if row:
                yield reader.line_num, row
    except csv.Error as exc:
        raise MalformedCsv(f"line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:  # decoded in chunks, so no line is known
        raise MalformedCsv(f"not UTF-8 text: cannot decode byte 0x{exc.object[exc.start]:02x}") from None


def _split_columns(label_column, header, width: int) -> tuple[int | None, list[int]]:
    """The label column's index (None without one) and the feature columns."""
    label_idx = None
    if label_column is not None:
        label_idx = _resolve_label_column(label_column, header, width)
    feature_cols = [j for j in range(width) if j != label_idx]
    if not feature_cols:
        raise EmptyMatrix("no feature columns left after removing the label column")
    return label_idx, feature_cols


def _resolve_label_column(label_column, header, width: int) -> int:
    if isinstance(label_column, bool):
        raise LabelColumnMissing(f"label column must be an index or name, got {label_column!r}")
    if isinstance(label_column, int):
        if not 0 <= label_column < width:
            raise LabelColumnMissing(f"label column index {label_column} out of range for {width} columns")
        return label_column
    name = str(label_column)
    if header is None:
        raise LabelColumnMissing(f"label column {name!r} needs a header row to resolve")
    if name not in header:
        raise LabelColumnMissing(f"no column named {name!r} in header")
    return header.index(name)


def _canonical_labels(tokens: list[str]) -> LabelVector:
    try:
        values = np.array([float(t) for t in tokens])
    except ValueError:
        values = np.array(tokens)
    return LabelVector.from_raw(values)


def write_matrix_csv(path, values, header=None) -> None:
    """Plain CSV dump of a matrix, floats at full round-trip precision, each
    row formatted as it is written. Header names are quoted only where CSV
    needs it (a comma, quote or line break inside a name), so the file reads
    back with load_csv."""
    head = StringIO()
    if header is not None:
        csv.writer(head, lineterminator="\n").writerow(header)
    rows = (",".join(map(repr, row.tolist())) + "\n" for row in np.asarray(values))
    _atomic_write_text(Path(path), itertools.chain([head.getvalue()], rows))


def write_sweep_csv(path, report: SweepReport) -> None:
    """One `d,k,mean_acc,mean_nmi` line per sweep cell, floats at full round-trip precision."""
    lines = [f"{c.d},{c.k},{c.report.mean_acc!r},{c.report.mean_nmi!r}\n" for c in report.cells]
    _atomic_write_text(Path(path), ["d,k,mean_acc,mean_nmi\n", *lines])


def _atomic_write_text(path: Path, chunks: typing.Iterable[str]) -> None:
    """Write chunks to a temp file beside path, then rename it into place. The
    temp file is created with mode 0o666 less the umask, as open() creates a
    new file (mkstemp would make it 0o600)."""
    tmp = f"{path}.{secrets.token_hex(6)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


_KINDS = {"selection": SelectionResult, "evaluation": EvalReport, "sweep": SweepReport, "bench": BenchReport}


@dataclass
class ReportDocument:
    """Envelope persisting one result payload with provenance fields."""

    payload: object
    invocation: dict
    tool_version: str = __version__
    timestamp: str = field(default_factory=_utc_now)

    @property
    def kind(self) -> str:
        for kind, cls in _KINDS.items():
            if isinstance(self.payload, cls):
                return kind
        raise TypeError(f"unsupported payload type {type(self.payload).__name__}")


def _encode(value):
    """JSON tree of a result: dataclasses become dicts keyed by field name."""
    if dataclasses.is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    if isinstance(value, float):
        if math.isnan(value):
            raise ValueError("reports never carry NaN")
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
    return value


def _decode(hint, tree):
    """Rebuild a value of the annotated type `hint` from its JSON tree."""
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        return hint(**{f.name: _decode(hints[f.name], tree[f.name]) for f in dataclasses.fields(hint)})
    args = typing.get_args(hint)
    if type(None) in args:
        return None if tree is None else _decode(args[0], tree)
    origin = typing.get_origin(hint)
    if origin is list:
        return [_decode(args[0], item) for item in tree]
    if origin is tuple:
        return tuple(_decode(arg, item) for arg, item in zip(args, tree))
    if hint is np.ndarray:
        return np.array([float(item) if isinstance(item, str) else item for item in tree])
    # float() also reads the "inf"/"-inf" tokens; Enum types rebuild from .value
    return hint(tree)


def serialize_report(doc: ReportDocument) -> str:
    """Deterministic JSON text for a report document."""
    tree = {
        "tool_version": doc.tool_version,
        "timestamp": doc.timestamp,
        "invocation": doc.invocation,
        "payload": {"kind": doc.kind, "body": _encode(doc.payload)},
    }
    return json.dumps(tree, indent=2, sort_keys=True, allow_nan=False) + "\n"


def parse_report(text: str) -> ReportDocument:
    tree = json.loads(text)
    kind = tree["payload"]["kind"]
    if kind not in _KINDS:
        raise ValueError(f"unknown report kind {kind!r}")
    return ReportDocument(
        payload=_decode(_KINDS[kind], tree["payload"]["body"]),
        invocation=tree["invocation"],
        tool_version=tree["tool_version"],
        timestamp=tree["timestamp"],
    )


def write_report(doc: ReportDocument, path) -> None:
    """Serialize and atomically persist a report document."""
    _atomic_write_text(Path(path), [serialize_report(doc)])


def read_report(path) -> ReportDocument:
    return parse_report(Path(path).read_text(encoding="utf-8"))
