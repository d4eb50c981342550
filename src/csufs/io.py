"""CSV ingestion, matrix output and report-document round-tripping.

A CSV body is parsed by np.loadtxt, with a cell-by-cell reader as the
reference for whatever loadtxt refuses and for every error message. A file
of at least 2 x _PART_BYTES is parsed in byte ranges cut at line ends, and
a written matrix of at least 2 x _PART_CELLS cells is formatted in row
ranges; the loaded dataset, labels and errors, and the written bytes, are
the same for any number of ranges. How many ranges there are, which run in
forked children and what happens to a lost one is decided in csufs.parts.

Reports are JSON trees written atomically (temp file, then rename). A
payload body is keyed by the field names of its result dataclass, so one
encoder and one decoder, steered by the type annotations, serve every
report kind. Floats are emitted with Python's shortest round-trip repr so
parsing a report reproduces every value bit for bit; infinities travel as
the string tokens "inf" and "-inf" since JSON has no literal for them.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import dataclasses
import functools
import itertools
import json
import math
import os
import secrets
import shutil
import typing
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from io import BufferedReader, RawIOBase, TextIOWrapper
from pathlib import Path

import numpy as np

from ._version import __version__
from .bench import BenchReport
from .data import LabelVector, SelectionResult, validate_dataset
from .errors import EmptyMatrix, LabelColumnMissing, MalformedCsv, ParseError, RaggedRows
from .evaluation import EvalReport, SweepReport
from .parts import cut, in_parts


def load_csv(path, has_header: bool = False, label_column: int | str | None = None):
    """Read a samples-by-features CSV, optionally splitting off a label column.

    Returns (dataset, labels); labels is None unless label_column names a
    column by 0-based index or by header name. Label tokens that all parse
    as numbers are canonicalized numerically (so "1" and "1.0" coincide),
    otherwise as strings. Blank lines are skipped.

    The body is parsed by np.loadtxt, and the label column's tokens, numbers
    or names, are collected as they are read. A file of at least 2 x
    _PART_BYTES whose first line is non-blank, holds no quote and ends in
    "\\n" is cut just after line ends into byte ranges of about equal size,
    at most one per usable CPU and one per _PART_BYTES; this process parses
    the first range while a forked child parses each other one, every range
    with the same loadtxt pass. A range whose child does not deliver is
    parsed in this process, and no other range is parsed again. Any other
    file, and every file where os.fork is missing, is one range. The result
    and every error are the same either way.

    loadtxt reads a strict subset of the cells float() reads, to the same
    bits, so whenever it rejects a range, the ranges differ in width, or the
    file has no data rows or a header of the wrong width, the cell-by-cell
    reader reads the whole file instead: it reads what loadtxt refuses
    (quoted cells, "1_0", non-ASCII digits) and reports every error with its
    row, column or line. loadtxt has no csv field-size limit, so a cell over
    131072 characters loads where loadtxt reads the file; on the
    cell-by-cell path it raises MalformedCsv.
    """
    path = Path(path)
    header, tables, tokens = _parse_vectorized(path, has_header, label_column)
    if tables is None:
        return _load_csv_cells(path, has_header, label_column)
    label_idx, feature_cols = _split_columns(label_column, header, tables[0].shape[1])
    labels = None if label_idx is None else _canonical_labels(tokens)
    table = _join_tables(tables, label_idx)  # empties tables, so no part outlives the join
    names = [header[j] for j in feature_cols] if header is not None else None
    return validate_dataset(table, names), labels


# The least bytes a range holds. One range against two, load_csv medians on
# 2 shared cores (17-digit cells): 4.5 / 7.5 ms at 0.25 MB, 12.1 / 11.8 ms at
# 0.5 MB, 20.4 / 18.7 ms at 1 MB, 42.4 / 33.4 ms at 2 MB. The crossover is
# near 0.5 MB, so the smallest file split, 2 MiB, saves about a fifth.
_PART_BYTES = 1 << 20
_SCAN_BYTES = 1 << 16  # bytes read per step while looking for a line end


def _parse_vectorized(path: Path, has_header: bool, label_column):
    """(header, float tables, label tokens) of a CSV, parsed by np.loadtxt
    in one or more byte ranges (see load_csv): the non-empty ranges' tables
    in file order, all of one width. This process reads the header and
    resolves the label column, then parses the first range while in_parts
    forks a child for each other one with that label index; parts are read
    in range order and stop at the first rejected one. A label column that
    resolves before parsing has its tokens collected (0.0 stands in the
    tables); any other is parsed as numbers and tokens is None, so
    _split_columns reports it as the cell reader would. The tables are None
    when the cell-by-cell reader must decide: loadtxt rejected a cell or a
    row (a quoted label included) in some range, the ranges differ in
    width, there are no data rows, or the header width differs from the
    rows'."""
    with path.open("rb") as file:
        fd = file.fileno()
        bounds = _range_bounds(fd, os.fstat(fd).st_size)
        with _open_range(fd, bounds[0], bounds[1]) as fh:
            header = None
            if has_header:
                header = next(([cell.strip() for cell in row] for _, row in _csv_rows(fh)), None)
            try:
                label_idx = None if label_column is None else _resolve_label_column(label_column, header, math.inf)
            except LabelColumnMissing:
                label_idx = None
            jobs = [functools.partial(_load_rows, fh, label_idx)]
            for start, stop in zip(bounds[1:-1], bounds[2:]):
                jobs.append(functools.partial(_parse_range, fd, start, stop, label_idx))
            parts = []
            with in_parts(jobs) as results:
                for table, tokens in results:
                    if table is None:
                        return header, None, None
                    if table.size:  # a range of blank lines parses empty
                        parts.append((table, tokens))
    widths = {table.shape[1] for table, _ in parts}
    if len(widths) != 1 or (header is not None and len(header) not in widths):
        return header, None, None
    tokens = None if parts[0][1] is None else list(itertools.chain.from_iterable(more for _, more in parts))
    return header, [table for table, _ in parts], tokens


def _join_tables(tables: list, label_idx: int | None) -> np.ndarray:
    """The rows of tables, in order, as one table without column label_idx
    (None: every column kept). Each table is copied once, straight into the
    result, and dropped from the list as soon as it is; a lone table with
    no label column is the result as it is."""
    if len(tables) == 1 and label_idx is None:
        return tables.pop()
    width = tables[0].shape[1] - (label_idx is not None)
    out = np.empty((sum(len(table) for table in tables), width))
    row = 0
    while tables:
        table = tables.pop(0)
        rows = out[row : row + len(table)]
        if label_idx is None:
            rows[...] = table
        else:
            rows[:, :label_idx] = table[:, :label_idx]
            rows[:, label_idx:] = table[:, label_idx + 1 :]
        row += len(table)
    return out


def _range_bounds(fd: int, size: int) -> list[int]:
    """[0, ..., size]: where load_csv's byte ranges of fd start and end. Each
    inner bound falls just after the first "\\n" at or past its share of the
    file (see parts.cut). The first line's conditions keep the header, when
    there is one, wholly in the first range."""
    shares = cut(size, size // _PART_BYTES)
    if len(shares) < 3:
        return [0, size]
    first_end = _find(fd, b"\n", 0, size) + 1
    head = os.pread(fd, min(first_end, _SCAN_BYTES), 0).removeprefix(codecs.BOM_UTF8)
    if not head.strip(b"\r\n") or _find(fd, b'"', 0, first_end) >= 0:  # blank, no "\n" at all, or quoted
        return [0, size]
    bounds = [0]
    for share in shares[1:-1]:
        end = _find(fd, b"\n", max(share, bounds[-1]), size) + 1
        if bounds[-1] < end < size:
            bounds.append(end)
    return bounds + [size]


def _find(fd: int, byte: bytes, start: int, stop: int) -> int:
    """Offset of the first `byte` in bytes [start, stop) of fd, or -1."""
    for pos in range(start, stop, _SCAN_BYTES):
        at = os.pread(fd, min(_SCAN_BYTES, stop - pos), pos).find(byte)
        if at >= 0:
            return pos + at
    return -1


def _open_range(fd: int, start: int, stop: int) -> TextIOWrapper:
    """Bytes [start, stop) of fd as text, decoded as path.open(newline="",
    encoding="utf-8-sig") decodes a file: the range at byte 0 drops a
    leading byte-order mark, and a later range is plain UTF-8."""
    reader = BufferedReader(_RangeReader(fd, start, stop))
    return TextIOWrapper(reader, encoding="utf-8-sig" if start == 0 else "utf-8", newline="")


class _RangeReader(RawIOBase):
    """Bytes [start, stop) of fd, read with os.pread: processes that share
    the descriptor share no file offset. Closing it leaves fd open."""

    def __init__(self, fd: int, start: int, stop: int):
        super().__init__()
        self._fd, self._pos, self._stop = fd, start, stop

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        data = os.pread(self._fd, min(len(buffer), self._stop - self._pos), self._pos)
        buffer[: len(data)] = data
        self._pos += len(data)
        return len(data)


def _load_rows(fh, label_idx: int | None):
    """(table, tokens) of the rows left in fh, in one np.loadtxt pass; the
    label column's tokens are collected when label_idx is set. The table is
    None when loadtxt rejects a row or a cell."""
    tokens = None if label_idx is None else []
    converters = None if label_idx is None else {label_idx: _token_collector(tokens)}
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(fh, delimiter=",", comments=None, dtype=np.float64, ndmin=2, converters=converters)
    except ValueError:  # a UnicodeDecodeError included
        return None, None
    return table, tokens


def _parse_range(fd: int, start: int, stop: int, label_idx: int | None):
    """(table, tokens) of bytes [start, stop) of fd; see _load_rows."""
    with _open_range(fd, start, stop) as fh:
        return _load_rows(fh, label_idx)


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


# The least cells a written part holds. One part against two,
# write_matrix_csv medians of 31 alternating calls on 2 shared cores (rows
# of 100 unit-norm 17-digit values): 2.5 / 4.9 ms at 2000 cells, 6.0 / 6.8 ms
# at 5000, 8.5 / 8.2 ms at 7500, 10.4 / 9.8 ms at 10000, 18.5 / 13.9 ms at
# 15000, 56.9 / 36.7 ms at 50000. The crossover is near 7500 cells, so the
# smallest matrix split, 10000 cells, breaks about even.
_PART_CELLS = 5000


def write_matrix_csv(path, values, header=None) -> None:
    """Plain CSV dump of a matrix, floats at full round-trip precision, each
    row formatted as it is written. Header names are quoted only where CSV
    needs it (a comma, quote or line break inside a name), so the file reads
    back with load_csv.

    A matrix of at least 2 x _PART_CELLS cells is cut into row ranges of
    about equal size, at most one per usable CPU and one per _PART_CELLS;
    any other matrix is one range. This process writes the header into the
    temp file and flushes it, then writes the first range there while
    in_parts forks a child for each other range, which writes it into a
    part file of its own beside path;
    the parts are then appended in order, a chunk at a time, and removed.
    A range whose child does not deliver has its part file written here
    instead. On any error every child is killed and every temp and part
    file removed, leaving path untouched. The bytes written are the same
    for any number of ranges.
    """
    path, values = Path(path), np.asarray(values)
    rows = len(values)
    bounds = cut(rows, min(rows, rows * values.shape[1] // _PART_CELLS))
    stem = f"{path}.{secrets.token_hex(6)}"
    parts = [f"{stem}.{i}.part" for i in range(1, len(bounds) - 1)]
    try:
        with _atomic_file(path) as fh:
            if header is not None:
                csv.writer(fh, lineterminator="\n").writerow(header)
            fh.flush()  # before any child starts, so none holds a copy of it
            jobs = [lambda: fh.writelines(_csv_lines(values[: bounds[1]]))]
            for part, start, stop in zip(parts, bounds[1:], bounds[2:]):
                jobs.append(functools.partial(_write_part, part, values[start:stop]))
            with in_parts(jobs) as written:
                next(written)  # the first range, formatted straight into fh
                for part in written:
                    fh.flush()
                    with open(part, "rb") as src:
                        shutil.copyfileobj(src, fh.buffer)
    finally:
        for part in parts:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(part)


def _write_part(path: str, values: np.ndarray) -> str:
    """path, once the CSV lines of values are written to it, replacing what
    a lost child may have left there."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_csv_lines(values))
    return path


def _csv_lines(values: np.ndarray):
    """Each row of values as one CSV line, floats by repr, formatted as it is consumed."""
    return (",".join(map(repr, row.tolist())) + "\n" for row in values)


def write_sweep_csv(path, report: SweepReport) -> None:
    """One `d,k,mean_acc,mean_nmi` line per sweep cell, floats at full round-trip precision."""
    lines = [f"{c.d},{c.k},{c.report.mean_acc!r},{c.report.mean_nmi!r}\n" for c in report.cells]
    _atomic_write_text(Path(path), ["d,k,mean_acc,mean_nmi\n", *lines])


def _atomic_write_text(path: Path, chunks: typing.Iterable[str]) -> None:
    """Write chunks to a temp file beside path, then rename it into place."""
    with _atomic_file(path) as fh:
        fh.writelines(chunks)


@contextlib.contextmanager
def _atomic_file(path: Path):
    """A text handle on a new temp file beside path, renamed into place once
    the block ends and removed if it raises. The temp file is created with
    mode 0o666 less the umask, as open() creates a new file (mkstemp would
    make it 0o600)."""
    tmp = f"{path}.{secrets.token_hex(6)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
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
