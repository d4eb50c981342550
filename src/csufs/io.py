"""CSV ingestion, matrix output and report-document round-tripping.

A CSV body is parsed by np.loadtxt, with a cell-by-cell reader as the
reference for whatever loadtxt refuses and for every error message. A file
of at least 2 x _PART_BYTES is parsed in byte ranges cut at line ends, and
a written matrix of at least 2 x _PART_CELLS cells is formatted in row
ranges; the loaded dataset, labels and errors, and the written bytes, are
the same for any number of ranges. How many processes run the ranges,
which process runs which range and what happens to a lost one is decided
in csufs.parts.

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
import errno
import functools
import itertools
import json
import math
import mmap
import os
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
from .data import LabelVector, SelectionResult, is_integer, validate_dataset
from .errors import EmptyMatrix, LabelColumnMissing, MalformedCsv, ParseError, RaggedRows
from .evaluation import EvalReport, SweepReport
from .parts import in_parts, pieces


def load_csv(path, has_header: bool = False, label_column: int | str | None = None):
    """Read a samples-by-features CSV, optionally splitting off a label column.

    Returns (dataset, labels); labels is None unless label_column names a
    column by 0-based index or by header name. Label tokens that all parse
    as numbers are canonicalized numerically (so "1" and "1.0" coincide),
    otherwise as strings. Blank lines are skipped.

    The body is parsed by np.loadtxt. This process reads the header and the
    first data row first; the bytes after the header, of a file of at
    least 2 x _PART_BYTES, are parsed by at most one process per usable CPU
    and one per _PART_BYTES, this one and forked children, and are cut just
    after line ends into byte ranges of about equal size, parts.PIECES per
    process (see parts.in_parts). Every range is parsed by one routine, in
    one loadtxt pass. A range whose child does not deliver is parsed here,
    and no other range is parsed again. Any other file, and every file
    where os.fork is missing, is one range. The result and every error are
    the same either way. The first data row's label cell decides how every
    range reads the label column: as tokens when float() rejects that cell
    (a name), as numbers otherwise. Each range returns its rows
    column-major without the label column; the blocks are concatenated
    here into one column-major table, and validate_dataset copies it into
    the Dataset.

    loadtxt reads a strict subset of the cells float() reads, to the same
    bits, so whenever it rejects a range (a label column read as numbers
    that holds a name or "1_0" included), the ranges differ in width, or
    the file has no data rows or a header of the wrong width, the
    cell-by-cell reader reads the whole file instead: it reads what loadtxt
    refuses (quoted cells, "1_0", non-ASCII digits) and reports every error
    with its row, column or line. loadtxt has no csv field-size limit, so a
    cell over 131072 characters loads where loadtxt reads the file; on the
    cell-by-cell path it raises MalformedCsv.
    """
    path = Path(path)
    header, table, labels = _parse_vectorized(path, has_header, label_column)
    if table is None:
        return _load_csv_cells(path, has_header, label_column)
    label_idx, feature_cols = _split_columns(label_column, header, table.shape[1] + (labels is not None))
    if label_idx is not None:  # float() of a number loadtxt read is the value it gave
        labels = LabelVector.from_raw(labels) if isinstance(labels, np.ndarray) else _canonical_labels(labels)
    names = [header[j] for j in feature_cols] if header is not None else None
    return validate_dataset(table, names), labels


# The least bytes per process that parses a file; a range, one of
# parts.PIECES per process, may hold less. One process against two,
# load_csv medians on 2 shared cores (17-digit cells): 4.5 / 7.5 ms at
# 0.25 MB, 12.1 / 11.8 ms at 0.5 MB, 20.4 / 18.7 ms at 1 MB, 42.4 / 33.4 ms
# at 2 MB. The crossover is near 0.5 MB, so the smallest file split, 2 MiB,
# saves about a fifth.
_PART_BYTES = 1 << 20


def _parse_vectorized(path: Path, has_header: bool, label_column):
    """(header, table, labels) of a CSV, parsed by np.loadtxt in one or more
    byte ranges (see load_csv): the non-empty ranges' column-major blocks
    in file order, all of one width, as one column-major table. This
    process reads the header (the first non-blank csv row) and resolves the
    label column, whose cell in the first data row decides whether every
    range collects the label column's tokens (see _is_name) or reads it as
    numbers; the ranges start where the header's last line ends (byte 0
    without a header), and in_parts runs one _parse_range job per range,
    whose results are read in range order up to the first rejected one. A
    label column that resolves before parsing is left out of the table,
    and labels holds its values: one list of str tokens when it holds
    names, one float64 array otherwise. Any other label column is parsed
    as numbers and labels is None, so _split_columns reports it as the cell
    reader would. The table is None when the cell-by-cell reader must
    decide: loadtxt rejected a range (a quoted label included), the ranges
    differ in width, there are no data rows, or the header width differs
    from the rows'."""
    with path.open("rb") as file:
        fd = file.fileno()
        size = os.fstat(fd).st_size
        header, first, named = None, 0, False
        with _open_range(fd, 0, size) as fh:
            read = []  # the lines the csv reader consumes: the header's and the blank ones before it
            rows = _csv_rows(read.append(line) or line for line in fh)
            if has_header:
                header = next(([cell.strip() for cell in row] for _, row in rows), None)
                first = len("".join(read).encode()) + 3 * (os.pread(fd, 3, 0) == codecs.BOM_UTF8)
            try:
                label_idx = None if label_column is None else _resolve_label_column(label_column, header, math.inf)
            except LabelColumnMissing:
                label_idx = None
            if label_idx is not None:
                with contextlib.suppress(MalformedCsv):  # then the ranges and the cell reader decide
                    named = _is_name(next(rows, (0, []))[1], label_idx)
        workers, bounds = _range_bounds(fd, first, size)
        jobs = [functools.partial(_parse_range, fd, a, b, label_idx, named) for a, b in zip(bounds, bounds[1:])]
        blocks, labels = [], []
        with in_parts(jobs, workers) as results:
            for block, more in results:
                if block is None:
                    return header, None, None
                if len(block):  # a range of blank lines has no rows; a row may have no cell left
                    blocks.append(block)
                    labels.append(more)
    widths = {block.shape[1] + (label_idx is not None) for block in blocks}
    if len(widths) != 1 or (header is not None and len(header) not in widths):
        return header, None, None
    if label_idx is None:
        labels = None
    elif named:
        labels = list(itertools.chain.from_iterable(labels))
    else:
        labels = np.concatenate(labels)
    return header, blocks[0] if len(blocks) == 1 else np.concatenate(blocks), labels


def _range_bounds(fd: int, first: int, size: int) -> tuple[int, list[int]]:
    """(workers, [first, ..., size]): how many processes parse load_csv's
    byte ranges of fd, and where the ranges start and end, first being the
    byte just past the header. Each inner bound falls just after the first
    "\\n" at or past both its piece of the file (see parts.pieces) and the
    bound before it."""
    workers, shares = pieces(size, size // _PART_BYTES)
    if len(shares) < 3:
        return 1, [first, size]
    bounds = [first]
    with mmap.mmap(fd, size, access=mmap.ACCESS_READ) as data:
        for share in shares[1:-1]:
            end = data.find(b"\n", max(share, bounds[-1])) + 1
            if bounds[-1] < end < size:
                bounds.append(end)
    return workers, bounds + [size]


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


def _parse_range(fd: int, start: int, stop: int, label_idx: int | None, named: bool):
    """(block, labels) of bytes [start, stop) of fd, which hold data rows and
    blank lines only, read by one np.loadtxt pass: its rows as a
    column-major float64 table without column label_idx (None: every column
    kept), and that column's values. When named (see _is_name), the pass
    collects the label column's tokens (see _token_collector) and labels is
    a list of str; otherwise every cell is read as a number and labels is a
    float64 array. The block is None when loadtxt rejects a row or a cell,
    or a row has no column label_idx. A range of blank lines gives a block
    of no rows, and labels is then not read."""
    labels = [] if named else None
    table = _loadtxt(fd, start, stop, None if labels is None else {label_idx: _token_collector(labels)})
    if table is None:
        return None, None
    if label_idx is None or not len(table):
        return np.asfortranarray(table), labels
    if label_idx >= table.shape[1]:
        return None, None  # rows without the label column, which a converter for it rejects
    if labels is None:
        labels = table[:, label_idx].copy()
    block = np.empty((len(table), table.shape[1] - 1), order="F")
    block[:, :label_idx] = table[:, :label_idx]
    block[:, label_idx:] = table[:, label_idx + 1 :]
    return block, labels


def _is_name(row: list[str], label_idx: int) -> bool:
    """Whether row, a file's first data row as csv reads it, holds a cell at
    label_idx that float() rejects. loadtxt reads a strict subset of what
    float() reads, so it would reject that row's label as a number too."""
    try:
        float(row[label_idx])
    except IndexError:
        return False
    except ValueError:
        return True
    return False


def _loadtxt(fd: int, start: int, stop: int, converters) -> np.ndarray | None:
    """Bytes [start, stop) of fd as one (rows, columns) np.loadtxt table, or
    None when loadtxt rejects a row or a cell."""
    try:
        with _open_range(fd, start, stop) as fh, warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            return np.loadtxt(fh, delimiter=",", comments=None, dtype=np.float64, ndmin=2, converters=converters)
    except ValueError:  # a UnicodeDecodeError included
        return None


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
    if is_integer(label_column):
        if not 0 <= label_column < width:
            raise LabelColumnMissing(f"label column index {label_column} out of range for {width} columns")
        return int(label_column)
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


# The least cells per process that writes a matrix; a range, one of
# parts.PIECES per process, may hold less. One process against two,
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

    A matrix of at least 2 x _PART_CELLS cells is written by at most one
    process per usable CPU and one per _PART_CELLS, this one and forked
    children, and is cut into row ranges of about equal size, parts.PIECES
    per process; any other matrix is one range. This process writes the
    header into the temp file and flushes it, then writes the first range
    there; every other range is written, by whichever process in_parts
    runs it in, into a part file of its own beside path, and the parts are then
    appended in order, a chunk at a time, and removed. A range whose child
    does not deliver has its part file written here instead. On any error
    every child is killed and every temp and part file removed, leaving
    path untouched. The bytes written are the same for any number of
    ranges. A matrix that is not 2-D, or a header whose length is not the
    column count, raises ValueError before any file is made.
    """
    path, values = Path(path), np.asarray(values)
    if values.ndim != 2:
        raise ValueError(f"values must be a 2-D matrix, got ndim={values.ndim}")
    if header is not None and len(header) != values.shape[1]:
        raise ValueError(f"got {len(header)} header names for {values.shape[1]} columns")
    workers, bounds = pieces(len(values), values.size // _PART_CELLS)
    stem = f"{path}.{os.urandom(6).hex()}"
    parts = [f"{stem}.{i}.part" for i in range(1, len(bounds) - 1)]
    try:
        with _atomic_file(path) as fh:
            if header is not None:
                csv.writer(fh, lineterminator="\n").writerow(header)
            fh.flush()  # before any child starts, so none holds a copy of it
            jobs = [functools.partial(_write_rows, fh, values[: bounds[1]])]
            for part, start, stop in zip(parts, bounds[1:], bounds[2:]):
                jobs.append(functools.partial(_write_part, part, values[start:stop]))
            with in_parts(jobs, workers) as written:
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
        _write_rows(fh, values)
    return path


def _write_rows(fh, values: np.ndarray) -> None:
    """The CSV lines of values, written into fh."""
    fh.writelines(_csv_lines(values))


def _csv_lines(values: np.ndarray):
    """Each row of values as one CSV line, floats by repr, formatted as it is consumed."""
    return (",".join(map(repr, row.tolist())) + "\n" for row in values)


def write_sweep_csv(path, report: SweepReport) -> None:
    """One `d,k,mean_acc,mean_nmi` line per sweep cell, floats at full round-trip precision."""
    with _atomic_file(path) as fh:
        fh.write("d,k,mean_acc,mean_nmi\n")
        fh.writelines(f"{c.d},{c.k},{c.report.mean_acc!r},{c.report.mean_nmi!r}\n" for c in report.cells)


def require_writable(path) -> None:
    """Raise what a write of path raises on its first step (_create_temp),
    so a command can fail before any work; the temp file made is removed."""
    fd, tmp = _create_temp(path)
    os.close(fd)
    os.unlink(tmp)


def _create_temp(path) -> tuple[int, str]:
    """(descriptor, name) of a new temp file beside path, with mode 0o666
    less the umask as open() would make it (mkstemp: 0o600). A directory at
    path, which os.replace could not replace (a link to one it can), raises
    EISDIR first. An OSError names path, not the temp file."""
    if os.path.isdir(path) and not os.path.islink(path):
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None


@contextlib.contextmanager
def _atomic_file(path):
    """A text handle on a new temp file beside path (see _create_temp),
    renamed into place once the block ends and removed if it raises. A
    failed rename names path, not the temp file."""
    fd, tmp = _create_temp(path)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from None
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
    with _atomic_file(path) as fh:
        fh.write(serialize_report(doc))


def read_report(path) -> ReportDocument:
    return parse_report(Path(path).read_text(encoding="utf-8"))
