"""File formats: prediction CSV ingestion, report emission, SVG charts.

The interchange format for predictions is a plain CSV with header
``id,label,p0,p1,...,p{K-1}`` and one row per sample; K is inferred from the
header. Reports go out as JSON (always carrying the configuration that
produced them) or, for retention curves, as two-column CSV. A report's JSON
object holds a ``type`` tag, the record's fields in the order of its
``__slots__``, then ``config``. All writes go to a temp file in the target
directory and are renamed into place, so a failed run never leaves a
truncated output; ``_check_output_dir`` lets a command fail, as the write
would, before it starts its work.

Every CSV is streamed to its temp file in chunks of 1,024 rows, each
formatted with one bytes ``%`` template per file, so no writer holds more
than one chunk of the file. An id holding a comma, a quote, a line feed or a
carriage return is written in double quotes with its quotes doubled, so it
reads back unchanged; every other field is written bare. Written files get
the mode ``open`` gives a new file: 0o666 less the umask.
A prediction file is opened once, in binary; one that cannot seek, such
as a pipe, is first copied to an anonymous temp file. Its header is its
first CSV record, which may be quoted, padded or preceded by blank lines.
``data._build`` fills the dataset's arrays, sized from a count of its
lines, a block of rows at a time, from ``np.loadtxt`` calls on the open
handle, and returns them validated. A file that source declines (a field
such as ``0_3``, a label out of range) is read again from its start, and
``data._build`` fills new arrays from its ``csv.reader`` records, or they
name the fault. Each source makes labels 0-based as it parses them. Readers
accept a UTF-8 byte order mark, CRLF line ends and blank lines, and report
errors, a byte that is not UTF-8 among them, with the line number as it
appears in the file.
Probabilities and curve values are written as ``%.17g`` writes them, with
17 significant digits, and scores as their shortest ``repr``; both read back
as the same float64, and JSON reals are ``json.dumps``'s shortest ``repr``.
The writers take the bytes of a chunk's probabilities, ``_CALL_COLUMNS``
columns a call, and of its scores from ``_g17.fields``; its docstring gives
the values its vectorized path takes and those it sends to ``%``.
"""

import csv
import errno
import itertools
import json
import os
import re
import warnings
from contextlib import ExitStack, contextmanager
from io import TextIOWrapper

import numpy as np

from .data import CostMatrix, EvalDataset, _build, _id_array
from .errors import (
    EmptyDataset,
    EvalError,
    GridMismatch,
    InvalidConfig,
    LabelOutOfRange,
    MalformedHeader,
    NonNumericField,
    RowArityMismatch,
    ShapeMismatch,
)
from .hard import MetricReport
from .retention import BootstrapSummary, RetentionCurve

_REPORT_TYPES = {
    MetricReport: "metric_report",
    RetentionCurve: "retention_curve",
    BootstrapSummary: "bootstrap_summary",
}

# rows formatted per chunk: large enough that the per-chunk work vanishes,
# small enough that a chunk's fields, rows and joined bytes stay near
# 0.6 MB at 5 classes
_CHUNK_ROWS = 1024

# probability columns of a chunk formatted in one call: a call costs the
# formatter ~65 us however few its values, and its temporaries ~120 bytes a
# value. Three keep a 5-class chunk's peak where one column a call had it
# (~0.62 MB); four took 0.77 MB
_CALL_COLUMNS = 3

_needs_quotes = re.compile(r'[,"\r\n]').search

# bytes per read when counting a file's lines
_READ_BYTES = 1 << 16

# rows per np.loadtxt call: a call's rows take about 0.13 MB at K = 5, and
# the per-call overhead vanishes in the parse
_LOADTXT_ROWS = 1024


def _check_output_dir(path: str) -> None:
    """Raise the error ``_atomic_file(path)`` raises when the directory
    ``path`` goes in is missing or is not a directory, so that a command
    fails before it reads or makes anything."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        code = errno.ENOTDIR if os.path.exists(directory) else errno.ENOENT
        raise OSError(code, os.strerror(code), path)  # FileNotFoundError for ENOENT


@contextmanager
def _atomic_file(path: str):
    """A binary file whose contents replace ``path`` when the block exits
    normally; on an exception ``path`` is left as it was and the temp file
    in its directory is removed. The temp file is created as ``open``
    creates a new file, with mode 0o666 less the umask, which the output
    keeps."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    # O_EXCL: never open an existing file or follow a planted link
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    try:
        fd = os.open(tmp, flags, 0o666)
    except OSError as exc:  # a missing directory, say: name the output, not its temp file
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@contextmanager
def _naming(path: str):
    """Raise an EvalError from the block with ``path`` before its message,
    unless the message already starts with it."""
    try:
        yield
    except EvalError as exc:
        if str(exc).startswith(f"{path}: "):
            raise
        raise type(exc)(f"{path}: {exc}") from None


def _quote(field: str) -> str:
    """``field`` as a CSV field: in double quotes, with its quotes doubled,
    when it holds a comma, a quote or a line break; bare otherwise."""
    if _needs_quotes(field):
        return '"' + field.replace('"', '""') + '"'
    return field


def _chunks(count: int, rows=None):
    """Selections of at most ``_CHUNK_ROWS`` rows, in order: slices of
    0 .. count-1, or, when given, consecutive pieces of the index array
    ``rows``."""
    for lo in range(0, count, _CHUNK_ROWS):
        yield slice(lo, lo + _CHUNK_ROWS) if rows is None else rows[lo:lo + _CHUNK_ROWS]


def _write_table(path: str, header: list, template: bytes, chunks) -> None:
    """Write ``header`` and one ``template`` row per row of ``chunks``,
    which yields a (columns, ids) pair per chunk of rows: the chunk's
    columns as iterables of the values ``template`` takes, and its ids as a
    list of str, written first, CSV-quoted and UTF-8 encoded, or None. The
    columns come first, so a chunk's ids are made after its fields.

    Rows are formatted a chunk at a time, and each chunk's bytes go straight
    to the temp file, so at most one chunk is held. A chunk's ids are
    scanned for quoting as one string, and quoted one by one only when that
    finds a character that needs it.
    """
    with _atomic_file(path) as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for columns, names in chunks:
            if names is not None:
                if _needs_quotes("".join(names)):
                    names = map(_quote, names)
                columns = [list(map(str.encode, names)), *columns]
            rows = list(map(template.__mod__, zip(*columns)))
            del names, columns  # before the join, and before the next chunk
            fh.write(b"".join(rows))
            del rows


def _records(fh, path: str):
    """Non-empty CSV records in the text file ``fh``, each with the file
    line it starts on. A byte that is not UTF-8, or a record the tokenizer
    rejects, raises an EvalError naming ``path`` and the file line."""
    reader = csv.reader(fh)
    start = 1
    try:
        for row in reader:
            if row:
                yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:
        raise EvalError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        raise EvalError(f"{path}: {_undecodable(fh.buffer)}") from None


def _undecodable(raw) -> str:
    """Where the binary file ``raw`` first holds a byte that is not UTF-8,
    with lines counted as ``_line_count`` counts them. The text reader
    decodes 8 KB at a time, so the line it fails on may lie before it."""
    raw.seek(0)
    lineno = 1
    for line in raw:  # split at line feeds only
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno += line.count(b"\r", 0, exc.start)  # carriage returns end lines too
            return f"line {lineno}: byte 0x{line[exc.start]:02x} is not UTF-8"
        lineno += 1 + line.count(b"\r") - line.count(b"\r\n")


def _expected_header(k: int) -> list[str]:
    return ["id", "label"] + [f"p{i}" for i in range(k)]


def read_predictions(path: str, label_base: int = 0) -> EvalDataset:
    """Parse and validate a prediction CSV.

    ``label_base`` is 0 or 1 depending on how the file indexes classes;
    labels are shifted to 0-based internally. Errors carry 1-based line
    numbers and quote fields as the file spells them. The checks made once
    the rows are read (sums, signs, finiteness, duplicate ids) name the file
    but not the line.
    """
    if label_base not in (0, 1):
        raise InvalidConfig(f"label_base must be 0 or 1, got {label_base}")
    with _open_text(path) as fh:
        ds = _read(fh, path, label_base, _loadtxt_blocks)
        return ds if ds is not None else _read(fh, path, label_base, _row_blocks)


@contextmanager
def _open_text(path: str):
    """The file at ``path`` as seekable text, its BOM dropped and its line
    ends kept as they are. A file that cannot seek, such as a pipe, is first
    copied to an anonymous temp file, so it can be read again."""
    with ExitStack() as stack:
        raw = stack.enter_context(open(path, "rb"))
        if not raw.seekable():
            # only a pipe needs these, and importing them costs every process
            # several milliseconds of start-up
            import shutil
            import tempfile

            spool = stack.enter_context(tempfile.TemporaryFile())
            shutil.copyfileobj(raw, spool)
            spool.seek(0)
            raw = spool
        yield stack.enter_context(TextIOWrapper(raw, "utf-8-sig", newline=""))


def _line_count(raw) -> int:
    """Lines in the binary file ``raw``, read from its start: its line
    feeds, its carriage returns not followed by one, and a last line with
    no line end. A CRLF split between two reads counts twice, so the count
    is an upper bound."""
    raw.seek(0)
    count, last = 0, b"\n"
    while chunk := raw.read(_READ_BYTES):
        count += np.count_nonzero(np.frombuffer(chunk, np.uint8) == ord("\n"))
        if b"\r" in chunk:
            count += chunk.count(b"\r") - chunk.count(b"\r\n")
        last = chunk[-1:]
    return count + (last not in b"\r\n")


def _read(fh, path: str, label_base: int, blocks) -> EvalDataset | None:
    """The validated dataset in the seekable text file ``fh``, or None
    when the source ``blocks`` declines the file.

    The header is the first CSV record; its fields may be quoted or padded.
    ``data._build`` fills arrays sized from the file's line count with the
    (ids, 0-based labels, probs) blocks that ``blocks(fh, records, k,
    label_base, path)`` yields for the rows after it, and validates them.
    """
    bound = _line_count(fh.buffer)
    fh.seek(0)
    records = _records(fh, path)
    lineno, header = next(records, (1, None))
    if header is None:
        raise MalformedHeader(f"{path}: empty file")
    names = [field.strip() for field in header]
    k = len(names) - 2
    if k < 2 or names != _expected_header(k):
        raise MalformedHeader(
            f"{path}: line {lineno}: expected header 'id,label,p0,...', got {','.join(names)!r}"
        )
    with _naming(path):  # the checks _build makes once the rows are read
        return _build(k, bound, blocks(fh, records, k, label_base, path))


def _loadtxt_blocks(fh, records, k: int, label_base: int, path: str):
    """The rows after the header, from ``np.loadtxt`` calls of at most
    ``_LOADTXT_ROWS`` rows each on ``fh``, or a None that declines the file.

    It reads a subset of what ``_row_blocks`` reads, to the same values, and
    declines a field ``np.loadtxt`` rejects (``3_0`` and ``1_0``, which
    ``int``/``float`` accept), an id longer than ``csv``'s field limit, a
    label out of range and an empty body, so every error comes from
    ``_row_blocks``. A call takes from the handle's line iterator only the
    lines its rows span, quoted line breaks included; a later call that
    finds no row marks the end of the file.
    """
    dtype = np.dtype([("id", object), ("label", np.int64), ("p", np.float64, (k,))])
    for call in itertools.count():
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                # numpy releases that still read an int field such as "2.7" as a
                # truncated float do so under a DeprecationWarning: refuse them
                warnings.simplefilter("error", DeprecationWarning)
                rows = np.loadtxt(
                    fh, dtype=dtype, delimiter=",", quotechar='"', comments=None,
                    ndmin=1, max_rows=_LOADTXT_ROWS,
                )
        except (ValueError, DeprecationWarning):
            break
        if call and len(rows) == 0:
            return
        labels = rows["label"] - label_base
        if len(rows) == 0 or labels.min() < 0 or labels.max() >= k:
            break
        ids = rows["id"].tolist()
        if max(map(len, ids)) > csv.field_size_limit():
            break
        yield ids, labels, rows["p"]
    yield None


def _row_blocks(fh, records, k: int, label_base: int, path: str):
    """The rows after the header, ``_LOADTXT_ROWS`` ``records`` at a time,
    their fields converted by ``int`` and ``float``: slower than
    ``_loadtxt_blocks``, but it reads every file the format allows and,
    naming ``path``, the file line of the first fault in any other, or
    that there is no row."""
    for call in itertools.count():
        ids, labels, probs = [], [], []
        for lineno, row in itertools.islice(records, _LOADTXT_ROWS):
            if len(row) != k + 2:
                raise RowArityMismatch(
                    f"{path}: line {lineno}: expected {k + 2} fields, got {len(row)}"
                )
            try:
                label = int(row[1])
            except ValueError:
                raise NonNumericField(
                    f"{path}: line {lineno}: label {row[1]!r} is not an integer"
                ) from None
            if not label_base <= label < k + label_base:
                raise LabelOutOfRange(
                    f"{path}: line {lineno}: label {row[1]!r} outside "
                    f"{label_base}..{k - 1 + label_base}"
                )
            try:
                probs.append([float(v) for v in row[2:]])
            except ValueError:
                raise NonNumericField(
                    f"{path}: line {lineno}: non-numeric probability"
                ) from None
            ids.append(row[0])
            labels.append(label - label_base)
        if not ids:
            if call == 0:
                raise EmptyDataset(f"{path}: no rows after the header")
            return
        yield ids, labels, probs


def write_predictions(ds: EvalDataset, path: str) -> None:
    """Emit a dataset in the prediction CSV schema (0-based labels)."""
    # imported here: only the writers format with it, so no other command
    # compiles the module
    from ._g17 import fields

    def columns(probs):
        # one call formats _CALL_COLUMNS columns row by row, and zip takes
        # its fields in turn, one a column
        for lo in range(0, probs.shape[1], _CALL_COLUMNS):
            part = probs[:, lo:lo + _CALL_COLUMNS]
            yield from [iter(fields(part.ravel()))] * part.shape[1]

    k = ds.num_classes
    template = b"%s,%d" + b",%s" * k + b"\n"
    chunks = (
        ([ds.labels[s].tolist(), *columns(ds.probs[s])], ds.ids[s]) for s in _chunks(len(ds))
    )
    _write_table(path, _expected_header(k), template, chunks)


def write_scores(ids, cells: np.ndarray, k: int, order: np.ndarray, scores: np.ndarray,
                 path: str) -> None:
    """Emit per-sample scores as an id,label,argmax,score CSV, one row per
    sample in ``order``; scores use Python's shortest round-trip repr.
    ``cells`` holds each sample's confusion cell, label * ``k`` + argmax, as
    ``hard._cells`` gives them, so the probabilities need not be kept. Each
    chunk of rows is gathered through its piece of ``order``."""
    from ._g17 import fields

    ids = _id_array(ids)
    # one id at a time: gathering a chunk of the id array and its tolist() take longer
    chunks = (
        ([*(c.tolist() for c in divmod(cells[s], k)), fields(scores[s], shortest=True)],
         [ids[i] for i in s.tolist()])
        for s in _chunks(len(order), order)
    )
    _write_table(path, ["id", "label", "argmax", "score"], b"%s,%d,%d,%s\n", chunks)


def read_cost_matrix(path: str) -> CostMatrix:
    """Parse a K x K cost CSV (no header) with full CostMatrix validation;
    every error names the file."""
    parsed = []
    width = None
    with _open_text(path) as fh:
        for lineno, row in _records(fh, path):
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise RowArityMismatch(
                    f"{path}: line {lineno}: expected {width} fields, got {len(row)}"
                )
            try:
                parsed.append([float(v) for v in row])
            except ValueError:
                raise NonNumericField(
                    f"{path}: line {lineno}: non-numeric cost"
                ) from None
    if not parsed:
        raise ShapeMismatch(f"{path}: empty file")
    with _naming(path):
        return CostMatrix.from_array(parsed)


def report_json(report, config: dict | None = None) -> str:
    """A report as indented JSON: a ``type`` tag, the report's fields and,
    when given, ``config`` (the effective run parameters)."""
    tag = _REPORT_TYPES.get(type(report))
    if tag is None:
        raise InvalidConfig(f"cannot serialize report of type {type(report).__name__}")
    payload = {"type": tag}
    payload.update((field, getattr(report, field)) for field in report.__slots__)
    if config is not None:
        payload["config"] = config
    return json.dumps(payload, indent=2)


def write_report(report, path: str, fmt: str = "json", config: dict | None = None) -> None:
    """Write a report as JSON, or a retention curve as fraction,value CSV.

    JSON output should include ``config`` (the effective run parameters) so
    the file is enough to reproduce the computation.
    """
    if fmt == "json":
        with _atomic_file(path) as fh:
            fh.write((report_json(report, config) + "\n").encode("utf-8"))
    elif fmt == "csv":
        if not isinstance(report, RetentionCurve):
            raise InvalidConfig("csv format applies only to retention curves")
        columns = [report.fractions, report.values]
        _write_table(path, ["fraction", "value"], b"%.17g,%.17g\n", [(columns, None)])
    else:
        raise InvalidConfig(f"unknown report format {fmt!r}")


_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")

_SVG_W, _SVG_H = 720, 460
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 150, 40, 60


def _svg_line(x1, y1, x2, y2, stroke: str, width) -> str:
    return (
        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
        f'stroke="{stroke}" stroke-width="{width}"/>'
    )


def _svg_text(x, y, body: str, anchor: str | None, size: int = 12, extra: str = "") -> str:
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (
        f'<text x="{x}" y="{y}"{anchor} font-size="{size}" '
        f'font-family="sans-serif"{extra}>{body}</text>'
    )


def render_curve_svg(curves: list[RetentionCurve], path: str) -> None:
    """Standalone SVG line chart of retention curves on a shared grid.

    x runs from full retention (1.0, left) toward heavier removal (right);
    one polyline and one legend entry per rule.
    """
    if not curves:
        raise GridMismatch("no curves to render")
    fractions = curves[0].fractions
    metric = curves[0].metric
    for c in curves[1:]:
        if c.fractions != fractions:
            raise GridMismatch("curves are on different fraction grids")
        if c.metric != metric:
            raise GridMismatch("curves mix different metrics")

    f_hi, f_lo = fractions[0], fractions[-1]
    y_all = [v for c in curves for v in c.values]
    y_lo, y_hi = min(y_all), max(y_all)
    if y_hi == y_lo:
        y_lo -= 0.05
        y_hi += 0.05
    else:
        pad = 0.05 * (y_hi - y_lo)
        y_lo -= pad
        y_hi += pad

    plot_w = _SVG_W - _MARGIN_L - _MARGIN_R
    plot_h = _SVG_H - _MARGIN_T - _MARGIN_B

    def x_px(f: float) -> float:
        return _MARGIN_L + (f_hi - f) / (f_hi - f_lo) * plot_w

    def y_px(v: float) -> float:
        return _MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_W}" height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
    ]

    x0, x1 = _MARGIN_L, _MARGIN_L + plot_w
    y0, y1 = _MARGIN_T, _MARGIN_T + plot_h
    # gridlines and y ticks
    for i in range(6):
        v = y_lo + (y_hi - y_lo) * i / 5
        y = y_px(v)
        parts.append(_svg_line(x0, f"{y:.2f}", x1, f"{y:.2f}", "#dddddd", 1))
        parts.append(_svg_text(x0 - 8, f"{y + 4:.2f}", f"{v:.3g}", "end"))
    # axes
    parts.append(_svg_line(x0, y1, x1, y1, "#000", 1.5))
    parts.append(_svg_line(x0, y0, x0, y1, "#000", 1.5))
    # x ticks: at most ~10 labels
    step = max(1, len(fractions) // 10)
    for f in fractions[::step]:
        x = f"{x_px(f):.2f}"
        parts.append(_svg_line(x, y1, x, y1 + 5, "#000", 1))
        parts.append(_svg_text(x, y1 + 20, f"{f:.2f}", "middle"))
    x_mid, y_mid = f"{(x0 + x1) / 2:.2f}", f"{(y0 + y1) / 2:.2f}"
    parts.append(_svg_text(x_mid, _SVG_H - 15, "fraction retained", "middle", 13))
    rotate = f' transform="rotate(-90 18 {y_mid})"'
    parts.append(_svg_text(18, y_mid, metric, "middle", 13, rotate))

    for i, c in enumerate(curves):
        color = _COLORS[i % len(_COLORS)]
        points = " ".join(
            f"{x_px(f):.2f},{y_px(v):.2f}" for f, v in zip(c.fractions, c.values)
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{points}"/>'
        )
        ly = y0 + 14 + i * 20
        lx = x1 + 14
        parts.append(_svg_line(lx, ly, lx + 22, ly, color, 2))
        parts.append(_svg_text(lx + 28, ly + 4, c.rule, None))

    parts.append("</svg>")
    with _atomic_file(path) as fh:
        fh.write(("\n".join(parts) + "\n").encode("utf-8"))
