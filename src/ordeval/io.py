"""File formats: prediction CSV ingestion, report emission, SVG charts.

The interchange format for predictions is a plain CSV with header
``id,label,p0,p1,...,p{K-1}`` and one row per sample; K is inferred from the
header. Reports go out as JSON (always carrying the configuration that
produced them) or, for retention curves, as two-column CSV. All writes go to
a temp file in the target directory and are renamed into place, so a failed
run never leaves a truncated output.

Every CSV is written in chunks of rows, each formatted with one ``%``
template per file. An id holding a comma, a quote, a line feed or a
carriage return is written in double quotes with its quotes doubled, so it
reads back unchanged; every other field is written bare.
A prediction file is parsed with one ``np.loadtxt`` pass. Any file that pass
does not accept is parsed again row by row with ``csv.reader``, which either
reads it or names the error. Readers accept a UTF-8 byte order mark, CRLF
line ends and blank lines, and report errors with the line number as it
appears in the file.
Reals are written with 17 significant digits, which round-trips float64
exactly.
"""

import csv
import json
import os
import re
import tempfile
import warnings
from dataclasses import asdict

import numpy as np

from .data import CostMatrix, EvalDataset, validate_dataset
from .errors import (
    GridMismatch,
    InvalidConfig,
    LabelOutOfRange,
    MalformedHeader,
    NonNumericField,
    RowArityMismatch,
)
from .hard import MetricReport, hard_predictions
from .retention import BootstrapSummary, RetentionCurve

_REPORT_TYPES = {
    MetricReport: "metric_report",
    RetentionCurve: "retention_curve",
    BootstrapSummary: "bootstrap_summary",
}

# rows formatted per chunk: large enough that the per-chunk work vanishes,
# small enough that a chunk's text stays within a few megabytes
_CHUNK_ROWS = 16384

_needs_quotes = re.compile(r'[,"\r\n]').search


def _atomic_write(path: str, data: bytes) -> None:
    """Write the bytes ``data`` to ``path`` through a renamed temp file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _quote(field: str) -> str:
    """``field`` as a CSV field: in double quotes, with its quotes doubled,
    when it holds a comma, a quote or a line break; bare otherwise."""
    if _needs_quotes(field):
        return '"' + field.replace('"', '""') + '"'
    return field


def _write_table(path: str, header: list, template: str, columns: list,
                 ids=None) -> None:
    """Write ``header`` and one ``template`` row per entry of the equal-length
    arrays ``columns``, led by the CSV-quoted ``ids`` when given.

    Rows are formatted and encoded a chunk at a time into one growing byte
    buffer, so the file is held once, as bytes, and never also as text.
    """
    if ids is not None:
        columns = [np.fromiter(map(_quote, ids), dtype=object, count=len(ids)), *columns]
    data = bytearray((",".join(header) + "\n").encode("utf-8"))
    for lo in range(0, len(columns[0]), _CHUNK_ROWS):
        rows = zip(*(c[lo:lo + _CHUNK_ROWS].tolist() for c in columns))
        data += "".join(map(template.__mod__, rows)).encode("utf-8")
    _atomic_write(path, data)


def _records(fh):
    """Non-empty CSV records, each with the file line it starts on."""
    reader = csv.reader(fh)
    start = 1
    for row in reader:
        if row:
            yield start, row
        start = reader.line_num + 1


def _expected_header(k: int) -> list[str]:
    return ["id", "label"] + [f"p{i}" for i in range(k)]


def _header_classes(fields: list[str]) -> int | None:
    """K for a prediction header ``id,label,p0,...,p{K-1}`` (fields may be
    padded with blanks), or None when ``fields`` is not one."""
    k = len(fields) - 2
    if k < 2 or [field.strip() for field in fields] != _expected_header(k):
        return None
    return k


def read_predictions(path: str, label_base: int = 0) -> EvalDataset:
    """Parse and validate a prediction CSV.

    ``label_base`` is 0 or 1 depending on how the file indexes classes;
    labels are shifted to 0-based internally. Errors carry 1-based line
    numbers and quote fields as the file spells them.
    """
    if label_base not in (0, 1):
        raise InvalidConfig(f"label_base must be 0 or 1, got {label_base}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        raw = _parse_bulk(fh, label_base)
    if raw is None:
        return _read_rows(path, label_base)
    return validate_dataset(raw)


def _parse_bulk(fh, label_base: int) -> EvalDataset | None:
    """The unvalidated dataset in ``fh`` from one ``np.loadtxt`` pass, or
    None when ``_read_rows`` must decide.

    The pass accepts a subset of what ``_read_rows`` accepts and reads it to
    the same values. It gives up on a header that is not bare
    ``id,label,p0,...``, on any field ``np.loadtxt`` rejects (``3_0`` and
    ``1_0`` among them, which ``int``/``float`` accept), on an empty body and
    on a label out of range, so every error message comes from the row
    parser.
    """
    k = _header_classes(fh.readline().rstrip("\r\n").split(","))
    if k is None:
        return None
    dtype = np.dtype([("id", object), ("label", np.int64), ("p", np.float64, (k,))])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            # numpy releases that still read an int field such as "2.7" as a
            # truncated float do so under a DeprecationWarning: refuse them
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(
                fh, dtype=dtype, delimiter=",", quotechar='"', comments=None, ndmin=1
            )
    except (ValueError, DeprecationWarning):
        return None
    labels = rows["label"] - label_base
    if len(rows) == 0 or labels.min() < 0 or labels.max() >= k:
        return None
    return EvalDataset(k, tuple(rows["id"]), labels, rows["p"])


def _read_rows(path: str, label_base: int) -> EvalDataset:
    """``read_predictions`` one ``csv.reader`` record at a time: slower than
    ``_parse_bulk``, but it reads every file the format allows and names the
    file line of the first fault in any other."""
    ids = []
    labels = []
    probs = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        records = _records(fh)
        first = next(records, None)
        if first is None:
            raise MalformedHeader(f"{path}: empty file")
        lineno, header = first
        k = _header_classes(header)
        if k is None:
            raise MalformedHeader(
                f"{path}: line {lineno}: expected header 'id,label,p0,...', "
                f"got {','.join(field.strip() for field in header)!r}"
            )
        for lineno, row in records:
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
            ids.append(row[0])
            labels.append(label)
            try:
                probs.extend(map(float, row[2:]))
            except ValueError:
                raise NonNumericField(
                    f"{path}: line {lineno}: non-numeric probability"
                ) from None

    labels = np.array(labels, dtype=np.int64) - label_base
    probs = np.array(probs, dtype=np.float64).reshape(len(ids), k)
    return validate_dataset(EvalDataset(k, tuple(ids), labels, probs))


def write_predictions(ds: EvalDataset, path: str) -> None:
    """Emit a dataset in the prediction CSV schema (0-based labels)."""
    k = ds.num_classes
    template = "%s,%d" + ",%.17g" * k + "\n"
    _write_table(path, _expected_header(k), template, [ds.labels, *ds.probs.T], ds.ids)


def write_scores(ds: EvalDataset, order: np.ndarray, scores: np.ndarray, path: str) -> None:
    """Emit per-sample scores as an id,label,argmax,score CSV, one row per
    sample in ``order``; scores use Python's shortest round-trip repr."""
    columns = [ds.labels[order], hard_predictions(ds)[order], scores[order]]
    ids = [ds.ids[i] for i in order.tolist()]
    _write_table(path, ["id", "label", "argmax", "score"], "%s,%d,%d,%r\n", columns, ids)


def read_cost_matrix(path: str) -> CostMatrix:
    """Parse a K x K cost CSV (no header) with full CostMatrix validation."""
    parsed = []
    width = None
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for lineno, row in _records(fh):
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
    return CostMatrix.from_array(parsed)


def report_json(report, config: dict | None = None) -> str:
    """A report as indented JSON: a ``type`` tag, the report's fields and,
    when given, ``config`` (the effective run parameters)."""
    tag = _REPORT_TYPES.get(type(report))
    if tag is None:
        raise InvalidConfig(f"cannot serialize report of type {type(report).__name__}")
    payload = {"type": tag, **asdict(report)}
    if config is not None:
        payload["config"] = config
    return json.dumps(payload, indent=2)


def write_report(report, path: str, fmt: str = "json", config: dict | None = None) -> None:
    """Write a report as JSON, or a retention curve as fraction,value CSV.

    JSON output should include ``config`` (the effective run parameters) so
    the file is enough to reproduce the computation.
    """
    if fmt == "json":
        _atomic_write(path, (report_json(report, config) + "\n").encode("utf-8"))
    elif fmt == "csv":
        if not isinstance(report, RetentionCurve):
            raise InvalidConfig("csv format applies only to retention curves")
        columns = [np.array(report.fractions), np.array(report.values)]
        _write_table(path, ["fraction", "value"], "%.17g,%.17g\n", columns)
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
    _atomic_write(path, ("\n".join(parts) + "\n").encode("utf-8"))
