import csv
import json
import os
import random
import re
import stat
import threading
import tracemalloc
import warnings
from io import StringIO

import numpy as np
import pytest

import ordeval.cli
import ordeval.data
import ordeval.hard
import ordeval.io

from ordeval import (
    BootstrapSummary,
    EvalDataset,
    MetricReport,
    RetentionCurve,
    SynthConfig,
    bootstrap_aursc,
    generate,
    metric_report,
    read_cost_matrix,
    read_predictions,
    render_curve_svg,
    sample_retention_curve,
    write_predictions,
    write_report,
)
from ordeval.errors import (
    EvalError,
    GridMismatch,
    InvalidConfig,
    LabelOutOfRange,
    MalformedHeader,
    NonNumericField,
    RowArityMismatch,
    ShapeMismatch,
)
from ordeval._g17 import _LOW, _fast
from ordeval.cli import main
from ordeval.io import _loadtxt_blocks, _read, _row_blocks, report_json, write_scores
from ordeval.retention import rank_samples

from helpers import traced_peak

# ids that need quoting, or that a careless reader would trim
ADVERSARIAL_IDS = ("a,b", 'say "hi"', " padded", "two\nlines", "a\rb")

K2 = "id,label,p0,p1\n"
K4 = "id,label,p0,p1,p2,p3\n"
ROW4 = ",0.25,0.25,0.25,0.25\n"
# name: (file text, label_base, whether the np.loadtxt pass reads the file)
PARSER_CORPUS = {
    "bom": ("\ufeff" + K2 + "a,0,1.0,0.0\n", 0, True),
    "crlf": ("id,label,p0,p1\r\na,0,1.0,0.0\r\nb,1,0.0,1.0\r\n", 0, True),
    "blank-lines": (K2 + "\na,0,1.0,0.0\n\r\nb,1,0.0,1.0\n\n\n", 0, True),
    "blank-before-header": ("\n" + K2 + "a,0,1.0,0.0\n", 0, True),
    "quoted-comma": (K2 + '"a,b",0,1.0,0.0\n', 0, True),
    "doubled-quote": (K2 + '"say ""hi""",0,1.0,0.0\n', 0, True),
    "quoted-crlf": (K2 + '"two\r\nlines",0,1.0,0.0\nb,1,0.0,1.0\n', 0, True),
    "leading-space": (K2 + " padded,0,1.0,0.0\n", 0, True),
    "hash": (K2 + "#x,0,1.0,0.0\n#y,1,0.0,1.0\n", 0, True),
    "long-non-ascii": (K2 + "ünïcødé-ïd-" * 4 + ",0,1.0,0.0\n", 0, True),
    "quoted-cr": (K2 + '"a\rb",0,1.0,0.0\n', 0, True),
    "bare-cr": (K2 + "a\rb,0,1.0,0.0\n", 0, False),
    "label-underscore": (K4 + "a,3_0" + ROW4, 0, False),
    "label-underscore-in-range": (K4 + "a,0_3" + ROW4, 0, False),
    "label-space": (K4 + "a, 3" + ROW4, 0, True),
    "label-plus": (K4 + "a,+3" + ROW4, 0, True),
    "label-real": (K4 + "a,3.0" + ROW4, 0, False),
    "prob-underscore": (K2 + "a,0,1_0,0.0\n", 0, False),
    "prob-underscore-valid": (K2 + "a,0,0.2_5,0.75\n", 0, False),
    "prob-spaces": (K2 + "a,0, 0.5 ,0.5\n", 0, True),
    "prob-nan": (K2 + "a,0,nan,0.0\n", 0, True),
    "prob-inf": (K2 + "a,0,inf,0.0\n", 0, True),
    "header-only": (K2, 0, False),
    "header-spaces": ("id, label ,p0,p1\na,0,1.0,0.0\n", 0, True),
    "quoted-header": ('"id",label,p0,p1\na,0,1.0,0.0\n', 0, True),
    "one-row": (K2 + "a,1,0.0,1.0", 0, True),
    "wrong-arity": (K2 + "a,0,1.0,0.0\nb,1,0.0\n", 0, False),
    "label-zero-base-one": (K2 + "a,1,1.0,0.0\nb,0,0.0,1.0\n", 1, False),
    "label-base-one": (K2 + "a,1,1.0,0.0\nb,2,0.0,1.0\n", 1, True),
}

# files the np.loadtxt pass must read, however many rows each call takes
BLOCK_EDGE_CORPUS = {
    "quoted-lf": K2 + 'a,0,1.0,0.0\n"two\nlines",1,0.0,1.0\n"x\n\ny",0,0.5,0.5\nb,1,0.0,1.0\n',
    "quoted-crlf": K2 + '"two\r\nlines",0,1.0,0.0\r\nb,1,0.0,1.0\r\n"\r\n",0,0.5,0.5\r\n',
    "doubled-quotes": K2 + '"say ""hi""",0,1.0,0.0\n"""",1,0.0,1.0\n"a,""b""\nc",0,0.5,0.5\nd,1,0.0,1.0\n',
    "crlf": "id,label,p0,p1\r\n" + "".join(f"r{i},{i % 2},0.5,0.5\r\n" for i in range(6)),
    "bom-blank-lines": "\ufeff" + K2 + "\na,0,1.0,0.0\n\r\n\nb,1,0.0,1.0\n\n",
    # a quote inside a bare field is part of the field, not quoting
    "stray-quote": K2 + 'x"y,0,1.0,0.0\n"two\nlines",1,0.0,1.0\nb,0,1.0,0.0\n',
    "stray-quote-first": K2 + 'x"y,0,1.0,0.0\n' + "".join(f"r{i},1,0.0,1.0\n" for i in range(500)),
}


def _row_parse(path, label_base):
    """The dataset ``_row_blocks`` reads from the file at ``path``."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        return _read(fh, path, label_base, _row_blocks)


def _outcome(read, path, label_base):
    """What a reader makes of a file: the dataset's values, or the error."""
    try:
        ds = read(path, label_base)
    except EvalError as exc:
        return type(exc), str(exc)
    return ds.ids, ds.labels.tolist(), ds.probs.tobytes()


def _random_file(rng):
    """A small prediction file built from fields that quote, pad, break lines
    or spell numbers in ways the two parsers might treat differently. Its
    header may be quoted or padded, follow blank lines, or end the file."""
    k = rng.choice([2, 3])
    eol = rng.choice(["\n", "\r\n", "\r"])
    chars = ["a", "b", ",", '"', " ", "\n", "\r", "#", "é", "\t"]
    spellings = ["0", "1", " 1", "+1", "1.0", " 0.5 ", "1_0", "nan", "", '"1"', ".5"]
    names = ["id", "label", *(f"p{i}" for i in range(k))]
    header = ",".join(rng.choice([name, f'"{name}"', f" {name} ", f'" {name}"']) for name in names)
    lines = [""] * rng.choice([0, 0, 0, 1, 2]) + [header]
    for _ in range(rng.randint(0, 5)):  # 0: a header-only body
        sid = "".join(rng.choice(chars) for _ in range(rng.randint(0, 4)))
        if rng.random() < 0.5:
            sid = '"' + sid.replace('"', '""') + '"'
        label = rng.choice(spellings) if rng.random() < 0.2 else str(rng.randrange(k))
        probs = [rng.choice(spellings) for _ in range(k)] if rng.random() < 0.2 else [
            repr(1.0 / k)] * k
        lines.append(",".join([sid, label, *probs]) if rng.random() < 0.9 else "")
    return eol.join(lines) + eol * rng.randint(0, 2)


class TestReadPredictions:
    def test_minimal_file(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("id,label,p0,p1,p2\na,0,0.25,0.75,0.0\n")
        ds = read_predictions(str(f))
        assert ds.num_classes == 3 and len(ds) == 1
        assert ds.ids == ("a",) and ds.labels[0] == 0
        assert np.array_equal(ds.probs[0], [0.25, 0.75, 0.0])

    def test_label_base_one(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("id,label,p0,p1\na,1,1.0,0.0\nb,2,0.0,1.0\n")
        ds = read_predictions(str(f), label_base=1)
        assert ds.labels.tolist() == [0, 1]

    def test_bad_label_base(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("id,label,p0,p1\na,0,1.0,0.0\n")
        with pytest.raises(InvalidConfig):
            read_predictions(str(f), label_base=2)

    def test_row_arity_mismatch_reports_line(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("id,label,p0,p1,p2\na,0,0.5,0.5,0.0\nb,1,0.5,0.5\n")
        with pytest.raises(RowArityMismatch, match="line 3"):
            read_predictions(str(f))

    def test_malformed_header(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("sample,label,p0,p1\na,0,1.0,0.0\n")
        with pytest.raises(MalformedHeader):
            read_predictions(str(f))
        f.write_text("")
        with pytest.raises(MalformedHeader):
            read_predictions(str(f))
        f.write_text("id,label,p0\na,0,1.0\n")  # K=1
        with pytest.raises(MalformedHeader):
            read_predictions(str(f))

    def test_non_numeric_fields_report_line(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("id,label,p0,p1\na,0,1.0,0.0\nb,x,1.0,0.0\n")
        with pytest.raises(NonNumericField, match="line 3"):
            read_predictions(str(f))
        f.write_text("id,label,p0,p1\na,0,one,0.0\n")
        with pytest.raises(NonNumericField, match="line 2"):
            read_predictions(str(f))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_predictions(str(tmp_path / "nope.csv"))

    @pytest.mark.parametrize(
        "bom, eol, blank",
        [("\ufeff", "\n", ""), ("", "\r\n", ""), ("", "\n", "\n"), ("\ufeff", "\r\n", "\r\n")],
        ids=["bom", "crlf", "trailing-blank", "all"],
    )
    def test_common_writer_variants(self, tmp_path, bom, eol, blank):
        def write(name, lines):
            path = tmp_path / name
            path.write_bytes((bom + eol.join(lines) + eol + blank).encode("utf-8"))
            return str(path)

        ds = read_predictions(write("p.csv", ["id,label,p0,p1", "a,0,1.0,0.0", "b,1,0.0,1.0"]))
        assert ds.ids == ("a", "b") and ds.labels.tolist() == [0, 1]
        cost = read_cost_matrix(write("c.csv", ["0,1", "1,0"]))
        assert cost.costs.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    @pytest.mark.parametrize(
        "text, line",
        [
            ("\ufeffid,label,p0,p1\n\na,0,1.0,0.0\n\nb,1,0.5\n", 5),
            ('id,label,p0,p1\r\n"two\r\nlines",0,1.0,0.0\r\nb,0,1.0\r\n', 4),
        ],
        ids=["blank-lines", "quoted-line-break"],
    )
    def test_errors_name_the_file_line(self, tmp_path, text, line):
        f = tmp_path / "p.csv"
        f.write_bytes(text.encode("utf-8"))
        with pytest.raises(RowArityMismatch, match=f"line {line}:"):
            read_predictions(str(f))

    @pytest.mark.parametrize("name", list(PARSER_CORPUS))
    def test_bulk_pass_matches_row_parser(self, tmp_path, monkeypatch, name):
        text, label_base, bulk = PARSER_CORPUS[name]
        path = tmp_path / "p.csv"
        path.write_bytes(text.encode("utf-8"))
        want = _outcome(_row_parse, str(path), label_base)
        declined = []  # the bulk pass read the file unless the row source ran

        def row_blocks(*args):
            declined.append(True)
            return _row_blocks(*args)

        monkeypatch.setattr(ordeval.io, "_row_blocks", row_blocks)
        assert _outcome(read_predictions, str(path), label_base) == want
        assert (not declined) == bulk

    def test_bulk_pass_matches_row_parser_on_random_files(self, tmp_path):
        rng = random.Random(7)
        path = tmp_path / "p.csv"
        for _ in range(300):
            path.write_bytes(_random_file(rng).encode("utf-8"))
            label_base = rng.randrange(2)
            assert _outcome(read_predictions, str(path), label_base) == _outcome(
                _row_parse, str(path), label_base
            ), path.read_bytes()

    @pytest.mark.parametrize("name", list(BLOCK_EDGE_CORPUS))
    def test_blocks_cut_anywhere_read_like_the_row_parser(self, tmp_path, monkeypatch, name):
        # blocks of a few rows put a block edge after every row for one size
        # or another: after rows that span quoted line breaks, hold doubled
        # quotes or end in CRLF, and before blank lines. A call that read
        # lines past its last row would lose them from the next block
        path = tmp_path / "p.csv"
        path.write_bytes(BLOCK_EDGE_CORPUS[name].encode("utf-8"))
        want = _outcome(_row_parse, str(path), 0)
        assert not isinstance(want[0], type)  # the corpus holds readable files
        for rows in (1, 2, 3, 5):
            monkeypatch.setattr(ordeval.io, "_LOADTXT_ROWS", rows)
            with open(path, newline="", encoding="utf-8-sig") as fh:
                assert _read(fh, str(path), 0, _loadtxt_blocks) is not None, rows
            assert _outcome(read_predictions, str(path), 0) == want, rows

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_reads_a_pipe(self, tmp_path, monkeypatch):
        # a pipe is copied to a temp file, which the bulk pass reads, over
        # several np.loadtxt calls, to the values the file itself gives
        path = tmp_path / "p.csv"
        n = 3 * ordeval.io._LOADTXT_ROWS + 1
        write_predictions(generate(SynthConfig(n=n, k=3, seed=4)), str(path))
        want = _outcome(read_predictions, str(path), 0)
        monkeypatch.setattr(ordeval.io, "_row_blocks", None)  # the bulk pass must read it
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()))
        writer.start()
        try:
            got = _outcome(read_predictions, str(fifo), 0)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert len(got[0]) == n and got == want

    @pytest.mark.parametrize(
        "style", ["r-write-csv", "quote-all", "quote-nonnumeric-crlf", "blank-before-header"]
    )
    def test_bulk_pass_reads_quoted_headers(self, tmp_path, monkeypatch, style):
        # R's write.csv(row.names = FALSE) and csv's QUOTE_ALL and
        # QUOTE_NONNUMERIC quote the header, which the bulk pass reads, over
        # several calls, to the values of the same file written bare
        path = tmp_path / "p.csv"
        n = 3 * ordeval.io._LOADTXT_ROWS + 1
        ds = generate(SynthConfig(n=n, k=3, seed=4))
        write_predictions(ds, str(path))
        want = _outcome(read_predictions, str(path), 0)
        bare = path.read_text()
        header = ["id", "label", "p0", "p1", "p2"]
        if style == "r-write-csv":
            text = ",".join(f'"{name}"' for name in header) + "\n" + "".join(
                '"' + line.replace(",", '",', 1) + "\n" for line in bare.splitlines()[1:]
            )
        elif style == "blank-before-header":
            text = "\n\r\n" + bare
        else:
            buf = StringIO()
            quoting = csv.QUOTE_ALL if style == "quote-all" else csv.QUOTE_NONNUMERIC
            writer = csv.writer(buf, quoting=quoting)  # CRLF line ends
            writer.writerow(header)
            writer.writerows(
                (sid, label, *p)
                for sid, label, p in zip(ds.ids, ds.labels.tolist(), ds.probs.tolist())
            )
            text = buf.getvalue()
        path.write_bytes(text.encode("utf-8"))
        monkeypatch.setattr(ordeval.io, "_row_blocks", None)  # the bulk pass must read it
        got = _outcome(read_predictions, str(path), 0)
        assert len(got[0]) == n and got == want

    def test_file_datasets_are_validated_in_place(self, tmp_path, monkeypatch):
        # whichever source reads a file, validation checks and freezes the
        # arrays data._build filled for it instead of copying them
        built = []

        def spy(*args):
            built.append(ordeval.data._build(*args))
            return built[-1]

        monkeypatch.setattr(ordeval.io, "_build", spy)
        f = tmp_path / "p.csv"
        for label, calls in (("3", 1), ("0_3", 2)):  # read by the bulk pass, declined by it
            built.clear()
            f.write_text(K4 + "a,1" + ROW4 + f"b,{label}" + ROW4)
            ds = read_predictions(str(f))
            assert ds.labels.tolist() == [1, 3] and len(built) == calls
            assert np.shares_memory(ds.probs, built[-1].probs)
            assert np.shares_memory(ds.labels, built[-1].labels)

    def test_bulk_pass_reads_a_padded_header(self, tmp_path, monkeypatch):
        # the header's fields are stripped as the row parser strips them, so
        # "id, label, p0, ..." is read by the bulk pass, over several calls
        path = tmp_path / "p.csv"
        n = 3 * ordeval.io._LOADTXT_ROWS + 1
        write_predictions(generate(SynthConfig(n=n, k=3, seed=4)), str(path))
        want = _outcome(read_predictions, str(path), 0)
        body = path.read_bytes().split(b"\n", 1)[1]
        path.write_bytes(b" id , label, p0,p1 ,  p2\n" + body)
        monkeypatch.setattr(ordeval.io, "_row_blocks", None)  # the bulk pass must read it
        got = _outcome(read_predictions, str(path), 0)
        assert len(got[0]) == n and got == want

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_errors_name_the_pipe_and_line(self, tmp_path):
        # the row parser reads the pipe's copy: it must not wait on the
        # drained pipe for a writer that has gone. The read runs in a
        # daemon thread, so a read that blocks fails the test, not the suite
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        text = (K2 + "a,0,1.0,0.0\nb,1,0.5\n").encode("utf-8")
        writer = threading.Thread(target=fifo.write_bytes, args=(text,), daemon=True)
        got = []
        reader = threading.Thread(
            target=lambda: got.append(_outcome(read_predictions, str(fifo), 0)), daemon=True
        )
        writer.start()
        reader.start()
        reader.join(timeout=10)
        assert not reader.is_alive(), "the read blocked on the drained pipe"
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert got == [(RowArityMismatch, f"{fifo}: line 3: expected 4 fields, got 3")]

    @pytest.mark.filterwarnings("default")
    @pytest.mark.parametrize("label", ["2.7", "3.0", ".5", "1e0"])
    def test_real_label_is_rejected_without_the_error_filter(self, tmp_path, label):
        # the bulk pass must not read a real label as a truncated int under
        # the warning filters a plain ``python`` process runs with
        f = tmp_path / "p.csv"
        f.write_text(K4 + "a,0" + ROW4 + f"b,{label}" + ROW4)
        with pytest.raises(NonNumericField, match=f"line 3: label '{label}' is not an integer"):
            read_predictions(str(f))

    @pytest.mark.filterwarnings("default")
    def test_bulk_pass_refuses_a_float_read_as_int(self, tmp_path, monkeypatch):
        # numpy releases before that deprecation expired read a label "2.7"
        # as 2 and only warn; such a parse must go to the row parser
        loadtxt = np.loadtxt

        def lenient(*args, **kwargs):
            warnings.warn("Parsing an integer via a float is deprecated", DeprecationWarning)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", lenient)
        f = tmp_path / "p.csv"
        f.write_text(K4 + "a,0" + ROW4)
        with open(f, newline="", encoding="utf-8-sig") as fh:
            assert _read(fh, str(f), 0, _loadtxt_blocks) is None

    def test_label_out_of_range_quotes_the_file(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("id,label,p0,p1\na,1,1.0,0.0\nb,0,0.0,1.0\n")
        with pytest.raises(LabelOutOfRange, match=r"p\.csv: line 3: label '0' outside 1\.\.2"):
            read_predictions(str(f), label_base=1)
        f.write_text("id,label,p0,p1\na,0,1.0,0.0\nb, 2,0.0,1.0\n")
        with pytest.raises(LabelOutOfRange, match="line 3: label ' 2'"):
            read_predictions(str(f))


class TestRoundTrip:
    def test_synth_write_read_identity(self, tmp_path):
        ds = generate(SynthConfig(n=150, k=5, noise=1.3, miscal=1.6, seed=23))
        ids = ADVERSARIAL_IDS + ds.ids[len(ADVERSARIAL_IDS):]
        ds = EvalDataset(ds.num_classes, ids, ds.labels, ds.probs)
        path = tmp_path / "ds.csv"
        write_predictions(ds, str(path))
        # only the ids that need it are quoted, "a\rb" among them
        assert b'\n"a\rb",' in path.read_bytes()
        assert b'\n"a,b",' in path.read_bytes()
        back = read_predictions(str(path))
        assert back.ids == ds.ids
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.probs, ds.probs)

        scores = tmp_path / "scores.csv"
        assert main(["score", "--input", str(path), "--rule", "rps",
                     "--output", str(scores)]) == 0
        with open(scores, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["id", "label", "argmax", "score"]
        assert sorted(row[0] for row in rows[1:]) == sorted(ids)

    def test_writers_match_csv_writer(self, tmp_path, monkeypatch):
        # several chunks, the last one short; at 17 classes the score
        # writer decodes two-byte confusion cells
        monkeypatch.setattr(ordeval.io, "_CHUNK_ROWS", 7)
        self.writers_match_csv_writer(tmp_path, 40)
        self.writers_match_csv_writer(tmp_path, 40, k=17)

    def test_writers_match_csv_writer_in_default_chunks(self, tmp_path):
        # 1,024-row chunks, the last one short
        self.writers_match_csv_writer(tmp_path, 2_500)

    @staticmethod
    def writers_match_csv_writer(tmp_path, n, k=4):
        ds = generate(SynthConfig(n=n, k=k, noise=1.2, seed=27))
        quoted = tuple(sid for sid in ADVERSARIAL_IDS if "\r" not in sid)
        ids = quoted + ds.ids[len(quoted):]
        ds = EvalDataset(ds.num_classes, ids, ds.labels, ds.probs)
        # every probability is written by the formatter's fast path
        p = ds.probs.ravel()
        assert p.min() >= _LOW and p.max() < 1.0 and _fast(p)[1].all()

        def oracle(header, rows):
            buf = StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
            return buf.getvalue().encode("utf-8")

        path = tmp_path / "p.csv"
        write_predictions(ds, str(path))
        assert path.read_bytes() == oracle(
            ["id", "label", *(f"p{i}" for i in range(k))],
            ([sid, label, *map("{:.17g}".format, p)]
             for sid, label, p in zip(ds.ids, ds.labels.tolist(), ds.probs.tolist())),
        )

        order, scores = rank_samples(ds, "rps")
        path = tmp_path / "s.csv"
        cells = ordeval.hard._cells(ds.labels, ds.probs)[1]
        assert k <= 16 or cells.max() > 255  # some cells need the second byte
        write_scores(ds.ids, cells, k, order, scores, str(path))
        labels, argmax = ds.labels.tolist(), ds.probs.argmax(axis=1).tolist()
        scores = scores.tolist()
        assert path.read_bytes() == oracle(
            ["id", "label", "argmax", "score"],
            ([ds.ids[i], labels[i], argmax[i], str(scores[i])] for i in order.tolist()),
        )

    def test_writes_are_byte_stable(self, tmp_path):
        ds = generate(SynthConfig(n=40, k=3, seed=24))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_predictions(ds, str(a))
        write_predictions(ds, str(b))
        assert a.read_bytes() == b.read_bytes()


class TestMemory:
    # the tables are streamed 1,024 rows a chunk; files are parsed, datasets
    # generated and rules scored a block of rows at a time into the
    # dataset's own arrays, which validation checks in place

    # at 50k x 5 rows: a block's temporaries, plus the few 8-byte-a-row
    # vectors (0.4 MB each) that the ranking (the scores and their order)
    # and ECE (the confidences, sorted in place) keep
    ALLOWANCE = 2_500_000
    N = 50_000

    @staticmethod
    def _resident(ds):
        # StringDType takes 16 bytes an id of up to 15 bytes, "s000001" among them
        return ds.probs.nbytes + ds.labels.nbytes + 16 * len(ds)

    def test_write_peak_does_not_grow_with_the_file(self, tmp_path, monkeypatch):
        # 2 chunks against 10, as 2k and 10k rows are at the default chunk
        # size of 1,024 rows
        monkeypatch.setattr(ordeval.io, "_CHUNK_ROWS", 2048)
        peaks = []
        for n in (4096, 20480):
            ds = generate(SynthConfig(n=n, k=5, noise=1.2, miscal=1.5, seed=1))
            peaks.append(traced_peak(write_predictions, ds, str(tmp_path / f"{n}.csv"))[0])
        assert peaks[1] <= 1.1 * peaks[0]

    def test_generate_peaks_near_what_it_returns(self):
        cfg = SynthConfig(n=20_000, k=5, noise=1.2, miscal=1.5, seed=1)
        peak, held, ds = traced_peak(generate, cfg)
        assert len(ds) == cfg.n and peak <= 1.8 * held

    def test_read_peaks_near_what_it_returns(self, tmp_path):
        path = str(tmp_path / "p.csv")
        write_predictions(generate(SynthConfig(n=20_000, k=5, seed=1)), path)
        peak, held, ds = traced_peak(read_predictions, path)
        assert len(ds) == 20_000 and peak <= 1.8 * held

    def test_generate_holds_little_beyond_the_dataset(self):
        peak, _, ds = traced_peak(generate, SynthConfig(n=self.N, k=5, noise=1.2, miscal=1.5, seed=1))
        assert peak <= self._resident(ds) + self.ALLOWANCE

    def test_read_holds_little_beyond_the_dataset(self, tmp_path):
        path = str(tmp_path / "p.csv")
        write_predictions(generate(SynthConfig(n=self.N, k=5, noise=1.2, miscal=1.5, seed=1)), path)
        peak, _, ds = traced_peak(read_predictions, path)
        assert len(ds) == self.N and peak <= self._resident(ds) + self.ALLOWANCE

    def test_read_with_a_stray_quote_holds_little_beyond_the_dataset(self, tmp_path):
        # a quote inside a bare id is data: the file is still read a block
        # of rows at a time, not in one np.loadtxt call from that row on
        path = tmp_path / "p.csv"
        write_predictions(generate(SynthConfig(n=self.N, k=5, noise=1.2, miscal=1.5, seed=1)),
                          str(path))
        lines = path.read_bytes().split(b"\n")
        lines[11] = b'5"x' + lines[11][lines[11].index(b","):]  # file line 12
        path.write_bytes(b"\n".join(lines))
        peak, _, ds = traced_peak(read_predictions, str(path))
        assert ds.ids[10] == '5"x' and len(ds) == self.N
        assert peak <= self._resident(ds) + self.ALLOWANCE

    @pytest.mark.parametrize("style", ["label-0_3", "r-write-csv"])
    def test_declined_or_quoted_file_holds_little_beyond_the_dataset(self, tmp_path, style):
        # a label np.loadtxt rejects sends the file to the row source, and R
        # quotes the header and the ids: either way the rows fill the
        # dataset's arrays a block at a time
        path = tmp_path / "p.csv"
        write_predictions(generate(SynthConfig(n=self.N, k=5, noise=1.2, miscal=1.5, seed=1)),
                          str(path))
        lines = path.read_bytes().split(b"\n")
        if style == "label-0_3":
            sid, label, rest = lines[11].split(b",", 2)  # file line 12
            lines[11] = b",".join([sid, b"0_" + label, rest])
        else:
            lines = [b",".join(b'"%s"' % name for name in lines[0].split(b","))] + [
                b'"' + line.replace(b",", b'",', 1) for line in lines[1:] if line
            ]
        path.write_bytes(b"\n".join(lines) + b"\n")
        peak, _, ds = traced_peak(read_predictions, str(path))
        assert len(ds) == self.N and ds.ids[10] == "s000011"
        assert peak <= self._resident(ds) + self.ALLOWANCE

    def test_metric_report_holds_little_beyond_the_dataset(self):
        ds = generate(SynthConfig(n=self.N, k=5, noise=1.2, miscal=1.5, seed=1))
        assert traced_peak(metric_report, ds)[0] <= self.ALLOWANCE

    def test_ranking_and_writing_scores_hold_little_beyond_the_dataset(self, tmp_path):
        ds = generate(SynthConfig(n=self.N, k=5, noise=1.2, miscal=1.5, seed=1))

        def score():
            cells = ordeval.hard._cells(ds.labels, ds.probs)[1]
            order, scores = rank_samples(ds, "sa_rps")
            write_scores(ds.ids, cells, 5, order, scores, str(tmp_path / "s.csv"))

        assert traced_peak(score)[0] <= self.ALLOWANCE

    @staticmethod
    def _past_its_read(tmp_path, monkeypatch, command, *flags):
        """The tracemalloc peak of ``cli.main`` running ``command`` on a
        100k x 5 file, from the end of its read on, less the read's own
        peak, in bytes a row."""
        n = 100_000
        path = str(tmp_path / "p.csv")
        write_predictions(generate(SynthConfig(n=n, k=5, noise=1.2, miscal=1.5, seed=1)), path)
        read_peaks = []

        def read(*args, **kwargs):
            ds = read_predictions(*args, **kwargs)
            read_peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            return ds

        monkeypatch.setattr(ordeval.io, "read_predictions", read)
        peak, _, status = traced_peak(ordeval.cli.main, [command, "--input", path, *flags])
        assert status == 0
        return (peak - read_peaks[0]) / n

    def test_score_command_peaks_within_its_read(self, tmp_path, monkeypatch):
        # the command scores the rows, then drops the probabilities (8 bytes
        # a row) before it sorts the scores, so the sort's order and the
        # writer's chunks take their place: ~2.7 bytes a row below the
        # read's own peak. Sorting beside the probabilities took it 5.1 above
        out = str(tmp_path / "s.csv")
        flags = ["--rule", "sa_rps", "--output", out]
        assert self._past_its_read(tmp_path, monkeypatch, "score", *flags) <= 1

    def test_evaluate_command_peaks_below_its_read(self, tmp_path, monkeypatch):
        # the command drops the ids (16 bytes a row) before the report, whose
        # cells and sorted vectors take their place: ~14.5 bytes a row below
        # the read's own peak. A report beside the whole dataset stayed only
        # 2.6 below
        out = str(tmp_path / "r.json")
        flags = ["--cost", "quadratic", "--output", out]
        assert self._past_its_read(tmp_path, monkeypatch, "evaluate", *flags) <= -10


class TestWholeDatasetTemporaries:
    # tracemalloc peaks above a 200k x 5 dataset made before the call

    @pytest.fixture(scope="class")
    def ds(self):
        return generate(SynthConfig(n=200_000, k=5, noise=1.2, miscal=1.5, seed=1))

    def test_confusion_keeps_one_byte_a_row(self, ds):
        # the cells (1 byte a row) and one block's read-only copy, argmax and
        # cells: ~5.6 bytes a row. A bincount of the whole cell vector, which
        # casts it to intp, took 9
        assert traced_peak(ordeval.hard.confusion, ds)[0] <= 6 * len(ds)

    def test_metric_report_keeps_no_argmax_or_sorted_copy(self, ds):
        # the confusion cells (1 byte a row), then the confidences or one
        # rule's scores (8), each sorted in place, and a block's temporaries,
        # of 4,096 rows for a rule: ~10.5 bytes a row. Rules scored 16,384
        # rows a block took 13.6; with the confidences' order by bin, 19;
        # with the argmax vector, the cells and a sorted copy of the
        # confidences, 32
        assert traced_peak(metric_report, ds)[0] < 11 * len(ds)

    def test_ece_keeps_only_the_confidences(self, ds):
        # the confidences (8 bytes a row), sorted in place, and a block's bin
        # indices: ~9.3 bytes a row at 15 bins. An order by bin beside the
        # confidences took 18
        cells = ordeval.hard._cells(ds.labels, ds.probs)[1]
        assert traced_peak(ordeval.hard._ece, ds.probs, cells, 15)[0] < 10.5 * len(ds)

    def test_ece_at_the_bin_ceiling_holds_a_few_bin_counts(self, ds):
        # at 10**6 bins the edges, the bin sizes, the correct counts and one
        # block's counts (8 MB each) dominate: ~169 bytes a row. An order by
        # bin and the per-bin gathers through it took 182
        cells = ordeval.hard._cells(ds.labels, ds.probs)[1]
        assert traced_peak(ordeval.hard._ece, ds.probs, cells, 10**6)[0] < 175 * len(ds)

    def test_writing_predictions_holds_one_chunk(self, ds, tmp_path):
        # a 1,024-row chunk's field bytes, its rows and their join: ~0.62 MB
        # (~0.68 MB on the call that builds the formatter's tables). The
        # formatter's calls of three columns each stay below that; four
        # columns a call took 0.77 MB, the whole chunk 0.91 MB. Python
        # floats, row strings, joined text and bytes took ~0.55 MB; 4,096-row
        # chunks of those took 2.16 MB
        assert traced_peak(write_predictions, ds, str(tmp_path / "p.csv"))[0] < 800_000

    def test_writing_scores_holds_one_chunk(self, ds, tmp_path):
        # ~0.29 MB at 1,024 rows a chunk (~0.35 MB on the call that builds
        # the formatter's tables), with a chunk's scores formatted before its
        # ids are gathered. Python floats and %r took ~0.26 MB; 4,096-row
        # chunks of those took 1.08 MB
        cells = ordeval.hard._cells(ds.labels, ds.probs)[1]
        order, scores = rank_samples(ds, "sa_rps")
        path = str(tmp_path / "s.csv")
        assert traced_peak(write_scores, ds.ids, cells, 5, order, scores, path)[0] < 400_000

    @pytest.mark.parametrize("rule", ["log", "sa_rps"])
    def test_ranking_keeps_no_negated_or_ranked_copy(self, ds, rule):
        # the scores and their order (8 bytes a row each) and a block's
        # temporaries: ~17.3 bytes a row. Negated and ranked copies of the
        # scores took 25
        assert traced_peak(rank_samples, ds, rule)[0] < 18 * len(ds)


class TestAtomicWrites:
    def test_failed_table_write_leaves_the_target_as_it_was(self, tmp_path, monkeypatch):
        path = tmp_path / "p.csv"
        path.write_bytes(b"earlier contents\n")
        monkeypatch.setattr(ordeval.io, "_CHUNK_ROWS", 2)
        # the first chunk reaches the temp file; the second fails on a
        # non-str id
        ds = EvalDataset(2, ("a", "b", 3, "d"), np.zeros(4, dtype=np.int64),
                         np.full((4, 2), 0.5))
        with pytest.raises(TypeError):
            write_predictions(ds, str(path))
        assert path.read_bytes() == b"earlier contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["p.csv"]

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_outputs_follow_the_umask(self, tmp_path, umask):
        ds = generate(SynthConfig(n=20, k=3, seed=5))
        old = os.umask(umask)
        try:
            write_predictions(ds, str(tmp_path / "p.csv"))
            write_report(metric_report(ds), str(tmp_path / "r.json"))
        finally:
            os.umask(old)
        for name in ("p.csv", "r.json"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o666 & ~umask

    @pytest.mark.parametrize("writer", ["write_report", "render_curve_svg"])
    def test_a_missing_directory_names_the_output(self, tmp_path, writer):
        # the library writers make no early directory check: the error comes
        # from creating the temp file, and names the output, not the temp file
        curve = RetentionCurve("rps", "qwk", (1.0, 0.5), (0.25, 0.75), 1.0)
        path = str(tmp_path / "missing" / "out")
        with pytest.raises(FileNotFoundError) as info:
            if writer == "write_report":
                write_report(curve, path, fmt="csv")
            else:
                render_curve_svg([curve], path)
        assert info.value.filename == path
        assert list(tmp_path.iterdir()) == []


class TestCostMatrixFile:
    def test_valid(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("0,1,4\n1,0,1\n4,1,0\n")
        cm = read_cost_matrix(str(f))
        assert cm.num_classes == 3
        assert cm.costs[0, 2] == 4.0

    def test_non_square(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("0,1,2\n1,0,1\n")
        with pytest.raises(ShapeMismatch):
            read_cost_matrix(str(f))

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("0,1\n-1,0\n", InvalidConfig, "cost matrix entries must be nonnegative"),
            ("0,1,2\n1,0,1\n", ShapeMismatch, "cost matrix must be square, got shape (2, 3)"),
            ("", ShapeMismatch, "empty file"),
            ("0,1\n1\n", RowArityMismatch, "line 2: expected 2 fields, got 1"),
        ],
        ids=["negative", "non-square", "empty", "short-row"],
    )
    def test_errors_name_the_file(self, tmp_path, text, error, message):
        f = tmp_path / "c.csv"
        f.write_text(text)
        with pytest.raises(error, match="^" + re.escape(f"{f}: {message}") + "$"):
            read_cost_matrix(str(f))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_with_a_bad_byte_names_the_pipe_and_line(self, tmp_path):
        # the line of a byte that is not UTF-8 is found by reading the file
        # again, so a pipe is read through a copy, as a prediction file is
        fifo = tmp_path / "cost.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(b"0,1\n\xe9,0\n",), daemon=True)
        writer.start()
        try:
            with pytest.raises(EvalError, match="^" + re.escape(f"{fifo}: line 2: byte 0xe9")):
                read_cost_matrix(str(fifo))
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()

    def test_non_numeric(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("0,x\n1,0\n")
        with pytest.raises(NonNumericField, match="line 1"):
            read_cost_matrix(str(f))

    def test_invariants_enforced(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("0,-1\n1,0\n")
        with pytest.raises(InvalidConfig):
            read_cost_matrix(str(f))


class TestWriteReport:
    def _curve(self, n_points=20):
        fractions = tuple((100 - 5 * i) / 100 for i in range(n_points))
        values = tuple(0.5 + 0.02 * i for i in range(n_points))
        return RetentionCurve("rps", "qwk", fractions, values, sum(values))

    def test_curve_csv_has_header_plus_rows(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_report(self._curve(), str(path), fmt="csv")
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 21
        assert lines[0] == "fraction,value"

    def test_curve_csv_round_trip(self, tmp_path):
        curve = self._curve()
        path = tmp_path / "curve.csv"
        write_report(curve, str(path), fmt="csv")
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["fraction", "value"]
        assert tuple(float(f) for f, _ in rows[1:]) == curve.fractions
        assert tuple(float(v) for _, v in rows[1:]) == curve.values

    def test_bootstrap_json(self, tmp_path):
        ds = generate(SynthConfig(n=120, k=4, seed=25))
        summary = bootstrap_aursc(ds, "rps", "qwk", num_replicates=50, seed=3)
        path = tmp_path / "b.json"
        write_report(summary, str(path), fmt="json",
                     config={"rule": "rps", "metric": "qwk", "seed": 3})
        payload = json.loads(path.read_text())
        assert payload["type"] == "bootstrap_summary"
        assert len(payload["replicates"]) == 50
        assert payload["config"]["rule"] == "rps"
        assert payload["mean"] == summary.mean

    def test_metric_report_json(self, tmp_path):
        report = MetricReport(accuracy=0.9, qwk=0.8, expected_cost=0.05, ece=0.02,
                              n=10, mean_scores={"rps": 0.1})
        path = tmp_path / "m.json"
        write_report(report, str(path), fmt="json", config={"bins": 15})
        payload = json.loads(path.read_text())
        assert payload["type"] == "metric_report"
        assert payload["qwk"] == 0.8 and payload["config"]["bins"] == 15
        assert payload["mean_scores"] == {"rps": 0.1}

    def test_curve_json_reparses_with_config(self, tmp_path):
        curve = self._curve(5)
        path = tmp_path / "c.json"
        write_report(curve, str(path), fmt="json", config={"rule": "rps"})
        payload = json.loads(path.read_text())
        assert payload["fractions"] == list(curve.fractions)
        assert payload["aursc"] == curve.aursc

    def test_json_only_for_reports(self):
        with pytest.raises(InvalidConfig, match="^cannot serialize report of type dict$"):
            report_json({"accuracy": 1.0})

    def test_csv_only_for_curves(self, tmp_path):
        summary = BootstrapSummary(1.0, 0.0, (1.0,), 0, 1)
        with pytest.raises(InvalidConfig):
            write_report(summary, str(tmp_path / "x.csv"), fmt="csv")
        with pytest.raises(InvalidConfig):
            write_report(summary, str(tmp_path / "x.yaml"), fmt="yaml")


class TestSvg:
    def _curves(self, rules=("brier", "log", "rps", "sa_rps")):
        ds = generate(SynthConfig(n=150, k=4, noise=1.1, seed=26))
        return [sample_retention_curve(ds, r, "qwk") for r in rules]

    def test_one_polyline_per_rule(self, tmp_path):
        path = tmp_path / "c.svg"
        render_curve_svg(self._curves(), str(path))
        text = path.read_text()
        assert text.count("<polyline") == 4
        assert text.startswith("<?xml")
        assert "<svg" in text and "</svg>" in text
        for rule in ("brier", "log", "rps", "sa_rps"):
            assert f">{rule}</text>" in text
        assert "fraction retained" in text and ">qwk</text>" in text

    def test_constant_curve(self, tmp_path):
        curve = RetentionCurve("rps", "qwk", (1.0, 0.5), (1.0, 1.0), 2.0)
        path = tmp_path / "flat.svg"
        render_curve_svg([curve], str(path))
        text = path.read_text()
        assert text.count("<polyline") == 1

    def test_empty_list(self, tmp_path):
        with pytest.raises(GridMismatch):
            render_curve_svg([], str(tmp_path / "x.svg"))

    def test_grid_mismatch(self, tmp_path):
        a = RetentionCurve("rps", "qwk", (1.0, 0.5), (1.0, 1.0), 2.0)
        b = RetentionCurve("brier", "qwk", (1.0, 0.75, 0.5), (1.0, 1.0, 1.0), 3.0)
        with pytest.raises(GridMismatch):
            render_curve_svg([a, b], str(tmp_path / "x.svg"))

    def test_metric_mismatch(self, tmp_path):
        a = RetentionCurve("rps", "qwk", (1.0, 0.5), (1.0, 1.0), 2.0)
        b = RetentionCurve("rps", "ec", (1.0, 0.5), (0.0, 0.0), 0.0)
        with pytest.raises(GridMismatch):
            render_curve_svg([a, b], str(tmp_path / "x.svg"))
