import csv
import json
import random
import warnings
from io import StringIO

import numpy as np
import pytest

import ordeval.io

from ordeval import (
    BootstrapSummary,
    EvalDataset,
    MetricReport,
    RetentionCurve,
    SynthConfig,
    bootstrap_aursc,
    generate,
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
from ordeval.cli import main
from ordeval.io import _parse_bulk, _read_rows, write_scores
from ordeval.retention import rank_samples

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
    "blank-before-header": ("\n" + K2 + "a,0,1.0,0.0\n", 0, False),
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
    "quoted-header": ('"id",label,p0,p1\na,0,1.0,0.0\n', 0, False),
    "one-row": (K2 + "a,1,0.0,1.0", 0, True),
    "wrong-arity": (K2 + "a,0,1.0,0.0\nb,1,0.0\n", 0, False),
    "label-zero-base-one": (K2 + "a,1,1.0,0.0\nb,0,0.0,1.0\n", 1, False),
    "label-base-one": (K2 + "a,1,1.0,0.0\nb,2,0.0,1.0\n", 1, True),
}


def _outcome(read, path, label_base):
    """What a reader makes of a file: the dataset's values, or the error."""
    try:
        ds = read(path, label_base)
    except EvalError as exc:
        return type(exc), str(exc)
    return ds.ids, ds.labels.tolist(), ds.probs.tobytes()


def _random_file(rng):
    """A small prediction file built from fields that quote, pad, break lines
    or spell numbers in ways the two parsers might treat differently."""
    k = rng.choice([2, 3])
    eol = rng.choice(["\n", "\r\n", "\r"])
    chars = ["a", "b", ",", '"', " ", "\n", "\r", "#", "é", "\t"]
    spellings = ["0", "1", " 1", "+1", "1.0", " 0.5 ", "1_0", "nan", "", '"1"', ".5"]
    lines = ["id,label," + ",".join(f"p{i}" for i in range(k))]
    for _ in range(rng.randint(0, 5)):
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
    def test_bulk_pass_matches_row_parser(self, tmp_path, name):
        text, label_base, bulk = PARSER_CORPUS[name]
        path = tmp_path / "p.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(read_predictions, str(path), label_base) == _outcome(
            _read_rows, str(path), label_base
        )
        with open(path, newline="", encoding="utf-8-sig") as fh:
            assert (_parse_bulk(fh, label_base) is not None) == bulk

    def test_bulk_pass_matches_row_parser_on_random_files(self, tmp_path):
        rng = random.Random(7)
        path = tmp_path / "p.csv"
        for _ in range(300):
            path.write_bytes(_random_file(rng).encode("utf-8"))
            label_base = rng.randrange(2)
            assert _outcome(read_predictions, str(path), label_base) == _outcome(
                _read_rows, str(path), label_base
            ), path.read_bytes()

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
            assert _parse_bulk(fh, 0) is None

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
        # several chunks, the last one short
        monkeypatch.setattr(ordeval.io, "_CHUNK_ROWS", 7)
        ds = generate(SynthConfig(n=40, k=4, noise=1.2, seed=27))
        quoted = tuple(sid for sid in ADVERSARIAL_IDS if "\r" not in sid)
        ids = quoted + ds.ids[len(quoted):]
        ds = EvalDataset(ds.num_classes, ids, ds.labels, ds.probs)

        def oracle(header, rows):
            buf = StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
            return buf.getvalue().encode("utf-8")

        path = tmp_path / "p.csv"
        write_predictions(ds, str(path))
        assert path.read_bytes() == oracle(
            ["id", "label", "p0", "p1", "p2", "p3"],
            ([sid, label, *map("{:.17g}".format, p)]
             for sid, label, p in zip(ds.ids, ds.labels.tolist(), ds.probs.tolist())),
        )

        order, scores = rank_samples(ds, "rps")
        path = tmp_path / "s.csv"
        write_scores(ds, order, scores, str(path))
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
