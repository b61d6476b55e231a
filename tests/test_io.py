import csv
import json

import numpy as np
import pytest

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
    GridMismatch,
    InvalidConfig,
    LabelOutOfRange,
    MalformedHeader,
    NonNumericField,
    RowArityMismatch,
    ShapeMismatch,
)
from ordeval.cli import main

# ids that need quoting, or that a careless reader would trim
ADVERSARIAL_IDS = ("a,b", 'say "hi"', " padded", "two\nlines", "a\rb")


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
