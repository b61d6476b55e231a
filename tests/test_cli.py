import json
from pathlib import Path

import numpy as np
import pytest

from ordeval.cli import main


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def eq3_file(tmp_path):
    f = tmp_path / "eq3.csv"
    f.write_text(
        "id,label,p0,p1,p2\np1,0,0.25,0.75,0.0\np2,0,0.25,0.0,0.75\n"
    )
    return f


@pytest.fixture
def perfect_file(tmp_path):
    f = tmp_path / "perfect.csv"
    rows = ["id,label,p0,p1,p2"]
    for i, c in enumerate([0, 1, 2, 0, 1, 2]):
        p = ["0.0"] * 3
        p[c] = "1.0"
        rows.append(f"r{i},{c}," + ",".join(p))
    f.write_text("\n".join(rows) + "\n")
    return f


class TestSynthCommand:
    def test_writes_n_plus_header_lines(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["synth", "--n", 100, "--k", 5, "--output", out]) == 0
        assert len(out.read_text().strip().split("\n")) == 101

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["synth", "--n", 50, "--k", 4, "--noise", 1.2, "--seed", 9]
        assert run(args + ["--output", a]) == 0
        assert run(args + ["--output", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_k(self, tmp_path, capsys):
        rc = run(["synth", "--n", 10, "--k", 1, "--output", tmp_path / "x.csv"])
        assert rc == 1
        assert "InvalidConfig" in capsys.readouterr().err

    def test_output_is_readable_by_score(self, tmp_path):
        data = tmp_path / "d.csv"
        run(["synth", "--n", 30, "--k", 3, "--output", data])
        assert run(["score", "--input", data, "--rule", "rps",
                    "--output", tmp_path / "sc.csv"]) == 0


class TestScoreCommand:
    def test_worst_first_and_top5(self, eq3_file, tmp_path, capsys):
        out = tmp_path / "scores.csv"
        rc = run(["score", "--input", eq3_file, "--rule", "rps", "--output", out])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "id,label,argmax,score"
        assert lines[1].startswith("p2,")
        assert lines[2].startswith("p1,")
        stdout = capsys.readouterr().out
        assert "worst samples by rps" in stdout
        assert stdout.index("p2") < stdout.index("p1")

    def test_unknown_rule(self, eq3_file, tmp_path, capsys):
        rc = run(["score", "--input", eq3_file, "--rule", "bogus",
                  "--output", tmp_path / "x.csv"])
        assert rc == 1
        assert "unknown rule" in capsys.readouterr().err

    def test_perfect_predictions_score_zero(self, perfect_file, tmp_path):
        out = tmp_path / "scores.csv"
        run(["score", "--input", perfect_file, "--rule", "brier", "--output", out])
        scores = [float(line.split(",")[3])
                  for line in out.read_text().strip().split("\n")[1:]]
        assert scores == [0.0] * 6

    def test_unprintable_ids_keep_one_line_each(self, tmp_path, capsys):
        data = tmp_path / "ids.csv"
        data.write_bytes(
            b'id,label,p0,p1,p2\n"two\nlines",0,0.0,0.0,1.0\n"x\r\ny",0,0.0,1.0,0.0\n'
            b"tab\tid,0,0.5,0.5,0.0\n padded,0,0.75,0.25,0.0\nok,0,0.9,0.1,0.0\n"
            b"best,0,1.0,0.0,0.0\n"
        )
        assert run(["score", "--input", data, "--rule", "rps",
                    "--output", tmp_path / "sc.csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        assert [line.split()[0] for line in lines[1:]] == [
            r"id='two\nlines'", r"id='x\r\ny'", r"id='tab\tid'", "id=", "id=ok",
        ]
        assert lines[4].startswith("  id= padded  label=0")

    def test_missing_input(self, tmp_path, capsys):
        rc = run(["score", "--input", tmp_path / "missing.csv", "--rule", "rps",
                  "--output", tmp_path / "x.csv"])
        assert rc == 1
        assert "FileNotFoundError" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_perfect_file(self, perfect_file, tmp_path):
        out = tmp_path / "report.json"
        assert run(["evaluate", "--input", perfect_file, "--output", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["accuracy"] == 1.0
        assert payload["qwk"] == 1.0
        assert payload["expected_cost"] == 0.0
        assert payload["ece"] == 0.0
        assert all(v == 0.0 for v in payload["mean_scores"].values())
        assert payload["config"]["cost"] == "linear"

    def test_calibrated_constant_predictor(self, tmp_path):
        f = tmp_path / "const.csv"
        rows = ["id,label,p0,p1"]
        labels = [0] * 6 + [1] * 4
        for i, c in enumerate(labels):
            rows.append(f"r{i},{c},0.6,0.4")
        f.write_text("\n".join(rows) + "\n")
        out = tmp_path / "report.json"
        run(["evaluate", "--input", f, "--output", out])
        payload = json.loads(out.read_text())
        assert payload["accuracy"] == 0.6
        assert abs(payload["ece"]) <= 1e-12

    def test_stdout_when_no_output(self, perfect_file, capsys):
        assert run(["evaluate", "--input", perfect_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 6

    def test_bins_above_ceiling(self, perfect_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = run(["evaluate", "--input", perfect_file, "--bins", 10**6 + 1,
                  "--output", out])
        assert rc == 1 and not out.exists()
        assert "InvalidConfig" in capsys.readouterr().err

    def test_non_square_cost_csv(self, perfect_file, tmp_path, capsys):
        cost = tmp_path / "cost.csv"
        cost.write_text("0,1,2\n1,0,1\n")
        rc = run(["evaluate", "--input", perfect_file, "--cost", cost])
        assert rc == 1
        assert "ShapeMismatch" in capsys.readouterr().err

    def test_cost_csv_path(self, perfect_file, tmp_path):
        cost = tmp_path / "cost.csv"
        cost.write_text("0,1,4\n1,0,1\n4,1,0\n")
        assert run(["evaluate", "--input", perfect_file, "--cost", cost,
                    "--output", tmp_path / "r.json"]) == 0
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["config"]["cost"].endswith("cost.csv")

    def test_quadratic_cost(self, perfect_file, tmp_path):
        assert run(["evaluate", "--input", perfect_file, "--cost", "quadratic",
                    "--output", tmp_path / "r.json"]) == 0


class TestRscCommand:
    def _synth(self, tmp_path, n=200):
        data = tmp_path / "data.csv"
        run(["synth", "--n", n, "--k", 5, "--noise", 1.2, "--miscal", 1.5,
             "--seed", 3, "--output", data])
        return data

    def test_output_inventory(self, tmp_path, capsys):
        data = self._synth(tmp_path)
        prefix = tmp_path / "run"
        rc = run(["rsc", "--input", data, "--bootstrap", 5,
                  "--output-prefix", prefix])
        assert rc == 0
        for rule in ("brier", "log", "rps", "sa_rps"):
            assert (tmp_path / f"run_{rule}_curve.csv").exists()
            payload = json.loads((tmp_path / f"run_{rule}_bootstrap.json").read_text())
            assert len(payload["replicates"]) == 5
            assert payload["config"]["rule"] == rule
        svg = (tmp_path / "run_curves.svg").read_text()
        assert svg.count("<polyline") == 4
        out = capsys.readouterr().out
        for rule in ("brier", "log", "rps", "sa_rps"):
            assert rule in out
        assert "AURSC-qwk" in out

    def test_identity_seed_gives_zero_std(self, tmp_path, capsys):
        data = self._synth(tmp_path)
        prefix = tmp_path / "id"
        rc = run(["rsc", "--input", data, "--bootstrap", 1, "--seed", 0,
                  "--rules", "rps,brier", "--output-prefix", prefix])
        assert rc == 0
        for rule in ("rps", "brier"):
            payload = json.loads((tmp_path / f"id_{rule}_bootstrap.json").read_text())
            assert payload["std"] == 0.0
        assert "+/- 0.0000" in capsys.readouterr().out

    def test_custom_fractions_and_metric(self, tmp_path):
        data = self._synth(tmp_path)
        prefix = tmp_path / "frac"
        rc = run(["rsc", "--input", data, "--metric", "ec", "--rules", "rps",
                  "--fractions", "1.0:0.5:0.25", "--bootstrap", 3,
                  "--output-prefix", prefix])
        assert rc == 0
        lines = (tmp_path / "frac_rps_curve.csv").read_text().strip().split("\n")
        assert len(lines) == 4  # header + 3 grid points
        assert json.loads((tmp_path / "frac_rps_bootstrap.json").read_text())[
            "config"]["fractions"] == [1.0, 0.75, 0.5]

    def test_unknown_metric(self, tmp_path, capsys):
        data = self._synth(tmp_path)
        rc = run(["rsc", "--input", data, "--metric", "f1",
                  "--output-prefix", tmp_path / "x"])
        assert rc == 1
        assert "UnknownMetric" in capsys.readouterr().err

    def test_unknown_flag_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["rsc", "--input", "x.csv", "--output-prefix", "y", "--frobnicate"])
        assert exc.value.code == 2

    def test_bad_label_base(self, tmp_path, capsys):
        data = self._synth(tmp_path)
        rc = run(["rsc", "--input", data, "--label-base", 2,
                  "--output-prefix", tmp_path / "x"])
        assert rc == 1
        assert "InvalidConfig" in capsys.readouterr().err


DEMO_OUTPUT = Path(__file__).resolve().parent.parent / "demos" / "output"


class TestDemoGoldenOutputs:
    """Replays demos/04_files_and_cli.py's CLI sequence and compares every
    file it writes with the committed copy in demos/output/."""

    def test_outputs_match_committed_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        data = "synthetic.csv"
        run(["synth", "--n", 500, "--k", 5, "--noise", 1.2, "--miscal", 1.5,
             "--seed", 11, "--output", data])
        run(["score", "--input", data, "--rule", "rps",
             "--output", "worst_by_rps.csv"])
        run(["evaluate", "--input", data, "--cost", "quadratic",
             "--output", "report.json"])
        run(["rsc", "--input", data, "--metric", "qwk", "--bootstrap", 50,
             "--seed", 42, "--output-prefix", "rsc"])
        rsc = sorted(p.name for p in tmp_path.glob("rsc_*"))
        assert rsc == sorted(p.name for p in DEMO_OUTPUT.glob("rsc_*"))
        for name in [data, "worst_by_rps.csv", "report.json", *rsc]:
            assert (tmp_path / name).read_bytes() == (DEMO_OUTPUT / name).read_bytes(), name
