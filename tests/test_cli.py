import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from ordeval import CostMatrix, SynthConfig, _rng, cli, data, io, retention, scoring, synth
from ordeval.cli import MAX_THREADS, main
from ordeval.errors import InvalidConfig
from ordeval.hard import MAX_ECE_BINS
from ordeval.retention import MAX_FRACTIONS, MAX_REPLICATES

from helpers import make_dataset, tenths, traced_peak


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

    @pytest.mark.parametrize("n, k", [(10**13, 5), (10, 10**11)])
    def test_oversized_data_fails_before_allocating(self, tmp_path, capsys, n, k):
        peak, _, rc = traced_peak(run, ["synth", "--n", n, "--k", k, "--output", tmp_path / "x.csv"])
        assert rc == 1 and peak < 256 * 1024
        assert capsys.readouterr().err.startswith("error: InvalidConfig:")
        assert list(tmp_path.iterdir()) == []

    def test_more_classes_than_the_cap_write_nothing(self, tmp_path, capsys):
        assert run(["synth", "--n", 10, "--k", 257, "--output", tmp_path / "x.csv"]) == 1
        assert capsys.readouterr().err == "error: InvalidConfig: at most 256 classes, got 257\n"
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(SystemExit):
            run(["synth", "--help"])
        assert "class count, 2 to 256" in capsys.readouterr().out

    def test_largest_size_is_accepted_and_documented(self, capsys):
        # checked on the config alone: generating near the cap takes gigabytes
        assert synth.MAX_CELLS >= 10**6 * 5
        synth._check_config(SynthConfig(n=synth.MAX_CELLS // 5, k=5))
        with pytest.raises(InvalidConfig):
            synth._check_config(SynthConfig(n=synth.MAX_CELLS // 5 + 1, k=5))
        with pytest.raises(SystemExit):
            run(["synth", "--help"])
        assert f"{synth.MAX_CELLS:,}" in capsys.readouterr().out

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


class TestUnreadableFiles:
    @pytest.mark.parametrize("command", ["score", "evaluate"])
    def test_header_only_file_names_the_file(self, tmp_path, capsys, command):
        f = tmp_path / "p.csv"
        f.write_text("id,label,p0,p1\n\n")
        extra = ["--rule", "rps", "--output", tmp_path / "s.csv"] if command == "score" else []
        assert run([command, "--input", f, *extra]) == 1
        assert capsys.readouterr().err == f"error: EmptyDataset: {f}: no rows after the header\n"

    @pytest.mark.parametrize(
        "bad, text, message",
        [
            # a cp1252 export: the text reader decodes 8 KB at a time, so it
            # fails on an earlier line than the one holding the byte
            ("input", "id,label,p0,p1\n" + "".join(f"r{i:03},0,0.25,0.75\n" for i in range(599))
             + "caf\xe9,0,1.0,0.0\n",
             "line 601: byte 0xe9 is not UTF-8"),
            ("cost", "0,1\r\n1,0\r\n\xe9\r\n", "line 3: byte 0xe9 is not UTF-8"),
            ("cost", "0,1\r1,0\r\xe9\r", "line 3: byte 0xe9 is not UTF-8"),
            # an id csv.reader rejects, in a file the bulk pass declines for
            # its 0_1 label or for the id itself
            ("input", "id,label,p0,p1\na,0_1,0.0,1.0\n" + "x" * 131_073 + ",0,1.0,0.0\n",
             "line 3: field larger than field limit (131072)"),
            ("input", "id,label,p0,p1\na,1,0.0,1.0\n" + "x" * 131_073 + ",0,1.0,0.0\n",
             "line 3: field larger than field limit (131072)"),
        ],
        ids=["cp1252-input", "cp1252-cost-crlf", "cp1252-cost-cr", "long-field",
             "long-field-plain-labels"],
    )
    def test_undecodable_or_untokenizable_file_names_the_file_and_line(
        self, tmp_path, capsys, bad, text, message
    ):
        files = {"input": tmp_path / "p.csv", "cost": tmp_path / "c.csv"}
        files["input"].write_text("id,label,p0,p1\na,0,1.0,0.0\nb,1,0.0,1.0\n")
        files["cost"].write_text("0,1\n1,0\n")
        files[bad].write_bytes(text.encode("cp1252"))
        assert run(["evaluate", "--input", files["input"], "--cost", files["cost"]]) == 1
        assert capsys.readouterr().err == f"error: EvalError: {files[bad]}: {message}\n"


    @pytest.mark.parametrize(
        "rows, message",
        [
            ("a,0,0.5,0.6\n", "SumOutOfTolerance: {f}: sample 'a' probabilities sum to 1.1"),
            ("a,0_0,0.5,0.6\n", "SumOutOfTolerance: {f}: sample 'a' probabilities sum to 1.1"),
            ("a,0,-0.5,1.5\n", "NegativeProbability: {f}: negative probability in sample 'a'"),
            ("a,0,nan,1.0\n", "NonFiniteProbability: {f}: non-finite probability in sample 'a'"),
            ("a,0,0.5,0.5\nb,2,0.5,0.5\n", "LabelOutOfRange: {f}: line 3: label '2' outside 0..1"),
            ("a,0,0.5,0.5\na,1,0.5,0.5\n", "DuplicateId: {f}: duplicate sample id 'a'"),
        ],
        ids=["sum", "sum-row-source", "negative", "non-finite", "label-range", "duplicate"],
    )
    def test_validation_errors_name_the_file_once(self, tmp_path, capsys, rows, message):
        # the checks made once the rows are read name the file too; the
        # label's own message, which names it with the line, is left as it is
        f = tmp_path / "p.csv"
        f.write_text("id,label,p0,p1\n" + rows)
        assert run(["evaluate", "--input", f]) == 1
        assert capsys.readouterr().err == f"error: {message.format(f=f)}\n"

    @pytest.mark.parametrize("command", ["score", "evaluate", "rsc"])
    def test_too_many_classes_fail_before_allocating(self, tmp_path, capsys, command):
        # one row of 20,000 classes: a linear cost matrix alone would take 3.2 GB
        k = 20_000
        f = tmp_path / "p.csv"
        f.write_text(
            "id,label," + ",".join(f"p{i}" for i in range(k)) + "\n"
            + "a,0,1.0" + ",0.0" * (k - 1) + "\n"
        )
        extra = {"score": ["--rule", "rps", "--output", tmp_path / "s.csv"],
                 "evaluate": [], "rsc": ["--output-prefix", tmp_path / "run"]}[command]
        peak, _, rc = traced_peak(run, [command, "--input", f, *extra])
        assert rc == 1 and peak < 8 * 2**20
        assert capsys.readouterr().err == f"error: InvalidConfig: {f}: at most 256 classes, got {k}\n"
        assert list(tmp_path.iterdir()) == [f]


class TestStreamFallback:
    # score, evaluate and synth take their rows as validated blocks and make
    # no dataset; rows the stream cannot vouch for send the command to the
    # dataset path, which must give the same bytes, status and message

    N = 17_000  # two staged blocks at K = 5, four at K = 17

    @pytest.mark.parametrize("force", ["first-block", "hash-collision"])
    @pytest.mark.parametrize("k", [5, 17])
    def test_the_dataset_path_gives_the_same_bytes(self, tmp_path, capsys, monkeypatch, k, force):
        taken = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                taken.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(io, "_dataset", counted(io._dataset))
        monkeypatch.setattr(synth, "generate", counted(synth.generate))

        def outputs(name):
            work = tmp_path / name
            work.mkdir()
            monkeypatch.chdir(work)
            runs = [
                ["synth", "--n", self.N, "--k", k, "--noise", 1.2, "--miscal", 1.5,
                 "--seed", 2, "--output", "p.csv"],
                ["score", "--input", "p.csv", "--rule", "rps", "--output", "s.csv"],
                ["evaluate", "--input", "p.csv", "--cost", "quadratic"],
            ]
            got = [(run(argv), *capsys.readouterr()) for argv in runs]
            return got, {f.name: f.read_bytes() for f in sorted(work.iterdir())}

        streamed = outputs("streamed")
        assert taken == [] and [status for status, *_ in streamed[0]] == [0, 0, 0]
        if force == "first-block":
            def refuse(*args):
                raise data._Fallback
            monkeypatch.setattr(data, "_vouched", refuse)
        else:  # every id hash repeats: the stream ends in a fall-back, which finds no duplicate
            monkeypatch.setattr(data, "_repeats", lambda hashes: {0})
        assert outputs("canonical") == streamed
        assert taken == ["generate", "_dataset", "_dataset"]

    def _faulty(self, f, fault):
        """Write at ``f`` a 17,000-row file with one fault; return the
        error it gives."""
        io.write_predictions(synth.generate(SynthConfig(n=self.N, k=5, seed=3)), str(f))
        rows = [line.split(b",") for line in f.read_bytes().split(b"\n")]
        # rows[i] is file line i + 1, whose id is s{i:06d}
        if fault == "nan-after-negative":
            # a negative probability in the first staged block, a NaN in the
            # second: the non-finite check comes first
            rows[5][2] = b"-" + rows[5][2]
            rows[16_500][3] = b"nan"
            message = "NonFiniteProbability: {f}: non-finite probability in sample 's016500'"
        elif fault == "duplicate":
            rows[16_900][0] = b"s000003"
            message = "DuplicateId: {f}: duplicate sample id 's000003'"
        elif fault == "declined-label":  # np.loadtxt declines 0_7, which int() reads as 7
            rows[7][1] = b"0_7"
            message = "LabelOutOfRange: {f}: line 8: label '0_7' outside 0..4"
        elif fault == "lone-surrogate":  # U+D800 as UTF-8 would spell it
            rows[9][0] = b"s\xed\xa0\x80"
            message = "EvalError: {f}: line 10: byte 0xed is not UTF-8"
        else:  # "empty-body"
            rows = rows[:1] + [[b""]]
            message = "EmptyDataset: {f}: no rows after the header"
        f.write_bytes(b"\n".join(b",".join(row) for row in rows))
        return message

    FAULTS = ["nan-after-negative", "duplicate", "declined-label", "lone-surrogate", "empty-body"]

    @staticmethod
    def _argv(command, f, out):
        if command == "score":
            return ["score", "--input", f, "--rule", "rps", "--output", out / "s.csv"]
        return ["evaluate", "--input", f, "--output", out / "r.json"]

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("command", ["score", "evaluate"])
    def test_errors_are_the_dataset_paths(self, tmp_path, capsys, command, fault):
        f = tmp_path / "p.csv"
        message = self._faulty(f, fault)
        out = tmp_path / "out"
        out.mkdir()
        assert run(self._argv(command, f, out)) == 1
        assert capsys.readouterr().err == f"error: {message.format(f=f)}\n"
        assert list(out.iterdir()) == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("command", ["score", "evaluate"])
    def test_a_pipe_falls_back_to_its_spooled_copy(self, tmp_path, capsys, command):
        # the dataset path reads the open handle again, the pipe's copy: it
        # must not reopen the drained pipe and wait for a writer that has
        # gone. The command runs in a daemon thread, so a read that blocks
        # fails the test, not the suite
        f, fifo = tmp_path / "p.csv", tmp_path / "pipe.csv"
        message = self._faulty(f, "nan-after-negative")
        os.mkfifo(fifo)
        out = tmp_path / "out"
        out.mkdir()
        writer = threading.Thread(target=fifo.write_bytes, args=(f.read_bytes(),), daemon=True)
        status = []
        command_run = threading.Thread(
            target=lambda: status.append(run(self._argv(command, fifo, out))), daemon=True
        )
        writer.start()
        command_run.start()
        command_run.join(timeout=30)
        assert not command_run.is_alive(), "the fall-back blocked on the drained pipe"
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert status == [1]
        assert capsys.readouterr().err == f"error: {message.format(f=fifo)}\n"
        assert list(out.iterdir()) == []


class TestUnwritableOutputs:
    @pytest.mark.parametrize("command", ["synth", "score", "evaluate", "rsc"])
    def test_a_missing_directory_is_named_by_the_output(
        self, perfect_file, tmp_path, capsys, command
    ):
        # the temp file would be made in the missing directory: the error
        # names the output as given, and no temp file is left anywhere
        out = tmp_path / "missing" / "out"
        argv = {
            "synth": ["synth", "--n", 10, "--k", 3, "--output", out],
            "score": ["score", "--input", perfect_file, "--rule", "rps", "--output", out],
            "evaluate": ["evaluate", "--input", perfect_file, "--output", out],
            "rsc": ["rsc", "--input", perfect_file, "--bootstrap", 2, "--output-prefix", out],
        }[command]
        assert run(argv) == 1
        first = f"{out}_brier_curve.csv" if command == "rsc" else str(out)
        err = capsys.readouterr().err
        assert err.startswith("error: FileNotFoundError: [Errno 2] ")
        assert err.endswith(f": {first!r}\n") and ".tmp-" not in err
        assert list(tmp_path.rglob("*")) == [perfect_file]

    @pytest.mark.parametrize("command", ["synth", "score", "evaluate", "rsc"])
    def test_a_missing_directory_fails_before_any_work(
        self, perfect_file, tmp_path, capsys, monkeypatch, command
    ):
        # neither the input nor the generator is touched: the directory is
        # checked before the run's work, not at its first write
        def spy(*args, **kwargs):
            raise AssertionError("the command began its work before checking its output")

        monkeypatch.setattr(cli.io, "read_predictions", spy)  # rsc
        monkeypatch.setattr(cli.io, "_consume_file", spy)  # score and evaluate
        monkeypatch.setattr(cli, "_consume", spy)  # synth
        monkeypatch.setattr(synth, "generate", spy)
        out = tmp_path / "missing" / "out"
        argv = {
            "synth": ["synth", "--n", 10, "--k", 3, "--output", out],
            "score": ["score", "--input", perfect_file, "--rule", "rps", "--output", out],
            "evaluate": ["evaluate", "--input", perfect_file, "--output", out],
            "rsc": ["rsc", "--input", perfect_file, "--rules", "rps,log", "--output-prefix", out],
        }[command]
        assert run(argv) == 1
        first = f"{out}_rps_curve.csv" if command == "rsc" else str(out)
        assert capsys.readouterr().err.endswith(f"No such file or directory: {first!r}\n")


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

    def test_row_order_changes_no_byte(self, tmp_path):
        # probabilities on a tenths grid, so that ECE bins and every rule's
        # scores hold runs of equal values
        rng = np.random.default_rng(52)
        tenths = rng.multinomial(10, np.full(5, 0.2), size=300)
        rows = [f"s{i:03d},{rng.integers(5)}," + ",".join(str(t / 10) for t in p)
                for i, p in enumerate(tenths)]
        reports = set()
        for j in range(6):
            f = tmp_path / f"p{j}.csv"
            order = rng.permutation(300) if j else range(300)
            f.write_text("id,label,p0,p1,p2,p3,p4\n" + "".join(rows[i] + "\n" for i in order))
            out = tmp_path / f"r{j}.json"
            assert run(["evaluate", "--input", f, "--output", out]) == 0
            reports.add(out.read_text().replace(json.dumps(str(f)), '"<input>"'))
        assert len(reports) == 1 and '"<input>"' in reports.pop()

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

    def test_cost_csv_for_another_class_count(self, perfect_file, tmp_path, capsys):
        cost = tmp_path / "cost.csv"
        cost.write_text("0,1\n1,0\n")
        assert run(["evaluate", "--input", perfect_file, "--cost", cost]) == 1
        err = capsys.readouterr().err
        assert err == "error: InvalidConfig: cost matrix is 2x2, dataset has 3 classes\n"

    @pytest.mark.parametrize("command", ["evaluate", "rsc"])
    @pytest.mark.parametrize("text", [None, "0,x\n1,0\n"], ids=["missing", "malformed"])
    def test_cost_file_is_read_before_the_input(
        self, tmp_path, capsys, monkeypatch, command, text
    ):
        # a bad cost file fails at once, not after the whole input is read
        def reader(*args, **kwargs):
            raise AssertionError("the input was read before the cost file")

        monkeypatch.setattr(cli.io, "read_predictions", reader)  # rsc
        monkeypatch.setattr(cli.io, "_consume_file", reader)  # evaluate
        cost = tmp_path / "cost.csv"
        if text is not None:
            cost.write_text(text)
        extra = ["--output-prefix", tmp_path / "x"] if command == "rsc" else []
        rc = run([command, "--input", tmp_path / "in.csv", "--cost", cost, *extra])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(cost) in err
        assert list(tmp_path.iterdir()) == ([] if text is None else [cost])


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

    def test_a_grid_too_fine_for_the_classes_writes_nothing(self, tmp_path, capsys):
        # 100 fractions at K = 256 make 6,553,600 curve cells
        data = tmp_path / "data.csv"
        assert run(["synth", "--n", 50, "--k", 256, "--output", data]) == 0
        rc = run(["rsc", "--input", data, "--fractions", "1.0:0.01:0.01",
                  "--output-prefix", tmp_path / "run"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: InvalidConfig: retention grid of 100 fractions at K = 256 makes "
            "6,553,600 curve cells, at most 4,194,304\n"
        )
        assert list(tmp_path.iterdir()) == [data]

    @pytest.mark.parametrize("seed", [0, 42])
    @pytest.mark.parametrize("metric", ["qwk", "ec"])
    @pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
    def test_outputs_are_retention_analysis_bit_for_bit(self, tmp_path, tied, metric, seed):
        # the command runs retention_analysis's two stages itself, dropping
        # the dataset between them; its files must hold the same bits
        ds = synth.generate(SynthConfig(n=1500, k=5, noise=1.2, miscal=1.5, seed=8))
        if tied:
            ds = make_dataset(tenths(ds.probs), ds.labels, ds.ids)
        data = tmp_path / "data.csv"
        io.write_predictions(ds, str(data))
        rc = run(["rsc", "--input", data, "--metric", metric, "--cost", "quadratic",
                  "--bootstrap", 6, "--seed", seed, "--output-prefix", tmp_path / "run"])
        assert rc == 0
        want = retention.retention_analysis(
            io.read_predictions(str(data)), list(scoring.RULES), metric,
            num_replicates=6, seed=seed, cost=CostMatrix.quadratic(5),
        )
        for curve, summary in want:
            rows = (tmp_path / f"run_{curve.rule}_curve.csv").read_text().splitlines()[1:]
            assert [float(row.split(",")[1]).hex() for row in rows] == [v.hex() for v in curve.values]
            payload = json.loads((tmp_path / f"run_{curve.rule}_bootstrap.json").read_text())
            got = [payload["mean"], payload["std"], *payload["replicates"]]
            assert [v.hex() for v in got] == [
                v.hex() for v in (summary.mean, summary.std, *summary.replicates)
            ]

    @pytest.mark.parametrize("seed", [42, 0])
    def test_the_replicates_run_without_the_dataset(self, tmp_path, seed):
        # reading a 50k x 5 file peaks near 86 bytes a row; holding its ids,
        # labels and probabilities (64 bytes a row) through the ranking and
        # the replicates peaked at 132 (seed 42) and 111 (seed 0)
        n = 50_000
        data = tmp_path / "data.csv"
        assert run(["synth", "--n", n, "--k", 5, "--noise", 1.2, "--miscal", 1.5,
                    "--seed", 1, "--output", data]) == 0
        peak, _, rc = traced_peak(run, ["rsc", "--input", data, "--bootstrap", 3,
                                        "--seed", seed, "--output-prefix", tmp_path / "run"])
        assert rc == 0 and peak < 100 * n

    BAD_FLAGS = [
        ("rsc", "--threads", 0, "InvalidConfig"),
        ("rsc", "--threads", MAX_THREADS + 1, "InvalidConfig"),
        ("rsc", "--bootstrap", 0, "InvalidConfig"),
        ("rsc", "--bootstrap", MAX_REPLICATES + 1, "InvalidConfig"),
        ("rsc", "--metric", "bogus", "UnknownMetric"),
        ("score", "--rule", "bogus", "UnknownRule"),
        ("rsc", "--fractions", "1.0:0.5", "InvalidConfig"),
        ("rsc", "--rules", ",", "UnknownRule"),
        ("evaluate", "--bins", 0, "ZeroBins"),
        ("evaluate", "--bins", 2 * MAX_ECE_BINS, "InvalidConfig"),
    ]

    @pytest.mark.parametrize(
        "command, flag, value, error",
        BAD_FLAGS,
        ids=[f"{flag}-{value}" for _, flag, value, _ in BAD_FLAGS],
    )
    def test_counts_out_of_range_fail_before_reading(
        self, tmp_path, capsys, command, flag, value, error
    ):
        # the input does not exist: a check made after reading would say
        # FileNotFoundError
        required = {
            "rsc": ["--output-prefix", tmp_path / "x"],
            "score": ["--output", tmp_path / "x.csv"],
            "evaluate": [],
        }
        rc = run([command, "--input", tmp_path / "missing.csv", flag, value,
                  *required[command]])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}:") and str(value) in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "spec", ["1.0:0.00001:0.00001", "1.0:1e-9:1e-12", "1.0:0.5:1e-320", "nan:0.5:0.1"]
    )
    def test_oversized_fraction_grid_fails_before_it_is_built(
        self, tmp_path, capsys, monkeypatch, spec
    ):
        # 10**5 fractions would take ~3 MB, 10**12 would exhaust memory, and
        # a subnormal step gives an infinite count: each must fail on the
        # count alone, before the grid's list exists (a broken check fails
        # on the first element rather than trying to build it)
        def built(*args):
            raise AssertionError("grid built before its size was checked")

        monkeypatch.setattr(cli, "round", built, raising=False)
        peak, _, rc = traced_peak(run, ["rsc", "--input", tmp_path / "missing.csv",
                                        "--fractions", spec, "--output-prefix", tmp_path / "x"])
        assert rc == 1 and peak < 256 * 1024
        assert capsys.readouterr().err.startswith("error: InvalidConfig:")
        assert list(tmp_path.iterdir()) == []

    def test_largest_fraction_grid_is_accepted_and_documented(self, capsys):
        grid = cli._parse_fraction_spec(f"1.0:{1 / MAX_FRACTIONS}:{1 / MAX_FRACTIONS}")
        assert len(grid) == MAX_FRACTIONS and grid[0] == 1.0
        with pytest.raises(SystemExit):
            run(["rsc", "--help"])
        assert f"2 to {MAX_FRACTIONS} fractions" in " ".join(capsys.readouterr().out.split())

    def test_default_fraction_spec_is_the_library_default(self):
        # the CLI states its default grid as a spec, the library as a tuple
        grid = cli._parse_fraction_spec(cli.DEFAULT_FRACTION_SPEC)
        assert grid == retention.DEFAULT_FRACTIONS

    def test_call_counts(self, tmp_path, monkeypatch):
        # each rule is scored once, a block of replicates is drawn once for
        # all rules, and the curves of all rules and each block are one qwk
        # call
        data = self._synth(tmp_path, n=2000)
        counts = {"rule": 0, "draw": 0, "qwk": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        for rule, fn in list(scoring.RULES.items()):
            monkeypatch.setitem(scoring.RULES, rule, counted("rule", fn))
        monkeypatch.setattr(_rng, "resample_block", counted("draw", _rng.resample_block))
        monkeypatch.setattr(retention, "qwk", counted("qwk", retention.qwk))
        replicates = 20
        assert run(["rsc", "--input", data, "--bootstrap", replicates,
                    "--output-prefix", tmp_path / "c"]) == 0
        blocks = math.ceil(replicates / max(1, retention._BLOCK_DRAWS // 2000))
        assert blocks > 1
        assert counts == {"rule": 4, "draw": blocks, "qwk": 1 + blocks}


ROOT = Path(__file__).resolve().parent.parent
DEMO_OUTPUT = ROOT / "demos" / "output"


def program(*argv, stdout=subprocess.PIPE, closed=None):
    """``python -m ordeval.cli *argv`` in a fresh interpreter, with stdout
    block-buffered as it is on a pipe or a file, and the file descriptor
    ``closed``, when given, closed before it starts."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable, "-m", "ordeval.cli", *map(str, argv)],
        stdout=stdout, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        preexec_fn=None if closed is None else lambda: os.close(closed),
    )


# closing a descriptor between fork and exec needs preexec_fn
closes_fds = pytest.mark.skipif(os.name != "posix", reason="needs POSIX fork and exec")


class TestProgramEntry:
    """``cli.run`` ends the process without the interpreter's teardown:
    stdout must still arrive whole, and every exit status stay as
    documented."""

    def test_evaluate_json_arrives_whole_through_a_pipe(self, perfect_file, capsys):
        assert run(["evaluate", "--input", perfect_file]) == 0
        printed = capsys.readouterr().out
        child = program("evaluate", "--input", perfect_file)
        assert (child.returncode, child.stdout, child.stderr) == (0, printed, "")
        assert json.loads(child.stdout)["type"] == "metric_report"

    def test_missing_input_exits_1_with_one_error_line(self, tmp_path):
        child = program("evaluate", "--input", tmp_path / "missing.csv")
        assert (child.returncode, child.stdout) == (1, "")
        assert child.stderr.startswith("error: FileNotFoundError: ")
        assert child.stderr.count("\n") == 1

    def test_usage_error_exits_2(self):
        child = program("evaluate")
        assert child.returncode == 2
        assert "the following arguments are required: --input" in child.stderr

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /dev/full")
    def test_unwritable_stdout_exits_1_with_one_error_line(self, tmp_path):
        # the files are in place before the summary table fails to reach
        # stdout, at the flush before the process ends
        data = tmp_path / "p.csv"
        assert run(["synth", "--n", 200, "--k", 3, "--output", data]) == 0
        with open("/dev/full", "w") as full:
            child = program("rsc", "--input", data, "--bootstrap", 5,
                            "--output-prefix", tmp_path / "r", stdout=full)
        assert child.returncode == 1
        assert child.stderr.startswith("error: OSError: [Errno 28] ")
        assert child.stderr.count("\n") == 1
        assert len(list(tmp_path.glob("r_*"))) == 9
        assert not list(tmp_path.glob(".tmp-*~"))

    @closes_fds
    @pytest.mark.parametrize("command", [
        ["evaluate"], ["score", "--rule", "rps", "--output", "s.csv"],
        ["rsc", "--bootstrap", 5, "--output-prefix", "r"],
    ])
    def test_closed_stdout_fails_a_command_that_prints(self, perfect_file, tmp_path, command):
        # started with fd 1 closed, sys.stdout is None and print drops the
        # output: a command whose output is lost must not exit 0
        cmd, *flags = command
        flags = [tmp_path / f if f in ("s.csv", "r") else f for f in flags]
        child = program(cmd, "--input", perfect_file, *flags, stdout=None, closed=1)
        assert child.returncode == 1
        assert child.stderr == "error: OSError: [Errno 9] stdout is closed\n"

    @closes_fds
    def test_closed_stdout_passes_a_command_that_prints_nothing(self, tmp_path):
        out = tmp_path / "p.csv"
        child = program("synth", "--n", 20, "--k", 3, "--output", out, stdout=None, closed=1)
        assert (child.returncode, child.stderr) == (0, "")
        child = program("evaluate", "--input", out, "--output", tmp_path / "e.json",
                        stdout=None, closed=1)
        assert (child.returncode, child.stderr) == (0, "")
        assert json.loads((tmp_path / "e.json").read_text())["type"] == "metric_report"

    @closes_fds
    def test_closed_stderr_fails_a_failing_run_with_status_1(self, tmp_path):
        # the error line has nowhere to go, and must not go to stdout
        child = program("evaluate", "--input", tmp_path / "missing.csv", closed=2)
        assert (child.returncode, child.stdout, child.stderr) == (1, "", "")

    def test_console_script_is_the_program_entry(self):
        # a string match, as tomllib needs Python 3.11
        pyproject = (ROOT / "pyproject.toml").read_text()
        assert '\n[project.scripts]\nordeval = "ordeval.cli:run"\n' in pyproject


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
