"""Smoke test of the benchmark harness at tiny input sizes.

    python3 perfbench/smoke.py

Checks that every end-to-end and per-layer metric is emitted with the unit
BENCHMARK.json gives it, that each layer a workload calls reports work,
that span call counts repeat exactly across two traced runs, that a
corrupted output file is counted as a failure (by the oracle check on the
first iteration and by the digest check on a later one), and that the
driver fails without a result outside an ordeval checkout. Exits non-zero
on the first failed assertion.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "rsc-50k": lambda: run.RscLarge(n=600, replicates=4),
    "rsc-small-tied": lambda: run.RscTied(files=2, n=300, replicates=6),
    "files-200k": lambda: run.FilesPipeline(n=2500),
}

RSC_LAYERS = {
    "retention.bootstrap_aursc.s",
    "retention.replicate_s",
    "retention.sample_retention_curve.s",
    "hard.confusion_from_arrays.calls",
    "rng.resample_indices.calls",
    "scoring.rule.calls",
    "scoring.rule.calls_per_rule",
    "io.read_predictions.calls",
    "io.bytes_read",
    "io.write_report.calls",
    "io.render_curve_svg.s",
    "io.bytes_written",
    "data.validate_dataset.calls",
    "cli.main.s",
    "cli.self_s",
}
# rsc scores every rule twice today (curve and bootstrap); score/evaluate once
CALLS_PER_RULE = {"rsc-50k": 2.0, "rsc-small-tied": 2.0, "files-200k": 1.0}
# per-layer metrics that must be non-zero on each workload: the layers it calls
CALLED = {
    "rsc-50k": RSC_LAYERS | {"hard.qwk.calls", "hard.qwk.s"},
    "rsc-small-tied": RSC_LAYERS | {"hard.expected_cost.calls", "hard.expected_cost.s"},
    "files-200k": {
        "synth.generate.s",
        "io.write_predictions.s",
        "io.read_predictions.calls",
        "io.bytes_read",
        "io.bytes_written",
        "data.validate_dataset.calls",
        "retention.rank_samples.s",
        "hard.metric_report.s",
        "hard.ece.s",
        "scoring.rule.calls",
        "cli.main.s",
        "cli.self_s",
    },
}


def quiet(line):
    pass


def check_units():
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert listed == table, f"BENCHMARK.json {key} differs from run.py: {listed} vs {table}"
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def check_metrics(name):
    lines = []
    result = run.bench(TINY[name](), 5, 0.5, 0, out=lines.append)
    assert result["correct"] and result["failed"] == 0, (name, lines)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == run.END_TO_END, (name, got)
    assert all(v["value"] > 0 for v in result["metrics"].values()), result
    printed = (("wall_s_p50", "s"), ("rows_per_s", "rows/s"), ("wall_s_tail", "s"), ("failed_ratio", "ratio"))
    for metric, unit in printed:
        assert any(line.split()[:1] == [metric] and f" {unit} " in line for line in lines), (metric, lines)

    traced = [run.bench(TINY[name](), 5, 0.5, 1, out=quiet) for _ in range(2)]
    for result in traced:
        assert result["correct"], (name, result)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == run.PER_LAYER, (name, got)
        zero = [m for m in CALLED[name] if not result["metrics"][m]["value"] > 0]
        assert not zero, f"{name}: no work reported for {zero}"
        assert result["metrics"]["scoring.rule.calls_per_rule"]["value"] == CALLS_PER_RULE[name]
    counts = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")} for r in traced]
    assert counts[0] == counts[1], f"{name}: call counts differ: {counts}"
    print(f"ok  {name}: {len(run.END_TO_END)} end-to-end and {len(run.PER_LAYER)} per-layer metrics")


def check_corruption(iteration):
    """Truncate ``score``'s output after its ``iteration``-th run."""
    original = run.Spawner.run
    seen = []

    def corrupting(spawner, cmd, stdout_path, deadline):
        child = original(spawner, cmd, stdout_path, deadline)
        if "score" in cmd:
            seen.append(cmd)
            if len(seen) == iteration:
                path = Path(run.ROOT, cmd[cmd.index("--output") + 1])
                lines = path.read_text().splitlines(keepends=True)
                path.write_text("".join(lines[:-1]))
        return child

    run.Spawner.run = corrupting
    try:
        result = run.bench(TINY["files-200k"](), 5, 0.5, 0, out=quiet)
    finally:
        run.Spawner.run = original
    assert result["failed"] == 1 and not result["correct"], result
    print(f"ok  a truncated score file in iteration {iteration} is counted: "
          f"{result['failed']} of {result['attempted']} failed")


def check_bare_directory():
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in BENCHMARK["paths"]:
        shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        BENCHMARK["command"] + ["--workload", "rsc-50k", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and "{" not in proc.stdout, (proc.returncode, proc.stdout)
    print(f"ok  outside a checkout the driver exits {proc.returncode} without a result")


def main():
    run.WORK = run.ROOT / ".perfbench_work" / "smoke"
    check_units()
    for name in TINY:
        check_metrics(name)
    check_corruption(1)
    check_corruption(2)
    check_bare_directory()
    shutil.rmtree(run.WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
