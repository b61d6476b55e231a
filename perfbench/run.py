"""Benchmark of the ``ordeval`` command-line pipeline.

    python3 perfbench/run.py --workload rsc-50k --seed 1 --seconds 34 --trace 0

One driver process generates the workload's input files from ``--seed``,
then runs the workload's ``ordeval`` invocations as fresh child processes
(started by ``spawner.py``), one at a time: a closed loop with one client,
``--threads 1``, and one BLAS thread per child, all pinned to one CPU. It
runs at least 3 iterations, and more while they fit in ``--seconds``
seconds. Around each invocation it runs the fixed task in ``calibrate.py``,
and the gated times are normalised by it. Every output is checked, and the
last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``END_TO_END``);
with ``--trace 1`` half the time runs untraced and half runs each
invocation through ``tracer.py``, and the metrics are per layer
(``PER_LAYER``). See README.md in this directory for the workloads and for
which layer metric should move which end-to-end metric.

Work files go to ``.perfbench_work/<workload>/`` at the repository root.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from calibrate import REFERENCE_S, Calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REQUIRED = (SRC / "ordeval" / "cli.py", ROOT / "tests" / "reference.py")

RULES = ("brier", "log", "rps", "sa_rps")
MIN_ITERATIONS = 3
SETUP_SAMPLES = 10
# every child is killed, and no new iteration starts, past these many seconds
# after the driver started, so a run always ends well inside 180 s
HARD_LIMIT_S = 165.0

END_TO_END = {
    "norm_wall_s_p50": "s",
    "norm_rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

SPAN_SECONDS = (
    "retention.bootstrap_aursc",
    "retention.sample_retention_curve",
    "retention.rank_samples",
    "hard.qwk",
    "hard.confusion_from_arrays",
    "hard.expected_cost",
    "hard.metric_report",
    "hard.ece",
    "rng.resample_indices",
    "scoring.rule",
    "io.read_predictions",
    "io.write_predictions",
    "io.write_report",
    "io.render_curve_svg",
    "data.validate_dataset",
    "synth.generate",
    "cli.main",
)
SPAN_CALLS = (
    "hard.qwk",
    "hard.confusion_from_arrays",
    "hard.expected_cost",
    "rng.resample_indices",
    "scoring.rule",
    "io.read_predictions",
    "io.write_report",
    "data.validate_dataset",
)
PER_LAYER = {
    **{f"{name}.s": "s" for name in SPAN_SECONDS},
    **{f"{name}.calls": "count" for name in SPAN_CALLS},
    "retention.replicate_s": "s",
    "scoring.rule.calls_per_rule": "calls/rule",
    "io.bytes_read": "bytes",
    "io.bytes_written": "bytes",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Invocation:
    """One ``ordeval`` command of an iteration and how to check it."""

    argv: list  # arguments after ``ordeval``
    outputs: list  # files it writes, in digest order
    rows: int  # input rows it processes
    check: object  # check(stdout bytes) -> list of problems


@dataclass
class Child:
    wall: float
    code: int
    rss_mb: float
    calibration: float = 0.0  # mean Calibration.run seconds just before and after


@dataclass
class Iteration:
    wall: float  # summed wall seconds of its children
    elapsed: float  # seconds it took, calibrations included
    children: list


# ---------------------------------------------------------------- workloads


def _synth(**config):
    from ordeval.synth import SynthConfig, generate

    return generate(SynthConfig(**config))


def _rsc_argv(path, prefix, metric, replicates, threads, cost=None):
    argv = ["rsc", "--input", str(path), "--metric", metric]
    argv += ["--bootstrap", str(replicates), "--threads", str(threads)]
    if cost:
        argv += ["--cost", cost]
    return argv + ["--output-prefix", str(prefix)]


def _rsc_outputs(prefix):
    names = [f"{prefix}_{rule}_{kind}" for rule in RULES for kind in ("curve.csv", "bootstrap.json")]
    return names + [f"{prefix}_curves.svg"]


class RscLarge:
    """``ordeval rsc`` on one large file: the bootstrap dominates."""

    name = "rsc-50k"

    def __init__(self, n=50_000, k=5, replicates=50):
        self.n, self.k, self.replicates = n, k, replicates

    def prepare(self, seed, work):
        import checks
        from ordeval.io import write_predictions

        self.input = work / "input.csv"
        ds = _synth(n=self.n, k=self.k, noise=1.2, miscal=1.5, seed=seed)
        write_predictions(ds, str(self.input))
        self.data = checks.Predictions(self.input)

    def invocations(self, work, threads=1, tag=""):
        import checks

        prefix = work / f"out{tag}" / "rsc"
        prefix.parent.mkdir(exist_ok=True)
        argv = _rsc_argv(self.input, prefix, "qwk", self.replicates, threads)

        def check(stdout):
            return checks.check_rsc(
                prefix, stdout, self.data, RULES, "qwk", "linear", self.replicates, plain=True
            )

        return [Invocation(argv, _rsc_outputs(prefix), self.n, check)]


def quantize_tenths(probs):
    """Round each row to multiples of 0.1 summing to 1 (largest remainder;
    equal remainders go to the lower class)."""
    import numpy as np

    scaled = probs * 10.0
    tenths = np.floor(scaled).astype(np.int64)
    deficit = 10 - tenths.sum(axis=1)
    order = np.argsort(-(scaled - tenths), axis=1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(probs.shape[1])[None, :], axis=1)
    return tenths + (rank < deficit[:, None])


class RscTied:
    """``ordeval rsc --metric ec`` on many small files of tied scores."""

    name = "rsc-small-tied"

    def __init__(self, files=10, n=2_000, k=7, replicates=200):
        self.files, self.n, self.k, self.replicates = files, n, k, replicates

    def prepare(self, seed, work):
        import checks

        self.inputs, self.data = [], []
        for f in range(self.files):
            ds = _synth(n=self.n, k=self.k, noise=1.2, miscal=1.5, seed=seed * 1000 + f)
            tenths = quantize_tenths(ds.probs)
            lines = [",".join(["id", "label"] + [f"p{i}" for i in range(self.k)])]
            for sid, label, row in zip(ds.ids, ds.labels, tenths):
                lines.append(",".join([sid, str(int(label))] + [str(q / 10) for q in row]))
            path = work / f"input{f}.csv"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            self.inputs.append(path)
            self.data.append(checks.Predictions(path))

    def invocations(self, work, threads=1, tag=""):
        import checks

        result = []
        for f in range(self.files):
            prefix = work / f"out{tag}" / f"rsc{f}"
            prefix.parent.mkdir(exist_ok=True)
            argv = _rsc_argv(self.inputs[f], prefix, "ec", self.replicates, threads, "quadratic")

            def check(stdout, prefix=prefix, data=self.data[f]):
                return checks.check_rsc(
                    prefix, stdout, data, RULES, "ec", "quadratic", self.replicates, plain=False
                )

            result.append(Invocation(argv, _rsc_outputs(prefix), self.n, check))
        return result


class FilesPipeline:
    """``ordeval synth`` -> ``score`` -> ``evaluate`` on one large file."""

    name = "files-200k"

    def __init__(self, n=200_000, k=5):
        self.n, self.k = n, k

    def prepare(self, seed, work):
        self.seed = seed
        self.data = None

    def invocations(self, work, threads=1, tag=""):
        import checks

        preds, scores, report = work / "preds.csv", work / "scores.csv", work / "report.json"

        def check_synth(stdout):
            problems = checks.check_synth(preds, self.n, self.k)
            self.data = checks.Predictions(preds)
            return problems

        synth = ["synth", "--n", str(self.n), "--k", str(self.k), "--seed", str(self.seed)]
        return [
            Invocation(synth + ["--output", str(preds)], [preds], self.n, check_synth),
            Invocation(
                ["score", "--input", str(preds), "--rule", "sa_rps", "--output", str(scores)],
                [scores],
                self.n,
                lambda stdout: checks.check_score(scores, stdout, self.data, "sa_rps"),
            ),
            Invocation(
                ["evaluate", "--input", str(preds), "--cost", "quadratic", "--bins", "15",
                 "--output", str(report)],
                [report],
                self.n,
                lambda stdout: checks.check_evaluate(report, self.data, "quadratic", 15),
            ),
        ]


WORKLOADS = {w.name: w for w in (RscLarge, RscTied, FilesPipeline)}


# ------------------------------------------------------------------ children


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Spawner:
    """Runs children through spawner.py, so their max RSS is their own."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT, start_new_session=True,
        )

    def run(self, cmd, stdout_path, deadline):
        """Run one child to completion; killed if still running at
        ``deadline`` (time.monotonic)."""
        request = {"cmd": cmd, "stdout": str(stdout_path), "timeout": deadline - time.monotonic()}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawner.py exited")
        return Child(**json.loads(reply))

    def __enter__(self):
        return self

    def __exit__(self, kind, value, tb):
        if kind is not None:  # also stops a child still running
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def digest(stdout, outputs):
    h = hashlib.sha256(stdout)
    for path in outputs:
        try:
            h.update(Path(ROOT, path).read_bytes())
        except FileNotFoundError:
            h.update(b"<missing>")
    return h.hexdigest()


def check_problems(inv, stdout):
    try:
        return inv.check(stdout)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{inv.argv[0]}: check failed: {type(exc).__name__}: {exc}"]


# -------------------------------------------------------------------- driver


class Bench:
    """One run of one workload: its iterations, failures and checked outputs."""

    def __init__(self, workload, work, started, spawner):
        self.workload, self.work, self.spawner = workload, work, spawner
        self.calibration = Calibration()
        self.deadline = started + HARD_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = {}  # invocation index -> digest of output that passed its check
        self.setup = []  # setup_s samples, as Child

    def iteration(self, invocations, spans=None):
        """Run one iteration, with the calibration task before and after
        each invocation, then check its outputs."""
        for inv in invocations:
            for path in inv.outputs:
                Path(ROOT, path).unlink(missing_ok=True)
        children = []
        start = time.perf_counter()
        before = self.calibration.run()
        for j, inv in enumerate(invocations):
            if spans is None:
                cmd = [sys.executable, "-m", "ordeval.cli", *inv.argv]
            else:
                cmd = [sys.executable, str(HERE / "tracer.py"), str(spans[j]), "--", *inv.argv]
            child = self.spawner.run(cmd, self.work / f"stdout{j}.txt", self.deadline)
            after = self.calibration.run()
            child.calibration = (before + after) / 2
            children.append(child)
            before = after
        elapsed = time.perf_counter() - start

        for j, (inv, child) in enumerate(zip(invocations, children)):
            self.outcome(inv, child, j)
        return Iteration(sum(child.wall for child in children), elapsed, children)

    def outcome(self, inv, child, j, reference=None):
        """Count one invocation. It fails on a non-zero exit; else, until
        invocation ``j`` has passed its oracle check once, on that check;
        after that, on output that differs from the checked output (or from
        ``reference``, when given)."""
        self.attempted += 1
        stdout = (self.work / f"stdout{j}.txt").read_bytes()
        got = digest(stdout, inv.outputs)
        expected = reference or self.reference.get(j)
        if child.code != 0:
            err = (self.work / f"stdout{j}.txt.err").read_text(errors="replace").strip()
            problems = [f"{inv.argv[0]} exited {child.code}: {err[-300:]}"]
        elif expected is None:
            problems = check_problems(inv, stdout)
            if not problems:
                self.reference[j] = got
        elif got != expected:
            problems = [f"{' '.join(inv.argv)}: output differs from the checked run"]
        else:
            problems = []
        if problems:
            self.failed += 1
            self.problems += problems

    def loop(self, invocations, seconds, minimum, spans=None, between=None):
        """At least ``minimum`` iterations, then more while the next one is
        expected (at the median so far) to end within ``seconds`` of
        iteration time, calibrations included, and before the hard limit.
        ``between()`` runs after each iteration, outside its time."""
        runs = []
        while len(runs) < minimum or sum(_elapsed(runs)) + statistics.median(_elapsed(runs)) <= seconds:
            if runs and time.monotonic() + max(_elapsed(runs)) > self.deadline:
                break
            runs.append(self.iteration(invocations, spans(len(runs)) if spans else None))
            if between:
                between()
        return runs

    def determinism(self):
        """Outside the timed loop: an rsc invocation with ``--threads 2``
        must be byte-identical to the first ``--threads 1`` run."""
        if not isinstance(self.workload, (RscLarge, RscTied)):
            return
        inv = self.workload.invocations(self.work, threads=2, tag="-t2")[0]
        cmd = [sys.executable, "-m", "ordeval.cli", *inv.argv]
        child = self.spawner.run(cmd, self.work / "stdout0.txt", self.deadline)
        self.outcome(inv, child, 0, reference=self.reference.get(0, "no checked output"))

    def sample_setup(self, count):
        """Time ``count`` fresh interpreters that import ordeval.cli, with
        the calibration task before and after them."""
        if not count:
            return
        cmd = [sys.executable, "-c", "import ordeval.cli"]
        before, children = self.calibration.run(), []
        for _ in range(count):
            child = self.spawner.run(cmd, self.work / "setup.txt", self.deadline)
            if child.code != 0:
                err = (self.work / "setup.txt.err").read_text(errors="replace")
                raise RuntimeError(f"import ordeval.cli failed: {err}")
            children.append(child)
        after = self.calibration.run()
        for child in children:
            child.calibration = (before + after) / 2
        self.setup += children


def _walls(runs):
    return [run.wall for run in runs]


def _elapsed(runs):
    return [run.elapsed for run in runs]


def normalised(child):
    """A child's wall seconds at the speed the machine has with its host
    quiet: its wall time x ``calibrate.REFERENCE_S`` / its calibration time."""
    return child.wall * REFERENCE_S / child.calibration


def typical_wall(runs, seconds=lambda child: child.wall):
    """Wall seconds of a typical iteration: the sum, over the iteration's
    invocations, of each invocation's median ``seconds(child)`` across
    iterations (``seconds=normalised`` for normalised seconds).

    Load from other tenants of the machine slows single invocations at
    random, so medians taken per invocation over all iterations vary less
    from run to run than the median of whole-iteration walls.
    """
    per_invocation = zip(*[[seconds(child) for child in run.children] for run in runs])
    return sum(statistics.median(walls) for walls in per_invocation)


def tail(samples):
    """(value, label): the highest percentile above the median with at least
    10 samples beyond it, or the maximum when there are too few samples."""
    xs = sorted(samples)
    n = len(xs)
    if n < 20:
        return xs[-1], f"max of {n} iterations (under 20, so no percentile above p50 has 10 beyond)"
    return xs[n - 11], f"p{100 * (n - 10) / n:.1f} of {n} iterations, 10 beyond"


def span_totals(spans_path):
    """name -> [calls, self ns, total ns] of one traced child, plus the
    counters, the ns its top-level spans cover, and the raw trace."""
    with open(spans_path, encoding="utf-8") as fh:
        trace = json.load(fh)
    spans = trace["spans"]
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals = {}
    for (index, start, end, _), inner in zip(spans, child_ns):
        entry = totals.setdefault(trace["names"][index], [0, 0, 0])
        entry[0] += 1
        entry[1] += end - start - inner
        entry[2] += end - start
    covered = sum(end - start for _, start, end, parent in spans if parent < 0)
    return totals, trace["counters"], covered, trace


def layer_metrics(totals, counters, iterations, overhead):
    def get(name, field):
        return totals.get(name, [0, 0, 0])[field] / iterations

    metrics = {f"{name}.s": get(name, 1) / 1e9 for name in SPAN_SECONDS}
    metrics.update({f"{name}.calls": get(name, 0) for name in SPAN_CALLS})
    replicates = counters.get("replicates", 0)
    metrics["retention.replicate_s"] = (
        totals["retention.bootstrap_aursc"][2] / 1e9 / replicates if replicates else 0.0
    )
    # rule calls per (invocation, rule it used): 1.0 when no rule is scored twice
    uses = counters.get("rule_uses", 0)
    metrics["scoring.rule.calls_per_rule"] = totals["scoring.rule"][0] / uses if uses else 0.0
    metrics["io.bytes_read"] = counters.get("io.bytes_read", 0) / iterations
    metrics["io.bytes_written"] = counters.get("io.bytes_written", 0) / iterations
    metrics["cli.self_s"] = sum(v[1] for k, v in totals.items() if k.startswith("cli.")) / 1e9 / iterations
    metrics["trace.overhead_s"] = overhead
    return metrics


def traced_run(bench, invocations, seconds, untraced_p50, out):
    """Per-layer metrics from iterations run through tracer.py."""
    def spans_for(iteration):
        return [bench.work / f"spans-{iteration}-{j}.json" for j in range(len(invocations))]

    runs = bench.loop(invocations, seconds, 1, spans=spans_for)
    walls = _walls(runs)
    totals, counters, per_iteration_calls, covered, missing = {}, {}, [], 0, set()
    with open(bench.work / "trace.jsonl", "w", encoding="utf-8") as trace_file:
        for i in range(len(walls)):
            calls = {}
            for j, path in enumerate(spans_for(i)):
                if not path.exists():  # the child failed before writing; counted already
                    continue
                child_totals, child_counters, child_covered, trace = span_totals(path)
                covered += child_covered
                missing.update(trace["missing"])
                for name, (n, self_ns, total_ns) in child_totals.items():
                    entry = totals.setdefault(name, [0, 0, 0])
                    entry[0] += n
                    entry[1] += self_ns
                    entry[2] += total_ns
                    calls[name] = calls.get(name, 0) + n
                for key, value in child_counters.items():
                    counters[key] = counters.get(key, 0) + value
                uses = sum(1 for key in child_counters if key.startswith("rule:"))
                counters["rule_uses"] = counters.get("rule_uses", 0) + uses
                json.dump({"iteration": i, "invocation": j, **trace}, trace_file, separators=(",", ":"))
                trace_file.write("\n")
                path.unlink()
            per_iteration_calls.append(calls)
    traced_p50 = typical_wall(runs)
    metrics = layer_metrics(totals, counters, len(walls), traced_p50 - untraced_p50)
    out(f"traced: {len(walls)} iterations, median {traced_p50:.4f} s "
        f"(untraced {untraced_p50:.4f} s); spans in {bench.work}/trace.jsonl")
    out(f"  {'span':<36}{'calls/iter':>12}{'self s/iter':>14}{'share':>8}")
    layers = {}
    for name, (n, self_ns, _) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
        per_iter = self_ns / 1e9 / len(walls)
        layers[name.split(".")[0]] = layers.get(name.split(".")[0], 0.0) + per_iter
        out(f"  {name:<36}{n / len(walls):>12g}{per_iter:>14.4f}{per_iter / traced_p50:>8.1%}")
    outside = sum(walls) / len(walls) - covered / 1e9 / len(walls)
    out(f"  {'(outside spans: start-up, imports)':<36}{'':>12}{outside:>14.4f}{outside / traced_p50:>8.1%}")
    out("  by layer: " + ", ".join(f"{k} {v:.4f} s" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))
    if missing:
        out("  not traced, no such name in the package: " + ", ".join(sorted(missing)))
    if any(calls != per_iteration_calls[0] for calls in per_iteration_calls):
        out("  WARNING: span call counts differ between traced iterations")
    return metrics


def end_to_end(b, invocations, seconds, out):
    """End-to-end metrics from untraced iterations."""
    # setup_s samples are spread over the run, two after each iteration,
    # so one burst of load elsewhere on the machine cannot skew them all
    runs = b.loop(
        invocations, seconds, MIN_ITERATIONS,
        between=lambda: b.sample_setup(min(2, SETUP_SAMPLES - len(b.setup))),
    )
    b.sample_setup(SETUP_SAMPLES - len(b.setup))
    walls = _walls(runs)
    norm_p50, p50 = typical_wall(runs, normalised), typical_wall(runs)
    rows = sum(inv.rows for inv in invocations)
    calibrations = [child.calibration for run in runs for child in run.children]
    metrics = {
        "norm_wall_s_p50": norm_p50,
        "norm_rows_per_s": rows / norm_p50,
        "peak_rss_mb": statistics.median(max(c.rss_mb for c in run.children) for run in runs),
        "setup_s": statistics.median(normalised(child) for child in b.setup),
        # printed, not gated: raw wall times move with the host's load
        "wall_s_p50": p50,
        "rows_per_s": rows / p50,
    }
    notes = {
        "norm_wall_s_p50": f"sum of per-invocation medians of wall x {REFERENCE_S} s / calibration: "
        f"{len(runs)} iterations x {len(invocations)} invocations",
        "norm_rows_per_s": f"{rows} rows per iteration / norm_wall_s_p50",
        "peak_rss_mb": "largest child max-RSS in an iteration, median over iterations",
        "setup_s": f"median of {SETUP_SAMPLES} fresh interpreters importing ordeval.cli, "
        f"normalised as above (not normalised: {statistics.median(c.wall for c in b.setup):.4f} s)",
        "wall_s_p50": "as norm_wall_s_p50 but not normalised "
        f"(median iteration wall {statistics.median(walls):.4f} s); printed, not gated",
        "rows_per_s": f"{rows} rows per iteration / wall_s_p50; printed, not gated",
    }
    units = {**END_TO_END, "wall_s_p50": "s", "rows_per_s": "rows/s"}
    for name, unit in units.items():
        out(f"  {name:<15} {metrics[name]:>14.6g} {unit:<7} {notes[name]}")
    tail_value, tail_label = tail(walls)
    out(f"  {'wall_s_tail':<15} {tail_value:>14.6g} {'s':<7} {tail_label}; printed, not gated")
    out("  iteration walls (s): " + " ".join(f"{w:.3f}" for w in walls))
    out("  normalised (s): " + " ".join(f"{sum(map(normalised, run.children)):.3f}" for run in runs))
    out(f"  calibration (s): median {statistics.median(calibrations):.4f}, "
        f"range {min(calibrations):.4f}-{max(calibrations):.4f} (reference {REFERENCE_S})")
    return metrics


def bench(workload, seed, seconds, trace, out=print):
    """Run one workload; returns the result object printed as the last line."""
    started = time.monotonic()
    os.chdir(ROOT)
    # the driver, its calibration task and every child share one CPU, so
    # the calibration sees the load that the children see
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    work = work.relative_to(ROOT)  # paths handed to the CLI do not depend on the checkout
    for path in (str(SRC), str(ROOT / "tests")):
        if path not in sys.path:
            sys.path.insert(0, path)

    out(f"{workload.name} seed {seed}, {'traced' if trace else 'untraced'}:")
    with Spawner() as spawner:
        b = Bench(workload, work, started, spawner)
        workload.prepare(seed, work)
        invocations = workload.invocations(work)
        b.sample_setup(1)  # warm-up: fills the bytecode and file caches
        b.setup.clear()
        if trace:
            untraced = typical_wall(b.loop(invocations, seconds / 2, 1))
            metrics = traced_run(b, invocations, seconds / 2, untraced, out)
        else:
            metrics = end_to_end(b, invocations, seconds, out)
        b.determinism()

    out(f"  {'failed_ratio':<15} {b.failed / b.attempted:>14.6g} {'ratio':<7} "
        f"{b.failed} of {b.attempted} invocations failed a check or exited non-zero")
    checked = [b.reference.get(j, "unchecked") for j in range(len(invocations))]
    out(f"  outputs sha256 {hashlib.sha256(''.join(checked).encode()).hexdigest()}")
    for problem in b.problems:
        out(f"  FAILED: {problem}")
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": b.failed == 0,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        print(f"error: not an ordeval checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    result = bench(WORKLOADS[args.workload](), args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
