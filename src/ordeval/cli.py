"""Command-line interface.

Subcommands:

- ``score``     per-sample scores under one rule, worst first
- ``evaluate``  dataset-level metric report (accuracy, qwk, ec, ece)
- ``rsc``       retention curves with bootstrapped AURSC, per rule
- ``synth``     synthetic prediction files

Every run is deterministic given its flags and inputs; outputs carry no
timestamps, and the effective configuration is echoed into JSON outputs.
The exit status is 0 on success; 1 on any failure, a stdout that is closed
or cannot be written included, with a one-line message naming the error;
and 2 on a usage error. ``run``, the program entry, ends the process
without the interpreter's teardown once every output file is in place and
stdout and stderr are flushed; ``main`` only returns the status.

Each command checks its flags, then that its first output's directory
exists, before it reads its input or generates data. Only ``synth`` loads
the generator, which ``cmd_synth`` imports once that check has passed.

``synth``, ``score`` and ``evaluate`` make no dataset: they take their
rows as the validated blocks of ``data._consume`` and keep only what
their outputs need. ``synth`` writes each block as it comes; ``score``
keeps each row's id, confusion cell and score; ``evaluate`` keeps each
row's confidence and four rule scores and adds up the confusion and ECE
bin counts a block at a time. ``rsc`` reads the whole dataset.
"""

import argparse
import errno
import math
import os
import sys

import numpy as np

from . import io
from .data import MAX_CELLS, MAX_CLASSES, MODES, CostMatrix, _consume
from .errors import EvalError, InvalidConfig, UnknownRule
from .hard import DEFAULT_ECE_BINS, MAX_ECE_BINS, _cells, _streamed_report, check_bins
from .retention import (
    DEFAULT_REPLICATES,
    DEFAULT_SEED,
    MAX_FRACTIONS,
    MAX_REPLICATES,
    METRICS,
    _bootstrap,
    _order,
    _rankings,
    check_bootstrap,
    check_fractions,
    check_metric,
)
from .scoring import RULES, _rule_fn

DEFAULT_FRACTION_SPEC = "1.0:0.05:0.05"
MAX_THREADS = 64  # --threads is accepted for compatibility and changes nothing


def _parse_fraction_spec(spec: str) -> tuple:
    """Expand "start:stop:step" into a decreasing fraction grid.

    The grid's size is checked before it is built, so a tiny step fails at
    once instead of exhausting memory.
    """
    try:
        start, stop, step = (float(v) for v in spec.split(":"))
    except ValueError:
        raise InvalidConfig(
            f"fraction spec must be start:stop:step, got {spec!r}"
        ) from None
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or start < stop:
        raise InvalidConfig(f"fraction spec must decrease from start to stop: {spec!r}")
    steps = (start - stop) / step + 0.5  # inf when step is tiny
    if steps >= MAX_FRACTIONS:
        raise InvalidConfig(
            f"fraction spec {spec!r} gives more than {MAX_FRACTIONS} fractions"
        )
    count = math.floor(steps) + 1
    grid = [round(start - i * step, 10) for i in range(count)]
    return check_fractions(grid)


def _read_cost(choice: str) -> CostMatrix | None:
    """The matrix in a ``--cost`` file, or None for a named one. The file is
    read before the input, so a bad one fails at once."""
    return None if choice in ("linear", "quadratic") else io.read_cost_matrix(choice)


def _resolve_cost(choice: str, cost: CostMatrix | None, num_classes: int) -> CostMatrix:
    if cost is None:
        return (CostMatrix.linear if choice == "linear" else CostMatrix.quadratic)(num_classes)
    if cost.num_classes != num_classes:
        raise InvalidConfig(
            f"cost matrix is {cost.num_classes}x{cost.num_classes}, "
            f"dataset has {num_classes} classes"
        )
    return cost


def _parse_rules(spec: str) -> list[str]:
    rules = list(dict.fromkeys(r.strip() for r in spec.split(",") if r.strip()))
    if not rules:
        raise UnknownRule(f"no rules given in {spec!r}")
    for r in rules:
        _rule_fn(r)  # raises UnknownRule before any output is written
    return rules


def cmd_score(args) -> int:
    score = _rule_fn(args.rule)  # raises UnknownRule before the input is read
    io._check_output_dir(args.output)

    def scored(k, bound, blocks):
        # each row's id, its label and argmax as one cell (a byte up to 16
        # classes) and its score: 33 bytes a row with the stream's hashes
        ids = np.empty(bound, dtype=np.dtypes.StringDType())
        cells = np.empty(bound, dtype=np.min_scalar_type(k * k - 1))
        scores = np.empty(bound)
        n = 0
        for names, labels, probs in blocks:
            lo, n = n, n + len(labels)
            ids[lo:n], cells[lo:n] = names, _cells(labels, probs)[1]
            scores[lo:n] = score(probs, labels)
        return k, ids[:n], cells[:n], scores[:n]

    k, ids, cells, scores = io._consume_file(args.input, args.label_base, scored)
    order = _order(scores)
    io.write_scores(ids, cells, k, order, scores, args.output)
    _check_stdout()
    print(f"worst samples by {args.rule}:")
    for i in order[:5]:
        sid = ids[i]
        label, argmax = divmod(int(cells[i]), k)
        # an id with a line break or other control character would split
        # or garble its line; such ids print as Python literals
        print(
            f"  id={sid if sid.isprintable() else repr(sid)}  label={label}  "
            f"argmax={argmax}  score={scores[i]:.6f}"
        )
    return 0


def cmd_evaluate(args) -> int:
    check_bins(args.bins)
    if args.output:
        io._check_output_dir(args.output)
    cost = _read_cost(args.cost)
    report = io._consume_file(
        args.input,
        args.label_base,
        lambda k, bound, blocks: _streamed_report(
            k, bound, blocks, args.bins, lambda k: _resolve_cost(args.cost, cost, k)
        ),
        keep_ids=False,
    )
    config = {
        "input": args.input,
        "cost": args.cost,
        "bins": args.bins,
        "label_base": args.label_base,
    }
    if args.output:
        io.write_report(report, args.output, config=config)
    else:
        _check_stdout()
        print(io.report_json(report, config))
    return 0


def cmd_rsc(args) -> int:
    rules = _parse_rules(args.rules)
    fractions = _parse_fraction_spec(args.fractions)
    check_bootstrap(args.bootstrap)
    if not 1 <= args.threads <= MAX_THREADS:
        raise InvalidConfig(f"threads must be 1 to {MAX_THREADS}, got {args.threads}")
    check_metric(args.metric)
    io._check_output_dir(f"{args.output_prefix}_{rules[0]}_curve.csv")
    cost = _read_cost(args.cost)
    ds = io.read_predictions(args.input, label_base=args.label_base)
    k = ds.num_classes
    cost = _resolve_cost(args.cost, cost, k)
    # the steps of retention_analysis, with the dataset dropped as soon as
    # nothing reads it: the ranking reads the labels and probabilities, so
    # the record, the last reference to the ids (16 B a row), goes first
    labels, probs = ds.labels, ds.probs
    del ds
    cells, bests = _rankings(labels, probs, rules, fractions)
    # the replicates read only the cells and rankings, so the labels and
    # probabilities are freed before them
    del labels, probs
    results = _bootstrap(
        cells, bests, k, rules, args.metric, fractions, args.bootstrap, args.seed, cost
    )

    # threads deliberately not echoed: results are a pure function of the
    # fields below
    config = {
        "input": args.input,
        "metric": args.metric,
        "fractions": list(fractions),
        "num_replicates": args.bootstrap,
        "seed": args.seed,
        "cost": args.cost,
        "label_base": args.label_base,
    }
    for curve, summary in results:
        io.write_report(curve, f"{args.output_prefix}_{curve.rule}_curve.csv", fmt="csv")
        io.write_report(
            summary,
            f"{args.output_prefix}_{curve.rule}_bootstrap.json",
            fmt="json",
            config={**config, "rule": curve.rule},
        )
    io.render_curve_svg([curve for curve, _ in results], f"{args.output_prefix}_curves.svg")

    header = f"AURSC-{args.metric} (R={args.bootstrap}, seed={args.seed})"
    _check_stdout()
    print(f"{'rule':<8}  {'aursc':>10}  {header}")
    for curve, summary in results:
        print(
            f"{curve.rule:<8}  {curve.aursc:>10.4f}  "
            f"{summary.mean:.4f} +/- {summary.std:.4f}"
        )
    return 0


def cmd_synth(args) -> int:
    io._check_output_dir(args.output)
    from .synth import SynthConfig, _blocks, _check_config, generate

    cfg = SynthConfig(
        n=args.n,
        k=args.k,
        noise=args.noise,
        miscal=args.miscal,
        mode=args.mode,
        seed=args.seed,
    )
    _check_config(cfg)
    # each block is written as it is made and checked, and only the ids'
    # hashes are kept: a repeat among them ends the stream before the file
    # is renamed into place, and the dataset path writes it again
    def write(k, bound, blocks):
        io._write_predictions(k, blocks, args.output)

    _consume(write, cfg.k, cfg.n, _blocks(cfg), lambda: generate(cfg))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordeval",
        description="Evaluate probabilistic predictions of ordinal classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # flags shared by the subcommands that read a prediction file
    dataset = argparse.ArgumentParser(add_help=False)
    dataset.add_argument("--input", required=True, help="prediction CSV")
    dataset.add_argument("--label-base", type=int, default=0, help="0 or 1 (file labels)")
    costed = argparse.ArgumentParser(add_help=False)
    costed.add_argument("--cost", default="linear", help="linear | quadratic | path to cost CSV")

    p = sub.add_parser(
        "score", parents=[dataset], help="per-sample scores under one rule, worst first"
    )
    p.add_argument("--rule", required=True, help=" | ".join(RULES))
    p.add_argument("--output", required=True, help="scores CSV to write")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("evaluate", parents=[dataset, costed], help="dataset-level metric report")
    p.add_argument(
        "--bins", type=int, default=DEFAULT_ECE_BINS, help=f"ECE bins, 1 to {MAX_ECE_BINS}"
    )
    p.add_argument("--output", default=None, help="report JSON (default: stdout)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "rsc", parents=[dataset, costed], help="retention curves with bootstrapped AURSC"
    )
    p.add_argument("--rules", default=",".join(RULES), help="comma-separated rule list")
    p.add_argument("--metric", default="qwk", help=" | ".join(METRICS))
    p.add_argument(
        "--fractions",
        default=DEFAULT_FRACTION_SPEC,
        help=f"retention grid as start:stop:step, 2 to {MAX_FRACTIONS} fractions",
    )
    p.add_argument(
        "--bootstrap",
        type=int,
        default=DEFAULT_REPLICATES,
        help=f"replicate count, 1 to {MAX_REPLICATES}",
    )
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="0 = no resampling")
    p.add_argument("--output-prefix", required=True, help="prefix for output files")
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help=f"accepted for compatibility, 1 to {MAX_THREADS}; changes nothing",
    )
    p.set_defaults(func=cmd_rsc)

    p = sub.add_parser("synth", help="generate a synthetic prediction CSV")
    p.add_argument(
        "--n", type=int, required=True, help=f"sample count; n * k at most {MAX_CELLS:,}"
    )
    p.add_argument("--k", type=int, required=True, help=f"class count, 2 to {MAX_CLASSES}")
    p.add_argument("--noise", type=float, default=1.0)
    p.add_argument("--miscal", type=float, default=1.0)
    p.add_argument("--mode", default="ordinal", help=" | ".join(MODES))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--output", required=True, help="prediction CSV to write")
    p.set_defaults(func=cmd_synth)

    return parser


def _check_stdout() -> None:
    """Fail a command that has output to print when the process has no
    stdout: started with fd 1 closed, ``sys.stdout`` is None, and ``print``
    would drop the output without a word."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, "stdout is closed")


def _fail(exc: Exception) -> int:
    if sys.stderr is not None:  # else print(file=None) would write to stdout
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    """Run one command; return its exit status. A usage error raises
    argparse's ``SystemExit``."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EvalError, OSError) as exc:
        return _fail(exc)


def run() -> None:
    """The program entry: ``main()``, then the end of the process.

    Every output file is closed and renamed into place before ``main``
    returns, so once stdout and stderr are flushed the process ends with
    ``os._exit``, skipping the interpreter's teardown: clearing the modules
    and full garbage collections over the objects NumPy leaves behind. It
    also skips ``atexit`` handlers. A stdout that cannot take the flush
    fails the run like any other write. An exception, argparse's
    ``SystemExit`` among them, leaves through the interpreter as usual.
    """
    status = main()
    try:
        if sys.stdout is not None:  # None when the process starts with fd 1 closed
            sys.stdout.flush()
    except OSError as exc:
        status = status or _fail(exc)  # a run that failed has said why
    if sys.stderr is not None:  # None when the process starts with fd 2 closed
        sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
