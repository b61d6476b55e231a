"""Command-line interface.

Subcommands:

- ``score``     per-sample scores under one rule, worst first
- ``evaluate``  dataset-level metric report (accuracy, qwk, ec, ece)
- ``rsc``       retention curves with bootstrapped AURSC, per rule
- ``synth``     synthetic prediction files

Every run is deterministic given its flags and inputs; outputs carry no
timestamps, and the effective configuration is echoed into JSON outputs.
Failures exit with status 1 and a one-line message naming the error.
"""

import argparse
import math
import sys

from . import io
from .data import CostMatrix
from .errors import EvalError, InvalidConfig, UnknownRule
from .hard import DEFAULT_ECE_BINS, MAX_ECE_BINS, metric_report
from .retention import (
    DEFAULT_REPLICATES,
    DEFAULT_SEED,
    bootstrap_aursc,
    check_fractions,
    rank_samples,
    sample_retention_curve,
)
from .scoring import RULES, _rule_fn
from .synth import SynthConfig, generate

DEFAULT_FRACTION_SPEC = "1.0:0.05:0.05"


def _parse_fraction_spec(spec: str) -> tuple:
    """Expand "start:stop:step" into a decreasing fraction grid."""
    try:
        start, stop, step = (float(v) for v in spec.split(":"))
    except ValueError:
        raise InvalidConfig(
            f"fraction spec must be start:stop:step, got {spec!r}"
        ) from None
    if step <= 0 or start < stop:
        raise InvalidConfig(f"fraction spec must decrease from start to stop: {spec!r}")
    count = math.floor((start - stop) / step + 0.5) + 1
    grid = [round(start - i * step, 10) for i in range(count)]
    return check_fractions(grid)


def _resolve_cost(choice: str, num_classes: int) -> CostMatrix:
    if choice == "linear":
        return CostMatrix.linear(num_classes)
    if choice == "quadratic":
        return CostMatrix.quadratic(num_classes)
    cost = io.read_cost_matrix(choice)
    if cost.num_classes != num_classes:
        raise InvalidConfig(
            f"cost matrix is {cost.num_classes}x{cost.num_classes}, "
            f"dataset has {num_classes} classes"
        )
    return cost


def _parse_rules(spec: str) -> list[str]:
    rules = list(dict.fromkeys(r.strip() for r in spec.split(",") if r.strip()))
    if not rules:
        raise UnknownRule("no rules given")
    for r in rules:
        _rule_fn(r)  # raises UnknownRule before any output is written
    return rules


def cmd_score(args) -> int:
    ds = io.read_predictions(args.input, label_base=args.label_base)
    order, scores = rank_samples(ds, args.rule)
    io.write_scores(ds, order, scores, args.output)
    print(f"worst samples by {args.rule}:")
    for i in order[:5]:
        sid = ds.ids[i]
        # an id with a line break or other control character would split
        # or garble its line; such ids print as Python literals
        print(
            f"  id={sid if sid.isprintable() else repr(sid)}  label={ds.labels[i]}  "
            f"argmax={ds.probs[i].argmax()}  score={scores[i]:.6f}"
        )
    return 0


def cmd_evaluate(args) -> int:
    ds = io.read_predictions(args.input, label_base=args.label_base)
    cost = _resolve_cost(args.cost, ds.num_classes)
    report = metric_report(ds, cost=cost, bins=args.bins)
    config = {
        "input": args.input,
        "cost": args.cost,
        "bins": args.bins,
        "label_base": args.label_base,
    }
    if args.output:
        io.write_report(report, args.output, config=config)
    else:
        print(io.report_json(report, config))
    return 0


def cmd_rsc(args) -> int:
    rules = _parse_rules(args.rules)
    fractions = _parse_fraction_spec(args.fractions)
    ds = io.read_predictions(args.input, label_base=args.label_base)
    cost = _resolve_cost(args.cost, ds.num_classes)

    # threads deliberately not echoed: results are a pure function of the
    # fields below, and outputs must be byte-identical across thread counts
    config = {
        "input": args.input,
        "metric": args.metric,
        "fractions": list(fractions),
        "num_replicates": args.bootstrap,
        "seed": args.seed,
        "cost": args.cost,
        "label_base": args.label_base,
    }

    curves = []
    summaries = []
    for rule in rules:
        curve = sample_retention_curve(
            ds, rule, args.metric, fractions=fractions, cost=cost
        )
        summary = bootstrap_aursc(
            ds,
            rule,
            args.metric,
            fractions=fractions,
            num_replicates=args.bootstrap,
            seed=args.seed,
            cost=cost,
            threads=args.threads,
        )
        curves.append(curve)
        summaries.append(summary)
        io.write_report(curve, f"{args.output_prefix}_{rule}_curve.csv", fmt="csv")
        io.write_report(
            summary,
            f"{args.output_prefix}_{rule}_bootstrap.json",
            fmt="json",
            config={**config, "rule": rule},
        )
    io.render_curve_svg(curves, f"{args.output_prefix}_curves.svg")

    header = f"AURSC-{args.metric} (R={args.bootstrap}, seed={args.seed})"
    print(f"{'rule':<8}  {'aursc':>10}  {header}")
    for curve, summary in zip(curves, summaries):
        print(
            f"{curve.rule:<8}  {curve.aursc:>10.4f}  "
            f"{summary.mean:.4f} +/- {summary.std:.4f}"
        )
    return 0


def cmd_synth(args) -> int:
    cfg = SynthConfig(
        n=args.n,
        k=args.k,
        noise=args.noise,
        miscal=args.miscal,
        mode=args.mode,
        seed=args.seed,
    )
    ds = generate(cfg)
    io.write_predictions(ds, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordeval",
        description="Evaluate probabilistic predictions of ordinal classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="per-sample scores under one rule, worst first")
    p.add_argument("--input", required=True, help="prediction CSV")
    p.add_argument("--rule", required=True, help="brier | log | rps | sa_rps")
    p.add_argument("--output", required=True, help="scores CSV to write")
    p.add_argument("--label-base", type=int, default=0, help="0 or 1 (file labels)")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("evaluate", help="dataset-level metric report")
    p.add_argument("--input", required=True, help="prediction CSV")
    p.add_argument(
        "--cost", default="linear", help="linear | quadratic | path to cost CSV"
    )
    p.add_argument(
        "--bins", type=int, default=DEFAULT_ECE_BINS, help=f"ECE bins, 1 to {MAX_ECE_BINS}"
    )
    p.add_argument("--output", default=None, help="report JSON (default: stdout)")
    p.add_argument("--label-base", type=int, default=0)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("rsc", help="retention curves with bootstrapped AURSC")
    p.add_argument("--input", required=True, help="prediction CSV")
    p.add_argument(
        "--rules", default=",".join(RULES), help="comma-separated rule list"
    )
    p.add_argument("--metric", default="qwk", help="qwk | ec")
    p.add_argument(
        "--fractions",
        default=DEFAULT_FRACTION_SPEC,
        help="retention grid as start:stop:step",
    )
    p.add_argument(
        "--bootstrap", type=int, default=DEFAULT_REPLICATES, help="replicate count"
    )
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="0 = no resampling")
    p.add_argument("--output-prefix", required=True, help="prefix for output files")
    p.add_argument("--cost", default="linear")
    p.add_argument("--label-base", type=int, default=0)
    p.add_argument("--threads", type=int, default=1, help="bootstrap worker threads")
    p.set_defaults(func=cmd_rsc)

    p = sub.add_parser("synth", help="generate a synthetic prediction CSV")
    p.add_argument("--n", type=int, required=True, help="sample count")
    p.add_argument("--k", type=int, required=True, help="class count")
    p.add_argument("--noise", type=float, default=1.0)
    p.add_argument("--miscal", type=float, default=1.0)
    p.add_argument("--mode", default="ordinal", help="ordinal | shuffled")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--output", required=True, help="prediction CSV to write")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EvalError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
