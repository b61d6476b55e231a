"""Output checks for the benchmark's ``ordeval`` invocations.

Each check reads what one invocation wrote (files and stdout) and returns a
list of problems; an empty list means the output is correct. Expected values
come from the plain-loop oracles in ``tests/reference.py`` and from plain
Python recomputations here, never from the package under test.
"""

import csv
import json
import math
import statistics

import reference as ref

DEFAULT_FRACTIONS = tuple((100 - 5 * i) / 100 for i in range(20))

RULE_ORACLES = {
    "brier": ref.ref_brier,
    "log": ref.ref_log_score,
    "rps": ref.ref_rps,
    "sa_rps": ref.ref_sa_rps,
}

TOL = 1e-9
# the rsc summary table prints AURSC, mean and std with 4 decimals
PRINTED_TOL = 5e-5 + 1e-9


class Predictions:
    """A prediction CSV parsed with the csv module: ids, labels, probs."""

    def __init__(self, path):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        self.header = rows[0]
        self.k = len(self.header) - 2
        self.ids = [row[0] for row in rows[1:]]
        self.labels = [int(row[1]) for row in rows[1:]]
        self.probs = [[float(v) for v in row[2:]] for row in rows[1:]]
        self.argmax = [argmax(p) for p in self.probs]

    def __len__(self):
        return len(self.ids)

    def confusion(self, rows=None):
        counts = [[0] * self.k for _ in range(self.k)]
        for i in range(len(self)) if rows is None else rows:
            counts[self.labels[i]][self.argmax[i]] += 1
        return counts


def argmax(values):
    """First index of the largest value."""
    best = 0
    for i, v in enumerate(values):
        if v > values[best]:
            best = i
    return best


def cost_matrix(name, k):
    if name == "linear":
        return [[abs(t - p) / (k - 1) for p in range(k)] for t in range(k)]
    if name == "quadratic":
        return [[((t - p) / (k - 1)) ** 2 for p in range(k)] for t in range(k)]
    raise ValueError(f"unknown cost {name!r}")


def metric_value(metric, counts, cost):
    if metric == "qwk":
        return ref.ref_qwk(counts)
    return ref.ref_expected_cost(counts, cost)


def close(a, b, tol=TOL):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def check_synth(path, n, k):
    """A synthetic prediction file: header, row count, labels, sums, ids."""
    data = Predictions(path)
    problems = []
    if data.header != ["id", "label"] + [f"p{i}" for i in range(k)]:
        problems.append(f"{path}: header {data.header}")
    if len(data) != n:
        problems.append(f"{path}: {len(data)} rows, expected {n}")
    if len(set(data.ids)) != len(data):
        problems.append(f"{path}: duplicate ids")
    for i, (label, probs) in enumerate(zip(data.labels, data.probs)):
        if not 0 <= label < k or abs(math.fsum(probs) - 1.0) > 1e-6 or min(probs) < 0:
            problems.append(f"{path}: row {i + 2} is not a valid prediction")
            break
    return problems


def check_score(path, stdout, data, rule, stride=1000):
    """``ordeval score``: every input row once, worst first, ties in input
    order; every ``stride``-th row agrees with the reference rule."""
    rows = _read_csv(path)
    if rows[0] != ["id", "label", "argmax", "score"]:
        return [f"{path}: header {rows[0]}"]
    rows = rows[1:]
    if len(rows) != len(data):
        return [f"{path}: {len(rows)} rows, expected {len(data)}"]
    position = {sid: i for i, sid in enumerate(data.ids)}
    if sorted(position.get(row[0], -1) for row in rows) != list(range(len(data))):
        return [f"{path}: ids are not the input ids"]
    problems = []
    scores = [float(row[3]) for row in rows]
    for j in range(len(rows) - 1):
        if scores[j] < scores[j + 1] or (
            scores[j] == scores[j + 1] and position[rows[j][0]] > position[rows[j + 1][0]]
        ):
            problems.append(f"{path}: rows {j + 2} and {j + 3} are out of order")
            break
    oracle = RULE_ORACLES[rule]
    for j in range(0, len(rows), stride):
        i = position[rows[j][0]]
        expected = (data.labels[i], data.argmax[i], oracle(data.probs[i], data.labels[i]))
        got = (int(rows[j][1]), int(rows[j][2]), scores[j])
        if got[:2] != expected[:2] or not close(got[2], expected[2]):
            problems.append(f"{path}: row {j + 2} is {got}, expected {expected}")
    printed = [line.split()[0] for line in stdout.decode().splitlines()[1:]]
    if printed != [f"id={row[0]}" for row in rows[:5]]:
        problems.append(f"score stdout lists {printed}, not the five worst rows")
    return problems


def check_evaluate(path, data, cost, bins):
    """``ordeval evaluate``: accuracy, QWK, expected cost and ECE."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    counts = data.confusion()
    correct = [data.labels[i] == data.argmax[i] for i in range(len(data))]
    expected = {
        "accuracy": sum(correct) / len(data),
        "qwk": ref.ref_qwk(counts),
        "expected_cost": ref.ref_expected_cost(counts, cost_matrix(cost, data.k)),
        "ece": ref.ref_ece([max(p) for p in data.probs], correct, bins),
    }
    problems = [
        f"{path}: {key} = {report.get(key)!r}, expected {value!r}"
        for key, value in expected.items()
        if not isinstance(report.get(key), float) or not close(report[key], value)
    ]
    if report.get("n") != len(data):
        problems.append(f"{path}: n = {report.get('n')!r}, expected {len(data)}")
    return problems


def _summary_table(stdout):
    """rule -> (aursc, mean, std) from the rsc summary printed on stdout."""
    table = {}
    for line in stdout.decode().splitlines()[1:]:
        rule, aursc, mean, _, std = line.split()
        table[rule] = (float(aursc), float(mean), float(std))
    return table


def _read_curve(path):
    rows = _read_csv(path)
    if rows[0] != ["fraction", "value"]:
        raise ValueError(f"{path}: header {rows[0]}")
    return [float(r[0]) for r in rows[1:]], [float(r[1]) for r in rows[1:]]


def plain_curve(data, rule, metric, cost):
    """The retention curve by plain loops: reference scores, a stable sort
    worst first, and confusion counts grown one retained sample at a time."""
    oracle = RULE_ORACLES[rule]
    scores = [oracle(p, y) for p, y in zip(data.probs, data.labels)]
    order = sorted(range(len(data)), key=lambda i: -scores[i])
    keep = {ref.ref_retained_count(f, len(data)) for f in DEFAULT_FRACTIONS}
    counts = [[0] * data.k for _ in range(data.k)]
    at_count = {}
    for m, i in enumerate(reversed(order), start=1):
        counts[data.labels[i]][data.argmax[i]] += 1
        if m in keep:
            at_count[m] = metric_value(metric, counts, cost)
    return [at_count[ref.ref_retained_count(f, len(data))] for f in DEFAULT_FRACTIONS]


def check_rsc(prefix, stdout, data, rules, metric, cost_name, replicates, plain):
    """``ordeval rsc`` outputs for every rule.

    Always checked, because no tie-breaking rule changes them: the grid, the
    value at fraction 1.0 against the full-data metric, the printed AURSC
    against the sum of the curve, and the bootstrap replicate count, mean
    and std. With ``plain`` the whole curve is also recomputed by
    ``plain_curve`` (only meaningful on data without tied scores).
    """
    cost = cost_matrix(cost_name, data.k)
    full = metric_value(metric, data.confusion(), cost)
    table = _summary_table(stdout)
    problems = []
    for rule in rules:
        curve_path = f"{prefix}_{rule}_curve.csv"
        fractions, values = _read_curve(curve_path)
        if tuple(fractions) != DEFAULT_FRACTIONS:
            problems.append(f"{curve_path}: fraction grid {fractions}")
            continue
        if not close(values[0], full):
            problems.append(f"{curve_path}: value at 1.0 is {values[0]!r}, expected {full!r}")
        if plain:
            expected = plain_curve(data, rule, metric, cost)
            bad = [f for f, v, e in zip(fractions, values, expected) if not close(v, e)]
            if bad:
                problems.append(f"{curve_path}: values differ from plain loops at {bad}")
        aursc, mean, std = table.get(rule, (math.nan,) * 3)
        if not abs(aursc - math.fsum(values)) <= PRINTED_TOL:
            problems.append(f"rsc stdout: {rule} AURSC {aursc}, curve sums to {math.fsum(values)}")

        boot_path = f"{prefix}_{rule}_bootstrap.json"
        with open(boot_path, encoding="utf-8") as fh:
            boot = json.load(fh)
        reps = boot.get("replicates", [])
        if boot.get("num_replicates") != replicates or len(reps) != replicates:
            problems.append(f"{boot_path}: {len(reps)} replicates, expected {replicates}")
            continue
        if not close(boot["mean"], statistics.fmean(reps)) or not close(
            boot["std"], statistics.pstdev(reps)
        ):
            problems.append(f"{boot_path}: mean/std disagree with the replicates")
        if abs(mean - boot["mean"]) > PRINTED_TOL or abs(std - boot["std"]) > PRINTED_TOL:
            problems.append(f"rsc stdout: {rule} mean/std differ from {boot_path}")

    svg_path = f"{prefix}_curves.svg"
    with open(svg_path, encoding="utf-8") as fh:
        svg = fh.read()
    if not svg.startswith("<?xml") or not svg.rstrip().endswith("</svg>") or svg.count(
        "<polyline"
    ) != len(rules):
        problems.append(f"{svg_path}: not an SVG with {len(rules)} curves")
    return problems
