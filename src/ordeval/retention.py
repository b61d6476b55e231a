"""Sample-retention analysis: rank samples by a scoring rule, progressively
drop the worst, track a hard metric on what remains, and integrate.

A rule that recognizes bad ordinal predictions should improve QWK (or lower
expected cost) quickly as its worst-scored samples are removed. The area
under the retained-samples curve (AURSC) condenses the whole sweep into one
number: the plain sum of the metric values over the fraction grid
(rectangle rule on a uniform grid, left unnormalized, so a 20-point QWK
curve pinned at 1.0 has AURSC 20). Bootstrap resampling of the entire
pipeline gives the dispersion of that number.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _rng
from .data import CostMatrix, EvalDataset
from .errors import (
    EmptyDataset,
    EmptyFractionList,
    FractionOutOfRange,
    InvalidConfig,
    UnknownMetric,
)
from .hard import confusion_from_arrays, expected_cost, hard_predictions, qwk
from .scoring import _rule_fn

# 1.00, 0.95, ..., 0.05
DEFAULT_FRACTIONS = tuple((100 - 5 * i) / 100 for i in range(20))

METRICS = ("qwk", "ec")

DEFAULT_REPLICATES = 50
DEFAULT_SEED = 42


@dataclass(frozen=True)
class RetentionCurve:
    """Metric values on progressively smaller best-scored subsets."""

    rule: str
    metric: str
    fractions: tuple
    values: tuple
    aursc: float


@dataclass(frozen=True)
class BootstrapSummary:
    """AURSC over bootstrap replicates: mean, population std, raw values."""

    mean: float
    std: float
    replicates: tuple
    seed: int
    num_replicates: int


def retained_count(fraction: float, n: int) -> int:
    """Samples kept at a retention fraction: round(f * n), at least 1.

    Rounds half away from zero so the grid is unambiguous across platforms.
    """
    return max(1, int(np.floor(fraction * n + 0.5)))


def check_fractions(fractions) -> tuple:
    """Canonicalize a retention grid: strictly decreasing from exactly 1.0."""
    fs = [float(f) for f in fractions]
    if not fs:
        raise EmptyFractionList("no retention fractions given")
    for f in fs:
        if not np.isfinite(f) or f <= 0.0 or f > 1.0:
            raise FractionOutOfRange(f"fraction {f!r} outside (0, 1]")
    fs = sorted(set(fs), reverse=True)
    if len(fs) < 2:
        raise EmptyFractionList("retention grid needs at least 2 distinct fractions")
    if fs[0] != 1.0:
        raise FractionOutOfRange("retention grid must start at fraction 1.0")
    return tuple(fs)


def rank_samples(ds: EvalDataset, rule: str) -> tuple[np.ndarray, np.ndarray]:
    """Sample indices worst first under ``rule``, and every sample's score.

    Returns ``(order, scores)``: ``scores[i]`` is sample i's score and
    ``order`` lists the sample indices by descending score. Scores are
    negatively oriented, so descending score = ascending quality. Ties keep
    their dataset order.
    """
    if len(ds) == 0:
        raise EmptyDataset("cannot rank an empty dataset")
    scores = _rule_fn(rule)(ds.probs, ds.labels)
    return np.argsort(-scores, kind="stable"), scores


def _prepare(ds: EvalDataset, rule: str, metric: str, fractions, cost):
    """Checks shared by the curve and the bootstrap.

    Returns the canonical grid, the cost matrix (linear by default), every
    sample's score under ``rule`` and every sample's hard prediction.
    """
    if len(ds) == 0:
        raise EmptyDataset("cannot run retention analysis on no samples")
    rule_fn = _rule_fn(rule)
    if metric not in METRICS:
        raise UnknownMetric(
            f"unknown metric {metric!r}; expected one of {', '.join(METRICS)}"
        )
    fractions = check_fractions(fractions)
    if cost is None:
        cost = CostMatrix.linear(ds.num_classes)
    scores = rule_fn(ds.probs, ds.labels)
    return fractions, cost, scores, hard_predictions(ds)


def _curve_values(
    scores: np.ndarray,
    labels: np.ndarray,
    preds: np.ndarray,
    fractions: tuple,
    metric: str,
    num_classes: int,
    cost: CostMatrix,
) -> np.ndarray:
    n = scores.shape[0]
    order = np.argsort(-scores, kind="stable")  # worst first, ties by position
    values = np.empty(len(fractions))
    for i, f in enumerate(fractions):
        m = retained_count(f, n)
        keep = order[n - m :]
        cm = confusion_from_arrays(labels[keep], preds[keep], num_classes)
        values[i] = qwk(cm) if metric == "qwk" else expected_cost(cm, cost)
    return values


def sample_retention_curve(
    ds: EvalDataset,
    rule: str,
    metric: str,
    fractions=DEFAULT_FRACTIONS,
    cost: CostMatrix | None = None,
) -> RetentionCurve:
    """Metric on the best-scored max(1, round(f*N)) samples for each f.

    ``metric`` is "qwk" or "ec"; ``cost`` (for "ec") defaults to the linear
    matrix. The AURSC field is the plain sum of the curve values.
    """
    fractions, cost, scores, preds = _prepare(ds, rule, metric, fractions, cost)
    values = _curve_values(
        scores, ds.labels, preds, fractions, metric, ds.num_classes, cost
    )
    return RetentionCurve(
        rule=rule,
        metric=metric,
        fractions=fractions,
        values=tuple(float(v) for v in values),
        aursc=float(values.sum()),
    )


def bootstrap_aursc(
    ds: EvalDataset,
    rule: str,
    metric: str,
    fractions=DEFAULT_FRACTIONS,
    num_replicates: int = DEFAULT_REPLICATES,
    seed: int = DEFAULT_SEED,
    cost: CostMatrix | None = None,
    threads: int = 1,
) -> BootstrapSummary:
    """AURSC distribution over with-replacement resamples of the dataset.

    Each replicate draws N samples with replacement and re-runs the whole
    score/sort/retain pipeline. Draws for replicate r come from a SplitMix64
    substream keyed by (seed, r), so results are identical no matter how many
    threads evaluate the replicates. seed=0 is the identity convention: every
    replicate is the unresampled dataset (useful to recover the plain AURSC
    with std 0).
    """
    if num_replicates < 1:
        raise InvalidConfig(f"need at least 1 replicate, got {num_replicates}")
    # Scores are a pure per-sample function, so scoring the full dataset once
    # and gathering by replicate indices is exactly resample-then-score.
    fractions, cost, scores, preds = _prepare(ds, rule, metric, fractions, cost)
    labels = ds.labels

    def one_replicate(r: int) -> float:
        if seed == 0:
            idx = np.arange(len(ds))
        else:
            idx = _rng.resample_indices(seed, r, len(ds))
        values = _curve_values(
            scores[idx], labels[idx], preds[idx], fractions, metric, ds.num_classes, cost
        )
        return float(values.sum())

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            reps = list(pool.map(one_replicate, range(num_replicates)))
    else:
        reps = [one_replicate(r) for r in range(num_replicates)]

    arr = np.array(reps)
    return BootstrapSummary(
        mean=float(arr.mean()),
        std=float(arr.std()),
        replicates=tuple(reps),
        seed=seed,
        num_replicates=num_replicates,
    )
