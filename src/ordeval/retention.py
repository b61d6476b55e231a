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
from .hard import expected_cost, hard_predictions, qwk
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
    """Checks and ranking shared by the curve and the bootstrap.

    Returns the canonical grid, the sample indices best first under ``rule``
    (ties latest first, so a cut keeps what dropping the worst in dataset
    order keeps) and ``curve(copies)``: the metric at each fraction when
    the i-th best sample occurs ``copies[i]`` times (1: the dataset itself).
    """
    order, _ = rank_samples(ds, rule)
    if metric not in METRICS:
        raise UnknownMetric(
            f"unknown metric {metric!r}; expected one of {', '.join(METRICS)}"
        )
    fractions = check_fractions(fractions)
    if cost is None:
        cost = CostMatrix.linear(ds.num_classes)
    best, k = order[::-1], ds.num_classes
    cells = (ds.labels * k + hard_predictions(ds))[best]
    kept = [retained_count(f, len(ds)) for f in reversed(fractions)]
    # a copy kept at the s-th smallest cut but not at the one below it lands
    # in segment s; a cumsum over the segments gives every cut's counts
    segment = np.repeat(np.arange(len(kept)) * k * k, np.diff(kept, prepend=0))

    def curve(copies) -> np.ndarray:
        flat = segment + np.repeat(cells, copies)
        counts = np.bincount(flat, minlength=len(kept) * k * k).reshape(-1, k, k)
        stack = np.ascontiguousarray(counts.cumsum(axis=0)[::-1])  # fraction order
        return qwk(stack) if metric == "qwk" else expected_cost(stack, cost)

    return fractions, best, curve


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
    fractions, _, curve = _prepare(ds, rule, metric, fractions, cost)
    values = curve(1)
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

    Each replicate draws N samples with replacement; as the scores are per
    sample, the replicate is the dataset's one ranking with each sample
    counted as often as it was drawn, and tied samples are broken by
    dataset position, as in the plain curve. Draws for replicate r come
    from a SplitMix64 substream keyed by (seed, r), so results are identical
    no matter how many threads evaluate the replicates. seed=0 is the
    identity convention: every replicate is the unresampled dataset (useful
    to recover the plain AURSC with std 0).
    """
    if num_replicates < 1:
        raise InvalidConfig(f"need at least 1 replicate, got {num_replicates}")
    fractions, best, curve = _prepare(ds, rule, metric, fractions, cost)

    def one_replicate(r: int) -> float:
        if seed == 0:
            return float(curve(1).sum())
        draws = _rng.resample_indices(seed, r, len(ds))
        return float(curve(np.bincount(draws, minlength=len(ds))[best]).sum())

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
