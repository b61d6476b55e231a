"""Sample-retention analysis: rank samples by a scoring rule, progressively
drop the worst, track a hard metric on what remains, and integrate.

A rule that recognizes bad ordinal predictions should improve QWK (or lower
expected cost) quickly as its worst-scored samples are removed. The area
under the retained-samples curve (AURSC) condenses the whole sweep into one
number: the plain sum of the metric values over the fraction grid
(rectangle rule on a uniform grid, left unnormalized, so a 20-point QWK
curve pinned at 1.0 has AURSC 20). Bootstrap resampling of the entire
pipeline gives the dispersion of that number.

One kernel, ``retention_analysis``, computes the curve and the bootstrap of
any number of rules on one dataset, in two stages. The first reads the labels
and probabilities: it makes the confusion cells, then each rule's ranking.
The second, the curves and the replicates, reads only those cells and
rankings, so ``ordeval rsc`` frees the dataset before it:

- each rule's scores are computed once and sorted as ``rank_samples`` sorts
  them; a cut keeps a prefix of that best-first order, so every cut's
  confusion matrix comes from one ``bincount`` over (first cut that wholly
  keeps a sample, confusion cell) and a ``cumsum`` over the cuts. The cells
  are those of ``hard._cells``, t * K + p in the narrowest unsigned type,
  taken as they come;
- a replicate is the same ranking with each sample counted as often as it
  was drawn, and a cut counts positions in that resampled list, so copies of
  one sample may fall on both sides of it. The ``bincount`` weights each
  sample by its copy count (the plain curve weights every sample 1), and a
  cut that falls inside a sample's copies adds, as an exact correction after
  the ``cumsum`` over the cuts, only the copies before it;
- each cut is located among the copy counts in two levels: the totals of
  fixed chunks of about sqrt(n / fractions) samples (one ``reduceat`` and a
  ``cumsum`` of the totals) give the chunk that holds it, and one short
  ``cumsum`` inside that chunk gives how many samples it wholly keeps and
  their copies, exactly, without a prefix sum over all n samples;
- replicates run in blocks of about ``_BLOCK_DRAWS`` draws, fewer when one
  curve stack (fractions x K x K counts) exceeds n, so a block's arrays stay
  small at tiny n too: one call to ``_rng.resample_block`` and one
  ``bincount`` count a block's draws for all rules, and each rule counts the
  whole block with one weighted ``bincount``;
- one ``qwk`` or ``expected_cost`` call scores a block for all rules, on
  the (rules, replicates, fractions, K, K) stack of integer counts, and one
  more scores the plain curves of all rules; each reduces the stack a chunk
  of matrices at a time.

``sample_retention_curve`` and ``bootstrap_aursc`` are its one-rule views.
"""

import math

import numpy as np

from . import _rng
from .data import _BLOCK_ROWS, CostMatrix, EvalDataset, _Record
from .errors import (
    EmptyDataset,
    EmptyFractionList,
    FractionOutOfRange,
    InvalidConfig,
    UnknownMetric,
)
from .hard import _cells, expected_cost, qwk
from .scoring import _rule_fn

# 1.00, 0.95, ..., 0.05
DEFAULT_FRACTIONS = tuple((100 - 5 * i) / 100 for i in range(20))

METRICS = ("qwk", "ec")

DEFAULT_REPLICATES = 50
DEFAULT_SEED = 42
MAX_REPLICATES = 10**6  # every replicate's AURSC is kept, so more is rejected
MAX_FRACTIONS = 10**4  # the count stacks and cut arrays grow with the grid
# fractions * K * K at most this, which every grid passes at K <= 16: each
# rule's int64 curve counts grow with it (the metric's float temporaries only
# with a chunk of them), and at the bound 4 rules peak near 0.23 GB (K = 256,
# 64 fractions)
MAX_CURVE_CELLS = 1 << 22

# draws per replicate block: enough to amortize per-call overhead at small n,
# few enough that its arrays stay small (65 536 draws: +10% peak RSS at n = 2k)
_BLOCK_DRAWS = 1 << 14


class RetentionCurve(_Record):
    """Metric values on progressively smaller best-scored subsets: the
    names ``rule`` and ``metric``, the tuples ``fractions`` and ``values``,
    and their float ``aursc``."""

    __slots__ = ("rule", "metric", "fractions", "values", "aursc")


class BootstrapSummary(_Record):
    """AURSC over bootstrap replicates: the float ``mean`` and population
    ``std`` of the tuple of raw ``replicates``, with the ``seed`` and
    ``num_replicates`` that drew them."""

    __slots__ = ("mean", "std", "replicates", "seed", "num_replicates")


def retained_count(fraction: float, n: int) -> int:
    """Samples kept at a retention fraction: round(f * n), at least 1.

    Rounds half away from zero so the grid is unambiguous across platforms.
    """
    return max(1, int(np.floor(fraction * n + 0.5)))


def check_fractions(fractions) -> tuple:
    """Canonicalize a retention grid: strictly decreasing from exactly 1.0,
    with at most MAX_FRACTIONS values."""
    fs = [float(f) for f in fractions]
    if not fs:
        raise EmptyFractionList("no retention fractions given")
    if len(fs) > MAX_FRACTIONS:
        raise InvalidConfig(
            f"retention grid has {len(fs)} fractions, at most {MAX_FRACTIONS} allowed"
        )
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

    The keys are the scores themselves, negated in place and negated back
    once sorted, which is exact (``0.0`` stays ``0.0``), and sorted with
    numpy's default (unstable, faster) sort. Only one order sorts keys that
    are all distinct, so that result stands unless two adjacent sorted keys
    compare equal (``-0.0 == 0.0`` among them), which a block of the order
    at a time looks for; then the keys are sorted again with the stable
    sort.
    """
    if len(ds) == 0:
        raise EmptyDataset("cannot rank an empty dataset")
    scores = _rule_fn(rule)(ds.probs, ds.labels)
    return _order(scores), scores


def _order(scores: np.ndarray) -> np.ndarray:
    """``rank_samples``'s order of a fresh score vector, which it negates
    in place to sort and back."""
    keys = np.negative(scores, out=scores)
    order = np.argsort(keys)
    for lo in range(0, len(order) - 1, _BLOCK_ROWS):
        ranked = keys[order[lo : lo + _BLOCK_ROWS + 1]]
        if np.any(ranked[1:] == ranked[:-1]):
            order = np.argsort(keys, kind="stable")
            break
    np.negative(keys, out=scores)
    return order


def check_bootstrap(num_replicates: int) -> None:
    """Reject a replicate count outside its range, before any work."""
    if not 1 <= num_replicates <= MAX_REPLICATES:
        raise InvalidConfig(
            f"replicates must be 1 to {MAX_REPLICATES}, got {num_replicates}"
        )


def check_metric(metric: str) -> None:
    """Reject a metric name that is not in METRICS, before any work."""
    if metric not in METRICS:
        raise UnknownMetric(
            f"unknown metric {metric!r}; expected one of {', '.join(METRICS)}"
        )


def retention_analysis(
    ds: EvalDataset,
    rules,
    metric: str,
    fractions=DEFAULT_FRACTIONS,
    num_replicates: int = DEFAULT_REPLICATES,
    seed: int = DEFAULT_SEED,
    cost: CostMatrix | None = None,
) -> list[tuple[RetentionCurve, BootstrapSummary]]:
    """The retention curve and the bootstrapped AURSC of every rule at once.

    Returns one ``(curve, summary)`` pair per rule, in the order given; each
    equals ``(sample_retention_curve(...), bootstrap_aursc(...))`` for that
    rule. Two stages make it. ``_rankings`` takes the labels and
    probabilities and makes the confusion cells (a byte a sample up to
    K = 16), then every rule's best-first ranking (4 bytes a sample).
    ``_bootstrap`` computes the plain curves and the replicates from those
    alone, so a caller that drops the dataset in between, as ``ordeval
    rsc`` does, resamples without it. The replicates run a block at a time,
    in order, in the calling thread. A grid whose fractions * K * K exceeds
    MAX_CURVE_CELLS is rejected before any work.
    """
    check_bootstrap(num_replicates)
    check_metric(metric)
    fractions = check_fractions(fractions)
    cells, bests = _rankings(ds.labels, ds.probs, rules, fractions)
    k = ds.num_classes
    return _bootstrap(cells, bests, k, rules, metric, fractions, num_replicates, seed, cost)


def _rankings(labels: np.ndarray, probs: np.ndarray, rules, fractions: tuple):
    """``retention_analysis``'s first stage: the confusion cells of the
    (N,) ``labels`` and (N, K) ``probs``, as ``hard._cells`` gives them, and
    every rule's ranking, best first. The checked grid ``fractions`` is
    bounded by MAX_CURVE_CELLS here, as K comes from ``probs``, before any
    argmax or score."""
    n, k = probs.shape
    cuts = len(fractions) * k * k
    if cuts > MAX_CURVE_CELLS:
        grid = f"retention grid of {len(fractions)} fractions at K = {k}"
        raise InvalidConfig(f"{grid} makes {cuts:,} curve cells, at most {MAX_CURVE_CELLS:,}")
    cells = _cells(labels, probs)[1]
    # best first, ties latest first, so a cut keeps what dropping the worst
    # in dataset order keeps; contiguous, as a reversed view makes every
    # gather through it several times slower. Every rule keeps its ranking
    # and its ranked cells, so both take the narrowest type that fits, as
    # the cells come
    index = np.int32 if n < 2**31 else np.intp
    bests = [_order(_rule_fn(rule)(probs, labels))[::-1].astype(index) for rule in rules]
    return cells, bests


def _bootstrap(cell, bests, k, rules, metric, fractions, num_replicates, seed, cost) -> list:
    """``retention_analysis``'s second stage, its result from ``_rankings``'
    ``cell`` vector and ``bests`` rankings alone: the curves and replicates
    of ``rules`` at K = ``k``, for a checked metric, grid and replicate
    count. ``cost`` defaults to the linear matrix."""
    if cost is None:
        cost = CostMatrix.linear(k)
    n, cuts = len(cell), len(fractions) * k * k
    kept = [retained_count(f, n) for f in reversed(fractions)]
    # Replicate r of a block is row r of its draws, offset by r curves: cut s
    # of curve r keeps positions r*n .. r*n + kept[s] - 1, and a sample first
    # wholly kept at cut s lands in bin r*cuts + s*K*K + its cell. One
    # bincount serves the whole block; the plain curve is row 0.
    b = max(1, _BLOCK_DRAWS // max(n, cuts))
    m_max = b * len(kept)
    cut_at = (np.arange(b)[:, None] * n + kept).ravel()
    bin_base = (np.arange(b)[:, None] * cuts + np.arange(len(kept)) * k * k).ravel()
    ranked = [cell[best] for best in bests]
    # cut locator: chunks of about sqrt(n / fractions) samples, so that the
    # chunk totals and the prefix sums inside one chunk per cut cost alike
    width = max(8, math.isqrt(n // len(kept)))
    chunk_starts = np.arange(0, b * n, width)
    offsets = np.arange(width)
    row_starts = np.arange(0, m_max * width, width)
    # copy counts are float64, as the weighted bincount takes them, so it
    # converts none; their sums stay exact below 2**53
    totals = np.zeros(len(chunk_starts) + 1)
    prefix = np.zeros(m_max * width + 1)

    def locate(w: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
        """For each of the first ``m`` cuts, how many samples of ``w`` it
        wholly keeps and how many copies those hold: ``full =
        searchsorted(ends[1:], cut, "right")`` and ``ends[full]`` with
        ``ends = [0, cumsum(w)]``."""
        chunks = chunk_starts[: -(-len(w) // width)]
        ends = totals[: len(chunks) + 1]
        np.add.reduceat(w, chunks, out=ends[1:])
        np.cumsum(ends, out=ends)
        # the chunk holding each cut (the last one for a cut at the total),
        # and the copies of the chunks before it
        chunk = np.searchsorted(ends[1:-1], cut_at[:m], side="right")
        first = chunk * width
        base = ends[chunk]
        # the prefix sums of every cut's chunk, laid end to end: cut i's
        # chunk starts after inner[row_starts[i]] copies. Positions past the
        # last sample repeat it; they only add to a total past the cut, or,
        # at a cut at the total, to full, which is capped at len(w).
        inner = prefix[: m * width + 1]
        w.take(first[:, None] + offsets, out=inner[1:].reshape(m, width), mode="clip")
        np.cumsum(inner, out=inner)
        start = inner[row_starts[:m]]
        stop = np.searchsorted(inner[1:], start + cut_at[:m] - base, side="right")
        full = np.minimum(first + stop - row_starts[:m], len(w))
        return full, base + inner[stop] - start

    def curves(w: np.ndarray, cells: np.ndarray, rows: int, out: np.ndarray) -> None:
        """Write the (rows, fractions, K, K) confusion counts of ``rows``
        curves into ``out``, from each sample's copy count ``w`` in
        best-first order, row after row, and the ``cells`` of one ranking,
        which every row shares."""
        m = rows * len(kept)
        full, before = locate(w, m)
        # how many samples each cut wholly keeps beyond the one before it:
        # np.diff(full, prepend=0), which is several times slower this short
        steps = full.copy()
        steps[1:] -= full[:-1]
        bins = np.repeat(bin_base[:m], steps)
        bins.reshape(rows, n)[...] += cells
        counts = np.bincount(bins, weights=w, minlength=rows * cuts)
        stack = counts.reshape(rows, len(kept), k * k)
        np.cumsum(stack, axis=1, out=stack)  # in place: no second stack of counts
        # the first sample not wholly kept, which starts after ``before``
        # copies, adds its copies before the cut; a cut at a row's total adds
        # none, so it does not matter which cell the wrapped index picks
        counts[bin_base[:m] + cells.take(full, mode="wrap")] += cut_at[:m] - before
        # fraction order; the float64 counts are exact integers
        out[...] = counts.reshape(rows, len(kept), k, k)[:, ::-1]

    # one count buffer for every call: a fresh one per block page-faults ~13x
    # more. Flat, so that every block's stack is contiguous and the metric
    # takes its chunks as views
    max_rows = min(b, num_replicates) if seed != 0 else 1
    buf = np.empty(len(ranked) * max_rows * cuts, dtype=np.int64)

    def score(weights, rows: int) -> np.ndarray:
        """The metric of every rule's ``rows`` curves, (rules, rows,
        fractions), from one weight array per rule, in one call."""
        stack = buf[: len(ranked) * rows * cuts].reshape(len(ranked), rows, len(kept), k, k)
        for w, cells, out in zip(weights, ranked, stack):
            curves(w, cells, rows, out)
        return qwk(stack) if metric == "qwk" else expected_cost(stack, cost)

    # every sample counted once; the vector of ones goes before the replicates
    plain = score([np.ones(n)] * len(ranked), 1)[:, 0]

    # the draws and each rule's copy counts go to buffers made once, like
    # the count buffer: fresh (replicates, n) arrays per block page-fault
    # whenever malloc has returned their pages to the system in between
    space = np.empty((2, max_rows, n), dtype=np.uint64)
    weight = np.empty((max_rows, n))

    # every rule's AURSC per replicate, a block of replicates at a time;
    # seed 0: every replicate is the unresampled dataset
    aurscs = [[] for _ in rules]
    for r0 in range(0, num_replicates, b) if seed != 0 else ():
        rows = min(b, num_replicates - r0)
        draws = _rng.resample_block(seed, r0, rows, n, out=space)
        draws += np.arange(0, rows * n, n)[:, None]
        copies = np.bincount(draws.ravel(), minlength=rows * n).reshape(rows, n)
        copies = copies.astype(np.float64)  # once a block, not once a rule
        # mode="clip": with the default "raise", take buffers its output
        weights = (
            copies.take(best, axis=1, out=weight[:rows], mode="clip").ravel() for best in bests
        )
        for sums, out in zip(score(weights, rows).sum(axis=-1).tolist(), aurscs):
            out.extend(sums)

    results = []
    for rule, values, reps in zip(rules, plain, aurscs):
        curve = RetentionCurve(
            rule=rule,
            metric=metric,
            fractions=fractions,
            values=tuple(float(v) for v in values),
            aursc=float(values.sum()),
        )
        if seed == 0:
            reps = [curve.aursc] * num_replicates
        arr = np.array(reps)
        summary = BootstrapSummary(
            mean=float(arr.mean()),
            std=float(arr.std()),
            replicates=tuple(reps),
            seed=seed,
            num_replicates=num_replicates,
        )
        results.append((curve, summary))
    return results


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
    return retention_analysis(ds, [rule], metric, fractions, 1, 0, cost)[0][0]


def bootstrap_aursc(
    ds: EvalDataset,
    rule: str,
    metric: str,
    fractions=DEFAULT_FRACTIONS,
    num_replicates: int = DEFAULT_REPLICATES,
    seed: int = DEFAULT_SEED,
    cost: CostMatrix | None = None,
) -> BootstrapSummary:
    """AURSC distribution over with-replacement resamples of the dataset.

    Each replicate draws N samples with replacement; as the scores are per
    sample, the replicate is the dataset's one ranking with each sample
    counted as often as it was drawn, and tied samples are broken by
    dataset position, as in the plain curve. Draws for replicate r come
    from a SplitMix64 substream keyed by (seed, r), so results do not depend
    on how the replicates are grouped. seed=0 is the identity convention:
    every replicate is the unresampled dataset (useful to recover the plain
    AURSC with std 0). ``num_replicates`` runs from 1 to MAX_REPLICATES.
    """
    return retention_analysis(
        ds, [rule], metric, fractions, num_replicates, seed, cost
    )[0][1]
