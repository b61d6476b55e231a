"""Metrics on arg-maxed hard predictions, plus a top-label calibration error.

The confusion matrix convention is ``counts[t][p]``: true class t, predicted
class p, with argmax ties resolved to the lowest class index. Quadratic-
weighted kappa and expected cost are the headline ordinal metrics; accuracy
and ECE provide context.

``_cells`` is the one argmax pass: it gives the confusion counts and each
sample's cell t * K + p in the narrowest unsigned type, from which ECE
takes its correct samples and the retention kernel its per-cut counts.
"""

import numpy as np

from .data import _BLOCK_ROWS, CostMatrix, EvalDataset, _Record
from .errors import EmptyDataset, InvalidConfig, ShapeMismatch, ZeroBins
from .scoring import RULES

DEFAULT_ECE_BINS = 15
MAX_ECE_BINS = 10**6  # bin edges are allocated up front, so more is rejected
# counts a chunk of a (..., K, K) stack holds: qwk's and expected_cost's
# float temporaries are each the size of one chunk, not of the stack
_CHUNK_CELLS = 1 << 16


class MetricReport(_Record):
    """Headline metrics for one dataset: the floats ``accuracy``, ``qwk``,
    ``expected_cost`` and ``ece``, the sample count ``n``, and
    ``mean_scores``, a dict from each rule identifier to the rule's mean
    over the samples."""

    __slots__ = ("accuracy", "qwk", "expected_cost", "ece", "n", "mean_scores")


def confusion(ds: EvalDataset) -> np.ndarray:
    """K x K confusion counts, counts[t][p], summing to len(ds)."""
    return _cells(ds.labels, ds.probs)[0]


def _cells(labels: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The confusion counts of a dataset's ``labels`` and (N, K) ``probs``,
    and every sample's cell of them, t * K + p for true class t and argmax
    p, in ``np.min_scalar_type(K * K - 1)``: a byte a sample up to K = 16.
    One argmax pass of ``_BLOCK_ROWS`` rows at a time writes a block's cells
    and adds its integer counts, so the one vector as long as the dataset
    is the cells. A sample is correct exactly when its cell is a multiple
    of K + 1, as t * K + p = p - t modulo K + 1."""
    if len(labels) == 0:
        raise EmptyDataset("cannot build a confusion matrix from no samples")
    k = probs.shape[1]
    counts = np.zeros(k * k, dtype=np.intp)
    cells = np.empty(len(labels), dtype=np.min_scalar_type(k * k - 1))
    for lo in range(0, len(cells), _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        block = labels[rows] * k
        block += np.argmax(probs[rows], axis=1)
        counts += np.bincount(block, minlength=k * k)
        cells[rows] = block
    return counts.reshape(k, k), cells


def _check_counts(cm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A K x K count matrix, or a (..., K, K) stack, and each one's total."""
    cm = np.asarray(cm)
    if cm.ndim < 2 or cm.shape[-1] != cm.shape[-2]:
        raise ShapeMismatch(f"confusion matrix must be square, got {cm.shape}")
    n = np.asarray(cm.sum(axis=(-2, -1)))
    if np.any(n < 1):
        raise EmptyDataset("confusion matrix has no counts")
    return cm, n


def _per_matrix(values: np.ndarray):
    """A float for one matrix, an array for a stack."""
    return float(values) if values.ndim == 0 else values


def accuracy(cm: np.ndarray) -> float:
    cm, n = _check_counts(cm)
    return _per_matrix(np.trace(cm, axis1=-2, axis2=-1) / n)


def _per_chunk(cm: np.ndarray, n: np.ndarray, fn) -> np.ndarray:
    """``fn(counts, totals)`` of every matrix of a (..., K, K) stack ``cm``
    with totals ``n``, on chunks of about ``_CHUNK_CELLS`` counts: no float
    temporary is the size of the stack. Each matrix's value is computed as
    it would be on the whole stack, so the bits do not depend on the chunk."""
    k = cm.shape[-1]
    stack, totals = cm.reshape(-1, k, k), n.reshape(-1)
    out = np.empty(len(stack))
    step = max(1, _CHUNK_CELLS // (k * k))
    for lo in range(0, len(stack), step):
        out[lo : lo + step] = fn(stack[lo : lo + step], totals[lo : lo + step])
    return out.reshape(n.shape)


def qwk(cm: np.ndarray) -> float:
    """Quadratic-weighted kappa from a confusion matrix (or a stack of them).

    1 - sum(w * O) / sum(w * E) with weights w_ij = (i-j)^2 / (K-1)^2, O the
    confusion matrix normalized to sum 1, and E the outer product of O's
    marginals. Degenerate cases: if the expected disagreement is zero the
    score is 1 when the observed disagreement is also zero (nothing to
    disagree about), else 0. A stack is scored a chunk of matrices at a time.
    """
    cm, n = _check_counts(cm)
    k = cm.shape[-1]
    w = np.subtract.outer(np.arange(k), np.arange(k)) ** 2 / (k - 1) ** 2

    def kappa(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
        obs = counts.astype(np.float64) / totals[:, None, None]
        expected = obs.sum(axis=-1)[..., :, None] * obs.sum(axis=-2)[..., None, :]
        num = (w * obs).sum(axis=(-2, -1))
        den = (w * expected).sum(axis=(-2, -1))
        return np.where(den == 0.0, np.where(num == 0.0, 1.0, 0.0), 1.0 - num / den)

    with np.errstate(divide="ignore", invalid="ignore"):
        return _per_matrix(_per_chunk(cm, n, kappa))


def expected_cost(cm: np.ndarray, cost: CostMatrix) -> float:
    """Average cost of the confusion matrix (or of each in a stack, a chunk
    of matrices at a time)."""
    cm, n = _check_counts(cm)
    if cost.costs.shape != cm.shape[-2:]:
        raise ShapeMismatch(
            f"cost matrix shape {cost.costs.shape} does not match "
            f"confusion matrix shape {cm.shape[-2:]}"
        )
    return _per_matrix(
        _per_chunk(cm, n, lambda counts, totals: (counts * cost.costs).sum(axis=(-2, -1)) / totals)
    )


def check_bins(bins: int) -> None:
    """Reject an ECE bin count outside 1 to MAX_ECE_BINS, before any work."""
    if bins < 1:
        raise ZeroBins(f"need at least 1 bin, got {bins}")
    if bins > MAX_ECE_BINS:
        raise InvalidConfig(f"at most {MAX_ECE_BINS} bins, got {bins}")


def ece(ds: EvalDataset, bins: int = DEFAULT_ECE_BINS) -> float:
    """Top-label expected calibration error.

    Samples are bucketed by confidence (max probability) into ``bins``
    equal-width right-closed bins over (0, 1]; the result is the count-
    weighted mean absolute gap between per-bin accuracy and confidence.
    ``bins`` runs from 1 to MAX_ECE_BINS. Each bin's confidences are summed
    in sorted order, so the result does not depend on the order of the rows.
    """
    check_bins(bins)
    return _ece(ds.probs, _cells(ds.labels, ds.probs)[1], bins)


def _ece(probs: np.ndarray, cells: np.ndarray, bins: int) -> float:
    """``ece`` from a nonempty (N, K) ``probs`` and its confusion ``cells``,
    as ``_cells`` gives them, for a checked bin count.

    Each bin's size and count of correct samples are tallied a block of rows
    at a time; a block's samples are correct where their cells are multiples
    of K + 1. The confidences, the one vector here as long as the dataset,
    are then sorted in place. Bins are monotone in confidence, so that lays
    each bin's values out together, in bin order, and one ``np.add.reduceat``
    sums every nonempty bin. The result depends only on the (confidence,
    correct) pairs, not on the order of the rows.
    """
    conf = probs.max(axis=1)
    diagonal = probs.shape[1] + 1
    edges = np.linspace(0.0, 1.0, bins + 1)
    # a bin's accuracy is its exact count of correct samples over its size
    counts = np.zeros(bins, dtype=np.intp)
    correct = np.zeros(bins, dtype=np.intp)
    for lo in range(0, len(conf), _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        idx = np.digitize(conf[rows], edges, right=True)
        idx -= 1
        np.clip(idx, 0, bins - 1, out=idx)
        counts += np.bincount(idx, minlength=bins)
        correct += np.bincount(idx[cells[rows] % diagonal == 0], minlength=bins)
    conf.sort()
    full = np.flatnonzero(counts)
    sizes = counts[full]
    sums = np.add.reduceat(conf, np.cumsum(sizes) - sizes)
    gaps = np.abs(correct[full] / sizes - sums / sizes)
    return float((sizes / len(conf) * gaps).sum())


def _sorted_mean(scores: np.ndarray) -> float:
    """The mean of a fresh score vector, which it sorts in place: a sum in
    sorted order does not depend on the order of the rows. Taking each
    vector through this call keeps only one alive at a time."""
    scores.sort()
    return float(scores.mean())


def metric_report(
    ds: EvalDataset, cost: CostMatrix | None = None, bins: int = DEFAULT_ECE_BINS
) -> MetricReport:
    """Accuracy, QWK, expected cost, ECE and the mean of every scoring rule.

    ``cost`` defaults to the linear-distance matrix. Each rule's mean sums
    its scores in sorted order, so, as with ECE and the counts, the report
    does not depend on the order of the rows.
    """
    check_bins(bins)
    return _report(ds.labels, ds.probs, cost, bins)


def _report(
    labels: np.ndarray, probs: np.ndarray, cost: CostMatrix | None, bins: int
) -> MetricReport:
    """``metric_report`` of a dataset's ``labels`` and (N, K) ``probs``
    alone, for a checked bin count, so a caller can drop the rest of the
    dataset first. One argmax pass, a block of rows at a time, gives the
    confusion matrix and the confusion cells that ECE takes its correct
    samples from, a byte a sample up to K = 16; no argmax vector is kept."""
    cm, cells = _cells(labels, probs)
    if cost is None:
        cost = CostMatrix.linear(probs.shape[1])
    return MetricReport(
        accuracy=accuracy(cm),
        qwk=qwk(cm),
        expected_cost=expected_cost(cm, cost),
        ece=_ece(probs, cells, bins),
        n=len(labels),
        mean_scores={rule: _sorted_mean(fn(probs, labels)) for rule, fn in RULES.items()},
    )
