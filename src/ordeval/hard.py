"""Metrics on arg-maxed hard predictions, plus a top-label calibration error.

The confusion matrix convention is ``counts[t][p]``: true class t, predicted
class p, with argmax ties resolved to the lowest class index. Quadratic-
weighted kappa and expected cost are the headline ordinal metrics; accuracy
and ECE provide context.
"""

from dataclasses import dataclass

import numpy as np

from .data import CostMatrix, EvalDataset
from .errors import EmptyDataset, ShapeMismatch, ZeroBins
from .scoring import RULES

DEFAULT_ECE_BINS = 15


@dataclass(frozen=True)
class MetricReport:
    """Headline metrics for one dataset; ``mean_scores`` maps each rule
    identifier to the rule's mean over the samples."""

    accuracy: float
    qwk: float
    expected_cost: float
    ece: float
    n: int
    mean_scores: dict


def hard_predictions(ds: EvalDataset) -> np.ndarray:
    """Argmax class per sample; ties go to the lowest index."""
    return np.argmax(ds.probs, axis=1)


def confusion(ds: EvalDataset) -> np.ndarray:
    """K x K confusion counts, counts[t][p], summing to len(ds)."""
    if len(ds) == 0:
        raise EmptyDataset("cannot build a confusion matrix from no samples")
    return confusion_from_arrays(ds.labels, hard_predictions(ds), ds.num_classes)


def confusion_from_arrays(
    labels: np.ndarray, preds: np.ndarray, num_classes: int
) -> np.ndarray:
    flat = np.bincount(labels * num_classes + preds, minlength=num_classes**2)
    return flat.reshape(num_classes, num_classes)


def _check_counts(cm: np.ndarray) -> int:
    cm = np.asarray(cm)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1]:
        raise ShapeMismatch(f"confusion matrix must be square, got {cm.shape}")
    n = int(cm.sum())
    if n < 1:
        raise EmptyDataset("confusion matrix has no counts")
    return n


def accuracy(cm: np.ndarray) -> float:
    n = _check_counts(cm)
    return float(np.trace(cm) / n)


def qwk(cm: np.ndarray) -> float:
    """Quadratic-weighted kappa from a confusion matrix.

    1 - sum(w * O) / sum(w * E) with weights w_ij = (i-j)^2 / (K-1)^2, O the
    confusion matrix normalized to sum 1, and E the outer product of O's
    marginals. Degenerate cases: if the expected disagreement is zero the
    score is 1 when the observed disagreement is also zero (nothing to
    disagree about), else 0.
    """
    n = _check_counts(cm)
    k = cm.shape[0]
    obs = np.asarray(cm, dtype=np.float64) / n
    idx = np.arange(k)
    w = (idx[:, None] - idx[None, :]) ** 2 / (k - 1) ** 2
    expected = np.outer(obs.sum(axis=1), obs.sum(axis=0))
    num = (w * obs).sum()
    den = (w * expected).sum()
    if den == 0.0:
        return 1.0 if num == 0.0 else 0.0
    return float(1.0 - num / den)


def expected_cost(cm: np.ndarray, cost: CostMatrix) -> float:
    """Average cost of the confusion matrix under ``cost``."""
    n = _check_counts(cm)
    if cost.costs.shape != np.asarray(cm).shape:
        raise ShapeMismatch(
            f"cost matrix shape {cost.costs.shape} does not match "
            f"confusion matrix shape {np.asarray(cm).shape}"
        )
    return float((np.asarray(cm) * cost.costs).sum() / n)


def ece(ds: EvalDataset, bins: int = DEFAULT_ECE_BINS) -> float:
    """Top-label expected calibration error.

    Samples are bucketed by confidence (max probability) into ``bins``
    equal-width right-closed bins over (0, 1]; the result is the count-
    weighted mean absolute gap between per-bin accuracy and confidence.
    """
    if len(ds) == 0:
        raise EmptyDataset("cannot compute ECE on no samples")
    if bins < 1:
        raise ZeroBins(f"need at least 1 bin, got {bins}")
    conf = ds.probs.max(axis=1)
    correct = hard_predictions(ds) == ds.labels
    edges = np.linspace(0.0, 1.0, bins + 1)
    idx = np.clip(np.digitize(conf, edges, right=True) - 1, 0, bins - 1)
    total = 0.0
    n = len(ds)
    for b in range(bins):
        members = idx == b
        n_b = int(members.sum())
        if n_b == 0:
            continue
        acc_b = correct[members].mean()
        conf_b = conf[members].mean()
        total += n_b / n * abs(acc_b - conf_b)
    return float(total)


def metric_report(
    ds: EvalDataset, cost: CostMatrix | None = None, bins: int = DEFAULT_ECE_BINS
) -> MetricReport:
    """Accuracy, QWK, expected cost, ECE and the mean of every scoring rule.

    ``cost`` defaults to the linear-distance matrix.
    """
    cm = confusion(ds)
    if cost is None:
        cost = CostMatrix.linear(ds.num_classes)
    return MetricReport(
        accuracy=accuracy(cm),
        qwk=qwk(cm),
        expected_cost=expected_cost(cm, cost),
        ece=ece(ds, bins),
        n=len(ds),
        mean_scores={
            rule: float(fn(ds.probs, ds.labels).mean()) for rule, fn in RULES.items()
        },
    )
