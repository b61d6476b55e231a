"""The evaluation dataset, its validation, the cumulative distribution of a
probability vector, and misclassification cost matrices.

``EvalDataset`` keeps a whole test set in arrays: ids, labels and an N x K
probability matrix whose rows are nonnegative and sum to 1 within tolerance.
Every per-sample computation in the package works on these arrays directly.
Everything is immutable after validation, so datasets can be shared freely
across threads.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DuplicateId,
    EmptyDataset,
    InvalidConfig,
    LabelOutOfRange,
    NegativeProbability,
    NonFiniteProbability,
    ShapeMismatch,
    SumOutOfTolerance,
)

# Hard validation bound on |sum - 1|; beyond it the row is rejected.
SUM_TOLERANCE = 1e-6
# Rows whose sum is farther than this from 1 are renormalized. Renormalizing
# puts the sum within a few ulp of 1, i.e. well inside this trigger, which is
# what makes validation idempotent bit for bit.
_RENORM_TRIGGER = 1e-12


@dataclass(frozen=True)
class EvalDataset:
    """An ordered set of labeled probabilistic predictions over K classes.

    ``labels`` has shape (N,), ``probs`` shape (N, K). Sample order is
    significant: later tie-breaks fall back to position in this list.
    """

    num_classes: int
    ids: tuple
    labels: np.ndarray
    probs: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def validate_dataset(raw: EvalDataset) -> EvalDataset:
    """Check every dataset invariant and return the canonicalized dataset.

    Probability rows within SUM_TOLERANCE of summing to 1 are renormalized;
    anything worse is rejected. Labels must be valid class indices and ids
    unique. The returned arrays are read-only, and validating an already
    validated dataset returns identical values (the renormalization trigger
    sits far above the residual left by renormalization itself).
    """
    k = raw.num_classes
    if k < 2:
        raise ShapeMismatch(f"need at least 2 classes, got {k}")
    n = len(raw.ids)
    if n == 0:
        raise EmptyDataset("dataset has no samples")
    probs = np.array(raw.probs, dtype=np.float64)
    labels = np.asarray(raw.labels, dtype=np.int64)
    if probs.shape != (n, k):
        raise ShapeMismatch(
            f"probability matrix has shape {probs.shape}, expected {(n, k)}"
        )
    if labels.shape != (n,):
        raise ShapeMismatch(f"labels have shape {labels.shape}, expected {(n,)}")

    if not np.all(np.isfinite(probs)):
        bad = int(np.argwhere(~np.isfinite(probs).all(axis=1))[0, 0])
        raise NonFiniteProbability(f"non-finite probability in sample {raw.ids[bad]!r}")
    if np.any(probs < 0.0):
        bad = int(np.argwhere((probs < 0.0).any(axis=1))[0, 0])
        raise NegativeProbability(f"negative probability in sample {raw.ids[bad]!r}")

    sums = probs.sum(axis=1)
    off = np.abs(sums - 1.0)
    if np.any(off > SUM_TOLERANCE):
        bad = int(np.argmax(off))
        raise SumOutOfTolerance(
            f"sample {raw.ids[bad]!r} probabilities sum to {sums[bad]!r}"
        )
    renorm = off > _RENORM_TRIGGER
    if np.any(renorm):
        probs[renorm] /= sums[renorm, None]

    if np.any(labels < 0) or np.any(labels >= k):
        bad = int(np.argwhere((labels < 0) | (labels >= k))[0, 0])
        raise LabelOutOfRange(
            f"sample {raw.ids[bad]!r} has label {labels[bad]}, valid range 0..{k - 1}"
        )
    # equal ids have equal hashes, so only ids whose hashes collide in one
    # sorted array (8 bytes an id, where a set takes ~60) are compared
    hashes = np.fromiter(map(hash, raw.ids), np.int64, n)
    hashes.sort()
    collide = set(hashes[1:][hashes[1:] == hashes[:-1]].tolist())
    suspects = [sid for sid in raw.ids if hash(sid) in collide] if collide else ()
    if len(set(suspects)) != len(suspects):
        seen = set()
        for sid in raw.ids:
            if sid in seen:
                raise DuplicateId(f"duplicate sample id {sid!r}")
            seen.add(sid)

    return EvalDataset(k, tuple(raw.ids), _freeze(labels.copy()), _freeze(probs))


def cumulative(probs) -> np.ndarray:
    """Cumulative distribution of a probability vector.

    Partial sums clipped to [0, 1], with the last entry pinned to exactly 1.
    """
    c = np.minimum(np.cumsum(np.asarray(probs, dtype=np.float64)), 1.0)
    c[-1] = 1.0
    return c


@dataclass(frozen=True)
class CostMatrix:
    """K x K misclassification costs: nonnegative, zero diagonal.

    ``costs[t][p]`` is the penalty for predicting class p when the truth
    is class t.
    """

    costs: np.ndarray

    @property
    def num_classes(self) -> int:
        return self.costs.shape[0]

    @classmethod
    def from_array(cls, costs) -> "CostMatrix":
        c = np.array(costs, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ShapeMismatch(f"cost matrix must be square, got shape {c.shape}")
        if c.shape[0] < 2:
            raise ShapeMismatch("cost matrix needs at least 2 classes")
        if not np.all(np.isfinite(c)):
            raise InvalidConfig("cost matrix contains non-finite entries")
        if np.any(c < 0.0):
            raise InvalidConfig("cost matrix entries must be nonnegative")
        if np.any(np.diag(c) != 0.0):
            raise InvalidConfig("cost matrix diagonal must be zero")
        return cls(_freeze(c))

    @classmethod
    def linear(cls, num_classes: int) -> "CostMatrix":
        """Default costs |i - j| / (K - 1); the worst mistake costs 1."""
        idx = np.arange(num_classes)
        return cls.from_array(np.abs(idx[:, None] - idx[None, :]) / (num_classes - 1))

    @classmethod
    def quadratic(cls, num_classes: int) -> "CostMatrix":
        """Costs ((i - j) / (K - 1))^2, matching quadratic kappa weighting."""
        idx = np.arange(num_classes)
        return cls.from_array(((idx[:, None] - idx[None, :]) / (num_classes - 1)) ** 2)

    @classmethod
    def zero_one(cls, num_classes: int) -> "CostMatrix":
        """Uniform cost 1 for every mistake; expected cost = 1 - accuracy."""
        return cls.from_array(1.0 - np.eye(num_classes))
