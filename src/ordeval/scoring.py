"""Per-sample scoring rules for probabilistic predictions.

All four rules are negatively oriented (0 = perfect, larger = worse). The
public functions score a single (probability vector, true class) pair; the
``RULES`` registry maps each rule identifier to its array form, which scores
a whole N x K probability matrix against N labels in one call and is what
ranking, retention curves and the CLI use:

- ``brier``: squared l2 distance between probabilities and the one-hot label.
- ``log_score``: negative log of the probability on the true class.
- ``rps``: mean squared difference between the cumulative distributions of
  prediction and label over the first K-1 classes; sensitive to class order.
- ``sa_rps``: squared-absolute variant of ``rps`` whose penalty grows
  quadratically with distance and which drops rps's preference for
  symmetric predictions.

Rule identifiers used everywhere (library, CLI, file outputs) are the
lowercase strings "brier", "log", "rps", "sa_rps". The array form fills one
N-vector of scores ``_BLOCK_ROWS`` rows at a time, so its temporaries
never span the whole matrix. Those blocks are 4,096 rows, a quarter of the
blocks that validation and ``hard`` take: the temporaries of a block
(brier's copy, the cumulative differences of ``rps`` and ``sa_rps``), not
the overhead of each call, set the ``evaluate`` command's peak, and the
rows of a block are scored alone, so its size changes no bit.
"""

import numpy as np

from .errors import UnknownRule

# Probability floor for the logarithmic score. File-ingested predictions can
# carry exact zeros; an infinite score would poison sorting and averaging.
LOG_EPS = 1e-12

_BLOCK_ROWS = 4096


def _brier_matrix(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    d = probs.copy()
    d[np.arange(len(d)), labels] -= 1.0
    return np.square(d, out=d).sum(axis=1)


def _log_matrix(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    p_true = probs[np.arange(probs.shape[0]), labels]
    return 0.0 - np.log(np.maximum(p_true, LOG_EPS))  # 0.0- avoids -0.0 at p=1


def _cumulative_diffs(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Prediction minus label cumulative distribution over the first K-1
    classes (the K-th entries are both 1), as one fresh (N, K-1) array."""
    d = np.cumsum(probs[:, :-1], axis=1)
    np.minimum(d, 1.0, out=d)
    d -= labels[:, None] <= np.arange(probs.shape[1] - 1)
    return d


def _rps_matrix(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    d = _cumulative_diffs(probs, labels)
    s = np.square(d, out=d).sum(axis=1)
    s /= probs.shape[1] - 1
    return s


def _sa_rps_matrix(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    d = _cumulative_diffs(probs, labels)
    s = np.abs(d, out=d).sum(axis=1)
    s /= probs.shape[1] - 1
    return np.square(s, out=s)


def _blockwise(rule_matrix):
    """The array form of a rule from its form on a block of rows: the N
    scores go into one fresh vector, ``_BLOCK_ROWS`` rows at a time."""

    def scores(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
        out = np.empty(len(probs))
        for lo in range(0, len(out), _BLOCK_ROWS):
            rows = slice(lo, lo + _BLOCK_ROWS)
            out[rows] = rule_matrix(probs[rows], labels[rows])
        return out

    return scores


RULES = {
    "brier": _blockwise(_brier_matrix),
    "log": _blockwise(_log_matrix),
    "rps": _blockwise(_rps_matrix),
    "sa_rps": _blockwise(_sa_rps_matrix),
}


def _rule_fn(rule: str):
    try:
        return RULES[rule]
    except (KeyError, TypeError):
        raise UnknownRule(
            f"unknown rule {rule!r}; expected one of {', '.join(RULES)}"
        ) from None


def _score_one(rule_matrix, probs, label) -> float:
    p = np.asarray(probs, dtype=np.float64)[None, :]
    return float(rule_matrix(p, np.array([label], dtype=np.int64))[0])


def brier(probs, label: int) -> float:
    """Sum of squared differences between probabilities and the one-hot label.

    Range [0, 2]; insensitive to class order.
    """
    return _score_one(_brier_matrix, probs, label)


def log_score(probs, label: int) -> float:
    """-log of the probability assigned to the true class, floored at LOG_EPS.

    Depends only on ``probs[label]`` (a local rule).
    """
    return _score_one(_log_matrix, probs, label)


def rps(probs, label: int) -> float:
    """Ranked probability score.

    Mean over the first K-1 positions of the squared difference between the
    cumulative distributions of prediction and one-hot label. Range [0, 1];
    mass far from the true class costs more than mass nearby. Equals half
    the Brier score when K = 2.
    """
    return _score_one(_rps_matrix, probs, label)


def sa_rps(probs, label: int) -> float:
    """Squared-absolute ranked probability score.

    The mean absolute cumulative difference, squared:

        ( sum_i |P_i - Y_i| / (K - 1) )^2

    which stays in [0, 1] and penalizes a one-hot prediction at distance d
    by exactly (d / (K-1))^2 -- quadratic in distance, with no preference
    for symmetric probability placement.

    It is not a proper scoring rule: it is at least ((E_p[X] - y) / (K-1))^2,
    with equality when ``probs`` has mass on only one side of ``label``, so
    moving mass to one side of the expected class can lower the expected
    score below that of the true distribution. Use it to rank the samples
    of one forecast; compare models by the mean of a proper rule (``rps``).
    """
    return _score_one(_sa_rps_matrix, probs, label)

