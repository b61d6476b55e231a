"""Brute-force reference implementations used as independent oracles.

Everything here is written directly from the defining formulas with plain
Python loops, before and independently of the library code. Tests compare
the vectorized implementations against these.
"""

import math


def ref_cumulative(probs):
    out = []
    total = 0.0
    for p in probs:
        total += p
        out.append(total)
    return out


def ref_brier(probs, label):
    total = 0.0
    for i, p in enumerate(probs):
        y = 1.0 if i == label else 0.0
        total += (p - y) ** 2
    return total


def ref_log_score(probs, label, eps=1e-12):
    return -math.log(max(probs[label], eps))


def ref_rps(probs, label):
    k = len(probs)
    cp = ref_cumulative(probs)
    cy = [1.0 if i >= label else 0.0 for i in range(k)]
    total = 0.0
    for i in range(k - 1):
        total += (cp[i] - cy[i]) ** 2
    return total / (k - 1)


def ref_sa_rps(probs, label):
    # bounded variant: normalization inside the outer square
    k = len(probs)
    cp = ref_cumulative(probs)
    cy = [1.0 if i >= label else 0.0 for i in range(k)]
    total = 0.0
    for i in range(k - 1):
        total += abs(cp[i] - cy[i])
    return (total / (k - 1)) ** 2


def ref_expected_score(rule, p, q):
    """Expected score of the report ``p`` when the label is drawn from ``q``."""
    score = {"brier": ref_brier, "log": ref_log_score, "rps": ref_rps, "sa_rps": ref_sa_rps}[rule]
    total = 0.0
    for y, qy in enumerate(q):
        total += qy * score(p, y)
    return total


def ref_qwk(counts):
    """Quadratic-weighted kappa by direct double loops over the cells."""
    k = len(counts)
    n = 0
    for row in counts:
        for c in row:
            n += c
    obs = [[counts[i][j] / n for j in range(k)] for i in range(k)]
    row_marg = [sum(obs[i][j] for j in range(k)) for i in range(k)]
    col_marg = [sum(obs[i][j] for i in range(k)) for j in range(k)]
    num = 0.0
    den = 0.0
    for i in range(k):
        for j in range(k):
            w = (i - j) ** 2 / (k - 1) ** 2
            num += w * obs[i][j]
            den += w * row_marg[i] * col_marg[j]
    if den == 0.0:
        return 1.0 if num == 0.0 else 0.0
    return 1.0 - num / den


def ref_expected_cost(counts, costs):
    k = len(counts)
    n = 0
    total = 0.0
    for t in range(k):
        for p in range(k):
            n += counts[t][p]
            total += counts[t][p] * costs[t][p]
    return total / n


def ref_ece(confidences, correct, bins):
    """Top-label ECE with equal-width right-closed bins over (0, 1]."""
    n = len(confidences)
    edges = [b / bins for b in range(bins + 1)]
    ece = 0.0
    for b in range(bins):
        members = [
            i
            for i in range(n)
            if edges[b] < confidences[i] <= edges[b + 1]
        ]
        if not members:
            continue
        acc = sum(1.0 for i in members if correct[i]) / len(members)
        conf = sum(confidences[i] for i in members) / len(members)
        ece += len(members) / n * abs(acc - conf)
    return ece


def ref_retained_count(fraction, n):
    return max(1, math.floor(fraction * n + 0.5))


def ref_rank(scores):
    """Sample indices by descending score, ties in dataset order (Python's
    sort is stable, and -0.0 == 0.0 is a tie)."""
    return sorted(range(len(scores)), key=lambda i: -scores[i])


MASK64 = 0xFFFFFFFFFFFFFFFF
GAMMA = 0x9E3779B97F4A7C15


def ref_mix64(z):
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
    return z ^ (z >> 31)


def ref_stream(seed, count, start=0):
    """SplitMix64 output sequence as pure-Python big ints."""
    return [
        ref_mix64((seed + (start + k + 1) * GAMMA) & MASK64)
        for k in range(count)
    ]


def ref_argmax(probs):
    """The class of the largest probability, the lowest one on a tie."""
    return max(range(len(probs)), key=lambda j: probs[j])


def _ref_cuts(best, labels, preds, k, fractions, metric, costs):
    """The confusion counts of the first ``ref_retained_count(f, len(best))``
    samples of the best-first list ``best``, for each fraction f, and the
    metric of each: ``(counts, values)``."""
    counts, values = [], []
    for f in fractions:
        cm = [[0] * k for _ in range(k)]
        for i in best[: ref_retained_count(f, len(best))]:
            cm[labels[i]][preds[i]] += 1
        counts.append(cm)
        values.append(ref_qwk(cm) if metric == "qwk" else ref_expected_cost(cm, costs))
    return counts, values


def ref_retention_curve(scores, labels, preds, k, fractions, metric, costs=None):
    """A retention curve by plain loops: the samples ranked with ``ref_rank``
    and reversed to best first, then, at each fraction, the confusion counts
    of the best ``ref_retained_count`` samples and their ``ref_qwk`` or
    ``ref_expected_cost``. ``preds`` are the argmax classes. Returns
    ``(counts, values)``, one entry per fraction."""
    best = ref_rank(scores)[::-1]
    return _ref_cuts(best, labels, preds, k, fractions, metric, costs)


def ref_replicate(seed, r, scores, labels, preds, k, fractions, metric, costs=None):
    """Bootstrap replicate ``r`` as ``ref_retention_curve`` scores it.

    The replicate holds sample ``v % n`` for each of the n outputs ``v`` of
    the SplitMix64 stream seeded by output ``r`` of the stream for ``seed``,
    as often as it was drawn, in dataset order; seed 0 stands for the
    dataset itself. It is ranked like a dataset of its own, so tied samples,
    copies included, keep their dataset order."""
    n = len(scores)
    draws = list(range(n))
    if seed != 0:
        sub = ref_stream(seed, 1, start=r)[0]
        draws = sorted(v % n for v in ref_stream(sub, n))
    best = [draws[j] for j in ref_rank([scores[i] for i in draws])][::-1]
    return _ref_cuts(best, labels, preds, k, fractions, metric, costs)
