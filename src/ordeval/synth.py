"""Seeded generators of synthetic probabilistic predictions.

The "ordinal" mode imitates a classifier whose mistakes have the two shapes
seen in graded-severity problems:

- a displaced bump: Gaussian-shaped logits centered near the true class,
  jittered by up to 1.5 * noise, so most errors land on adjacent classes;
- a confusion lobe: with probability 1/4 the sample trades a large share of
  its mass to one other class, chosen uniformly, i.e. a lookalike confusion
  that can sit arbitrarily far from the truth.

Both channels scale with ``noise`` (at 0 the output is exact one-hots), and
``miscal`` sharpens the final probabilities without moving any argmax. The
mix matters: near-misses and far confusions carry similar probability on
the true class, so scores that only look at p[label] cannot separate them,
while distance-sensitive scores can.

The "shuffled" mode relabels classes by one fixed random permutation
(applied jointly to probability columns and labels), which destroys the
distance structure while leaving every order-insensitive quantity --
per-sample Brier and log scores, accuracy -- unchanged.

Generation is counter-based: every draw is a pure function of (seed, sample
index), so output never depends on evaluation order. Samples are made a
block at a time, and ``data._build`` fills the dataset's arrays with them
and validates them, as it does for the file reader.
"""

import numpy as np

from . import _rng
from .data import MAX_CELLS, MODES, EvalDataset, _build, _Record
from .errors import InvalidConfig

# samples per block: a block's draws and temporaries take about 70 bytes a
# sample and class, under a megabyte at K = 5, and smaller blocks run slower
_BLOCK_ROWS = 1 << 11

# error-shape constants, all relative to cfg.noise
_JITTER_SPAN = 1.5  # bump center offset ~ U(-1.5, 1.5) * noise
_BUMP_WIDTH = 0.45  # main bump sigma, in units of noise
_LOBE_WIDTH = 0.30  # confusion lobe sigma, in units of noise
_LOBE_PROB = 0.25  # fraction of samples with a confusion lobe
_LOBE_MASS_CAP = 0.6  # lobe mass up to min(0.85, 0.6 * noise) ...
_LOBE_MASS_LO = 0.6  # ... drawn from the top 40% of that range


class SynthConfig(_Record):
    """Generator settings: ``n`` samples of ``k`` classes, ``noise``,
    ``miscal``, ``mode`` (one of MODES) and ``seed``.

    ``noise`` controls how widely predicted mass spreads around the true
    class and how much of it confusion lobes divert (0 = exact one-hots).
    ``miscal`` inflates confidence (>1 sharpens, <1 flattens) without
    changing the argmax, pushing stated confidence away from accuracy.
    """

    __slots__ = ("n", "k", "noise", "miscal", "mode", "seed")
    _defaults = {"noise": 1.0, "miscal": 1.0, "mode": "ordinal", "seed": 42}


def _check_config(cfg: SynthConfig) -> None:
    if cfg.n < 1:
        raise InvalidConfig(f"need at least 1 sample, got n={cfg.n}")
    if cfg.k < 2:
        raise InvalidConfig(f"need at least 2 classes, got k={cfg.k}")
    if cfg.n * cfg.k > MAX_CELLS:
        raise InvalidConfig(
            f"n * k must be at most {MAX_CELLS:,}, got n={cfg.n}, k={cfg.k}"
        )
    if not np.isfinite(cfg.noise) or cfg.noise < 0:
        raise InvalidConfig(f"noise must be finite and >= 0, got {cfg.noise}")
    if not np.isfinite(cfg.miscal) or cfg.miscal <= 0:
        raise InvalidConfig(f"miscal must be finite and > 0, got {cfg.miscal}")
    if cfg.mode not in MODES:
        raise InvalidConfig(f"mode must be one of {', '.join(MODES)}, got {cfg.mode!r}")


def _bump(grid: np.ndarray, centers: np.ndarray, width: float) -> np.ndarray:
    # one (n, K) array, updated in place: the result is bitwise that of
    # -((grid - centers) ** 2) / (2 width^2), shifted, exponentiated, normed
    p = grid[None, :] - centers[:, None]
    p **= 2
    np.negative(p, out=p)
    p /= 2.0 * width**2
    p -= p.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    return p


def _class_permutation(seed: int, n: int, k: int) -> np.ndarray:
    """One dataset-level permutation of the class indices.

    Seeded from the parent stream just past the per-sample substreams.
    Identity and full reversal preserve all class distances, so for k >= 3
    they are skipped (they would not break ordinality); for k = 2 every
    permutation is distance-preserving and the first draw is kept.
    """
    attempt = 0
    while True:
        perm_seed = int(_rng.stream(seed, 1, start=n + attempt)[0])
        perm = _rng.permutation(perm_seed, k)
        if k == 2:
            return perm
        if not np.array_equal(perm, np.arange(k)) and not np.array_equal(
            perm, np.arange(k)[::-1]
        ):
            return perm
        attempt += 1


def _rows(cfg: SynthConfig, lo: int, perm) -> tuple[list, np.ndarray, np.ndarray]:
    """The ``_BLOCK_ROWS`` samples from ``lo`` on, or those left, as an (ids,
    labels, probs) block; ``perm`` relabels the classes in shuffled mode."""
    hi = min(cfg.n, lo + _BLOCK_ROWS)
    subs = _rng.stream(cfg.seed, hi - lo, start=lo)
    m, k = hi - lo, cfg.k
    labels = _rng.integers_mod(_rng.substream_column(subs, 0), k)
    if cfg.noise == 0.0:
        probs = np.zeros((m, k))
        probs[np.arange(m), labels] = 1.0
    else:
        u_jitter = _rng.uniform01(_rng.substream_column(subs, 1))
        u_lobe = _rng.uniform01(_rng.substream_column(subs, 2))
        lobe_class = _rng.integers_mod(_rng.substream_column(subs, 3), k)
        u_mass = _rng.uniform01(_rng.substream_column(subs, 4))
        grid = np.arange(k, dtype=np.float64)
        centers = labels + (2.0 * u_jitter - 1.0) * _JITTER_SPAN * cfg.noise
        probs = _bump(grid, centers, _BUMP_WIDTH * cfg.noise)
        lobe = _bump(grid, lobe_class.astype(np.float64), _LOBE_WIDTH * cfg.noise)
        cap = min(0.85, _LOBE_MASS_CAP * cfg.noise)
        mass = np.where(
            u_lobe < _LOBE_PROB,
            cap * (_LOBE_MASS_LO + (1.0 - _LOBE_MASS_LO) * u_mass),
            0.0,
        )
        # (1 - mass) * main + mass * lobe, in place
        probs *= (1.0 - mass)[:, None]
        lobe *= mass[:, None]
        probs += lobe
        if cfg.miscal != 1.0:
            probs **= cfg.miscal
            probs /= probs.sum(axis=1, keepdims=True)
    if perm is not None:
        probs = probs[:, np.argsort(perm)]  # new column perm[j] holds old column j
        labels = perm[labels]
    return list(map("s%06d".__mod__, range(lo + 1, hi + 1))), labels, probs


def generate(cfg: SynthConfig) -> EvalDataset:
    """Build a validated dataset of ``cfg.n`` synthetic predictions.

    ``data._build`` fills the dataset's arrays with samples made
    ``_BLOCK_ROWS`` at a time; every draw depends only on (seed, sample
    index), so the result does not depend on the block size. The class
    permutation is drawn with the first block, after ``_build`` has checked
    the class count.
    """
    _check_config(cfg)
    return _build(cfg.k, cfg.n, _blocks(cfg))


def _blocks(cfg: SynthConfig):
    perm = _class_permutation(cfg.seed, cfg.n, cfg.k) if cfg.mode == "shuffled" else None
    for lo in range(0, cfg.n, _BLOCK_ROWS):
        yield _rows(cfg, lo, perm)
