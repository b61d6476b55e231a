"""Shared test helpers."""

import gc
import tracemalloc

import numpy as np

from ordeval import EvalDataset, _rng, validate_dataset


def make_dataset(probs, labels, ids=None, k=None, validate=True):
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if k is None:
        k = probs.shape[1]
    if ids is None:
        ids = tuple(f"x{i}" for i in range(len(labels)))
    ds = EvalDataset(k, tuple(ids), labels, probs)
    return validate_dataset(ds) if validate else ds


def random_prob_matrix(rng, n, k):
    """Random strictly-positive probability rows (Dirichlet-like)."""
    raw = -np.log(rng.random((n, k)) + 1e-300)
    return raw / raw.sum(axis=1, keepdims=True)


def tenths(probs):
    """Rows rounded to multiples of 0.1 that still sum to 1 (largest
    remainder), so many samples share a score."""
    scaled = probs * 10
    units = np.floor(scaled)
    rank = np.argsort(np.argsort(units - scaled, axis=1, kind="stable"), axis=1)
    return (units + (rank < (10 - units.sum(axis=1))[:, None])) / 10


def resample_indices(seed, replicate, n):
    """Index draws for one bootstrap replicate: one row of ``_rng.resample_block``."""
    return _rng.resample_block(seed, replicate, 1, n)[0]


def traced_peak(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` under ``tracemalloc``: the peak of the call,
    the bytes still held when it returns, and its result. Only what the call
    allocates counts; the arguments were made before tracing started."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, held, result
