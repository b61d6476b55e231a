import numpy as np

from ordeval import _rng

from helpers import resample_indices
from reference import ref_stream


def test_stream_matches_pure_python_reference():
    for seed in (0, 1, 42, 2**63, 0xFFFFFFFFFFFFFFFF, 123456789):
        got = _rng.stream(seed, 16)
        want = ref_stream(seed, 16)
        assert [int(v) for v in got] == want


def test_stream_slices_are_consistent():
    whole = _rng.stream(7, 20)
    tail = _rng.stream(7, 12, start=8)
    assert np.array_equal(whole[8:], tail)


def test_substream_column_matches_stream():
    seeds = _rng.stream(99, 5)
    for col in (0, 1, 4):
        got = _rng.substream_column(seeds, col)
        want = [int(_rng.stream(int(s), 1, start=col)[0]) for s in seeds]
        assert [int(v) for v in got] == want


def test_uniform01_range():
    u = _rng.uniform01(_rng.stream(3, 10000))
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert 0.45 < u.mean() < 0.55


def test_integers_mod_range():
    v = _rng.integers_mod(_rng.stream(5, 10000), 7)
    assert v.min() >= 0 and v.max() <= 6
    assert len(np.unique(v)) == 7


def test_integers_mod_matches_python_modulo():
    top = 2**64 - 1
    for b in (1, 2, 7, 2**32 - 1, 2**32 + 1, 2**62 + 3):
        values = [0, 1, b - 1, b, 2 * b, (top // b) * b, top - 1, top]
        draws = np.array(values, dtype=np.uint64)
        got = _rng.integers_mod(draws, b)
        assert got.dtype == np.int64
        assert got.tolist() == [v % b for v in values]
        assert draws.tolist() == values  # the draws are left as they were


def test_resample_indices_deterministic_and_in_range():
    a = resample_indices(42, 3, 500)
    b = resample_indices(42, 3, 500)
    assert np.array_equal(a, b)
    assert a.min() >= 0 and a.max() < 500
    c = resample_indices(42, 4, 500)
    assert not np.array_equal(a, c)


def test_permutation_is_permutation():
    for seed in (1, 2, 3, 99):
        p = _rng.permutation(seed, 8)
        assert sorted(p.tolist()) == list(range(8))
    assert np.array_equal(_rng.permutation(5, 6), _rng.permutation(5, 6))


def test_resample_indices_matches_reference():
    # replicate r draws from the substream seeded by output r of the stream
    for seed, r, n in ((42, 0, 9), (42, 5, 17), (1, 3, 1)):
        sub = ref_stream(seed, 1, start=r)[0]
        want = [v % n for v in ref_stream(sub, n)]
        assert resample_indices(seed, r, n).tolist() == want


def test_resample_block_rows_are_replicates():
    for seed in (42, 0xFFFF_FFFF_FFFF_FFFF, -1):
        for n in (1, 7, 300):
            block = _rng.resample_block(seed, 4, 6, n)
            assert block.shape == (6, n) and block.dtype == np.int64
            for i, row in enumerate(block):
                assert np.array_equal(row, resample_indices(seed, 4 + i, n))
