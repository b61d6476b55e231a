import hashlib

import numpy as np
import pytest

from ordeval import synth
from ordeval import SynthConfig, brier, ece, generate, log_score, metric_report, rps, validate_dataset
from ordeval.errors import InvalidConfig


def mean_score(rule, ds):
    return np.mean([rule(p, int(y)) for p, y in zip(ds.probs, ds.labels)])


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0, "k": 3},
            {"n": 10, "k": 1},
            {"n": 10, "k": 3, "noise": -0.1},
            {"n": 10, "k": 3, "noise": float("nan")},
            {"n": 10, "k": 3, "miscal": 0.0},
            {"n": 10, "k": 3, "miscal": -1.0},
            {"n": 10, "k": 3, "mode": "random"},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidConfig):
            generate(SynthConfig(**kwargs))

    @pytest.mark.parametrize("mode", ["ordinal", "shuffled"])
    def test_more_classes_than_the_cap_fail_before_any_draw(self, monkeypatch, mode):
        def drawn(*args):
            raise AssertionError("nothing should be drawn")

        monkeypatch.setattr(synth, "_class_permutation", drawn)
        monkeypatch.setattr(synth, "_rows", drawn)
        with pytest.raises(InvalidConfig, match="^at most 256 classes, got 257$"):
            generate(SynthConfig(n=10, k=257, mode=mode))

    def test_the_most_classes_allowed(self):
        ds = generate(SynthConfig(n=300, k=256, mode="shuffled", seed=2))
        assert ds.num_classes == 256 and ds.probs.shape == (300, 256)


class TestDeterminism:
    def test_same_config_same_dataset(self):
        a = generate(SynthConfig(n=200, k=5, noise=1.1, miscal=1.3, seed=9))
        b = generate(SynthConfig(n=200, k=5, noise=1.1, miscal=1.3, seed=9))
        assert a.ids == b.ids
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.probs, b.probs)

    def test_different_seeds_differ(self):
        a = generate(SynthConfig(n=200, k=5, seed=1))
        b = generate(SynthConfig(n=200, k=5, seed=2))
        assert not np.array_equal(a.probs, b.probs)

    def test_id_format(self):
        ds = generate(SynthConfig(n=3, k=3, seed=1))
        assert ds.ids == ("s000001", "s000002", "s000003")

    @pytest.mark.parametrize(
        "cfg, digest",
        [
            (SynthConfig(n=500, k=5, noise=1.2, miscal=1.5, seed=7),
             "ab5dc3faf13ed23a0e32aab9a141409884335b7c0bc8060961496f4c1b850ec4"),
            (SynthConfig(n=300, k=7, noise=0.8, miscal=0.7, mode="shuffled", seed=3),
             "e5a3f4c593e9a7848458765377ac18ade7ea9c2412554c9674f07c65d68d4e6a"),
            (SynthConfig(n=200, k=3, noise=2.0, seed=11),
             "d3335974f984b0693ca85c851e1bcdbd35447dc401f6e0822ace25c4cb6d6a1c"),
        ],
        ids=["ordinal-miscal", "shuffled", "ordinal-wide"],
    )
    def test_frozen_bytes(self, cfg, digest):
        # generation is part of the benchmark's fixed inputs: its bytes must
        # not move when the code is restructured
        ds = generate(cfg)
        h = hashlib.sha256()
        h.update(ds.labels.astype("<i8").tobytes())
        h.update(ds.probs.astype("<f8").tobytes())
        h.update("\n".join(ds.ids).encode())
        assert h.hexdigest() == digest


    @pytest.mark.parametrize("mode", ["ordinal", "shuffled"])
    @pytest.mark.parametrize("k", [2, 8])
    def test_block_size_changes_nothing(self, monkeypatch, mode, k):
        cfg = SynthConfig(n=50, k=k, noise=1.4, miscal=1.7, mode=mode, seed=13)
        want = generate(cfg)
        for rows in (1, 7, cfg.n):
            monkeypatch.setattr(synth, "_BLOCK_ROWS", rows)
            got = generate(cfg)
            assert got.ids == want.ids
            assert got.labels.tobytes() == want.labels.tobytes()
            assert got.probs.tobytes() == want.probs.tobytes()


class TestLimits:
    def test_noise_zero_gives_exact_one_hots(self):
        ds = generate(SynthConfig(n=50, k=4, noise=0.0, seed=2))
        assert metric_report(ds).accuracy == 1.0
        assert np.array_equal(ds.probs.max(axis=1), np.ones(50))

    def test_tiny_noise_is_near_one_hot(self):
        ds = generate(SynthConfig(n=300, k=5, noise=1e-3, seed=3))
        assert metric_report(ds).accuracy == 1.0

    def test_valid_without_renormalization(self):
        ds0 = generate(SynthConfig(n=500, k=6, noise=1.4, miscal=1.7, seed=4))
        assert np.abs(ds0.probs.sum(axis=1) - 1.0).max() <= 1e-9
        again = validate_dataset(ds0)
        assert np.array_equal(again.probs, ds0.probs)


class TestModes:
    def test_mean_brier_identical_mean_rps_differs(self):
        cfg = dict(n=1500, k=5, noise=1.2, miscal=1.5, seed=6)
        ordinal = generate(SynthConfig(mode="ordinal", **cfg))
        shuffled = generate(SynthConfig(mode="shuffled", **cfg))
        mb_o = mean_score(brier, ordinal)
        mb_s = mean_score(brier, shuffled)
        assert mb_o == pytest.approx(mb_s, abs=1e-12)
        ml_o = mean_score(log_score, ordinal)
        ml_s = mean_score(log_score, shuffled)
        assert ml_o == ml_s  # true-class probabilities are bitwise identical
        mr_o = mean_score(rps, ordinal)
        mr_s = mean_score(rps, shuffled)
        assert mr_o < mr_s

    def test_shuffling_preserves_accuracy(self):
        cfg = dict(n=800, k=5, noise=1.2, seed=8)
        ordinal = generate(SynthConfig(mode="ordinal", **cfg))
        shuffled = generate(SynthConfig(mode="shuffled", **cfg))
        assert metric_report(ordinal).accuracy == metric_report(shuffled).accuracy

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_mean_rps_lower_in_ordinal_mode(self, seed):
        cfg = dict(n=1000, k=4, noise=1.0, seed=seed)
        ordinal = generate(SynthConfig(mode="ordinal", **cfg))
        shuffled = generate(SynthConfig(mode="shuffled", **cfg))
        assert mean_score(rps, ordinal) < mean_score(rps, shuffled)


class TestMiscalibration:
    def test_more_inflation_more_ece(self):
        values = [
            ece(generate(SynthConfig(n=3000, k=5, noise=1.2, miscal=m, seed=5)))
            for m in (1.0, 1.5, 2.0)
        ]
        assert values[0] < values[1] < values[2]

    def test_inflation_preserves_argmax(self):
        flat = generate(SynthConfig(n=400, k=5, noise=1.2, miscal=1.0, seed=7))
        sharp = generate(SynthConfig(n=400, k=5, noise=1.2, miscal=2.5, seed=7))
        assert np.array_equal(flat.probs.argmax(axis=1), sharp.probs.argmax(axis=1))
