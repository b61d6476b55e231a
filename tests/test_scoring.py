import numpy as np
import pytest

from ordeval import brier, log_score, rank_samples, rps, sa_rps
from ordeval.errors import UnknownRule
from ordeval.hard import hard_predictions
from ordeval.scoring import RULES

from helpers import make_dataset, random_prob_matrix
from reference import ref_brier, ref_log_score, ref_rps, ref_sa_rps


class TestBrier:
    def test_perfect_prediction(self):
        assert brier([0.0, 1.0, 0.0], 1) == 0.0

    def test_worked_example(self):
        assert brier([0.25, 0.75, 0.0], 0) == pytest.approx(1.125, abs=1e-15)

    def test_distance_insensitive(self):
        near = brier([0.25, 0.75, 0.0], 0)
        far = brier([0.25, 0.0, 0.75], 0)
        assert near == far == pytest.approx(1.125, abs=1e-15)

    def test_range(self):
        assert brier([0.0, 0.0, 1.0], 0) == pytest.approx(2.0, abs=1e-15)


class TestLogScore:
    def test_certainty_is_zero(self):
        assert log_score([0.0, 1.0], 1) == 0.0

    def test_worked_example(self):
        assert log_score([0.25, 0.75, 0.0], 0) == pytest.approx(
            1.3862943611198906, abs=1e-12
        )

    def test_clamps_zero_probability(self):
        assert log_score([0.0, 1.0], 0) == pytest.approx(27.631021115928547, abs=1e-9)

    def test_local_in_true_class_probability(self):
        a = log_score([0.3, 0.5, 0.2], 1)
        b = log_score([0.05, 0.5, 0.45], 1)
        assert a == b
        # off-label reshuffling does change the non-local rules
        assert brier([0.3, 0.5, 0.2], 1) != brier([0.05, 0.5, 0.45], 1)
        assert rps([0.3, 0.5, 0.2], 1) != rps([0.05, 0.5, 0.45], 1)


class TestRps:
    def test_one_hot_penalties_linear(self):
        assert rps([1.0, 0.0, 0.0], 0) == 0.0
        assert rps([0.0, 1.0, 0.0], 0) == 0.5
        assert rps([0.0, 0.0, 1.0], 0) == 1.0

    def test_symmetry_preference_pair(self):
        assert rps([0.30, 0.40, 0.30], 1) == pytest.approx(0.09, abs=1e-12)
        assert rps([0.45, 0.50, 0.05], 1) == pytest.approx(0.1025, abs=1e-12)

    def test_two_class_reduction_to_half_brier(self):
        rng = np.random.default_rng(31)
        for row in random_prob_matrix(rng, 300, 2):
            label = int(rng.integers(0, 2))
            assert rps(row, label) == pytest.approx(brier(row, label) / 2, abs=1e-12)

    def test_distance_sensitive_under_permutation(self):
        p = [0.7, 0.2, 0.1]
        # swap classes 1 and 2 jointly in (p, y): label 0 stays put
        p_swapped = [0.7, 0.1, 0.2]
        assert brier(p, 0) == pytest.approx(brier(p_swapped, 0), abs=1e-12)
        assert log_score(p, 0) == log_score(p_swapped, 0)
        assert rps(p, 0) != rps(p_swapped, 0)


class TestSaRps:
    def test_one_hot_penalties_quadratic(self):
        assert sa_rps([1.0, 0.0, 0.0], 0) == 0.0
        assert sa_rps([0.0, 1.0, 0.0], 0) == 0.25
        assert sa_rps([0.0, 0.0, 1.0], 0) == 1.0

    @pytest.mark.parametrize("k", range(2, 11))
    def test_one_hot_distance_law(self, k):
        for d in range(k):
            p = np.zeros(k)
            p[d] = 1.0
            assert sa_rps(p, 0) == (d / (k - 1)) ** 2
            assert rps(p, 0) == pytest.approx(d / (k - 1), abs=1e-15)

    def test_breaks_symmetry_preference(self):
        sym = sa_rps([0.30, 0.40, 0.30], 1)
        asym = sa_rps([0.45, 0.50, 0.05], 1)
        assert sym == pytest.approx(0.09, abs=1e-12)
        assert asym == pytest.approx(0.0625, abs=1e-12)
        assert asym < sym  # reversed relative to rps


class TestProperties:
    def test_matches_loop_oracles(self):
        rng = np.random.default_rng(32)
        for k in range(2, 9):
            probs = random_prob_matrix(rng, 40, k)
            labels = rng.integers(0, k, 40)
            for p, c in zip(probs, labels):
                c = int(c)
                assert brier(p, c) == pytest.approx(ref_brier(p, c), abs=1e-12)
                assert log_score(p, c) == pytest.approx(ref_log_score(p, c), abs=1e-12)
                assert rps(p, c) == pytest.approx(ref_rps(p, c), abs=1e-12)
                assert sa_rps(p, c) == pytest.approx(ref_sa_rps(p, c), abs=1e-12)

    def test_nonnegative_and_zero_at_perfection(self):
        rng = np.random.default_rng(33)
        for k in (2, 4, 7):
            probs = random_prob_matrix(rng, 100, k)
            labels = rng.integers(0, k, 100)
            for p, c in zip(probs, labels):
                c = int(c)
                for fn in (brier, log_score, rps, sa_rps):
                    assert fn(p, c) >= 0.0
            perfect = np.zeros(k)
            perfect[1] = 1.0
            for fn in (brier, log_score, rps, sa_rps):
                assert fn(perfect, 1) == 0.0

    def test_joint_shuffle_invariance(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            k = int(rng.integers(3, 7))
            p = random_prob_matrix(rng, 1, k)[0]
            label = int(rng.integers(0, k))
            sigma = rng.permutation(k)  # new[i] = old[sigma[i]]
            p2 = p[sigma]
            label2 = int(np.where(sigma == label)[0][0])
            assert brier(p2, label2) == pytest.approx(brier(p, label), abs=1e-12)
            assert log_score(p2, label2) == log_score(p, label)


class TestScoreDataset:
    """Whole-dataset scoring: the array form of every rule, as returned by
    rank_samples."""

    def _eq3_dataset(self):
        return make_dataset(
            [[0.25, 0.75, 0.0], [0.25, 0.0, 0.75]], [0, 0], ids=("p1", "p2")
        )

    def test_map_semantics_and_order(self):
        ds = self._eq3_dataset()
        _, scores = rank_samples(ds, "rps")
        # one score per sample, in dataset order
        assert ds.ids == ("p1", "p2") and scores.shape == (2,)
        assert scores[0] == pytest.approx(0.28125, abs=1e-15)
        assert scores[1] == pytest.approx(0.5625, abs=1e-15)
        assert hard_predictions(ds).tolist() == [1, 2]

    def test_matches_per_sample_calls(self):
        rng = np.random.default_rng(35)
        ds = make_dataset(random_prob_matrix(rng, 50, 4), rng.integers(0, 4, 50))
        for rule, scalar in (("brier", brier), ("log", log_score),
                             ("rps", rps), ("sa_rps", sa_rps)):
            order, scores = rank_samples(ds, rule)
            for s, p, c in zip(scores, ds.probs, ds.labels):
                assert s == pytest.approx(scalar(p, int(c)), abs=1e-15)
            assert np.all(np.diff(scores[order]) <= 0)

    def test_rule_registry(self):
        assert set(RULES) == {"brier", "log", "rps", "sa_rps"}

    def test_unknown_rule(self):
        ds = self._eq3_dataset()
        with pytest.raises(UnknownRule):
            rank_samples(ds, "")
        with pytest.raises(UnknownRule):
            rank_samples(ds, "bogus")
