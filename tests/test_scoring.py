import hashlib

import numpy as np
import pytest

from ordeval import SynthConfig, brier, generate, log_score, rank_samples, rps, sa_rps
from ordeval.errors import UnknownRule
from ordeval import scoring
from ordeval.scoring import RULES

from helpers import make_dataset, random_prob_matrix, traced_peak
from reference import ref_brier, ref_expected_score, ref_log_score, ref_rps, ref_sa_rps


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


def simplex_grid(k, steps):
    """Every probability vector of K entries in multiples of 1 / steps."""
    if k == 1:
        return [[steps]]
    return [[a, *rest] for a in range(steps + 1) for rest in simplex_grid(k - 1, steps - a)]


class TestProperness:
    """A proper rule's expected score, with the label drawn from q, is lowest
    when the report is q. ``sa_rps`` is not proper: it ranks the samples of
    one forecast, and forecasts are compared by the mean of a proper rule."""

    @pytest.mark.parametrize("k, steps", [(3, 20), (4, 12), (5, 8)])
    @pytest.mark.parametrize("rule", ["brier", "log", "rps"])
    def test_lowest_at_the_true_distribution(self, rule, k, steps):
        grid = np.array(simplex_grid(k, steps)) / steps
        # expected[p, q]: every grid report against every grid distribution
        scores = np.column_stack([RULES[rule](grid, np.full(len(grid), y)) for y in range(k)])
        expected = scores @ grid.T
        assert np.argmin(expected, axis=0).tolist() == list(range(len(grid)))
        rng = np.random.default_rng(k)
        for i, j in rng.integers(0, len(grid), (50, 2)).tolist():
            p, q = grid[i].tolist(), grid[j].tolist()
            assert expected[i, j] == pytest.approx(ref_expected_score(rule, p, q), abs=1e-12)

    def test_sa_rps_counterexample(self):
        # a one-hot report at class 2 beats the truthful report q
        q = [v / 999 for v in (252, 189, 184, 60, 314)]
        truthful = ref_expected_score("sa_rps", q, q)
        one_hot = ref_expected_score("sa_rps", [0.0, 0.0, 1.0, 0.0, 0.0], q)
        assert truthful == pytest.approx(0.2003, abs=5e-5)
        assert one_hot == pytest.approx(0.1572, abs=5e-5)

    def test_sa_rps_bounded_by_the_squared_error_of_the_mean(self):
        # sa_rps(p, y) >= ((E_p[X] - y) / (K - 1))^2: the cumulative
        # differences sum to y - E_p[X], and their absolute values add up
        # to more unless p has mass on only one side of y
        k, n = 5, 20_000
        rng = np.random.default_rng(14)
        probs = random_prob_matrix(rng, n, k)
        labels = rng.integers(0, k, n)
        # half the rows keep only the mass on one side of y (y itself included)
        one_sided = rng.random(n) < 0.5
        below = rng.random(n) < 0.5
        classes = np.arange(k)
        keep = np.where(below[:, None], classes <= labels[:, None], classes >= labels[:, None])
        probs[one_sided] *= keep[one_sided]
        probs /= probs.sum(axis=1, keepdims=True)
        bound = np.square((probs @ classes - labels) / (k - 1))
        got = RULES["sa_rps"](probs, labels)
        assert np.all(got >= bound - 1e-15)
        assert np.all(np.abs(got - bound)[one_sided] <= 1e-15)
        lower = (probs * (classes < labels[:, None])).sum(axis=1)
        upper = (probs * (classes > labels[:, None])).sum(axis=1)
        both = np.minimum(lower, upper) > 1e-3
        assert both.sum() > n // 4
        assert np.all(got[both] > bound[both])


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
        assert np.argmax(ds.probs, axis=1).tolist() == [1, 2]

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


class TestRuleKernels:
    """The array form of each rule, pinned bit for bit and in memory."""

    # sha256 of each rule's float64 scores on three synthetic sets, recorded
    # before the kernels were rewritten to work in place
    DIGESTS = [
        (
            SynthConfig(n=2000, k=5, noise=1.2, miscal=1.5, seed=1),
            {
                "brier": "af36b6d85f605a486ac8b2c759e2a3058cb39b420b3bcab9862ec26f99831084",
                "log": "f66b023ebf15dc69a21cc489cafda563a9a1b62cd46d6c0fa44587ea1d5a8dee",
                "rps": "a56c314b9f1f69af775faef3ebb2d2983d8ffa0af2d7be2dca1a3a3ea916c3d9",
                "sa_rps": "8445227c80f7b4d27cd9ac9bbc6ebb914bed57a1a71c13373bb0013ad3420751",
            },
        ),
        (
            SynthConfig(n=1000, k=8, noise=2.0, mode="shuffled", seed=5),
            {
                "brier": "a8fda5d2445b9050854fc836e19e0ac04d873b7043896719025dcf9955d46f22",
                "log": "c3b4d6dedac7da260744989dbc4d1bfbe44ed052df3eb881e47e4acd2cd05af1",
                "rps": "af3baf185c371b48062778d913871df0b5a9b0ff9ad6ae1a3744f663f0e25b99",
                "sa_rps": "8417f623332fa191cae92e2a2b45ee9b22d9cf4ea4e398582e12bb458129c101",
            },
        ),
        (
            SynthConfig(n=700, k=2, noise=0.3, miscal=3.0, seed=9),
            {
                "brier": "ada380436dd1668017ba1c0e39795a7a021e2beaf89f94e776d697cc1d00c65a",
                "log": "cc68086214ea71857555c1fd9e76e667ab9dfb5c03e3740eab4508b793566ee8",
                "rps": "5bff54ac5de055a0f578f7d8944baf17c17e3e0078f9d372e7904f18571caf40",
                "sa_rps": "5bff54ac5de055a0f578f7d8944baf17c17e3e0078f9d372e7904f18571caf40",
            },
        ),
    ]

    @pytest.mark.parametrize("cfg, digests", DIGESTS, ids=["k5", "k8-shuffled", "k2"])
    def test_frozen_digests(self, cfg, digests):
        ds = generate(cfg)
        got = {
            rule: hashlib.sha256(fn(ds.probs, ds.labels).tobytes()).hexdigest()
            for rule, fn in RULES.items()
        }
        assert got == digests

    @pytest.mark.parametrize("cfg, digests", DIGESTS, ids=["k5", "k8-shuffled", "k2"])
    def test_frozen_digests_in_small_blocks(self, cfg, digests, monkeypatch):
        # scores are filled a block of rows at a time; the rows of a block
        # are scored alone, so the block size changes no bit
        monkeypatch.setattr(scoring, "_BLOCK_ROWS", 7)
        self.test_frozen_digests(cfg, digests)

    @pytest.mark.parametrize("rule", ["rps", "sa_rps"])
    def test_cumulative_rules_peak_memory(self, rule):
        # the result plus two (N, K-1) float64 arrays, and 64 KiB for array
        # headers and ufunc buffers
        n, k = 50_000, 5
        ds = generate(SynthConfig(n=n, k=k, seed=3))
        limit = 8 * n + 2 * 8 * n * (k - 1) + 65536
        assert traced_peak(RULES[rule], ds.probs, ds.labels)[0] < limit
