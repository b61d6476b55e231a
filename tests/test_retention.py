import hashlib

import numpy as np
import pytest

from ordeval import (
    CostMatrix,
    EvalDataset,
    SynthConfig,
    bootstrap_aursc,
    generate,
    metric_report,
    rank_samples,
    retained_count,
    sample_retention_curve,
)
from ordeval import hard, retention, scoring
from ordeval.errors import (
    EmptyDataset,
    EmptyFractionList,
    FractionOutOfRange,
    InvalidConfig,
    UnknownMetric,
    UnknownRule,
)
from ordeval.retention import (
    DEFAULT_FRACTIONS,
    MAX_FRACTIONS,
    MAX_REPLICATES,
    METRICS,
    check_fractions,
    retention_analysis,
)

from helpers import make_dataset, resample_indices, tenths, traced_peak
from reference import ref_argmax, ref_rank, ref_replicate, ref_retention_curve


def eq3_dataset():
    return make_dataset(
        [[0.25, 0.75, 0.0], [0.25, 0.0, 0.75]], [0, 0], ids=("p1", "p2")
    )


def one_hot_dataset(labels, preds, k):
    n = len(labels)
    probs = np.zeros((n, k))
    probs[np.arange(n), preds] = 1.0
    return make_dataset(probs, labels, k=k)


def signed_zeros():
    """Distinct scores but for 0.0 at sample 100 and -0.0 at sample 400, a
    tie that numpy's default sort may break either way."""
    scores = np.random.default_rng(1).random(500) - 0.5
    scores[100], scores[400] = 0.0, -0.0
    return scores


# 1.0:0.005:0.005, 200 fractions
FINE_GRID = tuple(round(1.0 - i * 0.005, 10) for i in range(200))


class TestRankSamples:
    def test_rps_orders_far_prediction_worst(self):
        ds = eq3_dataset()
        order, scores = rank_samples(ds, "rps")
        assert [ds.ids[i] for i in order] == ["p2", "p1"]
        # scores stay in dataset order
        assert scores[0] == pytest.approx(0.28125, abs=1e-15)
        assert scores[1] == pytest.approx(0.5625, abs=1e-15)
        assert np.argmax(ds.probs, axis=1).tolist() == [1, 2]

    def test_brier_tie_keeps_input_order(self):
        order, scores = rank_samples(eq3_dataset(), "brier")
        assert order.tolist() == [0, 1]
        assert scores[0] == scores[1]

    def test_single_sample(self):
        ds = make_dataset([[1.0, 0.0]], [0], ids=("only",))
        order, scores = rank_samples(ds, "log")
        assert order.tolist() == [0] and scores.tolist() == [0.0]

    @pytest.mark.parametrize(
        "scores",
        [
            np.random.default_rng(1).random(500),
            np.round(np.random.default_rng(2).random(500), 1),
            np.full(300, 0.25),
            signed_zeros(),
            np.array([0.5]),
            np.array([0.2, 0.7]),
            np.array([0.4, 0.4]),
        ],
        ids=["untied", "tenths-tied", "all-equal", "signed-zeros", "n=1", "n=2", "n=2-tied"],
    )
    def test_matches_plain_sort(self, monkeypatch, scores):
        monkeypatch.setitem(scoring.RULES, "rps", lambda probs, labels: scores.copy())
        ds = one_hot_dataset([0] * len(scores), [0] * len(scores), 2)
        order, got = rank_samples(ds, "rps")
        assert order.tolist() == ref_rank(scores.tolist())
        assert np.array_equal(got, scores)

    @pytest.mark.parametrize("block", [7, retention._BLOCK_ROWS])
    @pytest.mark.parametrize(
        "scores",
        [
            np.random.default_rng(3).random(300),
            np.round(np.random.default_rng(4).random(300), 1),
            signed_zeros(),
            np.array([0.0, -0.0, 0.0, 0.5, -0.0, 0.5]),
        ],
        ids=["untied", "tenths-tied", "signed-zeros", "zeros-and-halves"],
    )
    def test_order_and_scores_bit_for_bit(self, monkeypatch, scores, block):
        # the scores are negated in place and back: the same order as a
        # stable sort of a negated copy, and the very bits of the scores,
        # 0.0 and -0.0 among them
        monkeypatch.setattr(retention, "_BLOCK_ROWS", block)
        monkeypatch.setitem(scoring.RULES, "rps", lambda probs, labels: scores.copy())
        ds = one_hot_dataset([0] * len(scores), [0] * len(scores), 2)
        order, got = rank_samples(ds, "rps")
        assert np.array_equal(order, np.argsort(-scores, kind="stable"))
        if len(np.unique(scores)) == len(scores):
            assert np.array_equal(order, np.argsort(-scores))
        assert got.tobytes() == scores.tobytes()

    def test_a_tie_at_any_block_edge_sorts_again_stably(self, monkeypatch):
        # blocks of 7 adjacent pairs, overlapping by one key: a tie between
        # any two neighbours in the ranking calls for the stable sort
        n = 30
        monkeypatch.setattr(retention, "_BLOCK_ROWS", 7)
        argsort, kinds = np.argsort, []

        def spied(a, kind=None):
            kinds.append(kind)
            return argsort(a, kind=kind)

        monkeypatch.setattr(np, "argsort", spied)
        ds = one_hot_dataset([0] * n, [0] * n, 2)
        perm = np.random.default_rng(5).permutation(n)
        for tie in [None, *range(n - 1)]:  # ranks tie and tie + 1 share a score
            ranked = np.arange(n, 0, -1.0)
            if tie is not None:
                ranked[tie + 1] = ranked[tie]
            scores = ranked[perm]
            monkeypatch.setitem(scoring.RULES, "rps", lambda probs, labels: scores.copy())
            kinds.clear()
            order, _ = rank_samples(ds, "rps")
            assert kinds == ([None] if tie is None else [None, "stable"]), tie
            assert np.array_equal(order, argsort(-scores, kind="stable"))

    def test_errors(self):
        for rule in ("nope", ""):
            with pytest.raises(UnknownRule):
                rank_samples(eq3_dataset(), rule)
        empty = EvalDataset(2, (), np.array([], dtype=np.int64), np.zeros((0, 2)))
        with pytest.raises(EmptyDataset):
            rank_samples(empty, "rps")


class TestRetainedCount:
    def test_at_least_one(self):
        assert retained_count(0.05, 3) == 1

    def test_full_fraction_keeps_all(self):
        assert retained_count(1.0, 137) == 137

    def test_rounds_half_away_from_zero(self):
        assert retained_count(0.45, 10) == 5
        assert retained_count(0.15, 10) == 2

    def test_default_grid(self):
        assert len(DEFAULT_FRACTIONS) == 20
        assert DEFAULT_FRACTIONS[0] == 1.0
        assert DEFAULT_FRACTIONS[-1] == 0.05


class TestFractionValidation:
    def test_empty(self):
        with pytest.raises(EmptyFractionList):
            check_fractions([])

    def test_single_point_grid(self):
        with pytest.raises(EmptyFractionList):
            check_fractions([1.0])

    def test_out_of_range(self):
        with pytest.raises(FractionOutOfRange):
            check_fractions([1.0, 0.5, 0.0])
        with pytest.raises(FractionOutOfRange):
            check_fractions([1.2, 0.5])

    def test_must_start_at_one(self):
        with pytest.raises(FractionOutOfRange):
            check_fractions([0.9, 0.5])

    def test_canonicalizes_order(self):
        assert check_fractions([0.5, 1.0, 0.75, 0.5]) == (1.0, 0.75, 0.5)

    def test_grid_size_limit(self):
        grid = np.linspace(1.0, 0.5, MAX_FRACTIONS)
        assert len(check_fractions(grid)) == MAX_FRACTIONS
        with pytest.raises(InvalidConfig):
            check_fractions(np.linspace(1.0, 0.5, MAX_FRACTIONS + 1))


class TestRetentionCurve:
    def test_perfect_predictions_qwk(self):
        labels = np.tile(np.arange(3), 20)
        ds = one_hot_dataset(labels, labels, 3)
        curve = sample_retention_curve(ds, "rps", "qwk")
        assert curve.values == tuple([1.0] * 20)
        assert curve.aursc == 20.0

    def test_perfect_predictions_ec(self):
        labels = np.tile(np.arange(3), 20)
        ds = one_hot_dataset(labels, labels, 3)
        curve = sample_retention_curve(ds, "rps", "ec")
        assert curve.values == tuple([0.0] * 20)
        assert curve.aursc == 0.0

    def test_full_fraction_equals_whole_dataset_metric(self):
        ds = generate(SynthConfig(n=400, k=5, noise=1.2, miscal=1.4, seed=13))
        full = metric_report(ds)
        for rule in ("brier", "log", "rps", "sa_rps"):
            curve = sample_retention_curve(ds, rule, "qwk")
            assert curve.values[0] == pytest.approx(full.qwk, abs=1e-12)
            curve = sample_retention_curve(ds, rule, "ec")
            assert curve.values[0] == pytest.approx(full.expected_cost, abs=1e-12)

    def test_oracle_score_makes_accuracy_monotone(self):
        # one-hot predictions: brier is 0 on correct samples, 2 on wrong ones,
        # i.e. a perfect-ordering oracle; with 0/1 costs ec = 1 - accuracy
        rng = np.random.default_rng(50)
        labels = rng.integers(0, 4, 200)
        preds = labels.copy()
        wrong = rng.random(200) < 0.3
        preds[wrong] = (labels[wrong] + rng.integers(1, 4, int(wrong.sum()))) % 4
        ds = one_hot_dataset(labels, preds, 4)
        curve = sample_retention_curve(
            ds, "brier", "ec", cost=CostMatrix.zero_one(4)
        )
        errors = np.array(curve.values)
        assert np.all(np.diff(errors) <= 1e-12)  # error rate never increases

    def test_aursc_is_sum_of_values(self):
        ds = generate(SynthConfig(n=300, k=4, noise=1.0, seed=14))
        for metric in ("qwk", "ec"):
            curve = sample_retention_curve(ds, "sa_rps", metric)
            assert curve.aursc == pytest.approx(sum(curve.values), abs=1e-12)
            bound = len(curve.fractions)
            assert -bound <= curve.aursc <= bound  # max linear cost is 1

    def test_custom_grid(self):
        ds = generate(SynthConfig(n=100, k=3, noise=1.0, seed=15))
        curve = sample_retention_curve(ds, "rps", "qwk", fractions=[1.0, 0.5, 0.25])
        assert curve.fractions == (1.0, 0.5, 0.25)
        assert len(curve.values) == 3

    def test_unknown_metric(self):
        with pytest.raises(UnknownMetric):
            sample_retention_curve(eq3_dataset(), "rps", "accuracy")


class TestBootstrap:
    def test_identity_convention_seed_zero(self):
        ds = generate(SynthConfig(n=250, k=4, noise=1.1, seed=16))
        plain = sample_retention_curve(ds, "rps", "qwk").aursc
        summary = bootstrap_aursc(ds, "rps", "qwk", num_replicates=1, seed=0)
        assert summary.mean == plain
        assert summary.std == 0.0
        many = bootstrap_aursc(ds, "rps", "qwk", num_replicates=5, seed=0)
        assert set(many.replicates) == {plain}

    def test_reproducible(self):
        ds = generate(SynthConfig(n=300, k=5, noise=1.2, miscal=1.3, seed=17))
        a = bootstrap_aursc(ds, "sa_rps", "ec", num_replicates=20, seed=7)
        b = bootstrap_aursc(ds, "sa_rps", "ec", num_replicates=20, seed=7)
        assert a == b

    @pytest.mark.parametrize(
        "n, replicates, tied, grid",
        [(*case, DEFAULT_FRACTIONS) for case in
         [(200, 4, False), (200, 4, True), (2, 20, False), (3, 20, False),
          (5, 20, False), (8, 20, False), (7, 20, False), (9, 20, False),
          (64, 20, False), (65, 20, True), (257, 8, True)]]
        + [(7, 20, False, FINE_GRID), (50, 20, True, FINE_GRID)],
        ids=["untied", "tied", "n2", "n3", "n5", "n8", "n7", "n9", "n64", "n65", "n257",
             "n7-fine", "n50-fine"],
    )
    def test_replicates_match_manual_resample(self, n, replicates, tied, grid):
        # a replicate is the resampled dataset with its draws in dataset
        # order, so tied scores are broken by dataset position; at small n
        # many cuts fall inside the copies of the best-scored sample. The
        # cut locator takes chunks of 8 at these n: cuts fall on chunk ends,
        # and runs of undrawn samples cross chunk edges. The fine grid has
        # more cuts than samples, so many cuts keep the same count
        ds = generate(SynthConfig(n=n, k=4, noise=1.0, seed=19))
        if tied:
            ds = EvalDataset(ds.num_classes, ds.ids, ds.labels, tenths(ds.probs))
            assert len(np.unique(rank_samples(ds, "brier")[1])) < len(ds) // 2
        if grid is FINE_GRID:
            assert len({retained_count(f, n) for f in grid}) <= n < len(grid)
        summary = bootstrap_aursc(ds, "brier", "qwk", grid, num_replicates=replicates, seed=11)
        for r in range(replicates):
            idx = np.sort(resample_indices(11, r, len(ds)))
            resampled = EvalDataset(
                ds.num_classes, tuple(ds.ids[i] for i in idx), ds.labels[idx], ds.probs[idx]
            )
            manual = sample_retention_curve(resampled, "brier", "qwk", grid).aursc
            assert summary.replicates[r] == manual

    def test_summary_recomputable(self):
        ds = generate(SynthConfig(n=200, k=4, noise=1.0, seed=20))
        s = bootstrap_aursc(ds, "log", "ec", num_replicates=12, seed=3)
        reps = np.array(s.replicates)
        assert s.num_replicates == 12 and len(reps) == 12
        assert s.mean == pytest.approx(reps.mean(), abs=1e-15)
        assert s.std == pytest.approx(reps.std(), abs=1e-15)

    def test_seed7_orderings(self):
        # distance-sensitive rules should win on the standard synthetic set
        ds = generate(SynthConfig(n=2000, k=5, seed=7))
        qwk_means = {
            r: bootstrap_aursc(ds, r, "qwk").mean for r in ("brier", "rps", "sa_rps")
        }
        assert qwk_means["sa_rps"] >= qwk_means["rps"] > qwk_means["brier"]
        ec_means = {
            r: bootstrap_aursc(ds, r, "ec").mean for r in ("brier", "rps", "sa_rps")
        }
        assert ec_means["sa_rps"] <= ec_means["rps"] < ec_means["brier"]


RULES = ("brier", "log", "rps", "sa_rps")


def tied_or_untied(tied, n=120, seed=21):
    ds = generate(SynthConfig(n=n, k=4, noise=1.1, miscal=1.3, seed=seed))
    if tied:
        ds = EvalDataset(ds.num_classes, ds.ids, ds.labels, tenths(ds.probs))
    return ds


class TestRetentionKernel:
    @pytest.mark.parametrize("points", [7, 9, 128, 129])
    def test_replicate_aurscs_are_the_sums_of_their_curves(self, monkeypatch, points):
        # each replicate's AURSC equals float(curve.sum()) of its own curve,
        # bit for bit, though a block's sums are taken in one call
        curves = []

        def captured(stack, qwk=retention.qwk):
            values = qwk(stack)
            curves.append(values.copy())
            return values

        ds = generate(SynthConfig(n=300, k=5, noise=1.2, seed=points))
        grid = np.linspace(1.0, 0.05, points)
        monkeypatch.setattr(retention, "qwk", captured)
        monkeypatch.setattr(retention, "_BLOCK_DRAWS", 5 * max(len(ds), points * 25))
        results = retention_analysis(ds, RULES, "qwk", grid, num_replicates=12, seed=3)
        assert len(curves) == 1 + 3  # the plain curves, then blocks of 5, 5 and 2
        replicates = np.concatenate(curves[1:], axis=1)  # (rules, replicates, fractions)
        for (_, summary), values in zip(results, replicates):
            assert summary.replicates == tuple(float(row.sum()) for row in values)

    @pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
    @pytest.mark.parametrize(
        "draws",
        [lambda n: 1, lambda n: n - 1, lambda n: n, lambda n: n + 1, lambda n: 5 * n + 3],
        ids=["1", "n-1", "n", "n+1", "5n+3"],
    )
    def test_block_size_does_not_change_replicates(self, monkeypatch, tied, draws):
        # the default block holds all 12 replicates; the patched ones hold
        # 1 or 5, the last block of 5 only partly filled. Blocks hold
        # _BLOCK_DRAWS // max(n, fractions * K * K) replicates, and "n" in
        # the ids stands for that divisor: 20 * 4 * 4 = 320 here.
        ds = tied_or_untied(tied)
        want = {m: retention_analysis(ds, RULES, m, num_replicates=12, seed=9) for m in METRICS}
        divisor = max(len(ds), len(DEFAULT_FRACTIONS) * ds.num_classes**2)
        monkeypatch.setattr(retention, "_BLOCK_DRAWS", draws(divisor))
        for metric in METRICS:
            got = retention_analysis(ds, RULES, metric, num_replicates=12, seed=9)
            assert got == want[metric]

    @pytest.mark.parametrize(
        "ds, digest",
        [
            pytest.param(
                lambda: tied_or_untied(True, n=500, seed=31),
                "2e3bc77f0c1da6d7884f75bc54c9a5cffe367d4c2acc60ea312288bd52434320",
                id="tied",
            ),
            pytest.param(
                lambda: generate(SynthConfig(n=997, k=5, noise=1.2, miscal=1.5, seed=32)),
                "1faa26e0bf3074d3c923d95c5ce3ffdc97702dec6fbf58edb89920895b1e36fd",
                id="n997",
            ),
            pytest.param(
                lambda: generate(SynthConfig(n=1, k=3, seed=33)),
                "7585c7a97d6cf9e47b1173091ddd0d258814fe112e1d61c06fcc86bd06d4f730",
                id="n1",
            ),
        ],
    )
    def test_frozen_digest(self, ds, digest):
        # digests recorded before the chunked cut locator; n = 997 is not a
        # multiple of its chunk width (8 at this n), nor are the 14-replicate
        # last block and the plain curve
        ds = ds()
        out = repr([retention_analysis(ds, RULES, m, num_replicates=30, seed=42) for m in METRICS])
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_tiny_n_block_memory(self):
        # at n = 20, K = 7 a block of 16384 // n replicates would hold a
        # 4 x 819 x 20 x 7 x 7 count stack (26 MB) and peak near 100 MB in
        # qwk; blocks capped at 16384 // (fractions * K * K) stay small
        ds = generate(SynthConfig(n=20, k=7, seed=1))
        peak = traced_peak(retention_analysis, ds, RULES, "qwk", num_replicates=2000, seed=42)[0]
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("seed", [0, 42])
    def test_working_set_per_sample(self, seed):
        # at 20k x 5 with 4 rules the kernel peaks near 80 bytes a sample
        # (57 without replicates): 4-byte rankings, 1-byte cells, and
        # float64 copy counts the weighted bincount takes as they are.
        # int64 rankings, cells and copy counts took 131 (107)
        n = 20_000
        ds = generate(SynthConfig(n=n, k=5, noise=1.2, miscal=1.5, seed=1))
        peak = traced_peak(retention_analysis, ds, RULES, "qwk", num_replicates=3, seed=seed)[0]
        assert peak < 100 * n

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("metric", ["qwk", "ec"])
    def test_matches_one_rule_wrappers(self, seed, metric):
        ds = tied_or_untied(True, n=150)
        cost = CostMatrix.quadratic(ds.num_classes)
        fractions = (1.0, 0.8, 0.5, 0.2)
        pairs = retention_analysis(
            ds, RULES, metric, fractions, num_replicates=7, seed=seed, cost=cost
        )
        assert [curve.rule for curve, _ in pairs] == list(RULES)
        for rule, (curve, summary) in zip(RULES, pairs):
            assert curve == sample_retention_curve(ds, rule, metric, fractions, cost)
            assert summary == bootstrap_aursc(
                ds, rule, metric, fractions, num_replicates=7, seed=seed, cost=cost
            )

    @pytest.mark.parametrize(
        "replicates, seed",
        [(0, 1), (MAX_REPLICATES + 1, 1), (0, 0), (MAX_REPLICATES + 1, 0)],
    )
    def test_rejects_counts_out_of_range(self, replicates, seed):
        # seed 0 draws nothing but would still keep one AURSC per replicate
        with pytest.raises(InvalidConfig):
            bootstrap_aursc(
                eq3_dataset(), "rps", "qwk", num_replicates=replicates, seed=seed
            )


# a grid whose kept counts repeat at every n: 0.5 and 0.4999, and 0.001 and
# 0.0001, keep the same number of samples, and 1.0 and 0.999 do below n = 500
REPEATING_GRID = (1.0, 0.999, 0.5, 0.4999, 0.001, 0.0001)
# (tied, metric, grid, seed, replicates per block): blocks of 1 or 2 of the 5
# replicates leave the last block full or partial
ORACLE_VARIANTS = [
    (False, "qwk", DEFAULT_FRACTIONS, 42, None),
    (True, "ec", REPEATING_GRID, -1, 1),
    (True, "qwk", REPEATING_GRID, 42, 2),
    (False, "ec", DEFAULT_FRACTIONS, -1, 2),
    (True, "qwk", DEFAULT_FRACTIONS, 0, None),
]
ORACLE_NS = (1, 2, 3, 5, 8, 24, 25, 97, 600)


class TestRetentionOracle:
    @pytest.mark.parametrize("n", ORACLE_NS)
    def test_counts_and_values_match_plain_loops(self, monkeypatch, n):
        # the kernel's count stacks, captured on their way into qwk and
        # expected_cost, against tests/reference.py's loops, for the plain
        # curve (the first call) and every replicate (the calls after it)
        stacks = []
        for name in ("qwk", "expected_cost"):
            metric_fn = getattr(retention, name)

            def captured(stack, *args, metric_fn=metric_fn):
                stacks.append(stack.copy())
                return metric_fn(stack, *args)

            monkeypatch.setattr(retention, name, captured)
        replicates = 5
        for v, (tied, metric, grid, seed, rows) in enumerate(ORACLE_VARIANTS):
            k = 2 + (ORACLE_NS.index(n) + v) % 6
            ds = generate(SynthConfig(n=n, k=k, noise=1.1, seed=100 * n + v))
            if tied:
                ds = make_dataset(tenths(ds.probs), ds.labels)
            cost = CostMatrix.quadratic(k)
            stacks.clear()
            with monkeypatch.context() as patch:
                if rows is not None:
                    patch.setattr(retention, "_BLOCK_DRAWS", rows * max(n, len(grid) * k * k))
                results = retention_analysis(
                    ds, RULES, metric, grid, num_replicates=replicates, seed=seed, cost=cost
                )
            blocks = 0 if seed == 0 else -(-replicates // (rows or replicates))
            assert len(stacks) == 1 + blocks
            plain = stacks[0][:, 0]
            reps = np.concatenate(stacks[1:], axis=1) if seed != 0 else None
            labels = ds.labels.tolist()
            preds = [ref_argmax(p) for p in ds.probs.tolist()]
            costs = cost.costs.tolist()
            for i, (rule, (curve, summary)) in enumerate(zip(RULES, results)):
                scores = rank_samples(ds, rule)[1].tolist()
                args = (scores, labels, preds, k, grid, metric, costs)
                counts, values = ref_retention_curve(*args)
                assert plain[i].tolist() == counts, (v, rule)
                assert curve.values == pytest.approx(values, rel=0, abs=1e-12)
                for r in range(replicates):
                    counts, values = ref_replicate(seed, r, *args)
                    if reps is not None:
                        assert reps[i, r].tolist() == counts, (v, rule, r)
                    assert summary.replicates[r] == pytest.approx(sum(values), rel=0, abs=1e-12)


class TestTwoByteCells:
    # K = 17 is the fewest classes whose confusion cells take two bytes
    @pytest.mark.parametrize("mode", ["ordinal", "shuffled"])
    @pytest.mark.parametrize("metric", METRICS)
    def test_counts_and_values_match_plain_loops(self, mode, metric):
        k, replicates = 17, 3
        ds = generate(SynthConfig(n=400, k=k, noise=1.5, mode=mode, seed=17))
        assert hard._cells(ds.labels, ds.probs)[1].max() > 255
        cost = CostMatrix.quadratic(k)
        results = retention_analysis(ds, RULES, metric, num_replicates=replicates, seed=5, cost=cost)
        labels = ds.labels.tolist()
        preds = [ref_argmax(p) for p in ds.probs.tolist()]
        for rule, (curve, summary) in zip(RULES, results):
            scores = rank_samples(ds, rule)[1].tolist()
            args = (scores, labels, preds, k, DEFAULT_FRACTIONS, metric, cost.costs.tolist())
            assert curve.values == pytest.approx(ref_retention_curve(*args)[1], rel=0, abs=1e-12)
            for r in range(replicates):
                values = ref_replicate(5, r, *args)[1]
                assert summary.replicates[r] == pytest.approx(sum(values), rel=0, abs=1e-12)


class TestCurveCellBound:
    def test_bound_is_on_fractions_times_k_squared(self, monkeypatch):
        ds = eq3_dataset()  # 20 fractions x 3 x 3 = 180 curve cells
        monkeypatch.setattr(retention, "MAX_CURVE_CELLS", 180)
        assert len(sample_retention_curve(ds, "rps", "qwk").values) == 20
        monkeypatch.setattr(retention, "MAX_CURVE_CELLS", 179)
        with pytest.raises(InvalidConfig, match="^retention grid of 20 fractions at K = 3 makes 180 "):
            sample_retention_curve(ds, "rps", "qwk")

    def test_every_grid_up_to_16_classes_passes(self):
        assert MAX_FRACTIONS * 16 * 16 <= retention.MAX_CURVE_CELLS

    def test_an_oversized_grid_fails_before_allocating(self):
        k = 256
        ds = make_dataset(np.full((1, k), 1 / k), [0])
        grid = np.linspace(1.0, 0.5, MAX_FRACTIONS)
        message = (
            f"^retention grid of {MAX_FRACTIONS} fractions at K = 256 makes 655,360,000 "
            f"curve cells, at most 4,194,304$"
        )

        def call():
            with pytest.raises(InvalidConfig, match=message):
                retention_analysis(ds, RULES, "qwk", grid)

        assert traced_peak(call)[0] < 2**20
        with pytest.raises(InvalidConfig, match="^retention grid of 65 fractions at K = 256 "):
            bootstrap_aursc(ds, "rps", "ec", np.linspace(1.0, 0.5, 65))
