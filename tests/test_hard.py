import numpy as np
import pytest

from ordeval import (
    CostMatrix,
    SynthConfig,
    accuracy,
    confusion,
    ece,
    expected_cost,
    generate,
    metric_report,
    qwk,
)
from ordeval import hard
from ordeval.errors import EmptyDataset, InvalidConfig, ShapeMismatch, ZeroBins
from ordeval.hard import MAX_ECE_BINS

from helpers import make_dataset, random_prob_matrix, traced_peak
from reference import ref_argmax, ref_ece, ref_expected_cost, ref_qwk


def one_hot_dataset(labels, preds, k):
    """Dataset of exact one-hots predicting ``preds`` with truth ``labels``."""
    n = len(labels)
    probs = np.zeros((n, k))
    probs[np.arange(n), preds] = 1.0
    return make_dataset(probs, labels, k=k)


class TestConfusion:
    def test_single_sample(self):
        ds = one_hot_dataset([0], [0], 2)
        assert np.array_equal(confusion(ds), [[1, 0], [0, 0]])

    def test_two_samples(self):
        ds = one_hot_dataset([0, 1], [1, 1], 2)
        assert np.array_equal(confusion(ds), [[0, 1], [0, 1]])

    def test_tie_breaks_to_lowest_index(self):
        ds = make_dataset([[0.5, 0.5]], [1])
        assert np.array_equal(confusion(ds), [[0, 0], [1, 0]])

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(41)
        ds = make_dataset(random_prob_matrix(rng, 123, 4), rng.integers(0, 4, 123))
        assert confusion(ds).sum() == 123

    @pytest.mark.parametrize("metric", [confusion, ece])
    def test_empty_dataset(self, metric):
        ds = make_dataset(np.zeros((0, 3)), [], validate=False)
        with pytest.raises(EmptyDataset, match="^cannot build a confusion matrix from no samples$"):
            metric(ds)


class TestHardPredictions:
    # hard._cells, the one argmax pass: the confusion counts and every
    # sample's cell label * K + argmax

    @pytest.mark.parametrize("block", [1, 7, 1 << 14])
    def test_matches_one_argmax(self, monkeypatch, block):
        ds = generate(SynthConfig(n=1000, k=5, noise=1.5, seed=42))
        monkeypatch.setattr(hard, "_BLOCK_ROWS", block)
        counts, cells = hard._cells(ds.labels, ds.probs)
        want = ds.labels * 5 + np.argmax(ds.probs.copy(), axis=1)
        assert cells.dtype == np.uint8 and cells.tolist() == want.tolist()
        assert counts.tolist() == np.bincount(want, minlength=25).reshape(5, 5).tolist()

    def test_copies_at_most_one_block(self):
        # argmax copies a read-only matrix; a validated dataset is read-only
        ds = generate(SynthConfig(n=100_000, k=5, seed=1))
        assert not ds.probs.flags.writeable
        block = hard._BLOCK_ROWS * ds.probs.itemsize * ds.num_classes
        temporaries = 2 * hard._BLOCK_ROWS * np.dtype(np.intp).itemsize  # a block's argmax and cells
        peak, _, (_, cells) = traced_peak(hard._cells, ds.labels, ds.probs)
        assert peak < cells.nbytes + block + temporaries + 4096  # + slice and array headers


class TestCells:
    @pytest.mark.parametrize("k", range(2, 18))
    def test_every_cell_and_its_diagonal(self, k):
        # one sample for every (true, predicted) pair
        labels, preds = np.divmod(np.arange(k * k), k)
        ds = one_hot_dataset(labels, preds, k)
        counts, cells = hard._cells(ds.labels, ds.probs)
        assert cells.dtype == (np.uint8 if k <= 16 else np.uint16)
        assert cells.tolist() == (labels * k + preds).tolist()
        # t * K + p = p - t mod K + 1: ECE's correct samples
        assert (cells % (k + 1) == 0).tolist() == (labels == preds).tolist()
        assert counts.tolist() == np.ones((k, k), dtype=int).tolist()

    def test_two_byte_cells_match_the_oracles(self):
        # K = 17 is the fewest classes whose cells take two bytes
        rng = np.random.default_rng(17)
        n, k = 2000, 17
        probs = random_prob_matrix(rng, n, k)
        labels = np.where(rng.random(n) < 0.5, probs.argmax(axis=1), rng.integers(0, k, n))
        ds = make_dataset(probs, labels)
        assert hard._cells(ds.labels, ds.probs)[1].max() > 255
        preds = [ref_argmax(p) for p in ds.probs.tolist()]
        want = [[0] * k for _ in range(k)]
        for t, p in zip(ds.labels.tolist(), preds):
            want[t][p] += 1
        assert confusion(ds).tolist() == want
        conf = ds.probs.max(axis=1).tolist()
        correct = [t == p for t, p in zip(ds.labels.tolist(), preds)]
        for bins in (1, 15, 1000):
            assert ece(ds, bins) == pytest.approx(ref_ece(conf, correct, bins), abs=1e-12)


class TestQwk:
    def test_perfect_diagonal(self):
        assert qwk(np.array([[3, 0], [0, 2]])) == 1.0
        assert qwk(np.diag([5, 1, 2])) == 1.0

    def test_frozen_oracle_value(self):
        cm = np.array([[2, 0, 0], [0, 0, 2], [0, 0, 2]])
        assert ref_qwk(cm.tolist()) == pytest.approx(0.8, abs=1e-15)
        assert qwk(cm) == pytest.approx(0.8, abs=1e-12)

    def test_chance_level_is_zero(self):
        # constant prediction, uniform labels: expected == observed
        cm = np.array([[2, 0, 0], [2, 0, 0], [2, 0, 0]])
        assert qwk(cm) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_single_class(self):
        assert qwk(np.array([[4, 0], [0, 0]])) == 1.0

    def test_transpose_invariance(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            cm = rng.integers(0, 30, (k, k))
            if cm.sum() == 0:
                cm[0, 0] = 1
            assert qwk(cm) == pytest.approx(qwk(cm.T), abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            k = int(rng.integers(2, 8))
            stack = rng.integers(0, 50, (3, k, k))
            stack[:, k - 1, 0] += 1
            for cm in stack:
                assert qwk(cm) == pytest.approx(ref_qwk(cm.tolist()), abs=1e-12)
            # the stacked call is bit for bit the per-matrix calls
            assert qwk(stack).tolist() == [qwk(cm) for cm in stack]
            assert qwk(stack[None]).shape == (1, 3)

    def test_stack_with_zero_denominator(self):
        stack = np.array([[[4, 0], [0, 0]], [[3, 1], [1, 3]]])
        values = qwk(stack)
        assert values[0] == 1.0
        assert values.tolist() == [qwk(cm) for cm in stack]

    def test_empty(self):
        with pytest.raises(EmptyDataset):
            qwk(np.zeros((2, 2), dtype=int))
        with pytest.raises(EmptyDataset):
            qwk(np.array([np.eye(2, dtype=int), np.zeros((2, 2), dtype=int)]))


class TestExpectedCost:
    def test_perfect_is_free(self):
        cm = np.diag([3, 4, 5])
        assert expected_cost(cm, CostMatrix.linear(3)) == 0.0

    def test_single_worst_mistake(self):
        cm = np.zeros((3, 3), dtype=int)
        cm[0, 2] = 1
        assert expected_cost(cm, CostMatrix.linear(3)) == 1.0

    def test_two_sample_average(self):
        cm = np.zeros((3, 3), dtype=int)
        cm[0, 1] = 1
        cm[0, 0] = 1
        assert expected_cost(cm, CostMatrix.linear(3)) == 0.25

    def test_zero_one_cost_is_error_rate(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            cm = rng.integers(0, 20, (k, k))
            if cm.sum() == 0:
                cm[0, 1] = 1
            ec = expected_cost(cm, CostMatrix.zero_one(k))
            assert ec == pytest.approx(1.0 - accuracy(cm), abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(45)
        for _ in range(100):
            k = int(rng.integers(2, 7))
            stack = rng.integers(0, 40, (3, k, k))
            stack[:, 1, 0] += 1
            cost = CostMatrix.linear(k)
            for cm in stack:
                assert expected_cost(cm, cost) == pytest.approx(
                    ref_expected_cost(cm.tolist(), cost.costs.tolist()), abs=1e-12
                )
            # the stacked call is bit for bit the per-matrix calls
            assert expected_cost(stack, cost).tolist() == [
                expected_cost(cm, cost) for cm in stack
            ]

    def test_stack_holding_an_empty_matrix(self):
        stack = np.array([np.eye(3, dtype=int), np.zeros((3, 3), dtype=int)])
        with pytest.raises(EmptyDataset):
            expected_cost(stack, CostMatrix.linear(3))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            expected_cost(np.diag([1, 2]), CostMatrix.linear(3))
        with pytest.raises(ShapeMismatch):
            expected_cost(np.array([np.diag([1, 2])]), CostMatrix.linear(3))


@pytest.mark.parametrize(
    "metric", [accuracy, qwk, lambda cm: expected_cost(cm, CostMatrix.linear(3))],
    ids=["accuracy", "qwk", "expected_cost"],
)
@pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3)])
def test_counts_must_be_square(metric, shape):
    with pytest.raises(ShapeMismatch, match="confusion matrix must be square"):
        metric(np.ones(shape, dtype=int))


def whole_stack_qwk(cm):
    """qwk as one expression over the whole stack, as before chunking."""
    k = cm.shape[-1]
    obs = cm.astype(np.float64) / cm.sum(axis=(-2, -1))[..., None, None]
    w = np.subtract.outer(np.arange(k), np.arange(k)) ** 2 / (k - 1) ** 2
    expected = obs.sum(axis=-1)[..., :, None] * obs.sum(axis=-2)[..., None, :]
    num = (w * obs).sum(axis=(-2, -1))
    den = (w * expected).sum(axis=(-2, -1))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den == 0.0, np.where(num == 0.0, 1.0, 0.0), 1.0 - num / den)


def whole_stack_expected_cost(cm, cost):
    return (cm * cost.costs).sum(axis=(-2, -1)) / cm.sum(axis=(-2, -1))


class TestChunkedStacks:
    # qwk and expected_cost reduce a stack a chunk of matrices at a time;
    # each matrix's value is the whole-stack expression's, bit for bit

    SHAPES = [(4, 8, 20, 7, 7), (4, 1, 20, 5, 5), (3, 2, 9, 17, 17), (5, 2, 2), (6, 6)]

    @pytest.mark.parametrize("matrices", [1, 3, None])
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_bits_do_not_depend_on_the_chunk(self, monkeypatch, shape, matrices):
        rng = np.random.default_rng(sum(shape))
        k = shape[-1]
        cm = rng.integers(0, 40, shape) * (rng.random(shape) < 0.4)
        cm[..., k - 1, 0] += 1
        flat = cm.reshape(-1, k, k)
        flat[0] = np.diag(np.arange(1, k + 1))  # no observed disagreement
        flat[-1] = 0
        flat[-1, 0, 0] = 4  # no expected disagreement either
        if matrices is not None:
            monkeypatch.setattr(hard, "_CHUNK_CELLS", matrices * k * k)
        cost = CostMatrix.quadratic(k)
        # contiguous, and a strided view of matrices from two rows
        for stack in (cm, cm[:, :1]) if cm.ndim > 3 else (cm,):
            got = np.asarray(qwk(stack)).view(np.uint64)
            assert np.array_equal(got, whole_stack_qwk(stack).view(np.uint64))
            got = np.asarray(expected_cost(stack, cost)).view(np.uint64)
            assert np.array_equal(got, whole_stack_expected_cost(stack, cost).view(np.uint64))

    @pytest.mark.parametrize("metric", ["qwk", "ec"])
    def test_no_temporary_is_the_size_of_the_stack(self, metric):
        # 64 curves of 256 x 256 int64 counts, 33.5 MB, as at the curve-cell
        # bound; the whole-stack expressions took about 3 times the stack
        stack = np.random.default_rng(5).integers(0, 3, (64, 256, 256))
        cost = CostMatrix.linear(256)
        fn = qwk if metric == "qwk" else (lambda cm: expected_cost(cm, cost))
        assert traced_peak(fn, stack)[0] < 8 * 2**20


class TestEce:
    def test_perfect_one_hots(self):
        ds = one_hot_dataset([0, 1, 2], [0, 1, 2], 3)
        assert ece(ds) == 0.0

    def test_calibrated_constant_predictor(self):
        # 60% confidence, correct 60% of the time
        probs = [[0.6, 0.4]] * 10
        labels = [0] * 6 + [1] * 4
        assert ece(make_dataset(probs, labels)) <= 1e-12

    def test_overconfident_constant_predictor(self):
        probs = [[0.99, 0.01]] * 10
        labels = [0] * 7 + [1] * 3
        assert ece(make_dataset(probs, labels)) == pytest.approx(0.29, abs=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(46)
        for bins in (5, 10, 15):
            probs = random_prob_matrix(rng, 400, 4)
            labels = rng.integers(0, 4, 400)
            ds = make_dataset(probs, labels)
            conf = ds.probs.max(axis=1)
            correct = (ds.probs.argmax(axis=1) == ds.labels).tolist()
            assert ece(ds, bins) == pytest.approx(
                ref_ece(conf.tolist(), correct, bins), abs=1e-12
            )

    def test_matches_masked_loop_bit_for_bit(self):
        # one boolean mask per bin over the whole array: each bin's sorted
        # confidences are reduced as one segment, as ece reduces each bin of
        # the sorted confidences, and the bins' terms are summed in bin order
        def masked(ds, bins):
            conf = ds.probs.max(axis=1)
            correct = np.argmax(ds.probs, axis=1) == ds.labels
            edges = np.linspace(0.0, 1.0, bins + 1)
            idx = np.clip(np.digitize(conf, edges, right=True) - 1, 0, bins - 1)
            terms = []
            for b in range(bins):
                members = idx == b
                n_b = int(members.sum())
                if n_b:
                    conf_b = np.add.reduceat(np.sort(conf[members]), [0])[0] / n_b
                    gap = abs(correct[members].mean() - conf_b)
                    terms.append(n_b / len(ds) * gap)
            return float(np.sum(terms))

        rng = np.random.default_rng(49)
        for n, k, bins in ((1, 2, 1), (37, 3, 7), (500, 5, 15), (3000, 4, 1000)):
            probs = random_prob_matrix(rng, n, k)
            for p in (probs, np.round(probs, 1) + 0.01):  # untied, then tied
                ds = make_dataset(p / p.sum(axis=1, keepdims=True), rng.integers(0, k, n))
                assert ece(ds, bins) == masked(ds, bins)

    @pytest.mark.parametrize(
        "name, want",
        [
            ("synthetic", ["0x1.a885f6b0206bbp-2", "0x1.a885f6b0206bap-2", "0x1.b955fe22fa0eap-2"]),
            ("tied", ["0x1.3cb300db91d0ep-2", "0x1.3cb300db91d0cp-2", "0x1.3cb300db91d0ep-2"]),
        ],
    )
    def test_frozen_values(self, name, want):
        # recorded when each bin's confidences were first summed in sorted
        # order, and the bins' terms in one numpy sum
        ds = generate(SynthConfig(n=20_000, k=5, noise=1.2, miscal=1.5, seed=1))
        if name == "tied":
            ds = generate(SynthConfig(n=5_000, k=4, noise=1.1, seed=2))
            p = np.round(ds.probs, 1) + 0.01
            ds = make_dataset(p / p.sum(axis=1, keepdims=True), ds.labels)
        assert [ece(ds, bins).hex() for bins in (1, 15, 10**4)] == want

    @pytest.mark.parametrize("tied", [False, True])
    def test_row_order_changes_no_bit(self, tied):
        rng = np.random.default_rng(50)
        probs = random_prob_matrix(rng, 3000, 5)
        if tied:  # confidences on a tenths grid: large bins full of equal values
            probs = np.round(probs, 1) + 0.01
            probs /= probs.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 5, 3000)
        for bins in (1, 15, 10**4):
            want = ece(make_dataset(probs, labels), bins).hex()
            for _ in range(5):
                perm = rng.permutation(3000)
                assert ece(make_dataset(probs[perm], labels[perm]), bins).hex() == want

    def test_one_sample_per_bin_at_the_ceiling(self):
        # bins 1e-6 wide, confidences 1e-5 apart: every bin holds at most one
        # sample, so ECE is the mean of |1{correct} - confidence|
        n = 1000
        conf = 0.5 + 1e-5 * np.arange(1, n + 1)
        labels = np.arange(n) % 2  # class 0 is the argmax: even rows are correct
        ds = make_dataset(np.stack([conf, 1.0 - conf], axis=1), labels)
        want = np.abs((ds.labels == 0) - ds.probs.max(axis=1)).mean()
        assert ece(ds, MAX_ECE_BINS) == pytest.approx(want, abs=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            probs = random_prob_matrix(rng, 100, 3)
            ds = make_dataset(probs, rng.integers(0, 3, 100))
            assert 0.0 <= ece(ds) <= 1.0

    def test_perfect_sample_never_adds_miscalibration_mass(self):
        rng = np.random.default_rng(48)
        probs = random_prob_matrix(rng, 150, 3)
        labels = rng.integers(0, 3, 150)
        ds = make_dataset(probs, labels)
        mass_before = ece(ds) * len(ds)
        probs2 = np.vstack([probs, [[0.0, 1.0, 0.0]]])
        labels2 = np.append(labels, 1)
        ds2 = make_dataset(probs2, labels2)
        mass_after = ece(ds2) * len(ds2)
        assert mass_after <= mass_before + 1e-12

    def test_zero_bins(self):
        ds = one_hot_dataset([0], [0], 2)
        with pytest.raises(ZeroBins):
            ece(ds, bins=0)
        # the bin count is checked before the samples
        with pytest.raises(ZeroBins):
            ece(make_dataset(np.zeros((0, 2)), [], validate=False), bins=0)

    def test_bins_ceiling(self):
        ds = one_hot_dataset([0, 1], [0, 0], 2)
        assert ece(ds, bins=1) == pytest.approx(0.5, abs=1e-12)
        with pytest.raises(InvalidConfig, match="1000000 bins"):
            ece(ds, bins=MAX_ECE_BINS + 1)


class TestMetricReport:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(49)
        probs = random_prob_matrix(rng, 200, 4)
        labels = rng.integers(0, 4, 200)
        ds = make_dataset(probs, labels)
        perm = rng.permutation(200)
        ds_shuffled = make_dataset(probs[perm], labels[perm])
        a, b = metric_report(ds), metric_report(ds_shuffled)
        assert a.accuracy == pytest.approx(b.accuracy, abs=1e-12)
        assert a.qwk == pytest.approx(b.qwk, abs=1e-12)
        assert a.expected_cost == pytest.approx(b.expected_cost, abs=1e-12)
        assert a.ece == pytest.approx(b.ece, abs=1e-12)

    def test_row_order_changes_no_bit(self):
        rng = np.random.default_rng(51)
        probs = np.round(random_prob_matrix(rng, 2000, 4), 1) + 0.01
        probs /= probs.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 4, 2000)

        def fields(perm):
            r = metric_report(make_dataset(probs[perm], labels[perm]))
            means = [m.hex() for m in r.mean_scores.values()]
            return [r.accuracy.hex(), r.qwk.hex(), r.expected_cost.hex(), r.ece.hex(), *means]

        want = fields(np.arange(2000))
        for _ in range(5):
            assert fields(rng.permutation(2000)) == want

    def test_fields(self):
        ds = one_hot_dataset([0, 1, 2], [0, 1, 2], 3)
        r = metric_report(ds)
        assert r.accuracy == 1.0 and r.qwk == 1.0
        assert r.expected_cost == 0.0 and r.ece == 0.0 and r.n == 3

    def test_fields_equal_the_standalone_metrics(self, monkeypatch):
        ds = generate(SynthConfig(n=3000, k=5, noise=1.2, miscal=1.5, seed=3))
        cost = CostMatrix.quadratic(5)
        cm = confusion(ds)
        calls, cells = [], hard._cells

        def counted(labels, probs):
            calls.append(labels)
            return cells(labels, probs)

        monkeypatch.setattr(hard, "_cells", counted)
        r = metric_report(ds, cost=cost, bins=7)
        assert len(calls) == 1  # one argmax pass serves the confusion matrix and ECE
        monkeypatch.undo()
        assert r.accuracy == accuracy(cm) and r.qwk == qwk(cm)
        assert r.expected_cost == expected_cost(cm, cost)
        assert r.ece == ece(ds, bins=7)

    def test_quadratic_cost_option(self):
        ds = one_hot_dataset([0, 0], [2, 0], 3)
        r = metric_report(ds, cost=CostMatrix.quadratic(3))
        assert r.expected_cost == pytest.approx(0.5, abs=1e-12)
