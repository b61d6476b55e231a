import numpy as np
import pytest

from ordeval import CostMatrix, EvalDataset, cumulative, validate_dataset
from ordeval.errors import (
    DuplicateId,
    EmptyDataset,
    InvalidConfig,
    LabelOutOfRange,
    NegativeProbability,
    NonFiniteProbability,
    ShapeMismatch,
    SumOutOfTolerance,
)

from helpers import make_dataset, random_prob_matrix
from reference import ref_cumulative


class TestValidation:
    def test_accepts_exact_vector_unchanged(self):
        ds = make_dataset([[0.25, 0.75, 0.0]], [0])
        assert np.array_equal(ds.probs[0], [0.25, 0.75, 0.0])
        assert ds.num_classes == 3

    def test_renormalizes_within_tolerance(self):
        ds = make_dataset([[0.5, 0.5000004, 0.0]], [0])
        assert abs(ds.probs[0].sum() - 1.0) < 1e-12
        assert np.argmax(ds.probs[0]) == 1

    def test_rejects_sum_out_of_tolerance(self):
        with pytest.raises(SumOutOfTolerance):
            make_dataset([[0.5, 0.6, 0.0]], [0])

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFiniteProbability):
            make_dataset([[np.nan, 0.5, 0.5]], [0])
        with pytest.raises(NonFiniteProbability):
            make_dataset([[np.inf, 0.0, 0.0]], [0])

    def test_rejects_negative(self):
        with pytest.raises(NegativeProbability):
            make_dataset([[-0.1, 0.6, 0.5]], [0])

    def test_rejects_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            make_dataset([[0.5, 0.5]], [2])
        with pytest.raises(LabelOutOfRange):
            make_dataset([[0.5, 0.5]], [-1])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(DuplicateId):
            make_dataset([[1.0, 0.0], [0.0, 1.0]], [0, 1], ids=("a", "a"))

    def test_duplicate_check_compares_ids_whose_hashes_collide(self):
        class Clash(str):
            def __hash__(self):
                return 7

        unique = tuple(map(Clash, "abcde"))
        assert make_dataset(np.full((5, 2), 0.5), [0] * 5, ids=unique).ids == unique
        # "c" repeats first in dataset order, though "a" repeats too
        repeated = tuple(map(Clash, "abcdca"))
        with pytest.raises(DuplicateId, match="^duplicate sample id 'c'$"):
            make_dataset(np.full((6, 2), 0.5), [0] * 6, ids=repeated)

    def test_leaves_the_callers_arrays_as_they_were(self):
        probs = np.array([[0.5, 0.5000004, 0.0], [0.25, 0.75, 0.0]])
        labels = np.array([0, 2])
        before = probs.copy()
        ds = make_dataset(probs, labels)
        assert ds.probs[0].sum() != probs[0].sum()  # row 0 was renormalized
        assert probs.flags.writeable and labels.flags.writeable
        assert np.array_equal(probs, before) and np.array_equal(labels, [0, 2])
        assert not ds.probs.flags.writeable and not ds.labels.flags.writeable

    def test_rejects_empty(self):
        with pytest.raises(EmptyDataset):
            validate_dataset(EvalDataset(2, (), np.array([], dtype=np.int64),
                                         np.zeros((0, 2))))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ShapeMismatch):
            make_dataset([[1.0]], [0], k=1)
        with pytest.raises(ShapeMismatch):
            validate_dataset(EvalDataset(3, ("a",), np.array([0]), np.ones((1, 2)) / 2))

    def test_idempotent_bit_for_bit(self):
        rng = np.random.default_rng(11)
        probs = random_prob_matrix(rng, 200, 5)
        # perturb sums inside the acceptance tolerance
        probs[::3] *= 1.0 + 4e-7
        once = make_dataset(probs, rng.integers(0, 5, 200))
        twice = validate_dataset(once)
        assert np.array_equal(once.probs, twice.probs)
        assert np.array_equal(once.labels, twice.labels)

    def test_renormalization_preserves_argmax(self):
        rng = np.random.default_rng(12)
        probs = random_prob_matrix(rng, 300, 4)
        before = probs.argmax(axis=1)
        probs *= 1.0 - 7e-7
        ds = make_dataset(probs, rng.integers(0, 4, 300))
        assert np.array_equal(ds.probs.argmax(axis=1), before)

    def test_arrays_are_read_only(self):
        ds = make_dataset([[0.5, 0.5]], [0])
        with pytest.raises(ValueError):
            ds.probs[0, 0] = 0.9

    def test_single_vector_validation(self):
        # one-row datasets exercise the per-row checks
        ds = make_dataset([[0.5, 0.5000004, 0.0]], [0])
        assert abs(ds.probs[0].sum() - 1.0) < 1e-12
        with pytest.raises(SumOutOfTolerance):
            make_dataset([[0.5, 0.6]], [0])
        with pytest.raises(ShapeMismatch):
            make_dataset([[1.0]], [0])


class TestCumulative:
    def test_worked_example(self):
        assert np.allclose(cumulative([0.25, 0.75, 0.0]), [0.25, 1.0, 1.0], atol=1e-15)

    def test_one_hot_first_class(self):
        assert np.array_equal(cumulative([1.0, 0.0, 0.0]), [1.0, 1.0, 1.0])

    def test_symmetric_example(self):
        assert np.allclose(cumulative([0.30, 0.40, 0.30]), [0.30, 0.70, 1.0], atol=1e-12)

    def test_matches_partial_sum_oracle(self):
        rng = np.random.default_rng(21)
        for k in (2, 3, 5, 8):
            for row in random_prob_matrix(rng, 50, k):
                assert np.allclose(cumulative(row), ref_cumulative(row), atol=1e-12)

    def test_monotone_and_ends_at_one(self):
        rng = np.random.default_rng(22)
        for row in random_prob_matrix(rng, 200, 6):
            c = cumulative(row)
            assert np.all(np.diff(c) >= 0)
            assert c[-1] == 1.0


class TestCostMatrix:
    def test_linear_default(self):
        c = CostMatrix.linear(3).costs
        assert np.array_equal(c, [[0, 0.5, 1], [0.5, 0, 0.5], [1, 0.5, 0]])

    def test_quadratic(self):
        c = CostMatrix.quadratic(3).costs
        assert np.array_equal(c, [[0, 0.25, 1], [0.25, 0, 0.25], [1, 0.25, 0]])

    def test_zero_one(self):
        c = CostMatrix.zero_one(3).costs
        assert np.array_equal(c, 1.0 - np.eye(3))

    def test_invariants(self):
        with pytest.raises(ShapeMismatch):
            CostMatrix.from_array([[0, 1, 2], [1, 0, 1]])
        with pytest.raises(InvalidConfig):
            CostMatrix.from_array([[0, -1], [1, 0]])
        with pytest.raises(InvalidConfig):
            CostMatrix.from_array([[0.5, 1], [1, 0]])
