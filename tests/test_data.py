import re

import numpy as np
import pytest

import ordeval.data

from ordeval import CostMatrix, EvalDataset, SynthConfig, generate, validate_dataset
from ordeval.errors import (
    DuplicateId,
    EmptyDataset,
    InvalidConfig,
    LabelOutOfRange,
    NegativeProbability,
    NonFiniteProbability,
    NonNumericField,
    ShapeMismatch,
    SumOutOfTolerance,
)

from helpers import make_dataset, random_prob_matrix, traced_peak
from ordeval.data import _BLOCK_ROWS
from ordeval.scoring import _cumulative_diffs
from reference import ref_cumulative


def cumulative(row):
    """The first K-1 entries of a probability vector's cumulative
    distribution, as ``_cumulative_diffs`` gives them against label K-1,
    whose own cumulative distribution is 0 there."""
    row = np.asarray(row, dtype=np.float64)
    return _cumulative_diffs(row[None, :], np.array([len(row) - 1]))[0]


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

    def test_rejects_more_classes_than_the_cap(self):
        k = ordeval.data.MAX_CLASSES
        assert make_dataset(np.full((1, k), 1 / k), [k - 1]).num_classes == k
        raw = EvalDataset(k + 1, ("a",), np.zeros(1, dtype=np.int64), np.full((1, k + 1), 1 / (k + 1)))
        with pytest.raises(InvalidConfig, match=f"^at most {k} classes, got {k + 1}$"):
            validate_dataset(raw)

    def test_too_many_classes_fail_before_allocating_or_reading_a_block(self):
        def blocks():
            raise AssertionError("no block should be read")
            yield

        def build():
            with pytest.raises(InvalidConfig, match="^at most 256 classes, got 20000$"):
                ordeval.data._build(20_000, 10**9, blocks())

        assert traced_peak(build)[0] < 64 * 1024

    def test_rejects_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            make_dataset([[0.5, 0.5]], [2])
        with pytest.raises(LabelOutOfRange):
            make_dataset([[0.5, 0.5]], [-1])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(DuplicateId):
            make_dataset([[1.0, 0.0], [0.0, 1.0]], [0, 1], ids=("a", "a"))

        class Own(str):  # hashes unlike the plain str it is stored as
            def __hash__(self):
                return 7

        with pytest.raises(DuplicateId, match="^duplicate sample id 'a'$"):
            make_dataset([[1.0, 0.0], [0.0, 1.0]], [0, 1], ids=(Own("a"), "a"))

    def test_duplicate_check_compares_ids_whose_hashes_collide(self, monkeypatch):
        # every id hashes alike, so only comparing the ids tells them apart
        hashed = []

        def clash(sid):
            hashed.append(sid)
            return 7

        monkeypatch.setattr(ordeval.data, "hash", clash, raising=False)
        unique = tuple("abcde")
        assert make_dataset(np.full((5, 2), 0.5), [0] * 5, ids=unique).ids == unique
        assert hashed[:5] == list(unique)
        # "c" repeats first in dataset order, though "a" repeats too
        with pytest.raises(DuplicateId, match="^duplicate sample id 'c'$"):
            make_dataset(np.full((6, 2), 0.5), [0] * 6, ids=tuple("abcdca"))

    def test_leaves_the_callers_arrays_as_they_were(self):
        probs = np.array([[0.5, 0.5000004, 0.0], [0.25, 0.75, 0.0]])
        labels = np.array([0, 2])
        before = probs.copy()
        ds = make_dataset(probs, labels)
        assert ds.probs[0].sum() != probs[0].sum()  # row 0 was renormalized
        assert probs.flags.writeable and labels.flags.writeable
        assert np.array_equal(probs, before) and np.array_equal(labels, [0, 2])
        assert not ds.probs.flags.writeable and not ds.labels.flags.writeable

    @pytest.mark.parametrize(
        "sid, reason",
        [(3, "of type int; ids must be str"), (b"b", "of type bytes"), (None, "of type NoneType")],
    )
    def test_rejects_an_id_that_is_not_a_str(self, sid, reason):
        with pytest.raises(InvalidConfig, match=f"^sample 1 has id {re.escape(repr(sid))} {reason}"):
            make_dataset(np.full((3, 2), 0.5), [0] * 3, ids=("a", sid, "c"))

    def test_rejects_an_id_that_cannot_be_stored(self):
        # a lone surrogate is a str that UTF-8, and so StringDType, cannot hold
        with pytest.raises(InvalidConfig, match=r"^sample 2 has id '\\ud800', which holds a lone surrogate$"):
            make_dataset(np.full((3, 2), 0.5), [0] * 3, ids=("a", "b", "\ud800"))

    @pytest.mark.parametrize(
        "label",
        [
            2.7, np.nan, np.inf, "1", None, 2**70,
            pytest.param(np.uint64(2**63), id="uint64-2**63"),
            pytest.param(np.uint64(2**64 - 1), id="uint64-2**64-1"),
            pytest.param(np.float64(2**63), id="float64-2**63"),
            pytest.param(np.float64(-np.inf), id="float64--inf"),
        ],
    )
    def test_rejects_a_label_that_is_not_an_integer(self, label):
        # EvalDataset itself: make_dataset casts the labels to int64. A NumPy
        # label goes in an array of its dtype, and is quoted as a plain value
        labels, shown = [0, label], label
        if isinstance(label, np.generic):
            labels, shown = np.array(labels, dtype=label.dtype), label.item()
        raw = EvalDataset(3, ["a", "b"], labels, np.full((2, 3), 1 / 3))
        want = f"^sample 'b' has label {re.escape(repr(shown))}, which is not an int64$"
        with pytest.raises(NonNumericField, match=want):
            validate_dataset(raw)

    def test_accepts_integer_valued_float_labels(self):
        for labels in ([2.0, 0.0], np.array([2.0, 0.0]), [np.int64(2), 0.0], np.uint64([2, 0])):
            ds = validate_dataset(EvalDataset(3, ["a", "b"], labels, np.full((2, 3), 1 / 3)))
            assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [2, 0]

    @pytest.mark.parametrize(
        "probs, labels, ids, error, message",
        [
            ([[0.5, 0.6]], [0], ["a"], SumOutOfTolerance, "sample 'a' probabilities sum to 1.1"),
            ([[np.nan, 1.0]], [0], ["a"], NonFiniteProbability, "non-finite probability in sample 'a'"),
            ([[-0.5, 1.5]], [0], ["a"], NegativeProbability, "negative probability in sample 'a'"),
            ([[0.5, 0.5]], [2], ["a"], LabelOutOfRange, "sample 'a' has label 2, valid range 0..1"),
            ([[0.5, 0.5]] * 2, [0, 2.5], ["a", "b"], NonNumericField,
             "sample 'b' has label 2.5, which is not an int64"),
            ([[0.5, 0.5]] * 2, [0, 1], ["a", "a"], DuplicateId, "duplicate sample id 'a'"),
        ],
        ids=["sum", "non-finite", "negative", "label-range", "label-real", "duplicate"],
    )
    def test_errors_quote_plain_values(self, probs, labels, ids, error, message):
        # ids as a NumPy string array, whose items repr as np.str_('a')
        raw = EvalDataset(2, np.array(ids), np.array(labels), np.array(probs))
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            validate_dataset(raw)

    def test_id_faults_are_placed_across_a_block_boundary(self):
        n = _BLOCK_ROWS + 2
        ids = [f"x{i}" for i in range(n)]
        probs, labels = np.full((n, 2), 0.5), np.zeros(n, dtype=np.int64)
        ids[-1] = "\ud800"  # row _BLOCK_ROWS + 1, in the second block
        lone = rf"^sample {_BLOCK_ROWS + 1} has id '\\ud800', which holds a lone surrogate$"
        with pytest.raises(InvalidConfig, match=lone):
            validate_dataset(EvalDataset(2, ids, labels, probs))
        ids[-1] = 7
        not_str = f"^sample {_BLOCK_ROWS + 1} has id 7 of type int;"
        with pytest.raises(InvalidConfig, match=not_str):
            validate_dataset(EvalDataset(2, ids, labels, probs))
        ids[-1] = "x3"  # its first copy is in the first block
        with pytest.raises(DuplicateId, match="^duplicate sample id 'x3'$"):
            validate_dataset(EvalDataset(2, ids, labels, probs))

    def test_ids_are_a_read_only_sequence_of_str(self):
        ids = ("a", "é" * 20, "c,d", "")
        ds = make_dataset(np.full((4, 2), 0.5), [0, 1, 0, 1], ids=ids)
        assert type(ds.ids[1]) is str and ds.ids[1] == "é" * 20 and ds.ids[-1] == ""
        assert ds.ids[1:3] == ("é" * 20, "c,d") and type(ds.ids[1:3]) is tuple
        assert ds.ids == ids and ids == ds.ids and ds.ids == list(ids)
        assert ds.ids != ids[:3] and ds.ids != ("a", "b", "c,d", "") and ds.ids != "a"
        assert list(ds.ids) == list(ids) and len(ds.ids) == 4 and "c,d" in ds.ids
        with pytest.raises(TypeError):
            ds.ids[0] = "z"
        with pytest.raises(IndexError):
            ds.ids[4]
        again = validate_dataset(ds)
        assert again.ids is ds.ids and again.ids == make_dataset(ds.probs, ds.labels, ids=ids).ids

    def test_rejects_empty(self):
        with pytest.raises(EmptyDataset):
            validate_dataset(EvalDataset(2, (), np.array([], dtype=np.int64),
                                         np.zeros((0, 2))))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ShapeMismatch):
            make_dataset([[1.0]], [0], k=1)
        with pytest.raises(ShapeMismatch):
            validate_dataset(EvalDataset(3, ("a",), np.array([0]), np.ones((1, 2)) / 2))
        with pytest.raises(ShapeMismatch, match=r"^labels have shape \(1, 1\), expected \(1,\)$"):
            validate_dataset(EvalDataset(2, ("a",), np.array([[0]]), np.ones((1, 2)) / 2))

    def test_idempotent_bit_for_bit(self):
        rng = np.random.default_rng(11)
        probs = random_prob_matrix(rng, 200, 5)
        # perturb sums inside the acceptance tolerance
        probs[::3] *= 1.0 + 4e-7
        once = make_dataset(probs, rng.integers(0, 5, 200))
        twice = validate_dataset(once)
        assert np.array_equal(once.probs, twice.probs)
        assert np.array_equal(once.labels, twice.labels)

    def test_revalidating_keeps_the_ids_without_copying_or_hashing_them(self):
        # the labels and probabilities are copied and checked again; the
        # validated ids are kept as they are, where a copy and its hashes
        # took 24 more bytes a row
        ds = generate(SynthConfig(n=200_000, k=5, noise=1.2, miscal=1.5, seed=1))
        peak, _, again = traced_peak(validate_dataset, ds)
        assert again.ids is ds.ids
        assert again.labels.tobytes() == ds.labels.tobytes()
        assert again.probs.tobytes() == ds.probs.tobytes()
        block = _BLOCK_ROWS * ds.num_classes * ds.probs.itemsize
        assert peak < ds.probs.nbytes + ds.labels.nbytes + block

    @pytest.mark.parametrize(
        "fault, error, message",
        [
            ("sum", SumOutOfTolerance, "sample 'b' probabilities sum to 1.1"),
            ("label", LabelOutOfRange, "sample 'b' has label 2, valid range 0..1"),
            ("real", NonNumericField, "sample 'b' has label 0.5, which is not an int64"),
        ],
    )
    def test_revalidating_validated_ids_still_checks_the_rest(self, fault, error, message):
        ds = make_dataset(np.full((3, 2), 0.5), [0, 1, 0], ids=("a", "b", "c"))
        probs, labels = ds.probs.copy(), ds.labels.tolist()
        if fault == "sum":
            probs[1] = [0.5, 0.6]
        else:
            labels[1] = 2 if fault == "label" else 0.5
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            validate_dataset(EvalDataset(2, ds.ids, np.array(labels), probs))

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
        assert np.allclose(cumulative([0.25, 0.75, 0.0]), [0.25, 1.0], atol=1e-15)

    def test_one_hot_first_class(self):
        assert np.array_equal(cumulative([1.0, 0.0, 0.0]), [1.0, 1.0])

    def test_symmetric_example(self):
        assert np.allclose(cumulative([0.30, 0.40, 0.30]), [0.30, 0.70], atol=1e-12)

    def test_matches_partial_sum_oracle(self):
        rng = np.random.default_rng(21)
        for k in (2, 3, 5, 8):
            for row in random_prob_matrix(rng, 50, k):
                assert np.allclose(cumulative(row), ref_cumulative(row)[:-1], atol=1e-12)

    def test_monotone_and_ends_at_one(self):
        rng = np.random.default_rng(22)
        for row in random_prob_matrix(rng, 200, 6):
            c = cumulative(row)
            assert np.all(np.diff(c) >= 0)
            assert np.all(c <= 1.0)
            # label 0's cumulative distribution is 1 from class 0 on
            assert np.array_equal(_cumulative_diffs(row[None, :], np.array([0]))[0], c - 1.0)


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
        with pytest.raises(ShapeMismatch, match="^cost matrix needs at least 2 classes$"):
            CostMatrix.from_array([[0.0]])
        with pytest.raises(InvalidConfig, match="^cost matrix contains non-finite entries$"):
            CostMatrix.from_array([[0, np.inf], [1, 0]])
