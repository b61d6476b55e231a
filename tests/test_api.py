import copy
import dataclasses
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ordeval
from ordeval import CostMatrix, SynthConfig, _rng, generate, metric_report, retention

PUBLIC = (
    "BootstrapSummary", "CostMatrix", "EvalDataset", "MetricReport", "RULES",
    "RetentionCurve", "SynthConfig", "accuracy", "bootstrap_aursc", "brier",
    "confusion", "ece", "errors", "expected_cost", "generate",
    "log_score", "metric_report", "qwk", "rank_samples", "read_cost_matrix",
    "read_predictions", "render_curve_svg", "retained_count", "rps", "sa_rps",
    "sample_retention_curve", "validate_dataset", "write_predictions",
    "write_report",
)


def test_public_surface():
    assert sorted(ordeval.__all__) == sorted(PUBLIC) and len(PUBLIC) == 29
    for name in PUBLIC:
        assert getattr(ordeval, name) is not None
    # the bootstrap runs in the calling thread: no thread count is taken
    for fn in (retention.retention_analysis, retention.bootstrap_aursc):
        assert "threads" not in inspect.signature(fn).parameters
    assert list(inspect.signature(retention.check_bootstrap).parameters) == [
        "num_replicates"
    ]
    assert not hasattr(retention, "MAX_THREADS")
    assert not hasattr(_rng, "resample_indices")


def test_star_import_and_dir_cover_all():
    namespace = {}
    exec("from ordeval import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(ordeval.__all__)
    assert set(ordeval.__all__) <= set(dir(ordeval))
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        ordeval.nope  # noqa: B018


def test_cli_import_loads_neither_synth_nor_dataclasses():
    # a fresh interpreter, as every command runs in one; nor the formatter
    # that only write_predictions uses
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import ordeval.cli, sys; "
            "print(sorted({'ordeval.synth', 'dataclasses', 'ordeval._g17'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    child = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert child.stdout == "[]\n"


def _records():
    """One record of each type, made as the package makes them."""
    ds = generate(SynthConfig(n=40, k=3, noise=1.1, seed=5))
    curve, summary = retention.retention_analysis(ds, ["rps"], "qwk", num_replicates=3)[0]
    return [ds, CostMatrix.linear(3), metric_report(ds), curve, summary, SynthConfig(n=5, k=3)]


def _fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record).__slots__)


def _same(a, b) -> bool:
    """Field by field, arrays by value and dtype, ids by item."""
    if type(a) is not type(b):
        return False
    for x, y in zip(_fields(a), _fields(b)):
        if isinstance(x, np.ndarray):
            if not (x.dtype == y.dtype and np.array_equal(x, y)):
                return False
        elif not x == y:
            return False
    return True


@pytest.mark.parametrize("index", range(6), ids=[
    "EvalDataset", "CostMatrix", "MetricReport", "RetentionCurve", "BootstrapSummary",
    "SynthConfig",
])
class TestRecords:
    """Each record type behaves as the frozen dataclass it replaced, which
    serves as the oracle for ``repr``, ``==`` and ``hash``."""

    @pytest.fixture
    def record(self, index):
        return _records()[index]

    @pytest.fixture
    def frozen(self, record):
        names = type(record).__slots__
        cls = dataclasses.make_dataclass(type(record).__name__, names, frozen=True)
        return cls(*_fields(record))

    def test_construction(self, record):
        cls, values = type(record), _fields(record)
        names = cls.__slots__
        assert _same(cls(*values), record)
        assert _same(cls(**dict(zip(names, values))), record)
        assert _same(cls(*values[:1], **dict(zip(names[1:], values[1:]))), record)
        required = [name for name in names if name not in cls._defaults]
        with pytest.raises(TypeError, match=f"missing a required argument: '{required[-1]}'$"):
            cls(*values[: len(required) - 1])
        with pytest.raises(TypeError, match="unexpected keyword argument 'nope'"):
            cls(*values, nope=1)
        with pytest.raises(TypeError, match=f"multiple values for argument '{names[0]}'"):
            cls(*values, **{names[0]: values[0]})
        with pytest.raises(TypeError, match="too many positional arguments"):
            cls(*values, None)
        assert list(inspect.signature(cls).parameters) == list(names)

    def test_immutable(self, record):
        for name in (*type(record).__slots__, "other"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, 1)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert not hasattr(record, "__dict__")

    def test_equality_hash_and_repr_as_a_frozen_dataclass(self, record, frozen):
        assert repr(record) == repr(frozen)
        copy_ = type(record)(*_fields(record))
        try:
            expected = hash(_fields(record))
        except TypeError:  # an array or dict field, as in a frozen dataclass
            for r in (record, frozen):
                with pytest.raises(TypeError, match="unhashable"):
                    hash(r)
        else:
            assert hash(record) == hash(frozen) == expected
            assert record == copy_ and not record != copy_
        assert record == record
        assert record != frozen and record != _fields(record) and record != None  # noqa: E711

    def test_pickle_and_copy_round_trip(self, record):
        for clone in (
            pickle.loads(pickle.dumps(record)),
            copy.copy(record),
            copy.deepcopy(record),
        ):
            assert _same(clone, record)
        assert copy.copy(record).__slots__ == record.__slots__
