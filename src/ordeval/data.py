"""The evaluation dataset, its validation, and misclassification cost
matrices.

``EvalDataset`` keeps a whole test set in arrays: ids, labels and an N x K
probability matrix whose rows are nonnegative and sum to 1 within tolerance.
Every per-sample computation in the package works on these arrays directly.
Validated ids are one ``np.dtypes.StringDType`` array behind a read-only
sequence of ``str``. Everything is immutable after validation, so datasets
can be shared freely across threads.

``EvalDataset``, ``CostMatrix`` and the package's report and config types
are ``_Record`` classes: immutable records whose fields are their
``__slots__``, and which take no code generation to define at import.

``_build`` is the only code that makes a dataset. The file reader, the
generator and ``validate_dataset``, copying a caller's dataset, each hand it
blocks of rows; it fills its arrays with them, then checks and freezes those
arrays in place, and returns only validated datasets.

``_consume`` hands a command the rows of the reader or the generator
without making a dataset: ``_stream`` copies them into reused buffers of
16,384 rows (fewer above K = 5), gives each block the checks ``_build``
makes, with the same block check, ``_renormalized``, and keeps only each
id's hash. A None from the source, a block that fails a check, or a hash
that repeats sends the command back to ``_build``, which raises the
rows' error or, for distinct ids that share a hash, returns the dataset
whose blocks the command then takes.
"""

import inspect
import operator
import re
from collections.abc import Sequence
from itertools import islice, repeat

import numpy as np

from .errors import (
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

# Hard validation bound on |sum - 1|; beyond it the row is rejected.
SUM_TOLERANCE = 1e-6
# Rows whose sum is farther than this from 1 are renormalized. Renormalizing
# puts the sum within a few ulp of 1, i.e. well inside this trigger, which is
# what makes validation idempotent bit for bit.
_RENORM_TRIGGER = 1e-12

# rows per block where validation, the argmax, the rule scores and id
# iteration walk a dataset a block at a time: the per-block numpy calls
# vanish in the total, and a block's temporaries stay under a few megabytes
_BLOCK_ROWS = 1 << 14

# The generator's modes and size bound, here so that the CLI's help can
# name them without loading ``synth``. n * k at most MAX_CELLS: the
# dataset's own arrays grow with it, so a larger size is rejected before
# allocating.
MODES = ("ordinal", "shuffled")
MAX_CELLS = 5 * 10**7

# classes a dataset may have: the K x K cost and count matrices, and the
# retention kernel's curve stacks, grow with K * K, and a sample's confusion
# cell t * K + p fits two bytes
MAX_CLASSES = 256


class _Record:
    """An immutable record whose fields are its class's ``__slots__``.

    Fields are given by position or keyword, and ``_defaults`` supplies
    those left out, as the class's ``__signature__`` binds them; a missing,
    unknown or repeated field raises TypeError. Setting or deleting a field
    raises AttributeError. ``==`` compares two records of one class field
    by field, ``hash`` is the hash of the tuple of fields, ``repr`` reads
    ``Name(field=value, ...)``, and ``pickle`` and ``copy`` rebuild a record
    from its fields.
    """

    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls):
        kind, empty = inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty
        cls.__signature__ = inspect.Signature(
            [inspect.Parameter(f, kind, default=cls._defaults.get(f, empty)) for f in cls.__slots__]
        )

    def __init__(self, *args, **kwargs):
        bound = self.__signature__.bind(*args, **kwargs)
        bound.apply_defaults()
        for field, value in bound.arguments.items():
            object.__setattr__(self, field, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self.__slots__)

    def __setattr__(self, field, value):
        raise AttributeError(f"cannot assign to field {field!r}")

    def __delattr__(self, field):
        raise AttributeError(f"cannot delete field {field!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class _Ids(Sequence):
    """Validated sample ids: a read-only sequence of ``str`` held in one
    StringDType array, which takes 16 bytes an id of up to 15 UTF-8 bytes
    where a tuple of ``str`` takes about 64.

    An index gives a ``str`` and a slice a tuple; ``==`` compares item by
    item with any sequence. Iteration converts a block of ids at a time,
    as numpy gives up its elements one by one several times slower.
    """

    __slots__ = ("_array",)

    def __init__(self, array: np.ndarray):
        self._array = array

    def __len__(self) -> int:
        return len(self._array)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self._array[i].tolist())
        return self._array[operator.index(i)]

    def __iter__(self):
        for lo in range(0, len(self._array), _BLOCK_ROWS):
            yield from self._array[lo : lo + _BLOCK_ROWS].tolist()

    def __eq__(self, other):
        if isinstance(other, _Ids):
            return np.array_equal(self._array, other._array)
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"ids({self._array!r})"


class EvalDataset(_Record):
    """An ordered set of labeled probabilistic predictions over K classes.

    ``num_classes`` is K, ``ids`` a sequence of N ``str``, ``labels`` an
    array of shape (N,), ``probs`` one of shape (N, K). Sample order is
    significant: later tie-breaks fall back to position in this list. A
    validated dataset's ``ids[i]`` is a ``str`` and a slice of its ids a
    tuple.
    """

    __slots__ = ("num_classes", "ids", "labels", "probs")

    def __len__(self) -> int:
        return len(self.ids)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _id_array(ids) -> Sequence:
    """``ids`` to index one id at a time: the StringDType array of
    validated ids, or any other sequence as it is."""
    return ids._array if isinstance(ids, _Ids) else ids


def _build(k: int, bound: int, blocks, ids: _Ids | None = None) -> EvalDataset | None:
    """The only code that makes a validated dataset: one of ``k`` classes
    in arrays sized for ``bound`` rows, filled from the (ids, labels, probs)
    ``blocks``, cut to the rows they gave, then checked and frozen in place.
    None as soon as a block is None.

    Every block's ids must be plain ``str``, so the hash of each is the hash
    of the id as stored; errors quote the ids as stored. Given ``ids``, the
    validated ids of a dataset validated before, the blocks give None for
    their ids and the dataset keeps ``ids``, neither copied nor hashed
    again. Probability rows within SUM_TOLERANCE of summing to 1 are
    renormalized, and anything worse is rejected; labels must index a class
    and ids be unique. More than MAX_CLASSES classes are rejected before
    anything is allocated or any block is taken.
    """
    if k > MAX_CLASSES:
        raise InvalidConfig(f"at most {MAX_CLASSES} classes, got {k}")
    fresh = ids is None
    if fresh:
        ids = np.empty(bound, dtype=np.dtypes.StringDType())
        hashes = np.empty(bound, dtype=np.int64)
    labels = np.empty(bound, dtype=np.int64)
    probs = np.empty((bound, k))
    m = 0
    for block in blocks:
        if block is None:
            return None
        names, *values = block
        lo, m = m, m + len(values[0])
        if fresh:
            hashes[lo:m] = np.fromiter(map(hash, names), np.int64, m - lo)
            try:
                ids[lo:m] = names
            except UnicodeEncodeError:  # a lone surrogate, which UTF-8 cannot encode
                surrogate = re.compile("[\ud800-\udfff]").search
                bad, sid = next((i, s) for i, s in enumerate(names, lo) if surrogate(s))
                msg = f"sample {bad} has id {sid!r}, which holds a lone surrogate"
                raise InvalidConfig(msg) from None
        labels[lo:m], probs[lo:m] = values
    for a in (ids, hashes, labels, probs) if fresh else (labels, probs):
        a.resize((m, *a.shape[1:]), refcheck=False)
    if fresh:
        ids = _Ids(_freeze(ids))

    # a block of rows at a time, so no check holds a temporary as long as
    # the dataset; a block that fails any check hands over to the whole-
    # array checks, which raise the error for the first fault in check order
    for lo in range(0, m, _BLOCK_ROWS):
        if not _renormalized(probs[lo : lo + _BLOCK_ROWS]):
            _reject_probs(ids, probs)

    if np.any(labels < 0) or np.any(labels >= k):
        bad = int(np.argwhere((labels < 0) | (labels >= k))[0, 0])
        raise LabelOutOfRange(
            f"sample {ids[bad]!r} has label {labels[bad]}, valid range 0..{k - 1}"
        )
    if fresh:
        _check_unique(ids, hashes)
    return EvalDataset(k, ids, _freeze(labels), _freeze(probs))


def _renormalized(block: np.ndarray) -> bool:
    """Whether every row of a block of probabilities is finite, nonnegative
    and sums to 1 within SUM_TOLERANCE; if so, the rows whose sums miss 1
    by more than _RENORM_TRIGGER are renormalized in place."""
    sums = block.sum(axis=1)
    off = sums - 1.0
    np.abs(off, out=off)
    if not (np.isfinite(block).all() and (block >= 0.0).all() and (off <= SUM_TOLERANCE).all()):
        return False
    renorm = off > _RENORM_TRIGGER
    if np.any(renorm):
        block[renorm] /= sums[renorm, None]
    return True


class _Fallback(Exception):
    """Raised by ``_stream`` for rows it cannot vouch for; ``_consume`` then
    takes them through ``_build``, which raises their error."""


def _consume(consume, k: int, bound: int, sources, dataset, keep_ids: bool = True):
    """``consume(k, bound, blocks)`` of the (ids, labels, probs) blocks
    ``sources`` gives for at most ``bound`` rows, as ``_stream`` validates
    them, so no array holds the probabilities of every row; without
    ``keep_ids`` its blocks may give None for their ids. On a ``_Fallback`` it
    is ``consume`` of the blocks of ``dataset()``, which makes the same
    rows into a dataset through ``_build`` and so raises the error
    ``_build`` gives them, or returns them validated when their ids only
    share a hash."""
    try:
        if k > MAX_CLASSES:  # _build's error, before consume sizes anything by K
            raise _Fallback
        return consume(k, bound, _stream(k, bound, sources, keep_ids))
    except _Fallback:
        pass  # out of the handler, so the traceback frees the first pass's arrays
    ds = dataset()
    return consume(ds.num_classes, len(ds), _dataset_blocks(ds))


def _stage_rows(k: int) -> int:
    """Rows in a staged block: ``_BLOCK_ROWS`` up to K = 5, as many as
    ``_build`` checks at once, and fewer past it, so a block holds at most
    5 * ``_BLOCK_ROWS`` probabilities (0.66 MB) at any K."""
    return min(_BLOCK_ROWS, 5 * _BLOCK_ROWS // k)


def _dataset_blocks(ds: EvalDataset):
    """A dataset as ``_stream`` gives its rows: (ids, labels, probs) blocks
    of ``_stage_rows`` rows, the ids as an array or sequence of ``str``."""
    ids, rows = _id_array(ds.ids), _stage_rows(ds.num_classes)
    for lo in range(0, len(ds), rows):
        block = slice(lo, lo + rows)
        yield ids[block], ds.labels[block], ds.probs[block]


def _stream(k: int, bound: int, sources, keep_ids: bool):
    """The rows of the (ids, labels, probs) ``sources`` blocks, validated
    as ``_build`` validates them, in blocks of ``_stage_rows(k)`` rows
    copied into buffers that every block reuses; a block is good only
    until the next is taken. Ids come as a StringDType array, or as None
    without ``keep_ids``.

    Each id's hash is kept, 8 bytes a row. ``_Fallback`` is raised for a
    None source, an id UTF-8 cannot encode, a block that fails a check
    and, after the last block, two ids that share a hash.
    """
    rows = _stage_rows(k)
    ids = np.empty(rows, dtype=np.dtypes.StringDType()) if keep_ids else None
    labels = np.empty(rows, dtype=np.int64)
    probs = np.empty((rows, k))
    hashes = np.empty(bound, dtype=np.int64)
    m = filled = 0
    for block in sources:
        if block is None:
            raise _Fallback
        names, got_labels, got_probs = block
        try:
            "".join(names).encode()
        except UnicodeEncodeError:  # a lone surrogate
            raise _Fallback from None
        hashes[m : m + len(names)] = np.fromiter(map(hash, names), np.int64, len(names))
        m += len(names)
        lo = 0
        while lo < len(names):  # a source block may straddle two staged ones
            hi = min(len(names), lo + rows - filled)
            stage = slice(filled, filled + hi - lo)
            if keep_ids:
                ids[stage] = names[lo:hi]
            labels[stage], probs[stage] = got_labels[lo:hi], got_probs[lo:hi]
            filled, lo = stage.stop, hi
            if filled == rows:
                yield _vouched(k, ids, labels, probs, rows)
                filled = 0
    if filled:
        yield _vouched(k, ids, labels, probs, filled)
    if _repeats(hashes[:m]):
        raise _Fallback


def _vouched(k: int, ids, labels: np.ndarray, probs: np.ndarray, m: int):
    """The first ``m`` staged rows, renormalized, or ``_Fallback`` when
    their probabilities or labels fail ``_build``'s checks."""
    labels, probs = labels[:m], probs[:m]
    if not _renormalized(probs) or labels.min() < 0 or labels.max() >= k:
        raise _Fallback
    return ids if ids is None else ids[:m], labels, probs


def _is_label(v) -> bool:
    """Whether ``v`` is an integer that an int64 holds exactly: ``int``
    gives it back unchanged (2.0, but not 2.7, NaN or ``"1"``)."""
    try:
        return int(v) == v and -(2**63) <= v < 2**63
    except (TypeError, ValueError, OverflowError):
        return False


def _copied(ids, labels: np.ndarray, probs: np.ndarray):
    """A caller's dataset as ``_build`` blocks of ``_BLOCK_ROWS`` rows, each
    id as a plain ``str``, or None for every block's ids when ``ids`` are
    validated ids. The first id that is not a ``str`` is rejected by its
    position, and the first label that is not an int64 value (2.7, NaN,
    2**64 - 1, ``"1"``) by its sample id, quoted as given. A numeric label
    array is checked by its cast to int64, an object array label by label."""
    known = isinstance(ids, _Ids)
    names = iter(ids)
    for lo in range(0, len(labels), _BLOCK_ROWS):
        given = labels[lo : lo + _BLOCK_ROWS]
        block = None if known else list(islice(names, _BLOCK_ROWS))
        # a str subclass hashes and quotes as it likes
        if not known and {*map(type, block)} != {str}:
            if not all(map(isinstance, block, repeat(str))):
                bad, sid = next((i, s) for i, s in enumerate(block, lo) if not isinstance(s, str))
                kind = type(sid).__name__
                raise InvalidConfig(f"sample {bad} has id {sid!r} of type {kind}; ids must be str")
            block = list(map(str.__str__, block))
        if given.dtype == object:
            bad = next((i for i, v in enumerate(given) if not _is_label(v)), None)
        else:
            with np.errstate(invalid="ignore", over="ignore"):
                exact = given.astype(np.int64) == given
            bad = None if exact.all() else int(np.argmin(exact))
        if bad is not None:
            sid = ids[lo + bad] if known else block[bad]
            raise NonNumericField(
                f"sample {sid!r} has label {given.tolist()[bad]!r}, which is not an int64"
            )
        yield block, given, probs[lo : lo + len(given)]


def _check_unique(ids: _Ids, hashes: np.ndarray) -> None:
    """Reject the first id, in dataset order, that repeats an earlier one.

    Equal ids have equal hashes, so only ids whose hashes repeat in the
    sorted ``hashes`` (8 bytes an id, where a set takes ~60) are compared.
    ``hashes`` is sorted in place.
    """
    repeats = _repeats(hashes)
    if not repeats:
        return
    seen = set()
    for sid in ids:
        if sid in seen:
            raise DuplicateId(f"duplicate sample id {sid!r}")
        if hash(sid) in repeats:
            seen.add(sid)


def _repeats(hashes: np.ndarray) -> set:
    """The values that occur more than once in ``hashes``, which is sorted
    in place."""
    hashes.sort()
    return set(hashes[1:][hashes[1:] == hashes[:-1]].tolist())


def _reject_probs(ids: _Ids, probs: np.ndarray) -> None:
    """Raise the error for the first probability check that ``probs`` fails:
    non-finite entries, then negative ones, then the row whose sum is
    farthest from 1 beyond SUM_TOLERANCE."""
    if not np.all(np.isfinite(probs)):
        bad = int(np.argwhere(~np.isfinite(probs).all(axis=1))[0, 0])
        raise NonFiniteProbability(f"non-finite probability in sample {ids[bad]!r}")
    if np.any(probs < 0.0):
        bad = int(np.argwhere((probs < 0.0).any(axis=1))[0, 0])
        raise NegativeProbability(f"negative probability in sample {ids[bad]!r}")
    sums = probs.sum(axis=1)
    bad = int(np.argmax(np.abs(sums - 1.0)))
    raise SumOutOfTolerance(f"sample {ids[bad]!r} probabilities sum to {sums[bad].item()!r}")


def validate_dataset(raw: EvalDataset) -> EvalDataset:
    """Check every dataset invariant and return the canonicalized dataset.

    K runs from 2 to MAX_CLASSES. Probability rows within SUM_TOLERANCE of
    summing to 1 are renormalized; anything worse is rejected. Labels must
    be integers that index a class (2.0 counts as 2; 2.7, NaN and ``"1"``
    are rejected) and ids unique ``str`` that UTF-8 can encode. The
    returned arrays are read-only, and validating an already validated
    dataset returns identical values (the renormalization trigger sits far
    above the residual left by renormalization itself) and its own ids,
    neither copied nor hashed again. The caller's arrays are copied, by
    ``_build``, never changed or frozen.
    """
    k = raw.num_classes
    if k < 2:
        raise ShapeMismatch(f"need at least 2 classes, got {k}")
    n = len(raw.ids)
    if n == 0:
        raise EmptyDataset("dataset has no samples")
    probs = np.asarray(raw.probs, dtype=np.float64)
    labels = np.asarray(raw.labels)
    if labels.dtype.kind not in "biuf":  # each label as given, for _copied to check
        labels = np.asarray(raw.labels, dtype=object)
    if probs.shape != (n, k):
        raise ShapeMismatch(f"probability matrix has shape {probs.shape}, expected {(n, k)}")
    if labels.shape != (n,):
        raise ShapeMismatch(f"labels have shape {labels.shape}, expected {(n,)}")
    known = raw.ids if isinstance(raw.ids, _Ids) else None  # validated before
    return _build(k, n, _copied(raw.ids, labels, probs), ids=known)


class CostMatrix(_Record):
    """K x K misclassification costs: nonnegative, zero diagonal.

    ``costs[t][p]``, an array, is the penalty for predicting class p when
    the truth is class t.
    """

    __slots__ = ("costs",)

    @property
    def num_classes(self) -> int:
        return self.costs.shape[0]

    @classmethod
    def from_array(cls, costs) -> "CostMatrix":
        c = np.array(costs, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ShapeMismatch(f"cost matrix must be square, got shape {c.shape}")
        if c.shape[0] < 2:
            raise ShapeMismatch("cost matrix needs at least 2 classes")
        if not np.all(np.isfinite(c)):
            raise InvalidConfig("cost matrix contains non-finite entries")
        if np.any(c < 0.0):
            raise InvalidConfig("cost matrix entries must be nonnegative")
        if np.any(np.diag(c) != 0.0):
            raise InvalidConfig("cost matrix diagonal must be zero")
        return cls(_freeze(c))

    @classmethod
    def linear(cls, num_classes: int) -> "CostMatrix":
        """Default costs |i - j| / (K - 1); the worst mistake costs 1."""
        idx = np.arange(num_classes)
        return cls.from_array(np.abs(idx[:, None] - idx[None, :]) / (num_classes - 1))

    @classmethod
    def quadratic(cls, num_classes: int) -> "CostMatrix":
        """Costs ((i - j) / (K - 1))^2, matching quadratic kappa weighting."""
        idx = np.arange(num_classes)
        return cls.from_array(((idx[:, None] - idx[None, :]) / (num_classes - 1)) ** 2)

    @classmethod
    def zero_one(cls, num_classes: int) -> "CostMatrix":
        """Uniform cost 1 for every mistake; expected cost = 1 - accuracy."""
        return cls.from_array(1.0 - np.eye(num_classes))
