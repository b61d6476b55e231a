"""``_g17.fields`` against CPython's ``b"%.17g" % v`` and ``b"%r" % v``,
byte for byte."""

import functools
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
from helpers import tenths

import ordeval
from ordeval import SynthConfig, generate
from ordeval._g17 import _LOW, _fast, _round, _shorten, _tables, fields
from ordeval.scoring import RULES

# values a call; the writers pass 1,024 scores or up to 3,072 probabilities
BLOCK = 1 << 14



def formatted(values, shortest=False):
    return [text for lo in range(0, len(values), BLOCK)
            for text in fields(values[lo:lo + BLOCK], shortest)]


def expected(values, shortest=False):
    return list(map((b"%r" if shortest else b"%.17g").__mod__, values.tolist()))


@functools.cache
def synth_set():
    """A 200k x 5 ``synth`` set, as the ``files-200k`` benchmark writes it."""
    return generate(SynthConfig(n=200_000, k=5, noise=1.2, miscal=1.5, seed=1))


def rule_scores(probs, labels):
    """Every rule's scores of the rows, one rule after the other."""
    return np.concatenate([rule(probs, labels) for rule in RULES.values()])


def powers_of_ten():
    """10**k for k = -300..16, and the doubles one and two ulps either side."""
    exact = np.array([float(f"1e{k}") for k in range(-300, 17)])
    sides = [exact]
    for toward in (0.0, np.inf):
        step = exact
        for _ in range(2):
            step = np.nextafter(step, toward)
            sides.append(step)
    return np.concatenate(sides)


EDGES = np.array([
    0.0, -0.0, 1.0, -1.0, 1.5, 2.0, 10.0, 1e16, 1e17, 1e300, np.finfo(float).max,
    np.nan, -np.nan, np.inf, -np.inf, -0.25, 5e-324, 1e-310, np.finfo(float).tiny, 1e-270,
    np.nextafter(1e-270, 0), np.nextafter(1.0, 0), 0.1, 0.5, 1e-4, 1e-5, 2.0**-25,
])

SETS = {
    # whole double range: negatives, subnormals, nan, inf and every exponent
    "bit-patterns": lambda rng: rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64),
    # every decade of the fast path, 1e-270 to 1
    "decades": lambda rng: rng.random(50_000) * 10.0 ** -rng.integers(0, 271, 50_000),
    # 2**-k for k = 0..1074, among them exact ties at the 18th digit (2**-25)
    "powers-of-two": lambda rng: np.ldexp(1.0, -np.arange(1075)),
    "powers-of-ten": lambda rng: powers_of_ten(),
    # j / 2**17: exact decimals of up to 17 digits; in [0.5, 1) h is 5.55,
    # and those ending in 5 lie halfway between two multiples of 10 within it
    "dyadic": lambda rng: np.arange(1, 2**17) / 2.0**17,
    # sharp rows: exact zeros, subnormals and values below 1e-270 among
    # values in range, and one-hot rows of 0 and 1 only
    "sharp-rows": lambda rng: generate(SynthConfig(n=400, k=256, seed=5)).probs.ravel(),
    "one-hot": lambda rng: generate(SynthConfig(n=4000, k=5, noise=0.0, seed=5)).probs.ravel(),
    "edges": lambda rng: EDGES,
    # every kind three times in one call, 0.0 and -0.0 side by side
    "repeats": lambda rng: np.tile(EDGES, 3),
    # round(x, d) for d = 1..16: few digits, which repr writes short
    "short-decimals": lambda rng: np.array(
        [round(x, d) for x in rng.random(2_000).tolist() for d in range(1, 17)]),
    # every rule's scores of rows on a tenths grid: short decimals, ties
    # and the rounding error of the rules' sums
    "tenths-scores": lambda rng: rule_scores(
        tenths(synth_set().probs[:20_000]), synth_set().labels[:20_000]),
    # every rule's scores of the 200k x 5 set: about half the log and
    # brier scores are 1 or more
    "rule-scores": lambda rng: rule_scores(synth_set().probs, synth_set().labels),
}


# each set against %.17g, then against %r
@pytest.mark.parametrize("name, shortest", [
    *(pytest.param(name, False, id=name) for name in SETS),
    *(pytest.param(name, True, id=f"{name}-repr") for name in SETS),
])
def test_matches_percent_formatting(name, shortest):
    values = SETS[name](np.random.default_rng(17))
    assert formatted(values, shortest) == expected(values, shortest)


def test_the_fast_path_writes_the_synth_set():
    probs = synth_set().probs.ravel()
    for lo in range(0, len(probs), BLOCK):
        text, ok = _fast(probs[lo:lo + BLOCK])
        assert ok.all()
        assert text == expected(probs[lo:lo + BLOCK])


@pytest.mark.parametrize("rule", ["sa_rps", "rps"])
def test_the_fast_path_writes_every_score_of_the_synth_set(rule):
    scores = RULES[rule](synth_set().probs, synth_set().labels)
    assert scores.min() >= _LOW and scores.max() < 1.0
    for lo in range(0, len(scores), BLOCK):
        text, ok = _fast(scores[lo:lo + BLOCK], True)
        assert ok.all()
        assert text == expected(scores[lo:lo + BLOCK], True)


def test_ties_take_the_fallback():
    # 2**-25 = 2.98023223876953125e-08 has 18 digits and ends in 5; the
    # fallback rounds it to even, 2.9802322387695312e-08
    assert _fast(np.array([2.0**-25, 0.25]))[1].tolist() == [False, True]
    assert fields(np.array([2.0**-25])) == [b"2.9802322387695312e-08"]


def test_shortest_digits_and_their_fallbacks():
    # 0.1 is 0.1000000000000000055..., which %.17g writes with 17 digits; a
    # power of two has a narrower interval below it, so 0.25 and 2**-25 go
    # through %r
    values = np.array([0.1, 0.3, np.nextafter(0.001, 1), 0.25, 2.0**-25])
    text, ok = _fast(values, True)
    assert ok.tolist() == [True, True, True, False, False]
    assert text[:3] == [b"0.1", b"0.3", b"0.0010000000000000002"]
    assert fields(values, True) == expected(values, True)


def test_a_carry_to_ten_to_the_17_takes_the_fallback():
    # the double nearest 1e-6 lies below it: with the exact E = -7, D is
    # 99999999999999995, and the multiple of 100 within h of x is 10**17
    v = np.array([1e-6])
    d, off, ok = _round(v, np.array([-7]), _tables()[0])
    assert d.tolist() == [99999999999999995] and ok.all()
    _shorten(v, d, off, _tables()[0][0].take([23]), ok)
    assert d.tolist() == [10**17] and not ok.any()
    assert fields(v, True) == [b"1e-06"]


@pytest.mark.parametrize("off", [-1, 1])
def test_a_guess_of_the_exponent_one_off_is_caught(off):
    # np.log10 only guesses E; within a few ulps of a power of ten a libm
    # may guess one off, and D then lands outside (10**16, 10**17)
    values = SETS["decades"](np.random.default_rng(17))
    values = values[values >= 1e-269]
    e = np.floor(np.log10(values)).astype(np.int64)
    assert _round(values, e, _tables()[0])[2].all()
    assert not _round(values, e + off, _tables()[0])[2].any()


def test_an_empty_vector():
    assert fields(np.zeros(0)) == [] == fields(np.zeros(0), True)


# the inputs of the dispatch test, made from integers alone, so that every
# child makes the same bits whatever it dispatches to (10.0 ** x would not)
DISPATCH_VALUES = """
rng = np.random.default_rng(17)
low, high = np.array([1e-270, 1.0]).view(np.int64)
values = np.concatenate([
    rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64),
    rng.integers(low, high, 100_000).view(np.float64),
    *(rng.integers(1, 10**d, 5_000) / float(10**d) for d in range(1, 17)),
])
"""


def test_bytes_do_not_depend_on_cpu_dispatch():
    # One child per SIMD level NumPy can dispatch to on this CPU, from all of
    # them to none (the AVX2 and AVX-512 groups on x86-64), each with the
    # targets above its level switched off; every child formats the same
    # values in both modes to the bytes % gives
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    targets = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    if not targets:
        pytest.skip("NumPy dispatches to no SIMD target on this CPU")
    scope = {"np": np}
    exec(DISPATCH_VALUES, scope)
    values = scope["values"]
    digests = [
        hashlib.sha256(b"\n".join(expected(values, shortest))).hexdigest()
        for shortest in (False, True)
    ]
    child = (
        "import hashlib, sys\n"
        "import numpy as np\n"
        "from numpy._core._multiarray_umath import __cpu_features__\n"
        "from ordeval._g17 import fields\n"
        "assert not any(__cpu_features__[name] for name in sys.argv[1:])\n"
        + DISPATCH_VALUES +
        "for shortest in (False, True):\n"
        "    text = [t for lo in range(0, len(values), 1024)\n"
        "            for t in fields(values[lo:lo + 1024], shortest)]\n"
        "    print(hashlib.sha256(b'\\n'.join(text)).hexdigest())\n"
    )
    src = os.path.dirname(os.path.dirname(ordeval.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for level in range(len(targets), -1, -1):
        off = targets[level:]
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(off), PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c", child, *off], capture_output=True,
                             env=env, check=True)
        assert run.stdout.decode().split() == digests, off
