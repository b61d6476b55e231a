"""``_g17.fields`` against CPython's ``b"%.17g" % v``, byte for byte."""

import os
import subprocess
import sys

import numpy as np
import pytest

import ordeval
from ordeval import SynthConfig, generate
from ordeval._g17 import _fast, _round, _tables, fields

# values a call; the prediction writer passes a chunk's column, 1,024 values
BLOCK = 1 << 14


def formatted(values):
    return [text for lo in range(0, len(values), BLOCK) for text in fields(values[lo:lo + BLOCK])]


def expected(values):
    return list(map(b"%.17g".__mod__, values.tolist()))


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
    # sharp rows: exact zeros, subnormals and values below 1e-270 among
    # values in range, and one-hot rows of 0 and 1 only
    "sharp-rows": lambda rng: generate(SynthConfig(n=400, k=256, seed=5)).probs.ravel(),
    "one-hot": lambda rng: generate(SynthConfig(n=4000, k=5, noise=0.0, seed=5)).probs.ravel(),
    "edges": lambda rng: EDGES,
    # every kind three times in one call, 0.0 and -0.0 side by side
    "repeats": lambda rng: np.tile(EDGES, 3),
}


@pytest.fixture(scope="module")
def synth():
    """The probabilities of a 200k x 5 ``synth`` set, row by row."""
    return generate(SynthConfig(n=200_000, k=5, noise=1.2, miscal=1.5, seed=1)).probs.ravel()


@pytest.mark.parametrize("name", SETS)
def test_matches_percent_formatting(name):
    values = SETS[name](np.random.default_rng(17))
    assert formatted(values) == expected(values)


def test_the_fast_path_writes_the_synth_set(synth):
    for lo in range(0, len(synth), BLOCK):
        text, ok = _fast(synth[lo:lo + BLOCK])
        assert ok.all()
        assert text == expected(synth[lo:lo + BLOCK])


def test_ties_take_the_fallback():
    # 2**-25 = 2.98023223876953125e-08 has 18 digits and ends in 5; the
    # fallback rounds it to even, 2.9802322387695312e-08
    assert _fast(np.array([2.0**-25, 0.25]))[1].tolist() == [False, True]
    assert fields(np.array([2.0**-25])) == [b"2.9802322387695312e-08"]


@pytest.mark.parametrize("off", [-1, 1])
def test_a_guess_of_the_exponent_one_off_is_caught(off):
    # np.log10 only guesses E; within a few ulps of a power of ten a libm
    # may guess one off, and D then lands outside (10**16, 10**17)
    values = SETS["decades"](np.random.default_rng(17))
    values = values[values >= 1e-269]
    e = np.floor(np.log10(values)).astype(np.int64)
    assert _round(values, e, _tables()[0])[1].all()
    assert not _round(values, e + off, _tables()[0])[1].any()


def test_an_empty_vector():
    assert fields(np.zeros(0)) == []


def test_bytes_do_not_depend_on_cpu_dispatch(synth):
    # In a child with every SIMD target NumPy dispatches to on this CPU
    # switched off (on x86-64, the AVX2 and AVX-512 groups), the bytes match
    # this process's, for the values sent to it
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    targets = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    if not targets:
        pytest.skip("NumPy dispatches to no SIMD target on this CPU")
    rng = np.random.default_rng(17)
    values = np.concatenate([make(rng) for make in SETS.values()] + [synth])
    child = (
        "import sys\n"
        "import numpy as np\n"
        "from numpy._core._multiarray_umath import __cpu_features__\n"
        "from ordeval._g17 import fields\n"
        "assert not any(__cpu_features__[name] for name in sys.argv[1:])\n"
        "values = np.frombuffer(sys.stdin.buffer.read())\n"
        f"for lo in range(0, len(values), {BLOCK}):\n"
        f"    sys.stdout.buffer.write(b'\\n'.join(fields(values[lo:lo + {BLOCK}])) + b'\\n')\n"
    )
    src = os.path.dirname(os.path.dirname(ordeval.__file__))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", child, *targets], input=values.tobytes(),
                         capture_output=True, env=env, check=True)
    assert run.stdout.split(b"\n")[:-1] == formatted(values)
