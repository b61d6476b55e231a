"""Exact ``%.17g`` and ``repr`` text for a float64 vector, from IEEE-754
basic operations.

``fields(values)`` equals ``[b"%.17g" % v for v in values]`` byte for byte,
and ``fields(values, shortest=True)`` equals ``[b"%r" % v for v in
values]``: the fewest digits that read back as v, and of those the nearest
to v. CPython makes each of those with its correctly rounded ``dtoa`` (Gay,
1990), at 0.6-0.9 µs a value; this module makes most of them in a few NumPy
passes over the whole vector.

The fast path takes 1e-270 <= v < 1. Smooth probability rows lie wholly
there (a 200k x 5 ``synth`` set at noise 1.2 does), but sharp ones do not: at
K = 256 and noise 1, about 86% of a ``synth`` set's values are exact zeros or
below 1e-270, where its exponentials underflow, and at noise 0 every value is
0 or 1. Scores lie there unless they reach 1: every ``sa_rps`` and ``rps``
score of that 200k x 5 set does, about half its ``log`` and ``brier``
scores do not. So only the values in range go through these steps:

- E = floor(log10 v) is guessed with ``np.log10``.
- x = v * 10**(16 - E) is formed as p + lo. Here 10**k is the double-double
  P + L built from exact Python ints, p = fl(v * P), and lo is the exact
  rounding error of that product (Dekker's 1971 split product, with no FMA)
  plus v * L. At the right E, p is at least 10**16 > 2**53 and so an
  integer, and lo is within 5e-15 of x - p.
- D = round(x), half to even, is p + floor(lo), plus 1 when lo's fraction is
  above 1/2. A fraction within 1e-9 of 1/2 goes to the fallback; true ties,
  such as 2**-25's, exist. So does a D outside (10**16, 10**17). That
  happens when the guess of E is one off, or when D carries to 10**17, and
  both happen only next to a power of ten.
- For ``repr`` only, D becomes the shortest digits. Every decimal strictly
  within h = spacing(v) / 2 * 10**(16 - E) of x reads back as v, and
  ``repr`` writes, of the multiples of the largest power of ten 10**m in
  (x - h, x + h), the one nearest to x (Steele & White, 1990; Adams, 2018).
  As 0.55 < h < 11.1, that interval holds at most one multiple of 100, which
  is then the only multiple of any larger power in it too. So the new D is
  the multiple of 100 nearest to x when it lies inside, else the multiple of
  10 nearest to x when that does, else D; its trailing zeros are dropped
  with the others. These go to the fallback: a power of two, whose interval
  below v is half as wide; a distance within 1e-9 of h, or of a tie between
  two multiples; and a carry to 10**17.
- D's 17 digits come from integer division and a 10,000-entry table of
  four digits. Each value's text is its layout's template (the point, the
  leading zeros and a '0' in every digit place up to the last nonzero digit)
  ORed with the digits and the exponent, each shifted into place as 64-bit
  little-endian words.

Layouts, as ``%.17g`` and ``repr`` both pick them for E <= -1 with trailing
zeros dropped: ``0.`` then -E-1 zeros then the digits for E = -4..-1, and
``d.ddde-XX`` otherwise, with three exponent digits from 100. Every other
value (0.0, -0.0, 1.0 and above, negatives, values below 1e-270, nan, inf)
goes through ``%``, once for each distinct bit pattern among them, so a
column of zeros costs one ``%`` call and a sort.

The bytes do not depend on the CPU or on NumPy's SIMD dispatch. Every step
is an IEEE-754 add, subtract, multiply or divide, a floor, ``frexp`` or a
conversion, each exact or correctly rounded, or integer arithmetic.
``np.log10`` gives only the guess of E, and the range check on D catches a
wrong guess.
"""

import functools

import numpy as np

_U64 = np.uint64

# the fast path's smallest value: every partial product of Dekker's split
# stays far above the subnormals
_LOW = 1e-270
# the largest k in 10**k that the fast path takes, at a guess of E = -271
_MAX_POWER = 287
# significant digits; a fraction of x this close to 1/2 may be a tie
_DIGITS = 17
_TIE = 1e-9
# layouts: 0-3 put that many zeros between "0." and the digits, 4 is the
# exponent form
_FORMS = 5
# words of text a value: at most 23 bytes, as in 1.2345678901234567e-100
_WORDS = 3


def _split(a):
    """Veltkamp's split of ``a`` into halves of 26 bits, ``hi + lo == a``."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _tables():
    """The powers of ten, the digit table and the layout tables, built once,
    on the first call."""
    big = [float(10**k) for k in range(_MAX_POWER + 1)]  # correctly rounded
    powers = np.empty((4, _MAX_POWER + 1))
    powers[0] = big
    powers[1], powers[2] = _split(powers[0])
    powers[3] = [float(10**k - int(b)) for k, b in enumerate(big)]
    # the four digits of 0..9999 as bytes 0-9, the first in the lowest byte
    quads = np.zeros(10**4, np.uint32)
    for place in range(4):
        quads |= np.arange(10**4, dtype=np.uint32) // 10 ** (3 - place) % 10 << 8 * place
    # per layout and count of significant digits: the template, and where
    # it ends, which is where an exponent goes: the word, and 8 x the byte
    rows = _FORMS * _DIGITS
    templates = np.zeros((rows, _WORDS), "<u8")
    ends = np.zeros(rows, np.intp)
    end_shifts = np.zeros(rows, _U64)
    for form in range(_FORMS):
        for nd in range(1, _DIGITS + 1):
            if form < 4:
                text = b"0." + b"0" * (form + nd)
            else:
                text = b"0." + b"0" * (nd - 1) if nd > 1 else b"0"
            row = form * _DIGITS + nd - 1
            templates[row] = np.frombuffer(text.ljust(8 * _WORDS, b"\0"), "<u8")
            ends[row], byte = divmod(len(text), 8)
            end_shifts[row] = 8 * byte
    # the exponent as a little-endian word, by -E; none for the fixed layouts
    exponents = np.zeros(_MAX_POWER + 1, _U64)
    exponents[5:] = [int.from_bytes(b"e-%02d" % e, "little") for e in range(5, _MAX_POWER + 1)]
    # 8 x the byte offset of the second digit and of the lead digit
    shifts = np.array([24, 32, 40, 48, 16], _U64)
    leads = np.array([16, 24, 32, 40, 0], _U64)
    return powers, quads, templates, ends, end_shifts, exponents, shifts, leads


def _round(v: np.ndarray, e: np.ndarray, powers: np.ndarray) -> tuple:
    """D = round(x) for x = v * 10**(16 - e), half to even; x - D, to within
    5e-15; and where D is exact: not within ``_TIE`` of a tie, and between
    10**16 and 10**17."""
    big, big_hi, big_lo, small = powers.take(16 - e, axis=1)
    p = v * big
    v_hi, v_lo = _split(v)
    lo = (((v_hi * big_hi - p) + v_hi * big_lo) + v_lo * big_hi) + v_lo * big_lo + v * small
    whole = np.floor(lo)
    lo -= whole  # the fraction
    up = lo > 0.5
    d = p.astype(np.int64) + whole.astype(np.int64) + up
    ok = (np.abs(lo - 0.5) > _TIE) & (d > 10**16) & (d < 10**17)
    lo -= up
    return d, lo, ok


def _shorten(v: np.ndarray, d: np.ndarray, off: np.ndarray, big: np.ndarray, ok: np.ndarray):
    """Put in place of each D the shortest digits ``repr`` gives, as the
    module docstring says, for x = ``d`` + ``off`` and ``big`` = v's
    10**(16 - e), and clear ``ok`` where they are in doubt."""
    mantissa, exponent = np.frexp(v)
    ok &= mantissa != 0.5  # below a power of two the spacing halves
    h = v / mantissa * (big * 2.0**-54)  # exact: a power of two times big
    base = d.copy()
    for step in (10, 100):
        r = base % step
        down = r + off  # x less the multiple of step at or below D
        up = step - down
        np.abs(down, out=down)
        gap = np.minimum(down, up)
        ok &= (np.abs(gap - h) > _TIE) & (np.abs(down - up) > _TIE)
        r -= step * (up < down)
        np.subtract(base, r, out=d, where=gap < h)
    ok &= d < 10**17


def _layout(d: np.ndarray, e: np.ndarray, tables: tuple) -> np.ndarray:
    """The text of each 17-digit D times 10**(e - 16), for e <= -1, as
    ``_WORDS`` little-endian words padded with NULs."""
    _, quads, templates, ends, end_shifts, exponents, shifts, leads = tables
    # D is the lead digit and two words of eight digits, each word with its
    # first four digits in the low half
    lead = d // 10**16
    eights = np.empty((2, len(d)), np.int64)
    np.floor_divide(d - lead * 10**16, 10**8, out=eights[0])
    eights[1] = d % 10**8
    fours = eights // 10**4
    eights -= fours * 10**4
    words = quads.take(eights).astype(_U64) << _U64(32)
    words |= quads.take(fours)
    del eights, fours
    # significant digits: the lead one and the bytes up to the last nonzero
    # one; every byte is at most 9, so rounding to float moves no bit length
    # past a byte boundary
    nd = 1 + ((np.frexp(words[1] * 2.0**64 + words[0])[1] + 7) >> 3)
    form = np.minimum(-1 - e, 4)
    row = form * _DIGITS + nd - 1
    # one more word after the last value's: its exponent spills a zero there
    flat = np.empty(len(d) * _WORDS + 1, _U64)
    out = templates.take(row, axis=0, out=flat[:-1].reshape(-1, _WORDS))
    at = shifts.take(form)
    back = 64 - at
    out[:, 0] |= words[0] << at | lead.astype(_U64) << leads.take(form)
    out[:, 1] |= words[0] >> back | words[1] << at
    out[:, 2] |= words[1] >> back
    # the exponent goes at the template's end: into one word and the next
    word = np.arange(0, out.size, _WORDS) + ends.take(row)
    at = end_shifts.take(row)
    exponent = exponents.take(-e)
    flat[word] |= exponent << at
    flat[word + 1] |= exponent >> 8 >> (56 - at)  # no shift of 64 bits or more
    return out


def _fast(v: np.ndarray, shortest: bool = False) -> tuple:
    """The fast path's text for each value of ``v``, all in [_LOW, 1), and
    where it is right; elsewhere it is wrong."""
    tables = _tables()
    e = np.floor(np.log10(v)).astype(np.int64)  # E, or one off
    d, off, ok = _round(v, e, tables[0])
    if shortest:
        _shorten(v, d, off, tables[0][0].take(16 - e), ok)
    return _layout(d, e, tables).view(f"S{8 * _WORDS}")[:, 0].tolist(), ok  # NULs stripped


def fields(values: np.ndarray, shortest: bool = False) -> list:
    """``[b"%.17g" % v for v in values]`` for a float64 vector ``values``,
    or ``[b"%r" % v ...]`` when ``shortest``."""
    inside = (values >= _LOW) & (values < 1.0)
    at = np.flatnonzero(inside)
    fast, ok = _fast(values[at], shortest) if len(at) else ([], np.ones(0, bool))
    if len(at) == len(values) and ok.all():
        return fast
    # the rest go through %, each bit pattern once (the zeros of a sharp row
    # repeat; -0.0 == 0.0 but is written "-0"), and each value's text is
    # taken from one table of both
    inside[at[~ok]] = False
    keys, slot = np.unique(values[~inside].view(np.int64), return_inverse=True)
    template = b"%r" if shortest else b"%.17g"
    table = np.array(fast + [template % v for v in keys.view(np.float64).tolist()], object)
    index = np.empty(len(values), np.intp)
    index[at] = np.arange(len(at))
    index[~inside] = len(at) + slot
    return table[index].tolist()
