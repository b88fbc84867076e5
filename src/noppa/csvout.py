"""CSV text of float64 rows, byte-identical to ``repr`` of every value, for
a whole matrix at once.

``format_rows(rows)`` returns what
``"".join(",".join(map(repr, row)) + "\\n" for row in rows)`` encodes to, at
about a third of the cost of ``repr``.  The shortest decimal that reads back as
the same float, and of those the closest (ties to an even last digit),
comes from Giulietti's Schubfach algorithm ("The Schubfach way to render
doubles", 2020), which needs only fixed-width integer arithmetic and so
runs on uint64 arrays.  The digits are then laid out by Python's ``repr``
rules: with decpt the decimal exponent (value = 0.d1d2... * 10**decpt),
fixed notation when -4 < decpt <= 16, else ``d.ddde+XX``; ``nan``, ``inf``
and signed zeros are plain strings.
"""

from __future__ import annotations

import functools

import numpy as np

_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)
_MASK63 = _U64(0x7FFFFFFFFFFFFFFF)
_C_MIN = 1 << 52          # smallest significand of a normal double
_K_MIN, _K_MAX = -324, 292
_DIGITS = 17              # every double prints in at most 17 digits
_POW10 = np.array([10 ** i for i in range(_DIGITS + 1)], dtype=_U64)


def _flog10pow2(q):
    """floor(q * log10(2)) for |q| <= 1700."""
    return (q * 661971961083) >> 41


def _flog10_three_quarters_pow2(q):
    """floor(log10(3/4 * 2**q)) for |q| <= 1700."""
    return (q * 661971961083 - 274743187321) >> 41


def _flog2pow10(e):
    """floor(e * log2(10)) for |e| <= 1233."""
    return (e * 913124641741) >> 38


def _g(k: int) -> int:
    """g(k) = floor(10**-k / 2**r) + 1, with r chosen so that
    2**125 <= g < 2**126: a 126-bit upper bound of 10**-k."""
    r = _flog2pow10(-k) - 125
    if k > 0:  # then r < 0
        return (1 << -r) // 10 ** k + 1
    return (10 ** -k >> r if r >= 0 else 10 ** -k << -r) + 1


@functools.cache
def _exponent_table() -> tuple[np.ndarray, ...]:
    """Everything that depends on the biased exponent alone, indexed by it
    plus 2048 at a power of two (where the gap below is half the gap
    above): the decimal exponent k, the shift h + 2, the implicit bit of
    the significand, and g(k) split as g1 * 2**63 + g0."""
    index = np.arange(4096)
    bq, irregular = index & 2047, index >= 2048
    q = np.maximum(bq, 1) - 1075  # subnormals share the least exponent
    k = np.where(irregular, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    shift = (q + _flog2pow10(-k) + 4).astype(_U64)
    implicit = np.where(bq > 0, _U64(_C_MIN), _U64(0))
    g = [_g(j) for j in range(_K_MIN, _K_MAX + 1)]
    g1 = np.array([v >> 63 for v in g], dtype=_U64)[k - _K_MIN]
    g0 = np.array([v & ((1 << 63) - 1) for v in g], dtype=_U64)[k - _K_MIN]
    return k, shift, implicit, g1, g0


def _product(a, b):
    """(high, low) 64-bit words of the 128-bit products of two uint64 arrays."""
    a0, a1 = a & _MASK32, a >> _U64(32)
    b0, b1 = b & _MASK32, b >> _U64(32)
    lo_hi = a0 * b1
    hi_lo = a1 * b0
    mid = ((a0 * b0) >> _U64(32)) + (lo_hi & _MASK32) + (hi_lo & _MASK32)
    return a1 * b1 + (lo_hi >> _U64(32)) + (hi_lo >> _U64(32)) + (mid >> _U64(32)), a * b


def _rop(y1, y0, x1):
    """Schubfach's ``rop``: g * cp / 2**127 rounded down, with the lowest bit
    set when inexact, from the high and low words (y1, y0) of g1 * cp and
    the high word x1 of g0 * cp, where g = g1 * 2**63 + g0."""
    z = (y0 >> _U64(1)) + x1
    return (y1 + (z >> _U64(63))) | (((z & _MASK63) + _MASK63) >> _U64(63))


def _shifted(hi, lo, g, shift, sign):
    """The 128-bit (hi, lo) plus sign * g * 2**shift, for 1 <= shift <= 63."""
    step = g << shift
    if sign > 0:
        new = lo + step
        return hi + (g >> (_U64(64) - shift)) + (new < lo), new
    new = lo - step
    return hi - (g >> (_U64(64) - shift)) - (new > lo), new


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, e) with x = f * 10**e the shortest round-trip decimal of each
    finite, non-zero |x|, closest to x and ties to even."""
    k_table, shift_table, implicit_table, g1_table, g0_table = _exponent_table()
    bits = x.view(_U64)
    t = bits & _U64(_C_MIN - 1)
    bq = (bits >> _U64(52)) & _U64(0x7FF)
    irregular = (t == 0) & (bq > 1)
    index = (bq | (irregular.astype(_U64) << _U64(11))).astype(np.intp)
    c = t | implicit_table[index]
    shift = shift_table[index]
    g1, g0 = g1_table[index], g0_table[index]
    # rop of 4c, 4c - 2 (4c - 1 at a power of two) and 4c + 2, each shifted
    # left by h; the bounds' products are the centre's plus a multiple of g.
    y1, y0 = _product(g1, c << shift)
    x1, x0 = _product(g0, c << shift)
    vb = _rop(y1, y0, x1)
    up = shift - _U64(1)
    down = up - irregular
    vbr = _rop(*_shifted(y1, y0, g1, up, 1), _shifted(x1, x0, g0, up, 1)[0])
    vbl = _rop(*_shifted(y1, y0, g1, down, -1), _shifted(x1, x0, g0, down, -1)[0])
    # An even significand keeps the interval's ends.
    out = c & _U64(1)
    vbl += out
    vbr -= out

    s = vb >> _U64(2)
    # One digit shorter: exactly one of s' = 10 floor(s/10) and s' + 10 in range.
    sp10 = s // _U64(10) * _U64(10)
    upin = vbl <= sp10 << _U64(2)
    shorter = upin != ((sp10 + _U64(10)) << _U64(2) <= vbr)
    # Else of s and s + 1 the one in range, or if both, the closer (ties even).
    uin = vbl <= s << _U64(2)
    win = (s + _U64(1)) << _U64(2) <= vbr
    closer = (vb & _U64(3)) + (s & _U64(1)) < 3
    f = np.where(shorter, sp10 + _U64(10) * ~upin,
                 s + ~np.where(uin != win, uin, closer))
    return f, k_table[index]


# Every value is a subsequence of one 48-byte source row,
#   - 0 . 0 0 0 A0 .. A16 . B0 .. B16 e S X X X , pad
# where A and B both hold the 17 digits (the decimal padded with zeros on
# the right), S the exponent's sign and XXX its digits.  A value's bytes are
# its row compressed by the boolean mask of its layout; having the digits
# twice keeps every layout to a few runs of the row, which numpy's boolean
# indexing copies run by run.
_ROW = np.dtype({"names": ["a0", "a", "b0", "b", "exp", "sep"],
                 "formats": ["u1", ("<u4", 4), "u1", ("<u4", 4), "<u4", "u1"],
                 "offsets": [6, 7, 24, 25, 42, 46], "itemsize": 48})
_A, _POINT, _B, _E, _SEP = 6, 23, 24, 41, 46
_BASE_ROW = np.frombuffer(b"-0.000" + b"0" * 17 + b"." + b"0" * 17 + b"e+000,\0",
                          dtype=np.uint8)
# Layout modes: decpt + 3 for fixed notation (decpt in -3..16), then two-
# and three-digit exponents; n = 0 digits marks nan (mode 0) and inf (mode 1).
_EXP2, _EXP3 = 20, 21
_MODES = 22


def _digit_strings(width: int) -> np.ndarray:
    """Row i: the ASCII digits of i, zero-padded to ``width``, for i < 10**width."""
    return (np.indices((10,) * width).reshape(width, -1).T + 48).astype(np.uint8, order="C")


@functools.cache
def _layout_tables() -> tuple[np.ndarray, ...]:
    """The source-row mask of each layout key, (sign * 18 + digit count) *
    22 + mode; the four ASCII digits of each number below 10**4 and how many
    of them remain once trailing zeros are dropped; the four bytes ``SXXX``
    of each exponent in [-999, 999]."""
    neg, n, mode = (v[:, None] for v in np.unravel_index(
        np.arange(2 * (_DIGITS + 1) * _MODES), (2, _DIGITS + 1, _MODES)))
    i = np.arange(_DIGITS)
    special = n == 0
    exp = (mode >= _EXP2) & ~special
    decpt = mode - 3
    small = ~exp & ~special & (decpt <= 0)   # 0.000ddd
    large = ~exp & ~special & (decpt > 0)    # digits from A up to the point, then from B
    masks = np.zeros((neg.size, _ROW.itemsize), dtype=bool)
    masks[:, :1] = neg
    masks[:, 1:3] = small
    masks[:, 3:_A] = small & (np.arange(3, _A) >= _A + decpt)
    masks[:, _A:_A + _DIGITS] = ((special & (i < 3)) | (exp & (i == 0))
                                 | (small & (i < n)) | (large & (i < decpt)))
    masks[:, _POINT:_POINT + 1] = (exp & (n > 1)) | large
    masks[:, _B:_B + _DIGITS] = ((exp & (i > 0) & (i < n))
                                 | (large & (i >= decpt) & (i < np.maximum(n, decpt + 1))))
    masks[:, _E:_E + 2] = exp
    masks[:, _E + 2:_E + 3] = exp & (mode == _EXP3)
    masks[:, _E + 3:_SEP] = exp
    masks[:, _SEP] = True
    quads = _digit_strings(4)
    kept = 4 - sum(np.arange(10 ** 4) % 10 ** j == 0 for j in range(1, 5))
    exps = np.arange(-999, 1000)
    signs = np.where(exps < 0, ord("-"), ord("+")).astype(np.uint8)[:, None]
    exps = np.hstack([signs, _digit_strings(3)[np.abs(exps)]]).view("<u4").ravel()
    return masks, quads.view("<u4").ravel(), kept, exps


def format_rows(rows: np.ndarray) -> bytes:
    """``repr`` of every value of a float64 matrix, comma-separated, one
    line per row, each line ending in a newline."""
    rows = np.asarray(rows, dtype=np.float64)
    x = np.ascontiguousarray(rows).ravel()
    if x.size == 0:
        return b"\n" * rows.shape[0]
    masks, quads, kept, exps = _layout_tables()
    nan, inf, zero = np.isnan(x), np.isinf(x), x == 0
    f, e = _shortest(np.where(nan | inf | zero, 1.0, x))
    length = np.searchsorted(_POW10, f, side="right")
    big = f * _POW10[_DIGITS - length]  # 10**16 <= big < 10**17
    decpt = e + length

    raw = np.empty((x.size, _ROW.itemsize), dtype=np.uint8)
    raw[:] = _BASE_ROW
    src = raw.view(_ROW)[:, 0]
    src["a0"] = src["b0"] = big // _POW10[16] + _U64(48)
    n = np.ones(x.size, dtype=np.int64)  # digits left once trailing zeros go
    for j in range(4):
        group = big // _POW10[12 - 4 * j] % _U64(10 ** 4)
        src["a"][:, j] = src["b"][:, j] = quads[group]
        n = np.where(group != 0, 1 + 4 * j + kept[group], n)
    src["exp"] = exps[decpt + 998]
    src["sep"][rows.shape[1] - 1::rows.shape[1]] = ord("\n")
    raw[zero, _A] = ord("0")
    raw[nan, _A:_A + 3] = np.frombuffer(b"nan", dtype=np.uint8)
    raw[inf, _A:_A + 3] = np.frombuffer(b"inf", dtype=np.uint8)

    special = nan | inf
    mode = np.where((decpt > -4) & (decpt <= 16), decpt + 3,
                    np.where(np.abs(decpt - 1) < 100, _EXP2, _EXP3))
    mode = np.where(special, inf, mode)
    n = np.where(special, 0, n)
    key = ((np.signbit(x) & ~nan) * (_DIGITS + 1) + n) * _MODES + mode
    return raw.ravel()[np.take(masks, key, axis=0).ravel()].tobytes()
