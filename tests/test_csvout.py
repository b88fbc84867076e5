"""``csvout.format_rows`` against ``repr``, byte for byte."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from noppa import csvout


def reference(rows) -> bytes:
    return "".join(",".join(map(repr, row)) + "\n"
                   for row in np.asarray(rows, dtype=np.float64).tolist()).encode()


def assert_same(values, width=64):
    """Format ``values`` as rows of ``width`` (the last one shorter) and
    compare with ``repr``, naming the first value that differs."""
    values = np.asarray(values, dtype=np.float64).ravel()
    for start in range(0, values.size, 64 * width):
        chunk = values[start:start + 64 * width]
        full = chunk.size // width * width
        for rows in (chunk[:full].reshape(-1, width), chunk[full:][None]):
            if rows.size == 0:
                continue
            got = csvout.format_rows(rows)
            if got != reference(rows):
                for value, text in zip(rows.ravel().tolist(),
                                       got.replace(b"\n", b",").split(b",")):
                    assert text.decode() == repr(value), value.hex()
                assert got == reference(rows)


def test_random_bit_patterns_of_every_exponent():
    """512 random significands and signs for each of the 2048 exponents,
    inf and nan patterns included: 1,048,576 values."""
    rng = np.random.default_rng(20201)
    significand = rng.integers(0, 1 << 52, size=(2048, 512), dtype=np.uint64)
    sign = rng.integers(0, 2, size=(2048, 512), dtype=np.uint64) << np.uint64(63)
    exponent = np.arange(2048, dtype=np.uint64)[:, None] << np.uint64(52)
    assert_same((sign | exponent | significand).view(np.float64))


def test_powers_of_two_and_ten_and_their_neighbours():
    powers = [2.0 ** i for i in range(-1074, 1024)]
    powers += [float(f"1e{i}") for i in range(-323, 309)]
    powers = np.array(powers)
    near = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    assert_same(np.concatenate([near, -near]))


def test_layout_boundaries():
    values = [2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2, 9999999999999998.0,
              1e16, 9999999999999999e0, 1234567890123456.0, 12345678901234567.0,
              1e-4, 1e-5, 0.0001234, 0.00001234, 9.999999999999999e-05,
              0.5, 0.1, 1 / 3, 2 / 3, 100.0, 1e22, 1e23, 5e-324, 1e-323,
              1e100, 1e-100, 1.5e300, 1e-99]
    rng = np.random.default_rng(3)
    mantissas = rng.uniform(1, 10, 50)
    scaled = [m * 10.0 ** e for e in range(-8, 20) for m in mantissas]
    assert_same(np.array(values + [-v for v in values] + scaled))


def test_extremes_zeros_subnormals_and_non_finite():
    tiny = np.arange(1, 2000, dtype=np.uint64).view(np.float64)  # least subnormals
    top = ((np.uint64(1) << np.uint64(52)) - np.arange(1, 2000, dtype=np.uint64)).view(np.float64)
    rng = np.random.default_rng(4)
    subnormal = rng.integers(1, 1 << 52, size=4000, dtype=np.uint64).view(np.float64)
    nans = (np.uint64(0x7FF0000000000001)
            + rng.integers(0, 1 << 51, size=20, dtype=np.uint64)).view(np.float64)
    special = [np.finfo(float).tiny, np.finfo(float).max, np.finfo(float).eps,
               0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]
    values = np.concatenate([special, tiny, top, subnormal, nans])
    assert_same(np.concatenate([values, -values]))


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=9),
                  elements=st.floats(allow_nan=True, allow_infinity=True)))
def test_hypothesis_rows(rows):
    assert csvout.format_rows(rows) == reference(rows)


def test_one_line_per_row_and_shapes():
    rows = np.array([[np.nan] * 3, [1.0, -0.0, 2.5e-7]])
    assert csvout.format_rows(rows) == b"nan,nan,nan\n1.0,-0.0,2.5e-07\n"
    assert csvout.format_rows(np.zeros((0, 4))) == b""
    assert csvout.format_rows(np.zeros((2, 0))) == b"\n\n"
    assert csvout.format_rows(np.float32([[0.1]])) == reference([[np.float32(0.1)]])


def test_g_table_bounds_ten_to_the_minus_k():
    """(g - 1) 2**r <= 10**-k < g 2**r with 2**125 <= g < 2**126, exactly."""
    for k in range(csvout._K_MIN, csvout._K_MAX + 1):
        g = csvout._g(k)
        r = csvout._flog2pow10(-k) - 125
        assert 1 << 125 <= g < 1 << 126
        num, den = (10 ** -k, 1) if k <= 0 else (1, 10 ** k)  # 10**-k = num / den
        scale_num, scale_den = (1 << r, 1) if r >= 0 else (1, 1 << -r)  # 2**r
        assert (g - 1) * scale_num * den <= num * scale_den < g * scale_num * den
