"""The numpy '%.17g' kernel against CPython's '%', byte for byte."""

import math
import struct
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactdyn import _g17


def percent(block: np.ndarray) -> bytes:
    """The reference: every row through a '%.17g' row template."""
    template = ",".join(["%.17g"] * block.shape[1]) + "\n"
    return b"".join((template % tuple(row)).encode() for row in block.tolist())


def from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def smallest_at_least(k: int) -> float:
    """The smallest double >= 10**k."""
    c = float(Fraction(10) ** k)
    return c if Fraction(c) >= Fraction(10) ** k else math.nextafter(c, math.inf)


def exact_ties() -> list:
    """Doubles whose exact decimal has 18 significant digits, the last a 5: ties at 17.

    m / 2**b with m odd has b decimal places, the last a 5, and 18
    significant digits when 10**(17 - b) <= m / 2**b < 10**(18 - b).
    """
    rng = np.random.default_rng(28)
    ties = []
    for b in range(3, 48):
        lo = math.ceil(Fraction(10) ** (17 - b) * 2 ** b)
        hi = min(math.ceil(Fraction(10) ** (18 - b) * 2 ** b), 2 ** 53)
        for m in {lo | 1, (hi - 1) | 1, *(int(u) | 1 for u in rng.uniform(lo, hi, 4))}:
            if m < hi:
                ties.append(m / 2 ** b)
    for x in ties:
        digits = Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, x
    return ties


# the least double of every decade from the subnormals to the largest, and its predecessor
DECADES = [y for k in range(-324, 309) for x in [smallest_at_least(k)]
           for y in (x, math.nextafter(x, 0.0))]
EDGES = [
    1234567890123456.25, 1234567890123456.75,  # ties past the fast path: ...6.2, ...6.8
    123456789012345.625, 123456789012345.875,  # ties on it: ...5.62, ...5.88
    9.9999999999999995e-05, 0.0001, 9.9999999999999995e-12, 1e-11, 999999999999999.9, 1e15,
    1e-14,  # the double nearest 1e-14 is below it and rounds up to it at 17 digits
    -0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308,
    2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2, 0.1, 1 / 3, -2 / 3, 1.0, -1.0, 100.0, 1e14,
    1e16, math.nextafter(1e17, 0.0), 1e17, 1.2345678901234567e100, 1e-100, 1e-99,
]
# M * F leaves these undecided between two roundings; they go through '%'
UNDECIDED = [6.481865267630987e-258, 8.120635542774404e+301]


def test_edge_table_matches_percent():
    ties = exact_ties()
    assert len(ties) > 100
    values = np.array(EDGES + UNDECIDED + DECADES + ties)
    for block in (values[:, None], np.concatenate([values, -values])[:, None]):
        assert _g17.format_rows(block) == percent(block)


@pytest.mark.parametrize("k", range(-11, 16))
def test_decade_predecessors_from_1e_11_to_1e15_keep_17_nines(k):
    # at 17 digits the largest double below 10**k reads 9.99... for these k,
    # while below 1e-11 some round up a decade (1e-14, in the edge table)
    below = math.nextafter(smallest_at_least(k), 0.0)
    assert ("%.16e" % below)[0] == "9"
    assert _g17.format_rows(np.array([[below]])) == percent(np.array([[below]]))


def to_bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


# a few ulps around the least double of a decade, where rounding may cross it
_near_decades = st.builds(lambda k, ulps, sign: sign << 63 | to_bits(smallest_at_least(k)) + ulps,
                          st.integers(-307, 308), st.integers(-3, 3), st.integers(0, 1))
_bit_patterns = st.one_of(
    st.integers(0, 2 ** 64 - 1),
    _near_decades,
    st.sampled_from(EDGES).map(to_bits),
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(1, 4), st.lists(_bit_patterns, min_size=1, max_size=64))
def test_drawn_bit_patterns_match_percent(n_cols, patterns):
    values = np.array([from_bits(b) for b in patterns])
    block = np.resize(values, (-(-len(values) // n_cols), n_cols))
    assert _g17.format_rows(block) == percent(block)


def test_normal_values_across_the_doubles_match_percent():
    # one block of each width, scales from 1e-320 to 1e305 and from 1e-13 to
    # 1e17 in every column
    rng = np.random.default_rng(28)
    for n_cols in (1, 2, 3, 4):
        for low, high in ((-320, 305), (-13, 17)):
            scales = 10.0 ** rng.uniform(low, high, (2048, n_cols))
            block = rng.standard_normal((2048, n_cols)) * scales
            assert _g17.format_rows(block) == percent(block)
    # other dtypes are written as '%' writes their values
    for block in (rng.integers(-2 ** 62, 2 ** 62, (64, 3)), block.astype(np.float32)):
        assert _g17.format_rows(block) == percent(block)


def test_the_tables_keep_the_shift_in_range():
    # every normal binade's least value, the least with X + 1 where the
    # binade holds a power of ten, and eb 0 and 2047 shift l2 by 27..32
    t = _g17.tables()
    eb = np.arange(2048)
    split = t.above < (eb + 1).astype(np.uint64) << np.uint64(52)
    for X, ebs in ((t.est, eb), ((t.est + 1)[split], eb[split])):
        sh = t.shift[X - _g17.X_MIN] - ebs
        assert sh.min() >= 27 and sh.max() <= 32
    # F is 10**(16 - X) exactly where 5**(16 - X) has at most 96 bits
    assert np.flatnonzero(t.exact).tolist() == [X - _g17.X_MIN for X in range(-25, 17)]


def test_undecided_values_leave_the_fast_path():
    x = np.array(UNDECIDED)
    assert not _g17._decimal(x, _g17.tables())[2].any()
    block = np.column_stack([x, -x, [1.5, 0.0]])
    assert _g17.format_rows(block) == percent(block)


def test_zeros_and_normal_values_take_the_fast_path():
    x = np.array([0.0, -0.0, 1e-300, -2.5e300, 1.5, 2.2250738585072014e-308])
    assert _g17._decimal(x, _g17.tables())[2].all()
    x = np.array([5e-324, math.inf, math.nan, 1e15, math.nextafter(1e17, 0.0)])
    assert not _g17._decimal(x, _g17.tables())[2].any()


def test_a_block_with_no_fast_value_is_one_percent(monkeypatch):
    # infinities, nans, subnormals and 1e15 <= |x| < 1e17 (the values of a
    # run that diverged) skip the integer arithmetic: the kernel is not run
    rng = np.random.default_rng(29)
    big = 10.0 ** rng.uniform(15, 17, 64) * rng.choice([-1.0, 1.0], 64)
    blocks = [np.resize(np.array([math.inf, -math.inf, math.nan, 5e-324, -1e-310, 1e15,
                                  math.nextafter(1e17, 0.0), -1e16]), (16, 4)),
              big.reshape(-1, 2), np.full((3, 1), math.nan)]
    monkeypatch.setattr(_g17, "_decimal", None)  # any call of it would raise
    for block in blocks:
        assert _g17.format_rows(block) == percent(block)


def test_one_fast_value_sends_the_block_through_the_kernel():
    block = np.array([[math.inf, 1e16], [math.nan, 0.5]])
    calls = []
    decimal = _g17._decimal
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_g17, "_decimal", lambda *a: calls.append(1) or decimal(*a))
        assert _g17.format_rows(block) == percent(block)
    assert calls == [1]
