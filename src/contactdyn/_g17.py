"""The bytes of '%.17g' for a block of float64 values, formatted in numpy.

`integrate.write_csv` writes every number as '%.17g'.  CPython's dtoa takes
its bignum path for 17 significant digits, at about half a microsecond a
value, so `format_rows` turns a whole block of rows into CSV text with
integer arithmetic in numpy instead: fixed-precision float-to-decimal
conversion, the idea behind Ryu printf (Adams, "Ryu revisited: printf
floating point conversion", OOPSLA 2019).  Its bytes are those of '%.17g'
value by value.

The fast path takes zero and every normal |x| but those whose 17-digit
decimal exponent X is 15 or 16 (they print 16 or 17 integer digits).  X
comes from a table of the smallest double >= 10**k, looked up by the
biased exponent eb; then |x| * 10**(16 - X) lies in [10**16, 10**17), and
its rounding D to an integer is the 17 digits.  With |x| = M * 2**(eb -
1075) (M the 53-bit significand) and 10**(16 - X) ~ F * 2**g (F its
leading 96 bits, rounded down), M * F is a 149-bit product of 32-bit
limbs, and D its bits from K = 1075 - eb - g in [91, 96] up, rounded by
the bit below.  F is exact for -25 <= X <= 16, where an exact tie rounds
to even.  Elsewhere F * 2**g is short of 10**(16 - X) by less than 2**g,
so M * F is short by less than M < 2**53, and no tie can occur: a value
whose bits from 64 to K - 2 are all ones and whose round bit is 0 (about
one in 2**26) may round either way and leaves the fast path.  A D that rounds up to 10**17 (the double
nearest 1e-14 is below it and prints as 1e-14) becomes 10**16 with X + 1.

Every other value (subnormals, nan, +-inf, 1e15 <= |x| < 1e17 and the
undecided ones) is formatted with '%': one '%' of a '%-24.17g' template
per block gives all of that block's, padded to 24 bytes, and each text is
copied into its row.  A block none of whose values can take the fast path
skips the integer arithmetic: one '%' of the row template gives it all.

Each value's text is one contiguous range of a row of ROW_BYTES bytes, ten
4-byte words gathered from one table: the integer part as 16 digits (|x| <
1e15 leaves the first a '0', where a sign goes), '.' with 3 fraction
digits, 16 more and the 20th.  The range runs from the sign or first
integer digit to the last nonzero fraction digit (without the '.' when
there is none); 'e-XX' follows for X < -4 and 'e+XX' for X > 16 (three
digits from 100 up), and the separator.  One boolean compress keeps those
ranges, in row order.

`integrate.write_csv` imports this module on first use, so importing the
package neither compiles it nor builds its tables.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["format_rows", "tables"]

# numpy 1.x turns uint64 mixed with a Python int into float64: every uint64
# operation below takes np.uint64 scalars or uint64 arrays
_U32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_S52 = np.uint64(52)
_ONE = np.uint64(1)
_HALF = np.uint64(1 << 31)
_ABS = np.uint64((1 << 63) - 1)
_FRACTION = np.uint64((1 << 52) - 1)
_HIDDEN = np.uint64(1 << 52)

ROW_BYTES = 40
_DOT3 = 10_000  # table words '.000' ... '.999'
_LAST = 11_000  # table words '0   ' ... '9   '
X_MIN, X_MAX = -308, 308  # the decimal exponents of the normal doubles


@dataclass(frozen=True)
class Tables:
    """The lookup tables of `format_rows`."""

    # per eb: X of the binade's least value; X_MIN for eb 0 and X_MAX for eb
    # 2047, whose shift - eb is then in [27, 32] too
    est: np.ndarray
    above: np.ndarray  # per eb: bits of the smallest double >= 10**(est + 1), or all ones
    # per X - X_MIN: the 32-bit limbs of F, low first, with 10**(16 - X) ~ F * 2**g ...
    f0: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    shift: np.ndarray  # ... 1011 - g, so that K - 64 = shift - eb ...
    exact: np.ndarray  # ... and whether F * 2**g is 10**(16 - X)
    pow10: np.ndarray  # 10**k, k = 0..18
    # uint32 words of 4 ASCII bytes: '0000'..'9999', '.000'..'.999', '0   '..'9   '
    words: np.ndarray
    # 100 + the digits of word w up to its last nonzero one, or 0 when w has none
    kept: np.ndarray
    masks: np.ndarray  # masks[start * (ROW_BYTES + 1) + stop]: bytes [start, stop) of a row
    suffix: np.ndarray  # per X - X_MIN: the bytes of the exponent, 'e-XX' or 'e+XXX', ...
    suffix_len: np.ndarray  # ... and their number


@functools.cache
def tables() -> Tables:
    """Build the tables from Python ints and small numpy arrays, once per process."""
    smallest = []  # the smallest double >= 10**k, k = X_MIN..X_MAX + 1
    for k in range(X_MIN, X_MAX + 1):
        # int / int rounds correctly; the exact ratio tells which side of 10**k it fell
        c = float(10 ** k) if k >= 0 else 1 / 10 ** -k
        num, den = c.as_integer_ratio()
        if num * 10 ** max(-k, 0) < 10 ** max(k, 0) * den:
            c = math.nextafter(c, math.inf)
        smallest.append(c)
    smallest = np.array(smallest + [math.inf])
    est = np.array([X_MIN] * 2047 + [X_MAX], np.int64)
    above = np.full(2048, ~np.uint64(0))
    eb = np.arange(1, 2047)
    i = np.searchsorted(smallest, np.ldexp(1.0, eb - 1023), side="right") - 1
    est[eb] = i + X_MIN
    above[eb] = smallest.view(np.uint64)[i + 1]

    limbs, shift, exact = [], [], []
    for X in range(X_MIN, X_MAX + 1):
        s = 16 - X
        if s >= 0:
            v = 10 ** s
            g = v.bit_length() - 96
            F = v >> g if g >= 0 else v << -g
            exact.append(F << g == v if g >= 0 else True)
        else:
            d = 10 ** -s
            g = -95 - d.bit_length()
            F = (1 << -g) // d
            exact.append(False)
        limbs.append([F & 0xFFFFFFFF, F >> 32 & 0xFFFFFFFF, F >> 64])
        shift.append(1011 - g)
    limbs = np.array(limbs, np.uint64)

    d = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + np.uint8(ord("0"))
    glyphs = np.concatenate([
        d,
        np.column_stack([np.full(1000, ord("."), np.uint8), d[:1000, 1:]]),
        np.column_stack([d[:10, 3], np.full((10, 3), ord(" "), np.uint8)]),
    ])
    # digits through the last nonzero one; in '.ddd' the first byte is no digit
    nonzero = glyphs > ord("0")
    ends = (nonzero * np.arange(1, 5, dtype=np.uint8)).max(1)
    ends[_DOT3:_LAST] = (nonzero[_DOT3:_LAST] * np.arange(4, dtype=np.uint8)).max(1)

    cols = np.arange(ROW_BYTES)
    masks = ((cols >= np.arange(17)[:, None, None])
             & (cols < np.arange(ROW_BYTES + 1)[None, :, None])).reshape(-1, ROW_BYTES)
    suffixes = [b"e%+03d" % X for X in range(X_MIN, X_MAX + 1)]
    return Tables(
        est=est,
        above=above,
        f0=limbs[:, 0].copy(),
        f1=limbs[:, 1].copy(),
        f2=limbs[:, 2].copy(),
        shift=np.array(shift, np.int64),
        exact=np.array(exact),
        pow10=np.array([10 ** k for k in range(19)], np.int64),
        words=glyphs.view(np.uint32).ravel(),
        kept=np.where(ends > 0, 100 + ends, 0).astype(np.int8),
        masks=masks,
        suffix=np.frombuffer(b"".join(e.ljust(5) for e in suffixes), np.uint8).reshape(-1, 5),
        suffix_len=np.array([len(e) for e in suffixes], np.int64),
    )


def _exponents(x: np.ndarray, t: Tables):
    """(bits, eb, X): |x|'s bits, its biased binary exponent and its decimal exponent before rounding."""
    bits = x.view(np.uint64) & _ABS
    eb = (bits >> _S52).view(np.int64)
    return bits, eb, t.est.take(eb) + (bits >= t.above.take(eb))


def _may_be_fast(bits, eb, X) -> np.ndarray:
    """Zero and the normal values whose unrounded X leaves 15 and 16 out: all that `_decimal` may take."""
    return ((eb > 0) & (eb < 2047) & ((X < 15) | (X > 16))) | (bits == 0)


def _decimal(x: np.ndarray, t: Tables, exponents=None):
    """(D, X, fast): x's 17 significant digits as an integer and its decimal exponent.

    Where `fast` is False, D and X are 0, which keeps the digit arithmetic
    in range; so they are for zeros, which `fast` takes.  `exponents` are
    x's `_exponents`, when the caller has them.
    """
    bits, eb, X = _exponents(x, t) if exponents is None else exponents
    i = X - X_MIN
    # P = M * F in 32-bit limbs: l0, l1, l2, then hi = P >> 96
    M = (bits & _FRACTION) | _HIDDEN
    m0, m1 = M & _U32, M >> _S32
    f0, f1, f2 = t.f0.take(i), t.f1.take(i), t.f2.take(i)
    a = m0 * f0
    l0 = a & _U32
    c = a >> _S32
    a, b = m0 * f1, m1 * f0
    c += (a & _U32) + (b & _U32)
    l1 = c & _U32
    c = (c >> _S32) + (a >> _S32) + (b >> _S32)
    a, b = m0 * f2, m1 * f1
    c += (a & _U32) + (b & _U32)
    l2 = c & _U32
    hi = (c >> _S32) + (a >> _S32) + (b >> _S32) + m1 * f2
    # D = P >> K with K - 64 = sh in [27, 32]; `below` holds l2's bits under
    # K at its top, the round bit first
    sh = (t.shift.take(i) - eb).view(np.uint64)
    D = (hi << (_S32 - sh)) + (l2 >> sh)
    below = (l2 << (_S32 - sh)) & _U32
    up = below >= _HALF
    exact = t.exact.take(i)
    tie = exact & (below == _HALF) & (l1 == 0) & (l0 == 0)
    D = ((D + up) & ~tie.view(np.uint8).astype(np.uint64)).view(np.int64)
    # a value just below 10**(X + 1) may round up to it
    rolled = D == 10 ** 17
    D[rolled] = 10 ** 16
    X = X + rolled
    # short of 10**(16 - X): round bit 0 and every bit under it 1 is undecided
    undecided = ~exact & (below + (_ONE << (_S32 - sh)) == _HALF)
    fast = _may_be_fast(bits, eb, X) & (bits != 0) & ~undecided
    return np.where(fast, D, 0), np.where(fast, X, 0), fast | (bits == 0)


def _row_words(D: np.ndarray, Xf: np.ndarray, t: Tables) -> np.ndarray:
    """The table index of each row word, one row of indices per word: D's
    digits with the point after 1 + max(Xf, 0) of them."""
    # J: the integer part and 3 fraction digits; F17: the other 17 fraction digits
    T = 10 * D
    P = t.pow10.take(14 - Xf)
    J = T // P
    F17 = ((T - J * P) * t.pow10.take(4 + Xf)) // 10
    I = J // 1000
    F16 = F17 // 10
    words = np.empty((10, len(D)), np.intp)
    words[4] = J - I * 1000 + _DOT3
    words[9] = F17 - F16 * 10 + _LAST
    for v, c in ((I, 0), (F16, 5)):
        high = v // 10 ** 8
        low = v - high * 10 ** 8
        q = high // 10 ** 4
        words[c], words[c + 1] = q, high - q * 10 ** 4
        q = low // 10 ** 4
        words[c + 2], words[c + 3] = q, low - q * 10 ** 4
    return words


def format_rows(block: np.ndarray) -> bytes:
    """`block`'s rows as CSV text: every value as '%.17g', ',' between and '\\n' after each row."""
    t = tables()
    block = np.asarray(block, np.float64)  # '%.17g' formats other numbers as doubles too
    n_rows, n_cols = block.shape
    x = block.ravel()
    exponents = _exponents(x, t)
    if not _may_be_fast(*exponents).any():
        # every value is inf, nan, subnormal or 1e15 <= |x| < 1e17 (a run
        # that diverged, say): one '%' of the row template gives the block
        template = ",".join(["%.17g"] * n_cols) + "\n"
        return (template * n_rows % tuple(x.tolist())).encode()
    D, X, fast = _decimal(x, t, exponents)
    # %g: 16 - X fraction digits when -4 <= X < 17, else one integer digit,
    # 16 and the exponent
    expo = (X < -4) | (X > 16)
    Xf = np.where(expo, 0, X)
    words = _row_words(D, Xf, t)
    rows = t.words.take(words.T).view(np.uint8)
    # 100 + the fraction's digits up to its last nonzero one, or less than
    # 100 when all are 0: row words 4, ..., 9 follow 0, 3, 7, 11, 15 and 19
    # fraction digits
    kept = t.kept.take(words[4])
    for c, before in zip(range(5, 10), (3, 7, 11, 15, 19)):
        np.maximum(kept, t.kept.take(words[c]) + before, out=kept)
    del words  # freed before the layout's arrays are made

    flat = rows.reshape(-1)
    base = np.arange(0, flat.size, ROW_BYTES)
    lead = np.maximum(Xf, 0)  # integer digits - 1
    flat[base + 14 - lead] = ord("-")
    start = 15 - lead - np.signbit(x)
    end = np.where(kept >= 100, kept - (100 - 17), 16)
    (e,) = np.nonzero(expo)
    if e.size:
        k = X[e] - X_MIN
        flat[(base[e] + end[e])[:, None] + np.arange(5)] = t.suffix[k]
        end[e] += t.suffix_len[k]
    (slow,) = np.nonzero(~fast)
    if slow.size:
        # one '%' formats them all, each left-justified in 24 bytes, the
        # longest text of '%.17g' ('-1.7976931348623157e+308'), and laid
        # into its row from byte 0
        text = b"%-24.17g" * slow.size % tuple(x[slow].tolist())
        text = np.frombuffer(text, np.uint8).reshape(-1, 24)
        rows[slow, :24] = text
        start[slow], end[slow] = 0, (text != ord(" ")).sum(1)
    seps = np.full(n_cols, ord(","), np.uint8)
    seps[-1] = ord("\n")
    flat[base + end] = np.tile(seps, n_rows)
    return rows[t.masks.take(start * (ROW_BYTES + 1) + end + 1, axis=0)].tobytes()
