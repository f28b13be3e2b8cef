"""Float64 arrays spelled as ``float.__repr__`` spells each value, as byte rows.

``reprs(values)`` returns a uint8 matrix with one row per value: the ASCII
bytes of ``float.__repr__(value)``, then PAD bytes (0xFF, which UTF-8 text
never holds) to the matrix's width, the length of its longest spelling.
With ``for_json`` the non-finite values read ``NaN``, ``Infinity`` and
``-Infinity``, as ``json.dumps`` writes them. ``ints(values)`` does the same
for non-negative integers and ``str``.

The digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020), in numpy uint64 arithmetic, a chunk of values at a time.
For v = c 2^q it takes k with 10^k <= 2^q (3/4 2^q where the spacing below
v is half the one above), scales v and the ends of its rounding interval
by 10^-k with three round-to-odd products, and keeps the decimal of fewest
digits inside the interval: 10 floor(s/10) or the next multiple of ten,
when exactly one of them is inside, else s or s + 1, the nearer to v, ties
to even. That is the shortest decimal that reads back as v, and the nearest
to v among those, which is what CPython's repr writes. Unlike the
published Java code, it has no two-digit minimum and no x10 step for
subnormals: repr(5e-324) is one digit. The spelling follows CPython's:
fixed notation when the decimal point falls at -4 < decpt <= 16, with
``.0`` on integers, else ``d[.ddd]e±XX``.

Only the profile renderers import this module, so commands that write no
per-bin profile never build its tables.
"""
from __future__ import annotations

import numpy as np

__all__ = ["PAD", "reprs", "ints"]

PAD = 0xFF  # fills each row after its spelling
_CHUNK = 8192  # values per pass: each step's arrays stay a few hundred KB
_WIDTH = 24  # len("-1.7976931348623157e+308"), the longest spelling
_DIGITS = 18  # a shortest decimal has at most 17 digits, or 18 as 10^17
_K_MIN, _K_MAX = -324, 292  # floor(log10(2^q)) over q = -1074 .. 971
_M32 = np.uint64(2**32 - 1)
_M63 = np.uint64(2**63 - 1)


def _g_table() -> tuple[np.ndarray, np.ndarray]:
    """g = floor(beta) + 1 in 63-bit halves (g1, g0), where 10^-k = beta 2^r
    and 2^125 <= beta < 2^126, indexed by k - _K_MIN. An overestimate, so
    each product below lies above the exact scaled value."""
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 0:
            p = 10**-k
            r = p.bit_length() - 126
            beta = p >> r if r >= 0 else p << -r
        else:  # 10^-k = 1/p: 2^(bit_length(p) + 125) / p lies in (2^125, 2^126)
            p = 10**k
            beta = (1 << (p.bit_length() + 125)) // p
        g1.append((beta + 1) >> 63)
        g0.append((beta + 1) & (2**63 - 1))
    return np.array(g1, dtype=np.uint64), np.array(g0, dtype=np.uint64)


_G1, _G0 = _g_table()
_POW10 = 10 ** np.arange(_DIGITS + 1, dtype=np.uint64)

# A spelling is built as 24 bytes in three little-endian words, byte i at
# bits 8 (i % 8) of word i // 8. The arrays of words below are word-major,
# (3, n), so that each step runs over contiguous memory.
_WORD = np.dtype("<u8")
# Each of 0 .. 99 and of 0 .. 9999 as its two or four ASCII digits, in a
# word's low bytes; the trailing zeros of each of 0 .. 9999 (4 for 0).
_PAIRS = np.array([int.from_bytes(b"%02d" % j, "little") for j in range(100)], dtype=_WORD)
_QUADS = np.array([int.from_bytes(b"%04d" % j, "little") for j in range(10_000)], dtype=_WORD)
_ZEROS = np.array([4] + [len(str(j)) - len(str(j).rstrip("0")) for j in range(1, 10_000)], dtype=np.intp)


def _byte_table(where, byte) -> np.ndarray:
    """For each index i = 0 .. _WIDTH + 1, 24 bytes: *byte* at each column j
    where ``where(j, i)`` holds, else 0; as (_WIDTH + 2, 3) words."""
    columns, index = np.arange(_WIDTH), np.arange(_WIDTH + 2)[:, None]
    return (where(columns, index) * np.uint8(byte)).astype(np.uint8).view(_WORD)


_BELOW = _byte_table(np.less, 0xFF).T.copy()  # index i: 0xFF in the bytes before byte i
_ABOVE = _byte_table(np.greater, 0xFF).T.copy()  # index i: 0xFF in the bytes after byte i
_POINT = _byte_table(np.equal, ord(".")).T.copy()  # index i: '.' at byte i
_NAUGHTS = _byte_table(np.less, ord("0")).T.copy()  # index i: '0' in the bytes before byte i
_PADS = _byte_table(np.greater_equal, PAD)  # row i: PAD from byte i on


def _mulhi(ah, al, bh, bl):
    """The high 64 bits of the 128-bit product of a = ah 2^32 + al and b,
    from the 32-bit limbs of each."""
    ll, lh, hl = al * bl, al * bh, ah * bl
    mid = (ll >> 32) + (lh & _M32) + (hl & _M32)
    return ah * bh + (lh >> 32) + (hl >> 32) + (mid >> 32)


def _round_to_odd(g1, g0, cp, shifts):
    """Schubfach's r_o(g cp'), floor(g cp' / 2^127) with its last bit set
    when a dropped bit was, as Giulietti's ``rop`` computes it, where
    g = g1 2^63 + g0, for cp' = cp, cp + 2^shifts[0] and cp - 2^shifts[1].

    ``rop`` reads g1 cp' whole and the high word of g0 cp'. Both are
    formed once for cp; for the others a shift of g is added or taken, with
    its carry, in place of two more products.
    """
    ch, cl = cp >> 32, cp & _M32
    y1, y0 = _mulhi(g1 >> 32, g1 & _M32, ch, cl), g1 * cp
    x1, x0 = _mulhi(g0 >> 32, g0 & _M32, ch, cl), g0 * cp
    words = [(y1, y0, x1)]
    for s, sign in zip(shifts, (1, -1)):
        dy1, dy0, dx1, dx0 = g1 >> (64 - s), g1 << s, g0 >> (64 - s), g0 << s
        if sign > 0:
            low, xlow = y0 + dy0, x0 + dx0
            words.append((y1 + dy1 + (low < y0), low, x1 + dx1 + (xlow < x0)))
        else:
            low, xlow = y0 - dy0, x0 - dx0
            words.append((y1 - dy1 - (low > y0), low, x1 - dx1 - (xlow > x0)))
    out = []
    for high, low, x in words:
        z = (low >> 1) + x
        out.append((high + (z >> 63)) | (((z & _M63) + _M63) >> 63))
    return out


def _shortest(bits):
    """The shortest decimal of each float64 *bits*, as (digits, exponent):
    a finite non-zero v reads back from digits 10^exponent. Zeros, NaN and
    the infinities, which _spell writes apart, get some decimal in range."""
    t = bits & np.uint64(2**52 - 1)
    be = (bits >> 52) & np.uint64(0x7FF)  # 0 for subnormals, which have the exponent of be = 1
    c = np.maximum(t | (be != 0) * np.uint64(2**52), 1)  # a zero takes 5e-324's digits
    q = np.maximum(be, 1).astype(np.int64) - 1075
    irregular = (t == 0) & (be > 1)  # c = 2^52 above the smallest normal: half the spacing below
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(np.uint64)
    # v and the interval's ends, 4c << h and (4c + 2) << h, (4c - 2) << h ((4c - 1) << h where irregular).
    vb, vbr, vbl = _round_to_odd(np.take(_G1, k - _K_MIN), np.take(_G0, k - _K_MIN), c << (h + np.uint64(2)),
                                 (h + np.uint64(1), h + np.uint64(1) - irregular))
    odd = c & np.uint64(1)  # an odd c excludes the interval's ends
    low, high = vbl + odd, vbr - odd

    s = vb >> np.uint64(2)
    # One digit fewer: exactly one of 10 floor(s/10) and the next multiple of ten in the interval.
    tens = s // np.uint64(10)
    upin = low <= tens * np.uint64(40)
    wpin = tens * np.uint64(40) + np.uint64(40) <= high
    # Else s or s + 1: the one inside, or if both are, the nearer, ties to even s.
    s4, above = vb & ~np.uint64(3), vb & np.uint64(3)  # 4s, and 4v - 4s rounded to odd
    take_s = (low <= s4) & ((s4 + np.uint64(4) > high) | (above < 2) | ((above == 2) & (s & np.uint64(1) == 0)))
    shorter = (s >= 10) & (upin != wpin)
    return np.where(shorter, (tens + ~upin) * np.uint64(10), s + ~take_s), k


def _digit_words(values):
    """Each uint64 value below 10^18 as (3, n) words holding its ASCII digits
    from byte 0 on, then '0' bytes; its number of digits; and its number of
    significant digits, those up to its last non-zero one (-2 for 0)."""
    count = np.searchsorted(_POW10, values, side="right")
    left = values * np.take(_POW10, _DIGITS - count)
    # Five groups of digits: the first two, then four groups of four.
    groups = np.empty((5, left.size), dtype=np.uint64)
    high = left // np.uint64(10**8)
    groups[4] = left - high * np.uint64(10**8)  # the last eight digits, split below
    groups[0] = high // np.uint64(10**8)
    groups[2] = high - groups[0] * np.uint64(10**8)
    groups[1] = groups[2] // np.uint64(10**4)
    groups[2] -= groups[1] * np.uint64(10**4)
    groups[3] = groups[4] // np.uint64(10**4)
    groups[4] -= groups[3] * np.uint64(10**4)
    groups = groups.astype(np.intp)
    zeros = np.take(_ZEROS, groups)
    tail = zeros[4]  # the trailing zeros of the 18 digits and two leading zeros, from the right
    for j in range(3, -1, -1):
        tail += (tail == 16 - 4 * j) * zeros[j]
    quads = np.take(_QUADS, groups[1:])
    words = np.empty((3, left.size), dtype=_WORD)
    words[0] = np.take(_PAIRS, groups[0]) | quads[0] << 16 | quads[1] << 48
    words[1] = quads[1] >> 16 | quads[2] << 16 | quads[3] << 48
    words[2] = quads[3] >> 16 | np.uint64(0x3030_3030_3030_0000)
    return words, count, _DIGITS - tail


def _shifted(words, count):
    """(3, n) words, each column's bytes moved on by *count* (< 8) bytes."""
    bits = np.uint64(8) * count
    out = words << bits
    out[1:] |= words[:-1] >> (np.uint64(64) - bits)
    return out


def _matrix(values: np.ndarray, spell) -> np.ndarray:
    """The byte rows of *values*, ``spell(chunk, rows)`` writing each chunk's
    rows and returning its longest length, cut to the longest of all."""
    out = np.empty((values.size, _WIDTH), dtype=np.uint8)
    width = 0
    for a in range(0, values.size, _CHUNK):
        width = max(width, spell(values[a : a + _CHUNK], out[a : a + _CHUNK]))
    return np.ascontiguousarray(out[:, :width])


def ints(values) -> np.ndarray:
    """The ``str`` of each non-negative integer below 10^18, one PAD-padded byte row each."""
    return _matrix(np.asarray(values, dtype=np.uint64).reshape(-1), _spell_ints)


_SPECIAL = {False: (b"nan", b"inf", b"-inf"), True: (b"NaN", b"Infinity", b"-Infinity")}


def reprs(values, for_json: bool = False) -> np.ndarray:
    """``float.__repr__`` of each value, one PAD-padded byte row each; with
    *for_json*, NaN and the infinities as ``json.dumps`` spells them."""
    special = _SPECIAL[for_json]
    return _matrix(np.ascontiguousarray(values, dtype=np.float64).reshape(-1), lambda x, out: _spell(x, out, special))


def _spell_ints(values, out) -> int:
    """Write the digits of each of *values* into its row of *out*; return the most digits."""
    words, count, _ = _digit_words(values)
    count = np.maximum(count, 1)  # "0"
    out.view(_WORD)[:] = words.T | np.take(_PADS, count, axis=0)
    return int(count.max(initial=0))


def _spell(x, out, special) -> int:
    """Write the spelling of each value of *x* into its row of *out*; return the longest length."""
    bits = x.view(np.uint64)
    neg = bits >> np.uint64(63)
    sign = neg.astype(np.intp)
    decimal, k = _shortest(bits)
    words, count, n = _digit_words(decimal)
    decpt = k + count  # v = 0.d1 d2 .. dn 10^decpt
    expo = (decpt <= -4) | (decpt > 16)
    small = ~expo & (decpt <= 0)  # 0.000ddd
    # The digits go from byte `shift` on, after a '-' and the zeros of 0.000; then a '.'
    # goes in at byte `dot`, moving the bytes after it on by one.
    shift = sign + small * (1 - decpt)
    words = _shifted(words, shift.astype(np.uint64)) | np.take(_NAUGHTS, shift, axis=1)
    dot = sign + np.where(expo, 1, np.maximum(decpt, 1))
    words = (words & np.take(_BELOW, dot, axis=1) | _shifted(words, np.uint64(1)) & np.take(_ABOVE, dot, axis=1)
             | np.take(_POINT, dot, axis=1))
    words[0] ^= neg * np.uint64(ord("0") ^ ord("-"))
    rows = out.view(_WORD)
    rows[:] = words.T
    length = sign + np.where(small, 2 - decpt + n, np.maximum(n + 1, decpt + 2))
    if expo.any():
        e = np.flatnonzero(expo)
        exp10 = decpt[e] - 1
        three = np.abs(exp10) >= 100
        col = sign[e] + n[e] + (n[e] > 1)  # 'e' after d or d.ddd
        out[e, col] = ord("e")
        out[e, col + 1] = np.where(exp10 < 0, ord("-"), ord("+"))
        tail = _QUADS[np.abs(exp10)].view(np.uint8).reshape(-1, 8)  # "0ddd"
        out[e, col + 2] = np.where(three, tail[:, 1], tail[:, 2])
        out[e, col + 3] = np.where(three, tail[:, 2], tail[:, 3])
        out[e[three], col[three] + 4] = tail[three, 3]
        length[e] = col + 4 + three
    rows |= np.take(_PADS, length, axis=0)
    zero = x == 0
    for at, text in ((zero & (sign == 0), b"0.0"), (zero & (sign == 1), b"-0.0"), (np.isnan(x), special[0]),
                     (x == np.inf, special[1]), (x == -np.inf, special[2])):
        if at.any():
            out[at] = np.frombuffer(text.ljust(_WIDTH, bytes([PAD])), dtype=np.uint8)
            length[at] = len(text)
    return int(length.max(initial=0))
