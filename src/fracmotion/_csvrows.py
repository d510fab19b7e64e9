"""The endpoint CSV rows of ``fracmotion simulate``, a chunk at a time.

An endpoint row is ``f"{x!r},{y!r},{n},{'true' if n == 0 else 'false'}\\n"``.
:func:`endpoint_rows` writes the bytes of a chunk of such rows with
whole-column operations instead of one string per row.  ``repr`` prints the
shortest decimal that reads back as the double, the nearest one if there are
several; Schubfach (R. Giulietti, "The Schubfach way to render doubles",
2020) finds that decimal in 128-bit integer arithmetic, here on uint64
arrays.  Each row is then laid out in fixed character columns, NUL (0)
wherever the row has no character, and one ``bytes.translate`` per chunk
deletes the NULs.  The table of scaled powers of ten is filled a column at
a time, each the first time a chunk's exponents need it, and the digit
table is built on first use.

The arrays are uint64, int64 and uint8 throughout: numpy turns uint64 mixed
with int64, or with a bool times a Python int, into float64.
"""

from __future__ import annotations

import functools

import numpy as np

_POW10 = np.uint64(10) ** np.arange(20, dtype=np.uint64)
_FLAG_CHARS = np.frombuffer(b"falsetrue\0", dtype=np.uint8).reshape(2, 5)


# The 128-bit scaled powers of ten of Schubfach, g(e) for e in [−292, 326],
# as six uint64 rows: the 32-bit limbs of g from the lowest, then its low and
# high 64-bit words.  Column e + 292 is filled the first time a chunk needs it.
_SCALED_POWERS = np.empty((6, 619), dtype=np.uint64)
_FILLED = np.zeros(619, dtype=bool)


def _scaled_powers(columns: np.ndarray) -> np.ndarray:
    """Columns ``e + 292`` of ``g(e) = ⌊10^e · 2^(127 − ⌊log₂ 10^e⌋)⌋ + 1``,
    filling those not filled yet."""
    filled = _FILLED[columns]
    if not filled.all():
        for col in set(columns[~filled].tolist()):
            p = 10 ** abs(col - 292)
            if col >= 292:
                shift = 127 - (p.bit_length() - 1)
                g = p << shift if shift >= 0 else p >> -shift
            else:  # ⌊log₂ 10^e⌋ = −bit_length(10^−e), as 10^−e is no power of 2
                g = (1 << (127 + p.bit_length())) // p
            g += 1
            _SCALED_POWERS[:, col] = [(g >> b) & 0xFFFFFFFF for b in (0, 32, 64, 96)] + [
                g & (2**64 - 1), g >> 64]
            _FILLED[col] = True
    return np.take(_SCALED_POWERS, columns, axis=1)


@functools.cache
def _digit_table() -> np.ndarray:
    """The four digit characters of each ``g`` in [0, 10⁴), one uint32
    each: entry ``g`` with its trailing zeros NUL, entry ``10⁴ + g`` in
    full."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)  # row j: digit j of g
    # A digit is kept where it or a digit after it is nonzero.
    kept = np.logical_or.accumulate(digits[::-1] != 0)[::-1]
    digits += 48
    return np.concatenate([digits * kept, digits], axis=1).T.copy().view(np.uint32).ravel()


def _mul64(a0, a1, a, b0, b1, b):
    """High and low 64-bit words of ``a * b`` for uint64 ``a`` (32-bit limbs
    ``a0``, ``a1``) and ``b`` (limbs ``b0``, ``b1``)."""
    p00, p01, p10, p11 = a0 * b0, a0 * b1, a1 * b0, a1 * b1
    mid = (p00 >> 32) + (p01 & 0xFFFFFFFF) + (p10 & 0xFFFFFFFF)
    return p11 + (p01 >> 32) + (p10 >> 32) + (mid >> 32), a * b


def _binary_parts(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(c, q, lower_closer)``: ``|v| = c·2^q`` with integer ``c`` (uint64)
    and ``q`` (int64), and whether the lower neighbour of ``v`` is closer
    than the upper one (``c = 2^52`` above the lowest binade)."""
    bits = v.view(np.uint64)
    biased = ((bits >> 52) & 0x7FF).astype(np.int64)
    f = bits & ((1 << 52) - 1)
    normal = biased != 0
    lower_closer = (f == 0) & (biased > 1)
    f |= normal.astype(np.uint64) << 52
    return f, np.where(normal, biased - 1075, -1074), lower_closer


def _interval_end(x0, x1, x2, g_lo, g_hi, shift, sign: int) -> np.ndarray:
    """``(x ± (g << shift)) / 2^128`` rounded to odd, for the 192-bit ``x``
    given by its words from the lowest and ``g`` by its two words: the top
    word, its lowest bit set where the word below is above 1."""
    s0 = g_lo << shift
    s1 = (g_hi << shift) | (g_lo >> (64 - shift))
    s2 = g_hi >> (64 - shift)
    if sign > 0:
        low_carry = (x0 + s0) < x0
        mid = x1 + s1
        top = x2 + s2 + (mid < x1)
        mid += low_carry
        top += mid < low_carry
    else:
        low_borrow = s0 > x0
        mid = x1 - s1
        top = x2 - s2 - (mid > x1)
        top -= mid < low_borrow
        mid -= low_borrow
    return top | (mid > 1)


def _shortest_decimals(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(d, k)``, uint64 and int64, such that ``d · 10^k`` is the decimal
    ``repr`` prints for each finite nonzero ``|v|``: the shortest one in the
    rounding interval of ``v``, the nearest of those, ties to even ``d``.
    ``d`` may end in zeros.  Other values give arbitrary ``(d, k)``.

    Schubfach as Giulietti's paper lays it out: with ``|v| = c·2^q``,
    ``k = ⌊log₁₀ 2^q⌋`` (of ¾·2^q where the lower neighbour is closer), and
    ``vb``, ``vbl`` and ``vbr`` are ``4c·2^q / 10^k`` and the ends of the
    rounding interval on that scale, ``(4c ∓ 2)·2^q / 10^k`` (``4c − 1``
    below where the lower neighbour is closer), each rounded to odd from
    its 192-bit product with ``g(−k)``.  The ends are formed as the centre
    product ∓ ``g << (h + 1)``."""
    c, q, lower_closer = _binary_parts(v)
    # k = ⌊q·log₁₀ 2⌋ (less log₁₀ 4/3 where the lower neighbour is closer)
    # and h = q + ⌊−k·log₂ 10⌋ + 1 in 22- and 19-bit fixed point, exact
    # over the exponents of doubles.
    k = (q * 1262611 - lower_closer * 524031) >> 22
    h = (q + ((-k * 1741647) >> 19) + 1).astype(np.uint64)
    # Temporaries are dropped once used: they set a chunk's peak memory.
    del q
    g0, g1, g2, g3, g_lo, g_hi = _scaled_powers(292 - k)
    cp = c << (h + 2)
    c0, c1 = cp & 0xFFFFFFFF, cp >> 32
    x1, x0 = _mul64(g0, g1, g_lo, c0, c1, cp)
    y1, y0 = _mul64(g2, g3, g_hi, c0, c1, cp)
    del g0, g1, g2, g3, cp, c0, c1
    # The centre product is (x0, mid, hi).
    mid = y0 + x1
    hi = y1 + (mid < y0)
    del x1, y0, y1
    vb = hi | (mid > 1)
    vbr = _interval_end(x0, mid, hi, g_lo, g_hi, h + 1, 1)
    vbl = _interval_end(x0, mid, hi, g_lo, g_hi, h + 1 - lower_closer, -1)
    del x0, mid, hi, g_lo, g_hi
    odd = c & 1
    upper, lower = vbr - odd, vbl + odd
    del vbr, vbl, odd, c
    s = vb >> 2
    # One digit fewer: the multiples of 10^(k+1) around v.
    sp = s // np.uint64(10)
    up_in = lower <= sp * np.uint64(40)
    wp_in = sp * np.uint64(40) + np.uint64(40) <= upper
    use_sp = (up_in != wp_in) & (s >= 10)
    s4 = s << 2
    u_in = lower <= s4
    w_in = s4 + np.uint64(4) <= upper
    half = s4 + np.uint64(2)
    round_up = (vb > half) | ((vb == half) & (s & 1).astype(bool))
    d = np.where(use_sp, sp + wp_in, s + np.where(u_in != w_in, w_in, round_up))
    return d, k + use_sp


def _float_chars(v: np.ndarray) -> np.ndarray:
    """``repr`` of each double of ``v`` as a row of uint8 character columns,
    NUL where the row has none.  With shortest digits ``d₁d₂…`` and
    ``|v| = 0.d₁d₂… · 10^decpt``: fixed notation where −4 < decpt ≤ 16
    (whole numbers end in ``.0``), else ``d₁.d₂…e±XX`` (at least two
    exponent digits, no point after a single digit); a negative value,
    −0.0 included, starts with ``-``."""
    m = v.size
    d, k = _shortest_decimals(v)
    nonfinite = ~np.isfinite(v)
    special = nonfinite | (v == 0)
    if special.any():  # laid out as 0.0, then nan and inf overwritten
        d[special] = 0
        k[special] = 1
    ndigits = np.searchsorted(_POW10, d, side="right")
    decpt = k + ndigits
    # The 17 digits of d, left-aligned: the first, then four groups of four.
    d = d * _POW10[17 - ndigits]
    first = d // np.uint64(10**16)
    rest = d - first * np.uint64(10**16)
    hi = rest // np.uint64(10**8)
    lo = rest - hi * np.uint64(10**8)
    g0 = hi // np.uint64(10**4)
    g2 = lo // np.uint64(10**4)
    # Table entries: a group followed by a nonzero group keeps its zeros.
    groups = np.empty((m, 4), dtype=np.int64)
    groups[:, 0] = g0 + (rest != g0 * np.uint64(10**12)) * np.uint64(10_000)
    groups[:, 1] = hi - g0 * np.uint64(10**4) + (lo != 0) * np.uint64(10_000)
    groups[:, 3] = lo - g2 * np.uint64(10**4)
    groups[:, 2] = g2 + (groups[:, 3] != 0) * np.uint64(10_000)
    digits = np.empty((m, 17), dtype=np.uint8)
    digits[:, 0] = first
    digits[:, 0] += 48
    digits[:, 1:] = np.take(_digit_table(), groups).view(np.uint8)
    exponent_form = (decpt < -3) | (decpt > 16)
    any_exponent = bool(exponent_form.any())
    # Where the decimal point goes: after digit point - 1 (before the first
    # digit, behind "0." and zeros, if point <= 0).
    point = np.where(exponent_form, 1, decpt) if any_exponent else decpt
    top = int(point.max())
    if top >= 2:
        # Whole numbers: the table blanked the zeros of their integer part.
        rows = np.flatnonzero(point >= 2)
        rows = rows[digits.ravel()[rows * 17 + point[rows] - 1] == 0]
        if rows.size:
            sub = digits[rows]
            inside = np.arange(17) < point[rows, None]
            sub[inside] = np.maximum(sub[inside], 48)
            digits[rows] = sub
    # Columns: the sign, "0." and three zeros, then the 17 digits.  Digits
    # j0 .. j0 + slots - 1 are each followed by two columns: the decimal
    # point of the rows whose point falls there, and the "0" of a whole number.
    j0 = max(int(point.min()), 1) - 1
    slots = max(top - j0, 0)
    if not slots:
        j0 = 16
    tail = 5 if any_exponent or nonfinite.any() else 0
    out = np.empty((m, 23 + 2 * slots + tail), dtype=np.uint8)
    out[:, 0] = v.view(np.uint64) >> 63
    out[:, 0] *= 45
    # "0." and up to three zeros before the digits of a value below 1.
    for col, (char, limit) in enumerate(zip(b"0.000", (0, 0, -1, -2, -3)), start=1):
        out[:, col] = char * (point <= limit)
    out[:, 6:7 + j0] = digits[:, :j0 + 1]
    if slots:
        block = out[:, 7 + j0:7 + j0 + 3 * slots].reshape(m, slots, 3)
        after = digits[:, j0 + 1:j0 + 1 + slots]
        here = (point - 1)[:, None] == np.arange(j0, j0 + slots)
        fixed = ~exponent_form[:, None]
        # Exponent form with one digit has no point; a whole number ends in ".0".
        block[:, :, 0] = 46 * (here & (fixed | (after != 0)))
        block[:, :, 1] = 48 * (here & fixed & (after == 0))
        block[:, :, 2] = after
    out[:, 7 + j0 + 3 * slots:23 + 2 * slots] = digits[:, j0 + 1 + slots:]
    if tail:
        e = decpt - 1
        a = np.abs(e)
        out[:, -5] = 101 * exponent_form
        out[:, -4] = np.where(e < 0, 45, 43) * exponent_form
        out[:, -3] = np.where(a >= 100, a // 100 + 48, 0) * exponent_form
        out[:, -2] = (a // 10 % 10 + 48) * exponent_form
        out[:, -1] = (a % 10 + 48) * exponent_form
        if nonfinite.any():
            rows = np.flatnonzero(nonfinite)
            nan = np.isnan(v[rows])
            out[rows, 1:] = 0
            out[rows[nan], 0] = 0
            out[rows, -5:-2] = np.where(nan[:, None], np.frombuffer(b"nan", np.uint8),
                                        np.frombuffer(b"inf", np.uint8))
    return out


def _count_chars(n: np.ndarray) -> np.ndarray:
    """The decimal digits of each count as uint8 columns, NUL for leading
    zeros, in uint64 (counts pass 2^32)."""
    value = n.astype(np.uint64)
    width = max(int(np.searchsorted(_POW10, value.max(), side="right")), 1)
    out = np.empty((n.size, width), dtype=np.uint8)
    rest = value
    for j in range(width - 1, -1, -1):
        tens = rest // np.uint64(10)
        out[:, j] = rest - tens * np.uint64(10)
        rest = tens
    out += 48
    out[:, :-1] *= value[:, None] >= _POW10[width - 1:0:-1]
    return out


def endpoint_rows(x: np.ndarray, y: np.ndarray, n: np.ndarray) -> bytes:
    """The endpoint CSV rows ``x,y,n,is_singular`` of equally long columns,
    byte for byte those of ``repr``."""
    fields = [_float_chars(x), _float_chars(y), _count_chars(n),
              _FLAG_CHARS[(n == 0).view(np.uint8)]]
    rows = np.empty((n.size, sum(f.shape[1] + 1 for f in fields)), dtype=np.uint8)
    end = 0
    for field in fields:
        start, end = end, end + field.shape[1]
        rows[:, start:end] = field
        rows[:, end] = 44  # ","
        end += 1
    rows[:, -1] = 10  # "\n"
    return rows.tobytes().translate(None, b"\0")
