"""Exact ``repr`` text of whole float64 arrays, at array speed.

:func:`join` returns ``sep.join(map(float.__repr__, values.tolist()))``
byte for byte, and for an integer array the same with ``int.__repr__``,
without a Python call per value.  Each float's shortest round-trip digits
are certified with error-free arithmetic and rejected when the arithmetic
cannot decide them, in which case that value alone takes ``float.__repr__``
(the certify-or-fall-back scheme of Grisu3, Loitsch, PLDI 2010):

1. ``E = floor(log10|x|)`` and ``y = |x| * 10**(16 - E)``, a Dekker product
   against a double-double table of powers of ten, kept as an integer
   ``Y = floor(y)`` and a fraction ``f = y - Y``, so ``10**16 <= y <
   10**17``.  The error of ``y`` is below 1e-13.
2. The decimals that read back as ``x`` are the integers within ``h`` of
   ``y``, ``h`` half an ulp of ``x`` in units of ``y`` (over 0.55, so there
   is always one).  The text's digits are the one of them with the most
   trailing zeros, closest to ``y`` when several have as many: the shortest
   text, and of the shortest the closest, as ``repr`` chooses.
3. A value falls back when a decision lies within ``_MARGIN`` of its
   boundary (an end of the interval, or a tie between two closest), on a
   carry to ``10**17``, and for non-finite and subnormal values, ``|x|``
   outside [1e-270, 1e300] and power-of-two significands (whose interval
   is not symmetric).  Zeros are written without falling back.
4. Every value becomes a record of 8-byte words, built with integer
   arithmetic on whole arrays: sign and ``"0."`` lead, integer digits,
   point, fraction digits and exponent, then the separator, the unused
   bytes NUL; ``bytes.translate`` drops the NULs.  Every word is a uint64
   from its first operation on, so numpy 1's value-based casting and
   numpy 2's promotion give the same words.

The work is done in chunks of at most ``CHUNK`` values into buffers reused
across chunks; nothing is shared between calls, so threads may format at
once.  The tables are built at import as bytes, with Python's int and
float arithmetic.
"""

from __future__ import annotations

import math
import struct

import numpy as np

__all__ = ["CHUNK", "SMALL", "join", "pieces", "csv_lines", "matrix_lines"]

#: Most values formatted at once.
CHUNK = 8192

#: Fewest values formatted with arrays: below, one ``repr`` call per value
#: is faster than the arrays' fixed cost (see :func:`pieces`).
SMALL = 320

#: Distance, in units of ``y``, within which a decision counts as undecided.
_MARGIN = 1e-6

_K_MIN, _K_MAX = -290, 290  # the powers of ten 10**k in the table
_SPLIT = float(2**27 + 1)  # Veltkamp's constant for float64

# The tables are read-only views of bytes built in Python: a numpy loop run
# here for the first time would fault its machine code in, which a process
# that never formats a float would keep resident (0.45 MB when they were
# built with numpy arithmetic).


def _powers_of_ten():
    """``10**k`` for ``k`` in [_K_MIN, _K_MAX] as ``hi + lo``, ``hi`` the
    correctly rounded double and ``lo`` the correctly rounded rest, and
    ``hi`` split by Veltkamp into ``hi_hi + hi_lo``: views of the bytes of
    Python floats, from int arithmetic, whose true division and
    int-to-float are correctly rounded.  For ``k < 0``, ``hi`` is a ratio
    ``num / 2**m`` and ``lo`` is ``(2**m - num * 10**-k) / 10**-k`` scaled
    by ``2**-m``, which is exact above the subnormals."""
    columns = ([], [], [], [])
    for k in range(_K_MIN, _K_MAX + 1):
        if k >= 0:
            exact = 10**k
            h = float(exact)
            l = float(exact - int(h))
        else:
            den10 = 10**-k
            h = 1 / den10
            num, den2 = h.as_integer_ratio()
            l = math.ldexp((den2 - num * den10) / den10, 1 - den2.bit_length())
        c = _SPLIT * h
        hh = c - (c - h)
        for column, value in zip(columns, (h, l, hh, h - hh)):
            column.append(value)
    return [np.frombuffer(struct.pack(f"<{len(c)}d", *c), "<f8") for c in columns]


_P_HI, _P_LO, _P_HI_HI, _P_HI_LO = _powers_of_ten()

_WORD = np.dtype("<u8")  # one record word: eight bytes, the first lowest


def _word_table(texts):
    """Each bytes of at most eight as the value of one record word."""
    return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), _WORD)


def _digits4():
    """``[b"%04d" % k for k in range(10_000)]`` as words: of each pair of
    leading digits, the row ``pair + pair.join(ends)``."""
    pairs = [b"%02d" % k for k in range(100)]
    ends = [pair + b"\0" * 4 for pair in pairs]
    return np.frombuffer(b"".join(pair + pair.join(ends) for pair in pairs), _WORD)


#: ``_DIGITS4[k]``: the word of the four bytes ``b"%04d" % k``.
_DIGITS4 = _digits4()
#: ``_PREFIX[_PRE + t]``: the mask of the first ``clip(t, 0, 8)`` bytes of a word.
_PRE = 24
_PREFIX = _word_table([b"\xff" * min(max(t - _PRE, 0), 8) for t in range(_PRE + 33)])

_EXP2, _EXP3 = np.uint64(0xFFFF000000), np.uint64(0xFFFFFF0000)
_EXP_MINUS, _EXP_PLUS = (np.uint64(int.from_bytes(t, "little")) for t in (b"e-", b"e+"))

_POW10 = np.array([10**k for k in range(17)], np.int64)
_MANTISSA = np.uint64((1 << 52) - 1)
_EXPONENT, _ULP_SHIFT = np.uint64(0x7FF << 52), np.uint64(52 << 52)

#: Text kinds: fixed notation for E in [-4, 15] (kind E + 4), scientific
#: (kind 20) and zero (kind 21), where ``float.__repr__`` switches.
_SCI, _ZERO_KIND = 20, 21
#: The first word of a record of each kind, after its sign byte.
_LEADS = _word_table([b"\0" + b"0." + b"0" * (3 - j) for j in range(4)] + [b""] * 17 + [b"\0" + b"0.0"])


def _scaled(a, e):
    """``(Y, f)`` with ``Y + f = a * 10**(16 - e)`` (to ~1e-13), ``Y`` an
    int64 and ``0 <= f < 1``."""
    k = 16 - e - _K_MIN
    p_hi = _P_HI[k]
    p = a * p_hi
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    hh, hl = _P_HI_HI[k], _P_HI_LO[k]
    err = ((a_hi * hh - p) + a_hi * hl + a_lo * hh) + a_lo * hl
    low = err + a * _P_LO[k]
    whole = np.floor(p)
    frac = (p - whole) + low
    carry = np.floor(frac)
    return whole.astype(np.int64) + carry.astype(np.int64), frac - carry


def _shortest(a):
    """Shortest round-trip digits of positive normal doubles in range and not
    powers of two: ``(digits, p, e, undecided)``, ``digits`` the 17-digit
    integer ``D_p * 10**(17 - p)`` and ``e`` the decimal exponent of its
    first digit."""
    e = np.floor(np.log10(a)).astype(np.int64)
    big, frac = _scaled(a, e)
    off = (big >= 10**17).astype(np.int64) - (big < 10**16)
    fix = np.flatnonzero(off)
    if fix.size:  # log10 rounded across a power of ten
        e[fix] += off[fix]
        big[fix], frac[fix] = _scaled(a[fix], e[fix])
    undecided = (big < 10**16) | (big >= 10**17)
    # half an ulp in units of y: a normal double's ulp is its power of two
    # times 2**-52
    half_ulp = 0.5 * ((a.view(np.uint64) & _EXPONENT) - _ULP_SHIFT).view(np.float64)
    h = half_ulp * _P_HI[16 - e - _K_MIN]
    # the integers within h of y, [lo, hi], and most trailing zeros of one
    low, high = frac - h, frac + h
    undecided |= (np.abs(low - np.rint(low)) < _MARGIN) | (np.abs(high - np.rint(high)) < _MARGIN)
    lo, hi = big + np.ceil(low).astype(np.int64), big + np.floor(high).astype(np.int64)
    zeros = np.zeros(len(a), np.int64)
    for k in range(1, 17):
        has = hi - hi % _POW10[k] >= lo
        if not has.any():
            break
        zeros += has
    # of those multiples of 10**zeros, the one closest to y
    unit = _POW10[zeros]
    below = big - big % unit
    above = below + unit
    to_below, to_above = (big - below) + frac, (above - big) - frac
    undecided |= (below >= lo) & (above <= hi) & (np.abs(to_above - to_below) < _MARGIN)
    digits = np.where((above <= hi) & ((below < lo) | (to_above < to_below)), above, below)
    undecided |= digits >= 10**17
    return digits, 17 - zeros, e, undecided


def _eight(x):
    """The words of the eight digits of each ``x`` in [0, 10**8)."""
    return _DIGITS4[x // 10_000] | (_DIGITS4[x % 10_000] << np.uint64(32))


def _float_records(values, words):
    """Fill the record words of ``values``: returns the indices of the values
    that need ``float.__repr__``.

    A record's seven words are the sign and lead (``"0."`` and up to three
    zeros) with the first digit in the last byte; digits 2-9 and 10-17 of
    the integer part; the point and a zero after it, with the first digit
    again in the last byte; digits 2-9 and 10-17 of the fraction; and
    ``"e"``, the exponent's sign and its digits.  Each digit appears in the
    integer or the fraction words, or neither."""
    with np.errstate(all="ignore"):  # NaN and inf compare, then fall back
        bits = values.view(np.uint64)
        a = np.abs(values)
        sign = (bits >> np.uint64(63)) * np.uint64(ord("-"))
        normal = (a >= 1e-270) & (a <= 1e300) & ((bits & _MANTISSA) != 0)
        fallback = ~normal & (a != 0)
        words[:] = 0
        words[:, 0] = sign | _LEADS[_ZERO_KIND]
        rows = np.flatnonzero(normal)
        if not rows.size:
            return np.flatnonzero(fallback)
        digits, p, e, undecided = _shortest(a[rows])
        fallback[rows[undecided]] = True
        if rows.size == len(values):
            rows = slice(None)
        sci = (e < -4) | (e > 15)
        int_len = np.where(sci, 1, np.maximum(e + 1, 0))
        first = (digits // 10**16 + ord("0")).astype(np.uint64) << np.uint64(56)
        rest = digits % 10**16
        high, low = rest // 10**8, rest % 10**8
        word = _eight(high)
        int_mask, frac_mask = _PREFIX[_PRE - 1 + int_len], _PREFIX[_PRE - 1 + p]
        words[rows, 1] = word & int_mask
        words[rows, 4] = word & frac_mask & ~int_mask
        word = _eight(low)
        int_mask, frac_mask = _PREFIX[_PRE - 9 + int_len], _PREFIX[_PRE - 9 + p]
        words[rows, 2] = word & int_mask
        words[rows, 5] = word & frac_mask & ~int_mask
        # the point after the integer part, unless scientific notation has one
        # digit; "0" after it when fixed notation's digits end before it
        point = np.where(sci, p > 1, int_len > 0).astype(np.uint64) * ord(".")
        point |= (~sci & (int_len >= p)).astype(np.uint64) * (ord("0") << 8)
        words[rows, 0] = sign[rows] | _LEADS[np.where(sci, _SCI, e + 4)] | first * (int_len > 0)
        words[rows, 3] = point | first * (int_len == 0)
        if sci.any():  # "e", the sign, and the last two or three of "%04d"
            exp = np.abs(e)
            digits = (_DIGITS4[exp] << np.uint64(8)) & np.where(exp >= 100, _EXP3, _EXP2)
            signs = np.where(e < 0, _EXP_MINUS, _EXP_PLUS)
            words[rows, 6] = (digits | signs) * sci
        return np.flatnonzero(fallback)


def _int_records(values, words):
    """Fill the record words of integers: the sign in the last byte of the
    first word, then sixteen digits.  Returns the indices of those beyond
    sixteen digits, which need ``int.__repr__``."""
    fallback = (values <= -(10**16)) | (values >= 10**16)
    mag = np.where(fallback, 0, np.abs(values))
    width = np.searchsorted(_POW10[1:], mag, side="right") + 1
    high, low = mag // 10**8, mag % 10**8
    words[:, 0] = (values < 0).astype(np.uint64) * np.uint64(ord("-") << 56)
    words[:, 1] = _eight(high) & ~_PREFIX[_PRE + 16 - width]
    words[:, 2] = _eight(low) & ~_PREFIX[_PRE + 8 - width]
    return np.flatnonzero(fallback)


#: Record words of a float and of an integer.
_FLOAT_WORDS, _INT_WORDS = 7, 3


def _buffer(count, words, sep):
    """``count`` records of ``words`` words, each followed by NUL and then
    ``sep`` up to the next word boundary."""
    out = np.zeros((count, 8 * (words + -(-len(sep) // 8))), np.uint8)
    if sep:
        out[:, -len(sep) :] = np.frombuffer(sep, np.uint8)
    return out


def _records(values, out):
    """The records of one chunk of ``values`` (float or int64) in ``out``,
    every value that the arrays could not write written by its ``repr``."""
    rec = out[: len(values)]
    if values.dtype.kind == "f":
        size, fill, text = _FLOAT_WORDS, _float_records, float.__repr__
    else:
        size, fill, text = _INT_WORDS, _int_records, int.__repr__
    slow = fill(values, rec[:, : 8 * size].view(_WORD))
    if slow.size:  # at most 24 characters each
        texts = np.array(list(map(text, values[slow].tolist())), dtype="S24")
        rec[slow, : 8 * size] = 0
        rec[slow, :24] = texts.view(np.uint8).reshape(-1, 24)
    return rec


def _as_array(values):
    values = np.asarray(values).ravel()
    if values.dtype.kind == "f" and values.itemsize <= 8:
        return values.astype(np.float64, copy=False)
    if values.dtype.kind == "i" or (values.dtype.kind == "u" and values.itemsize < 8):
        return values.astype(np.int64, copy=False)
    raise TypeError(f"expected a float or integer array, got dtype {values.dtype}")


def pieces(values, sep=","):
    """The text of :func:`join` in pieces of at most ``CHUNK`` values, every
    piece but the last ending in ``sep``.  Fewer than ``SMALL`` values are
    one piece of ``repr`` calls: 100 random floats take 0.08 ms by
    ``repr`` and 0.19 ms by the arrays, 320 take 0.25 ms either way, and
    512 take 0.40 and 0.31 ms."""
    values = _as_array(values)
    if len(values) < SMALL:
        if len(values):
            text = float.__repr__ if values.dtype.kind == "f" else int.__repr__
            yield sep.join(map(text, values.tolist()))
        return
    sep_bytes = sep.encode()
    words = _FLOAT_WORDS if values.dtype.kind == "f" else _INT_WORDS
    out = _buffer(min(len(values), CHUNK), words, sep_bytes)
    for start in range(0, len(values), CHUNK):
        text = _records(values[start : start + CHUNK], out).tobytes().translate(None, b"\0")
        if start + CHUNK >= len(values) and sep_bytes:
            text = text[: -len(sep_bytes)]
        yield text.decode("ascii")


def join(values, sep=","):
    """``sep.join(map(float.__repr__, values.tolist()))`` for a float array,
    the same with ``int.__repr__`` for an integer array; ``sep`` is ASCII
    without NUL."""
    return "".join(pieces(values, sep))


def csv_lines(table, index=None):
    """CSV lines of the rows of a 2-D float array, ``","``-separated and each
    ending in a newline, in pieces of whole lines; ``index``, an integer
    array, is a first column.  A row's line is ``",".join`` of the ``repr``
    of its items."""
    table = np.asarray(table, dtype=np.float64)
    n_rows, n_cols = table.shape
    step = max(1, CHUNK // n_cols)
    out = _buffer(min(n_rows, step) * n_cols, _FLOAT_WORDS, b",")
    if index is not None:
        index = _as_array(index)
        index_out = _buffer(min(n_rows, step), _INT_WORDS, b",")
    for start in range(0, n_rows, step):
        block = table[start : start + step]
        rec = _records(block.ravel(), out).reshape(len(block), -1)
        rec[:, -1] = ord("\n")
        if index is not None:
            rec = np.hstack([_records(index[start : start + step], index_out), rec])
        yield rec.tobytes().translate(None, b"\0").decode("ascii")


def matrix_lines(matrix):
    """:func:`csv_lines` of a 2-D float array, faster when it is mostly
    ``+0.0``: only entries with a bit set are formatted, ``CHUNK`` at a
    time, and each run of ``+0.0`` between them is a slice of a text of zero
    rows.  A matrix with more than a fifth of its entries set goes to
    :func:`csv_lines` whole: for n = 1000, 10 % set takes 84 ms sliced and
    153 ms whole, 30 % set 199 and 149 ms, all set 458 and 257 ms."""
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    n_cols = matrix.shape[1]
    flat = matrix.ravel()
    cells = np.flatnonzero(flat.view(np.uint64) != 0)
    if 5 * len(cells) > len(flat):
        yield from csv_lines(matrix)
        return
    bounds = np.concatenate([[-1], cells, [len(flat)]])  # the cells around each run
    zeros = ("0.0," * (n_cols - 1) + "0.0\n") * (2 + int(np.diff(bounds).max()) // n_cols)
    for start in range(0, len(cells) + 1, CHUNK):
        inner = cells[start : start + CHUNK]
        last = start + CHUNK > len(cells)  # the run after the last cell too
        begins = bounds[start : start + len(inner) + last] + 1
        ends = bounds[start + 1 : start + len(inner) + last + 1]
        offsets = 4 * (begins % n_cols)
        parts = [None] * (3 * len(inner) + last)
        parts[0::3] = [zeros[i:j] for i, j in zip(offsets.tolist(), (offsets + 4 * (ends - begins)).tolist())]
        parts[1::3] = join(flat[inner], " ").split(" ") if len(inner) else []
        parts[2::3] = np.where(inner % n_cols == n_cols - 1, "\n", ",").tolist()
        yield "".join(parts)
