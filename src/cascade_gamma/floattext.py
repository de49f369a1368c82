"""Exact decimal text of a table's numpy columns, a block of rows at once.

`lines(columns, style, ends)` yields the text of a table's rows, one
string per block of rows: element i of each column, then that column's
end.  A column is a 1-d float or integer array, and each element's
text is byte for byte what Python writes for it:

- style "csv": floats as '%.17g' % v, integers as '%d' % v;
- style "json": each element as json.dumps writes it, so floats as
  repr(v) ('Infinity', '-Infinity' and 'NaN' for the non-finite ones)
  and integers as repr(v).

Floats from 5e-324 to 1e290, +0.0 and integers from 0 to 10^17 − 1
take the vector path.  A float x is scaled to a 17-digit integer
V = x·10^(16−k), with k = ⌊log10 x⌋ checked against V itself, as a
double-double: Dekker's exact product of x with hi, plus x·lo, for a
table of 10^j = hi + lo.  A nonzero x below 1e-290, subnormals
included, is first scaled by 2^256, which is exact, and multiplied by a
second section of the table, 10^j·2^−256 = hi + lo, so every factor
and product stays in the normal range.  V is then good to about 1e-14,
so its integer part D and its fraction decide '%.17g' (round half even)
and repr (the fewest digits whose decimal lies strictly inside the
rounding interval of x, and of those the nearest) wherever that
decision is more than 1e-9 from a boundary.  A subnormal's rounding
interval can be 10^16 units of D wide, so its half-gaps are
double-doubles too.  Every other element goes to Python's own
formatter: negative values and −0.0, the non-finite ones, those above
1e290, where the table and the products would overflow, and every
decision within 1e-9 of a boundary, with no exact settlement (exact
ties, and repr's interval bounds that fall on an integer, as for large
whole numbers).

Digits come from a table of all 4-digit groups, and each (notation,
k, digit count) has one precomputed layout that places the digits, the
point, the padding zeros and the exponent.  Integers take the same
digits and layouts.
"""

from __future__ import annotations

import json
from collections.abc import Iterator

import numpy as np

__all__ = ["lines"]

# Rows formatted at once: enough that the per-block cost vanishes, few
# enough that a block's byte matrices stay under 1 MB.
_BLOCK_ROWS = 4096

# The widest float or int64 text, e.g. '-2.2250738585072014e-308'.
_WIDTH = 24

# Nonzero floats below _LEAST are scaled by _TINY first; those above
# _MOST go to Python.
_LEAST, _MOST = 1e-290, 1e290
_TINY = 2.0**256
# Decisions closer than this to a boundary, in units of the 17th digit,
# go to Python; V itself is good to about 1e-14 of them.
_GUARD = 1e-9
_E16, _E17 = 10**16, 10**17
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's splitter for 26-bit halves
_TENS = np.array([10**i for i in range(18)])
_POW10 = _TENS[1:17]

# 10^j = _HI + _LO for j = 16 - k, k in [-292, 292] (one more either
# side, where log10 is one off), then 10^j·2^-256 for j in [300, 345],
# which holds k in [-325, -290] of the floats below _LEAST, with
# _HI = _HH + _HL in 26-bit halves.  _scaled finds 10^(16-k) at index
# _BASE - k, or _TINY_BASE - k in the second section.
_J_MIN, _J_MAX = -276, 308
_J_TINY = range(300, 346)
_BASE = 16 - _J_MIN
_TINY_BASE = _BASE + _J_MAX + 1 - _J_TINY.start


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's x = high + low, halves of 26 bits; x·2^27 must be finite."""
    scaled = x * _SPLIT
    high = scaled - (scaled - x)
    return high, x - high


def _powers_of_ten() -> tuple[np.ndarray, np.ndarray]:
    """10^j·2^-shift = hi + lo, both parts rounded once from exact integers.

    10^j·2^-shift is num/den with num = 10^max(j, 0) and den =
    10^max(-j, 0)·2^shift; int / int rounds correctly, so hi = num/den
    and, with hi = a/b exactly, lo = (num·b - a·den)/(den·b).
    """
    hi, lo = [], []
    for j, shift in [(j, 0) for j in range(_J_MIN, _J_MAX + 1)] + [(j, 256) for j in _J_TINY]:
        num, den = 10**max(j, 0), 10**max(-j, 0) << shift
        h = num / den
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    return np.array(hi), np.array(lo)


_HI, _LO = _powers_of_ten()
# Split at a scale where the splitter cannot overflow.
_HH, _HL = (half * 2.0**64 for half in _split(_HI * 2.0**-64))


def _groups() -> tuple[np.ndarray, np.ndarray]:
    """Every 4-digit group as 4 ASCII bytes, one uint32 each, and its
    count of trailing zero digits (4 for 0000)."""
    digits = np.stack(np.indices((10,) * 4, np.uint8), axis=-1) + ord("0")
    trailing = np.zeros((10,) * 4, np.int64)
    for zeros in range(1, 5):
        trailing[(slice(None),) * (4 - zeros) + (0,) * zeros] += 1
    return digits.view(np.uint32).ravel(), trailing.ravel()


_DIGITS4, _TRAILING4 = _groups()

# A rendered element's source row: 32 bytes, the 17 digits of D at
# [3, 20), the exponent's sign and 3 digits, constant bytes, and zeros.
_D0, _ESIGN, _EXP3, _DOT, _ZERO, _E, _NUL = 3, 20, 21, 24, 25, 26, 27
_CONST = np.frombuffer(b".0e\0", np.uint32)[0]


def _exponents() -> np.ndarray:
    """Sign and 3 digits of each exponent k in [-330, 330], one uint32 each."""
    k = np.arange(-330, 331)
    table = _DIGITS4[np.abs(k)].view(np.uint8).reshape(-1, 4).copy()
    table[:, 0] = np.where(k < 0, ord("-"), ord("+"))
    return table.view(np.uint32).ravel()


_EXPONENT = _exponents()

# Layouts, indexed by (style * 23 + kclass) * 18 + n with
# style 0 '%.17g', 1 repr, 2 integer; kclass k + 4 for fixed notation
# (k in [-4, 16]), 21 for an exponent of 2 digits and 22 for one of 3,
# and 0 for every integer; n the count of significant digits.  Each row
# holds _WIDTH indices into the source row, those past the text's length
# (_LENGTH) at a zero byte.
_G17, _REPR, _INT = 0, 1, 2
_KCLASSES = 23


def _layouts() -> tuple[np.ndarray, np.ndarray]:
    p = np.arange(_WIDTH, dtype=np.int16)
    digit = _D0 + p  # source of the p-th digit
    n = np.arange(18, dtype=np.int16).reshape(-1, 1)
    # Fixed notation, k >= 0: k + 1 integer digits, zero-padded, then the
    # point and the fraction digits; repr also writes the '.0' of no fraction.
    k, n_fixed = (a.reshape(-1, 1) for a in np.indices((21, 18), np.int16))
    k -= 4
    intlen = k + 1
    whole = np.where(p < intlen, np.where(p < n_fixed, digit, _ZERO),
                     np.where(p == intlen, _DOT, np.where(n_fixed > intlen, digit - 1, _ZERO)))
    # Fixed notation, k < 0: '0.', -k - 1 zeros, the digits.
    zeros = -k - 1
    part = np.where(p == 1, _DOT, np.where(p < 2 + zeros, _ZERO, digit - 2 - zeros))
    fixed = np.where(k >= 0, whole, part)
    fixed_len = np.where(k < 0, 2 + zeros + n_fixed,
                         np.where(n_fixed > intlen, n_fixed + 1, intlen))
    point_zero = 2 * ((k >= 0) & (n_fixed <= intlen))  # repr's '.0'
    # Exponent notation: d[.ddd]e±XX, with 3 exponent digits from |k| = 100.
    exp3 = np.array([[0], [1]], np.int16).repeat(18, axis=0)
    mant = np.tile(np.where(n > 1, n + 1, 1), (2, 1))
    sci = np.where(p < mant, np.where(p == 1, _DOT, digit - (p > 0)),
                   np.where(p == mant, _E, np.where(p == mant + 1, _ESIGN,
                                                    _EXP3 + p - mant - 1 - exp3)))
    # Floats keyed by kclass, then n; integers by n alone, the last n of the 17 digits.
    floats = np.concatenate([fixed, sci])
    g17_len = np.concatenate([fixed_len, mant + 4 + exp3])
    repr_len = g17_len + np.concatenate([point_zero, 0 * exp3])
    source = np.concatenate([floats, floats, digit + 17 - n])
    length = np.concatenate([g17_len, repr_len, n])
    # Past the length, and for impossible keys (n = 0, say), any valid index.
    # Every index is below 32; _render widens a block's to intp as it adds
    # the row offsets.
    source = np.where(p < length, np.clip(source, 0, _E), _NUL).astype(np.uint8)
    return source, length.ravel().astype(np.int64)


_LAYOUT, _LENGTH = _layouts()


def _float_keys() -> list[np.ndarray]:
    """Per float style, the layout key of each k in [-330, 330], less the
    digit count n."""
    k = np.arange(-330, 331)
    keys = []
    # '%.17g' writes k in [-4, 17) in fixed notation, repr k in [-4, 16).
    for style, end in ((_G17, 17), (_REPR, 16)):
        fixed = (k >= -4) & (k < end)
        kclass = np.where(fixed, k + 4, 21 + (np.abs(k) >= 100))
        keys.append((style * _KCLASSES + kclass) * 18)
    return keys


_FLOAT_KEYS = _float_keys()


def lines(columns: list[np.ndarray], style: str, ends: list[str]) -> Iterator[str]:
    """The rows of a table, as one string per block of rows.

    Row i is element i of each column, each followed by its end; the
    last row leaves its last end off.  The columns are float or integer
    arrays of one length, written in style "csv" or "json" (see the
    module docstring), and no end holds a zero byte.  Python's own
    formatter writes, cell by cell, the negative values and −0.0, the
    non-finite ones, floats above 1e290, integers from 10^17, and every
    decision within 1e-9 of a boundary; the rest take the vector path.
    """
    ends = [np.frombuffer(end.encode(), np.uint8) for end in ends]
    rows = len(columns[0])
    for start in range(0, rows, _BLOCK_ROWS):
        texts = [_cells(column[start:start + _BLOCK_ROWS], style) for column in columns]
        # Cells and ends side by side, read out row by row without the
        # zeros that pad each cell to its column's widest.
        full = np.hstack([part for text, end in zip(texts, ends)
                          for part in (text, np.broadcast_to(end, (len(text), end.size)))])
        if start + _BLOCK_ROWS >= rows:
            full[-1, full.shape[1] - ends[-1].size:] = 0
        yield full[full != 0].tobytes().decode()


def _cells(values: np.ndarray, style: str) -> np.ndarray:
    """The text of each element of a nonempty 1-d block, one zero-padded row each.

    Work space is a few hundred bytes per element, so pass blocks of
    thousands.
    """
    if values.dtype.kind == "f":
        values = values.astype(np.float64, copy=False)
        rows, keys, slow = _float_fields(values, _REPR if style == "json" else _G17)
    else:
        rows, keys, slow = _integer_fields(values)
    lengths = _LENGTH.take(keys)
    if slow.size:
        fallback, lengths[slow] = _python_cells(values[slow], style)
    text = _render(rows, keys, lengths.max())
    if slow.size:
        text[slow] = 0
        text[slow, :fallback.shape[1]] = fallback
    return text


def _python_cells(values: np.ndarray, style: str) -> tuple[np.ndarray, np.ndarray]:
    """Python's own text of each element, zero-padded rows, and the text lengths."""
    if style == "json":
        write = json.dumps
    elif values.dtype.kind == "f":
        write = "%.17g".__mod__
    else:
        write = str
    encoded = [write(value).encode() for value in values.tolist()]
    lengths = np.array([len(item) for item in encoded], dtype=np.int64)
    text = np.array(encoded).view(np.uint8).reshape(len(encoded), -1)
    return text, lengths


def _integer_fields(values: np.ndarray):
    v = values.astype(np.int64, copy=False)
    fast = (v >= 0) & (v < _E17)
    d = np.where(fast, v, 0)
    n = np.searchsorted(_POW10, d, side="right") + 1
    keys = _INT * _KCLASSES * 18 + n
    return _digit_rows(d, np.zeros_like(d))[0], keys, np.flatnonzero(~fast)


def _float_fields(x: np.ndarray, style: int):
    """Source rows, layout keys and the indices left to Python, for floats."""
    digits = _shortest if style == _REPR else _rounded
    regular = (x >= _LEAST) & (x <= _MOST)
    if regular.all():
        d, k, slow = digits(x)
    else:
        d = np.zeros(len(x), np.int64)
        k = np.zeros(len(x), np.int64)
        tiny = (x > 0) & (x < _LEAST)
        # All but +0.0, whose bits are all zero: negatives, -0.0 and nan.
        slow = ~(regular | tiny) & (x.view(np.int64) != 0)
        for subset, scaled in ((regular, False), (tiny, True)):
            where = np.flatnonzero(subset)
            if where.size:
                d[where], k[where], near = digits(x[where], scaled)
                slow[where[near]] = True
        slow = np.flatnonzero(slow)
    rows, groups = _digit_rows(d, k)
    n = _significant(groups)
    keys = _FLOAT_KEYS[style].take(k + 330) + n
    return rows, keys, slow


def _scaled(a: np.ndarray, k: np.ndarray, base: int):
    """⌊V⌋ and V − ⌊V⌋ of V = a·10^(16−k), and the table index base − k of
    10^(16−k) (times 2^-256 in the section that a tiny a, scaled, uses)."""
    j = base - k
    hi = _HI.take(j)
    hh = _HH.take(j)
    hl = _HL.take(j)
    product = a * hi
    ah, al = _split(a)
    error = ((ah * hh - product) + ah * hl + al * hh) + al * hl
    tail = error + a * _LO.take(j)
    whole = np.floor(tail)
    # product >= 2^53 is a whole number once k is right.
    d = product.astype(np.int64) + whole.astype(np.int64)
    return d, tail - whole, j


def _seventeen(x: np.ndarray, tiny: bool):
    """D in [10^16, 10^17), its fraction, k and the table index of 10^(16−k).

    A tiny x (below _LEAST) is scaled by _TINY, and its power of ten is
    read from the table's scaled section.  log10 can be one off next to
    a power of ten, so D decides k.
    """
    k = np.floor(np.log10(x)).astype(np.int64)
    a, base = (x * _TINY, _TINY_BASE) if tiny else (x, _BASE)
    d, frac, j = _scaled(a, k, base)
    off = np.flatnonzero((d < _E16) | (d >= _E17))
    if off.size:
        k[off] += np.where(d[off] < _E16, -1, 1)
        d[off], frac[off], j[off] = _scaled(a[off], k[off], base)
    return d, frac, k, j


def _rounded(x: np.ndarray, tiny: bool = False):
    """'%.17g' digits: D rounded to nearest, k, and the indices near a tie."""
    d, frac, k, _ = _seventeen(x, tiny)
    near = np.flatnonzero(np.abs(frac - 0.5) < _GUARD)
    d += frac > 0.5
    return _carry(d, k) + (near,)


def _shortest(x: np.ndarray, tiny: bool = False):
    """repr digits: the fewest that read back as x, the nearest of those."""
    d, frac, k, j = _seventeen(x, tiny)
    # Half the gap to each neighbour of x, in units of x·2^256 for a tiny
    # x, and then of V; the gap below is half the one above at a power of
    # two, except at 2^-1022, whose neighbours are both subnormal.
    gap_up = np.spacing(x) * (0.5 * _TINY if tiny else 0.5)
    power_of_two = (x.view(np.int64) & ((1 << 52) - 1)) == 0
    if tiny:
        power_of_two &= x > 2.0**-1022
    gap_down = np.where(power_of_two, 0.5 * gap_up, gap_up)
    hi_j = _HI.take(j)
    up = gap_up * hi_j
    down = gap_down * hi_j
    # The integers strictly inside (V - down, V + up), as [lo, hi].
    if tiny:
        # A subnormal's half-gaps reach 10^16 units: their whole units
        # apart, and their fractions with the table's low part.
        whole_down, whole_up = np.floor(down), np.floor(up)
        lo_j = _LO.take(j)
        low = frac - ((down - whole_down) + gap_down * lo_j)
        high = frac + ((up - whole_up) + gap_up * lo_j)
        lo = d - whole_down.astype(np.int64) + np.floor(low).astype(np.int64) + 1
        hi = d + whole_up.astype(np.int64) + np.ceil(high).astype(np.int64) - 1
    else:
        low = frac - down
        high = frac + up
        lo = d + np.floor(low).astype(np.int64) + 1
        hi = d + np.ceil(high).astype(np.int64) - 1
    near = (np.abs(low - np.rint(low)) < _GUARD) | (np.abs(high - np.rint(high)) < _GUARD)
    # count integers hold a multiple of 10^s, s = ⌊log10 count⌋, and at
    # most one of 10^(s+1), which then has the most trailing zeros.  A
    # normal x has count <= 23: its interval is under 2^-52·V < 23 wide.
    count = hi - lo + 1
    if tiny:
        s = np.searchsorted(_POW10, count, side="right")
    else:
        s = (count >= 10).view(np.int8)
    coarse = _TENS.take(s + 1)
    unique = hi // coarse * coarse
    has_unique = unique >= lo
    # Else the multiple of 10^s nearest V: V lies between two, and one of
    # them is in [lo, hi].  offset is 2(V - below) - 10^s, > 0 past the middle.
    step = _TENS.take(s)
    below = d // step * step
    offset = (2 * (d - below) - step) + 2 * frac
    nearest = below + step * (offset > 0)
    nearest += step * (nearest < lo) - step * (nearest > hi)
    near |= ~has_unique & (np.abs(offset) < 2 * _GUARD)
    near |= count < 1
    digits = np.where(has_unique, unique, nearest)
    return _carry(digits, k) + (np.flatnonzero(near),)


def _carry(d: np.ndarray, k: np.ndarray):
    """Writes 10^17 as 10^16 at the next exponent."""
    top = d == _E17
    d[top] = _E16
    k += top
    return d, k


def _digit_rows(d: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The (len(d), 32) uint8 source rows for d < 10^17 and exponent k,
    and the 4-digit groups of d from the last one up (and its lead digit).
    """
    rows = np.empty((len(d), 8), np.uint32)
    high = d // 10**8
    low = d - high * 10**8
    lead = high // 10**8
    high -= lead * 10**8
    # x - x // c * c, as numpy's % is several times slower than its //.
    low_high = low // 10**4
    high_high = high // 10**4
    groups = [low - low_high * 10**4, low_high, high - high_high * 10**4, high_high, lead]
    for slot, group in zip(range(4, -1, -1), groups):
        rows[:, slot] = _DIGITS4.take(group)
    rows[:, 5] = _EXPONENT.take(k + 330)
    rows[:, 6] = _CONST
    rows[:, 7] = 0
    return rows.view(np.uint8), groups


def _significant(groups: list[np.ndarray]) -> np.ndarray:
    """17 less the trailing zeros of the 17 digits in groups; 1 for 0."""
    zeros = _TRAILING4.take(groups[0])
    # Group by group, where all the lower groups are zero.
    at = np.flatnonzero(groups[0] == 0)
    for group in groups[1:4]:
        if not at.size:
            break
        zeros[at] += _TRAILING4[group[at]]
        at = at[group[at] == 0]
    return 17 - zeros  # 1 where the 16 lower digits are all zero, 0 too


def _render(rows: np.ndarray, keys: np.ndarray, width: int) -> np.ndarray:
    """The first width bytes of each row's text, zero-padded."""
    # np.take copies whole layout rows faster than a slice of them, unless
    # the slice is much shorter, as for integers.
    layout = _LAYOUT if 2 * width > _WIDTH else _LAYOUT[:, :width]
    index = np.add(layout.take(keys, axis=0), np.arange(0, rows.size, 32)[:, None], dtype=np.intp)
    return rows.ravel().take(index)[:, :width]
