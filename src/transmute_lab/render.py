"""Table cell rendering: every cell as ``fmt_cell`` (CSV) or ``json_cell``
(JSON) writes it, with the float cells of a table rendered in one numpy pass
instead of one ``'%.16e' % v`` or ``repr(v)`` call each.

Both formats take CPython's bignum route of David Gay's dtoa for every float
(Gay, "Correctly rounded binary-decimal and decimal-binary conversions",
1990): '%.16e' since its 17 digits leave the fast path, repr since its
shortest-digit mode always does; about 0.9 us a cell.  The kernels render
the same bytes in a fixed number of array operations per table, from one
digit core, ``digits17``:

1. E = floor(log10|x|), from the biased exponent k of |x| (bits >> 52):
   floor((k - 1023) log10 2) or one more, as a table of the smallest double
   >= 10^(E + 1) tells.  E is exact, so 10^16 <= y < 10^17 below.
2. y = c p, c = |x| 2^s and p = 10^(16 - E) 2^-s, s about -E log2 10 per
   row: both stay normal for any normal |x|.  y is the unevaluated sum hp +
   t, from Dekker's product (Numer. Math. 18, 1971).  The table holds p as a
   high part rounded to 26 bits and the correctly rounded remainder lo.  c
   is split into a high part ch of 27 bits and cl of 26 (its bits cut), so
   hp = ch * high and cl * high are exact, and t = cl * high + c * lo.  Both
   terms of t are at most about 2^-26 y, under 1.7e9 where y < 1.1e17, so
   the rounding of c * lo, of lo itself and of the sum leave t within 5.5e-7
   of y - hp.  Where p is exact in 26 bits (E from 5 to 16), t and y are
   exact.
3. N = hp + rint(t), with the residual t - rint(t).  N is the correctly
   rounded 17-digit significand where the residual is not within 1e-6 of
   1/2, unless y is exact: then rint rounds a tie to even, as '%.16e' does.
   An N of 10^17 (y within 1/2 below it) is 10^16 at E + 1.  A cell that
   step 3 cannot prove, or that is subnormal or not finite, is rendered by
   '%.16e' or repr itself.  Zeros render exactly, -0.0 too.

``format_e16`` lays N out as '%.16e': the 17 digits from a table of the
10^4 four-digit strings, the sign and the lead digit from a table of 20, the
exponent from a table of suffixes.

``format_repr`` finds repr's shortest digits in y's units.  The half-ulp of
|x| = f 2^b (np.frexp) is h = p 2^(b + s - 54), in [0.55, 11]; below a
power of two (f = 1/2) the doubles lie twice as dense, and the interval
reaches h/2 down.  Every decimal whose digits round-trip lies strictly
inside the interval around y, so repr takes the integer inside it with the
most trailing zeros, the nearest to y among those: a multiple of 100 occurs
there at most once (the interval is at most 22 wide), else the nearest
multiple of 10 inside, else N itself.  Per level s = 10, 100 the candidates
are N - (N mod s) and the multiple above it, at distances (N mod s) +
residual and s minus that.  Rounding up to 10^17 carries to one digit at
E + 1.  A cell falls back to repr where the end of the interval lies within
1e-6 of a candidate that the other one does not beat, where y lies within
1e-6 of the midpoint of two candidates inside (repr then rounds the last
digit to even), or on any fallback of step 3; there a non-finite cell
raises ValueError, as json.dump(allow_nan=False) does.  repr writes a
decimal point position E + 1 below -3 or above 16 in exponent form (at
least two exponent digits), the others in fixed form, with a trailing '.0'
where it has no point.  The cell holds the sign, '0.000', the 17 digits
each followed by a slot for the point, and the exponent suffix, from byte
tables; the mask of its layout (by digit count and point position or
exponent form) drops what the cell does not show and sets its point.

Each cell sits in a slot of 4-byte words, padded with 0xFF, a byte that
never occurs in UTF-8 (a NUL may occur in a string cell), inside the frame
of its row (',' or '\\n' for CSV, '      cell,\\n' for JSON), and the rows of
a block of rows form one matrix, whose bytes drop the padding of every cell
at once (bytes.translate) and are yielded as they are: the table reaches
its file as these bytes, with no text in between.  A block holds at most
512 rows and 240 KiB; one buffer serves all blocks of a table, and the
kernels gather into contiguous arrays that are copied into their columns.
A column is (name, description, cells) or (name, description, cells,
blank), as the CLI declares it: its cells a float64 array, with blank the
mask of its blank (None) cells or None, or a label column (labels, codes),
an int or bool array codes indexing a tuple of distinct str or int labels;
any other label raises TypeError.  Each label of a table is encoded once,
and the label and blank cells take their bytes from that per-table lookup
by code; a column whose codes are all equal is written into the row
template.
"""

from __future__ import annotations

import functools
import math
from json.encoder import encode_basestring_ascii

import numpy as np

__all__ = ["csv_lines", "digits17", "fmt_cell", "format_e16", "format_repr", "json_cell", "json_lines", "row_count"]

_PAD_WORD = 0xFFFFFFFF
# a '%.16e' cell in 4-byte words: sign and lead digit, 16 digits, exponent
_E16_WORDS = 7
# the decimal exponents E of the normal doubles
_E_MIN, _E_MAX = -308, 308
_TIE_BAND = 1e-6
# the operands of the kernels' array operations, as 0-d arrays: a Python
# number costs each call a conversion, a third of it on small tables
_TINY, _MAX = np.array(2.0**-1022), np.array(1.7976931348623157e308)
_HIGH27 = np.array(0xFFFFFFFFFC000000, np.uint64)  # the top 27 bits of a double
_ZERO, _HALF, _MANTISSA_BITS = np.array(0.0), np.array(0.5), np.array(52)
_TEN, _10E4, _10E8, _10E17 = (np.array(10**k) for k in (1, 4, 8, 17))
# rows per block at most: the kernels' temporaries, about 110 bytes per
# float cell for '%.16e' and 330 for repr, are a table's peak memory
_BLOCK_ROWS = 512
# bytes per block at most, so that wide rows (JSON) go in fewer rows per
# block.  On a 2-core x86-64 VM 240 KiB rendered 5,000-row tables the
# fastest of 120-480 KiB: smaller blocks pay the kernels' fixed cost of
# some 60-80 numpy operations more often, and larger ones make temporaries
# that glibc's malloc gives back to the system after each block and faults
# in again at the next
_BLOCK_BYTES = 240 << 10


def fmt_cell(value) -> str:
    """One cell or footer value as the CSV writes it: blank for None,
    floats at 17 significant digits."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return f"{value:.16e}"


def json_cell(value: str | int | float | None) -> str:
    """A None, bool, int, float or str value as json.dump(allow_nan=False)
    writes it, or refuses to: a non-finite float raises ValueError."""
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_float(value)
    # this is json.dumps's own string encoder
    return encode_basestring_ascii(value)


def _words(strings: list[bytes], words: int, dtype=np.uint32) -> np.ndarray:
    """Byte strings padded with 0xFF to this many words each."""
    size = np.dtype(dtype).itemsize * words
    return np.frombuffer(b"".join(s.ljust(size, b"\xff") for s in strings), dtype).reshape(-1, words)


def _by_exponent(values) -> np.ndarray:
    """A table of these values for E = _E_MIN ... _E_MAX + 1 that is indexed
    by E itself: a negative E counts from its end."""
    return np.roll(np.asarray(values), _E_MIN, axis=0)


@functools.cache
def _powers() -> tuple[np.ndarray, ...]:
    """Per exponent E: p = 10^(16 - E) 2^-s rounded to 26 bits, the rest,
    the residual bound of step 3, the smallest double >= 10^(E + 1), p 2^-54
    and the shift s; per biased binary exponent k of a double (its bits >>
    52) floor((k - 1023) log10 2).  Built at the first render, by int
    arithmetic only: int true division rounds correctly."""
    exponents = range(_E_MIN, _E_MAX + 2)
    shifts = [round(-e * math.log2(10.0)) for e in exponents]
    highs, lows = np.empty(len(exponents)), np.empty(len(exponents))
    for i, (e, s) in enumerate(zip(exponents, shifts)):
        num, den = 10 ** max(16 - e, 0) << max(-s, 0), 10 ** max(e - 16, 0) << max(s, 0)
        # Veltkamp's split of p = num/den rounds to the top 26 bits
        c = 134217729.0 * (num / den)
        highs[i] = c - (c - num / den)
        p, q = float(highs[i]).as_integer_ratio()
        lows[i] = (num * q - p * den) / (den * q)
    # where the power is exact in 26 bits, y is exact and rint rounds a tie
    # to even, as '%.16e' does
    limits = np.where(lows == 0.0, 0.5, 0.5 - _TIE_BAND)
    above = []
    for e in exponents[:-2]:
        num, den = (10 ** (e + 1), 1) if e >= -1 else (1, 10 ** -(e + 1))
        p, q = (num / den).as_integer_ratio()
        above.append(num / den if p * den >= num * q else np.nextafter(num / den, np.inf))
    # no double reaches 10^309
    above += [math.inf] * 2
    # exact in this integer form for |k - 1023| < 1650
    first = (np.arange(2048) - 1023) * 78913 >> 18
    tables = (highs, lows, limits, above, np.ldexp(highs + lows, -54), np.array(shifts, np.intc))
    return tuple(map(_by_exponent, tables)) + (first,)


@functools.cache
def _digit_words() -> np.ndarray:
    """The four-digit strings 0000 ... 9999 as 4-byte words."""
    d = np.arange(10**4)
    digits = (np.stack([d // 1000, d // 100 % 10, d // 10 % 10, d % 10], axis=1) + ord("0")).astype(np.uint8)
    return digits.view(np.uint32)[:, 0]


def digits17(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """The digit core of both layouts, per v of a 1-d float64 array: the
    decimal exponent E of |v|, the 17-digit significand N (0 for a zero),
    the residual y - N in units of N's last digit, whether N and the
    residual are proven to within 5.5e-7, and |v| clamped to the normal
    doubles, 1.0 for a zero; see the module docstring."""
    highs, lows, limits, above, _, shifts, first = _powers()
    # the operations write into their operands where they can: fewer live
    # arrays per block
    a = np.abs(x)
    zero = a == _ZERO
    # a zero is rendered as 1.0 with its lead digit 0; NaN turns into 0 here
    # and into _TINY below, so that c == a fails for it, as for a subnormal
    # and an infinity
    np.fmax(a, zero, out=a)
    c = np.fmin(a, _MAX)
    np.fmax(c, _TINY, out=c)
    # 2^(k-1023) <= c < 2^(k-1022), k the biased exponent of c: E is
    # floor((k - 1023) log10 2) or one more
    e = first[c.view(np.int64) >> _MANTISSA_BITS]
    e += c >= above[e]
    # cs = c 2^s, exactly, = ch + cl, ch of 27 bits and cl of 26, so that
    # hp = ch * high and cl * high are exact; t = cl * high + cs * lo
    cs = np.ldexp(c, shifts[e])
    high = highs[e]
    ch = (cs.view(np.uint64) & _HIGH27).view(np.float64)
    t = cs - ch
    t *= high
    t += cs * lows[e]
    n = (ch * high).astype(np.int64)
    r = np.rint(t)
    n += r.astype(np.int64)
    residual = np.subtract(t, r, out=t)
    proven = (c == a) & (np.abs(residual) <= limits[e])
    n[zero] = 0
    # y within 1/2 below 10^17 rounds to 10^17: 10^16 at E + 1
    if x.size and n.max() == 10**17:
        carry = n == _10E17
        n[carry] = 10**16
        e[carry] += 1
        residual[carry] /= 10
    return e, n, residual, proven, c


def _fallback(out: np.ndarray, x: np.ndarray, proven: np.ndarray, fmt) -> np.ndarray:
    """Each unproven cell of out rendered by fmt itself."""
    if not proven.all():
        unproven = np.flatnonzero(~proven)
        out[unproven] = _words([fmt(v).encode() for v in x[unproven].tolist()], out.shape[1], out.dtype)
    return out


def _columns(out: np.ndarray, first: int, rows: np.ndarray) -> None:
    """Copy each row of a gathered array into a column of out, from column
    first on.  The kernels gather from their byte tables into contiguous
    arrays, since take into a column stages it through a temporary, and
    copy them one column at a time, since numpy copies a narrow 2-d block
    row by row."""
    for k, row in enumerate(rows, first):
        out[:, k] = row


def _groups(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """n // 10^16 and, as the rows of a (4, n) array, the four-digit groups
    of n % 10^16: floor division by a scalar and a product, which numpy
    runs several times faster than divmod or %."""
    groups = np.empty((4, n.size), np.int64)
    np.floor_divide(n, _10E8, out=groups[1])
    np.subtract(n, groups[1] * _10E8, out=groups[3])
    np.floor_divide(groups[1::2], _10E4, out=groups[0::2])
    groups[1::2] -= groups[0::2] * _10E4
    lead = groups[0] // _10E4
    groups[0] -= lead * _10E4
    return lead, groups


@functools.cache
def _suffixes() -> np.ndarray:
    """The exponent suffix 'e+EE' per E, as one 8-byte word."""
    return _by_exponent(_words([b"e%+03d" % e for e in range(_E_MIN, _E_MAX + 2)], 1, np.uint64)[:, 0])


@functools.cache
def _e16_heads() -> np.ndarray:
    """The sign with the lead digit and its point."""
    return _words([sign + b"%d." % d for sign in (b"", b"-") for d in range(10)], 1)[:, 0]


def format_e16(x: np.ndarray) -> np.ndarray:
    """'%.16e' % v of every v of a float64 array, as an (n, 7) uint32 matrix
    whose rows, viewed as bytes, hold the text padded with 0xFF."""
    x = np.asarray(x, dtype=np.float64).ravel()
    e, n, _, proven, _ = digits17(x)
    lead, groups = _groups(n)
    # the sign picks the second ten heads
    lead += np.signbit(x) * _TEN
    # the cell in words 1-7 of 8, so that its suffix is one aligned word
    words = np.empty((x.size, _E16_WORDS + 1), np.uint32)
    words[:, 1] = _e16_heads().take(lead, mode="clip")
    _columns(words, 2, _digit_words().take(groups, mode="wrap"))
    words.view(np.uint64)[:, 3] = _suffixes().take(e, mode="wrap")
    return _fallback(words[:, 1:], x, proven, "%.16e".__mod__)


# a repr in 8-byte words: the sign, the fixed form's leading '0.000' and
# the lead digit, then the other 16 digits, each digit followed by a slot
# for the point, then the exponent suffix.  The mask of the cell's layout
# drops, as 0xFF, what it does not show, and sets the point.
_REPR_WORDS = 6
# fixed-form point positions -3 ... 16, then the exponent form
_LAYOUT_POINTS = 21
# per level s = 10, 100 (rows): s, as ints and as floats, and s/2
_LEVELS = np.array([[10], [100]])
_LEVEL_SIZES, _LEVEL_HALVES = _LEVELS * 1.0, _LEVELS * 0.5
# the offset of group k's rows in the table of last nonzero digits
_GROUP_OFFSETS = np.arange(4)[:, None] * 10**4


@functools.cache
def _repr_tables() -> tuple[np.ndarray, ...]:
    """The sign, '0.000' and the lead digit; the four-digit strings, each
    digit followed by a point slot; per group k and four-digit string g (at
    k 10^4 + g) the position 4k + j + 1 among the 16 digits after the lead
    digit of g's last nonzero digit j, or 0; per such position, which is
    the digit count less one, and per E the layout (digit count, and point
    position or exponent form); per layout its mask."""
    heads = _words([sign + b"0.000%d\0" % d for sign in (b"\xff", b"-") for d in range(10)], 1, np.uint64)[:, 0]
    d = np.arange(10**4)
    digits = np.zeros((10**4, 8), np.uint8)
    digits[:, ::2] = np.stack([d // 1000, d // 100 % 10, d // 10 % 10, d % 10], axis=1) + ord("0")
    last = np.max([(d // 10 ** (3 - j) % 10 != 0) * (j + 1) for j in range(4)], axis=0)
    ends = np.where(last > 0, 4 * np.arange(4)[:, None] + last, 0).astype(np.int8).ravel()
    columns = _by_exponent([20 if not -3 <= e + 1 <= 16 else e + 4 for e in range(_E_MIN, _E_MAX + 2)])
    layouts = (np.arange(17)[:, None] * _LAYOUT_POINTS + columns).astype(np.int16)
    masks = []
    for count in range(1, 18):
        for at in range(-3, 18):
            mask = bytearray(b"\0" + b"\xff" * (8 * _REPR_WORDS - 1))
            # digit j at byte 6 + 2j, its point slot after it
            if at == 17:  # the exponent form
                shown, point = count, 1 if count > 1 else None
                mask[-8:] = bytes(8)
            elif at <= 0:
                shown, point = count, None
                mask[1:3 - at] = bytes(2 - at)
            else:
                shown, point = max(count, at + 1), at
            for j in range(shown):
                mask[6 + 2 * j] = 0
            if point is not None:
                mask[5 + 2 * point] = ord(".")
            masks.append(bytes(mask))
    return heads, digits.view(np.uint64)[:, 0], ends, layouts, _words(masks, _REPR_WORDS, np.uint64)


def _json_float(value: float) -> str:
    """A float as json.dump(allow_nan=False) writes it, or refuses to."""
    if value - value != 0.0:
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


def format_repr(x: np.ndarray) -> np.ndarray:
    """repr(v) of every v of a float64 array, as an (n, 12) uint32 matrix
    whose rows, viewed as bytes, hold the text padded with 0xFF; a
    non-finite v raises ValueError, as in json.dump(allow_nan=False)."""
    scales, shifts = _powers()[4:6]
    heads, digits, ends, layouts, masks = _repr_tables()
    x = np.asarray(x, dtype=np.float64).ravel()
    e, n, residual, proven, c = digits17(x)
    # the half-ulp of |v| = f 2^b in units of N's last digit, above y and
    # below it, p 2^(b + s - 54): below a power of two (f = 1/2), where the
    # doubles lie twice as dense, half that
    f, b = np.frexp(c)
    b += shifts[e]
    scale = scales[e]
    above = np.ldexp(scale, b)
    below = np.ldexp(scale, b - (f == _HALF))
    # per level s = 10, 100 (rows): R = N mod s, the distance from y down
    # to N - R and up to N - R + s, less the half-ulp on that side (the
    # multiple lies inside the interval where it is negative), and the
    # distance down less s/2 (the one below is as near where it is not
    # positive)
    rem = n % _LEVELS
    down = rem + residual
    off = np.empty((3,) + rem.shape)
    np.subtract(down, below, out=off[0])
    np.subtract(_LEVEL_SIZES - down, above, out=off[1])
    np.subtract(down, _LEVEL_HALVES, out=off[2])
    inside = off[:2] < _ZERO
    nearer = off[2] <= _ZERO
    # the one above is taken where it lies inside, unless the one below
    # does and is as near
    lower = inside[0] & nearer
    upper = inside[1] & ~lower
    # an end within 1e-6 decides nothing where the other one wins; nor does
    # a tie
    if np.abs(off).min(initial=1.0) <= _TIE_BAND:
        edge = np.abs(off) <= _TIE_BAND
        doubt = (edge[0] & nearer) | (edge[1] & ~lower) | (edge[2] & inside[0] & inside[1])
        proven &= ~(doubt[0] | doubt[1])
    # the shortest digits: the multiple of 100, else of 10, else N itself
    shift = upper * _LEVELS - rem
    accepted = inside[0] | inside[1]
    m = n + np.where(accepted[1], shift[1], shift[0] * accepted[0])
    if x.size and m.max() == 10**17:
        carry = m == _10E17
        m[carry] = 10**16
        e[carry] += 1
    lead, groups = _groups(m)
    # the sign picks the second ten heads
    lead += np.signbit(x) * _TEN
    out = np.empty((x.size, _REPR_WORDS), np.uint64)
    out[:, 0] = heads.take(lead, mode="clip")
    _columns(out, 1, digits.take(groups, mode="wrap"))
    out[:, 5] = _suffixes().take(e, mode="wrap")
    # the digit count less one: the position of the last nonzero digit
    count = ends.take(groups + _GROUP_OFFSETS).max(axis=0)
    out |= masks.take(layouts[count, e], axis=0)
    return _fallback(out, x, proven, _json_float).view(np.uint32)


_COMMA, _NEWLINE = b",", b"\n"
# a rendered float cell as one numpy void, per kernel width in words
_CELL_TYPES = {words: np.dtype((np.void, 4 * words)) for words in (_E16_WORDS, 2 * _REPR_WORDS)}
# a JSON row: its cells at depth 3 of the document, the row at depth 2
_JSON_FRAME = (b"    [\n      ", b"      ", b",\n", b"\n    ],\n")


@functools.cache
def _row_template(columns: int, words: int, frame: tuple[bytes, ...]) -> tuple[np.ndarray, int]:
    """A row of empty cells: per cell a slot of 4-byte words, its prefix
    (that of the first cell, or of the others), its cell, and its suffix
    (that of the others, or of the last cell); and the prefix words."""
    first, prefix, suffix, last = frame
    before = -(-max(len(first), len(prefix)) // 4)
    after = -(-max(len(suffix), len(last)) // 4)
    template = np.full((columns, before + words + after), _PAD_WORD, np.uint32)
    if before:
        template[:, :before] = _words([prefix], before)
        template[0, :before] = _words([first], before)
    template[:, before + words:] = _words([suffix], after)
    template[-1, before + words:] = _words([last], after)
    return template, before


def row_count(columns: list[tuple]) -> int:
    """The rows of a table: its first column's cells, or their codes."""
    cells = columns[0][2] if columns else np.empty(0)
    return len(cells) if isinstance(cells, np.ndarray) else len(cells[1])


def _lines(columns: list[tuple], kernel, float_words: int, encode, frame):
    """The bytes of the rows of these columns, one block of rows at a time;
    see csv_lines."""
    n = row_count(columns)
    if n == 0:
        return
    # the float columns of the table, with their positions; the masks of
    # blank cells; per label column the rows of its cells in the table's
    # lookup of encoded labels, or the one row of all its cells
    floats, positions, blanks, others, constants = [], [], [], [], []
    label_rows: dict[str | int, int] = {}
    for j, (_, _, col, *blank) in enumerate(columns):
        if isinstance(col, np.ndarray):
            empty = blank[0] if blank else None
            if empty is not None:
                blanks.append((j, empty))
                col = np.where(empty, 0.0, col)
            floats.append(col)
            positions.append(j)
            continue
        labels, codes = col
        if not set(map(type, labels)) <= {str, int}:
            raise TypeError(f"column {j} has a label that is neither str nor int")
        # str and int labels never compare equal: one lookup serves both
        rows_of = [label_rows.setdefault(value, len(label_rows)) for value in labels]
        # a column of one label or of one row takes no array operation
        if len(rows_of) == 1 or n == 1 or (codes == codes[0]).all():
            constants.append((j, rows_of[int(codes[0])]))
        else:
            others.append((j, np.array(rows_of, np.intp).take(codes)))
    # surrogatepass keeps any str, a lone surrogate too; no UTF-8 byte is 0xFF
    encoded = [encode(value).encode("utf-8", "surrogatepass") for value in label_rows]
    words = max(float_words, (max(map(len, encoded), default=0) + 3) // 4)
    lookup = _words(encoded + [encode(None).encode()], words)
    template, before = _row_template(len(columns), words, frame)
    cell = slice(before, before + words)
    # a column whose codes are all equal is written into the template
    if constants:
        template = template.copy()
        for j, row in constants:
            template[j, cell] = lookup[row]
    if positions and positions[-1] - positions[0] == len(positions) - 1:
        positions = slice(positions[0], positions[-1] + 1)
    cell_type = _CELL_TYPES[float_words]
    # one buffer serves every block of the table
    block_rows = max(1, min(_BLOCK_ROWS, _BLOCK_BYTES // template.nbytes))
    buffer = np.empty((min(n, block_rows),) + template.shape, np.uint32)
    for start in range(0, n, block_rows):
        rows = slice(start, start + block_rows)
        block = buffer[:n - start]
        block[:] = template
        if floats:
            # the float cells of the block column by column, as one array;
            # each rendered cell is copied whole, as one numpy void
            x = np.concatenate([col[rows] for col in floats])
            slots = block[:, :, before:before + float_words].view(cell_type)[..., 0]
            slots[:, positions] = kernel(x).view(cell_type).reshape(len(floats), len(block)).T
        for j, empty in blanks:
            block[empty[rows], j, cell] = lookup[-1]
        for j, cell_rows in others:
            block[:, j, cell] = lookup[cell_rows[rows]]
        yield block.tobytes().translate(None, b"\xff")


def csv_lines(columns: list[tuple]):
    """Yield the CSV bytes (UTF-8) of the rows of these columns, one block
    of rows at a time.  A column is (name, description, cells) or (name,
    description, cells, blank): its cells a float64 array, with blank the
    mask of its blank cells or None, or (labels, codes), an int or bool
    array codes indexing a tuple of distinct str or int labels.  Each cell
    renders as fmt_cell renders it."""
    return _lines(columns, format_e16, _E16_WORDS, fmt_cell, (b"", b"", _COMMA, _NEWLINE))


def json_lines(columns: list[tuple]):
    """Yield the rows of these columns, in bytes, as elements of the rows
    array of a JSON table document, each row followed by ',\\n', one block
    of rows at a time; as csv_lines, with blank cells null and each cell
    rendered as json.dump(indent=2, sort_keys=True, allow_nan=False)
    renders it: a float by repr, and a non-finite float raises
    ValueError."""
    return _lines(columns, format_repr, 2 * _REPR_WORDS, json_cell, _JSON_FRAME)
