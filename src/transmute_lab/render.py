"""CSV cell rendering: every cell as ``fmt_cell`` writes it, with the float
cells of a table rendered in one numpy pass instead of one ``'%.16e' % v``
call each.

At 17 significant digits CPython's float formatting leaves its fast path and
takes the bignum route of David Gay's dtoa, about 0.85 us a cell.  The
kernel ``format_e16`` renders the same bytes in a fixed number of array
operations per table:

1. E = floor(log10|x|).
2. y = |x| 10^(16 - E) as the unevaluated sum hp + t, from Dekker's product
   (Numer. Math. 18, 1971).  The table holds 10^(16 - E) as a high part
   rounded to 26 bits and the correctly rounded remainder lo.  |x| is split
   by Veltkamp into halves ch + cl of 26 bits each, so hp = ch * high and
   cl * high are exact, and t = cl * high + |x| * lo.  Both terms of t are
   at most about 2^-26 y, under 1.7e9 where y < 1.1e17, so the rounding of
   |x| * lo, of lo itself and of the sum leave t within 5.5e-7 of y - hp.
   Where the power is exact in 26 bits (E from 5 to 16), t and y are exact.
3. N = hp + rint(t).  N is the correctly rounded 17-digit significand when
   floor(y) >= 10^16, N < 10^17, and the fraction t - rint(t) is not within
   1e-6 of 1/2, unless y is exact: then rint rounds a tie to even, as
   '%.16e' does.  The lower check is on floor(y), by the sign of
   (hp - 10^16) + t, not on N: 1e-277, whose double lies just below
   10^-277, has log10 = -277 and y just below 10^16, which rounds to
   N = 10^16 at the wrong exponent.  A y less than 5.5e-7 below 10^16 may
   pass; it renders as 1.0000000000000000eE, its correct rounding at E - 1
   too.
4. The 17 digits come from a table of the 10^4 four-digit strings, the sign
   and the lead digit from a table of 20, and the exponent from a table of
   suffixes.
5. A cell that step 3 cannot prove, or whose |x| lies outside
   [1e-280, 1e280], where the products could underflow or overflow, is
   rendered by '%.16e' itself (Gay, "Correctly rounded binary-decimal and
   decimal-binary conversions", 1990).  Zeros render exactly, -0.0 too.

Each cell sits in a slot of 4-byte words, padded with 0xFF, a byte that
never occurs in UTF-8 (a NUL may occur in a string cell), and the rows of a
block of rows form one matrix: one mask drops the padding of every cell,
and the text is decoded once.  Strings, ints, None and every other cell that
is not an exact float go through a per-table lookup of their encoded bytes.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["csv_lines", "fmt_cell", "format_e16"]

_PAD = 0xFF
_PAD_WORD = 0xFFFFFFFF
# a float cell in 4-byte words: sign and lead digit, 16 digits, exponent
_WORDS = 7
# the exponents E whose 10^(16 - E) the product takes: |x| in [1e-280, 1e280]
_E_MIN, _E_MAX = -281, 280
_LO, _HI = 1e-280, 1e280
_VELTKAMP = 134217729.0  # 2^27 + 1
_TIE_BAND = 1e-6
# rows per block: bounds the temporaries at any table size
_BLOCK_ROWS = 512


def fmt_cell(value) -> str:
    """One cell as the CSV writes it: blank for None, floats at 17
    significant digits."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return f"{value:.16e}"


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of a into a high and a low half of 26 bits each."""
    c = _VELTKAMP * a
    high = c - (c - a)
    return high, a - high


def _words(strings: list[bytes], words: int) -> np.ndarray:
    """Byte strings padded with 0xFF to this many 4-byte words each."""
    return np.frombuffer(b"".join(s.ljust(4 * words, b"\xff") for s in strings), np.uint32).reshape(-1, words)


_COMMA, _NEWLINE = _words([b",", b"\n"], 1)[:, 0]


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """Per exponent E in [_E_MIN, _E_MAX]: 10^(16 - E) rounded to 26 bits
    and the remainder, and the suffix 'e+EE'; the sign with the lead digit
    and its point; the four-digit strings.  Built at the first render, the
    remainders by int arithmetic only: int true division rounds correctly."""
    powers = [(10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16)) for e in range(_E_MIN, _E_MAX + 1)]
    highs = _split(np.array([num / den for num, den in powers]))[0]
    lows = np.array([(num * q - p * den) / (den * q)
                     for (num, den), (p, q) in zip(powers, map(float.as_integer_ratio, highs.tolist()))])
    # where the power is exact in 26 bits, y is exact and rint rounds a tie
    # to even, as '%.16e' does
    limits = np.where(lows == 0.0, 0.5, 0.5 - _TIE_BAND)
    suffixes = _words([b"e%+03d" % e for e in range(_E_MIN, _E_MAX + 1)], 2)
    heads = _words([sign + b"%d." % d for sign in (b"", b"-") for d in range(10)], 1)[:, 0]
    d = np.arange(10**4)
    digits = (np.stack([d // 1000, d // 100 % 10, d // 10 % 10, d % 10], axis=1) + ord("0")).astype(np.uint8)
    return highs, lows, limits, suffixes, heads, digits.view(np.uint32)[:, 0]


def format_e16(x: np.ndarray) -> np.ndarray:
    """'%.16e' % v of every v of a float64 array, as an (n, 7) uint32 matrix
    whose rows, viewed as bytes, hold the text padded with 0xFF."""
    highs, lows, limits, suffixes, heads, digits = _tables()
    x = np.asarray(x, dtype=np.float64).ravel()
    a = np.abs(x)
    zero = a == 0.0
    # a zero is rendered as 1.0 with its lead digit 0; NaN turns into 0 here
    # and into _LO below, so that c == a fails for it, as out of range
    a = np.fmax(a, zero)
    c = np.fmax(np.fmin(a, _HI), _LO)
    i = np.floor(np.log10(c)).astype(np.intp) - _E_MIN
    high = highs[i]
    ch, cl = _split(c)
    hp = ch * high
    t = cl * high + c * lows[i]
    r = np.rint(t)
    n = hp.astype(np.int64)
    n += r.astype(np.int64)
    # hp - 1e16 is exact wherever hp >= 2^53, and the rounded sum keeps the
    # sign of the exact one
    proven = (c == a) & ((hp - 1e16) + t >= 0) & (n < 10**17) & (np.abs(t - r) <= limits[i])
    n[zero] = 0
    # the sign rides above the 17 digits, into the index of the lead digit
    n += np.signbit(x) * 10**17
    halves = np.empty((x.size, 2), np.int64)
    np.divmod(n, 10**8, out=(halves[:, 0], halves[:, 1]))
    groups = np.empty((x.size, 4), np.int64)
    np.divmod(halves, 10**4, out=(groups[:, 0::2], groups[:, 1::2]))
    lead, groups[:, 0] = np.divmod(groups[:, 0], 10**4)
    out = np.empty((x.size, _WORDS), np.uint32)
    out[:, 0] = np.take(heads, lead, mode="clip")
    out[:, 1:5] = digits[groups]
    out[:, 5:] = np.take(suffixes, i, axis=0)
    if not proven.all():
        unproven = np.flatnonzero(~proven)
        out[unproven] = _words([b"%.16e" % v for v in x[unproven].tolist()], _WORDS)
    return out


def _codes(col, keys: dict, encoded: list) -> list[int]:
    """The lookup codes of a column's cells, -1 at a float or blank cell;
    cells are keyed by type and value, since True == 1 == 1.0."""
    codes = []
    for cell in col:
        kind = type(cell)
        if kind is float or cell is None:
            codes.append(-1)
            continue
        code = keys.get((kind, cell))
        if code is None:
            code = keys[kind, cell] = len(encoded)
            # surrogatepass keeps any str, a lone surrogate too; no UTF-8
            # byte is 0xFF
            encoded.append(fmt_cell(cell).encode("utf-8", "surrogatepass"))
        codes.append(code)
    return codes


@functools.cache
def _row_template(columns: int, words: int) -> np.ndarray:
    """A row of empty cells: one slot of 4-byte words per cell, its last
    word the separator."""
    template = np.full((columns, words + 1), _PAD_WORD, np.uint32)
    template[:, -1] = _COMMA
    template[-1, -1] = _NEWLINE
    return template


def csv_lines(cells: list, blank: dict[int, np.ndarray]):
    """Yield the CSV text of the rows of these columns, one block of rows at
    a time.  A column is a float64 array or a sequence of cells; ``blank``
    maps an array column's index to the mask of its blank cells.  Each cell
    renders as fmt_cell renders it."""
    n = len(cells[0]) if cells else 0
    if n == 0:
        return
    # the float cells of the table as one matrix, with the positions of its
    # columns; the masks of blank cells; and per column of other cells their
    # codes in the table's lookup of encoded cells
    floats, positions, blanks, others = [], [], [], []
    keys: dict[tuple, int] = {}
    encoded: list[bytes] = []
    for j, col in enumerate(cells):
        if isinstance(col, np.ndarray):
            empty = blank.get(j)
            if empty is not None:
                blanks.append((j, empty))
                col = np.where(empty, 0.0, col)
        else:
            kinds = set(map(type, col))
            if kinds != {float}:
                codes = np.array(_codes(col, keys, encoded))
                if float not in kinds and type(None) not in kinds:
                    others.append((j, codes, None))
                    continue
                present = codes >= 0
                if present.any():
                    others.append((j, codes, present))
                if type(None) in kinds:
                    blanks.append((j, np.array([cell is None for cell in col])))
                col = [cell if type(cell) is float else 0.0 for cell in col]
        floats.append(col)
        positions.append(j)
    values = np.array(floats).T
    words = max(_WORDS, (max(map(len, encoded), default=0) + 3) // 4)
    lookup = _words(encoded, words) if encoded else None
    template = _row_template(len(cells), words)
    for start in range(0, n, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        size = min(n - start, _BLOCK_ROWS)
        block = np.empty((size,) + template.shape, np.uint32)
        block[:] = template
        if positions:
            block[:, positions, :_WORDS] = format_e16(values[rows]).reshape(size, len(positions), _WORDS)
        for j, empty in blanks:
            block[empty[rows], j, :_WORDS] = _PAD_WORD
        for j, codes, present in others:
            if present is None:
                block[:, j, :words] = np.take(lookup, codes[rows], axis=0)
            else:
                block[present[rows].nonzero()[0], j, :words] = np.take(lookup, codes[rows][present[rows]], axis=0)
        text = block.view(np.uint8)
        yield text[text != _PAD].tobytes().decode("utf-8", "surrogatepass")
