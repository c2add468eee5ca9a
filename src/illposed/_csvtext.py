"""The bytes of the CLI's CSV artifacts: a ``# config_hash=<hash>`` line
ended by "\\n", then the header and the rows, cells joined by "," and each
row ended by "\\r\\n" (the csv module's default dialect).  A float cell is
the float's ``repr``, which never needs quoting.
"""

from __future__ import annotations

import csv
import functools

import numpy as np

# Float cells are Python's float repr: the shortest decimal that reads
# back as the same double (Gay's algorithm).  ``render_rows`` finds those
# digits for a block of cells with float64 array arithmetic, the same on
# every platform, and leaves to ``repr`` NaN, the infinities, powers of
# two, magnitudes outside [_LOW, _HIGH) and the rare uncertain cell.
_LOW, _HIGH = 1e-291, 1e300  # 10**(16 - k) and its low part stay normal doubles
_BLOCK_CELLS = 4096  # per ``render_rows`` call: its temporaries stay near 1 MB
_MANTISSA = (1 << 52) - 1
_POWERS = range(-284, 309)  # 16 - k for the k of [_LOW, _HIGH), one either side
_TEXT = 24  # the longest repr, "-2.2250738585072014e-308"
# One character slot per row of the text matrix: 0 sign, 1-5 the "0.000" of
# a fixed-notation value below 1e-1, 6-38 the 17 digits with a slot for a
# point after each of the first 16, 39-43 the exponent "e-308", 44-45 the
# separator.  A cell's text is its column with the NULs taken out.
_WIDTH = 46


def _halves(x: np.ndarray):
    """Veltkamp's split of doubles below 1.3e300 into two of 26 bits each."""
    c = x * 134217729.0  # 2**27 + 1
    high = c - (c - x)
    return high, x - high


@functools.cache
def _tables():
    """The renderer's lookup tables, built on first use.  For e in
    ``_POWERS``, a column of H, H's two 26-bit halves and L: H is 10**e
    correctly rounded and L the rest correctly rounded, both from integer
    arithmetic, so |H + L - 10**e| <= 2**-106 10**e.  The ASCII of n in
    0 ... 9999 as four digits in a uint32, at n + 10000 j with the digits
    from the j-th on NUL.  The trailing zeros of those four digits.  That
    j for each group of four of digits 2-17 (a row), by the digits printed.
    By a cell's point p, at p + 400: the "0.000" prefix of a p in (-4, 0],
    then outside fixed notation "e", sign and three slots of p - 1."""
    high, low = [], []
    for e in _POWERS:
        num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
        h = num / den  # int / int is correctly rounded
        hn, hd = h.as_integer_ratio()
        high.append(h)
        low.append((num * hd - hn * den) / (den * hd))
    halves = [half * 2.0**30 for half in _halves(np.array(high) * 2.0**-30)]  # exact scaling
    zero, n = ord("0"), np.arange(10000)
    quads = sum((zero + n // 10 ** (3 - j) % 10) << 8 * j for j in range(4)).astype("<u4")
    quads = (np.array([(1 << 8 * j) - 1 for j in range(5)], "<u4")[:, None] & quads).ravel()
    zeros = sum(n % 10**j == 0 for j in range(1, 5)).astype(np.uint8)
    kept = 10000 * np.clip(np.arange(18) - np.array([[1], [5], [9], [13]]), 0, 4)
    p = np.arange(-400, 400)
    e, small = abs(p - 1), (p > -4) & (p <= 0)
    marks = np.stack([small * zero, small * ord("."), *((small & (p < -i)) * zero for i in range(3)),
                      np.full(p.size, ord("e")), np.where(p < 1, ord("-"), ord("+")),
                      np.where(e >= 100, zero + e // 100, 0), zero + e // 10 % 10, zero + e % 10])
    marks[5:, (p > -4) & (p <= 16)] = 0
    return np.array([high, *halves, low]), quads, zeros, kept, marks.astype(np.uint8)


def _shortest_digits(a: np.ndarray, significand: np.ndarray):
    """repr's digits of each magnitude in ``a`` (in [_LOW, _HIGH) and not a
    power of two), ``significand`` the 53-bit integer mantissas as floats:
    a 17-digit integer padded with zeros, the decimal exponent k of the
    leading digit, and a mask of the cells whose digits are uncertain.

    s = a 10**(16 - k), k = floor(log10 a), is formed as p + r: p = fl(a H),
    and r is a H - p, exact by Dekker's product over the 26-bit halves of
    a and H, plus fl(a L).  s - p - r is at most 2**-106 s from the table,
    2**-50 from fl(a L) and 2**-49 from the sum, under 4e-15 in all; each
    quantity compared below is within 2e-14 of its true value.  The reals
    between the midpoints to a's neighbours read back as a; away from a
    power of two they are s +- hg with hg = s ulp(a) / (2 a) < 11.2.  repr
    drops as many trailing digits as it can: its digits are the multiple
    of 10**j nearest to s, for the largest j at which that multiple lies
    within hg (if one does at j, one does at every smaller j).  A multiple
    of 100 within hg is the only one, so it and its trailing zeros settle
    every j above 1.  A comparison whose sides lie within 2m = 2**-39, an s
    within 2m of a tie (a multiple of 10 plus 5, an integer plus 0.5), and
    an s within 2 of 1e16 or 64 of 1e17 or outside [1e16, 1e17), where
    log10 missed a power of ten, are uncertain."""
    k = np.floor(np.log10(a)).astype(np.intp)
    power, high, low, tail = _tables()[0].take(16 - _POWERS.start - k, axis=1)
    p = a * power
    ah, al = _halves(a)
    r = ((ah * high - p) + ah * low + al * high) + al * low + a * tail
    floor = np.floor(r)
    whole = p.astype(np.int64) + floor.astype(np.int64)  # p is an integer from 2**53 up
    frac = r - floor
    hg = p * 0.5 / significand
    tens, hundreds = whole // 10, whole // 100
    e10 = (whole - 10 * tens) + frac  # s above the multiple of 10 below it
    e100 = (whole - 100 * hundreds) + frac
    d10 = np.minimum(e10, 10 - e10)  # to the nearest multiple of 10
    d100 = np.minimum(e100, 100 - e100)
    near = np.minimum(np.minimum(np.abs(d10 - hg), np.abs(d100 - hg)),
                      np.minimum(np.abs(e10 - 5), np.abs(frac - 0.5)))
    uncertain = (near <= 2.0**-39) | (p < 1.0000000000000002e16) | (p >= 1e17 - 64)
    digits = np.where(d10 < hg, 10 * (tens + (e10 >= 5)), whole + (frac >= 0.5))
    deep = np.flatnonzero(d100 < hg)
    digits[deep] = 100 * (hundreds[deep] + (e100[deep] >= 50))
    return digits, k, uncertain


def render_rows(block: np.ndarray) -> bytes:
    """The CSV body of a float64 block: each row's cells as their reprs,
    joined by "," and ended by the csv dialect's "\\r\\n".  Python's layout:
    fixed notation while the decimal point p (value 0.d1d2... 10**p) is in
    (-4, 16], as 0.000ddd, dd.ddd or ddd00.0, otherwise d.ddde+XX with no
    point after a lone digit and at least two exponent digits."""
    cells = block.size
    x = block.ravel()
    a = np.abs(x)
    low_bits = x.view(np.uint64) & _MANTISSA
    fast = (a >= _LOW) & (a < _HIGH) & (low_bits != 0)
    slow = ~fast & (a != 0)
    digits = np.zeros(cells, np.int64)  # +-0.0 and the cells left to repr: 0.0
    point = np.ones(cells, np.intp)
    some = slice(None) if fast.all() else fast  # most blocks take no gathers
    digits[some], k, uncertain = _shortest_digits(
        a[some], (low_bits[some] | (1 << 52)).astype(float))
    point[some] = k + 1
    slow[some] |= uncertain
    _, quads, zeros, kept, marks = _tables()

    text = np.empty((_WIDTH, cells), np.uint8)
    text[0] = np.signbit(x) * np.uint8(ord("-"))
    text[1:6], text[39:44] = marks.take(point + 400, axis=1).reshape(2, 5, cells)
    groups = np.empty((4, cells), np.intp)  # digits 2-17, four at a time
    for i in (3, 2, 1, 0):
        higher = digits // 10000
        groups[i] = digits - 10000 * higher
        digits = higher
    text[6] = digits + ord("0")  # what the groups leave is the leading digit
    z = zeros.take(groups)  # 17 digits less the trailing zeros are printed
    count = 17 - (z[3] + (z[3] == 4) * (z[2] + (z[2] == 4) * (z[1] + (z[1] == 4) * z[0])))
    fixed = (point > -4) & (point <= 16)
    # NUL past the last digit printed (a fixed-notation integer prints its
    # zeros up to the point and one after it)
    shown = np.where(fixed, np.maximum(count, point + 1), count)
    quad = quads.take(groups + kept.take(shown, axis=1)).view(np.uint8).reshape(4, cells, 4)
    text[8:40].reshape(4, 8, cells)[:, ::2] = quad.transpose(0, 2, 1)
    text[7:39:2] = 0
    after = np.where(fixed, point - 1, np.where(count > 1, 0, -1))  # the digit before "."
    dots = np.flatnonzero(after >= 0)
    text.ravel()[(7 + 2 * after[dots]) * cells + dots] = ord(".")
    ends = slice(block.shape[1] - 1, None, block.shape[1])  # each row's last cell
    text[44], text[45] = ord(","), 0
    text[44, ends], text[45, ends] = ord("\r"), ord("\n")

    slow = np.flatnonzero(slow)
    if slow.size:
        reprs = "".join(r.ljust(_TEXT, "\0") for r in map(repr, x[slow].tolist()))
        text[:_TEXT, slow] = np.frombuffer(reprs.encode("ascii"), np.uint8).reshape(-1, _TEXT).T
        text[_TEXT:-2, slow] = 0  # all but the separator
    used = np.flatnonzero(text.max(axis=1, initial=0))  # the rows NUL in every cell are not copied
    return text[used].T.tobytes().translate(None, b"\0")


def cell(x) -> str:
    return repr(float(x))


def write_table(path, config_hash: str, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_columns(path, config_hash: str, header, columns) -> None:
    """``write_table``'s bytes for ``header``, whose names need no quoting,
    over the ``cell`` of each entry of the float arrays in ``columns`` side
    by side (a 2-D one gives a cell per column).  ``render_rows`` takes about
    ``_BLOCK_CELLS`` cells at a time, so the whole text is never held."""
    step = max(1, _BLOCK_CELLS // len(header))
    with open(path, "wb") as fh:
        fh.write(f"# config_hash={config_hash}\n{','.join(header)}\r\n".encode())
        for start in range(0, len(columns[0]), step):
            fh.write(render_rows(np.column_stack([c[start:start + step] for c in columns])))
