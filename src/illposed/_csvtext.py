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
_BLOCK_CELLS = 12288  # per ``render_rows`` call, whose scratch peaks at 107-122 B a cell
_MANTISSA = (1 << 52) - 1
_POWERS = range(-284, 309)  # 16 - k for the k of [_LOW, _HIGH), one either side
_TEXT = 24  # the longest repr, "-2.2250738585072014e-308"
# A cell's text is eight little-endian uint32 words, NUL where it prints
# nothing: 0-1 the right-aligned head (sign, the "0.000" of a fixed-notation
# value below 1, first digit, and a point after it), 2-5 digits 2-17, 6-7 the
# right-aligned tail (exponent "e-308", separator).  A point among digits
# 2-17 moves the digits after it a byte on, into word 6.  A block's text is
# its cells' words in turn with the NULs taken out.


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
    By sign, case (0 no point after the first digit, 1 a point, 2-5 "0."
    and 0-3 zeros before it) and first digit, the head's two words.  By
    point p and row end, at p + 400 + 800 end, the tail's two words: "e",
    sign and at least two digits of p - 1 outside fixed notation, then the
    separator.  By p, the byte of 20 (a ".") or of 0-19 that each of 20
    bytes takes to put a point after digit p."""
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
    kept = 10000 * np.clip(np.arange(18, dtype=np.intp) - np.array([[1], [5], [9], [13]]), 0, 4)

    def words(texts):  # each right-aligned in two words
        text = "".join(t.rjust(8, "\0") for t in texts).encode("ascii")
        return np.frombuffer(text, "<u4").reshape(-1, 2).T

    heads = words(sign + head.format(d) for sign in ("", "-") for head in
                  ("{}", "{}.", "0.{}", "0.0{}", "0.00{}", "0.000{}") for d in range(10))
    tails = words(("" if -4 < p <= 16 else f"e{p - 1:+03d}") + end
                  for end in (",", "\r\n") for p in range(-400, 400))
    at, p = np.arange(20), np.arange(17)[:, None]
    spread = np.where(at < p - 1, at, np.where(at == p - 1, 20, at - 1))
    return np.array([high, *halves, low]), quads, zeros, kept, heads, tails, spread


def _shortest_digits(a: np.ndarray, low_bits: np.ndarray):
    """repr's digits of each magnitude in ``a`` (in [_LOW, _HIGH) and not a
    power of two), ``low_bits`` their 52 stored mantissa bits: a 17-digit
    integer padded with zeros, the decimal point k + 1 of the leading
    digit's exponent k, and a mask of the cells whose digits are uncertain.

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
    log10 missed a power of ten, are uncertain.  Each temporary is dropped
    at its last use, to keep a block's peak low."""
    k = np.floor(np.log10(a)).astype(np.intp)
    row = 16 - _POWERS.start - k
    table = _tables()[0]  # H, its two halves, L
    p = a * table[0].take(row)
    ah, al = _halves(a)
    high, low = table[1].take(row), table[2].take(row)
    r = ((ah * high - p) + ah * low + al * high) + al * low + a * table[3].take(row)
    del row, ah, al, high, low
    hg = p * 0.5 / (low_bits | 1 << 52).astype(np.float64)  # over the 53-bit significand
    uncertain = (p < 1.0000000000000002e16) | (p >= 1e17 - 64)
    floor = np.floor(r)
    whole = p.astype(np.int64) + floor.astype(np.int64)  # p is an integer from 2**53 up
    frac = r - floor
    del p, r, floor
    digits = whole + (frac >= 0.5)
    near = np.abs(frac - 0.5)
    tens = whole // 10
    e10 = (whole - 10 * tens) + frac  # s above the multiple of 10 below it
    np.minimum(near, np.abs(e10 - 5), out=near)
    d10 = np.minimum(e10, 10 - e10)  # to the nearest multiple of 10
    np.minimum(near, np.abs(d10 - hg), out=near)
    digits = np.where(d10 < hg, 10 * (tens + (e10 >= 5)), digits)
    del tens, e10, d10
    hundreds = whole // 100
    e100 = (whole - 100 * hundreds) + frac
    d100 = np.minimum(e100, 100 - e100)
    np.minimum(near, np.abs(d100 - hg), out=near)
    deep = np.flatnonzero(d100 < hg)
    digits[deep] = 100 * (hundreds[deep] + (e100[deep] >= 50))
    uncertain |= near <= 2.0**-39
    return digits, k + 1, uncertain


def render_rows(block: np.ndarray) -> bytes:
    """The CSV body of a float64 block: each row's cells as their reprs,
    joined by "," and ended by the csv dialect's "\\r\\n".  Python's layout:
    fixed notation while the decimal point p (value 0.d1d2... 10**p) is in
    (-4, 16], as 0.000ddd, dd.ddd or ddd00.0, otherwise d.ddde+XX with no
    point after a lone digit and at least two exponent digits.  Each word
    of the cells' layout is written a row at a time, over the block."""
    cells = block.size
    x = block.ravel()
    a = np.abs(x)
    low_bits = x.view(np.uint64) & _MANTISSA
    fast = (a >= _LOW) & (a < _HIGH) & (low_bits != 0)
    if fast.all():  # nearly every block: no gathers or scatters
        digits, point, slow = _shortest_digits(a, low_bits)
    else:  # +-0.0 and the cells left to repr: 0.0
        digits, point = np.zeros(cells, np.int64), np.ones(cells, np.intp)
        slow = ~fast & (a != 0)
        a, low_bits = a[fast], low_bits[fast]
        digits[fast], point[fast], slow[fast] = _shortest_digits(a, low_bits)
    del a, low_bits, fast
    slow = np.flatnonzero(slow)
    digits[slow], point[slow] = 0, 1  # laid out as "0.0," until repr's text
    _, quads, zeros, kept, heads, tails, spread = _tables()

    groups = np.empty((4, cells), np.intp)  # digits 2-17, four at a time
    for i in (3, 2, 1, 0):
        higher = digits // 10000
        groups[i] = digits - 10000 * higher
        digits = higher  # what the groups leave is the leading digit
    z = zeros.take(groups)  # 17 digits less the trailing zeros are printed
    count = 17 - (z[3] + (z[3] == 4) * (z[2] + (z[2] == 4) * (z[1] + (z[1] == 4) * z[0])))
    fixed = (point > -4) & (point <= 16)
    # NUL past the last digit printed (a fixed-notation integer prints its
    # zeros up to the point and one after it)
    groups += kept.take(np.where(fixed, np.maximum(count, point + 1), count), axis=1)
    text = np.empty((8, cells), "<u4")
    text[2:6] = quads.take(groups)
    del groups
    case = np.where(fixed, np.maximum(2 - point, 0), count > 1)
    text[:2] = heads.take(digits + 10 * case + 60 * np.signbit(x), axis=1)
    tail = point + 400
    tail[block.shape[1] - 1::block.shape[1]] += 800  # each row's last cell
    text[6:] = tails.take(tail, axis=1)
    inner = np.flatnonzero(fixed & (point > 1))  # the point follows digit p of 2-16
    if inner.size:  # words 2-6 and a "." word, each byte taken from its source
        moved = np.empty((inner.size, 6), "<u4")
        moved[:, :5], moved[:, 5] = text[2:7, inner].T, ord(".")
        at = spread.take(point[inner], axis=0) + 24 * np.arange(inner.size)[:, None]
        text[2:7, inner] = moved.view(np.uint8).take(at).view("<u4").T
    if slow.size:
        reprs = "".join(r.ljust(_TEXT, "\0") for r in map(repr, x[slow].tolist()))
        text[:6, slow] = np.frombuffer(reprs.encode("ascii"), "<u4").reshape(-1, 6).T
    text = text.T.tobytes()  # the word matrix goes before the copy without NULs
    return text.translate(None, b"\0")


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
    ``_BLOCK_CELLS`` cells (whole rows) at a time, so the whole text is never
    held and a block of an n = 256 trajectory peaks at 1.3 to 1.5 MB.  The
    bytes do not depend on the block size."""
    step = max(1, _BLOCK_CELLS // len(header))
    with open(path, "wb") as fh:
        fh.write(f"# config_hash={config_hash}\n{','.join(header)}\r\n".encode())
        for start in range(0, len(columns[0]), step):
            fh.write(render_rows(np.column_stack([c[start:start + step] for c in columns])))
