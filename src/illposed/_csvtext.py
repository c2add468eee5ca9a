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
# digits for a whole block of cells with array arithmetic, and leaves each
# cell whose digits it cannot certify to ``repr`` itself.  The certificate
# needs the x87 80-bit long double and its 64-bit mantissa; with any other
# long double every cell goes to ``repr``.
_EXTENDED = np.finfo(np.longdouble).nmant == 63
_BLOCK_CELLS = 4096  # per ``render_rows`` call: its temporaries stay near 1 MB
_MANTISSA = (1 << 52) - 1
_TEXT = 24  # the longest repr, "-2.2250738585072014e-308"
# One character slot per row of the text matrix: 0 sign, 1-5 the "0.000" of
# a fixed-notation value below 1e-1, 6-38 the 17 digits with a slot for a
# point after each of the first 16, 39-43 the exponent "e-308", 44-45 the
# separator.  A cell's text is its column with the NULs taken out.
_WIDTH = 46
_SLOT = np.arange(17, dtype=np.int16)[:, None]


@functools.cache
def _tables():
    """The renderer's lookup tables, built on first use.  10**j at j + 400
    for j in [-400, 400), in extended precision: parsed from "1e{j}" and
    correctly rounded, so each is within 2**-64 of 10**j, relative.  The
    ASCII digits of 0 ... 9999 as one uint32 each.  The exponent text of E
    in [-400, 400) as one uint32 each at E + 401: sign, then three digit
    slots, the first NUL below 100; entry 0 is all NUL, for a cell without
    an exponent."""
    powers = np.array([f"1e{j}" for j in range(-400, 400)], dtype=np.longdouble)
    zero = ord("0")
    n = np.arange(10000)[:, None]
    quads = (zero + n // np.array([1000, 100, 10, 1]) % 10).astype(np.uint8)
    e = np.arange(-401, 400)
    exponents = np.stack([np.where(e < 0, ord("-"), ord("+")),
                          np.where(abs(e) >= 100, zero + abs(e) // 100, 0),
                          zero + abs(e) // 10 % 10, zero + abs(e) % 10], axis=1).astype(np.uint8)
    exponents[0] = 0
    return powers, quads.view(np.uint32).ravel(), exponents.view(np.uint32).ravel()


def _shortest_digits(a: np.ndarray, significand: np.ndarray):
    """repr's digits of each magnitude in ``a`` (normal, below 1e300 and
    not a power of two), ``significand`` the 53-bit integer mantissas as
    floats.  Returns the digits as a 17-digit integer padded with zeros,
    their count, the decimal exponent k of the leading digit, and a mask of
    the cells whose digits are uncertain.

    s = a 10**(16 - k) in [1e16, 1e17) is formed in extended precision to
    within s 2**-63: the table entry and the product each err by at most
    2**-64 relative.  The reals between the midpoints to a's neighbours read
    back as a; away from a power of two that interval is s +- hg with
    hg = s ulp(a) / (2 a) < 11.2 in units of s.  repr drops as many trailing
    digits as it can: its digits are the multiple of 10**j nearest to s,
    for the largest j at which that multiple lies within hg (if one does at
    j, one does at every smaller j).  A multiple of 100 within hg is then
    the only one, so that multiple and its trailing zeros settle every j
    above 1.  A comparison within 2m of its threshold, m = s 2**-61, a tie
    between the two multiples of 10 around s, a 17-digit rounding within
    m of 0.5, and an s within 2 of 1e16 or 64 of 1e17 are uncertain."""
    powers = _tables()[0]
    k = np.floor(np.log10(a)).astype(np.intp)
    wide = a.astype(np.longdouble)
    s = wide * powers[416 - k]
    near = s.astype(float)
    shift = (near >= 1e17).astype(np.intp) - (near < 1e16)  # log10 missed a power of ten
    moved = np.flatnonzero(shift)
    if moved.size:
        k[moved] += shift[moved]
        s[moved] = wide[moved] * powers[416 - k[moved]]
        near[moved] = s[moved]
    whole = s.astype(np.int64)  # floor, as s > 0
    frac = (s - whole).astype(float)  # exact in extended precision
    s = near
    m2 = s * 2.0 ** -60  # 2m
    hg = s * 0.5 / significand
    tens, hundreds = whole // 10, whole // 100
    e10 = (whole - 10 * tens) + frac  # s above the multiple of 10 below it
    e100 = (whole - 100 * hundreds) + frac
    d10 = np.minimum(e10, 10 - e10)  # to the nearest multiple of 10
    d100 = np.minimum(e100, 100 - e100)
    in10, in100 = d10 < hg - m2, d100 < hg - m2
    uncertain = ((s < 1.0000000000000002e16) | (s >= 1e17 - 64)
                 | (np.abs(d10 - hg) <= m2) | (np.abs(d100 - hg) <= m2)
                 | ((np.abs(e10 - 5) <= 0.5 * m2) & (d10 < hg + m2))
                 | (~in10 & (np.abs(frac - 0.5) <= 0.5 * m2)))
    digits = np.where(in10, 10 * (tens + (e10 >= 5)), whole + (frac >= 0.5))
    count = np.where(in10, 16, 17)
    deep = np.flatnonzero(in100)
    if deep.size:
        lead = 100 * (hundreds[deep] + (e100[deep] >= 50))
        digits[deep] = lead
        zeros = lead[:, None] % 10 ** np.arange(3, 17, dtype=np.int64) == 0
        count[deep] = 15 - zeros.sum(axis=1)
    return digits, count, k, uncertain


def render_rows(block: np.ndarray) -> bytes:
    """The CSV body of a float64 block: each row's cells as their reprs,
    joined by "," and ended by the csv dialect's "\\r\\n".  Python's layout:
    fixed notation while the decimal point p (value 0.d1d2... 10**p) is in
    (-4, 16], as 0.000ddd, dd.ddd or ddd00.0, otherwise d.ddde+XX with no
    point after a lone digit and at least two exponent digits."""
    cells = block.size
    x = block.ravel()
    a = np.abs(x)
    digits = np.zeros(cells, np.int64)  # +-0.0 and the cells left to repr: 0.0
    count = np.ones(cells, np.int16)
    point = np.ones(cells, np.int16)
    if _EXTENDED:
        low_bits = x.view(np.uint64) & _MANTISSA
        fast = (a >= 2.2250738585072014e-308) & (a < 1e300) & (low_bits != 0)
        slow = ~fast & (a != 0)
        some = slice(None) if fast.all() else fast  # most blocks take no gathers
        digits[some], count[some], k, uncertain = _shortest_digits(
            a[some], (low_bits[some] | (1 << 52)).astype(float))
        point[some] = k + 1
        slow[some] |= uncertain
    else:
        slow = np.ones(cells, bool)
    _, quads, exponents = _tables()

    fixed = (point > -4) & (point <= 16)
    small = fixed & (point <= 0)
    minus, zero, dot = np.uint8(ord("-")), np.uint8(ord("0")), np.uint8(ord("."))
    text = np.empty((_WIDTH, cells), np.uint8)
    text[0] = np.signbit(x) * minus
    text[1] = small * zero
    text[2] = small * dot
    for i in range(3):
        text[3 + i] = (small & (point < -i)) * zero
    groups = np.empty((4, cells), np.uint32)  # digits 1-16, four at a time
    rest = digits
    for i in (3, 2, 1, 0):
        higher = rest // 10000
        groups[i] = quads[rest - 10000 * higher]
        rest = higher
    text[6] = rest + zero
    text[8:39:2] = groups.view(np.uint8).reshape(4, cells, 4).transpose(0, 2, 1).reshape(16, -1)
    # NUL the digits past the last one printed (a fixed-notation integer
    # prints its zeros up to the point and one after it), then the points
    text[6:39:2] *= _SLOT < np.where(fixed, np.maximum(count, point + 1), count)
    after = np.where(fixed, point - 1, np.where(count > 1, 0, -1))  # the digit before "."
    text[7:39:2] = (_SLOT[:16] == after) * dot
    text[39] = ~fixed * np.uint8(ord("e"))
    text[40:44] = exponents[np.where(fixed, 0, point + 400)].view(np.uint8).reshape(-1, 4).T
    ends = slice(block.shape[1] - 1, None, block.shape[1])  # each row's last cell
    text[44], text[45] = ord(","), 0
    text[44, ends], text[45, ends] = ord("\r"), ord("\n")

    slow = np.flatnonzero(slow)
    if slow.size:
        reprs = "".join(r.ljust(_TEXT, "\0") for r in map(repr, x[slow].tolist()))
        text[:_TEXT, slow] = np.frombuffer(reprs.encode("ascii"), np.uint8).reshape(-1, _TEXT).T
        text[_TEXT:-2, slow] = 0  # all but the separator
    return text.T.tobytes().translate(None, b"\0")


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
