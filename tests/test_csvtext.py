"""The float renderer behind every all-float CSV artifact writes repr's text."""

from decimal import Decimal
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import illposed._csvtext as _csvtext


@st.composite
def _float_rows(draw, cells):
    """One or two rows of 1 to 300 cells."""
    width = draw(st.integers(1, 300))
    values = np.array(draw(st.lists(cells, min_size=width, max_size=2 * width)), np.float64)
    return values[:values.size // width * width].reshape(-1, width)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_float_rows(st.floats()),
                 _float_rows(st.integers(0, 2**64 - 1).map(
                     lambda bits: float(np.array(bits, np.uint64).view(np.float64))))))
def test_rendered_rows_are_the_reprs(rows):
    expected = "".join(",".join(map(repr, row)) + "\r\n" for row in rows.tolist())
    assert _csvtext.render_rows(rows) == expected.encode("ascii")


def _rendered_cells(values, width):
    """``render_rows``'s cells and repr's for ``values`` in rows of ``width``."""
    values = np.asarray(values, np.float64)
    rows = values[:values.size // width * width].reshape(-1, width)
    got = _csvtext.render_rows(rows).decode("ascii").split("\r\n")
    expected = [",".join(map(repr, row)) for row in rows.tolist()]
    return [r.split(",") for r in got[:-1]], [r.split(",") for r in expected]


def _neighbours(x):
    x = np.asarray(x, np.float64)
    return np.concatenate([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])


_EDGE_CELLS = [
    0.0, -0.0, np.nan, np.inf, -np.inf,
    5e-324, -5e-324, 1e-310, 2.225073858507201e-308, 2.2250738585072014e-308,
    *_neighbours([_csvtext._LOW, _csvtext._HIGH]),
    0.1 + 0.2, 1.7976931348623157e308, -1.7976931348623157e308,
    *_neighbours([1e15, 1e16, 1e17, 9999999999999998.0, 123456789012345680.0,
                  9.999999999999999e22, 1e23, 0.0001, 9.999999999999999e-05, 1e-05]),
    # decimals that look halfway at 17 digits, and exact halves
    0.12345678901234565, 1.0000000000000005, 9007199254740993.0, 1234567890123456.5,
    1234567890123456.75, 12345678901234567.5, 4.35, 2.5, 0.5, 1.5, 2 / 3, 1 / 3,
]


def test_edge_cells_are_the_reprs():
    got, expected = _rendered_cells(_EDGE_CELLS, 1)
    assert got == expected
    got, expected = _rendered_cells(_EDGE_CELLS, len(_EDGE_CELLS))
    assert got == expected


def test_powers_of_two_and_ten_and_their_neighbours_are_the_reprs():
    twos = _neighbours(np.ldexp(1.0, np.arange(-1074, 1024)))
    tens = _neighbours(10.0 ** np.arange(-323, 309))
    for values in (twos, tens, -tens):
        got, expected = _rendered_cells(values, 64)
        assert got == expected


def test_power_of_ten_table_is_an_exact_double_double():
    # the certified digits rest on these bounds
    high, top, bottom, low = _csvtext._tables()[0]
    for j, h, t, b, lo in zip(_csvtext._POWERS, high, top, bottom, low):
        exact = Fraction(10) ** j
        assert abs(Fraction(h) + Fraction(lo) - exact) <= exact / 2**106, j
        assert Fraction(t) + Fraction(b) == Fraction(h), j
        for half in (t, b):
            n = abs(Fraction(half)).numerator
            assert n == 0 or (n // (n & -n)).bit_length() <= 26, (j, half)  # n's odd part


def _printed_digits(r):
    """The significant digits of a repr, without sign, point, leading and trailing zeros."""
    return r.split("e")[0].lstrip("-").replace(".", "").strip("0")


def test_every_point_and_digit_count_is_laid_out_as_repr():
    # the decimal point p from -5 to 18 spans both sides of the fixed /
    # scientific switch at -4 and 16; each value is a row's middle and last cell
    digits = "12345678912345678"
    grid = []
    for p in range(-5, 19):
        short = [float(f"0.{digits[:n]}e{p}") for n in range(1, 18)]
        cells = _neighbours(short)
        assert {len(_printed_digits(repr(c))) for c in cells.tolist()} == set(range(1, 18)), p
        grid.extend(cells)
    grid.extend([1.5e-100, 1.5e100, 1e-291, 9.99e299])
    grid = np.concatenate([grid, np.negative(grid)])
    rows = np.column_stack([np.full(grid.size, 0.5), grid, grid])
    expected = "".join(",".join(map(repr, row)) + "\r\n" for row in rows.tolist())
    assert _csvtext.render_rows(rows) == expected.encode("ascii")


def _log10_one_ulp_across(step):
    """np.log10 that misses the power of ten 10**m next to a cell by one
    ulp: ``step`` -1 gives the double just below m for a cell at or above
    10**m, +1 gives m itself for a cell below it, so floor(log10) is one
    too small or one too large."""
    real = np.log10

    def log10(a):
        out = real(a)
        m = np.round(out)
        exact = np.array([Decimal(v).adjusted() for v in np.ravel(a).tolist()]).reshape(np.shape(a))
        above = exact == m  # the cell is at least 10**m
        if step < 0:
            return np.where(above, np.nextafter(m, -np.inf), out)
        return np.where(above, out, m)
    return log10


def test_cells_whose_log10_misses_a_power_of_ten_are_the_reprs(monkeypatch):
    # the digit product's guards on s outside [1e16, 1e17) send these to repr
    tens = 10.0 ** np.arange(-290, 300)
    cells = np.concatenate([_neighbours(_neighbours(tens)), _neighbours(-tens)])
    for step in (-1, 1):
        with monkeypatch.context() as patch:
            patch.setattr(np, "log10", _log10_one_ulp_across(step))
            got, expected = _rendered_cells(cells, 64)
        assert got == expected, step
