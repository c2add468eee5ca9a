"""The float renderer behind every all-float CSV artifact writes repr's text."""

import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import illposed._csvtext as _csvtext
from illposed import NoiseSpec, add_noise, default_schedule, gaussian_blur_problem, run_dsm


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


def _trajectory_columns(rng, rows, width):
    """Columns shaped like ``trajectory.csv``'s: a time, two norms and a
    state block, starting from a zero state, with NaN, +-inf, +-0.0,
    subnormals, powers of two and fixed-notation integers among the cells."""
    times = np.concatenate([[0.0], np.cumsum(rng.exponential(100.0, rows - 1))])
    norms = [rng.random(rows) * 10.0 ** rng.integers(-8, 3, rows) for _ in range(2)]
    state = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-20, 20, (rows, width))
    state[0] = 0.0
    special = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -1e-310, 0.5, -1024.0, 2.0**70,
               12345678.0, -1e15, 9007199254740993.0, 1e16, 123456789012345680.0]
    state.flat[rng.choice(np.arange(width, state.size), 40 * len(special))] = special * 40
    norms[1][rng.choice(rows, 5)] = [np.nan, np.inf, -0.0, 2.0**-1030, 64.0]
    return [times, *norms, state]


@pytest.mark.parametrize("block", [1, 5, 4096, _csvtext._BLOCK_CELLS, 10**6])
def test_written_columns_do_not_depend_on_the_block_size(tmp_path, monkeypatch, block):
    # whole rows of 40 cells go to each render_rows call: 1 row up to all 701
    columns = _trajectory_columns(np.random.default_rng(34), 701, 37)
    header = ["t", "residual_norm", "error_vs_reference", *(f"state_{i}" for i in range(37))]
    monkeypatch.setattr(_csvtext, "_BLOCK_CELLS", block)
    _csvtext.write_columns(tmp_path / "columns.csv", "abc", header, columns)
    rows = ([_csvtext.cell(v) for v in row] for row in np.column_stack(columns))
    _csvtext.write_table(tmp_path / "table.csv", "abc", header, rows)
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "table.csv").read_bytes()


@pytest.fixture(scope="module")
def blur256_blocks():
    """The first two ``write_columns`` blocks of the seeded blur n = 256
    trajectory at delta 1e-2: 47 rows of 259 cells each, the first with the
    zero start state, which takes the renderer's gathers."""
    prob = gaussian_blur_problem(256, 0.05)
    f = add_noise(prob.f_exact, prob.decomposition, NoiseSpec(1e-2, 7))
    traj = run_dsm(prob.decomposition, default_schedule(), f, 1e-2).trajectory
    errors = np.linalg.norm(traj.states - prob.y_reference, axis=1)
    table = np.column_stack([traj.times, traj.residual_norms, errors, traj.states])
    step = _csvtext._BLOCK_CELLS // table.shape[1]
    return table[:step], table[step:2 * step]


@pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
def test_a_block_peaks_below_160_bytes_a_cell(blur256_blocks, first):
    # the working set that keeps a trajectory write's peak RSS flat:
    # measured 122 B a cell for the first block and 107 for the second,
    # against 228-230 when every temporary lived to the end of the digits
    block = blur256_blocks[0 if first else 1]
    cells = block.size
    assert cells >= 12000
    _csvtext.render_rows(block)
    tracemalloc.start()
    try:
        _csvtext.render_rows(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 160 * cells
