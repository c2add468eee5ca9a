"""The float renderer behind every all-float CSV artifact writes repr's text."""

from fractions import Fraction

import numpy as np
import pytest
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


@pytest.mark.skipif(not _csvtext._EXTENDED, reason="the table serves the x87 long double only")
def test_powers_of_ten_are_within_half_an_extended_ulp():
    # the margins of the rendered digits rest on this bound
    for j, power in zip(range(-400, 400), _csvtext._tables()[0]):
        exact = Fraction(10) ** j
        assert abs(Fraction(*power.as_integer_ratio()) - exact) <= exact / 2**64, j
