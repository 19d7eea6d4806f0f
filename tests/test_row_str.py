"""`MonomialTable.row_str` against `poly_str`.

`row_str` prints a row's terms in descending column order with no sort by
`deglex_key`: that is `poly_str`'s order only because a table numbers its
columns ascending in the term order.  Random rows over QQ (negative and
fractional coefficients, the constant column included) and over GF(p),
for N = 1-4 at levels up to 9, pin that fact.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from curvemoduli.ringcore import GF, QQ, monomial_table, poly_str  # noqa: E402


def coefficients(field):
    """Nonzero field elements in the form a canonical row holds them."""
    if field.char:
        return st.integers(1, field.char - 1)
    return st.builds(Fraction, st.integers(-40, 40).filter(bool), st.integers(1, 6))


@st.composite
def rows(draw):
    field = draw(st.sampled_from([QQ, GF(2), GF(5), GF(32003)]))
    table = monomial_table(draw(st.integers(1, 4)), draw(st.integers(1, 9)))
    cols = draw(st.lists(st.integers(0, len(table.monos) - 1), unique=True, max_size=8))
    return table, field, {c: draw(coefficients(field)) for c in cols}


@settings(max_examples=300, deadline=None)
@given(rows())
@example((monomial_table(2, 4), QQ, {0: Fraction(-3, 2), 2: Fraction(1), 5: Fraction(-1)}))
def test_row_str_is_poly_str_of_the_row(case):
    table, field, row = case
    assert table.row_str(row, field) == poly_str(table.poly_of(row, field))
