"""`ringcore.multiples(table, row, cols)` is the one builder of monomial
multiples: for each multiplier column a of `cols` it yields x^a * row cut
at the table's level.  Each yielded vector must be `vector_of` the product
of the row's polynomial by the monomial, computed by `TruncatedPoly`, over
QQ (Fractions, negative values) and GF(p); a multiple cut away entirely is
the empty vector."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from curvemoduli.ringcore import (  # noqa: E402
    GF, QQ, Echelon, TruncatedPoly, _add_multiples, monomial_table, multiples, parse_poly,
)

FIELDS = [QQ, GF(2), GF(5), GF(32003)]


def coefficients(field):
    """Nonzero field elements as a row holds them: Fractions of either sign
    over QQ, ints in 1 .. p-1 over GF(p)."""
    if field.char:
        return st.integers(1, field.char - 1)
    return st.builds(Fraction, st.integers(-10**30, 10**30).filter(bool), st.integers(1, 10**6))


def product_vectors(table, field, row, cols):
    """`vector_of` of the row's polynomial times x^a, for each column a."""
    p = table.poly_of(row, field)
    return [table.vector_of(p * TruncatedPoly(table.n_vars, field, table.level, {table.monos[a]: 1}))
            for a in cols]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_multiples_are_the_products_by_monomials(data, field):
    n_vars = data.draw(st.integers(1, 4))
    level = data.draw(st.integers(1, 7))
    table = monomial_table(n_vars, level)
    width = len(table.monos)
    # an empty row is drawn too, and a constant term forced half of the time
    row = data.draw(st.dictionaries(st.integers(0, width - 1), coefficients(field), max_size=6))
    if data.draw(st.booleans()):
        row[0] = data.draw(coefficients(field))
    cols = sorted(data.draw(st.sets(st.integers(0, width - 1))))
    assert list(multiples(table, row, cols)) == product_vectors(table, field, row, cols)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_a_multiple_cut_away_entirely_is_empty(field):
    # x1*x2 + x2^2 at level 4: a multiplier of degree 2 or more cuts it away
    table = monomial_table(2, 4)
    row = table.vector_of(parse_poly("x1*x2 + x2^2", 2, field, 4))
    got = list(multiples(table, row, range(len(table.monos))))
    assert got == product_vectors(table, field, row, range(len(table.monos)))
    assert [bool(vec) for vec in got] == [True] * 3 + [False] * 7


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_a_lo_past_the_level_inserts_nothing(field):
    table = monomial_table(2, 4)
    row = table.vector_of(parse_poly("1 + x1", 2, field, 4))
    for lo in (4, 5, 9):
        ech = Echelon(field)
        _add_multiples(table, ech, row, lo)
        assert ech.rank == 0
    ech = Echelon(field)
    _add_multiples(table, ech, row, 3)
    assert ech.rank == 4  # the x^a * 1 of degree 3
