"""`_TnSpans.with_form(L)` builds the span of base and (L) from a copy of the
span of (L) and the pivot-skipped multiples of the span object's own
generators; it must be the span that inserting every row of base (the
multiples of those generators, built here from scratch) into the span of
(L) gives."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from curvemoduli.idealcalc import IdealPresentation  # noqa: E402
from curvemoduli.ringcore import (  # noqa: E402
    GF, QQ, TruncatedPoly, monomial_table, monomials_of_degree, span_of_multiples,
)
from curvemoduli.trunctower import _TnSpans  # noqa: E402

AMBIENTS = [(2, 3, 7), (3, 3, 5)]  # (n_vars, lowest level, highest level)
FIELDS = [QQ, GF(5)]


@st.composite
def polys(draw, n_vars, field, level):
    """A polynomial of order >= 1 with up to five terms below the level;
    coefficients in -4..4 are nonzero over QQ and GF(5)."""
    monos = [m for d in range(1, level) for m in monomials_of_degree(n_vars, d)]
    support = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=5, unique=True))
    coeffs = draw(st.lists(st.integers(-4, 4).filter(bool), min_size=len(support),
                           max_size=len(support)))
    return TruncatedPoly(n_vars, field, level, dict(zip(support, coeffs)))


def assert_span_of_base_and_form(spans, L):
    want = span_of_multiples(spans.table, spans.field, [L])
    for row in span_of_multiples(spans.table, spans.field, spans.gens, lo=spans.lo).basis():
        want.add(row)
    got = spans.with_form(L)
    assert (got.rank, got.rows) == (want.rank, want.rows)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("n_vars, lo, hi", AMBIENTS, ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_of_ideal(data, n_vars, lo, hi, field):
    level = data.draw(st.integers(lo, hi))
    gens = data.draw(st.lists(polys(n_vars, field, level), min_size=1, max_size=3))
    spans = _TnSpans.of_ideal(IdealPresentation(gens, n_vars, field, level), level)
    assert_span_of_base_and_form(spans, data.draw(polys(n_vars, field, level)))


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("n_vars, lo, hi", AMBIENTS, ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_prefix(data, n_vars, lo, hi, field):
    # the enumerator's span object of a prefix: gens = [prefix], lo = 1
    level = data.draw(st.integers(lo, hi))
    prefix = data.draw(polys(n_vars, field, level))
    spans = _TnSpans(monomial_table(n_vars, level), field, None, [prefix], 1)
    assert_span_of_base_and_form(spans, data.draw(polys(n_vars, field, level)))
