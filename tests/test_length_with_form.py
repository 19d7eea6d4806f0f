"""`_length_with_form(spans, L)` is dim R/(J+(L)+M^n), for `spans` the
DegreeSpans of an ideal J at level n.  There is one route: L's multiples
go into a copy of J's span, and the length is the copy's colength.  It
must equal the dense H1 of J + (L) at the top degree, which builds no
span, and leave J's span as it was.  Each test builds one span per J and
reads J's forms off it; `test_every_projective_form` reads every
projective form off one span, so a length that changed the span fails
there."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from curvemoduli.idealcalc import DegreeSpans, IdealPresentation  # noqa: E402
from curvemoduli.ringcore import (  # noqa: E402
    GF, QQ, LevelError, TruncatedPoly, _add_multiples, monomials_of_degree, parse_poly,
)
from curvemoduli.trunctower import _length_with_form, all_projective_linear_forms  # noqa: E402
from oracles import dense_ideal_h1  # noqa: E402

# (field, index of the form among the projective forms): every form over
# GF(2), GF(3) and GF(5)
PROJECTIVE_FORMS = [(GF(q), i) for q in (2, 3, 5) for i in range(q + 1)]
FIELDS = [QQ, GF(5)]


@st.composite
def polys(draw, n_vars, field, level, lo=1, hi=None):
    """A nonzero polynomial with up to five terms in degrees lo .. hi-1
    (hi = level by default), coefficients in -4..4."""
    monos = [m for d in range(lo, level if hi is None else hi)
             for m in monomials_of_degree(n_vars, d)]
    support = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=5, unique=True))
    coeffs = draw(st.lists(st.integers(-4, 4).filter(field.of), min_size=len(support),
                           max_size=len(support)))
    return TruncatedPoly(n_vars, field, level, dict(zip(support, coeffs)))


@st.composite
def multiples(draw, L):
    """A multiple h*L, h of order below level - order(L): it vanishes where
    L does, and it is nonzero, since its lowest form is L's times h's."""
    return L * draw(polys(L.n_vars, L.field, L.level, lo=0, hi=L.level - L.order()))


def ideal_with_multiples(data, L):
    """J: up to three random generators and up to two multiples of L (on
    the line L = 0 when L is linear)."""
    n_vars, field, level = L.n_vars, L.field, L.level
    gens = data.draw(st.lists(polys(n_vars, field, level), max_size=3))
    gens += data.draw(st.lists(multiples(L), max_size=2))
    return IdealPresentation(gens, n_vars, field, level)


def assert_dense_length(spans, L):
    J = spans.ideal
    assert _length_with_form(spans, L) == dense_ideal_h1(J.generators + [L], J.level)[-1]


@pytest.mark.parametrize("field, index", PROJECTIVE_FORMS, ids=str)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_every_projective_form(data, field, index):
    # J has multiples of one form; every projective form is read off J's span
    level = data.draw(st.integers(3, 8))
    forms = all_projective_linear_forms(2, field, level)
    J = ideal_with_multiples(data, forms[index])
    spans = DegreeSpans(J, level)
    for L in forms:
        assert_dense_length(spans, L)


@st.composite
def rational_linear_forms(draw, level):
    """a*x1 + b*x2 with a, b small fractions, not both zero (a = 0 included)."""
    coeff = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    a, b = draw(st.tuples(coeff, coeff).filter(any))
    return TruncatedPoly(2, QQ, level, {(1, 0): a, (0, 1): b})


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_rational_linear_forms(data):
    level = data.draw(st.integers(3, 8))
    L = data.draw(rational_linear_forms(level))
    assert_dense_length(DegreeSpans(ideal_with_multiples(data, L), level), L)


@pytest.mark.parametrize("field, index", PROJECTIVE_FORMS, ids=str)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_generators_on_the_line_give_length_n(data, field, index):
    level = data.draw(st.integers(3, 8))
    L = all_projective_linear_forms(2, field, level)[index]
    J = IdealPresentation(data.draw(st.lists(multiples(L), max_size=3)), 2, field, level)
    spans = DegreeSpans(J, level)
    assert _length_with_form(spans, L) == level
    assert_dense_length(spans, L)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_plane_nonlinear_form(data, field):
    level = data.draw(st.integers(3, 7))
    L = data.draw(polys(2, field, level).filter(lambda p: any(sum(m) > 1 for m in p.terms)))
    assert_dense_length(DegreeSpans(ideal_with_multiples(data, L), level), L)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_three_variables(data, field):
    level = data.draw(st.integers(3, 5))
    L = data.draw(polys(3, field, level))
    assert_dense_length(DegreeSpans(ideal_with_multiples(data, L), level), L)


@pytest.mark.parametrize("n_vars, field", [(2, QQ), (2, GF(5)), (3, QQ), (3, GF(5))], ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_length_is_the_colength_of_a_copy(data, n_vars, field):
    # the length is the colength of a copy of J's span with L's multiples
    # added, and reading the forms leaves J's span as it was
    level = data.draw(st.integers(3, 8 if n_vars == 2 else 5))
    L = data.draw(polys(n_vars, field, level))
    spans = DegreeSpans(ideal_with_multiples(data, L), level)
    rows = {piv: dict(row) for piv, row in spans.ech.rows.items()}
    slice_dims = list(spans.slice_dims)
    copy = spans.ech.copy()
    _add_multiples(spans.table, copy, spans.table.vector_of(L))
    assert _length_with_form(spans, L) == spans.table.offset[level] - copy.rank
    forms = [L]
    if field.char:
        forms += all_projective_linear_forms(n_vars, field, level)
    for form in forms:
        _length_with_form(spans, form)
    assert spans.ech.rows == rows
    assert spans.slice_dims == slice_dims


@pytest.mark.parametrize("text, match", [("0", "zero generator"), ("1 + x1", "is a unit")],
                         ids=["zero", "unit"])
def test_form_is_checked_like_a_generator(text, match):
    spans = DegreeSpans(IdealPresentation([parse_poly("x1^3", 2, QQ, 6)]), 6)
    with pytest.raises(ValueError, match=match):
        _length_with_form(spans, parse_poly(text, 2, QQ, 6))


def test_form_below_the_level_is_rejected():
    spans = DegreeSpans(IdealPresentation([parse_poly("x1^3", 2, QQ, 6)]), 6)
    with pytest.raises(LevelError):
        _length_with_form(spans, parse_poly("x1 + x2", 2, QQ, 4))
