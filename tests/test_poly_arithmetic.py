"""TruncatedPoly arithmetic against exact rational arithmetic on plain dicts.

The constructor is the one place where coefficients enter the field, so
every operation must give the reduction of the same computation done over
the rationals and cut at the level, and hold only reduced nonzero
coefficients: ints in [1, p) over GF(p), nonzero Fractions over QQ.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from curvemoduli.ringcore import GF, QQ, TruncatedPoly, mono_mul, monomials_of_degree  # noqa: E402

FIELDS = [QQ, GF(2), GF(3), GF(32003)]
N_VARS, LEVEL = 2, 5
# monomials up to two degrees past the level, so that truncation has work
MONOS = [m for d in range(LEVEL + 2) for m in monomials_of_degree(N_VARS, d)]


def scalars(field):
    """Rationals whose denominators are units of the field."""
    dens = st.integers(1, 6).filter(lambda d: field.char == 0 or d % field.char)
    return st.builds(Fraction, st.integers(-40, 40), dens)


def raw_terms(field):
    return st.dictionaries(st.sampled_from(MONOS), scalars(field), max_size=6)


def reduced(field, raw):
    """A rational term map cut at the level and reduced into the field."""
    out = {m: field.of(c) for m, c in raw.items() if sum(m) < LEVEL}
    return {m: c for m, c in out.items() if c}


def dict_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return out


def dict_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return out


def check(result, field, expected_raw):
    assert (result.n_vars, result.field, result.level) == (N_VARS, field, LEVEL)
    for m, c in result.terms.items():
        assert sum(m) < LEVEL
        if field.char:
            assert type(c) is int and 0 < c < field.char
        else:
            assert type(c) is Fraction and c != 0
    assert result.terms == reduced(field, expected_raw)


def poly(field, raw):
    return TruncatedPoly(N_VARS, field, LEVEL, raw)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_add_sub_neg(data, field):
    a, b = data.draw(raw_terms(field)), data.draw(raw_terms(field))
    neg_b = {m: -c for m, c in b.items()}
    check(poly(field, a) + poly(field, b), field, dict_add(a, b))
    check(-poly(field, b), field, neg_b)
    check(poly(field, a) - poly(field, b), field, dict_add(a, neg_b))
    check(poly(field, a) - poly(field, a), field, {})


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mul(data, field):
    a, b = data.draw(raw_terms(field)), data.draw(raw_terms(field))
    check(poly(field, a) * poly(field, b), field, dict_mul(a, b))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_scale(data, field):
    a = data.draw(raw_terms(field))
    c = data.draw(st.one_of(st.integers(-70000, 70000), scalars(field)))
    check(poly(field, a).scale(c), field, {m: v * c for m, v in a.items()})


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mul_monomial(data, field):
    a = data.draw(raw_terms(field))
    mono = data.draw(st.sampled_from(MONOS))
    coeff = data.draw(st.one_of(st.none(), st.integers(-70000, 70000), scalars(field)))
    c = 1 if coeff is None else coeff
    check(poly(field, a).mul_monomial(mono, coeff), field,
          {mono_mul(m, mono): v * c for m, v in a.items()})
