"""Every computation reaches its working level through one gate,
`IdealPresentation.truncated`: a level above the ideal's is refused, a
lower one gives the report of the truncated ideal, and level 0 is refused
as the zero ring."""

import pytest

from curvemoduli.deform import FirstOrderDeformation, colon, flatness_direct
from curvemoduli.idealcalc import (
    DegreeSpans,
    IdealPresentation,
    hilbert_data,
    initial_ideal,
    intersection_number,
    min_generators,
    standard_basis_check,
)
from curvemoduli.ringcore import QQ, LevelError, parse_poly
from curvemoduli.trunctower import (
    CellIndex,
    cell_membership,
    cm_superficial_test,
    hilbert_stratum_check,
    jtilde,
    shape_check,
    tn_membership,
)

GIVEN = 9  # the level the ideals below are given at
LOWER = 6


def ideal(texts, level=GIVEN):
    return IdealPresentation.parse(texts, 2, QQ, level)


def poly(text, level=GIVEN):
    return parse_poly(text, 2, QQ, level)


def spans_report(I, n):
    spans = DegreeSpans(I, n)
    return spans.h1_values(), spans.ech.basis()


def colon_report(I, n):
    cs = colon(I, ideal(["x1", "x2^2"], I.level), n)
    return cs.level, cs.basis, cs.dimension


def jtilde_report(I, n):
    res = jtilde(I, n, 2)
    return res._replace(ideal=res.ideal.generators)


def flatness_report(I, n):
    # the perturbation lives at the base's own level
    return flatness_direct(FirstOrderDeformation(I, [poly("x1*x2", I.level)], 2), n)


CUSP_VALUES = [1, 3, 5, 7, 9, 11, 13, 15, 17]  # H1 of x2^2 - x1^3, e0 = 2, e1 = 1

# a report of the ideal x2^2 - x1^3 at level n, e0 = 2 where one is needed;
# cm_superficial_test works at e0+1, so it is asked at e0 = n-1
REPORTS = {
    "DegreeSpans": spans_report,
    "hilbert_data": hilbert_data,
    "initial_ideal": initial_ideal,
    "min_generators": min_generators,
    "standard_basis_check": standard_basis_check,
    "intersection_number": lambda I, n: intersection_number(I, ideal(["x1"], I.level), n),
    "tn_membership": lambda I, n: tn_membership(I, n, 2),
    "shape_check": lambda I, n: shape_check(I, n, 2),
    "jtilde": jtilde_report,
    "cell_membership": lambda I, n: cell_membership(I, n, CellIndex([1, 2, 3], [5, 6], 1), 2),
    "hilbert_stratum_check": lambda I, n: hilbert_stratum_check(I, CUSP_VALUES, 1, n),
    "colon": colon_report,
    "cm_superficial_test": lambda I, n: cm_superficial_test(I, poly("x1 + x2", I.level), n - 1),
    "flatness_direct": flatness_report,
}

# the others check a domain of their own before any level reaches the gate:
# T_n needs n >= e0+2, a colon level >= 2, a flatness level >= 3, e0 >= 1
GATE_FIRST = ["DegreeSpans", "hilbert_data", "initial_ideal", "min_generators",
              "standard_basis_check", "intersection_number", "cell_membership",
              "hilbert_stratum_check"]


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_a_level_above_the_ideal_is_refused(name):
    with pytest.raises(LevelError, match=f"^cannot extend precision from {GIVEN} to {GIVEN + 1}$"):
        REPORTS[name](ideal(["x2^2 - x1^3"]), GIVEN + 1)


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_a_lower_level_reports_the_truncated_ideal(name):
    I = ideal(["x2^2 - x1^3"])
    assert REPORTS[name](I, LOWER) == REPORTS[name](I.truncated(LOWER), LOWER)


@pytest.mark.parametrize("name", GATE_FIRST)
def test_level_zero_is_refused(name):
    with pytest.raises(LevelError, match=r"^level must be >= 1, got 0$"):
        REPORTS[name](ideal(["x2^2 - x1^3"]), 0)


def test_the_own_level_is_the_ideal_itself():
    I = ideal(["x2^2 - x1^3", "x1^4"])
    assert I.truncated(GIVEN) is I
    assert all(g.truncate_to(GIVEN) is g for g in I.generators)


def test_a_polynomial_below_the_table_level_is_refused():
    I = ideal(["x2^2 - x1^3"])
    spans = DegreeSpans(I, GIVEN)
    quotient = colon(I, ideal(["x1", "x2^2"]), GIVEN)
    below = poly("x2^2 - x1^3", LOWER)
    for check in (spans.table.vector_of, spans.contains, quotient.contains):
        with pytest.raises(LevelError, match=f"^cannot extend precision from {LOWER} to {GIVEN}$"):
            check(below)
    # above the level a polynomial is cut, not refused
    assert spans.contains(poly("x2^2 - x1^3 + x1^10", GIVEN + 3))


def test_a_lower_level_drops_the_generators_it_kills():
    J = ideal(["x2^2 - x1^3", "x1^7"]).truncated(LOWER)
    assert (J.level, [str(g) for g in J.generators]) == (LOWER, ["-x1^3 + x2^2"])
