"""Input outside a function's domain is rejected with its own message.

One table of out-of-domain calls, each with the exception type and the
exact message it must raise."""

import pytest

from curvemoduli.branches import Branch, Parametrization, PrecisionError
from curvemoduli.deform import DualPoly, FirstOrderDeformation, colon, flatness_direct
from curvemoduli.idealcalc import IdealPresentation
from curvemoduli.ringcore import QQ, LevelError, parse_poly
from curvemoduli.trunctower import CellIndex, admissible_range, cell_membership, hilbert_stratum_check


def ideal(gens, level, n_vars=2):
    return IdealPresentation([parse_poly(g, n_vars, QQ, level) for g in gens], n_vars, QQ, level)


def cusp_deformation():
    return FirstOrderDeformation(ideal(["x2^2 - x1^3"], 6), [None], 2)


def branch(texts, precision=6):
    return Branch.parse(texts, precision, QQ)


# (call, exception type, message); e0 = 2 in the plane numbers the
# monomials of degree < 2 as 1..3 and those of degree 2 as 4..6
CASES = {
    "deformation-base-not-standard": (
        lambda: FirstOrderDeformation(ideal(["x1^2 - x2^3", "x1*x2^2"], 9), [None, None], 3),
        ValueError, "base is not a standard basis up to level 9 (fails at degree 5)"),
    "deformation-base-below-e0+2": (
        lambda: FirstOrderDeformation(ideal(["x2^2 - x1^3"], 3), [None], 2),
        LevelError, "base level 3 < e0+2 = 4"),
    "flatness-at-n-2": (
        lambda: flatness_direct(cusp_deformation(), 2),
        LevelError, "flatness check needs n >= 3"),
    "colon-at-level-1": (
        lambda: colon(ideal(["x1^2"], 4), ideal(["x1"], 4), 1),
        LevelError, "colon level must be >= 2"),
    "colon-across-ambients": (
        lambda: colon(ideal(["x1^2"], 4), ideal(["x1"], 4, n_vars=3), 4),
        LevelError, "colon needs a common ambient and field"),
    "cell-repeated-i": (
        lambda: cell_membership(ideal(["x2^2 - x1^3"], 5), 5, CellIndex((1, 1), (4, 5), 0), 2),
        ValueError, "repeated indices in cell"),
    "cell-j-out-of-range": (
        lambda: cell_membership(ideal(["x2^2 - x1^3"], 5), 5, CellIndex((1, 2), (4, 7), 0), 2),
        ValueError, "j-indices must lie in 4..6"),
    "cell-q-9": (
        lambda: cell_membership(ideal(["x2^2 - x1^3"], 5), 5, CellIndex((1, 2), (4, 5), 9), 2),
        ValueError, "q must index one of the 3 candidate forms"),
    "stratum-F-missing-in-window": (
        lambda: hilbert_stratum_check(ideal(["x2^2 - x1^3"], 8), {0: 1, 2: 5}, 1),
        ValueError, "F must be given at t = 1 for the window of r = 1"),
    "branch-precision-0": (
        lambda: branch(["t^2", "t^3"], precision=0),
        PrecisionError, "precision must be >= 1"),
    "branch-unit-component": (
        lambda: branch(["1 + t", "t^2"]),
        ValueError, "branch components must vanish at t = 0"),
    "branch-only-zero-components": (
        lambda: branch(["0", "0"]),
        ValueError, "at least one component must be nonzero"),
    "parametrization-empty": (
        lambda: Parametrization([]),
        ValueError, "need at least one branch"),
    "parametrization-mixed-ambients": (
        lambda: Parametrization([branch(["t^2", "t^3"]), branch(["t^3", "t^4", "t^5"])]),
        ValueError, "branches disagree on ambient or field"),
    "dual-components-at-two-levels": (
        lambda: DualPoly(parse_poly("x1", 2, QQ, 5), parse_poly("x2", 2, QQ, 6)),
        LevelError, "dual components disagree on ambient, field, or level"),
    "admissible-b-below-1": (
        lambda: admissible_range(0, 2),
        ValueError, "need b >= 1 and e0 >= 1"),
    "admissible-b-above-e0": (
        lambda: admissible_range(3, 2),
        ValueError, "no curve singularity with b = 3 > e0 = 2"),
    "admissible-b-1-e0-2": (
        lambda: admissible_range(1, 2),
        ValueError, "embedding dimension 1 forces e0 = 1"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_out_of_domain_call_is_rejected(case):
    call, error, message = CASES[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
