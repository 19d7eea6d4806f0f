"""Input outside a function's domain is rejected with its own message.

One table of out-of-domain calls, each with the exception type and the
exact message it must raise, and the read errors of a job file, whose
messages name the file."""

import json
from fractions import Fraction

import pytest

from curvemoduli.branches import (
    Branch, Parametrization, PrecisionError, evaluate_on_branch, milnor, semigroup,
)
from curvemoduli.cli import INTEGER, _read_job
from curvemoduli.deform import DualPoly, FirstOrderDeformation, colon, flatness_direct
from curvemoduli.idealcalc import DegreeSpans, IdealPresentation, intersection_number
from curvemoduli.motivic import (
    MeasureContext, MotivicClass, RationalSeries, fit_class_from_counts, mps, parse_motivic,
)
from curvemoduli.ringcore import (
    GF, QQ, LevelError, MonomialTable, TruncatedPoly, monomial_table, monomials_of_degree,
    parse_poly,
)
from curvemoduli.trunctower import (
    CellIndex, admissible, admissible_range, all_projective_linear_forms, cell_membership,
    enumerate_xi, hilbert_stratum_check, tn_membership,
)


def ideal(gens, level, n_vars=2, field=QQ):
    return IdealPresentation([parse_poly(g, n_vars, field, level) for g in gens],
                             n_vars, field, level)


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
    "deformation-e0-not-the-base-multiplicity": (
        lambda: FirstOrderDeformation(ideal(["x2^2 - x1^3"], 6), [None], 3),
        ValueError, "base has multiplicity 2, not e0 = 3"),
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
        LevelError, "colon ideals disagree on ambient or field"),
    "colon-contains-across-fields": (
        lambda: colon(ideal(["x1^2"], 4), ideal(["x1"], 4), 4).contains(
            parse_poly("x1", 2, GF(7), 4)),
        LevelError, "polynomial and colon space disagree on ambient or field"),
    "colon-contains-across-ambients": (
        lambda: colon(ideal(["x1^2"], 4), ideal(["x1"], 4), 4).contains(
            parse_poly("x1", 3, QQ, 4)),
        LevelError, "polynomial and colon space disagree on ambient or field"),
    "colon-contains-below-its-level": (
        lambda: colon(ideal(["x1^2"], 4), ideal(["x1"], 4), 4).contains(
            parse_poly("x1", 2, QQ, 3)),
        LevelError, "cannot extend precision from 3 to 4"),
    "cell-e0-0": (
        lambda: cell_membership(ideal(["x1^2"], 5), 5, CellIndex((1,), (2,), 0), 0),
        ValueError, "e0 must be >= 1"),
    "cell-repeated-i": (
        lambda: cell_membership(ideal(["x2^2 - x1^3"], 5), 5, CellIndex((1, 1), (4, 5), 0), 2),
        ValueError, "repeated indices in cell"),
    "cell-j-out-of-range": (
        lambda: cell_membership(ideal(["x2^2 - x1^3"], 5), 5, CellIndex((1, 2), (4, 7), 0), 2),
        ValueError, "j-indices must lie in 4..6"),
    "cell-q-9": (
        lambda: cell_membership(ideal(["x2^2 - x1^3"], 5), 5, CellIndex((1, 2), (4, 5), 9), 2),
        ValueError, "q must index one of the 3 candidate forms"),
    "tn-no-candidate-forms": (
        lambda: tn_membership(ideal(["x2^2 - x1^3"], 6), 6, 2, forms=[]),
        ValueError, "need at least one candidate form"),
    "stratum-F-missing-in-window": (
        lambda: hilbert_stratum_check(ideal(["x2^2 - x1^3"], 8), {0: 1, 2: 5}, 1, 8),
        ValueError, "F must be given at t = 1 for the window of r = 1"),
    "stratum-r-0": (
        lambda: hilbert_stratum_check(ideal(["x2^2 - x1^3"], 8), [1, 2], 0, 8),
        ValueError, "r must be >= 1, got 0"),
    "stratum-r-below-0": (
        lambda: hilbert_stratum_check(ideal(["x2^2 - x1^3"], 8), [1, 2], -1, 8),
        ValueError, "r must be >= 1, got -1"),
    "branch-precision-0": (
        lambda: branch(["t^2", "t^3"], precision=0),
        PrecisionError, "precision must be >= 1"),
    "branch-precision-float": (
        lambda: Parametrization.parse([["t^2", "t^3"]], 30.0, QQ),
        TypeError, "precision must be an int, got 30.0"),
    "branch-precision-bool": (
        lambda: branch(["t^2", "t^3"], precision=True),
        TypeError, "precision must be an int, got True"),
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
        LevelError, "branches disagree on ambient or field"),
    "branch-components-across-fields": (
        lambda: Branch([parse_poly("t^2", 1, QQ, 10, var="t"),
                        parse_poly("t^3", 1, GF(7), 10, var="t")], 10),
        LevelError, "branch components disagree on ambient, field, or level"),
    "evaluate-on-branch-across-ambients": (
        lambda: evaluate_on_branch(parse_poly("x1", 3, QQ, 6), branch(["t^2", "t^3"])),
        LevelError, "polynomial and branch disagree on ambient or field"),
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
    "admissible-float-e0": (
        lambda: admissible_range(2, 3.5),
        TypeError, "each of b and e0 must be an int, got 3.5"),
    "admissible-float-b": (
        lambda: admissible_range(2.5, 3),
        TypeError, "each of b and e0 must be an int, got 2.5"),
    "admissible-float-e1": (
        lambda: admissible(2, 3, 1.5),
        TypeError, "each of b, e0 and e1 must be an int, got 1.5"),
    "admissible-b-1-string-e0": (
        lambda: admissible(1, "2", 0),
        TypeError, "each of b, e0 and e1 must be an int, got '2'"),
    "semigroup-zero-generator": (
        lambda: semigroup([0, 3]),
        ValueError, "generators must be positive integers"),
    "semigroup-float-generator": (
        lambda: semigroup([3.5, 4]),
        TypeError, "generator must be an int, got 3.5"),
    "semigroup-string-generators": (
        lambda: semigroup(["3", "4"]),
        TypeError, "generator must be an int, got '3'"),
    "class-float-coefficient": (
        lambda: MotivicClass({1: 2.5}),
        TypeError, "coefficient of L must be an int, got 2.5"),
    "class-fraction-coefficient": (
        lambda: MotivicClass({1: Fraction(5, 2)}),
        TypeError, "coefficient of L must be an int, got Fraction(5, 2)"),
    "class-float-exponent": (
        lambda: MotivicClass({1.9: 1}),
        TypeError, "exponent of L must be an int, got 1.9"),
    "class-string-exponent": (
        lambda: MotivicClass({"2": "3"}),
        TypeError, "exponent of L must be an int, got '2'"),
    "specialize-float-q": (
        lambda: parse_motivic("L^2 + 1").specialize(2.5),
        TypeError, "q must be an int, got 2.5"),
    "measure-float-n-vars": (
        lambda: MeasureContext(2.5, 2).c,
        TypeError, "each of n_vars and e0 must be an int, got 2.5"),
    "measure-float-e0": (
        lambda: MeasureContext(2, 1.5).c,
        TypeError, "each of n_vars and e0 must be an int, got 1.5"),
    "measure-e0-0": (
        lambda: MeasureContext(2, 0).c,
        ValueError, "e0 must be >= 1"),
    "series-float-denominator-factor": (
        lambda: RationalSeries({0: MotivicClass.one()}, [(1.5, 1)]),
        TypeError, "exponent of (1 - L^a T^b) must be an int, got 1.5"),
    "series-float-numerator-exponent": (
        lambda: RationalSeries({0.7: MotivicClass.one()}),
        TypeError, "exponent of T must be an int, got 0.7"),
    "series-int-numerator-value": (
        lambda: RationalSeries({0: 1}),
        TypeError, "coefficient of T^0 must be a MotivicClass, got 1"),
    "milnor-negative-delta": (
        lambda: milnor(-1, 1),
        ValueError, "need delta >= 0 and r >= 1"),
    "milnor-float-delta": (
        lambda: milnor(2.5, 1),
        TypeError, "each of delta and r must be an int, got 2.5"),
    "milnor-float-r": (
        lambda: milnor(2, 1.0),
        TypeError, "each of delta and r must be an int, got 1.0"),
    "branch-two-variable-component": (
        lambda: Branch([parse_poly("x1", 2, QQ, 6)], 6),
        ValueError, "branch components are one-variable series"),
    "branch-component-below-precision": (
        lambda: Branch([parse_poly("t^2", 1, QQ, 4, var="t")], 6),
        PrecisionError, "component precision 4 below branch precision 6"),
    "presentation-empty-without-ambient": (
        lambda: IdealPresentation([]),
        ValueError, "empty presentation needs explicit n_vars, field, level"),
    "presentation-mixed-levels": (
        lambda: IdealPresentation([parse_poly("x1", 2, QQ, 4), parse_poly("x2", 2, QQ, 5)]),
        LevelError, "generators disagree on ambient, field, or level"),
    "intersection-across-fields": (
        lambda: intersection_number(ideal(["x1"], 4), ideal(["x2"], 4, field=GF(5)), 4),
        LevelError, "intersected ideals disagree on ambient or field"),
    "deformation-perturbation-count": (
        lambda: FirstOrderDeformation(ideal(["x2^2 - x1^3"], 6), [None, None], 2),
        ValueError, "one perturbation per base generator"),
    "deformation-perturbation-at-another-level": (
        lambda: FirstOrderDeformation(ideal(["x2^2 - x1^3"], 6), [parse_poly("x1", 2, QQ, 7)], 2),
        LevelError, "base and perturbations disagree on ambient, field, or level"),
    "series-denominator-b-0": (
        lambda: RationalSeries({}, [(1, 0)]),
        ValueError, "denominator factors are (1 - L^a T^b) with a >= 0, b >= 1"),
    "mps-n0-0": (
        lambda: mps(MotivicClass.one(), 0, MeasureContext(2, 2)),
        ValueError, "n0 must be >= 1"),
    "fit-one-field": (
        lambda: fit_class_from_counts({2: 1}, 1),
        ValueError, "need counts for at least two fields"),
    "field-float-characteristic": (
        lambda: GF(7.0),
        TypeError, "characteristic must be an int, got 7.0"),
    "field-string-characteristic": (
        lambda: GF("7"),
        TypeError, "characteristic must be an int, got '7'"),
    "field-characteristic-0": (
        lambda: GF(0),
        ValueError, "GF(p) needs a prime p, got 0"),
    "field-characteristic-1": (
        lambda: GF(1),
        ValueError, "characteristic must be 0 or prime, got 1"),
    "field-characteristic-4": (
        lambda: GF(4),
        ValueError, "characteristic must be 0 or prime, got 4"),
    "field-composite-characteristic": (
        lambda: GF(2 ** 61 + 1),
        ValueError, "characteristic must be 0 or prime, got 2305843009213693953"),
    "field-characteristic-above-exact-primality": (
        lambda: GF(2 ** 89 - 1),
        ValueError, "characteristic must be below 3317044064679887385961981,"
                    " got 618970019642690137449562111"),
    "gf7-denominator-7": (
        lambda: GF(7).of(Fraction(1, 7)),
        ZeroDivisionError, "denominator divisible by 7"),
    "poly-level-below-0": (
        lambda: TruncatedPoly(2, QQ, -1),
        LevelError, "level must be >= 0, got -1"),
    "poly-sum-across-fields": (
        lambda: parse_poly("x1", 2, QQ, 4) + parse_poly("x1", 2, GF(7), 4),
        LevelError, "operands disagree on ambient, field, or level"),
    "span-contains-across-fields": (
        lambda: DegreeSpans(ideal(["x2^2 - x1^3"], 6), 6).contains(
            parse_poly("x2^2 + 6*x1^3", 2, GF(7), 6)),
        LevelError, "polynomial and span disagree on ambient or field"),
    "span-contains-across-ambients": (
        lambda: DegreeSpans(ideal(["x2^2 - x1^3"], 6), 6).contains(parse_poly("x2^2", 3, QQ, 6)),
        LevelError, "polynomial and span disagree on ambient or field"),
    "span-contains-below-its-level": (
        lambda: DegreeSpans(ideal(["x2^2 - x1^3"], 6), 6).contains(parse_poly("x2^2", 2, QQ, 4)),
        LevelError, "cannot extend precision from 4 to 6"),
    "poly-monomial-of-another-length": (
        lambda: TruncatedPoly(2, QQ, 3, {(1,): 1}),
        ValueError, "monomial (1,) does not have 2 exponents"),
    "monomials-in-0-variables": (
        lambda: monomials_of_degree(0, 3),
        ValueError, "N must be >= 1"),
    "monomials-in-minus-1-variables": (
        lambda: monomials_of_degree(-1, 0),
        ValueError, "N must be >= 1"),
    "monomial-table-in-0-variables": (
        lambda: monomial_table(0, 4),
        ValueError, "N must be >= 1"),
    "monomial-table-in-minus-2-variables": (
        lambda: MonomialTable(-2, 4),
        ValueError, "N must be >= 1"),
    "parse-in-0-variables": (
        lambda: parse_poly("x1", 0, QQ, 4),
        ValueError, "N must be >= 1"),
    "presentation-parse-in-0-variables": (
        lambda: IdealPresentation.parse(["2"], 0, QQ, 4),
        ValueError, "N must be >= 1"),
    "enumerate-over-qq": (
        lambda: enumerate_xi(2, 2, 4, QQ),
        ValueError, "enumeration needs a finite field"),
    "enumerate-float-e1": (
        lambda: enumerate_xi(2, 2, 4, GF(2), e1=1.0),
        TypeError, "e1 must be an int, got 1.0"),
    "enumerate-bool-e0": (
        lambda: enumerate_xi(2, True, 4, GF(2)),
        TypeError, "each of n_vars, e0 and n must be an int, got True"),
    "enumerate-float-e0": (
        lambda: enumerate_xi(2, 2.0, 4, GF(2)),
        TypeError, "each of n_vars, e0 and n must be an int, got 2.0"),
    "enumerate-float-level": (
        lambda: enumerate_xi(2, 2, 4.0, GF(2)),
        TypeError, "each of n_vars, e0 and n must be an int, got 4.0"),
    "projective-forms-over-qq": (
        lambda: all_projective_linear_forms(2, QQ, 4),
        ValueError, "only meaningful over a finite field"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_out_of_domain_call_is_rejected(case):
    call, error, message = CASES[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_job_file_that_cannot_be_read_or_lacks_a_key(tmp_path):
    absent = tmp_path / "absent.json"
    with pytest.raises(ValueError) as info:
        _read_job(absent, {"precision": INTEGER})
    assert str(info.value) == f"cannot read job file {absent}: No such file or directory"
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"level": 8}))
    with pytest.raises(ValueError) as info:
        _read_job(job, {"precision": INTEGER, "e0": INTEGER, "level": INTEGER})
    assert str(info.value) == f"job file {job} lacks precision, e0"
