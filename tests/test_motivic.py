import random
from fractions import Fraction

import pytest

from curvemoduli.motivic import (
    MeasureContext,
    MotivicClass,
    RationalSeries,
    fit_class_from_counts,
    measure_of_level,
    mps,
    parse_motivic,
    volume_partial,
)

L = MotivicClass.L
ONE = MotivicClass.one()


def random_class(rng, span=4):
    return MotivicClass({
        rng.randint(-span, span): rng.randint(-5, 5) for _ in range(rng.randint(0, 4))
    })


class TestClassArithmetic:
    def test_inverse_of_l(self):
        assert L(1) * L(-1) == ONE

    def test_difference_of_squares(self):
        assert (L(1) - ONE) * (L(1) + ONE) == L(2) - ONE

    def test_norm_from_top_degree(self):
        assert (L(3) + L(1)).norm() == 8
        assert (L(3) + L(1)).order() == -3
        assert MotivicClass.zero().norm() == 0
        assert MotivicClass.zero().order() is None
        assert L(-2).norm() == Fraction(1, 4)

    def test_ring_axioms_random(self):
        rng = random.Random(4)
        for _ in range(30):
            a, b, c = (random_class(rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a

    def test_non_archimedean_norm_axioms(self):
        rng = random.Random(8)
        for _ in range(60):
            a, b = random_class(rng), random_class(rng)
            assert (a * b).norm() <= a.norm() * b.norm()
            assert (a + b).norm() <= max(a.norm(), b.norm())

    def test_printing(self):
        assert str(L(2) - ONE) == "L^2 - 1"
        assert str(MotivicClass({-1: 2, 3: -1})) == "-L^3 + 2*L^-1"

    def test_parse_roundtrip(self):
        rng = random.Random(12)
        for _ in range(25):
            a = random_class(rng)
            assert parse_motivic(str(a)) == a


# The accepted language of parse_motivic: each input with its printed class
# or its exact error.  Recorded from the character scanner that the token loop
# replaced; only the entries marked "fixed" differ from that record.
CLASS_TABLE = [
    ("L^+2", "L^2"),
    ("3*L^2 - L + 1 + 2*L^-1", "3*L^2 - L + 1 + 2*L^-1"),
    ("L^ -2", "L^-2"),
    ("2 L", "2*L"),
    ("2 * L", "2*L"),
    ("-L", "-L"),
    ("0", "0"),
    ("0*L", "0"),
    ("L^0", "1"),
    ("L - L", "0"),
    ("  L  ", "L"),
    ("L^-0", "1"),
    ("12L^3 - 2", "12*L^3 - 2"),
    ("L^2 + L^2", "2*L^2"),
    ("L^ - 2", ValueError("expected an integer at position 3 in 'L^ - 2'")),
    ("1/2", ValueError("expected '+' or '-' at position 1 in '1/2'")),
    ("", ValueError("empty class")),
    ("  ", ValueError("empty class")),
    ("+L", ValueError("unexpected leading '+'")),
    ("L^", ValueError("expected an integer at position 2 in 'L^'")),
    ("LL", ValueError("expected '+' or '-' at position 1 in 'LL'")),
    ("L2", ValueError("expected '+' or '-' at position 1 in 'L2'")),
    ("L^L", ValueError("expected an integer at position 2 in 'L^L'")),
    ("2 * 3", ValueError("expected '+' or '-' at position 4 in '2 * 3'")),
    # a syntax error further on is reported before an empty term
    ("L - x - ", ValueError("expected '+' or '-' at position 4 in 'L - x - '")),
    # fixed: an empty term or a dangling '*' was read as a coefficient
    ("L -", ValueError("expected a term at position 3 in 'L -'")),
    ("-", ValueError("expected a term at position 1 in '-'")),
    ("--L", ValueError("expected a term at position 1 in '--L'")),
    ("2*", ValueError("expected 'L' after '*' at position 2 in '2*'")),
    # fixed: the position indexes the text as given, not the stripped text
    (" - 11x", ValueError("expected '+' or '-' at position 5 in ' - 11x'")),
]


@pytest.mark.parametrize("text,expected", CLASS_TABLE, ids=[repr(t) for t, _ in CLASS_TABLE])
def test_parse_table(text, expected):
    if isinstance(expected, ValueError):
        with pytest.raises(ValueError) as err:
            parse_motivic(text)
        assert (type(err.value), str(err.value)) == (ValueError, str(expected))
    else:
        assert str(parse_motivic(text)) == expected


class TestSpecialize:
    def test_point_count(self):
        assert (L(2) - ONE).specialize(3) == 8

    def test_negative_power_gives_rational(self):
        assert L(-1).specialize(2) == Fraction(1, 2)

    def test_ring_morphism(self):
        rng = random.Random(6)
        for _ in range(40):
            a, b = random_class(rng), random_class(rng)
            for q in (2, 3, 5):
                assert (a * b).specialize(q) == a.specialize(q) * b.specialize(q)
                assert (a + b).specialize(q) == a.specialize(q) + b.specialize(q)

    def test_q_below_two_rejected(self):
        with pytest.raises(ValueError):
            ONE.specialize(1)


class TestMeasure:
    def test_full_measure_normalizes_to_one(self):
        ctx = MeasureContext(3, 1)  # c = 2
        assert measure_of_level(L(2 * (4 + 1)), 4, ctx) == ONE

    def test_stability_under_level_shift(self):
        ctx = MeasureContext(2, 3)  # c = 3
        cls_n = L(7) + L(5)
        cls_n1 = cls_n * L(ctx.c)
        assert measure_of_level(cls_n, 6, ctx) == measure_of_level(cls_n1, 7, ctx)

    def test_specialization_matches_normalized_counts(self):
        # enumerated plane-curve counts: count(n) / q^{(n+1)c} is the
        # specialized measure, and it is level-independent
        from curvemoduli.ringcore import GF
        from curvemoduli.trunctower import enumerate_xi

        ctx = MeasureContext(2, 1)
        for q in (2, 3):
            vals = []
            for n in (3, 4):
                count = enumerate_xi(2, 1, n, GF(q)).count
                vals.append(Fraction(count, q ** ((n + 1) * ctx.c)))
            assert vals[0] == vals[1]


class TestMps:
    def test_closed_form_expansion(self):
        ctx = MeasureContext(3, 1)  # c = 2
        series = mps(ONE, 3, ctx)
        coeffs = series.expand(5)
        assert [str(c) for c in coeffs] == ["0", "0", "0", "L^6", "L^8", "L^10"]

    def test_recurrence_twenty_terms(self):
        rng = random.Random(3)
        for _ in range(10):
            ctx = MeasureContext(rng.randint(2, 4), rng.randint(1, 3))
            n0 = rng.randint(1, 4)
            cls = random_class(rng, span=2)
            if cls.is_zero():
                cls = ONE
            series = mps(cls, n0, ctx)
            coeffs = series.expand(n0 + 20)
            for n in range(n0, n0 + 20):
                assert coeffs[n + 1] == coeffs[n] * L(ctx.c)
            for n in range(n0):
                assert coeffs[n].is_zero()

    @pytest.mark.parametrize("n_vars, e0, name", [(2, 0, "e0"), (2, -1, "e0"), (0, 2, "N")])
    def test_context_outside_the_domain_is_rejected(self, n_vars, e0, name):
        ctx = MeasureContext(n_vars, e0)
        for use in (lambda: mps(ONE, 1, ctx), lambda: mps(MotivicClass.zero(), 1, ctx),
                    lambda: measure_of_level(ONE, 1, ctx)):
            with pytest.raises(ValueError, match=f"{name} must be >= 1"):
                use()

    def test_zero_class_gives_zero_series(self):
        ctx = MeasureContext(2, 2)
        series = mps(MotivicClass.zero(), 3, ctx)
        assert all(c.is_zero() for c in series.expand(6))

    def test_representation_equality_by_cross_multiplication(self):
        s1 = RationalSeries({3: L(6)}, [(2, 1)])
        extra = MotivicClass.zero() - L(2)
        s2 = RationalSeries({3: L(6), 4: L(6) * extra}, [(2, 1), (2, 1)])
        assert s1 == s2
        s3 = RationalSeries({3: L(6), 4: L(6)}, [(2, 1), (2, 1)])
        assert s1 != s3
        assert (RationalSeries({0: ONE}) == 5) is False


class TestSeriesExpand:
    def test_geometric(self):
        g = RationalSeries({0: ONE}, [(1, 1)])
        assert [str(c) for c in g.expand(3)] == ["1", "L", "L^2", "L^3"]

    def test_negative_order_is_rejected(self):
        g = RationalSeries({0: ONE}, [(1, 1)])
        with pytest.raises(ValueError, match="must be >= 0"):
            g.expand(-1)
        assert g.expand(0) == [ONE]

    def test_empty_denominator(self):
        s = RationalSeries({2: L(5)})
        coeffs = s.expand(4)
        assert coeffs[2] == L(5) and all(coeffs[i].is_zero() for i in (0, 1, 3, 4))

    def test_product_rule_against_convolution(self):
        rng = random.Random(19)
        for _ in range(10):
            f = RationalSeries({rng.randint(0, 2): random_class(rng, 2) + ONE}, [(1, 1)])
            g = RationalSeries(
                {rng.randint(0, 2): random_class(rng, 2) + ONE}, [(rng.randint(0, 2), 1)]
            )
            k = 8
            product = RationalSeries(
                _mul_num(f.numerator, g.numerator),
                list(f.denominator) + list(g.denominator),
            )
            fg = product.expand(k)
            fe, ge = f.expand(k), g.expand(k)
            conv = [
                sum((fe[i] * ge[n - i] for i in range(n + 1)), MotivicClass.zero())
                for n in range(k + 1)
            ]
            assert fg == conv


def _mul_num(a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, MotivicClass.zero()) + x * y
    return out


class TestVolume:
    def test_no_terms(self):
        assert volume_partial({}) == (MotivicClass(0), Fraction(0))

    def test_single_term(self):
        total, bound = volume_partial({0: ONE})
        assert total == ONE and bound == Fraction(1, 2)

    def test_shifts(self):
        total, _ = volume_partial({0: ONE, 2: L(1)})
        assert total == ONE + L(-1)

    def test_norm_of_partial_sums_non_increasing_tail(self):
        # with term norms decaying, the tail bound shrinks as S grows
        terms = {s: ONE for s in range(6)}
        bounds = []
        for S in range(1, 6):
            _, bound = volume_partial({s: terms[s] for s in range(S + 1)})
            bounds.append(bound)
        assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            volume_partial({-1: ONE})


STANDING = "polynomial point-count behavior is an assumption, not a verified fact"
UNCHECKED = "every count was used by the fit: none is left to check the class"


class TestFit:
    def test_two_points_linear(self):
        cls, warnings = fit_class_from_counts({2: 6, 3: 12}, 2)
        assert cls.specialize(2) == 6 and cls.specialize(3) == 12
        assert any("assumption" in w for w in warnings)

    def test_three_points_recover_true_class(self):
        cls, _ = fit_class_from_counts({2: 6, 3: 12, 5: 30}, 2)
        assert cls == L(2) + L(1)

    def test_impossible_fit_raises(self):
        with pytest.raises(ValueError):
            fit_class_from_counts({2: 5, 3: 10, 5: 26, 7: 50}, 1)

    def test_zero_coefficients_are_read_as_zero(self):
        # both fits are exactly determined, so neither is checked by a count
        cls, warnings = fit_class_from_counts({q: q**3 - 1 for q in (2, 3, 5, 7)}, 3)
        assert cls.coeffs == {3: 1, 0: -1} and str(cls) == "L^3 - 1"
        assert warnings == [STANDING, UNCHECKED]
        cls, warnings = fit_class_from_counts({2: 1, 3: 1}, 1)
        assert cls == ONE and warnings == [STANDING, UNCHECKED]

    @pytest.mark.parametrize("counts, max_degree, fitted", [
        # level-4 smooth plane counts: the true class is L^3 + L^2
        ({2: 12, 3: 36, 5: 150}, 2, "11*L^2 - 31*L + 30"),
        # level-3 smooth plane counts: the true class is L^2 + L
        ({2: 6, 3: 12}, 1, "6*L - 6"),
    ])
    def test_exactly_determined_wrong_fit_is_flagged(self, counts, max_degree, fitted):
        cls, warnings = fit_class_from_counts(counts, max_degree)
        assert str(cls) == fitted
        assert warnings == [STANDING, UNCHECKED]

    def test_held_out_count_checks_the_fit(self):
        cls, warnings = fit_class_from_counts({2: 6, 3: 12, 5: 30, 7: 56}, 2)
        assert cls == L(2) + L(1)
        assert warnings == [STANDING]

    def test_non_integral_fit_names_the_solution(self):
        with pytest.raises(ValueError) as exc:
            fit_class_from_counts({2: 3, 4: 4}, 1)
        assert str(exc.value) == "fit is not integral: [Fraction(2, 1), Fraction(1, 2)]"
