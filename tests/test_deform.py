import random
import zlib
from math import comb

import pytest

from curvemoduli.deform import (
    DualPoly,
    FirstOrderDeformation,
    cm_colon_identity,
    colon,
    determinantal_ideal,
    determinantal_minors,
    flatness_direct,
    ideal_plus_power,
    is_family_first_order,
)
from curvemoduli.idealcalc import DegreeSpans, IdealPresentation, hilbert_data, initial_ideal
from curvemoduli.ringcore import GF, QQ, LevelError, TruncatedPoly, parse_poly, poly_str

from oracles import random_poly


def ideal(texts, n_vars=2, field=QQ, level=8):
    return IdealPresentation.parse(texts, n_vars, field, level)


def P(s, n_vars=2, level=8):
    return parse_poly(s, n_vars, QQ, level)


class TestDualPoly:
    def test_product_rule(self):
        a = DualPoly(P("x1"), P("x2"))
        b = DualPoly(P("x2"), P("x1"))
        prod = a * b
        assert poly_str(prod.re) == "x1*x2"
        assert poly_str(prod.eps) == "x1^2 + x2^2"

    def test_eps_squared_vanishes(self):
        eps = DualPoly(P("x1").scale(0), P("1"))
        assert (eps * eps).is_zero()


class TestColon:
    def test_triple_line_mod_maximal(self):
        # frozen by hand: h*x1 and h*x2 in (x1^3)+M^4 force h into M^3,
        # which is the span of (x1^3)+M^3 since x1^3 already lies in M^3
        cs = colon(ideal(["x1^3"]), ideal(["x1", "x2"]), 4)
        assert cs.dimension == 4
        assert sorted(poly_str(p) for p in cs.basis) == [
            "x1*x2^2", "x1^2*x2", "x1^3", "x2^3"
        ]
        assert not cs.contains(P("x1^2", level=4))

    def test_contained_k_gives_everything(self):
        cs = colon(ideal(["x1^3"]), ideal(["x1^3"]), 4)
        assert cs.dimension == 10

    def test_contains_the_ambient_ideal_span(self):
        I = ideal(["x2^2 - x1^3"])
        cs = colon(I, ideal(["x1", "x2"]), 4)
        spans = DegreeSpans(I.truncated(4), 4)
        for row in spans.ech.basis():
            assert cs.contains(spans.table.poly_of(dict(row), QQ))

    def test_ideal_plus_power_leaves_its_input_unchanged(self):
        # at the ideal's own level the gate hands back the ideal itself
        I = ideal(["x1^3"], level=5)
        plus = ideal_plus_power(I, 2, 5)
        assert [poly_str(g) for g in I.generators] == ["x1^3"]
        assert [poly_str(g) for g in plus.generators] == ["x1^3", "x2^2", "x1*x2", "x1^2"]

    def test_antitone_in_k(self):
        I = ideal(["x1^3"])
        chain = [ideal_plus_power(I, k, 5) for k in (1, 2, 3)]
        spaces = [colon(I, K, 5) for K in chain]
        # K shrinks along the chain, so the colon grows
        assert spaces[0].dimension <= spaces[1].dimension <= spaces[2].dimension
        for small, big in zip(spaces, spaces[1:]):
            for p in small.basis:
                assert big.contains(p)

    def test_monotone_in_ambient(self):
        K = ideal(["x1", "x2"])
        small = colon(ideal(["x1^3"]), K, 5)
        big = colon(ideal(["x1^3", "x2^3"]), K, 5)
        assert small.dimension <= big.dimension
        for p in small.basis:
            assert big.contains(p)

    def test_presentation_independent(self):
        I1 = ideal(["x1^2", "x2^3"])
        I2 = ideal(["x1^2 + x2^3", "x2^3"])
        K = ideal(["x1", "x2"])
        a = colon(I1, K, 5)
        b = colon(I2, K, 5)
        assert a.dimension == b.dimension
        for p in a.basis:
            assert b.contains(p)


def dense_colon_basis(I, K, a):
    """Reduced basis of {h mod M^a : h*k_j in I+M^a for every generator k_j
    of K}, as dense rows over the monomials of degree < a.  Built with
    naive_rref only: residuals modulo the rref of the span of I+M^a, the
    null space of the map h -> (h*k_j mod I+M^a)_j read off the free
    columns of its rref, and that null space brought to rref."""
    from curvemoduli.ringcore import monomials_of_degree
    from oracles import dense_multiple_rows, naive_rref

    field = I.field
    monos = [m for d in range(a) for m in monomials_of_degree(I.n_vars, d)]
    index = {m: i for i, m in enumerate(monos)}
    span = naive_rref(dense_multiple_rows(I.generators, a), field)

    def residual(poly):
        vec = [field.zero()] * len(monos)
        for m, c in poly.terms.items():
            vec[index[m]] = c
        for piv, row in span:
            c = vec[piv]
            if c != field.zero():
                vec = [field.of(x - c * y) for x, y in zip(vec, row)]
        return vec

    gens = [k.truncate_to(a) for k in K.generators]
    # column m of the map is the image of x^m
    images = [[x for k in gens for x in residual(k.mul_monomial(m))] for m in monos]
    matrix = [list(col) for col in zip(*images)]
    pivoted = naive_rref(matrix, field)
    pivot_cols = [piv for piv, _ in pivoted]
    null = []
    for free in (c for c in range(len(monos)) if c not in pivot_cols):
        vec = [field.zero()] * len(monos)
        vec[free] = field.one()
        for piv, row in pivoted:
            vec[piv] = field.of(-row[free])
        null.append(vec)
    return [row for _, row in naive_rref(null, field)]


def dense_rows(polys, n_vars, a):
    from curvemoduli.ringcore import monomials_of_degree

    monos = [m for d in range(a) for m in monomials_of_degree(n_vars, d)]
    return [[p.terms.get(m, p.field.zero()) for m in monos] for p in polys]


def random_colon_case(rng, n_vars, field, a):
    """Seeded I and K at level a + 1 (K's generators vanish at the origin)."""
    def gens(count, top):
        out = []
        while not out:
            out = [g for g in (random_poly(rng, n_vars, field, a + 1, top,
                                           min_degree=rng.randint(1, 2), density=0.4)
                               for _ in range(count)) if not g.is_zero()]
        return IdealPresentation(out, n_vars, field, a + 1)

    return gens(rng.randint(1, 2), a), gens(rng.randint(1, 2), 3)


class TestColonAgainstDenseOracle:
    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
    @pytest.mark.parametrize("n_vars", [2, 3])
    def test_basis_is_the_dense_kernel(self, field, n_vars):
        rng = random.Random(53 + n_vars + field.char)
        proper = 0
        for a in range(2, 6):
            for _ in range(4):
                I, K = random_colon_case(rng, n_vars, field, a)
                cs = colon(I, K, a)
                want = dense_colon_basis(I, K, a)
                assert dense_rows(cs.basis, n_vars, a) == want, (I, K, a)
                assert cs.dimension == len(want)
                proper += 0 < cs.dimension < comb(n_vars + a - 1, n_vars)
                # a redundant generator and the canonical rows of K+M^a give the same space
                k1, k2 = K.generators[0], K.generators[-1]
                x1 = TruncatedPoly(n_vars, field, K.level, {(1,) + (0,) * (n_vars - 1): 1})
                redundant = k1 + x1 * k2
                if not redundant.is_zero():
                    more = IdealPresentation(K.generators + [redundant], n_vars, field, K.level)
                    assert colon(I, more, a).basis == cs.basis
                spans = DegreeSpans(K.truncated(a), a)
                rows = IdealPresentation([spans.table.poly_of(row, field)
                                          for row in spans.ech.basis()], n_vars, field, a)
                assert colon(I, rows, a).basis == cs.basis
        assert proper > 0

    def test_k_known_below_the_level_is_rejected(self):
        with pytest.raises(LevelError, match="cannot extend precision from 3 to 4"):
            colon(ideal(["x1^3"]), ideal(["x1", "x2"], level=3), 4)


class TestFamilyCriterion:
    def test_eps_x1_perturbation_is_not_a_family(self):
        d = FirstOrderDeformation(ideal(["x1^3"]), [P("x1")], 3)
        fam, verdicts = is_family_first_order(d)
        assert not fam and verdicts == [False]
        flat, dims = flatness_direct(d, 4)
        assert not flat
        # frozen from the dual-number span oracle: 14, not 2*9
        assert dims == {"dual_dim": 14, "fiber_dim": 9}

    def test_high_order_perturbation_is_family(self):
        d = FirstOrderDeformation(ideal(["x1^3"]), [P("x2^3")], 3)
        assert is_family_first_order(d)[0]
        assert flatness_direct(d, 4)[0]

    def test_a_perturbation_that_is_not_a_poly_is_rejected(self):
        # only None is the zero perturbation: a string is not read as zero
        with pytest.raises(TypeError, match="got str"):
            FirstOrderDeformation(ideal(["x1^3"]), ["x1"], 3)

    def test_trivial_deformation(self):
        d = FirstOrderDeformation(ideal(["x1^3"]), [None], 3)
        assert is_family_first_order(d)[0]
        for n in (4, 5, 6):
            assert flatness_direct(d, n)[0]

    def test_flat_on_whole_window(self):
        d = FirstOrderDeformation(ideal(["x1^3"]), [P("x1^4")], 3)
        for n in (5, 6, 7, 8):
            assert flatness_direct(d, n)[0]

    def test_non_standard_base_rejected(self):
        with pytest.raises(ValueError, match="standard basis"):
            FirstOrderDeformation(ideal(["x1^2 - x2^3", "x1*x2^2"]), [None, None], 2)

    def test_order_above_e0_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            FirstOrderDeformation(ideal(["x1^3"]), [None], 2)


BASES = [
    (["x1^3"], 2, 3),
    (["x2^2 - x1^3"], 2, 2),
    (["x1*x2"], 2, 2),
    (["x2^2 - x1^5"], 2, 2),
    (["x1*x3 - x2^2", "x1^3 - x2*x3", "x1^2*x2 - x3^2"], 3, 3),
]


class TestEquivalenceSuite:
    @pytest.mark.parametrize("gens,n_vars,e0", BASES, ids=lambda v: str(v)[:24])
    def test_colon_iff_flat_on_seeded_perturbations(self, gens, n_vars, e0):
        level = e0 + 4
        base = ideal(gens, n_vars=n_vars, level=level)
        d0 = FirstOrderDeformation(base, [None] * len(base.generators), e0)
        rng = random.Random(zlib.crc32("|".join(gens).encode()) & 0xFFFF)
        agree = 0
        trials = 50
        for _ in range(trials):
            perts = [
                random_poly(rng, n_vars, QQ, level, e0 + 1, density=0.4)
                for _ in base.generators
            ]
            d = FirstOrderDeformation(base, perts, e0)
            fam = is_family_first_order(d)[0]
            flat = flatness_direct(d, e0 + 1)[0]
            assert fam == flat
            agree += 1
            if fam:
                for n in range(e0 + 1, e0 + 4):
                    assert flatness_direct(d, n)[0]
        assert agree == trials


class TestCmColonIdentity:
    def test_plane_curves(self):
        for e0 in (2, 3, 4, 5):
            I = ideal([f"x1^{e0}"], level=e0 + 2)
            assert cm_colon_identity(I, e0, [e0]) == {e0: True}

    def test_maximal_hilbert_function_space_curve(self):
        # b = 3, r = 1, e0 = C(3,1) = 3: three quadrics, identity at v = r+1
        I = ideal(["x1*x3 - x2^2", "x1^3 - x2*x3", "x1^2*x2 - x3^2"], n_vars=3, level=6)
        assert cm_colon_identity(I, 3, [2]) == {2: True}

    def test_determinantal_monomial_curves_outcome(self):
        # the computation decides; these graded rings turn out CM and the
        # identity holds (frozen outcome)
        I = ideal(["x3^2", "x2*x3", "x1^4*x2"], n_vars=3, level=8)
        assert cm_colon_identity(I, 6, [2, 5]) == {2: True, 5: True}
        I2 = ideal(["x3^2", "x2*x3", "x1^2*x2"], n_vars=3, level=6)
        assert cm_colon_identity(I2, 4, [2, 3]) == {2: True, 3: True}

    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
    def test_triple_line_with_embedded_point_fails(self, field):
        # a triple line with an embedded point, so not Cohen-Macaulay:
        # hilbert_data reads e0 = 3 and the identity fails from v = 2 on
        I = ideal(["x1*x3", "x2*x3", "x3^2", "x2^3"], n_vars=3, field=field, level=8)
        assert hilbert_data(I, 8).e0 == 3
        assert cm_colon_identity(I, 3, [1, 2, 3]) == {1: True, 2: False, 3: False}

    @pytest.mark.parametrize("vlist", [[0], [4], [2, 4, 1], [-1, 2]], ids=str)
    def test_order_outside_1_to_e0_rejected_by_name(self, vlist):
        I = ideal(["x1^3 + x2^4"], level=5)
        bad = next(v for v in vlist if not 1 <= v <= 3)
        with pytest.raises(ValueError, match=rf"1\.\.3, got v = {bad}$"):
            cm_colon_identity(I, 3, vlist)

    def test_ideal_below_e0_plus_1_rejected(self):
        # the identity lives in R/M^(e0+1): an ideal given at level e0 is
        # not padded up to it
        I = ideal(["x2^2 - x1^3"], level=3)
        with pytest.raises(LevelError, match=r"^cannot extend precision from 3 to 4$"):
            cm_colon_identity(I, 3, [1, 2])

    def test_ideal_below_e0_plus_1_rejected_without_orders(self):
        # no order to check means no colon, and the level is still refused
        I = ideal(["x2^2 - x1^3"], level=3)
        with pytest.raises(LevelError, match=r"^cannot extend precision from 3 to 4$"):
            cm_colon_identity(I, 3, [])


class TestDeterminantal:
    def test_example_matrix(self):
        lvl = 9
        z = TruncatedPoly.zero(3, QQ, lvl)
        mat = [
            [parse_poly("x3", 3, QQ, lvl), z],
            [parse_poly("x1^4", 3, QQ, lvl), parse_poly("x3", 3, QQ, lvl)],
            [z, parse_poly("x2", 3, QQ, lvl)],
        ]
        I = determinantal_ideal(mat)
        assert sorted(poly_str(g) for g in I.generators) == ["x1^4*x2", "x2*x3", "x3^2"]

    def test_degenerate_rows_collapse(self):
        lvl = 6
        z = TruncatedPoly.zero(2, QQ, lvl)
        mat = [
            [parse_poly("x1", 2, QQ, lvl), z],
            [z, parse_poly("x2", 2, QQ, lvl)],
            [z, z],
        ]
        I = determinantal_ideal(mat)
        assert [poly_str(g) for g in I.generators] == ["x1*x2"]

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="matrix"):
            determinantal_minors([[P("x1")]])

    def test_unit_entry_rejected(self):
        lvl = 5
        z = TruncatedPoly.zero(2, QQ, lvl)
        with pytest.raises(ValueError, match="maximal ideal"):
            determinantal_ideal([[parse_poly("1 + x1", 2, QQ, lvl)], [z]])

    def test_minor_that_is_only_an_eps_part_is_rejected(self):
        # minor 0 of [[x1^2], [eps*x2]] is eps*x2: no generator of the base
        # (x1^2) carries it, so dropping it would test a different family
        lvl = 8
        z = TruncatedPoly.zero(2, QQ, lvl)
        mat = [[DualPoly(parse_poly("x1^2", 2, QQ, lvl))],
               [DualPoly(z, parse_poly("x2", 2, QQ, lvl))]]
        with pytest.raises(ValueError, match=r"minor 0 \(row 0 omitted\) is only an eps-part, eps\*\(x2\)"):
            determinantal_ideal(mat)

    def test_eps_free_dual_entries_reduce_to_plain(self):
        lvl = 7
        z = TruncatedPoly.zero(3, QQ, lvl)
        plain = [
            [parse_poly("x3", 3, QQ, lvl), z],
            [parse_poly("x1^2", 3, QQ, lvl), parse_poly("x3", 3, QQ, lvl)],
            [z, parse_poly("x2", 3, QQ, lvl)],
        ]
        dual = [[DualPoly(e) for e in row] for row in plain]
        minors = determinantal_minors(dual)
        assert all(m.eps.is_zero() for m in minors)
        plain_minors = determinantal_minors(plain)
        assert [m.re for m in minors] == plain_minors

    def test_perturbed_syzygy_matrix_is_family(self):
        # eps-deformation of the syzygy matrix: family by both routes
        lvl = 8
        z = TruncatedPoly.zero(3, QQ, lvl)

        def p(s):
            return parse_poly(s, 3, QQ, lvl)

        mat = [
            [DualPoly(p("x3"), p("x1^2")), DualPoly(z)],
            [DualPoly(p("x1^2"), p("x1^4")), DualPoly(p("x3"), p("x2^2"))],
            [DualPoly(z), DualPoly(p("x2"), p("x1*x3"))],
        ]
        d = determinantal_ideal(mat)
        assert isinstance(d, FirstOrderDeformation)
        assert d.e0 == 4
        assert is_family_first_order(d)[0]
        assert flatness_direct(d, d.e0 + 1)[0]

    def test_perturbed_matrix_keeps_tangent_cone_fiberwise(self):
        # substitute samples for the deformation parameter and compare the
        # initial ideals of the fibers with the central one
        lvl = 8
        center = ideal(["x3^2", "x2*x3", "x1^2*x2"], n_vars=3, level=lvl)
        want = initial_ideal(center, lvl).slice_dims
        for u in (1, 2, -1):
            z = TruncatedPoly.zero(3, QQ, lvl)

            def p(s):
                return parse_poly(s, 3, QQ, lvl)

            mat = [
                [p("x3") + p("x1^2").scale(u), z],
                [p("x1^2") + p("x1^4").scale(u), p("x3") + p("x2^2").scale(u)],
                [z, p("x2") + p("x1*x3").scale(u)],
            ]
            fiber = determinantal_ideal(mat)
            assert initial_ideal(fiber, lvl).slice_dims == want, u
