import itertools
import random

import pytest

from curvemoduli.idealcalc import DegreeSpans, IdealPresentation, hilbert_data
from curvemoduli.ringcore import (
    GF, QQ, FieldTooSmallError, LevelError, TruncatedPoly, parse_poly, poly_str,
)
from curvemoduli.trunctower import (
    BudgetExceededError,
    CellIndex,
    TnFailure,
    _length_with_form,
    admissible,
    admissible_polys,
    admissible_range,
    all_projective_linear_forms,
    candidate_forms,
    cell_membership,
    cm_superficial_test,
    enumerate_xi,
    hilbert_stratum_check,
    jtilde,
    shape_check,
    tn_membership,
)


def ideal(texts, n_vars=2, field=QQ, level=8):
    return IdealPresentation.parse(texts, n_vars, field, level)


class TestCandidateForms:
    def test_plane_e0_three(self):
        forms = candidate_forms(2, 3, QQ, 6)
        assert [poly_str(L) for L in forms] == ["x1", "x1 + x2", "x1 + 2*x2", "x1 + 3*x2"]

    def test_single_variable(self):
        forms = candidate_forms(1, 5, QQ, 4)
        assert len(forms) == 1 and poly_str(forms[0]) == "x1"

    def test_field_too_small(self):
        with pytest.raises(FieldTooSmallError):
            candidate_forms(3, 2, GF(2), 4)

    def test_vandermonde_independence(self):
        # any N of the forms are linearly independent
        n_vars, e0 = 3, 2
        forms = candidate_forms(n_vars, e0, QQ, 3)
        from oracles import naive_rank
        for subset in itertools.combinations(forms, n_vars):
            rows = []
            for L in subset:
                row = [QQ.zero()] * n_vars
                for mono, c in L.terms.items():
                    row[mono.index(1)] = c
                rows.append(row)
            assert naive_rank(rows, QQ) == n_vars


class TestSuperficialTest:
    def test_triple_line_transverse_form(self):
        I = ideal(["x1^3"])
        ok, cert = cm_superficial_test(I, parse_poly("x2", 2, QQ, 8), 3)
        assert ok and cert.length_with_L == 3

    def test_triple_line_tangent_form_fails(self):
        I = ideal(["x1^3"])
        ok, cert = cm_superficial_test(I, parse_poly("x1", 2, QQ, 8), 3)
        assert not ok and cert.length_with_L == 4

    def test_smooth_transversal(self):
        I = ideal(["x2"], level=4)
        ok, cert = cm_superficial_test(I, parse_poly("x1", 2, QQ, 4), 1)
        assert ok and cert.length_with_L == 1

    def test_matches_stabilized_length_oracle(self):
        # Prop (1) <-> (2): the e0+1 criterion equals the stabilized length
        # of R/(I+(L)) computed independently at increasing levels
        cases = [
            (["x1^3"], 2, 3, "x1 + x2"),
            (["x1^3"], 2, 3, "x1"),
            (["x2^2 - x1^3"], 2, 2, "x2"),
            (["x1*x3 - x2^2", "x1^3 - x2*x3", "x1^2*x2 - x3^2"], 3, 3, "x1"),
        ]
        for gens, n_vars, e0, L_text in cases:
            I = ideal(gens, n_vars=n_vars, level=12)
            L = parse_poly(L_text, n_vars, QQ, 12)
            ok, cert = cm_superficial_test(I, L, e0)
            lengths = []
            for lvl in range(e0 + 1, 12):
                gens_l = [g.truncate_to(lvl) for g in I.generators] + [L.truncate_to(lvl)]
                spans = DegreeSpans(IdealPresentation(gens_l, n_vars, QQ, lvl), lvl)
                lengths.append(spans.h1(lvl - 1))
            stabilized = lengths[-1] == lengths[-2]
            if stabilized:
                assert ok == (lengths[-1] == e0)
            else:
                # divergent length: L is a zerodivisor direction, never superficial
                assert not ok

    def test_unit_form_rejected(self):
        with pytest.raises(ValueError, match="x1 \\+ 1 is a unit"):
            cm_superficial_test(ideal(["x1^3"]), parse_poly("1 + x1", 2, QQ, 8), 3)

    def test_form_killed_by_truncation_rejected(self):
        # x1^9 is zero at the criterion's level e0+1 = 4
        with pytest.raises(ValueError, match="zero generator"):
            cm_superficial_test(ideal(["x1^3"], level=12), parse_poly("x1^9", 2, QQ, 12), 3)


def random_ideal_and_forms(rng, n_vars, field, level):
    """A seeded ideal of order >= 2 with three forms: a linear L, the same L
    plus terms of degree 2-3, and an L of order 2."""
    from oracles import random_poly
    gens = []
    while not gens:
        gens = [p for p in (random_poly(rng, n_vars, field, level, 4, min_degree=2, density=0.4)
                            for _ in range(n_vars - 1)) if not p.is_zero()]
    linear = quadric = TruncatedPoly(n_vars, field, level, {})
    while linear.is_zero() or quadric.is_zero():
        linear = random_poly(rng, n_vars, field, level, 1, min_degree=1)
        quadric = random_poly(rng, n_vars, field, level, 3, min_degree=2)
    return IdealPresentation(gens, n_vars, field, level), [linear, linear + quadric, quadric]


class TestLengthWithForm:
    """dim R/(J+(L)+M^n) read as a rank modulo the span of J must equal the
    dense H1 of J+(L) at the top degree."""

    @pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
    @pytest.mark.parametrize("n_vars,level", [(2, 7), (3, 5)])
    def test_against_dense_oracle(self, field, n_vars, level):
        from oracles import dense_ideal_h1
        rng = random.Random(17 + n_vars)
        for _ in range(3):
            I, forms = random_ideal_and_forms(rng, n_vars, field, level)
            spans = DegreeSpans(I, level)
            for L in forms:
                want = dense_ideal_h1(I.generators + [L], level)[-1]
                assert _length_with_form(spans, L) == want, (I, L)


class TestTnMembership:
    def test_plane_triple_line(self):
        res = tn_membership(ideal(["x1^3"], level=6), 6, 3)
        assert not isinstance(res, TnFailure)
        assert poly_str(res.L) == "x1 + x2"
        assert res.length_with_L == 3
        assert res.iso_range == [2, 3, 4]

    @pytest.mark.parametrize("check", [
        lambda I: tn_membership(I, 5, 0),
        lambda I: shape_check(I, 5, 0),
        lambda I: cm_superficial_test(I, parse_poly("x1", 2, QQ, 8), 0),
    ], ids=["tn_membership", "shape_check", "cm_superficial_test"])
    def test_multiplicity_zero_is_rejected(self, check):
        with pytest.raises(ValueError, match="e0 must be >= 1"):
            check(ideal(["x2^2 - x1^3"]))

    def test_punctual_scheme_fails_dimension(self):
        res = tn_membership(ideal(["x1^2"], level=3), 3, 1)
        assert isinstance(res, TnFailure)
        assert res.condition == 2 and res.degree == 1

    def test_smooth_line(self):
        res = tn_membership(ideal(["x2"], level=4), 4, 1)
        assert not isinstance(res, TnFailure)

    def test_level_too_small_rejected(self):
        with pytest.raises(LevelError):
            tn_membership(ideal(["x1^3"], level=4), 4, 3)

    def test_members_pass_shape(self):
        # a T_n failure of shape_check would be a bug, not an input property
        fixtures = [
            (["x2"], 2, 1),
            (["x1^3"], 2, 3),
            (["x2^2 - x1^3"], 2, 2),
            (["x1*x3 - x2^2", "x1^3 - x2*x3", "x1^2*x2 - x3^2"], 3, 3),
            (["x3^2", "x2*x3", "x1^2*x2"], 3, 4),
        ]
        for gens, n_vars, e0 in fixtures:
            n = 2 * e0 + 2
            I = ideal(gens, n_vars=n_vars, level=n)
            res = tn_membership(I, n, e0)
            assert not isinstance(res, TnFailure), (gens, res)
            rep = shape_check(I, n, e0)
            assert rep.ok and rep.slice_identity_ok, (gens, rep)

    def test_given_spans_give_the_same_verdict(self):
        cases = [
            (["x1^3"], 2, 6, 3, None),
            (["x2^2 - x1^3"], 2, 6, 2, None),
            (["x1^2"], 2, 3, 1, None),
            (["x1^3"], 2, 6, 3, ["x1"]),
            (["x1*x3 - x2^2", "x1^3 - x2*x3", "x1^2*x2 - x3^2"], 3, 8, 3, None),
        ]
        for gens, n_vars, n, e0, form_texts in cases:
            I = ideal(gens, n_vars=n_vars, level=n + 1)
            forms = form_texts and [parse_poly(t, n_vars, QQ, n) for t in form_texts]
            alone = tn_membership(I, n, e0, forms=forms)
            given = tn_membership(I, n, e0, forms=forms, spans=DegreeSpans(I.truncated(n), n))
            assert given.to_json() == alone.to_json(), gens
        assert alone.iso_range  # the last case is a member

    def test_zero_or_unit_form_rejected(self):
        # both ideals pass the slice-dimension check, so condition (1) is reached
        with pytest.raises(ValueError, match="x1 \\+ 1 is a unit"):
            tn_membership(ideal(["x1^3"], level=6), 6, 3, forms=[parse_poly("1 + x1", 2, QQ, 6)])
        with pytest.raises(ValueError, match="zero generator"):
            tn_membership(ideal(["x2"], level=4), 4, 1, forms=[parse_poly("x1^9", 2, QQ, 12)])

    def test_membership_survives_truncation(self):
        gens, n_vars, e0 = ["x2^2 - x1^3"], 2, 2
        top = 2 * e0 + 2
        I = ideal(gens, n_vars=n_vars, level=top)
        for n in range(e0 + 2, top + 1):
            res = tn_membership(I.truncated(n), n, e0)
            assert not isinstance(res, TnFailure), n


class TestShapeAndJtilde:
    def test_principal_generator_degrees(self):
        rep = shape_check(ideal(["x1^3"], level=7), 7, 3)
        assert rep.ok and rep.vstar == [3] and rep.slice_identity_ok

    def test_forbidden_degree_reported(self):
        # (x1^2, x1*x2^2) has minimal initial generators in degrees 2, 3, 4
        I = ideal(["x1^2", "x1*x2^2"], level=6)
        rep = shape_check(I, 6, 2)
        assert not rep.ok
        assert 3 in rep.forbidden_degrees or 4 in rep.forbidden_degrees
        assert not rep.slice_identity_ok

    def test_smallest_window(self):
        # n = e0+2: the forbidden set is the single degree e0+1
        rep = shape_check(ideal(["x1^2"], level=4), 4, 2)
        assert rep.ok

    def test_jtilde_principal(self):
        res = jtilde(ideal(["x1^3"], level=7), 7, 3)
        assert res.verified
        assert [poly_str(g) for g in res.ideal.generators] == ["x1^3"]

    def test_jtilde_inhomogeneous_input(self):
        res = jtilde(ideal(["x1^2 + x2^3"], level=8), 8, 2)
        assert res.verified
        assert [poly_str(g) for g in res.ideal.generators] == ["x1^2"]
        assert res.hilbert.e0 == 2

    def test_jtilde_verification_fails_below_cutoff(self):
        # a degree-3 minimal generator above the claimed e0 = 2: the
        # degree <= e0 part cannot regenerate the slices, and the report
        # says so instead of pretending
        I = ideal(["x1^2", "x1*x2^2"], level=6)
        res = jtilde(I, 6, 2)
        assert not res.verified
        assert not res.slice_match

    def test_jtilde_monomial_three_generators(self):
        I = ideal(["x3^2", "x2*x3", "x1^2*x2"], n_vars=3, level=10)
        res = jtilde(I, 10, 4)
        assert res.verified
        assert sorted(poly_str(g) for g in res.ideal.generators) == [
            "x1^2*x2", "x2*x3", "x3^2"
        ]


class TestTruncate:
    def test_drops_invisible_tails(self):
        I = ideal(["x1^3 + x2^5"], level=7)
        J = I.truncated(4)
        assert [poly_str(g) for g in J.generators] == ["x1^3"]

    def test_idempotent_and_min(self):
        I = ideal(["x1^3 + x2^5"], level=7)
        assert I.truncated(5).truncated(4).level == I.truncated(4).level
        a = I.truncated(5).truncated(4)
        b = I.truncated(4)
        assert [poly_str(g) for g in a.generators] == [poly_str(g) for g in b.generators]

    def test_spans_commute_with_truncation_on_random_ideals(self):
        rng = random.Random(31)
        from oracles import random_poly
        for _ in range(20):
            gens = []
            while not gens:
                gens = [
                    p for p in (random_poly(rng, 2, QQ, 7, 5, min_degree=1) for _ in range(2))
                    if not p.is_zero() and p.order() >= 1
                ]
            I = IdealPresentation(gens, 2, QQ, 7)
            n1 = rng.randint(2, 6)
            direct = DegreeSpans(I.truncated(n1), n1)
            full = DegreeSpans(I, 7)
            assert [direct.span_dim(d) for d in range(n1)] == [
                full.span_dim(d) for d in range(n1)
            ]


class TestAdmissible:
    def test_degenerate_point(self):
        assert admissible(1, 1, 0)
        assert not admissible(1, 1, 1)
        rng = admissible_range(1, 1)
        assert (rng.rho0, rng.rho1) == (0, 0)

    def test_plane_collapse(self):
        for e0 in range(2, 9):
            rng = admissible_range(2, e0)
            assert rng.r == e0 - 1
            assert rng.rho0 == rng.rho1 == e0 * (e0 - 1) // 2

    def test_space_spot_value(self):
        rng = admissible_range(3, 3)
        assert (rng.r, rng.rho0, rng.rho1) == (1, 2, 2)

    def test_rho0_le_rho1_exhaustive(self):
        for e0 in range(2, 13):
            for b in range(2, e0 + 1):
                rng = admissible_range(b, e0)
                assert rng.rho0 <= rng.rho1, (b, e0)

    def test_b_above_e0_rejected(self):
        with pytest.raises(ValueError, match="b = 4 > e0"):
            admissible(4, 3, 1)

    def test_polys_listing(self):
        assert admissible_polys(3, 3) == [(2, 3), (3, 2)]
        assert admissible_polys(2, 1) == [(1, 0)]


class TestHilbertStratum:
    def test_own_function_accepted(self):
        I = ideal(["x2^2 - x1^3"], level=6)
        hd = hilbert_data(I, 6)
        ok, mismatch = hilbert_stratum_check(I, hd.values, 1, 6)
        assert ok and mismatch is None

    def test_admissible_but_different_function_rejected_at_r1(self):
        # space curve <3,4,5>: H1 = [1,4,7,10,...]; the fake function differs
        # at t = 1 but agrees from e0-1 = 2 on, so it is admissible for p
        I = ideal(["x1*x3 - x2^2", "x1^3 - x2*x3", "x1^2*x2 - x3^2"], n_vars=3, level=8)
        fake = [1, 3, 7, 10, 13, 16, 19, 22]
        ok, mismatch = hilbert_stratum_check(I, fake, 1, 8)
        assert not ok and mismatch == 1
        ok3, _ = hilbert_stratum_check(I, fake, 3, 8)
        assert ok3

    def test_r_equal_e0_plus_1_vacuous(self):
        I = ideal(["x1*x3 - x2^2", "x1^3 - x2*x3", "x1^2*x2 - x3^2"], n_vars=3, level=8)
        fake = [1, 3, 7, 10, 13, 16, 19, 22]
        ok, _ = hilbert_stratum_check(I, fake, 4, 8)
        assert ok

    def test_inadmissible_function_rejected(self):
        I = ideal(["x2^2 - x1^3"], level=6)
        with pytest.raises(ValueError, match="not admissible"):
            hilbert_stratum_check(I, [1, 3, 6, 8, 10, 12], 1, 6)

    def test_zero_dimensional_ideal_rejected(self):
        point = ideal(["x1^2", "x2^2"], level=6)
        with pytest.raises(ValueError, match="zero-dimensional"):
            hilbert_stratum_check(point, [1, 3, 4, 4, 4, 4], 1, 6)

    def test_plane_functions_coincide(self):
        # the node and the cusp share the full plane Hilbert function, so a
        # cross-stratum check between them is vacuously a match
        cusp = ideal(["x2^2 - x1^3"], level=6)
        node = ideal(["x1*x2"], level=6)
        node_hd = hilbert_data(node, 6)
        ok, _ = hilbert_stratum_check(cusp, node_hd.values, 1, 6)
        assert ok


class TestCells:
    def test_plane_standard_cell(self):
        e0, n = 2, 5
        I = ideal(["x1^2"], level=n)
        # monomials deg < 2 ascending: 1, x2, x1 -> i = all three
        # degree-2 block indices 4..6: x2^2, x1*x2, x1^2 -> j without x1^2
        cell = CellIndex([1, 2, 3], [4, 5], 1)  # L_1 = x1 + x2
        assert cell_membership(I, n, cell, e0)

    def test_wrong_j_block_fails(self):
        e0, n = 2, 5
        I = ideal(["x1^2"], level=n)
        # j picks x1*x2 and x1^2; x1^2 dies in R/J so the projection drops rank
        cell = CellIndex([1, 2, 3], [5, 6], 1)
        assert not cell_membership(I, n, cell, e0)

    def test_colength_mismatch_fails(self):
        e0, n = 2, 5
        whole_m = ideal(["x1", "x2"], level=n)
        cell = CellIndex([1, 2, 3], [4, 5], 1)
        assert not cell_membership(whole_m, n, cell, e0)

    def test_malformed_cell_rejected(self):
        I = ideal(["x1^2"], level=5)
        with pytest.raises(ValueError):
            cell_membership(I, 5, CellIndex([1, 2, 3], [4], 1), 2)
        with pytest.raises(ValueError):
            cell_membership(I, 5, CellIndex([1, 2, 99], [4, 5], 1), 2)


class TestEnumerate:
    def test_smooth_lines_over_f2(self):
        res = enumerate_xi(2, 1, 3, GF(2))
        # (q+1)*q classes: tangent direction plus the curvature coefficient
        assert res.count == 6
        assert len(res.ideals) == 6

    def test_fibration_ratio_e0_one(self):
        for q in (2, 3):
            c3 = enumerate_xi(2, 1, 3, GF(q)).count
            c4 = enumerate_xi(2, 1, 4, GF(q)).count
            assert c4 == q * c3

    def test_fibration_ratio_e0_two_q2(self):
        c4 = enumerate_xi(2, 2, 4, GF(2)).count
        c5 = enumerate_xi(2, 2, 5, GF(2)).count
        assert (c4, c5) == (28, 112)

    def test_inadmissible_parameters_empty(self):
        assert enumerate_xi(2, 2, 4, GF(2), e1=5).count == 0

    def test_form_order_invariance(self):
        # the output set of canonical ideals does not depend on the order in
        # which candidate linear forms are scanned
        res = enumerate_xi(2, 1, 3, GF(2))
        keys = sorted(";".join(poly_str(g) for g in J.generators) for J in res.ideals)
        field = GF(2)
        forms = list(reversed(all_projective_linear_forms(2, field, 3)))
        survivors = []
        for J in res.ideals:
            out = tn_membership(J, 3, 1, forms=forms)
            assert not isinstance(out, TnFailure)
            survivors.append(";".join(poly_str(g) for g in J.generators))
        assert sorted(survivors) == keys

    @pytest.mark.parametrize("e0", [0, -1])
    def test_multiplicity_below_one_is_rejected(self, e0):
        with pytest.raises(ValueError, match="e0 must be >= 1"):
            enumerate_xi(2, e0, 3, GF(2))

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            enumerate_xi(2, 3, 9, GF(3), budget=10)

    def test_members_are_genuine(self):
        # over F_2 the moment-curve construction cannot supply enough points,
        # so re-verify membership with the all-forms scan the enumerator uses
        res = enumerate_xi(2, 2, 4, GF(2))
        forms = all_projective_linear_forms(2, GF(2), 4)
        for J in res.ideals[:5]:
            out = tn_membership(J, 4, 2, forms=forms)
            assert not isinstance(out, TnFailure)


def dense_slice_mult_rank(spans, L, t):
    """Rank of x -> L1*x from S_t to S_{t+1}/J*_{t+1}, from dense matrices
    ranked by the naive elimination."""
    from curvemoduli.ringcore import monomials_of_degree
    from oracles import naive_rank

    field = spans.ideal.field
    cols_next = monomials_of_degree(spans.ideal.n_vars, t + 1)
    index_next = {m: i for i, m in enumerate(cols_next)}

    def dense(p):
        row = [field.zero()] * len(cols_next)
        for mono, c in p.terms.items():
            row[index_next[mono]] = c
        return row

    target_rows = [dense(p) for p in spans.initial_slice(t + 1).basis]
    L1 = L.homogeneous_part(1)
    image_rows = target_rows + [dense(L1.mul_monomial(m))
                                for m in monomials_of_degree(spans.ideal.n_vars, t)]
    return naive_rank(image_rows, field) - naive_rank(target_rows, field)


class TestSliceIsomorphismRank:
    def test_certificate_ranks_match_dense_brute_force(self):
        # rebuild the multiplication-by-L maps on the graded slices as dense
        # matrices and rank them with the naive elimination
        from curvemoduli.trunctower import _slice_mult_rank

        gens, n_vars, e0, n = ["x2^2 - x1^3"], 2, 2, 6
        J = ideal(gens, n_vars=n_vars, level=n)
        cert = tn_membership(J, n, e0)
        assert not isinstance(cert, TnFailure)
        spans = DegreeSpans(J, n)
        for t in cert.iso_range:
            brute = dense_slice_mult_rank(spans, cert.L, t)
            assert brute == e0
            assert _slice_mult_rank(spans, cert.L, t) == brute

    @pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
    def test_every_form_and_degree_match_dense_brute_force(self, field):
        # ranks below e0 included: tangent forms and non-members
        from curvemoduli.trunctower import _slice_mult_rank

        cases = [
            (["x1^3"], 2, 3),
            (["x2^2 - x1^3", "x1^4*x2"], 2, 2),
            (["x1^3 + x1*x2^3 + x2^5"], 2, 3),
            (["x1*x3 - x2^2 + x3^3", "x1^3 - x2*x3 + x2^4", "x1^2*x2 - x3^2"], 3, 3),
            (["x3^2", "x2*x3", "x1^2*x2"], 3, 4),
        ]
        for gens, n_vars, e0 in cases:
            n = e0 + 4
            spans = DegreeSpans(ideal(gens, n_vars=n_vars, field=field, level=n), n)
            for L in candidate_forms(n_vars, e0, field, n) + [parse_poly("x1", n_vars, field, n)]:
                for t in range(n - 1):
                    assert _slice_mult_rank(spans, L, t) == dense_slice_mult_rank(spans, L, t)
