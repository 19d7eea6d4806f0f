import itertools
import random
from math import comb

import pytest

from curvemoduli.idealcalc import DegreeSpans, IdealPresentation, hilbert_data
from curvemoduli.ringcore import (
    GF, QQ, LevelError, TruncatedPoly, parse_poly, poly_str,
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

    def test_small_field_scans_every_rational_form(self):
        # F_2 has fewer than s = 5 scalars for the moment curve
        assert candidate_forms(3, 2, GF(2), 4) == all_projective_linear_forms(3, GF(2), 4)

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
    """dim R/(J+(L)+M^n), read off a copy of J's span with L's multiples
    added, must equal the dense H1 of J+(L) at the top degree; one span of
    J serves all of J's forms."""

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

    def test_standalone_verdicts_are_pinned(self):
        # members in two and three variables, a slice-dimension failure and
        # a length failure under one given form
        cases = [
            (["x1^3"], 2, 6, 3, None,
             {"L": "x1 + x2", "e0": 3, "iso_range": [2, 3, 4], "length_with_L": 3, "level": 6}),
            (["x2^2 - x1^3"], 2, 6, 2, None,
             {"L": "x1", "e0": 2, "iso_range": [1, 2, 3, 4], "length_with_L": 2, "level": 6}),
            (["x1^2"], 2, 3, 1, None,
             {"condition": 2, "degree": 1, "detail": "slice dimension 2 != e0 = 1 at degree 1",
              "member": False}),
            (["x1^3"], 2, 6, 3, ["x1"],
             {"condition": 1, "degree": None,
              "detail": "no candidate form reaches length <= 3 (best was 6)", "member": False}),
            (["x1*x3 - x2^2", "x1^3 - x2*x3", "x1^2*x2 - x3^2"], 3, 8, 3, None,
             {"L": "x1", "e0": 3, "iso_range": [2, 3, 4, 5, 6], "length_with_L": 3, "level": 8}),
        ]
        for gens, n_vars, n, e0, form_texts, expected in cases:
            I = ideal(gens, n_vars=n_vars, level=n + 1)
            forms = form_texts and [parse_poly(t, n_vars, QQ, n) for t in form_texts]
            assert tn_membership(I, n, e0, forms=forms).to_json() == expected, gens

    def test_zero_or_unit_form_rejected(self):
        # both ideals pass the slice-dimension check, so condition (1) is reached
        with pytest.raises(ValueError, match="x1 \\+ 1 is a unit"):
            tn_membership(ideal(["x1^3"], level=6), 6, 3, forms=[parse_poly("1 + x1", 2, QQ, 6)])
        with pytest.raises(ValueError, match="zero generator"):
            tn_membership(ideal(["x2"], level=4), 4, 1, forms=[parse_poly("x1^9", 2, QQ, 12)])

    def test_forms_share_the_span_of_j(self, monkeypatch):
        # x1 fails first on this curve, so two forms are scanned; each adds
        # only its own multiples to a copy of J's span, so the whole call
        # inserts fewer vectors than two spans of J
        from curvemoduli.ringcore import Echelon
        I = ideal(["x3^3 - x1*x2", "x2^2 - x1*x3", "x1^2 - x3^2*x2"],
                  n_vars=3, field=GF(101), level=12)
        adds = []
        insert = Echelon.add

        def counted(self, vec):
            adds.append(1)
            return insert(self, vec)

        monkeypatch.setattr(Echelon, "add", counted)
        DegreeSpans(I, 12)
        one_span = len(adds)
        adds.clear()
        res = tn_membership(I, 12, 3)
        assert not isinstance(res, TnFailure)
        assert poly_str(res.L) == "x1 + x2 + x3"
        assert res.length_with_L == 3
        assert len(adds) < 2 * one_span

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

    def test_jtilde_builds_one_span_of_J(self, monkeypatch):
        # its slices are compared with those initial_ideal read off J's span
        I = ideal(["x1^2", "x1*x2^2"], level=6)
        spanned = []
        init = DegreeSpans.__init__
        monkeypatch.setattr(DegreeSpans, "__init__",
                            lambda spans, J, level: spanned.append(J) or init(spans, J, level))
        res = jtilde(I, 6, 2)
        assert not res.slice_match
        assert sum(J is I for J in spanned) == 1 and len(spanned) == 2

    def test_jtilde_monomial_three_generators(self):
        I = ideal(["x3^2", "x2*x3", "x1^2*x2"], n_vars=3, level=10)
        res = jtilde(I, 10, 4)
        assert res.verified
        assert sorted(poly_str(g) for g in res.ideal.generators) == [
            "x1^2*x2", "x2*x3", "x3^2"
        ]


def dense_slice_bases(gens, d):
    """A basis of J*_d as dense rows over the monomials of degree d: the
    rows of the naive rref of the span of J + M^(d+1) pivoted in degree d.
    With columns in ascending degree those rows vanish below degree d."""
    from curvemoduli.ringcore import count_monomials_upto
    from oracles import dense_multiple_rows, naive_rref

    lo = count_monomials_upto(gens[0].n_vars, d - 1)
    rows = dense_multiple_rows(gens, d + 1)
    return [row[lo:] for piv, row in naive_rref(rows, gens[0].field) if piv >= lo]


def dense_fresh_count(gens, d):
    """dim J*_d - rank(S_1 * J*_(d-1)), by dense elimination."""
    from curvemoduli.ringcore import monomials_of_degree
    from oracles import naive_rank

    n_vars, field = gens[0].n_vars, gens[0].field
    below, here = monomials_of_degree(n_vars, d - 1), monomials_of_degree(n_vars, d)
    index = {m: i for i, m in enumerate(here)}
    products = []
    for row in (dense_slice_bases(gens, d - 1) if d > 0 else []):
        for i in range(n_vars):
            prod = [field.zero()] * len(here)
            for m, c in zip(below, row):
                prod[index[tuple(e + (k == i) for k, e in enumerate(m))]] = c
            products.append(prod)
    return len(dense_slice_bases(gens, d)) - (naive_rank(products, field) if products else 0)


class TestVstarAgainstDenseOracle:
    """shape_check reads the slice identity J*_t = S_1 J*_(t-1) off v*; v*
    itself is checked here against dense spans of J*_d and S_1 J*_(d-1)."""

    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
    @pytest.mark.parametrize("n_vars", [2, 3])
    def test_vstar_counts_the_fresh_slice_vectors(self, field, n_vars):
        from oracles import random_poly

        rng = random.Random(41 + 3 * n_vars + field.char)
        identity_seen = set()
        for _ in range(12 if n_vars == 2 else 6):
            e0 = rng.randint(1, 3 if n_vars == 2 else 2)
            n = e0 + rng.randint(2, 3)
            gens = []
            while not gens:
                gens = [g for g in (random_poly(rng, n_vars, field, n, n - 1,
                                                min_degree=rng.randint(1, 2), density=0.4)
                                    for _ in range(rng.randint(1, 3))) if not g.is_zero()]
            rep = shape_check(IdealPresentation(gens, n_vars, field, n), n, e0)
            for d in range(n):
                assert rep.vstar.count(d) == dense_fresh_count(gens, d), (gens, d)
            no_window_degree = not any(e0 + 1 <= d <= n - 1 for d in rep.vstar)
            assert rep.slice_identity_ok == rep.ok == no_window_degree
            identity_seen.add(rep.slice_identity_ok)
        assert identity_seen == {True, False}


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

    def test_r_matches_the_linear_scan(self):
        for b in range(2, 7):
            r = 0
            for e0 in range(b, 301):
                while comb(b + r, r + 1) <= e0:
                    r += 1
                assert admissible_range(b, e0).r == r, (b, e0)

    def test_r_for_huge_e0(self):
        # a linear scan in r would make e0 binomials here
        assert admissible_range(2, 10**12).r == 10**12 - 1
        assert admissible_range(10**6, 10**9).r == 1

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

    def test_level_zero_rejected(self):
        I = ideal(["x2^2 - x1^3"], level=8)
        with pytest.raises(LevelError, match=r"level must be >= 1, got 0$"):
            hilbert_stratum_check(I, [1, 2, 2, 2, 2, 2, 2, 2], 3, level=0)


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
        # re-verify membership with the all-forms scan, which over F_2 at
        # e0 = 2 is the enumerator's own list
        res = enumerate_xi(2, 2, 4, GF(2))
        forms = all_projective_linear_forms(2, GF(2), 4)
        for J in res.ideals[:5]:
            out = tn_membership(J, 4, 2, forms=forms)
            assert not isinstance(out, TnFailure)


def lead_forms(e0, n, q):
    """The enumerator's projective lead forms of degree e0 in the plane, at
    level n over F_q, in scan order: first nonzero coefficient 1."""
    from curvemoduli.ringcore import monomials_of_degree

    lead_monos = monomials_of_degree(2, e0)
    for first in range(len(lead_monos)):
        for rest in itertools.product(range(q), repeat=len(lead_monos) - first - 1):
            terms = {lead_monos[first]: 1, **dict(zip(lead_monos[first + 1:], rest))}
            yield TruncatedPoly(2, GF(q), n, terms)


def graded_piece_pivots(table, lead, k):
    """Pivot columns of S_k*lead, from an Echelon of the multiples x^m*lead
    over the monomials m of degree k."""
    from curvemoduli.ringcore import Echelon, monomials_of_degree, multiple_vector

    ech = Echelon(lead.field)
    for m in monomials_of_degree(lead.n_vars, k):
        ech.add(multiple_vector(table, lead, m))
    return set(ech.pivots())


def scanned_prefixes(e0, n, q):
    """The enumerator's scan, prefix by prefix, rebuilt here: yields each
    prefix (the initial form and every tail block below degree n-1) with
    its candidates f = prefix + top block, in scan order."""
    from curvemoduli.ringcore import monomial_table, monomials_of_degree

    field, n_vars = GF(q), 2
    table = monomial_table(n_vars, n)
    for lead in lead_forms(e0, n, q):
        free = []
        for k in range(1, n - e0):
            pivots = graded_piece_pivots(table, lead, k)
            free.append([m for m in monomials_of_degree(n_vars, e0 + k)
                         if table.index[m] not in pivots])
        *lower, top = free
        flat = [m for block in lower for m in block]
        for coeffs in itertools.product(range(q), repeat=len(flat)):
            prefix_terms = {**lead.terms, **dict(zip(flat, coeffs))}
            siblings = [TruncatedPoly(n_vars, field, n, {**prefix_terms, **dict(zip(top, c))})
                        for c in itertools.product(range(q), repeat=len(top))]
            yield TruncatedPoly(n_vars, field, n, prefix_terms), siblings


class TestTransversal:
    """enumerate_xi takes the transversal of every S_k*lead to be the
    monomials of degree e0+k that lead's lowest monomial does not divide.
    The pivots of one span of the x^a*lead, |a| >= 1, are graded (each
    multiple is homogeneous), in degree e0+k they are those of S_k*lead,
    and those are the multiples x^a*low of the lowest monomial low."""

    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("e0", [1, 2, 3])
    def test_graded_pivots_of_one_span(self, e0, q):
        from curvemoduli.ringcore import monomial_table, monomials_of_degree, span_of_multiples

        for n in range(e0 + 2, 8):
            table = monomial_table(2, n)
            for lead in lead_forms(e0, n, q):
                got = {}
                for col in span_of_multiples(table, GF(q), [lead], lo=1).pivots():
                    got.setdefault(table.degree_of_col(col) - e0, set()).add(col)
                want = {k: graded_piece_pivots(table, lead, k) for k in range(1, n - e0)}
                assert got == want, (n, poly_str(lead))
                low = min(lead.terms)
                divisible = {k: {table.index[m] for m in monomials_of_degree(2, e0 + k)
                                 if all(a >= b for a, b in zip(m, low))}
                             for k in range(1, n - e0)}
                assert want == divisible, (n, poly_str(lead))


def candidate_by_candidate_members(e0, n, q):
    """The enumerator's scan without shared spans: every candidate f gets a
    fresh DegreeSpans of (f) + M^n, classes are deduplicated by the
    canonical rows of that span, and the survivors of the Hilbert filter go
    through the standalone tn_membership over every q-rational form.
    Returns the members' generators as strings, sorted by canonical rows."""
    from curvemoduli.ringcore import monomial_table

    field, n_vars = GF(q), 2
    table = monomial_table(n_vars, n)
    forms = all_projective_linear_forms(n_vars, field, n)
    e1 = 0 if e0 == 1 else e0 * (e0 - 1) // 2
    p_values = [e0 * (t + 1) - e1 for t in range(n)]
    seen = {}
    for _, siblings in scanned_prefixes(e0, n, q):
        for f in siblings:
            spans = DegreeSpans(IdealPresentation([f], n_vars, field, n), n)
            key = tuple(tuple(sorted(row.items())) for row in spans.ech.basis())
            seen.setdefault(key, spans)
    members = []
    for key in sorted(seen):
        spans = seen[key]
        if spans.h1_values() != p_values:
            continue
        if isinstance(tn_membership(spans.ideal, n, e0, forms=forms), TnFailure):
            continue
        members.append([poly_str(table.poly_of(row, field)) for row in spans.ech.basis()])
    return members


# (e0, q, n): every n from e0+2 while a cell has at most ~150 members, and
# the first cell (775 members) for e0 = 2 over F_5
ORACLE_CELLS = [(1, 2, n) for n in range(3, 8)] + [(1, 3, n) for n in range(3, 6)] + [
    (1, 5, 3), (1, 5, 4), (2, 2, 4), (2, 2, 5), (2, 3, 4), (2, 5, 4)]


class TestEnumerateSharedSpans:
    """The scan shares the job's H1 values, each lead form's verdict and
    each prefix's rows between sibling candidates; these compare it with
    the scan that builds every candidate from scratch."""

    @pytest.mark.parametrize("e0, q, n", ORACLE_CELLS, ids=str)
    def test_ordered_members_equal_the_candidate_by_candidate_scan(self, e0, q, n):
        res = enumerate_xi(2, e0, n, GF(q))
        got = [[poly_str(g) for g in J.generators] for J in res.ideals]
        assert got == candidate_by_candidate_members(e0, n, q)
        assert res.count == len(got)

    @pytest.mark.parametrize("e0, q, n", [(1, 2, 5), (1, 3, 4), (2, 2, 5), (2, 3, 4)], ids=str)
    def test_every_verdict_and_length_equal_the_standalone_ones(self, e0, q, n, monkeypatch):
        # the enumerator makes one call per lead form, on (lead) + M^n; its
        # verdict must be what tn_membership returns on the bare ideal of
        # every candidate over that lead form over every q-rational form
        # (the same form L, the first in form order that passes the length
        # condition, with the same length and degrees); the forms passed
        # must be a prefix of that list, and the length of every form passed
        # must be dim R/(J+(L)+M^n) computed by dense elimination
        import curvemoduli.trunctower as tt
        from oracles import dense_ideal_h1

        standalone = tt.tn_membership
        in_order = all_projective_linear_forms(2, GF(q), n)
        calls = []

        def recorded(ideal, n_, e0_, forms):
            res = standalone(ideal, n_, e0_, forms=forms)
            calls.append((ideal, res, forms))
            return res

        monkeypatch.setattr(tt, "tn_membership", recorded)
        res = enumerate_xi(2, e0, n, GF(q))
        assert [ideal.generators for ideal, _, _ in calls] == [[lead] for lead in lead_forms(e0, n, q)]
        candidates = {}
        for prefix, siblings in scanned_prefixes(e0, n, q):
            candidates.setdefault(prefix.homogeneous_part(e0), []).extend(siblings)
        for ideal, verdict, forms in calls:
            assert forms == in_order[:len(forms)]
            spans = DegreeSpans(ideal, n)
            assert [_length_with_form(spans, L) for L in forms] == \
                [dense_ideal_h1(ideal.generators + [L], n)[-1] for L in forms]
            for f in candidates[ideal.generators[0]]:
                alone = standalone(IdealPresentation([f], 2, GF(q), n), n, e0, forms=in_order)
                assert (type(verdict), verdict.to_json()) == (type(alone), alone.to_json()), poly_str(f)
        # e0 <= 2: every lead form passes, so every candidate is a member
        assert res.count == sum(len(fs) for fs in candidates.values())

    @pytest.mark.parametrize("e0, q, n", [
        (1, 2, 3), (1, 2, 4), (1, 3, 3), (1, 3, 4), (2, 2, 4), (2, 2, 5), (2, 3, 4), (3, 2, 5),
    ], ids=str)
    def test_siblings_have_the_initial_ideal_of_their_prefix(self, e0, q, n):
        # the H1 values are read once per job, off the span of x2^e0; each
        # candidate's own span, over every lead form, must give the same
        # values (e0 = 3 included, where no candidate passes the filter)
        field = GF(q)
        x2_e0 = TruncatedPoly(2, field, n, {(0, e0): 1})
        h1 = DegreeSpans(IdealPresentation([x2_e0], 2, field, n), n).h1_values()
        for _, siblings in scanned_prefixes(e0, n, q):
            for f in siblings:
                spans = DegreeSpans(IdealPresentation([f], 2, field, n), n)
                assert spans.h1_values() == h1

    @pytest.mark.parametrize("e0, q, n", ORACLE_CELLS, ids=str)
    def test_every_sibling_is_its_own_residual_modulo_base(self, e0, q, n):
        # a member's first canonical row is taken to be f itself: the prefix
        # is its own residual modulo base, and the top block lies off base's
        # pivots, so prefix plus top block must be the residual of f
        from curvemoduli.ringcore import monomial_table, span_of_multiples

        table = monomial_table(2, n)
        for prefix_poly, siblings in scanned_prefixes(e0, n, q):
            base = span_of_multiples(table, GF(q), [prefix_poly], lo=1)
            pres = base.reduce(table.vector_of(prefix_poly))
            assert pres == table.vector_of(prefix_poly), poly_str(prefix_poly)
            for f in siblings:
                top = {table.index[m]: c for m, c in f.terms.items() if m not in prefix_poly.terms}
                assert {**pres, **top} == base.reduce(table.vector_of(f)), poly_str(f)


class TestOneVerdictPerLeadForm:
    """The enumerator decides T_n once per lead form, on (lead) + M^n: the
    verdict of (f) + M^n depends on f's lead form only."""

    @pytest.mark.parametrize("e0, q, n", [(1, 3, 4), (2, 2, 5), (2, 3, 4)], ids=str)
    def test_one_call_per_lead_form(self, e0, q, n, monkeypatch):
        import curvemoduli.trunctower as tt

        standalone = tt.tn_membership
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return standalone(*args, **kwargs)

        monkeypatch.setattr(tt, "tn_membership", counted)
        enumerate_xi(2, e0, n, GF(q))
        assert len(calls) == (q ** (e0 + 1) - 1) // (q - 1)

    @pytest.mark.parametrize("e0, q, n, which", [(1, 3, 4, 1), (2, 2, 5, 2), (2, 3, 4, 5)], ids=str)
    def test_a_failing_lead_form_skips_its_tree(self, e0, q, n, which, monkeypatch):
        # no lead form fails through the API while the job's H1 filter
        # returns early for e0 >= 3, so one is made to fail here: its
        # candidates must leave the members, the others stay as they are,
        # and its tree of tail blocks must never be walked
        import curvemoduli.trunctower as tt

        field = GF(q)
        unpatched = enumerate_xi(2, e0, n, field).ideals
        failing = list(lead_forms(e0, n, q))[which]
        standalone, walk = tt.tn_membership, tt._prefix_tree
        walked = []

        def verdict(ideal, n_, e0_, forms):
            if ideal.generators == [failing]:
                return TnFailure(1, None, "failed on purpose")
            return standalone(ideal, n_, e0_, forms=forms)

        def tree(table, field_, lead_terms, blocks, scalars):
            walked.append(TruncatedPoly(2, field_, table.level, lead_terms))
            return walk(table, field_, lead_terms, blocks, scalars)

        monkeypatch.setattr(tt, "tn_membership", verdict)
        monkeypatch.setattr(tt, "_prefix_tree", tree)
        got = enumerate_xi(2, e0, n, field).ideals
        kept = [J for J in unpatched if J.generators[0].homogeneous_part(e0) != failing]
        assert len(kept) < len(unpatched)
        assert [J.generators for J in got] == [J.generators for J in kept]
        assert failing not in walked and len(walked) == (q ** (e0 + 1) - 1) // (q - 1) - 1


def enum_tier_cells():
    """Every (e0, q, n) of the benchmark's enum_fq tiers, at n and n+1, as
    its jobs run them."""
    import importlib.util
    import os

    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    cells = [(e0, q, level) for cells, _ in workloads.ENUM_TIERS for e0, q, n in cells
             for level in (n, n + 1)]
    return list(dict.fromkeys(cells))  # (1, 3, 5) is in two tiers


# the bench's cells, then (2, 5, 4) (775 members) and two e0 >= 3 cells
# that the H1 filter leaves empty
PREFIX_TREE_CELLS = enum_tier_cells() + [(2, 5, 4), (3, 2, 5), (4, 2, 6)]


class TestPrefixTree:
    """The scan shares each prefix's canonical rows down the tree of tail
    blocks; these compare it with the flat scan that builds every prefix's
    span from scratch."""

    @pytest.fixture(scope="class")
    def members(self):
        cache = {}

        def scan(e0, q, n):
            if (e0, q, n) not in cache:
                cache[e0, q, n] = enumerate_xi(2, e0, n, GF(q)).ideals
            return cache[e0, q, n]
        return scan

    @pytest.mark.parametrize("e0, q, n", PREFIX_TREE_CELLS, ids=str)
    def test_members_equal_the_flat_scan(self, members, e0, q, n):
        from oracles import flat_prefix_scan

        got = [[poly_str(g) for g in J.generators] for J in members(e0, q, n)]
        assert got == [[poly_str(g) for g in gens] for gens in flat_prefix_scan(e0, q, n)]

    # the cells of at most 500 members: (2, 3, 5) has 1053 and (2, 5, 4) 775
    @pytest.mark.parametrize("e0, q, n", [cell for cell in PREFIX_TREE_CELLS
                                          if cell not in ((2, 3, 5), (2, 5, 4))], ids=str)
    def test_generators_are_the_canonical_rows_of_the_span(self, members, e0, q, n):
        # each member's generators are the reduced echelon rows of the span
        # of (f) + M^n, f its first generator, built alone
        from curvemoduli.ringcore import monomial_table

        ideals = members(e0, q, n)
        assert len(ideals) <= 500
        table = monomial_table(2, n)
        for J in ideals:
            alone = IdealPresentation(J.generators[:1], 2, GF(q), n)
            want = DegreeSpans(alone, n).ech.basis()
            assert [table.vector_of(g) for g in J.generators] == want, poly_str(J.generators[0])


def dense_slice_mult_rank(spans, L, t):
    """Rank of x -> L1*x from S_t to S_{t+1}/J*_{t+1}, from dense matrices
    ranked by the naive elimination."""
    from curvemoduli.ringcore import degree_block, monomials_of_degree
    from oracles import naive_rank

    field = spans.ideal.field
    cols_next = monomials_of_degree(spans.ideal.n_vars, t + 1)
    index_next = {m: i for i, m in enumerate(cols_next)}

    def dense(p):
        row = [field.zero()] * len(cols_next)
        for mono, c in p.terms.items():
            row[index_next[mono]] = c
        return row

    target_rows = [dense(spans.table.poly_of(row, field))
                   for row in degree_block(spans.table, spans.ech, t + 1).basis()]
    L1 = L.homogeneous_part(1)
    image_rows = target_rows + [dense(L1.mul_monomial(m))
                                for m in monomials_of_degree(spans.ideal.n_vars, t)]
    return naive_rank(image_rows, field) - naive_rank(target_rows, field)


def random_tn_case(rng, n_vars, field):
    """A seeded (ideal, n, e0, forms) for tn_membership.

    Three times in four the ideal is a curve germ of order e0 for generic
    coefficients: an equation f in x1, x2, in 3-space also x3 - h with h of
    order >= 2, and an element of the ideal.  The initial form of f has the
    factors x1 + q*x2 for q < k, with random k and multiplicities, so the
    first k candidate forms fail the length condition; the higher terms of
    f vanish on the last of these lines, which makes its length the largest.
    Otherwise the ideal has two or three random generators of order 1 or 2,
    which mostly fail the slice dimensions.  `forms` is None (all candidate
    forms), the first k candidates, or an ordered part of the candidates.
    """
    from oracles import random_poly

    e0 = rng.randint(1, 2 if n_vars == 3 else 3)
    n = e0 + rng.randint(2, 3)
    zero = TruncatedPoly(n_vars, field, n, {})
    # the multiplicity of x1 + q*x2 in the tangent cone, for q < k
    mults = [1] * rng.randint(0, e0)
    for _ in range(rng.randint(0, e0 - len(mults)) if mults else 0):
        mults[rng.randrange(len(mults))] += 1
    gens = []
    if rng.random() < 0.25:
        gens = [g for g in (random_poly(rng, n_vars, field, n, n - 1,
                                        min_degree=rng.randint(1, 2), density=0.3)
                            for _ in range(rng.randint(2, 3))) if not g.is_zero()]
    if not gens:
        f = zero
        while f.order() != e0:
            lead = random_poly(rng, 2, field, n, e0 - sum(mults), min_degree=e0 - sum(mults))
            for q, m in enumerate(mults):
                for _ in range(m):
                    lead = lead * parse_poly(f"x1 + {q}*x2", 2, field, n)
            q = len(mults) - 1 if mults else rng.randrange(field.char or 5)
            line = parse_poly(f"x1 + {q}*x2", 2, field, n)
            tail = line * random_poly(rng, 2, field, n, n - 2, min_degree=e0, density=0.3)
            f = TruncatedPoly(n_vars, field, n, {m + (0,) * (n_vars - 2): c
                                                  for m, c in (lead + tail).terms.items()})
        gens = [f]
        if n_vars == 3:
            gens.append(parse_poly("x3", 3, field, n)
                        - random_poly(rng, 3, field, n, 3, min_degree=2, density=0.3))
        extra = sum((g * random_poly(rng, n_vars, field, n, 2, density=0.5) for g in gens), zero)
        gens += [extra] if not extra.is_zero() else []
    candidates = candidate_forms(n_vars, e0, field, n)
    forms = rng.choice([None, candidates[:len(mults)] or None,
                        [L for L in candidates if rng.random() < 0.5] or None])
    return IdealPresentation(gens, n_vars, field, n), n, e0, forms


def dense_tn_verdict(ideal, n, e0, forms):
    """The to_json() of tn_membership's verdict, recomputed from dense
    matrices ranked by the naive elimination."""
    from oracles import dense_ideal_h1

    h1 = dense_ideal_h1(ideal.generators, n)
    for t in range(e0 - 1, n):
        h0 = h1[t] - (h1[t - 1] if t > 0 else 0)
        if h0 != e0:
            return {"member": False, "condition": 2, "degree": t,
                    "detail": f"slice dimension {h0} != e0 = {e0} at degree {t}"}
    spans = DegreeSpans(ideal, n)
    lengths = []
    for L in forms:
        lengths.append(dense_ideal_h1(ideal.generators + [L], n)[-1])
        if lengths[-1] > e0:
            continue
        for t in range(e0 - 1, n - 1):
            if dense_slice_mult_rank(spans, L, t) != e0:
                return {"member": False, "condition": 2, "degree": t,
                        "detail": f"product by {poly_str(L)} not an isomorphism at degree {t}"}
        return {"L": poly_str(L), "length_with_L": lengths[-1],
                "iso_range": list(range(e0 - 1, n - 1)), "e0": e0, "level": n}
    return {"member": False, "condition": 1, "degree": None,
            "detail": f"no candidate form reaches length <= {e0} (best was {min(lengths)})"}


class TestSmallFields:
    """Over an F_p with fewer than s = e0(N-1)+1 scalars, T_n membership and
    the cells scan every F_p-rational form; in the plane a larger F_p scans
    the first e0+1 of them, with the verdicts of all p+1."""

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("n_vars", [2, 3])
    def test_default_verdict_is_the_all_forms_verdict(self, n_vars, q):
        field = GF(q)
        rng = random.Random(67 + 10 * q + n_vars)
        outcomes = set()
        for _ in range(40):
            I, n, e0, _ = random_tn_case(rng, n_vars, field)
            if n_vars == 3 and q >= 2 * e0 + 1:
                continue  # the moment curve fits, and off the plane it is another list
            default = tn_membership(I, n, e0)
            every = tn_membership(I, n, e0, forms=all_projective_linear_forms(n_vars, field, n))
            assert default.to_json() == every.to_json(), (I, n, e0)
            outcomes.add(getattr(default, "condition", 0))
        assert 0 in outcomes and 2 in outcomes

    @pytest.mark.parametrize("text, q, n, L", [
        ("x1^3 + x2^3", 3, 6, "x1"),  # (x1 + x2)^3 in characteristic 3
        ("x1^3", 2, 5, "x1 + x2"),
    ])
    def test_member_certified_by_a_rational_form(self, text, q, n, L):
        res = tn_membership(ideal([text], field=GF(q), level=n), n, 3)
        assert res.to_json() == {"L": L, "e0": 3, "iso_range": list(range(2, n - 1)),
                                 "length_with_L": 3, "level": n}

    def test_failure_says_only_rational_forms_were_scanned(self):
        # the lead form x1*x2*(x1 + x2) vanishes on all three lines of
        # P^1(F_2); x1 + w*x2 over F_4 would certify
        res = tn_membership(ideal(["x1^2*x2 + x1*x2^2"], field=GF(2), level=5), 5, 3)
        assert res.detail == (
            "no candidate form reaches length <= 3 (best was 5); only the F_2-rational"
            " forms were scanned, since F_2 has fewer than s = 4 scalars, so"
            " non-membership is not proved")

    def test_cell_over_f2_answers(self):
        # q indexes x1, x1 + x2, x2: x1 kills x1^2 in R/(x1^2), the others do not
        I = ideal(["x1^2"], field=GF(2), level=5)
        got = [cell_membership(I, 5, CellIndex([1, 2, 3], [4, 5], q), 2) for q in range(3)]
        assert got == [False, True, True]
        with pytest.raises(ValueError, match="one of the 3 candidate forms"):
            cell_membership(I, 5, CellIndex([1, 2, 3], [4, 5], 3), 2)

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_plane_forms_are_a_prefix_of_every_rational_form(self, q):
        every = all_projective_linear_forms(2, GF(q), 6)
        for e0 in range(1, q + 2):
            want = every[:e0 + 1] if q >= e0 + 1 else every
            assert candidate_forms(2, e0, GF(q), 6) == want, e0


class TestStandaloneVerdictsAgainstDenseOracles:
    """Seeded random ideals: each standalone verdict, its length and its
    slice ranks recomputed by dense elimination."""

    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
    @pytest.mark.parametrize("n_vars", [2, 3])
    def test_seeded_random_ideals(self, field, n_vars):
        rng = random.Random(41 + n_vars)
        outcomes = set()
        for _ in range(40):
            I, n, e0, forms = random_tn_case(rng, n_vars, field)
            res = tn_membership(I, n, e0, forms=forms)
            tried = candidate_forms(n_vars, e0, field, n) if forms is None else forms
            assert res.to_json() == dense_tn_verdict(I, n, e0, tried), (I, n, e0, forms)
            outcomes.add(getattr(res, "condition", 0))
        # members, length failures and slice failures all occur
        assert outcomes == {0, 1, 2}


def dense_length(ideal, L, n):
    """dim R/(J+(L)+M^n) by dense elimination on every multiple of the
    generators and L."""
    from oracles import dense_multiple_rows, naive_rank

    rows = dense_multiple_rows(ideal.generators + [L], n)
    return comb(ideal.n_vars + n - 1, ideal.n_vars) - naive_rank(rows, ideal.field)


class TestLengthForcesSliceIsomorphisms:
    """The theorem behind tn_membership, checked on dense matrices: when the
    slices of R/(J+M^n) have dimension e0 in degrees e0-1 .. n-1, no form
    has length below e0, and a form of length e0 multiplies each slice
    isomorphically onto the next."""

    @staticmethod
    def cases():
        for field in (QQ, GF(5), GF(7)):
            for n_vars in (2, 3):
                rng = random.Random(59 + n_vars + 10 * field.char)
                for _ in range(25):
                    I, n, e0, _ = random_tn_case(rng, n_vars, field)
                    yield I, n, e0, candidate_forms(n_vars, e0, field, n)
        for e0, q, n in [(1, 2, 4), (2, 2, 5), (2, 3, 4), (3, 2, 5)]:
            forms = all_projective_linear_forms(2, GF(q), n)
            for _, siblings in scanned_prefixes(e0, n, q):
                for f in siblings:
                    yield IdealPresentation([f], 2, GF(q), n), n, e0, forms

    def test_length_e0_forces_every_slice_isomorphism(self):
        from oracles import dense_ideal_h1

        at_e0 = 0
        for I, n, e0, forms in self.cases():
            h1 = dense_ideal_h1(I.generators, n)
            if any(h1[t] - (h1[t - 1] if t > 0 else 0) != e0 for t in range(e0 - 1, n)):
                continue
            spans = DegreeSpans(I, n)
            for L in forms:
                length = dense_length(I, L, n)
                assert length >= e0, (I, n, e0, L)
                if length == e0:
                    at_e0 += 1
                    assert [dense_slice_mult_rank(spans, L, t) for t in range(e0 - 1, n - 1)] \
                        == [e0] * (n - e0), (I, n, e0, L)
        # the theorem is exercised, not passed vacuously
        assert at_e0 >= 200
