import gc
import random
import weakref
from itertools import product

import pytest

from curvemoduli.branches import (
    Branch,
    Parametrization,
    PrecisionError,
    _Substitution,
    _substitution,
    delta_from_param,
    evaluate_on_branch,
    hilbert_from_param,
    ideal_from_param,
    is_rigid_known,
    milnor,
    normally_flat_fiber_compare,
    semigroup,
    valuation_h1,
)
from curvemoduli.idealcalc import DegreeSpans, IdealPresentation, hilbert_data
from curvemoduli.ringcore import (
    GF, QQ, Echelon, LevelError, TruncatedPoly, monomial_table, parse_poly, poly_str,
)


def param(branches, precision):
    return Parametrization.parse(branches, precision, QQ)


class TestSemigroup:
    def test_four_generator_fixture(self):
        sg = semigroup([6, 7, 10, 15])
        assert sg.delta == 8
        assert sg.gaps == [1, 2, 3, 4, 5, 8, 9, 11]
        assert sg.conductor == 12

    def test_cusp(self):
        sg = semigroup([2, 3])
        assert sg.delta == 1 and sg.gaps == [1]

    def test_smooth(self):
        sg = semigroup([1])
        assert sg.delta == 0 and sg.conductor == 0

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError, match="gcd"):
            semigroup([4, 6])

    def test_closure_and_membership(self):
        sg = semigroup([3, 5])
        members = set(sg.elements)
        assert 0 in members
        for a in sg.elements:
            for b in sg.elements:
                if a + b <= sg.bound:
                    assert a + b in members

    def test_conductor_le_two_delta(self):
        rng = random.Random(17)
        for _ in range(25):
            gens = sorted(rng.sample(range(2, 25), rng.randint(2, 4)))
            from math import gcd
            g = 0
            for x in gens:
                g = gcd(g, x)
            if g != 1:
                gens.append(g + 1)
            sg = semigroup(gens)
            assert sg.conductor <= 2 * sg.delta


class TestMilnor:
    def test_four_generator_curve(self):
        assert milnor(8, 1) == 16

    def test_smooth(self):
        assert milnor(0, 1) == 0

    def test_cusp_classical(self):
        assert milnor(1, 1) == 2

    def test_parity(self):
        for delta in range(0, 8):
            assert milnor(delta, 1) % 2 == 0
            assert milnor(delta, 2) % 2 == 1


class TestIdealFromParam:
    def test_cusp_kernel(self):
        P = param([["t^2", "t^3"]], 18)
        I = ideal_from_param(P, 6)
        spans = DegreeSpans(I, 6)
        assert spans.contains(parse_poly("x1^3 - x2^2", 2, QQ, 6))
        direct = DegreeSpans(IdealPresentation.parse(["x2^2 - x1^3"], 2, QQ, 6), 6)
        assert direct.h1_values() == spans.h1_values()
        for g in I.generators:
            assert direct.contains(g)

    def test_coordinate_line(self):
        P = param([["t", "0"]], 8)
        I = ideal_from_param(P, 4)
        assert poly_str(I.generators[0]) == "x2"

    def test_monomial_space_curve_multiplicity(self):
        P = param([["t^6", "t^7", "t^10", "t^15"]], 75)
        hd = hilbert_from_param(P, 5)
        assert hd.values == valuation_h1([6, 7, 10, 15], 4)
        assert hd.values[1] == 5  # 1 + embedding dimension 4

    def test_insufficient_precision_reports_bound(self):
        P = param([["t^2", "t^3"]], 10)
        with pytest.raises(PrecisionError, match="18"):
            ideal_from_param(P, 6)

    def test_precision_invariance_of_spans(self):
        lvl = 6
        base = None
        for prec in (18, 24, 40):
            P = param([["t^2", "t^3"]], prec)
            spans = DegreeSpans(ideal_from_param(P, lvl), lvl)
            dims = [spans.span_dim(d) for d in range(lvl)]
            if base is None:
                base = dims
            assert dims == base

    def test_multi_branch_node(self):
        P = param([["t", "0"], ["0", "t"]], 12)
        I = ideal_from_param(P, 5)
        spans = DegreeSpans(I, 5)
        assert spans.contains(parse_poly("x1*x2", 2, QQ, 5))
        hd = hilbert_from_param(P, 5)
        assert (hd.e0, hd.e1) == (2, 1)


def random_substitution_case(rng):
    """A random parametrization and level: 1-3 branches in N = 2-4 variables
    over QQ or a GF(p), some components zero, each branch at its own
    precision (at least the substitution's bound, and above every exponent
    so that no component is cut)."""
    n_vars = rng.randint(2, 4)
    field = rng.choice([QQ, GF(5), GF(101)])
    level = rng.randint(1, 3)
    shapes = []
    for _ in range(rng.randint(1, 3)):
        nonzero = rng.randint(0, n_vars - 1)
        # each component as {t-exponent: coefficient}; {} is a zero component
        shapes.append([
            {} if j != nonzero and rng.random() < 0.3 else
            {o: rng.randint(1, 4) for o in (rng.randint(1, 3), rng.randint(2, 5))}
            for j in range(n_vars)
        ])
    need = level * max(max(min(c) for c in comps if c) for comps in shapes)
    branches = []
    for comps in shapes:
        prec = max(need, 6) + rng.randint(0, 3)
        branches.append(Branch(
            [TruncatedPoly(1, field, prec, {(k,): c for k, c in comp.items()}) for comp in comps],
            prec,
        ))
    return Parametrization(branches), level


class TestSubstitutionWalk:
    """The one-parent walk against a brute-force count of the monomials it
    must keep and a direct substitution of each one: below the level the
    images in the monomial table's column order, at or above it the span
    `high` of all of them."""

    @staticmethod
    def kept(param, level, mono):
        if sum(mono) < level:
            return True
        for b in param.branches:
            used = [(a, c) for a, c in zip(mono, b.components) if a]
            if (all(not c.is_zero() for _, c in used)
                    and sum(a * c.order() for a, c in used) < b.precision):
                return True
        return False

    @pytest.mark.parametrize("seed", range(12))
    def test_walk_equals_brute_force(self, seed):
        P, level = random_substitution_case(random.Random(seed))
        sub = _Substitution(P, level)
        # every component has order >= 1, so a kept monomial's degree is
        # below level or below some precision
        top = max([level] + [b.precision for b in P.branches])
        expected = {m for m in product(range(top + 1), repeat=P.n_vars)
                    if sum(m) <= top and self.kept(P, level, m)}

        def image(m):
            x_m = TruncatedPoly(P.n_vars, P.field, sum(m) + 1, {m: 1})
            return sub.vector_of([evaluate_on_branch(x_m, b) for b in P.branches])

        table = monomial_table(P.n_vars, level)
        assert sub.table is table
        assert sub.vectors == [image(m) for m in table.monos]
        high = Echelon(P.field)
        for m in expected:
            if sum(m) >= level:
                high.add(image(m))
        assert sub.high.basis() == high.basis()

    def test_cases_cover_fields_zero_components_and_precisions(self):
        cases = [random_substitution_case(random.Random(seed))[0] for seed in range(12)]
        assert {P.field.char for P in cases} == {0, 5, 101}
        assert any(c.is_zero() for P in cases for b in P.branches for c in b.components)
        assert any(len({b.precision for b in P.branches}) > 1 for P in cases)
        assert {P.r for P in cases} == {1, 2, 3}
        assert {P.n_vars for P in cases} == {2, 3, 4}


class TestSharedSubstitution:
    """`hilbert_from_param` and `ideal_from_param` share the last
    `_Substitution` they built, and neither changes it."""

    @staticmethod
    def count_builds(monkeypatch):
        built = []
        init = _Substitution.__init__

        def counting_init(self, param, level):
            built.append((param, level))
            init(self, param, level)

        monkeypatch.setattr(_Substitution, "__init__", counting_init)
        return built

    def test_one_build_per_parametrization_and_level(self, monkeypatch):
        built = self.count_builds(monkeypatch)
        P = param([["t^3", "t^4", "t^5"]], 40)
        hilbert_from_param(P, 6)
        ideal_from_param(P, 6)
        hilbert_from_param(P, 6)
        assert built == [(P, 6)]
        ideal_from_param(P, 7)
        assert built == [(P, 6), (P, 7)]
        # an equal parametrization is another object: it gets its own
        Q = param([["t^3", "t^4", "t^5"]], 40)
        hilbert_from_param(Q, 7)
        assert built == [(P, 6), (P, 7), (Q, 7)]

    def test_only_the_last_substitution_is_kept(self):
        P = param([["t^3", "t^4", "t^5"]], 40)
        hilbert_from_param(P, 6)
        held = weakref.ref(_substitution(P, 6))
        gc.collect()
        assert held() is not None
        hilbert_from_param(P, 7)
        gc.collect()
        assert held() is None

    def test_readers_leave_the_shared_substitution_unchanged(self):
        P = param([["t^3", "t^4 + t^5", "t^5"], ["t", "t^2", "t^3"]], 30)
        hd = hilbert_from_param(P, 6)
        sub = _substitution(P, 6)
        high, vectors = sub.high.basis(), [dict(v) for v in sub.vectors]
        gens = ideal_from_param(P, 6).generators
        assert hilbert_from_param(P, 6) == hd
        assert _substitution(P, 6) is sub
        assert (sub.high.basis(), sub.vectors) == (high, vectors)
        _substitution.cache_clear()
        assert hilbert_from_param(P, 6) == hd
        assert ideal_from_param(P, 6).generators == gens


class TestEvaluateOnBranch:
    def test_other_ambient_is_rejected(self):
        b = param([["t", "t^2"]], 6).branches[0]
        with pytest.raises(LevelError, match="disagree on ambient or field"):
            evaluate_on_branch(parse_poly("x1 + x3", 3, QQ, 6), b)

    def test_other_field_is_rejected(self):
        b = param([["t", "t^2"]], 6).branches[0]
        with pytest.raises(LevelError, match="disagree on ambient or field"):
            evaluate_on_branch(parse_poly("x1 + 1/2*x2", 2, GF(7), 6), b)


class TestTwoRouteAgreement:
    MONOMIAL_BRANCHES = [
        [2, 3], [2, 5], [3, 4], [3, 5], [3, 4, 5],
        [4, 5, 6], [4, 6, 7], [5, 6, 7], [4, 5, 6, 7], [6, 7, 10, 15],
    ]

    @pytest.mark.parametrize("gens", MONOMIAL_BRANCHES, ids=str)
    def test_kernel_equals_valuation_count(self, gens):
        level = 6
        prec = level * max(gens)
        P = param([[f"t^{g}" for g in gens]], prec)
        hd = hilbert_from_param(P, level)
        assert hd.values == valuation_h1(gens, level - 1)

    def test_kernel_route_equals_ideal_route(self):
        P = param([["t^3", "t^4", "t^5"]], 30)
        hd = hilbert_from_param(P, 6)
        I = ideal_from_param(P, 6)
        assert hilbert_data(I, 6).values == hd.values


class TestDelta:
    def test_fixture_values(self):
        assert delta_from_param(param([["t^2", "t^3"]], 30)) == 1
        assert delta_from_param(param([["t^3", "t^4", "t^5"]], 30)) == 2
        assert delta_from_param(param([["t^6", "t^7", "t^10", "t^15"]], 40)) == 8

    def test_matches_semigroup_gaps(self):
        for gens in ([2, 3], [3, 4], [3, 4, 5], [4, 5, 6], [6, 7, 10, 15]):
            P = param([[f"t^{g}" for g in gens]], 8 * max(gens))
            assert delta_from_param(P) == semigroup(gens).delta

    def test_node_and_milnor(self):
        P = param([["t", "0"], ["0", "t"]], 12)
        d = delta_from_param(P)
        assert d == 1
        assert milnor(d, 2) == 1

    def test_insufficient_precision_honest(self):
        with pytest.raises(PrecisionError):
            delta_from_param(param([["t^6", "t^7", "t^10", "t^15"]], 14))


class TestNormallyFlatCompare:
    def test_monomial_pair_differs(self):
        # <7,8,9> and <7,8,10> share (e0, e1) = (7, 12)/(7, 11)? No: they
        # differ already in the function at t = 2 (9 vs 10)
        f0 = param([["t^7", "t^8", "t^9"]], 60)
        f1 = param([["t^7", "t^8", "t^10"]], 60)
        rep = normally_flat_fiber_compare([f0, f1], 5)
        assert not rep.constant
        assert rep.first_mismatch == (1, 2)
        assert rep.polynomials_agree is False  # e1 = 12 vs 11

    def test_plane_pair_constant(self):
        cusp = IdealPresentation.parse(["x2^2 - x1^3"], 2, QQ, 6)
        node = IdealPresentation.parse(["x1*x2"], 2, QQ, 6)
        rep = normally_flat_fiber_compare([cusp, node], 6)
        assert rep.constant and rep.polynomials_agree

    def test_zero_dimensional_fiber_has_no_polynomial(self):
        curve = IdealPresentation.parse(["x2^2 - x1^3"], 2, QQ, 6)
        point = IdealPresentation.parse(["x1^2", "x2^2"], 2, QQ, 6)
        rep = normally_flat_fiber_compare([curve, point], 6)
        assert [hd.status for hd in rep.hilbert] == ["ok", "dim_0"]
        assert rep.polynomials_agree is None
        assert not rep.constant and rep.first_mismatch == (1, 2)

    @pytest.mark.parametrize("other", [
        lambda: IdealPresentation.parse(["x1^2"], 2, QQ, 6),
        lambda: Parametrization.parse([["t^2", "t^3", "t^4"]], 20, GF(7)),
    ], ids=["ambient", "field"])
    def test_fibers_must_share_ambient_and_field(self, other):
        with pytest.raises(ValueError, match="fibers disagree on ambient or field"):
            normally_flat_fiber_compare([param([["t^2", "t^3", "t^4"]], 20), other()], 5)

    def test_single_fiber_trivially_constant(self):
        rep = normally_flat_fiber_compare([param([["t^2", "t^3"]], 20)], 5)
        assert rep.constant and rep.first_mismatch is None


class TestMonomialFamilyReconciliation:
    """Fibers of the family (t^7, t^8, (1-u)t^9 + a*t^10) at u = 0 and 1.

    Reported elsewhere with H1 values 5 and 6 at t = 3 and with fibers of
    different Hilbert functions.  The oracles disagree: for both a = 1 and
    a = 2 the two fibers have identical H1 at every checked level, delta =
    11 on both sides (the t^10 tail fills the would-be gap 19 through the
    order-19 element x3^2 - x2*x3 + x1*x3 - x2^2), and H1(3) = 17.  The
    assertions below freeze the oracle values; the reported numbers stay
    unreconciled.
    """

    CLAIMED = {"H1_Z0_at_3": 5, "H1_Z1_at_3": 6, "normally_flat": False}

    @pytest.mark.parametrize("a", [1, 2])
    def test_oracle_values(self, a):
        f0 = param([["t^7", "t^8", f"t^9 + {a}*t^10"]], 60)
        f1 = param([["t^7", "t^8", f"{a}*t^10"]], 60)
        rep = normally_flat_fiber_compare([f0, f1], 6)
        values = [hd.values for hd in rep.hilbert]
        assert values[0] == values[1] == [1, 4, 10, 17, 24, 31]
        assert values[0][3] == 17  # not 5, not 6
        assert rep.constant  # a mismatch was claimed: unreconciled
        assert delta_from_param(f0) == delta_from_param(f1) == 11

    def test_flags_emitted(self):
        f0 = param([["t^7", "t^8", "t^9 + t^10"]], 60)
        f1 = param([["t^7", "t^8", "t^10"]], 60)
        rep = normally_flat_fiber_compare([f0, f1], 6)
        oracle = {
            "H1_Z0_at_3": rep.hilbert[0].values[3],
            "H1_Z1_at_3": rep.hilbert[1].values[3],
            "normally_flat_proxy_constant": rep.constant,
        }
        unreconciled = {
            k for k in ("H1_Z0_at_3", "H1_Z1_at_3")
            if oracle[k] != self.CLAIMED[k]
        }
        assert unreconciled == {"H1_Z0_at_3", "H1_Z1_at_3"}


class TestRigid:
    def test_small_multiplicity(self):
        assert is_rigid_known(5, 10) == "rigid"
        assert is_rigid_known(4, 3) == "rigid"

    def test_listed_e1_cases(self):
        assert is_rigid_known(7, 7) == "rigid"   # e1 = e0
        assert is_rigid_known(7, 6) == "rigid"   # e1 = e0 - 1
        assert is_rigid_known(7, 21) == "rigid"  # e1 = e0(e0-1)/2
        assert is_rigid_known(7, 20) == "rigid"  # e1 = e0(e0-1)/2 - 1

    def test_unknown_never_not_rigid(self):
        assert is_rigid_known(7, 12) == "unknown"

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError, match="admissible"):
            is_rigid_known(3, 100)
