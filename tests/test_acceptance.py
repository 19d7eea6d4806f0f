"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines stream.
Every expected value is exact; the stated runtime budgets are asserted too.
Where a fixture's previously reported values disagree with the oracles,
the oracle values are asserted and the disagreement is printed as
UNRECONCILED (criterion 11 exists precisely to surface those).
"""

import random
import time
import zlib
from fractions import Fraction

from curvemoduli.branches import (
    Parametrization,
    delta_from_param,
    hilbert_from_param,
    milnor,
    normally_flat_fiber_compare,
    semigroup,
    valuation_h1,
)
from curvemoduli.deform import (
    FirstOrderDeformation,
    cm_colon_identity,
    flatness_direct,
    is_family_first_order,
)
from curvemoduli.idealcalc import IdealPresentation, hilbert_data
from curvemoduli.motivic import MeasureContext, MotivicClass, mps
from curvemoduli.ringcore import GF, QQ
from curvemoduli.trunctower import (
    TnFailure,
    admissible_range,
    enumerate_xi,
    shape_check,
    tn_membership,
)

from oracles import random_poly


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def ideal(texts, n_vars=2, field=QQ, level=8):
    return IdealPresentation.parse(texts, n_vars, field, level)


# the CM curve fixtures shared by criteria 5 and 6: generators, N, e0
CURVE_FIXTURES = [
    (["x2"], 2, 1),
    (["x2^2 - x1^3"], 2, 2),
    (["x2^2 - x1^5"], 2, 2),
    (["x1^3"], 2, 3),
    (["x1*x3 - x2^2", "x1^3 - x2*x3", "x1^2*x2 - x3^2"], 3, 3),
    (["x3^2", "x2*x3", "x1^2*x2"], 3, 4),
]


def test_criterion_1_plane_curve_e1():
    worst = 0.0
    for e0 in range(2, 7):
        t0 = time.time()
        level = 2 * e0 + 2
        hd = hilbert_data(ideal([f"x1^{e0}"], level=level), level)
        rng = admissible_range(2, e0)
        elapsed = time.time() - t0
        worst = max(worst, elapsed)
        assert hd.status == "ok"
        assert (hd.e0, hd.e1) == (e0, e0 * (e0 - 1) // 2), e0
        assert rng.rho0 == rng.rho1 == hd.e1, e0
        assert elapsed < 1.0, (e0, elapsed)
    report(1, True, f"plane e1 = e0(e0-1)/2 for e0 = 2..6, max {worst:.3f}s per case")


def test_criterion_2_admissibility_table():
    t0 = time.time()
    for e0 in range(2, 11):
        for b in range(2, e0 + 1):
            rng = admissible_range(b, e0)
            assert rng.rho0 <= rng.rho1, (b, e0)
    spot = admissible_range(3, 3)
    assert (spot.rho0, spot.rho1) == (2, 2)
    degenerate = admissible_range(1, 1)
    assert (degenerate.rho0, degenerate.rho1) == (0, 0)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(2, True, f"rho0 <= rho1 for all 2 <= b <= e0 <= 10 in {elapsed:.3f}s")


def test_criterion_3_semigroup_fixture():
    t0 = time.time()
    sg = semigroup([6, 7, 10, 15])
    mu = milnor(sg.delta, 1)
    elapsed = time.time() - t0
    assert sg.delta == 8
    assert mu == 16
    assert elapsed < 1.0
    report(3, True, f"delta(<6,7,10,15>) = 8, mu = 16 in {elapsed:.3f}s")


def test_criterion_4_two_route_hilbert_agreement():
    branches = [
        [2, 3], [2, 5], [2, 7], [3, 4], [3, 5],
        [3, 4, 5], [4, 5, 6], [4, 6, 7], [5, 6, 7], [6, 7, 10, 15],
    ]
    t0 = time.time()
    level = 11  # t <= 10
    for gens in branches:
        prec = level * max(gens)
        P = Parametrization.parse([[f"t^{g}" for g in gens]], prec, QQ)
        kernel_route = hilbert_from_param(P, level).values
        oracle = valuation_h1(gens, level - 1)
        assert kernel_route == oracle, gens
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(4, True, f"10 monomial branches agree with the valuation oracle for t <= 10 in {elapsed:.1f}s")


def test_criterion_5_kirby_stabilization():
    for gens, n_vars, e0 in CURVE_FIXTURES:
        n = 2 * e0 + 2
        I = ideal(gens, n_vars=n_vars, level=n)
        cert = tn_membership(I, n, e0)
        assert not isinstance(cert, TnFailure), gens  # CM-certified
        hd = hilbert_data(I, n)
        assert hd.status == "ok" and hd.e0 == e0
        for t in range(e0 - 1, n):
            assert hd.graded[t] == e0, (gens, t)
    report(5, True, f"H0(t) = e0 for t >= e0-1 on {len(CURVE_FIXTURES)} CM-certified fixtures")


def test_criterion_6_tn_structure():
    t0 = time.time()
    checked = 0
    for gens, n_vars, e0 in CURVE_FIXTURES:
        top = 2 * e0 + 2
        I = ideal(gens, n_vars=n_vars, level=top)
        for n in range(e0 + 2, top + 1):
            J = I.truncated(n)
            cert = tn_membership(J, n, e0)
            assert not isinstance(cert, TnFailure), (gens, n, cert)
            rep = shape_check(J, n, e0)
            assert rep.ok, (gens, n, rep.forbidden_degrees)
            assert rep.slice_identity_ok, (gens, n)
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(6, True, f"T_n membership + shape + slice identity on {checked} (fixture, n) pairs in {elapsed:.1f}s")


def test_criterion_7_deformation_equivalence():
    t0 = time.time()
    bases = [
        (["x1^3"], 2, 3),
        (["x2^2 - x1^3"], 2, 2),
        (["x1*x2"], 2, 2),
        (["x2^2 - x1^5"], 2, 2),
        (["x1*x3 - x2^2", "x1^3 - x2*x3", "x1^2*x2 - x3^2"], 3, 3),
    ]
    total = 0
    for gens, n_vars, e0 in bases:
        level = e0 + 4
        base = ideal(gens, n_vars=n_vars, level=level)
        rng = random.Random(zlib.crc32("|".join(gens).encode()) & 0xFFFF)
        for _ in range(50):
            perts = [
                random_poly(rng, n_vars, QQ, level, e0 + 1, density=0.4)
                for _ in base.generators
            ]
            d = FirstOrderDeformation(base, perts, e0)
            assert is_family_first_order(d)[0] == flatness_direct(d, e0 + 1)[0]
            total += 1
    # the worked counterexample: X1^3 + eps*X1
    from curvemoduli.ringcore import parse_poly
    d_bad = FirstOrderDeformation(
        ideal(["x1^3"], level=8), [parse_poly("x1", 2, QQ, 8)], 3
    )
    assert not is_family_first_order(d_bad)[0]
    assert not flatness_direct(d_bad, 4)[0]
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(7, True, f"colon <-> flatness agreement on {total} seeded perturbations; X1^3 + eps*X1 rejected by both in {elapsed:.1f}s")


def test_criterion_8_cm_colon_identity():
    for e0 in (2, 3, 4, 5):
        I = ideal([f"x1^{e0}"], level=e0 + 2)
        assert cm_colon_identity(I, e0, [e0]) == {e0: True}, e0
    I345 = ideal(
        ["x1*x3 - x2^2", "x1^3 - x2*x3", "x1^2*x2 - x3^2"], n_vars=3, level=6
    )
    assert cm_colon_identity(I345, 3, [2]) == {2: True}
    report(8, True, "colon = m^v span equality on x1^e0 (e0 = 2..5) and the three-conic space curve")


def test_criterion_9_fibration_rank_at_desk_scale():
    t0 = time.time()
    cases = []
    for q in (2, 3):
        for e0, ns in ((1, (3, 4)), (2, (4,))):
            for n in ns:
                c = (2 - 1) * e0
                count_n = enumerate_xi(2, e0, n, GF(q)).count
                count_n1 = enumerate_xi(2, e0, n + 1, GF(q)).count
                assert count_n1 == q ** c * count_n, (q, e0, n)
                # the mps expansion ratio specializes to the same factor
                ctx = MeasureContext(2, e0)
                series = mps(MotivicClass.one(), n, ctx)
                coeffs = series.expand(n + 1)
                ratio = Fraction(coeffs[n + 1].specialize(q), coeffs[n].specialize(q))
                assert ratio == Fraction(count_n1, count_n), (q, e0, n)
                cases.append((q, e0, n, count_n, count_n1))
    elapsed = time.time() - t0
    assert elapsed < 300.0
    detail = "; ".join(f"q={q} e0={e0}: {a}->{b}" for q, e0, n, a, b in cases)
    report(9, True, f"count ratios = q^((N-1)e0) and mps ratios match ({detail}) in {elapsed:.1f}s")


def test_criterion_10_mps_rationality_mechanics():
    t0 = time.time()
    rng = random.Random(101)
    L = MotivicClass.L
    for _ in range(20):
        n_vars = rng.randint(2, 4)
        e0 = rng.randint(1, 3)
        n0 = rng.randint(1, 5)
        cls = MotivicClass({rng.randint(-3, 6): rng.randint(-4, 4) for _ in range(3)})
        if cls.is_zero():
            cls = MotivicClass.one()
        ctx = MeasureContext(n_vars, e0)
        coeffs = mps(cls, n0, ctx).expand(n0 + 20)
        for n in range(n0, n0 + 20):
            assert coeffs[n + 1] == coeffs[n] * L(ctx.c), (n_vars, e0, n0, n)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(10, True, f"20-term recurrence coeff(n+1) = coeff(n)*L^c on 20 random (class0, n0, c) in {elapsed:.2f}s")


def test_criterion_11_oracle_reconciliation_ledger():
    lines = []

    # --- determinantal curve with entry x1^4 (reported with tail value 5) ---
    det_claims = {"eventual_graded": 5, "claimed_h1_list": "1,3,4,5,...,e0,e0,..."}
    I = ideal(["x3^2", "x2*x3", "x1^4*x2"], n_vars=3, level=10)
    hd = hilbert_data(I, 10)
    assert hd.status == "ok"
    oracle_graded_tail = hd.graded[-1]
    assert hd.graded == [1, 3, 4, 5, 6, 6, 6, 6, 6, 6]
    assert oracle_graded_tail == 6  # the oracle value, not the claimed 5
    assert hd.e0 == 6 and hd.e1 == 11
    flag25 = "UNRECONCILED" if oracle_graded_tail != det_claims["eventual_graded"] else "ok"
    lines.append(
        f"determinantal curve (exponent 4): claimed eventual H0 = "
        f"{det_claims['eventual_graded']}, oracle = {oracle_graded_tail} [{flag25}]"
    )
    assert flag25 == "UNRECONCILED"

    # --- fibers of the family (t^7, t^8, (1-u)t^9 + t^10) at u = 0, 1 ---
    family_claims = {"H1_Z0_at_3": 5, "H1_Z1_at_3": 6, "fibers_differ": True}
    f0 = Parametrization.parse([["t^7", "t^8", "t^9 + t^10"]], 60, QQ)
    f1 = Parametrization.parse([["t^7", "t^8", "t^10"]], 60, QQ)
    rep = normally_flat_fiber_compare([f0, f1], 6)
    h0, h1 = rep.hilbert[0].values, rep.hilbert[1].values
    assert h0 == h1 == [1, 4, 10, 17, 24, 31]  # oracle values
    assert delta_from_param(f0) == delta_from_param(f1) == 11
    for key, claimed, got in (
        ("H1_Z0_at_3", family_claims["H1_Z0_at_3"], h0[3]),
        ("H1_Z1_at_3", family_claims["H1_Z1_at_3"], h1[3]),
        ("fibers_differ", family_claims["fibers_differ"], not rep.constant),
    ):
        flag = "UNRECONCILED" if claimed != got else "ok"
        lines.append(f"monomial family {key}: claimed {claimed}, oracle {got} [{flag}]")
        assert flag == "UNRECONCILED"

    # the structural direction itself is real: fibers with genuinely unequal
    # Hilbert functions are reported non-constant (hence not normally flat)
    m0 = Parametrization.parse([["t^7", "t^8", "t^9"]], 60, QQ)
    m1 = Parametrization.parse([["t^7", "t^8", "t^10"]], 60, QQ)
    rep_mono = normally_flat_fiber_compare([m0, m1], 6)
    assert not rep_mono.constant and rep_mono.first_mismatch == (1, 2)
    lines.append(
        "structural check: monomial fibers <7,8,9> vs <7,8,10> differ at t = 2 "
        "=> reported not normally flat [ok]"
    )

    for line in lines:
        print("  " + line)
    report(11, True, f"both fixtures ran to completion; {sum('UNRECONCILED' in l for l in lines)} unreconciled claimed values flagged")
