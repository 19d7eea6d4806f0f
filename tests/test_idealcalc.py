import random

import pytest

from curvemoduli.idealcalc import (
    DegreeSpans,
    IdealPresentation,
    INTERSECTION_DIVERGENT,
    analyze_h1,
    hilbert_data,
    initial_ideal,
    intersection_number,
    min_generators,
    standard_basis_check,
)
from curvemoduli.ringcore import (
    GF,
    QQ,
    Echelon,
    LevelError,
    degree_block,
    initial_form,
    multiples,
    parse_poly,
    poly_str,
)

from oracles import (
    dense_ideal_h1,
    dense_multiple_rows,
    naive_rank,
    random_poly,
    monomial_ideal_h1,
    random_generator_mix,
    sampled_initial_slices,
)


def ideal(texts, n_vars=2, field=QQ, level=8):
    return IdealPresentation.parse(texts, n_vars, field, level)


# (generators as (text, n_vars, field, level), error, message): the
# presentation's ambient is that of the first generator
BAD_GENERATORS = {
    "zero": ([("x1", 2, QQ, 4), ("0", 2, QQ, 4)], ValueError, "zero generator"),
    "unit": ([("x1^2 + 3", 2, GF(5), 4)], ValueError,
             "generator x1^2 + 3 is a unit: order must be >= 1"),
    "other-ambient": ([("x1", 2, QQ, 4), ("x1", 3, QQ, 4)], LevelError,
                      "generators disagree on ambient, field, or level"),
    "other-field": ([("x1", 2, QQ, 4), ("x2", 2, GF(7), 4)], LevelError,
                    "generators disagree on ambient, field, or level"),
}


@pytest.mark.parametrize("case", list(BAD_GENERATORS))
def test_generator_check_raises_the_presentations_messages(case):
    # the enumerator checks each generator it makes with the helper that
    # IdealPresentation runs: both reject a bad generator alike
    from curvemoduli.idealcalc import _check_generators

    specs, error, message = BAD_GENERATORS[case]
    gens = [parse_poly(*spec) for spec in specs]
    _, n_vars, field, level = specs[0]
    for call in (lambda: _check_generators(gens, n_vars, field, level),
                 lambda: IdealPresentation(gens)):
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error and str(info.value) == message


class TestIdealSpans:
    def test_smooth_line_codimensions(self):
        spans = DegreeSpans(ideal(["x2"], level=4), 4)
        assert spans.h1_values() == [1, 2, 3, 4]

    def test_triple_line_against_monomial_oracle(self):
        # frozen from the monomial-count oracle
        assert monomial_ideal_h1([(3, 0)], 2, 5) == [1, 3, 6, 9, 12, 15]
        spans = DegreeSpans(ideal(["x1^3"], level=6), 6)
        assert spans.h1_values() == [1, 3, 6, 9, 12, 15]

    def test_determinantal_monomial_ideal_graded(self):
        gens = ["x3^2", "x2*x3", "x1^4*x2"]
        oracle = monomial_ideal_h1([(0, 0, 2), (0, 1, 1), (4, 1, 0)], 3, 7)
        hd = hilbert_data(ideal(gens, n_vars=3, level=8), 8)
        assert hd.values == oracle
        assert hd.graded == [1, 3, 4, 5, 6, 6, 6, 6]

    def test_level_too_low_on_generators(self):
        with pytest.raises(LevelError):
            DegreeSpans(ideal(["x1^3"], level=4), 6)

    def test_spans_match_dense_oracle_on_inhomogeneous_input(self):
        gens = [parse_poly("x1^2 - x2^3", 2, QQ, 7), parse_poly("x1*x2^2 + x2^4", 2, QQ, 7)]
        I = IdealPresentation(gens, 2, QQ, 7)
        assert DegreeSpans(I, 7).h1_values() == dense_ideal_h1(gens, 7)

    def test_monotone_under_extra_generators(self):
        base = ideal(["x1^3"], level=6)
        bigger = ideal(["x1^3", "x2^4"], level=6)
        s0 = DegreeSpans(base, 6)
        s1 = DegreeSpans(bigger, 6)
        for d in range(6):
            assert s1.span_dim(d) >= s0.span_dim(d)

    def test_level_coherence(self):
        I = ideal(["x1^2 - x2^3", "x1*x2^2"], level=8)
        full = DegreeSpans(I, 8)
        lower = DegreeSpans(I.truncated(5), 5)
        for d in range(5):
            assert full.span_dim(d) == lower.span_dim(d)


class TestHilbertData:
    def test_plane_curves_e1(self):
        for e0 in range(2, 7):
            hd = hilbert_data(ideal([f"x1^{e0}"], level=2 * e0 + 2), 2 * e0 + 2)
            assert hd.status == "ok"
            assert (hd.e0, hd.e1) == (e0, e0 * (e0 - 1) // 2)

    def test_smooth_curve(self):
        hd = hilbert_data(ideal(["x2"], level=6), 6)
        assert (hd.e0, hd.e1, hd.stab_index) == (1, 0, 0)

    def test_minimal_level_window(self):
        # H1 = [1,3,5] already has a constant difference tail of length 2
        hd = hilbert_data(ideal(["x1^2"], level=3), 3)
        assert hd.status == "ok" and (hd.e0, hd.e1) == (2, 1)

    def test_not_stabilized_analysis(self):
        hd = analyze_h1([1, 3, 6, 9, 13])
        assert hd.status == "not_stabilized"
        assert hd.e0 is None

    def test_dim_ge_2_detected(self):
        # the zero ideal in 2 variables grows quadratically
        zero = IdealPresentation([], 2, QQ, 6)
        hd = hilbert_data(zero, 6)
        assert hd.status == "dim_ge_2"

    @pytest.mark.parametrize("n_vars,values", [
        (2, [1, 3, 4, 4, 4, 4]),
        (3, [1, 4, 7, 8, 8, 8]),
    ])
    def test_zero_dimensional_is_dim_0(self, n_vars, values):
        squares = [f"x{i}^2" for i in range(1, n_vars + 1)]
        hd = hilbert_data(ideal(squares, n_vars=n_vars, level=6), 6)
        assert hd.values == values and hd.graded[-1] == 0
        assert hd.status == "dim_0"
        assert (hd.e0, hd.e1, hd.stab_index) == (None, None, None)

    def test_level_below_three_rejected(self):
        with pytest.raises(LevelError):
            analyze_h1([1, 3])

    def test_empty_values_rejected_by_level(self):
        with pytest.raises(LevelError, match="got 0"):
            analyze_h1([])

    def test_kirby_stabilization_index(self):
        # CM fixtures stabilize at e0 - 1
        for gens, n_vars, e0 in [
            (["x1^3"], 2, 3),
            (["x1^2 - x2^3"], 2, 2),
            (["x1*x3 - x2^2", "x1^3 - x2*x3", "x1^2*x2 - x3^2"], 3, 3),
        ]:
            hd = hilbert_data(ideal(gens, n_vars=n_vars, level=2 * e0 + 2), 2 * e0 + 2)
            assert hd.status == "ok" and hd.e0 == e0
            assert hd.stab_index <= e0 - 1
            for t in range(e0 - 1, len(hd.graded)):
                assert hd.graded[t] == e0

    def test_macaulay_lower_bound(self):
        for gens, n_vars, e0 in [
            (["x1^4"], 2, 4),
            (["x3^2", "x2*x3", "x1^2*x2"], 3, 4),
        ]:
            hd = hilbert_data(ideal(gens, n_vars=n_vars, level=2 * e0 + 2), 2 * e0 + 2)
            bound = lambda t: e0 * (t + 1) - e0 * (e0 - 1) // 2
            for t in range(e0 - 1, len(hd.values)):
                assert hd.values[t] >= bound(t)


class TestInitialIdeal:
    def test_principal_initial_form(self):
        data = initial_ideal(ideal(["x1^3 + x2^4"], level=7), 7)
        assert data.vstar == [3] and data.nu == 1
        assert [poly_str(p) for p in data.min_generators[3]] == ["x1^3"]

    def test_monomial_generators_are_their_own_initial_forms(self):
        data = initial_ideal(ideal(["x3^2", "x2*x3", "x1^4*x2"], n_vars=3, level=8), 8)
        assert data.vstar == [2, 2, 5] and data.nu == 3

    def test_slices_contain_s1_times_previous(self):
        data = initial_ideal(ideal(["x1^2 - x2^3", "x1*x2^2"], level=8), 8)
        dims = data.slice_dims
        for d in range(1, 8):
            # new minimal generators account exactly for the dimension jumps
            fresh = len(data.min_generators.get(d, []))
            assert dims[d] >= dims[d - 1]  # slices only grow with the degree here
            assert fresh >= 0

    def test_against_dense_differencing_oracle(self):
        # dim I*_d = jump of the dense-elimination span dims between levels
        gens = [parse_poly("x1^2 - x2^3", 2, QQ, 8), parse_poly("x1*x2^2", 2, QQ, 8)]
        I = IdealPresentation(gens, 2, QQ, 8)
        data = initial_ideal(I, 8)
        from curvemoduli.ringcore import count_monomials_upto
        h1 = dense_ideal_h1(gens, 8)
        for d in range(8):
            span_d = count_monomials_upto(2, d) - h1[d]
            span_prev = count_monomials_upto(2, d - 1) - h1[d - 1] if d else 0
            assert data.slice_dims[d] == span_d - span_prev, d

    def test_sampled_combinations_stay_inside_slices(self):
        gens = [parse_poly("x1^2 - x2^3", 2, QQ, 8), parse_poly("x1*x2^2", 2, QQ, 8)]
        I = IdealPresentation(gens, 2, QQ, 8)
        data = initial_ideal(I, 8)
        sampled = sampled_initial_slices(gens, 8, trials=400, seed=13)
        for d in range(8):
            assert sampled.get(d, 0) <= data.slice_dims[d], d

    def test_presentation_independence(self):
        rng = random.Random(21)
        base = ideal(["x1^2 - x2^3", "x1*x2^2"], level=8)
        want_dims = initial_ideal(base, 8).slice_dims
        want_h1 = DegreeSpans(base, 8).h1_values()
        for _ in range(6):
            mixed = random_generator_mix(rng, base)
            assert DegreeSpans(mixed, 8).h1_values() == want_h1
            assert initial_ideal(mixed, 8).slice_dims == want_dims


def initial_ideal_by_s1_loop(ideal, level):
    """Reference for `initial_ideal`: per degree, the span of S_1 * I*_{d-1}
    is built afresh from the x_i-multiples of the previous slice, and a
    slice vector is a minimal generator when it raises that span's rank.
    Returns the slice dimensions and the minimal generators."""
    spans = DegreeSpans(ideal, level)
    table = spans.table
    field = ideal.field
    variables = range(table.offset[1], table.offset[2])  # the columns of x_1 .. x_N
    dims, mingens, prev = [], {}, []
    for d in range(level):
        rows = degree_block(table, spans.ech, d).basis()
        dims.append(len(rows))
        below = Echelon(field)
        for row in prev:
            for vec in multiples(table, row, variables):
                below.add(vec)
        fresh = [table.poly_of(row, field) for row in rows if below.add(row)]
        if fresh:
            mingens[d] = fresh
        prev = rows
    return dims, mingens


def printed(polys):
    return [poly_str(p) for p in polys]


class TestInitialIdealAgainstS1Loop:
    """`initial_ideal` tests slice vectors against the ideal generated by the
    minimal generators found so far; the old per-degree S_1 loop must pick
    the same generators in the same order."""

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(32003)], ids=str)
    def test_same_slices_and_minimal_generators(self, field):
        rng = random.Random(f"s1-loop:{field}")
        ideals = [I for _, I in random_n3_ideals(field, seed=47, count=4)]
        ideals.append(IdealPresentation.parse(["x1^2 - x2^3", "x1*x2^2"], 2, field, 9))
        for _ in range(6):
            level = rng.randint(5, 9)
            gens = [random_poly(rng, 2, field, level, 5, min_degree=rng.randint(1, 3),
                                density=0.4) for _ in range(3)]
            gens = [g for g in gens if not g.is_zero()]
            if gens:
                ideals.append(IdealPresentation(gens + [gens[0]], 2, field, level))
        for I in ideals:
            data = initial_ideal(I, I.level)
            dims, mingens = initial_ideal_by_s1_loop(I, I.level)
            assert data.slice_dims == dims
            assert {d: printed(ps) for d, ps in data.min_generators.items()} == \
                {d: printed(ps) for d, ps in mingens.items()}
            assert data.vstar == sorted(d for d, ps in mingens.items() for _ in ps)
            assert data.nu == len(data.vstar)

    def test_generator_found_through_the_generator_ideal(self):
        # x2^5 = x1 * x1*x2^2 - x2^2 * (x1^2 - x2^3) is in I*_5 but not in
        # S_1 * I*_4, whose monomials are all divisible by x1
        data = initial_ideal(ideal(["x1^2 - x2^3", "x1*x2^2"], field=GF(32003), level=9), 9)
        assert data.vstar == [2, 3, 5]
        assert printed(data.min_generators[5]) == ["x2^5"]


class TestInsertCount:
    """On a two-generator complete intersection every multiple the kernel inserts
    raises the rank: the Koszul multiples x^a*f2 with x^a a pivot of the
    span of f1's multiples are skipped before any reduction."""

    @pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
    @pytest.mark.parametrize("level, rank", [(12, 301), (18, 1041)])
    def test_one_add_per_rank(self, monkeypatch, field, level, rank):
        calls = []
        add = Echelon.add
        monkeypatch.setattr(Echelon, "add", lambda ech, vec: calls.append(1) or add(ech, vec))
        I = ideal(["x1^2 + 3*x1*x3 - 2*x1^4", "x2^3 - 5*x2^2*x3 + 7*x2^2*x3^2"],
                  n_vars=3, field=field, level=level)
        spans = DegreeSpans(I, level)
        assert spans.ech.rank == rank
        assert len(calls) == rank


class TestStandardBasis:
    def test_single_monomial_true(self):
        assert standard_basis_check(ideal(["x1^3"], level=6), 6).ok

    def test_cancellation_pair_fails_with_witness(self):
        rep = standard_basis_check(ideal(["x1^2 - x2^3", "x1*x2^2"], level=8), 8)
        assert not rep.ok
        assert rep.failing_degree == 5
        assert poly_str(rep.missing_initial_form) == "x2^5"

    def test_completed_basis_passes(self):
        rep = standard_basis_check(ideal(["x1^2 - x2^3", "x1*x2^2", "x2^5"], level=8), 8)
        assert rep.ok and rep.vstar == [2, 3, 5]

    def test_redundant_presentation_same_slices(self):
        lean = ideal(["x1^2 - x2^3"], level=8)
        fat = ideal(["x1^2 - x2^3", "x1^2*x2^2 - x2^5"], level=8)
        assert initial_ideal(lean, 8).slice_dims == initial_ideal(fat, 8).slice_dims
        assert standard_basis_check(fat, 8).ok

    def test_space_curve_345_is_standard(self):
        I = ideal(["x1*x3 - x2^2", "x1^3 - x2*x3", "x1^2*x2 - x3^2"], n_vars=3, level=8)
        rep = standard_basis_check(I, 8)
        assert rep.ok and rep.vstar == [2, 2, 2]


def first_row_outside_candidate(I, level):
    """The standard-basis witness by its first definition: the least degree
    d where some canonical row of I*_d lies outside the degree-d block of the
    ideal of the initial forms, and the first such row; None if there is none."""
    spans = DegreeSpans(I, level)
    candidate = IdealPresentation([initial_form(g) for g in I.generators],
                                  I.n_vars, I.field, level)
    cand = DegreeSpans(candidate, level)
    table = spans.table
    for d in range(level):
        have = degree_block(table, cand.ech, d)
        for row in degree_block(table, spans.ech, d).basis():
            if not have.contains(row):
                return d, table.poly_of(row, I.field)
    return None


def random_failing_ideals(field, n_vars, seed, count, level=7):
    """`count` seeded random ideals whose generators are not a standard basis."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        gens = [random_poly(rng, n_vars, field, level, 4, min_degree=2, density=0.4)
                for _ in range(rng.randint(2, 3))]
        gens = [g for g in gens if not g.is_zero()]
        I = IdealPresentation(gens, n_vars, field, level)
        if gens and not standard_basis_check(I, level).ok:
            out.append(I)
    return out


class TestStandardBasisWitness:
    """The witness is the first minimal generator of I* in the failing degree
    outside the candidate's block, read off `initial_ideal`'s data."""

    @pytest.mark.parametrize("field", [QQ, GF(3), GF(101)], ids=str)
    @pytest.mark.parametrize("n_vars", [2, 3])
    def test_witness_is_the_first_row_outside_the_candidate(self, field, n_vars):
        for I in random_failing_ideals(field, n_vars, seed=7 * n_vars, count=6):
            rep = standard_basis_check(I, I.level)
            d, row = first_row_outside_candidate(I, I.level)
            assert (rep.failing_degree, rep.missing_initial_form) == (d, row)
            assert rep.missing_initial_form in initial_ideal(I, I.level).min_generators[d]

    def test_witness_skips_generators_the_candidate_holds(self):
        # x3^5 and x1^5 are both fresh in degree 5, x3^5 first; only x1^5
        # lies outside the ideal of the initial forms
        I = ideal(["x2^2 - x1^3", "x1^2*x2", "x3^5"], n_vars=3, level=8)
        assert printed(initial_ideal(I, 8).min_generators[5]) == ["x3^5", "x1^5"]
        rep = standard_basis_check(I, 8)
        assert (rep.failing_degree, poly_str(rep.missing_initial_form)) == (5, "x1^5")
        assert (5, rep.missing_initial_form) == first_row_outside_candidate(I, 8)

    def test_builds_one_span_of_the_ideal(self, monkeypatch):
        I = ideal(["x1^2 - x2^3", "x1*x2^2"], level=8)
        spanned = []
        init = DegreeSpans.__init__
        monkeypatch.setattr(DegreeSpans, "__init__",
                            lambda spans, J, level: spanned.append(J) or init(spans, J, level))
        rep = standard_basis_check(I, 8)
        assert not rep.ok
        assert sum(J is I for J in spanned) == 1 and len(spanned) == 2


class TestMinGenerators:
    def test_principal(self):
        assert min_generators(ideal(["x2"], level=6), 6) == 1

    def test_monomial_three(self):
        assert min_generators(ideal(["x3^2", "x2*x3", "x1^4*x2"], n_vars=3, level=8), 8) == 3

    def test_redundancy_pitfall(self):
        # (x1^2, x1^2 + x2^3) = (x1^2, x2^3): two generators, not one
        assert min_generators(ideal(["x1^2", "x1^2 + x2^3"], level=7), 7) == 2

    def test_matches_vstar_count_in_clean_cases(self):
        for gens, n_vars in [
            (["x3^2", "x2*x3", "x1^4*x2"], 3),
            (["x1*x3 - x2^2", "x1^3 - x2*x3", "x1^2*x2 - x3^2"], 3),
        ]:
            I = ideal(gens, n_vars=n_vars, level=8)
            assert min_generators(I, 8) == initial_ideal(I, 8).nu

    def test_standard_basis_can_be_redundant_as_generators(self):
        # x2^5 is forced as an initial form but not needed as a generator
        I = ideal(["x1^2 - x2^3", "x1*x2^2", "x2^5"], level=8)
        assert min_generators(I, 8) == 2
        assert initial_ideal(I, 8).nu == 3


def random_n3_ideals(field, seed, count=3, level=6):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        gens = [random_poly(rng, 3, field, level, 4, min_degree=1, density=0.3) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        if gens:
            # a redundant generator: congruent to the last one modulo M*I
            gens.append(gens[-1] + gens[0] * gens[-1])
            out.append((rng, IdealPresentation(gens, 3, field, level)))
    return out


class TestSpanOrderIndependence:
    """The span kernel inserts generator by generator; the reduced rows and
    the ranks read off them must not depend on that order."""

    @pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
    def test_rows_invariant_under_shuffle_and_rescale(self, field):
        for rng, I in random_n3_ideals(field, seed=41):
            base = DegreeSpans(I, I.level).ech.rows
            for _ in range(3):
                gens = [g.scale(rng.choice([1, 2, -1, 5])) for g in I.generators]
                rng.shuffle(gens)
                J = IdealPresentation(gens, 3, field, I.level)
                assert DegreeSpans(J, I.level).ech.rows == base

    @pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
    def test_min_generators_against_dense_ranks(self, field):
        for _, I in random_n3_ideals(field, seed=43):
            gens, n = I.generators, I.level
            expected = (naive_rank(dense_multiple_rows(gens, n), field)
                        - naive_rank(dense_multiple_rows(gens, n, min_shift=1), field))
            assert min_generators(I, n) == expected


class TestIntersectionNumber:
    def test_transverse_lines(self):
        I = ideal(["x2"], level=8)
        X = ideal(["x1"], level=8)
        assert intersection_number(I, X, 8) == 1

    def test_tangent_parabola(self):
        I = ideal(["x2"], level=8)
        X = ideal(["x2 - x1^2"], level=8)
        assert intersection_number(I, X, 8) == 2

    def test_containment_diverges(self):
        I = ideal(["x2"], level=8)
        assert intersection_number(I, I, 8) == INTERSECTION_DIVERGENT

    def test_cusp_line_contact(self):
        # dim R/(x2^2 - x1^3, x2) = dim k[x1]/(x1^3) = 3
        I = ideal(["x2^2 - x1^3"], level=8)
        X = ideal(["x2"], level=8)
        assert intersection_number(I, X, 8) == 3

    def test_generator_killed_by_truncation(self):
        # x1^9 vanishes below n_max = 8 and drops out; the contact stays 3
        I = ideal(["x1^9", "x2^2 - x1^3"], level=10)
        X = ideal(["x2"], level=10)
        assert intersection_number(I, X, 8) == 3
