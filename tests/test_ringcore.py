import pickle
import random
import time
from fractions import Fraction
from math import isqrt

import pytest

from curvemoduli.ringcore import (
    GF,
    PRIME_LIMIT,
    QQ,
    Echelon,
    Field,
    LevelError,
    ParseError,
    TruncatedPoly,
    _is_prime,
    degree_block,
    initial_form,
    kernel_basis,
    mono_mul,
    monomial_table,
    monomials_of_degree,
    parse_poly,
    poly_str,
    span_of_multiples,
)

from oracles import dense_multiple_rows, naive_rank, naive_rref, random_poly


class TestField:
    def test_rationals_and_prime(self):
        assert QQ.char == 0 and GF(7).char == 7

    def test_nonprime_characteristic_rejected(self):
        with pytest.raises(ValueError):
            Field(6)
        with pytest.raises(ValueError):
            Field(1)

    def test_primality_matches_trial_division_below_10_5(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))

        assert [n for n in range(10 ** 5) if _is_prime(n)] == [
            n for n in range(10 ** 5) if trial(n)]

    def test_strong_pseudoprimes_bound_the_witnesses(self):
        # the least strong pseudoprime to the bases 2..37 is caught by 41;
        # the least one to 2..41, composite, is PRIME_LIMIT itself
        assert not _is_prime(399165290221 * 798330580441)
        assert PRIME_LIMIT == 1287836182261 * 2575672364521
        assert _is_prime(PRIME_LIMIT)
        with pytest.raises(ValueError, match="characteristic must be below"):
            Field(PRIME_LIMIT)

    def test_large_prime_characteristic_builds_at_once(self):
        start = time.perf_counter()
        assert GF(2 ** 61 - 1).of(-1) == 2 ** 61 - 2
        assert time.perf_counter() - start < 0.5

    def test_field_survives_pickling(self):
        for field in (QQ, GF(7)):
            assert pickle.loads(pickle.dumps(field)) == field

    def test_prime_field_arithmetic(self):
        f = GF(5)
        assert f.of(3 + 4) == 2
        assert f.of(Fraction(1, 2)) == 3
        assert f.of(-1) == 4

    def test_fraction_coercion_mod_p(self):
        from fractions import Fraction
        f = GF(7)
        assert f.of(Fraction(1, 2)) == 4  # 2*4 = 8 = 1 mod 7

    def test_inexact_coefficients_rejected(self):
        for field in (QQ, GF(7)):
            with pytest.raises(TypeError):
                field.of(0.1)
            with pytest.raises(TypeError):
                TruncatedPoly(2, field, 3, {(1, 0): 0.1})
            with pytest.raises(TypeError):
                field.of("1/2")

    def test_dsl_coefficients_unchanged(self):
        from fractions import Fraction
        p = parse_poly("1/2*x1 - 3", 2, QQ, 3)
        assert p.terms == {(1, 0): Fraction(1, 2), (0, 0): Fraction(-3)}
        assert all(type(c) is Fraction for c in p.terms.values())
        p = parse_poly("1/2*x1 - 3", 2, GF(7), 3)
        assert p.terms == {(1, 0): 4, (0, 0): 4}
        assert all(type(c) is int for c in p.terms.values())


class TestParsePrint:
    def test_basic_two_terms(self):
        p = parse_poly("x1^3 + 2*x1*x2", 2, QQ, 5)
        assert len(p.terms) == 2
        assert poly_str(p) == "x1^3 + 2*x1*x2"

    def test_cancellation_gives_zero(self):
        assert parse_poly("x1 - x1", 2, QQ, 5).is_zero()

    def test_out_of_range_variable(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_poly("x3^2", 2, QQ, 5)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_poly("x1 + * x2", 2, QQ, 5)
        assert err.value.position == 5

    def test_integer_and_fraction_coefficients(self):
        # integers stay ints until the field coerces them; a '/' makes a Fraction
        assert poly_str(parse_poly("x1^2 - 3/2*x2", 2, QQ, 4)) == "x1^2 - 3/2*x2"
        assert poly_str(parse_poly("x1^2 - 3/2*x2", 2, GF(7), 4)) == "x1^2 + 2*x2"
        assert poly_str(parse_poly("2*x1 - 3*x2", 2, GF(7), 4)) == "2*x1 + 4*x2"

    def test_fractions_and_signs(self):
        p = parse_poly("1/2*x1 - 3/4*x2 + 1", 2, QQ, 4)
        assert poly_str(p) == "1/2*x1 - 3/4*x2 + 1"

    def test_parse_print_parse_idempotent(self):
        rng = random.Random(2)
        for _ in range(25):
            p = random_poly(rng, 3, QQ, 6, 4)
            assert parse_poly(poly_str(p), 3, QQ, 6) == p

    def test_high_degree_terms_dropped(self):
        p = parse_poly("x1^9 + x1", 2, QQ, 4)
        assert poly_str(p) == "x1"

    def test_t_variable(self):
        p = parse_poly("t^6 + t^7", 1, QQ, 10, var="t")
        assert poly_str(p, var="t") == "t^7 + t^6"


def parse_case(text, expected, field=QQ, var="x"):
    return pytest.param(text, field, var, expected, id=repr(text))


# The accepted language of parse_poly, in two variables at level 5: each input
# with its printed value or its exact error.  Recorded from the character
# scanner that the token loop replaced; only the entries marked "fixed" differ
# from that record.
PARSE_TABLE = [
    parse_case("2x1", "2*x1"),
    parse_case("3 x1", "3*x1"),
    parse_case("x 1", "x1"),
    parse_case("x1 ^ 2", "x1^2"),
    parse_case("1 / 2", "1/2"),
    parse_case("x1 - - x2", "x1 + x2"),
    parse_case("--x1", "x1"),
    parse_case("x1 + -1*x2", "x1 - x2"),
    parse_case("2*x1*x2^2 - x2", "2*x1*x2^2 - x2"),
    parse_case("x01^0 + x2", "x2 + 1"),
    parse_case("x1 - x1", "0"),
    parse_case("x1^9 + x1", "x1"),
    parse_case("1/2*x1 - 3/4*x2", "1/2*x1 - 3/4*x2"),
    parse_case("t^2 + 3t", "t^2 + 3*t", var="t"),
    parse_case("1/2*x1", "4*x1", field=GF(7)),
    parse_case("x1x2", ParseError("expected '+' or '-', found 'x'", 2)),
    parse_case("x1 x2", ParseError("expected '+' or '-', found 'x'", 3)),
    parse_case("x1 - -- x2", ParseError("expected a term, found '-'", 6)),
    parse_case("+x1", ParseError("unexpected '+'", 0)),
    parse_case("x1*", ParseError("expected variable after '*', found ''", 3)),
    parse_case("2*3", ParseError("expected variable after '*', found '3'", 2)),
    parse_case("", ParseError("empty polynomial", 0)),
    parse_case("   ", ParseError("empty polynomial", 3)),
    parse_case("x3", ParseError("variable index out of range: x3", 0)),
    parse_case("1/0 + x1", ParseError("zero denominator", 3)),
    parse_case("1/", ParseError("expected a number", 2)),
    parse_case("x1 + * x2", ParseError("expected a term, found '*'", 5)),
    parse_case("x", ParseError("expected a number", 1)),
    parse_case("x1^", ParseError("expected a number", 3)),
    parse_case("2 3", ParseError("expected '+' or '-', found '3'", 2)),
    parse_case("t2", ParseError("expected '+' or '-', found '2'", 1), var="t"),
    # fixed: the end of the input is position len(text), not one past it
    parse_case("x1 +", ParseError("expected a term, found ''", 4)),
    parse_case("-", ParseError("expected a term, found ''", 1)),
    # fixed: a ParseError at the coefficient, not a ZeroDivisionError
    parse_case("1/7*x1^2", ParseError("denominator divisible by 7", 0), field=GF(7)),
    parse_case("x2 - 2/14", ParseError("denominator divisible by 7", 5), field=GF(7)),
]


@pytest.mark.parametrize("text,field,var,expected", PARSE_TABLE)
def test_parse_table(text, field, var, expected):
    n_vars = 1 if var == "t" else 2
    if isinstance(expected, ParseError):
        with pytest.raises(ParseError) as err:
            parse_poly(text, n_vars, field, 5, var=var)
        assert (str(err.value), err.value.position) == (str(expected), expected.position)
    else:
        assert poly_str(parse_poly(text, n_vars, field, 5, var=var), var=var) == expected


class TestArithmetic:
    def test_product_truncates(self):
        s = parse_poly("x1 + x2", 2, QQ, 2)
        assert (s * s).is_zero()

    def test_simple_product(self):
        a = parse_poly("x1", 2, QQ, 5)
        b = parse_poly("x2", 2, QQ, 5)
        assert poly_str(a * b) == "x1*x2"

    def test_geometric_series_inverse(self):
        a = parse_poly("1 + x1", 1, QQ, 5)
        b = parse_poly("1 - x1 + x1^2 - x1^3 + x1^4", 1, QQ, 5)
        assert poly_str(a * b) == "1"

    def test_level_mismatch_rejected(self):
        with pytest.raises(LevelError):
            parse_poly("x1", 2, QQ, 4) * parse_poly("x1", 2, QQ, 5)
        with pytest.raises(LevelError):
            parse_poly("x1", 2, QQ, 4) * parse_poly("x1", 1, QQ, 4)

    @pytest.mark.parametrize("seed", range(5))
    def test_ring_axioms_random(self, seed):
        rng = random.Random(seed)
        for field in (QQ, GF(7)):
            a = random_poly(rng, 2, field, 6, 4)
            b = random_poly(rng, 2, field, 6, 4)
            c = random_poly(rng, 2, field, 6, 4)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a

    def test_order_superadditive_and_exact_over_q(self):
        rng = random.Random(11)
        for _ in range(30):
            a = random_poly(rng, 2, QQ, 8, 5, min_degree=1)
            b = random_poly(rng, 2, QQ, 8, 5, min_degree=1)
            if a.is_zero() or b.is_zero():
                continue
            ab = a * b
            if ab.is_zero():
                assert a.order() + b.order() >= 8
                continue
            assert ab.order() >= a.order() + b.order()
            init_prod = initial_form(a) * initial_form(b)
            if not init_prod.is_zero():
                assert ab.order() == a.order() + b.order()

    def test_truncation_coherence(self):
        rng = random.Random(3)
        for _ in range(20):
            a = random_poly(rng, 2, QQ, 8, 6)
            b = random_poly(rng, 2, QQ, 8, 6)
            assert (a * b).truncate_to(5) == a.truncate_to(5) * b.truncate_to(5)
            assert (a + b).truncate_to(5) == a.truncate_to(5) + b.truncate_to(5)


class TestInitialForm:
    def test_lowest_part(self):
        p = parse_poly("x1^3 + x2^4", 2, QQ, 6)
        assert poly_str(initial_form(p)) == "x1^3"

    def test_already_homogeneous(self):
        p = parse_poly("x1 + x2", 2, QQ, 6)
        assert initial_form(p) == p

    def test_zero_rejected(self):
        with pytest.raises(LevelError, match="below level"):
            initial_form(TruncatedPoly.zero(2, QQ, 6))


def echelon_slice_dims(polys, n_vars, field, level):
    """The ranks of the graded blocks, degrees 0 .. level-1, of the span of
    `polys`."""
    table = monomial_table(n_vars, level)
    ech = Echelon(field)
    for p in polys:
        ech.add(table.vector_of(p))
    return [degree_block(table, ech, d).rank for d in range(level)]


class TestEchelonSpan:
    def test_degree_one_slice(self):
        polys = [parse_poly(s, 2, QQ, 2) for s in ("x1", "x2", "x1 + x2")]
        dims = echelon_slice_dims(polys, 2, QQ, 2)
        assert dims[1] == 2

    def test_empty_input(self):
        dims = echelon_slice_dims([], 2, QQ, 4)
        assert dims == [0, 0, 0, 0]

    def test_rank_matches_naive_oracle_over_f7(self):
        rng = random.Random(5)
        field = GF(7)
        monos = monomials_of_degree(3, 4)  # 15-dim slice
        for trial in range(4):
            polys = []
            dense = []
            for _ in range(30):
                row = [field.of(rng.randrange(7)) for _ in monos]
                dense.append(row)
                terms = {m: c for m, c in zip(monos, row) if c}
                polys.append(TruncatedPoly(3, field, 5, terms))
            dims = echelon_slice_dims(polys, 3, field, 5)
            assert dims[4] == naive_rank(dense, field)

    def test_rank_invariant_under_permutation_and_scaling(self):
        rng = random.Random(9)
        polys = [random_poly(rng, 2, QQ, 5, 4) for _ in range(12)]
        polys = [p for p in polys if not p.is_zero()]
        base = echelon_slice_dims(polys, 2, QQ, 5)
        for _ in range(5):
            shuffled = polys[:]
            rng.shuffle(shuffled)
            shuffled = [p.scale(rng.choice([1, 2, -1, 5])) for p in shuffled]
            assert echelon_slice_dims(shuffled, 2, QQ, 5) == base

    def test_slices_of_homogeneous_input_are_graded_pieces(self):
        polys = [parse_poly(s, 2, QQ, 4) for s in ("x1^2", "x1*x2", "x1^2 + x2^2")]
        dims = echelon_slice_dims(polys, 2, QQ, 4)
        assert dims == [0, 0, 3, 0]


def skip_rule_generators(rng, n_vars, field, level):
    """Random generators with the cases the skip rule must survive: an order-1
    generator, a redundant one (x1*g1), a duplicate and a monomial."""
    gens = []
    while len(gens) < 2:
        gens = [random_poly(rng, n_vars, field, level, k + 2, min_degree=k, density=0.4)
                for k in (1, rng.randint(1, 2), rng.randint(2, 3))]
        gens = [g for g in gens if not g.is_zero()]
    x1 = (1,) + (0,) * (n_vars - 1)
    extra = [gens[0].mul_monomial(x1), rng.choice(gens),
             TruncatedPoly(n_vars, field, level,
                           {rng.choice(monomials_of_degree(n_vars, 2)): field.one()})]
    gens += [g for g in extra if not g.is_zero()]
    rng.shuffle(gens)
    return gens


def assert_matches_dense_rref(table, field, gens, lo):
    dense = dense_multiple_rows(gens, table.level, min_shift=lo)
    expected = [{c: x for c, x in enumerate(row) if x != field.zero()}
                for _, row in naive_rref(dense, field)]
    assert span_of_multiples(table, field, gens, lo=lo).basis() == expected


class TestSpanOfMultiples:
    """The kernel skips x^a*p when x^a is a pivot of the span of
    the earlier generators' multiples; the span must still be that of every
    multiple x^a*p with |a| >= lo."""

    @pytest.mark.parametrize("n_vars", [2, 3])
    @pytest.mark.parametrize("field", [QQ, GF(5), GF(32003)], ids=repr)
    def test_basis_matches_dense_rref_of_every_multiple(self, field, n_vars):
        rng = random.Random(f"skip:{field!r}:{n_vars}")
        level = 6 if n_vars == 2 else 5
        table = monomial_table(n_vars, level)
        for _ in range(8):
            gens = skip_rule_generators(rng, n_vars, field, level)
            for lo in (0, 1, 2):
                assert_matches_dense_rref(table, field, gens, lo)

    @pytest.mark.parametrize("n_vars, level", [(1, 7), (4, 4)])
    def test_rational_coefficients_with_denominators(self, n_vars, level):
        # the kernel scales each generator's coefficients by their common
        # denominator before it inserts; the canonical rows must not change
        rng = random.Random(f"denominators:{n_vars}")
        coeffs = [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), Fraction(-7, 4), 1, -3]
        table = monomial_table(n_vars, level)
        for _ in range(6):
            gens = []
            for k in (1, rng.randint(1, 2), 2):
                monos = [m for d in range(k, level) for m in monomials_of_degree(n_vars, d)]
                picked = rng.sample(monos, min(len(monos), rng.randint(1, 4)))
                gens.append(TruncatedPoly(n_vars, QQ, level,
                                          {m: rng.choice(coeffs) for m in picked}))
            for lo in (0, 1, 2):
                assert_matches_dense_rref(table, QQ, gens, lo)

    @pytest.mark.parametrize("n_vars", [2, 3])
    @pytest.mark.parametrize("field", [QQ, GF(5), GF(32003)], ids=repr)
    def test_poly_of_a_canonical_row_is_the_checked_polynomial(self, field, n_vars):
        # a canonical row holds nonzero field elements in the form Field.of
        # returns, so the checked constructor of poly_of changes none of
        # them: the polynomial's vector is the row, with entries of the
        # same types
        rng = random.Random(f"poly_of:{field!r}:{n_vars}")
        level = 6 if n_vars == 2 else 5
        table = monomial_table(n_vars, level)
        for _ in range(6):
            gens = skip_rule_generators(rng, n_vars, field, level)
            for row in span_of_multiples(table, field, gens).basis():
                got = table.poly_of(row, field)
                assert table.vector_of(got) == row
                assert [type(x) for x in got.terms.values()] == [type(x) for x in row.values()]

    def test_int_vectors_over_qq_read_as_their_fractions(self):
        # over QQ an int vector reduces like the same Fractions: rows,
        # residuals and membership agree, and the input is left as it was
        rng = random.Random(31)
        entries = [1, -1, 2, 7, -(10**20) - 9]
        for _ in range(20):
            vecs = [{c: rng.choice(entries) for c in rng.sample(range(10), rng.randint(1, 5))}
                    for _ in range(6)]
            ints, fracs = Echelon(QQ), Echelon(QQ)
            for v in vecs[:-1]:
                kept = dict(v)
                ints.add(v)
                assert v == kept
                fracs.add({c: Fraction(x) for c, x in v.items()})
            last = vecs[-1]
            assert ints.basis() == fracs.basis()
            assert ints.reduce(last) == fracs.reduce({c: Fraction(x) for c, x in last.items()})
            assert ints.contains(last) == fracs.contains({c: Fraction(x) for c, x in last.items()})

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
    def test_generators_above_the_table_level_are_cut(self, field):
        # terms at or above the table's level span nothing there, so a
        # generator kept to a higher level gives the span of its truncation
        table = monomial_table(2, 4)
        high = [parse_poly("x1^2 + x2^5 - 3/2*x1^6", 2, field, 9),
                parse_poly("x2^3 + x1*x2^4", 2, field, 9),
                parse_poly("x1^7", 2, field, 9)]
        low = [p.truncate_to(4) for p in high]
        for lo in (0, 1):
            assert (span_of_multiples(table, field, high, lo=lo).basis()
                    == span_of_multiples(table, field, low, lo=lo).basis())
        assert span_of_multiples(table, field, high[:2]).rank == 4


class TestMonomialTable:
    def test_ordering_is_degree_then_tuple(self):
        table = monomial_table(2, 3)
        assert table.monos == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]

    def test_counts(self):
        table = monomial_table(3, 5)
        assert len(table.monos) == 35

    @pytest.mark.parametrize("n_vars", [1, 2, 3, 4])
    @pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 6])
    def test_packed_keys_add_without_carry(self, n_vars, level):
        table = monomial_table(n_vars, level)
        keys, index, col_of_key = table.keys, table.index, table.col_of_key
        assert keys == [sum(e * level ** (n_vars - 1 - i) for i, e in enumerate(m))
                        for m in table.monos]
        assert all(col_of_key[k] == col for col, k in enumerate(keys))
        for m in table.monos:
            for a in table.monos[:table.offset[level - sum(m)]]:
                assert col_of_key[keys[index[m]] + keys[index[a]]] == index[mono_mul(m, a)]


class TestCanonicalForm:
    def test_basis_is_presentation_independent(self):
        # the reduced echelon rows are a canonical form of the span: any
        # invertible recombination of the input vectors produces identical
        # rows (the finite-field enumerator's members are these rows)
        from curvemoduli.ringcore import Echelon

        rng = random.Random(23)
        field = GF(3)
        for _ in range(10):
            vecs = []
            for _ in range(5):
                v = {c: field.of(rng.randrange(3)) for c in rng.sample(range(12), 6)}
                v = {c: x for c, x in v.items() if x}
                if v:
                    vecs.append(v)
            ech = Echelon(field)
            for v in vecs:
                ech.add(dict(v))
            base_rows = ech.basis()
            for _ in range(4):
                mixed = [dict(v) for v in vecs]
                rng.shuffle(mixed)
                # add a multiple of one vector to another: same span
                if len(mixed) >= 2:
                    i, j = rng.sample(range(len(mixed)), 2)
                    c = field.of(rng.randrange(1, 3))
                    for col, val in mixed[j].items():
                        s = field.of(mixed[i].get(col, field.zero()) + c * val)
                        if s == field.zero():
                            mixed[i].pop(col, None)
                        else:
                            mixed[i][col] = s
                ech2 = Echelon(field)
                for v in mixed:
                    ech2.add(v)
                assert ech2.basis() == base_rows


# entries for rational vectors: non-integers, a large prime denominator and
# large numerators, so that clearing denominators and integer growth show
QQ_ENTRIES = [Fraction(7, 9), Fraction(1, 32003), Fraction(-5, 32), Fraction(2**61 - 1, 3),
              Fraction(-(10**20) - 9), Fraction(3), Fraction(-1), Fraction(1)]


def _random_vector(rng, field, ncols):
    """A sparse vector with 1-5 nonzero entries; the support starts anywhere,
    so later pivots often land inside earlier rows."""
    cols = rng.sample(range(ncols), rng.randint(1, min(5, ncols)))
    if field.char:
        return {c: rng.randrange(1, field.char) for c in cols}
    return {c: rng.choice(QQ_ENTRIES) for c in cols}


def _is_semi_reduced(ech):
    """Some stored row still holds another row's pivot column."""
    stored = ech._rows
    return any(c != piv and c in stored for piv, row in stored.items() for c in row)


class TestEchelonKernel:
    """Echelon against dense Gauss-Jordan elimination: canonical rows, pivots,
    rank, residuals and membership after every batch of inserts."""

    FIELDS = [QQ, GF(7), GF(32003)]

    def _expected(self, vectors, field, ncols):
        dense = [[v.get(c, field.zero()) for c in range(ncols)] for v in vectors]
        return {piv: {c: x for c, x in enumerate(row) if x != field.zero()}
                for piv, row in naive_rref(dense, field)}

    def _residual(self, expected, vec, field):
        v = dict(vec)
        for piv, row in expected.items():
            a = v.get(piv, field.zero())
            if a == field.zero():
                continue
            for c, y in row.items():
                s = field.of(v.get(c, field.zero()) - a * y)
                if s == field.zero():
                    v.pop(c, None)
                else:
                    v[c] = s
        return v

    def _check(self, ech, vectors, field, ncols, rng):
        expected = self._expected(vectors, field, ncols)
        assert ech.rank == len(expected)
        assert sorted(ech.pivots()) == sorted(expected)
        for _ in range(6):
            probe = _random_vector(rng, field, ncols)
            residual = self._residual(expected, probe, field)
            assert ech.reduce(probe) == residual
            assert ech.contains(probe) == (not residual)
        assert ech.rows == expected
        assert ech.basis() == [expected[piv] for piv in sorted(expected)]
        if field.char == 0:
            assert all(type(x) is Fraction for row in ech.rows.values() for x in row.values())
        for vec in vectors:
            assert ech.contains(vec) and ech.reduce(vec) == {}

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_rows_and_residuals_match_dense_elimination(self, field):
        rng = random.Random(f"echelon:{field!r}")
        semi_reduced = 0
        for trial in range(25):
            ncols = rng.randint(4, 14)
            vectors = [_random_vector(rng, field, ncols) for _ in range(rng.randint(2, 16))]
            ech = Echelon(field)
            # add, read, add more, read again: a stale cache of rows fails
            cut = rng.randint(1, len(vectors))
            for start, stop in ((0, cut), (cut, len(vectors))):
                for i in range(start, stop):
                    vec = vectors[i]
                    before = dict(vec)
                    grew = ech.add(vec)
                    assert vec == before
                    assert grew == (len(self._expected(vectors[:i + 1], field, ncols))
                                    > len(self._expected(vectors[:i], field, ncols)))
                semi_reduced += _is_semi_reduced(ech)
                self._check(ech, vectors[:stop], field, ncols, rng)
                self._check(ech, vectors[:stop], field, ncols, rng)
        assert semi_reduced >= 5

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_copy_is_independent(self, field):
        rng = random.Random(f"echelon-copy:{field!r}")
        for _ in range(10):
            ncols = 10
            base = [_random_vector(rng, field, ncols) for _ in range(5)]
            more = [_random_vector(rng, field, ncols) for _ in range(5)]
            ech = Echelon(field)
            for vec in base:
                ech.add(vec)
            dup = ech.copy()
            for vec in more:
                dup.add(vec)
            self._check(ech, base, field, ncols, rng)
            self._check(dup, base + more, field, ncols, rng)
            ech.add(more[0])
            self._check(dup, base + more, field, ncols, rng)
            self._check(ech, base + more[:1], field, ncols, rng)

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_degree_blocks_of_a_semi_reduced_span(self, field):
        rng = random.Random(f"echelon-block:{field!r}")
        table = monomial_table(2, 6)
        ncols = len(table.monos)
        semi_reduced = 0
        for _ in range(15):
            vectors = [_random_vector(rng, field, ncols) for _ in range(rng.randint(4, 14))]
            ech = Echelon(field)
            for vec in vectors:
                ech.add(vec)
            semi_reduced += _is_semi_reduced(ech)
            expected = self._expected(vectors, field, ncols)
            for d in range(table.level):
                lo, hi = table.offset[d], table.offset[d + 1]
                want = [{c: x for c, x in expected[piv].items() if c < hi}
                        for piv in sorted(expected) if lo <= piv < hi]
                block = degree_block(table, ech, d)
                assert block.basis() == want
                assert block.rank == len(want)
            self._check(ech, vectors, field, ncols, rng)
        assert semi_reduced >= 5


def _dense_kernel(seed_vecs, images, width, field):
    """RREF of {c : sum c_j images[j] in span(seed)} by dense elimination: the
    nullspace of the matrix with columns images + seed, projected onto the
    image coordinates (no Echelon involved)."""
    zero, one = field.zero(), field.one()
    cols = images + seed_vecs
    matrix = [[v.get(r, zero) for v in cols] for r in range(width)]
    rref = naive_rref(matrix, field)
    pivots = {piv for piv, _ in rref}
    null = []
    for free in range(len(cols)):
        if free in pivots:
            continue
        x = [zero] * len(cols)
        x[free] = one
        for piv, row in rref:
            x[piv] = field.of(-row[free])
        null.append(x[:len(images)])
    return [{j: c for j, c in enumerate(row) if c != zero}
            for _, row in naive_rref(null, field)]


class TestKernelBasis:
    """kernel_basis against a dense nullspace, over QQ and GF(p)."""

    FIELDS = [QQ, GF(7), GF(32003)]

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    @pytest.mark.parametrize("with_seed", [False, True], ids=["no_seed", "seed"])
    def test_matches_dense_nullspace(self, field, with_seed):
        rng = random.Random(f"kernel:{field!r}:{with_seed}")
        nontrivial = 0
        for _ in range(20):
            width = rng.randint(3, 9)
            seed_vecs = ([_random_vector(rng, field, width) for _ in range(rng.randint(1, width))]
                         if with_seed else [])
            images = [_random_vector(rng, field, width) for _ in range(rng.randint(1, 12))]
            seed = Echelon(field)
            for vec in seed_vecs:
                seed.add(vec)
            stored = {piv: dict(row) for piv, row in seed._rows.items()}
            rank = seed.rank

            basis = kernel_basis(seed, images, width)

            assert seed.rank == rank and seed._rows == stored
            grown = naive_rank([[v.get(c, field.zero()) for c in range(width)]
                                for v in seed_vecs + images], field)
            assert len(basis) == len(images) - (grown - rank)
            assert basis == _dense_kernel(seed_vecs, images, width, field)
            for row in basis:
                combo = {}
                for j, c in row.items():
                    for col, x in images[j].items():
                        combo[col] = field.of(combo.get(col, field.zero()) + c * x)
                assert seed.contains({col: x for col, x in combo.items() if x != field.zero()})
            nontrivial += bool(basis)
        assert nontrivial >= 10
