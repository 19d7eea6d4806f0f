"""Per-degree spans of ideals in R/M^n and the invariants read off them:
Hilbert-Samuel values H1(t) = dim R/(I+M^{t+1}), the stabilized pair
(e0, e1), initial ideals and their minimal generator degrees (Hironaka's
v*), standard-basis verification, minimal generator counts, and the
"false" intersection number dim R/(I+X).

The workhorse is a single echelon span of all monomial multiples
of the generators at the working level, with columns ordered by ascending
degree: pivots in degrees <= d then give both dim (I+M^{d+1})/M^{d+1} and
an explicit basis of the degree-d graded piece of the initial ideal.  A
slice's dimension is its pivot count (`DegreeSpans.slice_dims`); its rows
are cut out as an echelon block (`ringcore.degree_block`) only where they
are read: for fresh minimal generators, and in the failing degree of a
standard-basis check for the candidate's block, against which the
minimal generators of that degree are tested for a witness.  That span,
and every other span of monomial multiples here, comes from the one kernel
`ringcore.span_of_multiples`, which inserts generator by generator: its
canonical rows do not depend on the insertion order, and this order was
measured the cheapest.  The kernel takes each generator as a row over the
span's `MonomialTable` and every multiple from the one builder
`ringcore.multiples`.

The kernel skips the multiples that the earlier generators already account
for (Faugere's F5 criterion in the truncated local setting).  The span S
of the x^b * f_j, j < i, |b| >= lo, is an ideal of R/M^n.  When
the column of x^a is a pivot of S, some g in S has x^a as its lowest
column, and c*x^a*f_i = g*f_i - (g - c*x^a)*f_i: g*f_i lies in S, and the
rest is multiples x^m*f_i at later columns, so |m| >= |a| >= lo, which are
in the span by downward induction on the column.  So x^a*f_i is left out
and the span is unchanged.  On a complete intersection of two generators
whose initial forms are a regular sequence this leaves one insert per rank.

`initial_ideal` reads the minimal generators of I* against the ideal
generated by the ones found before them: that ideal's degree-d part is
S_1 * I*_{d-1} until a generator of degree d joins it, and a fresh slice
row adds its multiples to it at once, under the same skip rule.  That
ideal lies inside I*, so a degree where it already has the slice's
dimension holds no fresh vector and is not tested.
"""

from collections import namedtuple

from .ringcore import (
    Echelon,
    LevelError,
    _add_multiples,
    check_precision,
    check_same_ring,
    degree_block,
    initial_form,
    monomial_table,
    parse_poly,
    span_of_multiples,
)


def check_level(level):
    """A truncation level is at least 1: R/M^0 is the zero ring."""
    if level < 1:
        raise LevelError(f"level must be >= 1, got {level}")


def _check_generators(ring, generators):
    """Reject generators that do not all live in the ring of `ring` (any
    value with n_vars, field and level), by `check_same_ring`, then a zero
    generator or a unit (one with a constant term): the checks of every
    generator of an `IdealPresentation`."""
    check_same_ring("generators", [ring, *generators])
    constant = (0,) * ring.n_vars  # a nonzero generator of order 0 has this term
    for g in generators:
        if g.is_zero():
            raise ValueError("zero generator")
        if constant in g.terms:
            raise ValueError(f"generator {g} is a unit: order must be >= 1")


class IdealPresentation:
    """An ideal of R given by generators at a common truncation level.

    Generators must be nonzero with order >= 1 (contained in M).  An empty
    generator list is the zero ideal; it shows up when truncation kills
    every generator, and then only the implicit M^level block remains.
    """

    __slots__ = ("n_vars", "field", "generators", "level")

    def __init__(self, generators, n_vars=None, field=None, level=None):
        generators = list(generators)
        if generators:
            g0 = generators[0]
            n_vars = g0.n_vars if n_vars is None else n_vars
            field = g0.field if field is None else field
            level = g0.level if level is None else level
        if n_vars is None or field is None or level is None:
            raise ValueError("empty presentation needs explicit n_vars, field, level")
        self.n_vars = n_vars
        self.field = field
        self.level = level
        _check_generators(self, generators)
        self.generators = generators

    @classmethod
    def parse(cls, texts, n_vars, field, level):
        # a level below 1 would truncate every generator to zero: name it first
        check_level(level)
        gens = [parse_poly(t, n_vars, field, level) for t in texts]
        for text, g in zip(texts, gens):
            if g.is_zero():
                raise ValueError(f"generator {text} is zero modulo M^{level}")
        return cls(gens, n_vars, field, level)

    def truncated(self, level):
        """The ideal at `level`: the one gate from a presentation to the level
        a computation works at.  The level must be >= 1 and at most this
        presentation's, since precision is never extended.  At its own level
        the presentation itself comes back; below it the generators are cut,
        dropping the ones killed."""
        check_level(level)
        check_precision(self.level, level)
        if level == self.level:
            return self
        gens = [g.truncate_to(level) for g in self.generators]
        return IdealPresentation(
            [g for g in gens if not g.is_zero()], self.n_vars, self.field, level
        )

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({gens}; N={self.n_vars}, {self.field}, level={self.level})"


class DegreeSpans:
    """Echelonized span of (I+M^n)/M^n with all per-degree data.

    The span of (I+M^{d+1})/M^{d+1} is generated by the monomial multiples
    x^a * f_i with |a| + order(f_i) <= d; since every generator has order
    >= 1 the multiples at the top level restrict correctly to every lower
    level, so one echelon pass serves all degrees at once.  The ideal is
    taken at `level` by `IdealPresentation.truncated`, and `ideal` holds it
    there.
    """

    def __init__(self, ideal, level):
        ideal = ideal.truncated(level)
        table = monomial_table(ideal.n_vars, level)
        self.ideal = ideal
        self.level = level
        self.table = table
        self.ech = span_of_multiples(table, ideal.field, ideal.generators)
        # slice_dims[d] = dim I*_d, the number of pivots in degree d
        self.slice_dims = [0] * level
        for piv in self.ech.pivots():
            self.slice_dims[table.degree_of_col(piv)] += 1

    def span_dim(self, d):
        """dim (I+M^{d+1})/M^{d+1} inside R/M^{d+1}, for d < level."""
        return sum(self.slice_dims[: d + 1])

    def h1(self, t):
        """H1(t) = dim R/(I+M^{t+1}), for t < level."""
        return self.table.offset[t + 1] - self.span_dim(t)

    def h1_values(self):
        return [self.h1(t) for t in range(self.level)]

    def contains(self, poly):
        """Membership of poly in (I+M^level)/M^level.  The polynomial must
        live in the ideal's ambient over its field, by `check_same_ring`,
        and be known to the span's level, by `check_precision`."""
        check_same_ring("polynomial and span", (poly, self.ideal), level=False)
        return self.ech.contains(self.table.vector_of(poly))


# ---------------------------------------------------------------------------
# Hilbert-Samuel data.


class HilbertData(namedtuple(
        "HilbertData", "values graded e0 e1 stab_index status level")):
    """H1 values, graded differences, and the stabilized (e0, e1) when found.

    e1 follows the convention H1(t) = e0*(t+1) - e1 on the stabilized tail
    (the one that gives plane curves e1 = e0(e0-1)/2).  status: "ok",
    "not_stabilized", "dim_ge_2" or "dim_0".
    """

    __slots__ = ()

    def curve(self):
        """These data, if they are a curve's (status "ok"): the one gate
        that decides whether an ideal cuts out a curve at its level.  A
        zero-dimensional ideal is a ValueError, which no level mends; any
        other status is a LevelError that asks for a higher level."""
        if self.status == "dim_0":
            raise ValueError("the ideal is zero-dimensional: it cuts out no curve")
        if self.status != "ok":
            raise LevelError(f"Hilbert data {self.status} at level {self.level}; raise the level")
        return self


def analyze_h1(values):
    """Read (e0, e1) off a list of H1 values H1(0..n-1).

    Stabilization requires the difference sequence constant over the last
    two steps before the level boundary; a strictly increasing difference
    tail is flagged as dimension >= 2 instead.  A last graded value of 0 is
    "dim_0", with no (e0, e1): gr is generated in degree 1, so a zero
    graded piece stays zero and the quotient is finite dimensional.
    """
    n = len(values)
    if n < 3:
        raise LevelError(f"need level >= 3 to analyze, got {n}")
    graded = [values[0]] + [values[t] - values[t - 1] for t in range(1, n)]
    if graded[-1] == 0:
        return HilbertData(values, graded, None, None, None, "dim_0", n)
    if graded[-1] == graded[-2]:
        e0 = graded[-1]
        t0 = n - 1
        while t0 > 0 and graded[t0 - 1] == e0:
            t0 -= 1
        e1 = e0 * n - values[n - 1]
        return HilbertData(values, graded, e0, e1, t0, "ok", n)
    strict = graded[-1] > graded[-2] > graded[-3]
    status = "dim_ge_2" if strict else "not_stabilized"
    return HilbertData(values, graded, None, None, None, status, n)


def hilbert_data(ideal, level):
    """Hilbert-Samuel data of R/(I+M^level) read from spans at `level`."""
    return analyze_h1(DegreeSpans(ideal, level).h1_values())


# ---------------------------------------------------------------------------
# Initial ideal, Hironaka v*, minimal generator count.


class InitialIdealData(namedtuple(
        "InitialIdealData", "slice_dims vstar nu min_generators level")):
    """Graded slices of the initial ideal I* with its minimal generators.

    vstar is the multiset (sorted list) of degrees of a minimal homogeneous
    basis of I* as visible below the level; nu is its size.  Minimal
    generators are the slice vectors not in S_1 * I*_{d-1}, picked by
    echelon pivot in deg-lex order.

    nu here counts minimal generators of the initial ideal; a minimal
    standard basis can be redundant as a generating set, so this can
    strictly exceed min_generators(I) (e.g. (x1^2 - x2^3, x1*x2^2) needs
    the extra initial form x2^5 but no third generator).  slice_dims holds
    dim I*_d for each degree d < level; min_generators maps a degree to its
    homogeneous TruncatedPolys.
    """

    __slots__ = ()


def initial_ideal(ideal, level):
    """Initial ideal data of I at the given level, read off the span of
    (I+M^level)/M^level that it builds.

    Uses (I+M^{d+1})*_d = I*_d for d < level: the degree-d graded piece of
    the span filtration is exactly the degree-d piece of the initial ideal.
    A slice vector is a minimal generator when it lies outside the ideal
    generated by the minimal generators found before it, whose degree-d
    part is S_1 * I*_{d-1} plus the earlier fresh vectors of degree d; each
    degree's minimal generators are the first such canonical rows of its
    slice, in pivot order.
    """
    spans = DegreeSpans(ideal, level)
    table = spans.table
    dims = spans.slice_dims[:level]
    mingens = {}
    vstar = []
    gen_ech = Echelon(ideal.field)  # the ideal of the minimal generators so far
    for d, dim in enumerate(dims):
        # the generator ideal lies inside I*: once its degree-d part has the
        # slice's dimension, no later slice vector of degree d is fresh, and
        # the slice's rows are not read
        pivots = gen_ech.pivots()
        have = sum(col in pivots for col in range(table.offset[d], table.offset[d + 1]))
        if have == dim:
            continue
        fresh = mingens[d] = []
        for row in degree_block(table, spans.ech, d).basis():
            if not gen_ech.contains(row):
                fresh.append(table.poly_of(row, ideal.field))
                _add_multiples(table, gen_ech, row)
                have += 1
                if have == dim:
                    break
        vstar.extend([d] * len(fresh))
    return InitialIdealData(dims, sorted(vstar), len(vstar), mingens, level)


def min_generators(ideal, level):
    """nu at the level: dim (I+M^n)/(M*I+M^n), the number of generators that
    raise the rank of the span of M*I+M^n when they go in after it."""
    ideal = ideal.truncated(level)
    table = monomial_table(ideal.n_vars, level)
    shifted = span_of_multiples(table, ideal.field, ideal.generators, lo=1)
    return sum(shifted.add(table.vector_of(g)) for g in ideal.generators)


# ---------------------------------------------------------------------------
# Standard basis verification.


class StandardBasisReport(namedtuple(
        "StandardBasisReport", "ok failing_degree missing_initial_form vstar")):
    """Standard-basis verdict: on failure, the least failing degree and one
    missing initial form (a TruncatedPoly) as witness, else both None."""

    __slots__ = ()

    def __bool__(self):
        return self.ok


def standard_basis_check(ideal, level):
    """Check that the given generators are a standard basis up to the level.

    Criterion: the homogeneous ideal generated by the initial forms of the
    given generators must match the graded slices of the initial ideal in
    every degree < level.  On failure, reports the least degree d where the
    candidate ideal misses part of I*_d and, as witness, the first minimal
    generator of I* in degree d outside the candidate's degree-d block.
    Below d the candidate holds every slice of I*, so the first canonical
    row of I*_d outside that block is such a generator: it is the witness.
    """
    ideal = ideal.truncated(level)
    data = initial_ideal(ideal, level)
    candidate = IdealPresentation(
        [initial_form(g) for g in ideal.generators],
        ideal.n_vars, ideal.field, level,
    )
    cand = DegreeSpans(candidate, level)
    for d in range(level):
        if cand.slice_dims[d] == data.slice_dims[d]:
            continue
        have = degree_block(cand.table, cand.ech, d)
        for g in data.min_generators[d]:
            if not have.contains(cand.table.vector_of(g)):
                return StandardBasisReport(False, d, g, data.vstar)
        raise AssertionError("slice dims differ but no missing form found")
    return StandardBasisReport(True, None, None, data.vstar)


# ---------------------------------------------------------------------------
# Intersection number.


INTERSECTION_DIVERGENT = "divergent"


def intersection_number(ideal, other, n_max):
    """dim R/(I+X), or the divergence sentinel when it keeps growing.

    Reads dim R/(I+X+M^t) for t <= n_max off one DegreeSpans; the first
    value equal to the one before it pins the limit (the quotient
    surjections become isomorphisms from there on), and with no repeat
    below n_max the sentinel comes back.
    """
    check_same_ring("intersected ideals", (ideal, other), level=False)
    combined = IdealPresentation(
        ideal.truncated(n_max).generators + other.truncated(n_max).generators,
        ideal.n_vars, ideal.field, n_max,
    )
    h1 = DegreeSpans(combined, n_max).h1_values()
    return next((b for a, b in zip(h1, h1[1:]) if a == b), INTERSECTION_DIVERGENT)
