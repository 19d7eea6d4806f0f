"""Membership and structure tests for the truncation sets T_n, the
superficial/Cohen-Macaulay criterion, admissibility of Hilbert polynomials,
Hilbert strata, Grassmannian cells, and the tiny finite-field enumerator.

An ideal "at level n" always means the given generators together with the
implicit block M^n, so every quotient in sight is finite dimensional and
every test is a finite rank computation.

A level-n ideal J belongs to T_n (for multiplicity e0) when some linear
form L satisfies
  (1) dim R/(J+(L)) <= e0, and
  (2) multiplication by L is an isomorphism of the e0-dimensional graded
      slices m^t/m^{t+1} -> m^{t+1}/m^{t+2} of R/J for t = e0-1 .. n-2.
The nonconstructive "n large enough" bounds of the theory are replaced by
an explicit level argument; every verdict records the level it was checked at.
"""

import itertools
from collections import namedtuple
from math import comb

from .ringcore import (
    Echelon,
    FieldTooSmallError,
    LevelError,
    TruncatedPoly,
    count_monomials_upto,
    degree_block,
    monomial_table,
    monomials_of_degree,
    multiple_vector,
    poly_str,
    span_of_multiples,
)
from .idealcalc import DegreeSpans, IdealPresentation, hilbert_data, initial_ideal


class BudgetExceededError(RuntimeError):
    """An enumeration or search exceeded its configured budget."""


class SuperficialCertificate(namedtuple(
        "SuperficialCertificate", "L length_with_L iso_range e0 level")):
    """Witness that L is superficial for the tested truncation.

    length_with_L is dim R/(J+(L)) at the checked level; iso_range lists the
    degrees t where multiplication by L was verified an isomorphism of
    e0-dimensional slices.
    """

    __slots__ = ()

    def to_json(self):
        return {
            "L": poly_str(self.L),
            "length_with_L": self.length_with_L,
            "iso_range": list(self.iso_range),
            "e0": self.e0,
            "level": self.level,
        }


class TnFailure(namedtuple("TnFailure", "condition degree detail")):
    """First failing T_n condition (1 or 2), as a value rather than an
    exception; degree is None when no single degree is to blame."""

    __slots__ = ()

    def __bool__(self):
        return False

    def to_json(self):
        return {"member": False, "condition": self.condition,
                "degree": self.degree, "detail": self.detail}


def _check_e0(e0):
    """A curve has multiplicity e0 >= 1."""
    if e0 < 1:
        raise ValueError("e0 must be >= 1")


# ---------------------------------------------------------------------------
# Candidate linear forms.


def candidate_forms(n_vars, e0, field, level):
    """The s = e0(N-1)+1 linear forms L_q = sum_i q^(i-1) x_i at distinct q.

    Points on the moment curve: any N of the forms are independent (their
    coefficient matrix is Vandermonde), hence so is any subset of N-1.  A
    prime field must have at least s distinct scalars.
    """
    s = e0 * (n_vars - 1) + 1
    if field.char != 0 and field.char < s:
        raise FieldTooSmallError(
            f"need {s} distinct scalars, field has {field.char}"
        )
    forms = []
    for j in range(s):
        q = field.of(j)
        terms = {}
        power = field.one()
        for i in range(n_vars):
            expo = tuple(1 if k == i else 0 for k in range(n_vars))
            if power != field.zero():
                terms[expo] = power
            power = field.mul(power, q)
        forms.append(TruncatedPoly(n_vars, field, level, terms))
    return forms


def all_projective_linear_forms(n_vars, field, level):
    """Every nonzero linear form up to scalar, first nonzero coefficient 1.

    Over a small F_q the moment-curve candidates can miss the superficial
    directions, so the enumerator scans all q-rational forms instead.
    """
    if field.char == 0:
        raise ValueError("only meaningful over a finite field")
    scalars = [field.of(i) for i in range(field.char)]
    forms = []
    for lead in range(n_vars):
        for tail in itertools.product(scalars, repeat=n_vars - lead - 1):
            coeffs = [field.zero()] * lead + [field.one()] + list(tail)
            terms = {}
            for i, c in enumerate(coeffs):
                if c != field.zero():
                    expo = tuple(1 if k == i else 0 for k in range(n_vars))
                    terms[expo] = c
            forms.append(TruncatedPoly(n_vars, field, level, terms))
    return forms


# ---------------------------------------------------------------------------
# Superficial / Cohen-Macaulay test and T_n membership.


def _length_with_form(spans, L):
    """dim R/(J + (L) + M^level) for the ideal J of `spans`: H1 at the top
    degree less the rank the multiples x^a*L add modulo the span of J."""
    J, level, table = spans.ideal, spans.level, spans.table
    # L is checked like any generator: zero after truncation or a unit is rejected
    L = IdealPresentation([L.truncate_to(level)], J.n_vars, J.field, level).generators[0]
    image = Echelon(J.field)
    for a in table.monos[:table.offset[level - L.order()]]:
        image.add(spans.ech.reduce(multiple_vector(table, L, a)))
    return spans.h1(level - 1) - image.rank


def cm_superficial_test(ideal, L, e0):
    """Finite-level CM + superficial criterion: dim R/(I+M^{e0+1}+(L)) <= e0.

    For a one-dimensional local ring of multiplicity e0 this length is always
    >= e0, with equality exactly when the ring is Cohen-Macaulay and L is a
    degree-one superficial element.
    """
    _check_e0(e0)
    level = e0 + 1
    if ideal.level < level:
        raise LevelError(f"ideal known to level {ideal.level} < {level}")
    length = _length_with_form(DegreeSpans(ideal.truncated(level), level), L)
    cert = SuperficialCertificate(L.truncate_to(level), length, [], e0, level)
    return length <= e0, cert


def _slice_mult_rank(spans, L, t):
    """Rank of multiplication by L1 (the linear part of L) from degree t to t+1,
    computed modulo the initial-ideal slices of the span.  Only the standard
    monomials of degree t are mapped: they span the domain modulo J*_t, and
    L1*J*_t lies in J*_{t+1}."""
    table = spans.table
    field = spans.ideal.field
    target = degree_block(table, field, spans.ech, t + 1)
    L1 = L.homogeneous_part(1)
    pivots = spans.ech.pivots()
    image = Echelon(field)
    for c in range(table.offset[t], table.offset[t + 1]):
        if c not in pivots:
            image.add(target.reduce(multiple_vector(table, L1, table.monos[c])))
    return image.rank


def tn_membership(ideal, n, e0, forms=None, spans=None):
    """Search for a linear form certifying J + M^n in T_n.

    Scans the candidate forms in order; the first one that passes the length
    condition (1) is then checked for the slice-isomorphism condition (2),
    first success wins.  Failure is returned as a value carrying the first
    failing condition and degree.  Both conditions are ranks against one
    span of J + M^n: `spans`, the DegreeSpans of ideal.truncated(n) at level
    n, when the caller already has it, otherwise built here.
    """
    _check_e0(e0)
    if n < e0 + 2:
        raise LevelError(f"T_n needs n >= e0+2 = {e0 + 2}, got {n}")
    if ideal.level < n:
        raise LevelError(f"ideal known to level {ideal.level} < n = {n}")
    spans = spans or DegreeSpans(ideal.truncated(n), n)
    J = spans.ideal
    h1 = spans.h1_values()
    # slice dimensions are independent of L: check them once up front
    for t in range(e0 - 1, n):
        h0 = h1[t] - (h1[t - 1] if t > 0 else 0)
        if h0 != e0:
            return TnFailure(2, t, f"slice dimension {h0} != e0 = {e0} at degree {t}")
    if forms is None:
        forms = candidate_forms(J.n_vars, e0, J.field, n)
    best_length = None
    for L in forms:
        length = _length_with_form(spans, L)
        if best_length is None or length < best_length:
            best_length = length
        if length > e0:
            continue
        iso_range = []
        bad = None
        for t in range(e0 - 1, n - 1):
            if _slice_mult_rank(spans, L, t) != e0:
                bad = t
                break
            iso_range.append(t)
        if bad is None:
            return SuperficialCertificate(L, length, iso_range, e0, n)
        return TnFailure(2, bad, f"product by {poly_str(L)} not an isomorphism at degree {bad}")
    return TnFailure(
        1, None,
        f"no candidate form reaches length <= {e0} (best was {best_length})",
    )


# ---------------------------------------------------------------------------
# Shape of the initial ideal and the truncated tangent cone generator set.


class ShapeReport(namedtuple("ShapeReport", "ok vstar forbidden_degrees slice_identity_ok")):
    """Shape verdict on J*; forbidden_degrees are the minimal generator
    degrees inside {e0+1..n-1}."""

    __slots__ = ()

    def __bool__(self):
        return self.ok


def shape_check(ideal, n, e0):
    """Minimal generator degrees of J* must avoid {e0+1, ..., n-1}.

    Additionally verifies the slice identity J*_t = S_1 J*_{t-1} on the same
    window by a direct span comparison (independent of the minimal-generator
    bookkeeping; for members of T_n a mismatch would be a bug, not an input
    condition).
    """
    _check_e0(e0)
    J = ideal.truncated(n)
    data = initial_ideal(J, n)
    forbidden = sorted({d for d in data.vstar if e0 + 1 <= d <= n - 1})
    table = monomial_table(J.n_vars, n)
    identity_ok = True
    for t in range(e0 + 1, n):
        s1span = span_of_multiples(table, J.field, data.slices[t - 1].basis, lo=1, hi=1)
        if s1span.rank != data.slices[t].dimension:
            identity_ok = False
            break
    return ShapeReport(not forbidden, data.vstar, forbidden, identity_ok)


# `ideal` holds the homogeneous generators of degree <= e0; `hilbert` is
# the HilbertData of the graded ring they cut out.
JtildeResult = namedtuple("JtildeResult", "ideal verified slice_match multiplicity_ok hilbert")


def jtilde(ideal, n, e0):
    """Homogeneous generators of degree <= e0 of the initial ideal J*.

    Post-verifies that they regenerate every slice of J* below the level
    (i.e. Jtilde + M^n = J*) and that the graded ring they cut out is
    one-dimensional of multiplicity e0 as far as the level shows.  A failed
    verification means the level sits below the theoretical cutoff.
    """
    J = ideal.truncated(n)
    data = initial_ideal(J, n)
    gens = []
    for d in sorted(data.min_generators):
        if d <= e0:
            gens.extend(data.min_generators[d])
    if not gens:
        raise ValueError("no minimal generators of degree <= e0 below the level")
    tilde = IdealPresentation(gens, J.n_vars, J.field, n)
    tilde_data = initial_ideal(tilde, n)
    slice_match = tilde_data.slice_dims() == data.slice_dims()
    hd = hilbert_data(tilde, n)
    mult_ok = hd.status == "ok" and hd.e0 == e0
    return JtildeResult(tilde, slice_match and mult_ok, slice_match, mult_ok, hd)


# ---------------------------------------------------------------------------
# Admissible Hilbert polynomials (exact integer arithmetic throughout).


AdmissibleRange = namedtuple("AdmissibleRange", "b e0 r rho0 rho1")


def admissible_range(b, e0):
    """The interval [rho0, rho1] of admissible e1 for embedding dimension b.

    rho0 = (r+1)e0 - C(r+b, r) with r pinned by C(b+r-1, r) <= e0 < C(b+r, r+1);
    rho1 = e0(e0-1)/2 - (b-1)(b-2)/2.  The degenerate case is b = e0 = 1,
    where only e1 = 0 occurs.
    """
    if b < 1 or e0 < 1:
        raise ValueError("need b >= 1 and e0 >= 1")
    if b > e0:
        raise ValueError(f"no curve singularity with b = {b} > e0 = {e0}")
    if b == 1:
        if e0 != 1:
            raise ValueError("embedding dimension 1 forces e0 = 1")
        return AdmissibleRange(1, 1, 0, 0, 0)
    r = 0
    while not (comb(b + r - 1, r) <= e0 < comb(b + r, r + 1)):
        r += 1
        if r > e0 + 1:
            raise AssertionError("binomial sandwich failed to pin r")
    rho0 = (r + 1) * e0 - comb(r + b, r)
    rho1 = e0 * (e0 - 1) // 2 - (b - 1) * (b - 2) // 2
    return AdmissibleRange(b, e0, r, rho0, rho1)


def admissible(b, e0, e1):
    """Whether some curve singularity of embedding dimension b has (e0, e1)."""
    if b < 1 or e0 < 1:
        raise ValueError("need b >= 1 and e0 >= 1")
    if b > e0:
        raise ValueError(f"no curve singularity with b = {b} > e0 = {e0}")
    if b == 1:
        return e0 == 1 and e1 == 0
    rng = admissible_range(b, e0)
    return rng.rho0 <= e1 <= rng.rho1


def admissible_polys(n_vars, e0):
    """All (b, e1) admissible within ambient dimension n_vars."""
    out = []
    for b in range(1, min(n_vars, e0) + 1):
        if b == 1 and e0 != 1:
            continue
        rng = admissible_range(b, e0)
        out.extend((b, e1) for e1 in range(rng.rho0, rng.rho1 + 1))
    return out


def admissible_for_some_b(e0, e1, b_max=None):
    b_max = e0 if b_max is None else min(b_max, e0)
    return any(admissible(b, e0, e1) for b in range(1, b_max + 1))


# ---------------------------------------------------------------------------
# Hilbert strata.


def hilbert_stratum_check(ideal, F, r, level=None):
    """Membership of the curve cut by `ideal` in the stratum of (F, r).

    F is a table of H1 values (list or dict t -> F(t)); it must be admissible
    for the curve's own Hilbert polynomial, i.e. agree with e0(t+1)-e1 from
    t = e0-1 on.  Membership means H1(t) = F(t) on the window t = r-1 .. e0;
    r = e0+1 is the whole moduli space, so the check is vacuously true.
    """
    Ftab = dict(enumerate(F)) if isinstance(F, (list, tuple)) else dict(F)
    level = level or ideal.level
    hd = hilbert_data(ideal.truncated(level), level)
    if hd.status == "dim_0":
        raise ValueError("the ideal is zero-dimensional: it cuts out no curve")
    if hd.status != "ok":
        raise LevelError(f"Hilbert data {hd.status} at level {level}; raise the level")
    e0, e1 = hd.e0, hd.e1
    for t in range(e0 - 1, level):
        if t in Ftab and Ftab[t] != e0 * (t + 1) - e1:
            raise ValueError(
                f"F not admissible for p: F({t}) = {Ftab[t]} != {e0 * (t + 1) - e1}"
            )
    if r >= e0 + 1:
        return True, None
    for t in range(max(0, r - 1), e0 + 1):
        if t not in Ftab:
            raise ValueError(f"F must be given at t = {t} for the window of r = {r}")
        if t >= len(hd.values):
            raise LevelError(f"level {level} too low to see t = {t}")
        if hd.values[t] != Ftab[t]:
            return False, t
    return True, None


# ---------------------------------------------------------------------------
# Grassmannian cells.


class CellIndex(namedtuple("CellIndex", "i_indices j_indices q")):
    """Indices of a cell D_n(i., j., q) of the level-n Grassmannian.

    Monomials are numbered 1-based in ascending degree-lex order (the
    constant monomial is 1).  i_indices picks p(e0-1) monomials of degree
    < e0, j_indices picks e0 monomials of degree exactly e0, and q is a
    0-based index into the candidate linear forms.
    """

    __slots__ = ()


def cell_membership(ideal, n, cell, e0, forms=None):
    """Whether the designated spanning set of D_n projects to a basis of R_n/J.

    The cell spans the i-monomials together with L_q^r * (j-monomials) for
    r = 0 .. n-e0-1; membership is a rank check against the span of J.
    """
    J = ideal.truncated(n)
    n_vars, field = J.n_vars, J.field
    b_e0 = count_monomials_upto(n_vars, e0 - 1)
    b_e0p1 = count_monomials_upto(n_vars, e0)
    i_set = list(cell.i_indices)
    j_set = list(cell.j_indices)
    if len(set(i_set)) != len(i_set) or len(set(j_set)) != len(j_set):
        raise ValueError("repeated indices in cell")
    if any(not 1 <= i <= b_e0 for i in i_set):
        raise ValueError(f"i-indices must lie in 1..{b_e0}")
    if any(not b_e0 + 1 <= j <= b_e0p1 for j in j_set):
        raise ValueError(f"j-indices must lie in {b_e0 + 1}..{b_e0p1}")
    if len(j_set) != e0:
        raise ValueError(f"need exactly e0 = {e0} j-indices")
    if forms is None:
        forms = candidate_forms(n_vars, e0, field, n)
    if not 0 <= cell.q < len(forms):
        raise ValueError(f"q must index one of the {len(forms)} candidate forms")
    L = forms[cell.q]

    table = monomial_table(n_vars, n)
    expected_colength = len(i_set) + e0 * (n - e0)
    spans = DegreeSpans(J, n)
    if table.offset[n] - spans.ech.rank != expected_colength:
        return False
    ech = spans.ech.copy()
    vectors = [{table.index[table.monos[i - 1]]: field.one()} for i in i_set]
    power = TruncatedPoly.constant(1, n_vars, field, n)
    for r in range(n - e0):
        vectors.extend(multiple_vector(table, power, table.monos[j - 1]) for j in j_set)
        power = power * L
    for v in vectors:
        if not ech.add(v):
            return False
    return True


# ---------------------------------------------------------------------------
# Exhaustive enumerator over tiny finite fields.


# `ideals` holds canonical IdealPresentations (echelon span rows).
EnumerationResult = namedtuple("EnumerationResult", "count ideals n e0 e1 q")


def _span_key(ech):
    """Frozen canonical rows of an echelon span (the dedup key)."""
    return tuple(tuple(sorted(ech.rows[piv].items())) for piv in sorted(ech.rows))


def enumerate_xi(n_vars, e0, n, field, e1=None, budget=2_000_000):
    """Exhaustively list the level-n ideals over F_q passing all T_n checks.

    Practical domain: the plane (n_vars = 2), where the window dimensions
    force a principal ideal plus the truncation block (the slices admit a
    single new initial form, in degree e0, and the slice identity pins
    everything above it), so scanning inhomogeneous f of order e0 is
    exhaustive.  The scan fixes the initial form projectively and restricts
    each tail degree e0+k to a transversal of S_k*f_{e0}: multiplying by a
    unit 1+u_1+u_2+... adjusts the degree-(e0+k) part by S_k*f_{e0} without
    touching lower degrees, so every unit-orbit still meets the scan.  Each
    ideal is emitted once, keyed by the canonical reduced echelon form of
    its span, and the T_n verdict scans every q-rational linear form.
    """
    _check_e0(e0)
    if field.char == 0:
        raise ValueError("enumeration needs a finite field")
    q = field.char
    plane_e1 = 0 if e0 == 1 else e0 * (e0 - 1) // 2
    if e1 is None:
        e1 = plane_e1
    if not admissible_for_some_b(e0, e1, b_max=n_vars):
        return EnumerationResult(0, [], n, e0, e1, q)
    if n_vars != 2:
        raise BudgetExceededError("exhaustive search implemented for the plane only")
    if e1 != plane_e1:
        # admissible for some b <= 2 but not realizable in the plane
        return EnumerationResult(0, [], n, e0, e1, q)
    if n < e0 + 2:
        raise LevelError(f"need n >= e0+2 = {e0 + 2}")

    table = monomial_table(n_vars, n)
    lead_monos = monomials_of_degree(n_vars, e0)
    n_lead = len(lead_monos)
    n_classes = (q ** n_lead - 1) // (q - 1) * q ** (e0 * (n - 1 - e0))
    if n_classes > budget:
        raise BudgetExceededError(f"{n_classes} candidates exceed the budget of {budget}")
    scalars = list(range(q))
    forms = all_projective_linear_forms(n_vars, field, n)
    p_values = [e0 * (t + 1) - e1 for t in range(n)]

    def lead_reps():
        # projective representatives: first nonzero coefficient equal to 1
        for first in range(n_lead):
            for rest in itertools.product(scalars, repeat=n_lead - first - 1):
                terms = {lead_monos[first]: field.one()}
                for m, c in zip(lead_monos[first + 1:], rest):
                    if c:
                        terms[m] = field.of(c)
                yield TruncatedPoly(n_vars, field, n, terms)

    seen = {}
    for lead in lead_reps():
        # per tail degree, monomials complementary to the pivots of S_k*lead
        free_monos = []
        for k in range(1, n - e0):
            pivots = span_of_multiples(table, field, [lead], lo=k, hi=k).pivots()
            free_monos.append(
                [m for m in monomials_of_degree(n_vars, e0 + k)
                 if table.index[m] not in pivots]
            )
        flat = [m for block in free_monos for m in block]
        for coeffs in itertools.product(scalars, repeat=len(flat)):
            terms = dict(lead.terms)
            for m, c in zip(flat, coeffs):
                if c:
                    terms[m] = field.of(c)
            f = TruncatedPoly(n_vars, field, n, terms)
            spans = DegreeSpans(IdealPresentation([f], n_vars, field, n), n)
            seen.setdefault(_span_key(spans.ech), spans)

    members = []
    for key in sorted(seen):
        spans = seen[key]
        if spans.h1_values() != p_values:
            continue
        if isinstance(tn_membership(spans.ideal, n, e0, forms=forms, spans=spans), TnFailure):
            continue
        members.append(IdealPresentation(
            [table.poly_of(row, field) for row in spans.ech.basis()], n_vars, field, n))
    return EnumerationResult(len(members), members, n, e0, e1, q)
