"""First-order deformation analysis over the dual numbers k[eps]/(eps^2):
the colon-ideal criterion for being a family, an independent flatness
oracle by dimension count, the Cohen-Macaulay colon identities, and the
determinantal family constructor.

A first-order deformation J = (f_1 + eps g_1, ..., f_s + eps g_s) of the
curve cut by I = (f_1, ..., f_s) is a family exactly when every g_i lies
in the colon ideal (I + M^{e0+1} : I + M^{e0+1-v_i}) with v_i = order(f_i);
the independent check is that the dual-number quotient has twice the
k-dimension of the special fiber.  The two must agree whenever the base
generators are a standard basis, and the test suite leans on that.
"""

from collections import namedtuple

from .ringcore import (
    Echelon,
    LevelError,
    TruncatedPoly,
    kernel_basis,
    monomial_table,
    monomials_of_degree,
    multiples,
    poly_str,
)
from .idealcalc import (
    DegreeSpans,
    IdealPresentation,
    hilbert_data,
    standard_basis_check,
)


class DualPoly:
    """A pair f + eps*g of truncated polynomials with eps^2 = 0."""

    __slots__ = ("re", "eps")

    def __init__(self, re, eps=None):
        self.re = re
        self.eps = eps if eps is not None else TruncatedPoly.zero(re.n_vars, re.field, re.level)
        if (self.re.n_vars, self.re.field, self.re.level) != (
            self.eps.n_vars, self.eps.field, self.eps.level
        ):
            raise LevelError("dual components disagree on ambient, field, or level")

    def __add__(self, other):
        return DualPoly(self.re + other.re, self.eps + other.eps)

    def __neg__(self):
        return DualPoly(-self.re, -self.eps)

    def __mul__(self, other):
        return DualPoly(self.re * other.re, self.re * other.eps + other.re * self.eps)

    def is_zero(self):
        return self.re.is_zero() and self.eps.is_zero()

    def __eq__(self, other):
        return isinstance(other, DualPoly) and self.re == other.re and self.eps == other.eps

    def __repr__(self):
        return f"({poly_str(self.re)}) + eps*({poly_str(self.eps)})"


class ColonSpace(namedtuple("ColonSpace", "level basis dimension echelon table")):
    """Echelon basis of { h mod M^a : h * K is contained in I + M^a }.

    basis holds the reduced echelon rows as TruncatedPolys; echelon is their
    span over the monomial table `table`, for membership tests.
    """

    __slots__ = ()

    def contains(self, poly):
        return self.echelon.contains(self.table.vector_of(poly))


def check_colon_level(level):
    """A colon space is taken at level 2 or more."""
    if level < 2:
        raise LevelError("colon level must be >= 2")


def colon(ideal, other, level):
    """The colon space (I + M^a : K + M^a) inside R/M^a, a = level.

    Solved as a kernel over the unknown coefficients of h: for every
    generator k_j of K the product h*k_j must reduce to zero against the
    span of I+M^a, so the image of x^a is the tuple of residuals of x^a*k_j.
    That is the whole condition, because I+M^a is an ideal and h*M^a lies in
    M^a.  The result depends only on the two ideals, not on their
    presentations.  Both are taken at `level` by `IdealPresentation.truncated`,
    so neither may be given below it.
    """
    if (ideal.n_vars, ideal.field) != (other.n_vars, other.field):
        raise LevelError("colon needs a common ambient and field")
    check_colon_level(level)
    n_vars, field = ideal.n_vars, ideal.field
    table = monomial_table(n_vars, level)
    target = DegreeSpans(ideal, level)
    kgens = other.truncated(level)
    n_mon = len(table.monos)
    # per monomial, its multiples of each k_j (none when K has no generators)
    per_k = [multiples(table, table.vector_of(k), range(n_mon)) for k in kgens.generators]
    images = (
        {j * n_mon + c: v
         for j, vec in enumerate(vecs)
         for c, v in target.ech.reduce(vec).items()}
        for _, *vecs in zip(table.monos, *per_k)
    )
    kernel = kernel_basis(Echelon(field), images, len(kgens.generators) * n_mon)
    member_ech = Echelon(field)
    for row in kernel:
        member_ech.add(row)
    basis = [table.poly_of(row, field) for row in kernel]
    return ColonSpace(level, basis, len(basis), member_ech, table)


def ideal_plus_power(ideal, power, level):
    """Presentation of I + M^power at the given level."""
    gens = list(ideal.truncated(level).generators)
    if power < level:
        for m in monomials_of_degree(ideal.n_vars, power):
            gens.append(TruncatedPoly(ideal.n_vars, ideal.field, level, {m: 1}))
    return IdealPresentation(gens, ideal.n_vars, ideal.field, level)


# ---------------------------------------------------------------------------
# First-order deformations.


class FirstOrderDeformation:
    """Base generators (a standard basis), their orders, and perturbations:
    one TruncatedPoly at the base level per generator, or None for zero.

    The base must pass the standard-basis check at its level: the colon
    criterion is only a theorem under that hypothesis, and the equivalence
    with the direct flatness count is only asserted then.
    """

    def __init__(self, base, perturbations, e0):
        if len(perturbations) != len(base.generators):
            raise ValueError("one perturbation per base generator")
        self.base = base
        self.perturbations = []
        for p in perturbations:
            if p is None:  # the zero perturbation
                p = TruncatedPoly.zero(base.n_vars, base.field, base.level)
            elif not isinstance(p, TruncatedPoly):
                raise TypeError(
                    f"a perturbation is a TruncatedPoly or None, got {type(p).__name__}")
            if (p.n_vars, p.field, p.level) != (base.n_vars, base.field, base.level):
                raise LevelError("perturbations must live at the base level")
            self.perturbations.append(p)
        self.e0 = e0
        self.orders = [g.order() for g in base.generators]
        if any(v > e0 for v in self.orders):
            raise ValueError(
                f"generator orders {self.orders} exceed e0 = {e0}: not a curve standard basis"
            )
        if base.level < e0 + 2:
            raise LevelError(f"base level {base.level} < e0+2 = {e0 + 2}")
        standard = standard_basis_check(base, base.level)
        if not standard.ok:
            raise ValueError(
                f"base is not a standard basis up to level {base.level}"
                f" (fails at degree {standard.failing_degree})"
            )


def is_family_first_order(deformation):
    """Colon-criterion verdict: every g_i in (I+M^{e0+1} : I+M^{e0+1-v_i}).

    Returns the overall verdict and the per-generator membership list.
    """
    d = deformation
    e0 = d.e0
    level = e0 + 1
    colons = {}  # one colon per distinct generator order
    verdicts = []
    for g, v in zip(d.perturbations, d.orders):
        if v not in colons:
            colons[v] = colon(d.base, ideal_plus_power(d.base, e0 + 1 - v, level), level)
        verdicts.append(colons[v].contains(g))
    return all(verdicts), verdicts


def flatness_direct(deformation, n):
    """Free-module flatness count for the truncation at level n.

    The level-n dual-number quotient is spanned (over k) by the monomial
    multiples of the f_i + eps g_i together with their eps-scalings; the
    truncation is flat over k[eps] iff its k-dimension is twice that of the
    special fiber R/(I+M^n).
    """
    if n < 3:
        raise LevelError("flatness check needs n >= 3")
    d = deformation
    base = d.base.truncated(n)
    n_vars, field = d.base.n_vars, d.base.field
    table = monomial_table(n_vars, n)
    n_mon = len(table.monos)
    ech = Echelon(field)
    cols = range(n_mon)
    for f, g in zip(d.base.generators, d.perturbations):
        for mf, mg in zip(multiples(table, table.vector_of(f), cols),
                          multiples(table, table.vector_of(g), cols)):
            vec = dict(mf)
            vec.update((n_mon + c, v) for c, v in mg.items())
            if vec:
                ech.add(vec)
            if mf:
                ech.add({n_mon + c: v for c, v in mf.items()})
    total_dim = 2 * n_mon - ech.rank
    fiber_dim = n_mon - DegreeSpans(base, n).ech.rank
    return total_dim == 2 * fiber_dim, {"dual_dim": total_dim, "fiber_dim": fiber_dim}


def cm_colon_identity(ideal, e0, vlist):
    """Check (I+M^{e0+1} : I+M^{e0+1-v}) = span of I+M^v, per order v.

    This is the graded Cohen-Macaulay identity (m^{e0+1} : m^{e0+1-v}) = m^v
    pulled back to R; the caller asserts CM-ness of the associated graded
    ring, the routine just decides the span equality.  Every v must lie in
    1..e0: outside it one side is I + M^w with w <= 0, which is all of R.
    Both sides are spans in R/M^{e0+1}, so the ideal must be given at level
    e0+1 or above.
    """
    for v in vlist:
        if not 1 <= v <= e0:
            raise ValueError(f"order v must be in 1..e0 = 1..{e0}, got v = {v}")
    level = e0 + 1
    ideal = ideal.truncated(level)  # the gate checks the level even for an empty vlist
    out = {}
    for v in vlist:
        cs = colon(ideal, ideal_plus_power(ideal, e0 + 1 - v, level), level)
        expected = DegreeSpans(ideal_plus_power(ideal, v, level), level)
        # equal spans over one monomial table have equal canonical rows
        out[v] = cs.echelon.basis() == expected.ech.basis()
    return out


# ---------------------------------------------------------------------------
# Determinantal families.


def _det(rows):
    if len(rows) == 1:
        return rows[0][0]
    out = None
    for j in range(len(rows)):
        sub = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _det(sub)
        if j % 2 == 1:
            term = -term
        out = term if out is None else out + term
    return out


def determinantal_minors(matrix):
    """The a maximal minors of an a x (a-1) matrix, by cofactor expansion.

    Entries may be TruncatedPoly or DualPoly (the dual product rule rides
    along); minor i omits row i.
    """
    a = len(matrix)
    if a < 2 or any(len(r) != a - 1 for r in matrix):
        raise ValueError("need an a x (a-1) matrix with a >= 2")
    return [_det(matrix[:i] + matrix[i + 1:]) for i in range(a)]


def determinantal_ideal(matrix):
    """Ideal (or first-order deformation) generated by the maximal minors.

    Entries of positive order only.  Plain entries give an
    IdealPresentation; dual entries give a FirstOrderDeformation whose base
    is the eps = 0 matrix's minor ideal.  A dual minor whose special fibre
    is zero but whose eps-part is not has no generator of the base to
    perturb, so it is rejected rather than dropped.  The base's e0 is read
    through the curve gate `HilbertData.curve` at the entries' level: a
    zero-dimensional base is a ValueError, and a base that the level does
    not settle a LevelError.
    """
    dual = any(isinstance(e, DualPoly) for r in matrix for e in r)
    if dual:
        matrix = [[e if isinstance(e, DualPoly) else DualPoly(e) for e in r] for r in matrix]
    for r in matrix:
        for e in r:
            re = e.re if dual else e
            if not re.is_zero() and re.order() < 1:
                raise ValueError("matrix entries must lie in the maximal ideal")
    minors = determinantal_minors(matrix)
    sample = matrix[0][0].re if dual else matrix[0][0]
    if not dual:
        gens = [m for m in minors if not m.is_zero()]
        return IdealPresentation(gens, sample.n_vars, sample.field, sample.level)
    for i, m in enumerate(minors):
        if m.re.is_zero() and not m.eps.is_zero():
            raise ValueError(f"minor {i} (row {i} omitted) is only an eps-part, "
                             f"eps*({poly_str(m.eps)}): its special fibre is zero")
    keep = [m for m in minors if not m.re.is_zero()]
    base = IdealPresentation([m.re for m in keep], sample.n_vars, sample.field, sample.level)
    e0 = hilbert_data(base, base.level).curve().e0
    return FirstOrderDeformation(base, [m.eps for m in keep], e0)
