"""Parametrized curve branches: numerical semigroups, the delta invariant
and Milnor number, and recovery of the truncated defining ideal as the
kernel of the substitution map R/M^n -> prod_b k[t]/(t^m).

This gives a second, independent route to Hilbert data: H1(t) is simply the
rank of the substituted monomials of degree <= t, and for monomial branches
it must agree with a pure valuation count on the semigroup.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import accumulate
from math import gcd

from .ringcore import (
    Echelon,
    TruncatedPoly,
    check_ints,
    check_same_ring,
    kernel_basis,
    monomial_table,
    parse_poly,
    poly_str,
)
from .idealcalc import IdealPresentation, analyze_h1, check_level, hilbert_data


class PrecisionError(ValueError):
    """Branch t-precision too low for the requested truncation level."""


# ---------------------------------------------------------------------------
# Numerical semigroups.


SemigroupData = namedtuple("SemigroupData", "generators gaps delta conductor")


def semigroup(gens):
    """Gaps, delta and conductor of the numerical semigroup <gens>.

    Generators must be positive ints, and coprime, otherwise the gap count
    is infinite.  Membership is decided for v = 1, 2, ... in one growing
    list, up to the first run of min(gens) consecutive elements: adding
    min(gens) then reaches every later integer, so that run pins the
    conductor.
    """
    gens = list(gens)
    check_ints(gens, "generator")
    gens = sorted(set(gens))
    if not gens or gens[0] < 1:
        raise ValueError("generators must be positive integers")
    g = gcd(*gens)
    if g != 1:
        raise ValueError(f"generators have gcd {g} > 1: delta is infinite")
    member = [True]
    run = 0
    while run < gens[0]:
        v = len(member)
        member.append(any(member[v - x] for x in gens if x <= v))
        run = run + 1 if member[v] else 0
    gaps = [v for v, elt in enumerate(member) if not elt]
    conductor = gaps[-1] + 1 if gaps else 0
    return SemigroupData(gens, gaps, len(gaps), conductor)


def milnor(delta, r):
    """mu = 2*delta - r + 1 for r branches."""
    check_ints((delta, r), "each of delta and r")
    if delta < 0 or r < 1:
        raise ValueError("need delta >= 0 and r >= 1")
    return 2 * delta - r + 1


def valuation_h1(gens, t_max):
    """H1(0..t_max) of the monomial curve of <gens> by pure valuation counts.

    H1(t) counts the semigroup elements that are not a sum of t+1 nonzero
    elements (the valuations surviving in O_C/m^{t+1}); this is the
    independent oracle for the kernel route on monomial branches.  Such a
    sum is a sum of t+1 or more generators, so one table does: longest[v]
    is the largest number of generators that sum to v, None off the
    semigroup, and H1(t) counts the v with longest[v] <= t.  Past the bound
    every element is (t_max+1)*min(gens) plus an element, so none counts.
    """
    sg = semigroup(gens)
    gens = sg.generators
    bound = sg.conductor + (t_max + 1) * gens[0] + gens[-1]
    longest = [0]
    for v in range(1, bound + 1):
        prev = [longest[v - x] for x in gens if x <= v and longest[v - x] is not None]
        longest.append(max(prev) + 1 if prev else None)
    return [sum(1 for k in longest if k is not None and k <= t) for t in range(t_max + 1)]


# ---------------------------------------------------------------------------
# Branches and parametrizations.


class Branch:
    """One branch: N truncated power series in t with a common t-precision.

    Components must have zero constant term and not all vanish; a component
    is stored as a one-variable TruncatedPoly at level = precision, and all
    of them over one field, by `check_same_ring`.
    """

    def __init__(self, components, precision):
        check_ints((precision,), "precision")
        if precision < 1:
            raise PrecisionError("precision must be >= 1")
        comps = []
        for c in components:
            if c.n_vars != 1:
                raise ValueError("branch components are one-variable series")
            if c.level < precision:
                raise PrecisionError(
                    f"component precision {c.level} below branch precision {precision}"
                )
            comps.append(c.truncate_to(precision))
        check_same_ring("branch components", comps)
        self.components = comps
        self.precision = precision
        for c in comps:
            if not c.is_zero() and c.order() < 1:
                raise ValueError("branch components must vanish at t = 0")
        if all(c.is_zero() for c in comps):
            raise ValueError("at least one component must be nonzero")

    @classmethod
    def parse(cls, texts, precision, field):
        comps = [parse_poly(t, 1, field, precision, var="t") for t in texts]
        return cls(comps, precision)

    @property
    def n_vars(self):
        return len(self.components)

    @property
    def field(self):
        return self.components[0].field

    def max_order(self):
        return max(c.order() for c in self.components if not c.is_zero())

    def __repr__(self):
        comps = ", ".join(poly_str(c, var="t") for c in self.components)
        return f"Branch(({comps}); precision={self.precision})"


class Parametrization:
    """One or more branches in a common ambient over a common field.

    It owns the column layout of the branch ring prod_b k[t]/(t^m_b):
    branch b's t^k sits at column offsets[b] + k, where offsets[b] is the
    sum of the earlier branches' precisions, and t_cols is the sum of all.
    """

    __slots__ = ("branches", "offsets", "t_cols")

    def __init__(self, branches):
        if not branches:
            raise ValueError("need at least one branch")
        check_same_ring("branches", branches, level=False)
        self.branches = branches
        self.offsets = list(accumulate((b.precision for b in branches), initial=0))
        self.t_cols = self.offsets.pop()

    @property
    def r(self):
        return len(self.branches)

    @property
    def n_vars(self):
        return self.branches[0].n_vars

    @property
    def field(self):
        return self.branches[0].field

    @classmethod
    def parse(cls, branch_texts, precision, field):
        return cls([Branch.parse(ts, precision, field) for ts in branch_texts])

    def vector_of(self, series):
        """The column vector of one series per branch: the coefficient of t^k
        on branch b sits at column offsets[b] + k."""
        vec = {}
        for off, img in zip(self.offsets, series):
            for (k,), c in img.terms.items():
                vec[off + k] = c
        return vec


def _closure(param, seeds):
    """The echelon span of the seed series (one series per branch, in the
    columns of `param.vector_of`), closed under multiplication by every
    coordinate.  A series that raises the rank queues its N products with
    the coordinates; one already in the span has them in the span of
    products already queued, so the span ends closed after at most
    len(seeds) + N * rank inserts."""
    branches = param.branches
    span = Echelon(param.field)
    todo = list(seeds)
    while todo:
        series = todo.pop()
        if span.add(param.vector_of(series)):
            todo += [[s * b.components[i] for s, b in zip(series, branches)]
                     for i in range(param.n_vars)]
    return span


class _Substitution:
    """Images of monomials under the branch substitution.

    The walk builds the monomials of degree <= level once each, by degree:
    each has one parent, itself with its first nonzero exponent lowered,
    and its image is the parent's times that component.  A parent's
    children raise an exponent at or before its first nonzero one (the
    root's, any exponent).  Each image is flattened once by
    `Parametrization.vector_of`, the one owner of the column layout, so
    this object keeps only `table`, `vectors` and `high`.  Below the level
    the images are kept in the column order of `table = monomial_table(N,
    level)`: `vectors[c]` is the image of `table.monos[c]`.  `high`, the
    echelon span of the image of M^level, is the `_closure` of the images of
    the degree-level monomials, as M^level is generated by them; the Hilbert
    pass copies it and the ideal's kernel is seeded with it.  Its canonical
    rows are read once when it is built, so that every copy starts from
    reduced rows, whatever the order of the closure's inserts, and the
    inserts into it stay short.
    """

    def __init__(self, param, level):
        check_level(level)
        need = level * max(b.max_order() for b in param.branches)
        for b in param.branches:
            if b.precision < need:
                raise PrecisionError(
                    f"branch precision {b.precision} below the bound {need}"
                    f" (= level {level} * max t-order)"
                )
        branches = param.branches
        self.table = table = monomial_table(param.n_vars, level)
        self.vectors = [None] * table.offset[level]
        root = (0,) * param.n_vars
        series = {root: [TruncatedPoly.constant(1, 1, param.field, b.precision)
                         for b in branches]}
        for _ in range(level):
            children = {}
            for mono, imgs in series.items():
                self.vectors[table.index[mono]] = param.vector_of(imgs)
                first = next((k for k, a in enumerate(mono) if a), len(mono) - 1)
                for j in range(first + 1):
                    child = mono[:j] + (mono[j] + 1,) + mono[j + 1:]
                    children[child] = [img * b.components[j] for img, b in zip(imgs, branches)]
            series = children
        self.high = _closure(param, series.values())
        self.high.rows  # one back-substitution, for every reader


@lru_cache(maxsize=1)
def _substitution(param, level):
    """The `_Substitution(param, level)` that `ideal_from_param` and
    `hilbert_from_param` share: only the last one is kept.  Its readers copy
    `high` before they add to it, so the shared object is never changed."""
    return _Substitution(param, level)


def ideal_from_param(param, level):
    """The truncated defining ideal of the branches, by exact linear algebra.

    The span of (I(C)+M^level)/M^level consists of the polynomials of degree
    < level whose substitution lands in the substituted image of M^level
    (not of those whose substitution vanishes: at finite t-precision the
    image of M^level is visible, not zero).  The generators returned are its
    reduced echelon basis, the kernel of the substitution modulo that image;
    each is post-checked to vanish on every branch modulo the image.  The
    substitution is the one `hilbert_from_param` reads at the same
    parametrization and level, built once for both.
    """
    sub = _substitution(param, level)
    kernel = kernel_basis(sub.high, sub.vectors, param.t_cols)
    gens = [sub.table.poly_of(row, param.field) for row in kernel]
    for g in gens:
        residual = param.vector_of([evaluate_on_branch(g, b) for b in param.branches])
        if not sub.high.contains(residual):
            raise AssertionError(
                f"kernel generator {g} does not vanish on the branches modulo M^{level}"
            )
    return IdealPresentation(gens, param.n_vars, param.field, level)


def evaluate_on_branch(poly, branch):
    """Substitute the branch components into a polynomial (truncated in t).

    The polynomial must live in the branch's ambient over its field."""
    check_same_ring("polynomial and branch", (poly, branch), level=False)
    field = branch.field
    out = TruncatedPoly.zero(1, field, branch.precision)
    for mono, c in poly.terms.items():
        prod = TruncatedPoly.constant(c, 1, field, branch.precision)
        for comp, e in zip(branch.components, mono):
            for _ in range(e):
                prod = prod * comp
        out = out + prod
    return out


def hilbert_from_param(param, level):
    """Hilbert data via the substitution ranks (the parametric route).

    H1(t) = dim R/(I+M^{t+1}) is the rank of all substituted monomials minus
    the rank of those of degree >= t+1: one echelon pass that starts from a
    copy of the span of degree >= level and adds the degrees below it,
    descending.  The substitution is shared as in `ideal_from_param`.
    """
    sub = _substitution(param, level)
    ech = sub.high.copy()
    offset = sub.table.offset
    rank_geq = [0] * level + [ech.rank]
    for d in range(level - 1, -1, -1):
        for vec in sub.vectors[offset[d]:offset[d + 1]]:
            ech.add(vec)
        rank_geq[d] = ech.rank
    return analyze_h1([rank_geq[0] - rank_geq[t + 1] for t in range(level)])


def delta_from_param(param):
    """delta = dim(normalization / image of R), certified by a conductor test.

    At t-precision m the image of the local ring in prod_b k[t]/(t^m) is
    the `_closure` of 1, and its codimension counts the missing coordinates
    (its rank is at most r*m, so at most N*r*m products are built, however
    many monomials have a nonzero image).  Plateaus in m prove
    nothing (gap patterns pause and resume), so finality is certified
    instead, from each branch's own order: let s_b be the least t-order of
    the components of branch b and step = max_b s_b.  The answer is the
    codimension at any m at which every coordinate t^k e_b with
    k >= c lies in the span and m - c >= step.  Then the same holds at every
    m' >= m: if each t^k e_b with c <= k < m' has a witness f in the span at
    precision m', and x_i is a coordinate of order s_b on branch b, then for
    k = m' - s_b >= c the product x_i * f is a * t^m' e_b modulo t^(m'+1)
    with a != 0, since f's error terms have order >= m' on every branch and
    x_i has order >= 1 on every branch.  These products cover the new
    coordinates at precision m' + 1 and clear the old witnesses' errors
    there, and the part below c is stable under truncation, so the
    codimension never changes again.  A coordinate lies in the span exactly
    when the canonical row at its column is that unit vector (a vector of
    the span with a unit at one pivot and zeros at every other pivot is that
    pivot's row), so c is read off the rows: every branch is clipped to
    precision m, so `Parametrization.vector_of` puts branch b's t^k at
    column b*m + k.  An m that fails the test
    has no smaller m that passes, so m doubles from 2*step: the first m that
    passes gives the answer.  Components are only known to their stated
    precision, so m is capped there, and a cap that fails (or one at or
    below step, where some branch truncates to nothing) is reported
    honestly as not enough.
    """
    cap = min(b.precision for b in param.branches)
    step = max(min(c.order() for c in b.components if not c.is_zero())
               for b in param.branches)
    m = step
    while m < cap:
        m = min(2 * m, cap)
        clipped = Parametrization([Branch(b.components, m) for b in param.branches])
        one = [TruncatedPoly.constant(1, 1, param.field, m) for _ in clipped.branches]
        span = _closure(clipped, [one])
        width = clipped.t_cols
        rows = span.rows
        c = 1 + max((col % m for col in range(width) if rows.get(col) != {col: 1}),
                    default=-1)
        if m - c >= step:
            return width - span.rank
    raise PrecisionError(
        f"delta not certified within precision {cap}; supply more precision"
    )


# ---------------------------------------------------------------------------
# Fiberwise normal-flatness comparison.


class FiberCompareReport(namedtuple(
        "FiberCompareReport", "hilbert constant first_mismatch polynomials_agree")):
    """Fiberwise Hilbert comparison: one HilbertData per fiber in hilbert;
    first_mismatch is (fiber index, t) or None; polynomials_agree says all
    fibers share (e0, e1), None if some fiber is not stabilized."""

    __slots__ = ()


def normally_flat_fiber_compare(fibers, level):
    """Compare full Hilbert functions across fibers.

    A family whose fibers change Hilbert function is not normally flat; a
    family over a reduced base is a family of curves as soon as the fibers
    share the Hilbert polynomial, so both verdicts are reported.  The first
    mismatch is the first (fiber, t), in that order, where a fiber's H1(t)
    differs from fiber 0's, found by one search; the Hilbert function is
    constant exactly when there is none.
    """
    if len(fibers) < 1:
        raise ValueError("need at least one fiber")
    check_same_ring("fibers", fibers, level=False)
    data = [hilbert_from_param(f, level) if isinstance(f, Parametrization)
            else hilbert_data(f, level) for f in fibers]
    mismatch = next(((i, t) for i, hd in enumerate(data)
                     for t, (a, b) in enumerate(zip(data[0].values, hd.values)) if a != b), None)
    if any(hd.status != "ok" for hd in data):
        agree = None
    else:
        agree = len({(hd.e0, hd.e1) for hd in data}) == 1
    return FiberCompareReport(data, mismatch is None, mismatch, agree)
