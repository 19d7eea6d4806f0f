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
    LevelError,
    TruncatedPoly,
    check_ints,
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


# `elements` lists all elements <= bound.
SemigroupData = namedtuple("SemigroupData", "generators elements gaps delta conductor bound")


def semigroup(gens, bound=None):
    """Gaps, delta and conductor of the numerical semigroup <gens>.

    Generators must be positive ints, and coprime, otherwise the gap count
    is infinite.  The bound auto-extends until a run of min(gens)
    consecutive elements shows up, which pins the conductor.
    """
    gens = list(gens)
    check_ints(gens, "generator")
    gens = sorted(set(gens))
    if not gens or gens[0] < 1:
        raise ValueError("generators must be positive integers")
    g = 0
    for x in gens:
        g = gcd(g, x)
    if g != 1:
        raise ValueError(f"generators have gcd {g} > 1: delta is infinite")
    m = gens[0]
    bound = bound or 2 * max(gens) * len(gens)
    while True:
        member = [False] * (bound + 1)
        member[0] = True
        for v in range(1, bound + 1):
            for x in gens:
                if x <= v and member[v - x]:
                    member[v] = True
                    break
        run = 0
        conductor = None
        for v in range(1, bound + 1):
            run = run + 1 if member[v] else 0
            if run == m:
                conductor = v - m + 1
                break
        if conductor is not None:
            gaps = [v for v in range(1, conductor) if not member[v]]
            conductor = gaps[-1] + 1 if gaps else 0
            elements = [v for v in range(bound + 1) if member[v]]
            return SemigroupData(gens, elements, gaps, len(gaps), conductor, bound)
        bound *= 2


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
    independent oracle for the kernel route on monomial branches.
    """
    sg = semigroup(gens)
    # all sums of t_max+1 elements stay visible below this bound
    bound = sg.conductor + (t_max + 1) * min(gens) + max(gens)
    gamma = semigroup(gens, bound).elements
    sums = [set(gamma[1:])]
    for _ in range(t_max):
        nxt = set()
        prev = sums[-1]
        for s in prev:
            for x in sg.generators:
                if s + x <= bound:
                    nxt.add(s + x)
        sums.append(nxt)
    return [sum(1 for v in gamma if v not in sums[t]) for t in range(t_max + 1)]


# ---------------------------------------------------------------------------
# Branches and parametrizations.


class Branch:
    """One branch: N truncated power series in t with a common t-precision.

    Components must have zero constant term and not all vanish; a component
    is stored as a one-variable TruncatedPoly at level = precision.
    """

    def __init__(self, components, precision):
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
    """One or more branches in a common ambient over a common field."""

    __slots__ = ("branches",)

    def __init__(self, branches):
        if not branches:
            raise ValueError("need at least one branch")
        n = branches[0].n_vars
        f = branches[0].field
        if any(b.n_vars != n or b.field != f for b in branches):
            raise ValueError("branches disagree on ambient or field")
        self.branches = branches

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


class _Substitution:
    """Images of monomials under the branch substitution, weight-pruned.

    A monomial x^a substitutes, on each branch, to a series of order
    sum_i a_i * order(component_i); only monomials whose order stays below
    some branch precision (`alive`) have a nonzero image, so the walk keeps
    every monomial of degree < level and, above it, only the alive ones.
    That set is closed under lowering an exponent, so each monomial has one
    parent, itself with its first nonzero exponent lowered, and its image is
    the parent's times that component.  A parent's children raise an
    exponent at or before its first nonzero one (the root's, any exponent),
    so every monomial is built exactly once; the walk holds the series of
    one degree at a time and stops at the first degree with no children.
    Each image is flattened once by `vector_of`, the one owner of the column
    layout.  Below the level the images are kept in the column order of
    `table = monomial_table(N, level)`: `vectors[c]` is the image of
    `table.monos[c]`.  `high` is the echelon span of the images of M^level,
    built once: the Hilbert pass copies it, the ideal's kernel is seeded
    with it.  Its images go in top degree first, ascending within a degree
    (short images of high t-order first: on the Hilbert pass this measured
    up to 2x cheaper than ascending), and are dropped once it is built.
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
        self.param, self.field = param, param.field
        branches = param.branches
        self.offsets = list(accumulate((b.precision for b in branches), initial=0))
        self.t_cols = self.offsets.pop()
        # per branch, per variable: the order of the component, or the branch
        # precision for a zero one, so that a monomial using it dies there
        orders = [[b.precision if c.is_zero() else c.order() for c in b.components]
                  for b in branches]

        def alive(mono):
            return any(sum(a * o for a, o in zip(mono, os)) < b.precision
                       for b, os in zip(branches, orders))

        self.table = table = monomial_table(param.n_vars, level)
        self.vectors = [None] * table.offset[level]
        above = []  # per degree >= level, its images in ascending monomial order
        root = (0,) * param.n_vars
        series = {root: [TruncatedPoly.constant(1, 1, self.field, b.precision)
                         for b in branches]}
        d = 0
        while series:
            if d < level:
                for mono, imgs in series.items():
                    self.vectors[table.index[mono]] = self.vector_of(imgs)
            else:
                above.append([self.vector_of(series[mono]) for mono in sorted(series)])
            d += 1
            children = {}
            for mono, imgs in series.items():
                first = next((k for k, a in enumerate(mono) if a), len(mono) - 1)
                for j in range(first + 1):
                    child = mono[:j] + (mono[j] + 1,) + mono[j + 1:]
                    if d < level or alive(child):
                        children[child] = [
                            img * b.components[j] for img, b in zip(imgs, branches)
                        ]
            series = children
        self.high = Echelon(self.field)
        while above:  # top degree first, each freed once inserted
            for vec in above.pop():
                self.high.add(vec)

    def vector_of(self, series):
        """The column vector of one series per branch: the coefficient of t^k
        on branch b sits at column offsets[b] + k."""
        vec = {}
        for off, img in zip(self.offsets, series):
            for (k,), c in img.terms.items():
                vec[off + k] = c
        return vec


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
    kernel = kernel_basis(sub.high, sub.vectors, sub.t_cols)
    gens = [sub.table.poly_of(row, param.field) for row in kernel]
    for g in gens:
        residual = sub.vector_of([evaluate_on_branch(g, b) for b in param.branches])
        if not sub.high.contains(residual):
            raise AssertionError(
                f"kernel generator {g} does not vanish on the branches modulo M^{level}"
            )
    return IdealPresentation(gens, param.n_vars, param.field, level)


def evaluate_on_branch(poly, branch):
    """Substitute the branch components into a polynomial (truncated in t).

    The polynomial must live in the branch's ambient over its field."""
    field = branch.field
    if (poly.n_vars, poly.field) != (branch.n_vars, field):
        raise LevelError("polynomial and branch disagree on ambient or field")
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


def _all_branch_positive_element(param):
    """Orders, per branch, of a ring element of positive order on every branch.

    Tries the coordinate components first, then a few deterministic mixes
    (cancellation can only raise an order, so small integer weights are
    enough over the rationals).  None when no tried combination works.
    """
    n = param.n_vars
    candidates = [[1 if k == j else 0 for k in range(n)] for j in range(n)]
    candidates += [[1] * n, [2 ** j for j in range(n)], [3 ** j for j in range(n)]]
    for w in candidates:
        orders = []
        for b in param.branches:
            z = TruncatedPoly.zero(1, b.field, b.precision)
            for wj, comp in zip(w, b.components):
                if wj:
                    z = z + comp.scale(wj)
            if z.is_zero():
                orders = None
                break
            orders.append(z.order())
        if orders is not None:
            return orders
    return None


def delta_from_param(param):
    """delta = dim(normalization / image of R), certified by a conductor test.

    At t-precision m the codimension of the substituted monomial span in
    prod_b k[t]/(t^m) counts the missing coordinates.  Plateaus in m prove
    nothing (gap patterns pause and resume), so finality is certified
    instead: once every coordinate t^k e_b with k >= c lies in the span and
    m - c is at least the order of some ring element positive on every
    branch, multiplying the witnesses by powers of that element covers all
    higher coordinates at every precision, and the part below c is stable
    under truncation.  A coordinate lies in the span exactly when the
    canonical row at its column is that unit vector (a vector of the span
    with a unit at one pivot and zeros at every other pivot is that pivot's
    row), so c is read off the rows.  Components are only known to their
    stated precision, so the scan is capped there and reports honestly when
    that is not enough.
    """
    cap = min(b.precision for b in param.branches)
    orders = _all_branch_positive_element(param)
    if orders is None:
        raise PrecisionError(
            "unsupported: found no element of positive order on every branch"
        )
    step = max(orders)
    # below this precision some branch truncates to nothing
    start = max(
        min(c.order() for c in b.components if not c.is_zero()) + 1
        for b in param.branches
    )
    for m in range(start, cap + 1):
        clipped = Parametrization(
            [Branch([c.truncate_to(m) for c in b.components], m) for b in param.branches]
        )
        sub = _Substitution(clipped, 1)
        ech = sub.high
        ech.add(sub.vectors[0])
        codim = sub.t_cols - ech.rank
        # t^k on one branch sits at column offsets[b] + k = b*m + k
        rows = ech.rows
        c = 1 + max((col % m for col in range(sub.t_cols) if rows.get(col) != {col: 1}),
                    default=-1)
        if m - c >= step:
            return codim
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

    def to_json(self):
        return {
            "fibers": [hd.to_json() for hd in self.hilbert],
            "hilbert_function_constant": self.constant,
            "first_mismatch": list(self.first_mismatch) if self.first_mismatch else None,
            "polynomials_agree": self.polynomials_agree,
        }


def normally_flat_fiber_compare(fibers, level):
    """Compare full Hilbert functions across fibers.

    A family whose fibers change Hilbert function is not normally flat; a
    family over a reduced base is a family of curves as soon as the fibers
    share the Hilbert polynomial, so both verdicts are reported.
    """
    if len(fibers) < 1:
        raise ValueError("need at least one fiber")
    if len({(f.n_vars, f.field) for f in fibers}) > 1:
        raise ValueError("fibers disagree on ambient or field")
    data = []
    for f in fibers:
        if isinstance(f, Parametrization):
            data.append(hilbert_from_param(f, level))
        else:
            data.append(hilbert_data(f, level))
    constant = True
    mismatch = None
    base = data[0].values
    for i, hd in enumerate(data[1:], start=1):
        for t, (a, b) in enumerate(zip(base, hd.values)):
            if a != b:
                constant = False
                mismatch = (i, t)
                break
        if mismatch:
            break
    if any(hd.status != "ok" for hd in data):
        agree = None
    else:
        agree = len({(hd.e0, hd.e1) for hd in data}) == 1
    return FiberCompareReport(data, constant, mismatch, agree)


# ---------------------------------------------------------------------------
# Rigid Hilbert polynomials: the known sufficient conditions.


RIGID = "rigid"
UNKNOWN = "unknown"


def is_rigid_known(e0, e1):
    """"rigid" when a listed sufficient condition applies, else "unknown".

    Sufficient: e0 <= 5, or e1 in {e0-1, e0, e0(e0-1)/2 - 1, e0(e0-1)/2}.
    Never answers "not rigid": absence from the list proves nothing.
    """
    from .trunctower import admissible

    if not any(admissible(b, e0, e1) for b in range(1, e0 + 1)):
        raise ValueError(f"(e0, e1) = ({e0}, {e1}) is not admissible for any b")
    top = e0 * (e0 - 1) // 2
    if e0 <= 5 or e1 in {e0 - 1, e0, top - 1, top}:
        return RIGID
    return UNKNOWN
