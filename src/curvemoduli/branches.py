"""Parametrized curve branches: numerical semigroups, the delta invariant
and Milnor number, and recovery of the truncated defining ideal as the
kernel of the substitution map R/M^n -> prod_b k[t]/(t^m).

This gives a second, independent route to Hilbert data: H1(t) is simply the
rank of the substituted monomials of degree <= t, and for monomial branches
it must agree with a pure valuation count on the semigroup.
"""

from collections import namedtuple
from math import gcd

from .ringcore import (
    Echelon,
    TruncatedPoly,
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

    Generators must be coprime, otherwise the gap count is infinite.  The
    bound auto-extends until a run of min(gens) consecutive elements shows
    up, which pins the conductor.
    """
    gens = sorted(set(int(g) for g in gens))
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


def _required_precision(param, level):
    return level * max(b.max_order() for b in param.branches)


class _Substitution:
    """Images of monomials under the branch substitution, weight-pruned.

    A monomial x^a substitutes, on each branch, to a series of order
    sum_i a_i * order(component_i); only monomials whose order stays below
    some branch precision have a nonzero image, so the enumeration runs over
    that (finite) weight-bounded set instead of all monomials of a degree.
    Images are built by one-step products from a parent monomial.  `high`
    is the echelon span of the images of M^level, built once: the
    Hilbert pass copies it, the ideal's kernel is seeded with it.  Its
    images go in top degree first (short images of high t-order first: on
    the Hilbert pass this measured up to 2x cheaper than ascending).
    """

    def __init__(self, param, level):
        check_level(level)
        need = _required_precision(param, level)
        for b in param.branches:
            if b.precision < need:
                raise PrecisionError(
                    f"branch precision {b.precision} below the bound {need}"
                    f" (= level {level} * max t-order)"
                )
        self.field = param.field
        n_vars = param.n_vars
        branches = param.branches
        self.offsets = []
        acc = 0
        for b in branches:
            self.offsets.append(acc)
            acc += b.precision
        self.t_cols = acc
        # per branch, per variable: order of the component (None for zero)
        orders = [
            [None if c.is_zero() else c.order() for c in b.components]
            for b in branches
        ]

        def alive(mono):
            for bi, b in enumerate(branches):
                w = 0
                for a, o in zip(mono, orders[bi]):
                    if a == 0:
                        continue
                    if o is None:
                        w = None
                        break
                    w += a * o
                if w is not None and w < b.precision:
                    return True
            return False

        # enumerate the weight-bounded monomial set, by ascending degree so a
        # parent with one exponent lowered is always already present
        root = (0,) * n_vars
        self.images = {root: [TruncatedPoly.constant(1, 1, self.field, b.precision)
                              for b in branches]}
        self.by_degree = {0: [root]}
        frontier = [root]
        d = 0
        while frontier:
            d += 1
            nxt = set()
            for mono in frontier:
                for j in range(n_vars):
                    child = tuple(a + (1 if k == j else 0) for k, a in enumerate(mono))
                    if sum(child) < level or alive(child):
                        nxt.add(child)
            frontier = sorted(nxt)
            self.by_degree[d] = frontier
            for mono in frontier:
                j = next(k for k, a in enumerate(mono) if a > 0)
                parent = tuple(a - (1 if k == j else 0) for k, a in enumerate(mono))
                self.images[mono] = [
                    img * b.components[j]
                    for img, b in zip(self.images[parent], branches)
                ]
        self.max_degree = d - 1  # by_degree[d] is the empty last frontier
        self.high = Echelon(self.field)
        for d in range(self.max_degree, level - 1, -1):
            for mono in self.by_degree[d]:
                self.high.add(self.image_vector(mono))

    def image_vector(self, mono):
        vec = {}
        for off, img in zip(self.offsets, self.images[mono]):
            for (k,), c in img.terms.items():
                vec[off + k] = c
        return vec


def ideal_from_param(param, level, sub=None):
    """The truncated defining ideal of the branches, by exact linear algebra.

    The span of (I(C)+M^level)/M^level consists of the polynomials of degree
    < level whose substitution lands in the substituted image of M^level
    (not of those whose substitution vanishes: at finite t-precision the
    image of M^level is visible, not zero).  The generators returned are its
    reduced echelon basis, the kernel of the substitution modulo that image;
    each is post-checked to vanish on every branch modulo the image.  A
    caller that already holds `_Substitution(param, level)` passes it as `sub`.
    """
    sub = sub or _Substitution(param, level)
    high_span = sub.high
    table = monomial_table(param.n_vars, level)
    kernel = kernel_basis(high_span, map(sub.image_vector, table.monos), sub.t_cols)
    gens = [table.poly_of(row, param.field) for row in kernel]
    for g in gens:
        residual = {}
        for bi, branch in enumerate(param.branches):
            img = evaluate_on_branch(g, branch)
            for (k,), c in img.terms.items():
                residual[sub.offsets[bi] + k] = c
        if not high_span.contains(residual):
            raise AssertionError(
                f"kernel generator {g} does not vanish on the branches modulo M^{level}"
            )
    return IdealPresentation(gens, param.n_vars, param.field, level)


def evaluate_on_branch(poly, branch):
    """Substitute the branch components into a polynomial (truncated in t)."""
    field = branch.field
    out = TruncatedPoly.zero(1, field, branch.precision)
    for mono, c in poly.terms.items():
        prod = TruncatedPoly.constant(c, 1, field, branch.precision)
        for comp, e in zip(branch.components, mono):
            for _ in range(e):
                prod = prod * comp
        out = out + prod
    return out


def hilbert_from_param(param, level, sub=None):
    """Hilbert data via the substitution ranks (the parametric route).

    H1(t) = dim R/(I+M^{t+1}) is the rank of all substituted monomials minus
    the rank of those of degree >= t+1: one echelon pass that starts from
    the span of degree >= level and adds the degrees below it, descending.
    `sub` is as in `ideal_from_param`.
    """
    sub = sub or _Substitution(param, level)
    ech = sub.high.copy()
    rank_geq = [0] * level + [ech.rank]
    for d in range(level - 1, -1, -1):
        for mono in sub.by_degree[d]:
            ech.add(sub.image_vector(mono))
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
    under truncation.  Components are only known to their stated precision,
    so the scan is capped there and reports honestly when that is not
    enough.
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
    field = param.field
    for m in range(start, cap + 1):
        clipped = Parametrization(
            [Branch([c.truncate_to(m) for c in b.components], m) for b in param.branches]
        )
        sub = _Substitution(clipped, 1)
        ech = sub.high
        ech.add(sub.image_vector((0,) * param.n_vars))
        total = sum(b.precision for b in clipped.branches)
        codim = total - ech.rank
        missing_max = -1
        for off, b in zip(sub.offsets, clipped.branches):
            for k in range(b.precision):
                if not ech.contains({off + k: field.one()}):
                    missing_max = max(missing_max, k)
        c = missing_max + 1
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
