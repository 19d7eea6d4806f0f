"""Independent brute-force oracles.

Everything here recomputes quantities by a route deliberately different
from the library's: dense list-based Gaussian elimination instead of sparse
dict echelons, direct monomial counting for monomial ideals, and randomized
combination sampling for initial-ideal slices.  Expected values frozen in
the tests were produced by these.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from curvemoduli.ringcore import TruncatedPoly, monomials_of_degree


def naive_rref(matrix_rows, field):
    """Dense row-list Gauss-Jordan elimination, no pivoting cleverness: the
    reduced row echelon form as a list of (pivot column, dense row), with
    unit pivots and zeros at every other pivot column."""
    rows = [list(r) for r in matrix_rows]
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col] != field.zero():
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.of(Fraction(1, rows[rank][col]))
        rows[rank] = [field.of(x * inv) for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != field.zero():
                c = rows[i][col]
                rows[i] = [field.of(x - c * y) for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return list(zip(pivots, rows))


def naive_rank(matrix_rows, field):
    """Rank by dense elimination (the length of `naive_rref`)."""
    return len(naive_rref(matrix_rows, field))


def monomial_ideal_h1(generator_exponents, n_vars, t_max):
    """H1(0..t_max) of a monomial ideal by direct monomial counting.

    A monomial is in the ideal iff it is divisible by some generator.
    """
    gens = [tuple(g) for g in generator_exponents]

    def inside(mono):
        return any(all(m >= g for m, g in zip(mono, gen)) for gen in gens)

    values = []
    count = 0
    for d in range(t_max + 1):
        count += sum(1 for m in monomials_of_degree(n_vars, d) if not inside(m))
        values.append(count)
    return values


def dense_multiple_rows(gens, level, min_shift=0):
    """Dense rows of every multiple x^a * g with |a| >= min_shift that is
    nonzero modulo M^level, over the monomials of degree < level."""
    n_vars = gens[0].n_vars
    field = gens[0].field
    cols = []
    for d in range(level):
        cols.extend(monomials_of_degree(n_vars, d))
    index = {m: i for i, m in enumerate(cols)}
    rows = []
    for g in gens:
        g = g.truncate_to(level)
        if g.is_zero():
            continue
        for d in range(min_shift, level - g.order()):
            for m in monomials_of_degree(n_vars, d):
                prod = g.mul_monomial(m)
                row = [field.zero()] * len(cols)
                for mono, c in prod.terms.items():
                    row[index[mono]] = c
                rows.append(row)
    return rows


def dense_ideal_h1(gens, level):
    """H1(0..level-1) by dense elimination on all monomial multiples.

    Completely bypasses the library's span bookkeeping: builds one dense
    matrix per degree and calls the naive rank.
    """
    n_vars = gens[0].n_vars
    field = gens[0].field
    values = []
    for t in range(level):
        rows = dense_multiple_rows(gens, t + 1)
        rank = naive_rank(rows, field) if rows else 0
        values.append(comb(n_vars + t, n_vars) - rank)
    return values


def sampled_initial_slices(gens, level, trials=200, seed=7):
    """Lower bounds for dim I*_d from initial forms of random combinations.

    Draws random R-combinations of the generators with bounded support and
    collects the span of their initial forms per degree; with enough trials
    the dimensions reach dim I*_d (the tests assert equality against the
    library, so a deficit would show up as a failure there).
    """
    rng = random.Random(seed)
    n_vars = gens[0].n_vars
    field = gens[0].field
    per_degree_rows = {d: [] for d in range(level)}
    monos_upto = [m for d in range(level) for m in monomials_of_degree(n_vars, d)]
    combos = []
    for g in gens:
        for m in monos_upto:
            if sum(m) + g.order() < level:
                combos.append(g.mul_monomial(m))
    for _ in range(trials):
        k = rng.randint(1, min(4, len(combos)))
        f = None
        for piece in rng.sample(combos, k):
            piece = piece.scale(rng.choice([-3, -2, -1, 1, 2, 3]))
            f = piece if f is None else f + piece
        if f is None or f.is_zero():
            continue
        d = f.order()
        init = f.homogeneous_part(d)
        per_degree_rows[d].append(init)
    for g in gens:
        per_degree_rows[g.order()].append(g.homogeneous_part(g.order()))
    dims = {}
    for d, polys in per_degree_rows.items():
        if not polys:
            dims[d] = 0
            continue
        cols = monomials_of_degree(n_vars, d)
        index = {m: i for i, m in enumerate(cols)}
        rows = []
        for p in polys:
            row = [field.zero()] * len(cols)
            for mono, c in p.terms.items():
                row[index[mono]] = c
            rows.append(row)
        dims[d] = naive_rank(rows, field)
    return dims


def random_poly(rng, n_vars, field, level, max_degree, min_degree=0, density=0.6):
    """Seeded random polynomial with small integer coefficients."""
    terms = {}
    for d in range(min_degree, min(max_degree + 1, level)):
        for m in monomials_of_degree(n_vars, d):
            if rng.random() < density:
                c = rng.randint(-3, 3)
                if c:
                    terms[m] = c
    return TruncatedPoly(n_vars, field, level, terms)


def random_generator_mix(rng, ideal):
    """Re-present an ideal: invertible scalar mix plus polynomial multiples.

    The new generators span the same ideal by construction (unit
    triangular mixing plus adding multiples of other generators).
    """
    gens = list(ideal.generators)
    n = len(gens)
    field = ideal.field
    units = [c for c in (1, -1, 2, 3) if field.of(c) != field.zero()]
    new = [g for g in gens]
    for _ in range(2 * n):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            new[i] = new[i].scale(rng.choice(units))
        else:
            m = rng.choice(
                [(0,) * ideal.n_vars]
                + monomials_of_degree(ideal.n_vars, rng.randint(0, 2))
            )
            cand = new[i] + new[j].mul_monomial(m, rng.randint(-2, 2))
            if not cand.is_zero():
                new[i] = cand
    from curvemoduli.idealcalc import IdealPresentation

    return IdealPresentation(new, ideal.n_vars, ideal.field, ideal.level)


def flat_prefix_scan(e0, q, n):
    """The plane enumerator with one flat product over the lower tail blocks:
    every prefix (the lead form and each block below degree n-1) gets its
    span of the x^a*prefix, |a| >= 1, from scratch, its H1 values from that
    span's pivots, and its canonical rows from that span's basis.  Each
    sibling f = prefix + top block that passes the H1 filter gets its own
    verdict from tn_membership over every q-rational form.  Returns the
    members' generator lists (f, then the prefix span's canonical rows),
    sorted by all their rows.
    """
    import itertools

    from curvemoduli.idealcalc import IdealPresentation
    from curvemoduli.ringcore import GF, monomial_table, span_of_multiples
    from curvemoduli.trunctower import (
        TnFailure, all_projective_linear_forms, tn_membership,
    )

    field, n_vars = GF(q), 2
    table = monomial_table(n_vars, n)
    forms = all_projective_linear_forms(n_vars, field, n)
    e1 = 0 if e0 == 1 else e0 * (e0 - 1) // 2
    p_values = [e0 * (t + 1) - e1 for t in range(n)]
    lead_monos = monomials_of_degree(n_vars, e0)
    found = []
    for first in range(len(lead_monos)):
        for rest in itertools.product(range(q), repeat=len(lead_monos) - first - 1):
            lead_terms = dict(zip(lead_monos[first:], (1, *rest)))
            lead = TruncatedPoly(n_vars, field, n, lead_terms)
            pivots = span_of_multiples(table, field, [lead], lo=1).pivots()
            *lower, top = [[m for m in monomials_of_degree(n_vars, e0 + k)
                            if table.index[m] not in pivots] for k in range(1, n - e0)]
            flat = [m for block in lower for m in block]
            for coeffs in itertools.product(range(q), repeat=len(flat)):
                terms = {**lead_terms, **dict(zip(flat, coeffs))}
                prefix = TruncatedPoly(n_vars, field, n, terms)
                base = span_of_multiples(table, field, [prefix], lo=1)
                dims = [0] * n
                dims[e0] = 1
                for piv in base.pivots():
                    dims[table.degree_of_col(piv)] += 1
                h1 = [table.offset[t + 1] - sum(dims[:t + 1]) for t in range(n)]
                if h1 != p_values:
                    continue
                rows = base.basis()
                for top_coeffs in itertools.product(range(q), repeat=len(top)):
                    f = TruncatedPoly(n_vars, field, n, {**terms, **dict(zip(top, top_coeffs))})
                    J = IdealPresentation([f], n_vars, field, n)
                    if isinstance(tn_membership(J, n, e0, forms=forms), TnFailure):
                        continue
                    key = tuple(tuple(sorted(row.items()))
                                for row in [table.vector_of(f)] + rows)
                    found.append((key, [f] + [table.poly_of(row, field) for row in rows]))
    found.sort(key=lambda member: member[0])
    return [gens for _, gens in found]
