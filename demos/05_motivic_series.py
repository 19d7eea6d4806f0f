"""Motivic arithmetic at desk scale: enumeration, measures, and series.

Over a tiny finite field every valid level-n plane ideal can be listed
outright.  Raising the level multiplies the count by exactly q^((N-1)e0)
-- the fibration rank -- so the normalized measures stabilize, point
counts fit a polynomial in L, and the associated Poincare series is a
single geometric factor.
"""

from fractions import Fraction

from curvemoduli import (
    GF,
    MeasureContext,
    MotivicClass,
    enumerate_xi,
    fit_class_from_counts,
    measure_of_level,
    mps,
    volume_partial,
)

L = MotivicClass.L

# exhaustive counts for smooth plane germs (e0 = 1)
counts = {}
for q in (2, 3, 5):
    counts[q] = enumerate_xi(2, 1, 3, GF(q)).count
print("level-3 counts of smooth plane truncations:", counts)
cls, warnings = fit_class_from_counts(counts, 2)
print(f"fitted class: {cls}   ({warnings[0]})")
print()

# the fibration rank in action: counts scale by q^c per level
ctx = MeasureContext(2, 1)
for q in (2, 3):
    for n in (3, 4):
        c_n = enumerate_xi(2, 1, n, GF(q)).count
        c_n1 = enumerate_xi(2, 1, n + 1, GF(q)).count
        print(f"q = {q}: count({n}) = {c_n:4d}, count({n+1}) = {c_n1:4d},"
              f" ratio = {c_n1 // c_n} = q^{ctx.c}")
        norm_n = Fraction(c_n, q ** ((n + 1) * ctx.c))
        norm_n1 = Fraction(c_n1, q ** ((n + 2) * ctx.c))
        print(f"        normalized measures agree: {norm_n} == {norm_n1}")
print()

# measures in the Grothendieck ring: the same stability, exactly
stratum_class = cls  # the fitted class of the level-3 stratum
mu3 = measure_of_level(stratum_class, 3, ctx)
mu4 = measure_of_level(stratum_class * L(ctx.c), 4, ctx)
print(f"measure at level 3: {mu3}")
print(f"measure at level 4: {mu4}   (equal: {mu3 == mu4})")
print()

# the motivic Poincare series of the whole tower is one geometric factor
series = mps(stratum_class, 3, ctx)
print("series:", series)
coeffs = series.expand(8)
print("expansion:", ", ".join(str(c) for c in coeffs[3:]))
print("specialized at q = 2:", [c.specialize(2) for c in coeffs[3:]])
print()

# partial motivic volumes with an explicit tail bound
terms = {0: MotivicClass.one(), 1: L(-1), 2: L(-2)}
total, bound = volume_partial(terms)
print(f"partial volume sum: {total}   tail norm bound: {bound}")
