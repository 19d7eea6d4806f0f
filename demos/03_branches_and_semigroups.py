"""Parametrized branches: semigroups, delta, Milnor numbers, and the
kernel-of-substitution route to the defining ideal.

The same Hilbert function arrives by two independent roads: exact linear
algebra on the substitution map R/M^n -> k[t]/(t^m), and pure valuation
counting on the numerical semigroup.  They must agree, and they do.
"""

from curvemoduli import (
    GF,
    QQ,
    Parametrization,
    delta_from_param,
    hilbert_from_param,
    ideal_from_param,
    milnor,
    normally_flat_fiber_compare,
    poly_str,
    semigroup,
    valuation_h1,
)

sg = semigroup([6, 7, 10, 15])
print(f"semigroup <6,7,10,15>: gaps {sg.gaps}, delta = {sg.delta},"
      f" conductor = {sg.conductor}, mu = {milnor(sg.delta, 1)}")

P = Parametrization.parse([["t^6", "t^7", "t^10", "t^15"]], 75, QQ)
hd = hilbert_from_param(P, 5)
print(f"kernel route H1  = {hd.values}")
print(f"valuation oracle = {valuation_h1([6, 7, 10, 15], 4)}")
print(f"(e0, e1) = ({hd.e0}, {hd.e1});"
      f" delta by linear algebra = {delta_from_param(Parametrization.parse([['t^6','t^7','t^10','t^15']], 40, QQ))}")
print()

# the cusp: recover its equation from the parametrization
cusp = Parametrization.parse([["t^2", "t^3"]], 18, QQ)
ideal = ideal_from_param(cusp, 6)
print("cusp kernel generators:", ", ".join(poly_str(g) for g in ideal.generators[:3]), "...")
print()

# a two-branch curve: the node, with delta = 1 and mu = 2*1 - 2 + 1 = 1
node = Parametrization.parse([["t", "0"], ["0", "t"]], 12, QQ)
print("node delta:", delta_from_param(node), " mu:", milnor(delta_from_param(node), 2))
# three lines over GF(2): every linear form vanishes on one of them, and
# delta is certified from each line's own order; mu = 2*3 - 3 + 1 = 4
lines = Parametrization.parse([["t", "0"], ["0", "t"], ["t", "t"]], 12, GF(2))
lines_delta = delta_from_param(lines)
print("three lines over GF(2) delta:", lines_delta, " mu:", milnor(lines_delta, 3))
# a branch with semigroup <6, 16, 51> (conductor 78): delta is certified at
# t-precision 96, the first of 12, 24, 48, ... that passes, well below 200
wide = Parametrization.parse([["t^6", "t^16 + t^19"]], 200, QQ)
print("(t^6, t^16 + t^19) at precision 200 delta:", delta_from_param(wide),
      " semigroup <6,16,51> delta:", semigroup([6, 16, 51]).delta)
print()

# fibers with different Hilbert functions cannot form a normally flat family
f0 = Parametrization.parse([["t^7", "t^8", "t^9"]], 60, QQ)
f1 = Parametrization.parse([["t^7", "t^8", "t^10"]], 60, QQ)
rep = normally_flat_fiber_compare([f0, f1], 6)
print("monomial fibers <7,8,9> vs <7,8,10>:")
for i, hdq in enumerate(rep.hilbert):
    print(f"  fiber {i}: H1 = {hdq.values}, (e0, e1) = ({hdq.e0}, {hdq.e1})")
print(f"  constant: {rep.constant}; first mismatch (fiber, t): {rep.first_mismatch}")
print()

# ... whereas the one-parameter family (t^7, t^8, (1-u)t^9 + t^10) keeps the
# whole function constant between u = 0 and u = 1: the t^10 tail produces an
# order-19 element at u = 0 and the two fibers share delta = 11
g0 = Parametrization.parse([["t^7", "t^8", "t^9 + t^10"]], 60, QQ)
g1 = Parametrization.parse([["t^7", "t^8", "t^10"]], 60, QQ)
rep2 = normally_flat_fiber_compare([g0, g1], 6)
print("family fibers u = 0, 1:", [h.values for h in rep2.hilbert])
print("constant:", rep2.constant,
      " deltas:", delta_from_param(g0), delta_from_param(g1))
