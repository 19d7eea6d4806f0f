"""The tower of truncations: which finite-level ideals look like curves.

A level-n ideal J (generators plus the implicit block M^n) belongs to the
truncation set when some linear form L keeps dim R/(J+(L)) <= e0 and
multiplies the graded slices isomorphically.  Members obey a structure
theorem: the initial ideal has no minimal generator in degrees
e0+1 .. n-1, so the part in degrees <= e0 already generates everything
visible below the level.
"""

from curvemoduli import (
    QQ,
    CellIndex,
    IdealPresentation,
    admissible_polys,
    admissible_range,
    cell_membership,
    jtilde,
    poly_str,
    shape_check,
    tn_membership,
)

e0, n = 3, 8
curve = IdealPresentation.parse(["x1^3 + x2^5"], 2, QQ, n)
cert = tn_membership(curve, n, e0)
print(f"J = (x1^3 + x2^5) + M^{n}")
print(f"  member: L = {poly_str(cert.L)}, length = {cert.length_with_L},"
      f" iso degrees {cert.iso_range}")

rep = shape_check(curve, n, e0)
print(f"  generator degrees of J*: {rep.vstar}; forbidden window hits: {rep.forbidden_degrees}")

tilde = jtilde(curve, n, e0)
print(f"  degree <= e0 generators: {[poly_str(g) for g in tilde.ideal.generators]}"
      f" (verified: {tilde.verified})")

# truncating a member keeps it a member, all the way down to e0+2
for n1 in range(e0 + 2, n + 1):
    res = tn_membership(curve.truncated(n1), n1, e0)
    print(f"  still a member at level {n1}: {bool(res)}")

# a punctual scheme is not a curve truncation: the slices have wrong size
fat_point = IdealPresentation.parse(["x1^2"], 2, QQ, 3)
print("fat point:", tn_membership(fat_point, 3, 1).detail)
print()

# admissible Hilbert polynomials per embedding dimension
for e in range(1, 7):
    print(f"e0 = {e}: admissible (b, e1) in ambient dimension 3: {admissible_polys(3, e)}")
r = admissible_range(4, 7)
print(f"embedding dimension 4, e0 = 7: e1 ranges over [{r.rho0}, {r.rho1}]")
print()

# cells of the level-n Grassmannian: the curve projects isomorphically onto
# the span of its standard monomials
plane = IdealPresentation.parse(["x1^2"], 2, QQ, 5)
cell = CellIndex([1, 2, 3], [4, 5], 1)
print("standard cell for (x1^2):", cell_membership(plane, 5, cell, 2))
print("cell with a dead monomial:", cell_membership(plane, 5, CellIndex([1, 2, 3], [5, 6], 1), 2))
