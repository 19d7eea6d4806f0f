"""Exact arithmetic in the subring Z[L, L^-1] of the Grothendieck ring of
varieties, the non-archimedean filtration norm, rational motivic Poincare
series, cylinder-measure normalization, point-count specialization, and
partial motivic volumes.

General variety classes are deliberately not represented: every formula in
scope multiplies an input class by powers of L, so Laurent polynomials in L
with integer coefficients suffice.  Classes of enumerated strata enter
either symbolically or as polynomials fitted from point counts over a few
finite fields; the fit is labeled the heuristic it is.
"""

from collections import namedtuple
from fractions import Fraction

from .ringcore import _TOKEN, QQ, Echelon, check_ints


class MotivicClass:
    """Laurent polynomial in L with integer coefficients (sparse, exact)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        coeffs = coeffs or {}
        check_ints(coeffs, "exponent of L")
        check_ints(coeffs.values(), "coefficient of L")
        self.coeffs = {e: c for e, c in coeffs.items() if c}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def L(cls, exponent=1):
        return cls({exponent: 1})

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return MotivicClass(out)

    def __neg__(self):
        return MotivicClass({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return MotivicClass(out)

    def scale(self, n):
        return MotivicClass({e: c * n for e, c in self.coeffs.items()})

    def shift(self, k):
        """Multiply by L^k."""
        return MotivicClass({e + k: c for e, c in self.coeffs.items()})

    def order(self):
        """Filtration order: -(largest exponent); None for the zero class."""
        if not self.coeffs:
            return None
        return -max(self.coeffs)

    def norm(self):
        """2^(-order); the zero class has norm 0."""
        if not self.coeffs:
            return Fraction(0)
        return Fraction(2) ** -self.order()

    def specialize(self, q):
        """Point-count realization L -> q (exact; rational for negative powers)."""
        if q < 2:
            raise ValueError("specialization needs q >= 2")
        total = Fraction(0)
        for e, c in self.coeffs.items():
            total += c * (Fraction(q) ** e)
        return int(total) if total.denominator == 1 else total

    def __eq__(self, other):
        return isinstance(other, MotivicClass) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __str__(self):
        if not self.coeffs:
            return "0"
        pieces = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            if e == 0:
                body = str(abs(c))
            else:
                lpow = "L" if e == 1 else f"L^{e}"
                body = lpow if abs(c) == 1 else f"{abs(c)}*{lpow}"
            if not pieces:
                pieces.append(("-" if c < 0 else "") + body)
            else:
                pieces.append((" - " if c < 0 else " + ") + body)
        return "".join(pieces)

    def __repr__(self):
        return f"MotivicClass({self})"


class MeasureContext(namedtuple("MeasureContext", "n_vars e0")):
    """Ambient data for the cylinder measure: fibration rank c = (N-1)e0."""

    __slots__ = ()

    @property
    def c(self):
        if self.n_vars < 1:
            raise ValueError("N must be >= 1")
        if self.e0 < 1:
            raise ValueError("e0 must be >= 1")
        return (self.n_vars - 1) * self.e0


def measure_of_level(class_n, n, ctx):
    """mu_p at level n: the stratum class times L^{-(n+1)(N-1)e0}."""
    return class_n.shift(-(n + 1) * ctx.c)


class RationalSeries:
    """num(T) / prod (1 - L^a T^b): exact, expandable to any order.

    The representation is not unique; equality is decided by comparing the
    cross-multiplied numerators.
    """

    def __init__(self, numerator, denominator=()):
        check_ints(numerator, "exponent of T")
        for k, v in numerator.items():
            if not isinstance(v, MotivicClass):
                raise TypeError(f"coefficient of T^{k} must be a MotivicClass, got {v!r}")
        self.numerator = {k: v for k, v in numerator.items() if not v.is_zero()}
        den = [(a, b) for a, b in denominator]
        check_ints((x for factor in den for x in factor), "exponent of (1 - L^a T^b)")
        if any(b < 1 or a < 0 for a, b in den):
            raise ValueError("denominator factors are (1 - L^a T^b) with a >= 0, b >= 1")
        self.denominator = tuple(sorted(den))

    def expand(self, k):
        """Taylor coefficients in T up to T^k (k >= 0), exactly."""
        if k < 0:
            raise ValueError(f"expansion order must be >= 0, got {k}")
        coeffs = [self.numerator.get(i, MotivicClass.zero()) for i in range(k + 1)]
        for a, b in self.denominator:
            # multiply by the geometric series of (1 - L^a T^b)^{-1}
            out = [MotivicClass.zero() for _ in range(k + 1)]
            for i in range(k + 1):
                if coeffs[i].is_zero():
                    continue
                j = i
                power = 0
                while j <= k:
                    out[j] = out[j] + coeffs[i].shift(a * power)
                    j += b
                    power += 1
            coeffs = out
        return coeffs

    def denominator_poly(self):
        poly = {0: MotivicClass.one()}
        for a, b in self.denominator:
            out = {}
            for i, c in poly.items():
                out[i] = out.get(i, MotivicClass.zero()) + c
                out[i + b] = out.get(i + b, MotivicClass.zero()) - c.shift(a)
            poly = {i: c for i, c in out.items() if not c.is_zero()}
        return poly

    def __eq__(self, other):
        if not isinstance(other, RationalSeries):
            return NotImplemented
        left = _poly_mul(self.numerator, other.denominator_poly())
        right = _poly_mul(other.numerator, self.denominator_poly())
        return left == right

    def __str__(self):
        num = " + ".join(
            f"({self.numerator[i]})*T^{i}" if i else f"({self.numerator[i]})"
            for i in sorted(self.numerator)
        ) or "0"
        if not self.denominator:
            return num
        den = "".join(
            f"(1 - {'L^%d' % a + '*' if a else ''}T{'^%d' % b if b > 1 else ''})"
            for a, b in self.denominator
        ).replace("L^1*", "L*")
        return f"({num}) / {den}"

    def to_json(self):
        return {
            "numerator": {str(i): str(c) for i, c in sorted(self.numerator.items())},
            "denominator": [[a, b] for a, b in self.denominator],
        }


def _poly_mul(p1, p2):
    out = {}
    for i, a in p1.items():
        for j, b in p2.items():
            k = i + j
            out[k] = out.get(k, MotivicClass.zero()) + a * b
    return {k: v for k, v in out.items() if not v.is_zero()}


def mps(class0, n0, ctx):
    """Motivic Poincare series of a finitely determined property.

    Closed form: class0 * L^{c n0} T^{n0} / (1 - L^c T), with c the
    fibration rank; expansion coefficients gain a factor L^c per step.
    """
    if n0 < 1:
        raise ValueError("n0 must be >= 1")
    c = ctx.c
    if class0.is_zero():
        return RationalSeries({}, [])
    return RationalSeries({n0: class0.shift(c * n0)}, [(c, 1)])


def volume_partial(terms):
    """Partial motivic volume: sum of term(s) * L^{-s} for the given s.

    Also returns the norm bound 2^-(S+1-D) on the omitted tail, where S is
    the largest s supplied and D is the largest L-degree of the supplied
    term classes.  The bound assumes tail terms obey the same degree bound;
    that assumption is the caller's.
    """
    total = MotivicClass.zero()
    if not terms:
        return total, Fraction(0)
    S = max(terms)
    D = max(
        (max(cls.coeffs) for cls in terms.values() if not cls.is_zero()),
        default=0,
    )
    for s, cls in terms.items():
        if s < 0:
            raise ValueError("term indices are s >= 0")
        total = total + cls.shift(-s)
    return total, Fraction(2) ** (D - S - 1)


def parse_motivic(text):
    """Parse a Laurent polynomial in L: e.g. "3*L^2 - L + 1 + 2*L^-1".

        class := ("-" term | term) (("+" | "-") term)*
        term  := uint ("*"? "L" ("^" int)?)? | "L" ("^" int)?
        int   := ("+" | "-")? uint       (no space after the sign)

    Tokens, the token stack and error positions are as in `ringcore.parse_poly`.
    """
    toks = [("", len(text))] + [(m.group(), m.start()) for m in _TOKEN.finditer(text)][::-1]
    if len(toks) == 1:
        raise ValueError("empty class")
    if toks[-1][0] == "+":
        raise ValueError("unexpected leading '+'")
    if toks[-1][0] != "-":
        toks.append(("+", None))  # the first term's sign is optional
    out, defect = {}, None
    while len(toks) > 1:
        sign = 1 if toks.pop()[0] == "+" else -1
        coeff, exp, star = 1, 0, False
        numbered = toks[-1][0].isdecimal()
        if numbered:
            coeff = int(toks.pop()[0])
            star = toks[-1][0] == "*"
            if star:
                toks.pop()
        if toks[-1][0] == "L":
            toks.pop()
            exp = 1
            if toks[-1][0] == "^":
                toks.pop()
                tok, at = toks.pop()
                if tok in ("+", "-") and toks[-1][1] == at + 1:
                    tok += toks.pop()[0]
                if not tok.lstrip("+-").isdecimal():
                    raise ValueError(f"expected an integer at position {at} in {text!r}")
                exp = int(tok)
        elif star or not numbered:
            what = "'L' after '*'" if star else "a term"
            defect = defect or f"expected {what} at position {toks[-1][1]}"
        tok, at = toks[-1]
        if tok not in ("", "+", "-"):
            raise ValueError(f"expected '+' or '-' at position {at} in {text!r}")
        out[exp] = out.get(exp, 0) + sign * coeff
    if defect:  # raised last, so a syntax error further on is reported first
        raise ValueError(f"{defect} in {text!r}")
    return MotivicClass(out)


def fit_class_from_counts(counts, max_degree):
    """Heuristic: fit a polynomial in L through point counts at several q.

    Needs at least two distinct fields, and at least max_degree+1 for the
    full degree (the degree is lowered otherwise, with a warning); uses the
    lowest-degree exact interpolation through all counts.  Returns the
    class and a list of warnings; a non-integral or non-reproducing fit
    raises instead, since emitting a wrong class silently would poison
    everything above.  An exactly determined fit (degree+1 counts)
    reproduces any data, so it is returned with a warning that no count
    was left to check it.
    """
    qs = sorted(counts)
    if len(qs) < 2:
        raise ValueError("need counts for at least two fields")
    degree = min(max_degree, len(qs) - 1)
    warnings = [
        "polynomial point-count behavior is an assumption, not a verified fact"
    ]
    if degree < max_degree:
        warnings.append(
            f"fit degree lowered to {degree}: only {len(qs)} fields supplied"
        )
    n = degree + 1
    if len(qs) == n:
        warnings.append("every count was used by the fit: none is left to check the class")
    # the Vandermonde rows [1, q, .., q^degree | count] are independent, so
    # reduced row j is e_j + c_j e_n with c_j the coefficient of L^j
    ech = Echelon(QQ)
    for q in qs[:n]:
        row = {j: x for j in range(n) if (x := Fraction(q) ** j)}
        if counts[q]:
            row[n] = Fraction(counts[q])
        ech.add(row)
    sol = [ech.rows[j].get(n, Fraction(0)) for j in range(n)]
    if any(c.denominator != 1 for c in sol):
        raise ValueError(f"fit is not integral: {sol}")
    cls = MotivicClass({j: int(c) for j, c in enumerate(sol)})
    for q in qs:
        if cls.specialize(q) != counts[q]:
            raise ValueError(
                f"no degree-{degree} polynomial reproduces all counts"
                f" (fails at q = {q})"
            )
    return cls, warnings
