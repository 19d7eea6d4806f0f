"""Exact coefficient fields, monomials, truncated multivariate polynomials,
and per-degree exact linear algebra.

Everything here is exact: coefficients are `fractions.Fraction` over the
rationals or plain ints modulo a prime.  A `TruncatedPoly` is a sparse term
map carried modulo a power M^n of the maximal ideal M = (x1,...,xN); the
truncation level is explicit everywhere and no operation silently extends
precision.  All values are immutable after construction.

Rational arithmetic is loaded on first use: `fractions` (with `decimal`
and `numbers`) is imported when the first characteristic-0 `Field` is
built, and `QQ` is built on its first access (PEP 562).  So a job over
GF(p), or one that computes with ints only, never imports it; the parser
builds a `Fraction` only at a '/'.
"""

import re
from bisect import bisect_left
from functools import lru_cache
from math import comb, gcd
from operator import add


class ParseError(ValueError):
    """Syntax or range error in the polynomial DSL, with a position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class LevelError(ValueError):
    """Mismatched or insufficient truncation level / ambient / field."""


# The first 13 primes.  Miller-Rabin to all of them is exact below
# PRIME_LIMIT, the least strong pseudoprime to every one of them
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2015).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin for 0 <= n < PRIME_LIMIT."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Exact coefficient field: the rationals (char 0) or F_p (char p prime).

    Elements are `Fraction` values for char 0 and ints in [0, p) otherwise.
    `of` is the one place where a coefficient enters the field: arithmetic
    on coefficients uses the native operators of int and Fraction, and
    `TruncatedPoly` coerces the result once, on construction.

    The characteristic must be an int: 0, or a prime below PRIME_LIMIT,
    where the primality test is exact.  Building a char-0 field imports
    `Fraction` into this module, so that every char-0 branch here, which
    runs only with such a field, reads it as a module global; unpickling
    a field builds it anew for the same reason.
    """

    __slots__ = ("char",)

    def __init__(self, char=0):
        check_ints((char,), "characteristic")
        if char == 0:
            global Fraction
            from fractions import Fraction
        elif char >= PRIME_LIMIT:
            raise ValueError(f"characteristic must be below {PRIME_LIMIT}, got {char}")
        elif not _is_prime(char):
            raise ValueError(f"characteristic must be 0 or prime, got {char}")
        self.char = char

    def __reduce__(self):
        return Field, (self.char,)

    def zero(self):
        return Fraction(0) if self.char == 0 else 0

    def one(self):
        return Fraction(1) if self.char == 0 else 1

    def of(self, value):
        """Coerce an int or Fraction into the field; anything else (a float,
        a string) is a TypeError, so no inexact value ever enters."""
        if self.char == 0:
            if isinstance(value, (int, Fraction)):
                return Fraction(value)
        elif isinstance(value, int):
            return value % self.char
        else:
            import fractions  # a Fraction may predate every char-0 field

            if isinstance(value, fractions.Fraction):
                den = value.denominator % self.char
                if den == 0:
                    raise ZeroDivisionError(f"denominator divisible by {self.char}")
                return value.numerator * pow(den, -1, self.char) % self.char
        raise TypeError(f"coefficient must be an int or a Fraction, got {type(value).__name__}")

    def __eq__(self, other):
        return isinstance(other, Field) and self.char == other.char

    def __hash__(self):
        return hash(("Field", self.char))

    def __repr__(self):
        return "QQ" if self.char == 0 else f"GF({self.char})"


def __getattr__(name):
    """`QQ`, built on its first access and then kept as a module global."""
    if name != "QQ":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global QQ
    QQ = Field(0)
    return QQ


def GF(p):
    """The finite field F_p.  p = 0 is refused here, since `Field(0)` is QQ;
    every other p is checked by `Field`, with its own message."""
    if p == 0 and type(p) is int:
        raise ValueError(f"GF(p) needs a prime p, got {p}")
    return Field(p)


def check_n_vars(n_vars):
    """An ambient has at least one variable."""
    if n_vars < 1:
        raise ValueError("N must be >= 1")


def check_e0(e0):
    """A curve has multiplicity e0 >= 1."""
    if e0 < 1:
        raise ValueError("e0 must be >= 1")


def check_ints(values, what):
    """Reject the first of `values` that is not an int (a float, a Fraction,
    a string) with a TypeError naming it: such input is never coerced."""
    for value in values:
        if type(value) is not int:
            raise TypeError(f"{what} must be an int, got {value!r}")


# ---------------------------------------------------------------------------
# Monomials.  A monomial is a tuple of exponents; the total order is degree
# first, then natural tuple comparison (so within a degree x_N is smallest
# and x_1 largest).  Printing uses the descending order.


def mono_mul(a, b):
    return tuple(map(add, a, b))


def deglex_key(m):
    return (sum(m), m)


def monomials_of_degree(n_vars, d):
    """All exponent tuples of total degree d, ascending in the term order."""
    check_n_vars(n_vars)
    if n_vars == 1:
        return [(d,)]
    out = []
    def rec(prefix, rest, remaining):
        if rest == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining + 1):
            rec(prefix + (e,), rest - 1, remaining - e)
    # enumerate with the FIRST variable's exponent ascending: that is exactly
    # ascending tuple order
    rec((), n_vars, d)
    return out


def count_monomials_upto(n_vars, max_deg_inclusive):
    """Number of monomials of degree <= max_deg_inclusive (= dim R/M^{d+1})."""
    if max_deg_inclusive < 0:
        return 0
    return comb(n_vars + max_deg_inclusive, n_vars)


class MonomialTable:
    """Index of all monomials of degree < level, ascending deg-then-lex.

    Provides the column numbering used by every echelon computation: columns
    of a common degree are contiguous, lower degrees first.

    Each column also has a packed key: key(m) = sum of e_i * B^(N-1-i) over
    the exponents e_i of m, in base B = level, so the exponents are the
    digits of key(m).  `keys[col]` is the key of a column and `col_of_key`
    maps it back.  Every monomial the table holds has all exponents below
    level <= B, so for a product m*a in the table the digit sums do not
    carry and key(m*a) = key(m) + key(a): the columns of a multiple are
    found by one int addition per term.
    """

    def __init__(self, n_vars, level):
        check_n_vars(n_vars)
        self.n_vars = n_vars
        self.level = level
        self.monos = []
        self.offset = [0] * (level + 1)  # offset[d] = first index of degree d
        for d in range(level):
            self.offset[d] = len(self.monos)
            self.monos.extend(monomials_of_degree(n_vars, d))
        self.offset[level] = len(self.monos)
        self.keys = []
        for m in self.monos:
            k = 0
            for e in m:
                k = k * level + e
            self.keys.append(k)
        self.index = {m: i for i, m in enumerate(self.monos)}
        self.col_of_key = {k: i for i, k in enumerate(self.keys)}

    def degree_of_col(self, col):
        m = self.monos[col]
        return sum(m)

    def vector_of(self, poly):
        """Sparse column vector {index: coeff} of a TruncatedPoly, cut at
        the table's level: terms of degree >= level are dropped.  A
        polynomial known only below that level is refused, as by
        `truncate_to`."""
        index, level = self.index, self.level
        if poly.level < level:
            raise LevelError(f"cannot extend precision from {poly.level} to {level}")
        return {index[m]: c for m, c in poly.terms.items() if sum(m) < level}

    def poly_of(self, vec, field):
        """The TruncatedPoly over `field` of a sparse vector {column: coeff}
        of this table."""
        monos = self.monos
        return TruncatedPoly(self.n_vars, field, self.level, {monos[i]: c for i, c in vec.items()})

    def row_str(self, row, field):
        """`poly_str` of `poly_of(row, field)` for a row of nonzero elements
        of `field`, read straight off the row: the columns ascend in the
        term order, so its terms print in descending column order."""
        monos = self.monos
        return _terms_str([(_mono_text(monos[c], "x"), row[c]) for c in sorted(row, reverse=True)],
                          field)


@lru_cache(maxsize=64)
def monomial_table(n_vars, level):
    """The shared MonomialTable of (n_vars, level), kept for the 64 most
    recently used pairs."""
    return MonomialTable(n_vars, level)


# ---------------------------------------------------------------------------
# Truncated polynomials.


class TruncatedPoly:
    """Sparse polynomial over an exact field, a representative modulo M^level.

    Terms of degree >= level are discarded on construction, so arithmetic is
    automatically arithmetic in R/M^level.  The constructor is the one place
    where coefficients are reduced: it coerces each one with `Field.of` and
    drops the zeros, so the operations combine coefficients with the native
    int and Fraction operators and hand it the raw term map.  Instances are
    treated as immutable.
    """

    __slots__ = ("n_vars", "field", "level", "terms")

    def __init__(self, n_vars, field, level, terms=None):
        if level < 0:
            raise LevelError(f"level must be >= 0, got {level}")
        self.n_vars = n_vars
        self.field = field
        self.level = level
        coerce = field.of
        clean = {}
        for m, c in (terms or {}).items():
            if len(m) != n_vars:
                raise ValueError(f"monomial {m} does not have {n_vars} exponents")
            if sum(m) >= level:
                continue
            c = coerce(c)
            if c:
                clean[m] = c
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, n_vars, field, level):
        return cls(n_vars, field, level, {})

    @classmethod
    def constant(cls, value, n_vars, field, level):
        return cls(n_vars, field, level, {(0,) * n_vars: value})

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def _check_compatible(self, other):
        if (self.n_vars, self.field, self.level) != (other.n_vars, other.field, other.level):
            raise LevelError(
                f"incompatible operands: ({self.n_vars} vars, {self.field}, level {self.level})"
                f" vs ({other.n_vars} vars, {other.field}, level {other.level})"
            )

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return TruncatedPoly(self.n_vars, self.field, self.level, terms)

    def __neg__(self):
        return TruncatedPoly(self.n_vars, self.field, self.level,
                             {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_compatible(other)
        level = self.level
        acc = {}
        for m1, c1 in self.terms.items():
            d1 = sum(m1)
            for m2, c2 in other.terms.items():
                if d1 + sum(m2) < level:
                    m = mono_mul(m1, m2)
                    acc[m] = acc.get(m, 0) + c1 * c2
        return TruncatedPoly(self.n_vars, self.field, level, acc)

    def scale(self, c):
        return TruncatedPoly(self.n_vars, self.field, self.level,
                             {m: v * c for m, v in self.terms.items()})

    def mul_monomial(self, mono, coeff=None):
        """Multiply by coeff * x^mono (coeff 1 when None), re-truncating."""
        c = 1 if coeff is None else coeff
        cut = self.level - sum(mono)
        terms = {mono_mul(m, mono): v * c for m, v in self.terms.items() if sum(m) < cut}
        return TruncatedPoly(self.n_vars, self.field, self.level, terms)

    # -- structure ----------------------------------------------------------

    def order(self):
        """Degree of the lowest nonzero homogeneous part; None when zero."""
        if not self.terms:
            return None
        return min(sum(m) for m in self.terms)

    def homogeneous_part(self, d):
        return TruncatedPoly(
            self.n_vars, self.field, self.level,
            {m: c for m, c in self.terms.items() if sum(m) == d},
        )

    def truncate_to(self, level):
        if level > self.level:
            raise LevelError(f"cannot extend precision from {self.level} to {level}")
        if level == self.level:
            return self
        return TruncatedPoly(self.n_vars, self.field, level, self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedPoly)
            and self.n_vars == other.n_vars
            and self.field == other.field
            and self.level == other.level
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n_vars, self.field, self.level, frozenset(self.terms.items())))

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return f"TruncatedPoly({poly_str(self)!r}, N={self.n_vars}, {self.field}, level={self.level})"


def initial_form(f):
    """The homogeneous component of minimal degree of f (its initial form).

    The zero value has no initial form at this truncation level: all that is
    known is order(f) >= level, so we refuse rather than guess.
    """
    if f.is_zero():
        raise LevelError("order not determined below level: value is zero mod M^level")
    return f.homogeneous_part(f.order())


# ---------------------------------------------------------------------------
# DSL parsing and printing.  Both input languages, this one and the classes of
# `motivic.parse_motivic`, are read as the tokens of _TOKEN: a run of digits
# or one non-space character, so whitespace may stand between any two tokens.
# An error position is the start of a token, or len(text) at the end, and an
# error quotes the first character of the token it found.
#
#   poly    := ("-" term | factors) (sign term)*
#   term    := sign? factors
#   factors := coeff "*"? powprod | coeff | powprod
#   powprod := var ("^" uint)? ("*" var ("^" uint)?)*
#   var     := "x" uint          (1-based; a bare "t" in one-variable input)
#   coeff   := uint ("/" uint)?
#   sign    := "+" | "-"
#
# The sign that may open a term is one extra unary sign, so substituted
# coefficients like "+ -1*x2" stay grammatical.  Over F_p the denominator of
# a coefficient, in lowest terms, must be prime to p.

_TOKEN = re.compile(r"\d+|\S")


def parse_poly(text, n_vars, field, level, var="x"):
    """Parse the polynomial DSL into a TruncatedPoly (terms >= level dropped).
    An ambient without variables is rejected before the text is read."""
    check_n_vars(n_vars)
    # a stack: the next token is toks[-1], and the end ("", len(text)) stays
    toks = [("", len(text))] + [(m.group(), m.start()) for m in _TOKEN.finditer(text)][::-1]
    if len(toks) == 1:
        raise ParseError("empty polynomial", len(text))
    if toks[-1][0] == "+":
        raise ParseError("unexpected '+'", toks[-1][1])
    if toks[-1][0] != "-":
        toks.append(("+", None))  # the first term's sign is optional

    def number():
        tok, at = toks.pop()
        if not tok.isdecimal():
            raise ParseError("expected a number", at)
        return int(tok)

    def star():
        """Consume an optional '*', which a variable must follow."""
        found = toks[-1][0] == "*"
        if found:
            toks.pop()
            tok, at = toks[-1]
            if tok != var:
                raise ParseError(f"expected variable after '*', found {tok[:1]!r}", at)
        return found

    terms = {}
    while len(toks) > 1:
        tok, at = toks.pop()
        if tok not in ("+", "-"):
            raise ParseError(f"expected '+' or '-', found {tok[:1]!r}", at)
        coeff = 1 if tok == "+" else -1
        if toks[-1][0] in ("+", "-"):
            coeff = coeff if toks.pop()[0] == "+" else -coeff
        at, expo = toks[-1][1], [0] * n_vars
        seen = toks[-1][0].isdecimal()
        if seen:
            coeff *= number()
            if toks[-1][0] == "/":
                toks.pop()
                tok, den_at = toks[-1]
                den = number()
                if not den:
                    raise ParseError("zero denominator", den_at + len(tok))
                from fractions import Fraction

                coeff = Fraction(coeff, den)
            star()
        while toks[-1][0] == var:
            var_at = toks.pop()[1]
            idx = 1 if var == "t" else number()
            if not 1 <= idx <= n_vars:
                raise ParseError(f"variable index out of range: {var}{idx}", var_at)
            exp = 1
            if toks[-1][0] == "^":
                toks.pop()
                exp = number()
            expo[idx - 1] += exp
            seen = True
            if not star():
                break
        if not seen:
            raise ParseError(f"expected a term, found {toks[-1][0]!r}", at)
        if field.char and coeff.denominator % field.char == 0:
            raise ParseError(f"denominator divisible by {field.char}", at)
        mono = tuple(expo)
        terms[mono] = terms.get(mono, 0) + coeff
    return TruncatedPoly(n_vars, field, level, terms)


@lru_cache(maxsize=4096)
def _mono_text(m, var):
    """The factors of the monomial m as printed, e.g. "x1^2*x3" ("" for 1)."""
    factors = []
    for j, e in enumerate(m):
        if e == 0:
            continue
        name = "t" if var == "t" else f"x{j + 1}"
        factors.append(name if e == 1 else f"{name}^{e}")
    return "*".join(factors)


def poly_str(p, var="x"):
    """Canonical printing: decreasing deg-lex order, canonical signs."""
    terms = p.terms
    return _terms_str([(_mono_text(m, var), terms[m])
                       for m in sorted(terms, key=deglex_key, reverse=True)], p.field)


def _terms_str(terms, field):
    """The text of the (monomial text, nonzero coefficient) pairs `terms`,
    in the order given: a minus sign for a negative rational, no
    coefficient 1 before a monomial; "0" for no terms."""
    if not terms:
        return "0"
    pieces = []
    rational = field.char == 0
    for i, (mono, c) in enumerate(terms):
        neg = rational and c < 0
        mag = -c if neg else c
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = str(mag) + "*" + mono
        if i == 0:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append((" - " if neg else " + ") + body)
    return "".join(pieces)


# ---------------------------------------------------------------------------
# Exact sparse linear algebra.  Vectors are dicts {column: coeff}; columns
# come from a MonomialTable so that each degree occupies a contiguous block.


class Echelon:
    """A span of sparse vectors over an exact field, kept in echelon form.

    A row is a sparse dict {column: coeff} whose support starts at its pivot
    (its smallest column); rows are keyed by pivot.  `add` reduces the new
    vector against the stored rows and stores it with a normalized pivot; it
    does not clear the new pivot out of the earlier rows, so a stored row may
    still hold another row's pivot column.  Rank, pivots and the residual of
    `reduce` are the same for every echelon form of a span.  The reduced
    rows (unit pivot, zero at every other pivot column) are canonical:
    `rows` and `basis()` compute them by one back-substitution and keep them
    until the next `add`.

    Over GF(p) entries are ints in [1, p) and stored pivots are 1.  Over QQ
    stored rows are integer vectors with a positive pivot, eliminated
    fraction-free; `rows`, `basis()` and `reduce` give `Fraction` values.
    Input vectors hold nonzero field elements (over QQ, ints or Fractions)
    and are never modified.
    """

    def __init__(self, field):
        self.field = field
        self._rows = {}  # pivot column -> stored row
        self._reduced = None  # canonical rows once read, until the next add

    @property
    def rank(self):
        return len(self._rows)

    def pivots(self):
        """The pivot columns as a set-like view (no back-substitution)."""
        return self._rows.keys()

    @property
    def rows(self):
        """Canonical rows: pivot column -> reduced row with unit pivot."""
        if self._reduced is None:
            self._reduced = self._back_substitute()
        return self._reduced

    def basis(self):
        """Canonical rows sorted by pivot column."""
        rows = self.rows
        return [rows[p] for p in sorted(rows)]

    def _eliminate(self, vec):
        """(v, den): v is den times the residual of vec, integers over QQ."""
        p = self.field.char
        if p:
            v = dict(vec)
            _eliminate_mod_p(self._rows, v, p)
            return v, 1
        v, den = _integer_vector(vec)
        return v, den * _eliminate_int(self._rows, v)

    def reduce(self, vec):
        """The canonical residual of a vector modulo the span (a fresh dict):
        the one vec - s, s in the span, that vanishes at every pivot."""
        v, den = self._eliminate(vec)
        return {c: Fraction(x, den) for c, x in v.items()} if self.field.char == 0 else v

    def contains(self, vec):
        return not self._eliminate(vec)[0]

    def add(self, vec):
        """Insert a vector; returns True when the rank grew."""
        v = self._eliminate(vec)[0]
        if not v:
            return False
        piv = min(v)
        p = self.field.char
        if p:
            if v[piv] != 1:
                inv = pow(v[piv], -1, p)
                v = {c: x * inv % p for c, x in v.items()}
        else:
            g = gcd(*v.values())
            if v[piv] < 0:
                g = -g
            if g != 1:
                v = {c: x // g for c, x in v.items()}
        self._rows[piv] = v
        self._reduced = None
        return True

    def copy(self):
        dup = Echelon(self.field)
        dup._rows = {p: dict(r) for p, r in self._rows.items()}
        return dup

    def _back_substitute(self):
        """Reduce the stored rows in place, largest pivot first, so that each
        row is reduced against rows already reduced; return the canonical
        rows (the stored ones over GF(p), unit-pivot Fractions over QQ)."""
        rows = self._rows
        p = self.field.char
        for piv in sorted(rows, reverse=True):
            row = rows[piv]
            b = row.pop(piv)  # the rest lies right of piv: row piv is never used
            if p:
                _eliminate_mod_p(rows, row, p)
                row[piv] = b
            else:
                row[piv] = b * _eliminate_int(rows, row)
                g = gcd(*row.values())
                if g != 1:
                    rows[piv] = {c: x // g for c, x in row.items()}
        if p:
            return rows
        return {piv: {c: Fraction(x, row[piv]) for c, x in row.items()}
                for piv, row in rows.items()}


def _integer_vector(vec):
    """(v, den): the integer vector v = den * vec of a rational vector."""
    den = 1
    for x in vec.values():
        d = x.denominator
        if d != 1:
            den = den // gcd(den, d) * d
    return {c: x.numerator * (den // x.denominator) for c, x in vec.items()}, den


def _eliminate_mod_p(rows, v, p):
    """Reduce v in place modulo the span of `rows` over GF(p).  Pivot columns
    go smallest first off a heap: a row's support starts at its pivot, so a
    step only creates entries at larger columns."""
    heap = [c for c in v if c in rows]
    if not heap:
        return
    import heapq

    heapq.heapify(heap)
    pop, push, get = heapq.heappop, heapq.heappush, v.get
    while heap:
        col = pop(heap)
        a = get(col)
        if a is None:  # cancelled after it was queued
            continue
        for c, y in rows[col].items():
            x = get(c)
            if x is None:
                v[c] = -a * y % p
                if c in rows:
                    push(heap, c)
            else:
                x = (x - a * y) % p
                if x:
                    v[c] = x
                else:
                    del v[c]


def _eliminate_int(rows, v):
    """`_eliminate_mod_p` over the integers, fraction-free: each step sets
    v = b*v - a*row for the pivot entries a of v and b of the row, divided
    by their gcd.  Returns the product of the factors b: v ends as that
    product times the residual of the input."""
    heap = [c for c in v if c in rows]
    if not heap:
        return 1
    import heapq

    heapq.heapify(heap)
    pop, push, get = heapq.heappop, heapq.heappush, v.get
    scale = 1
    while heap:
        col = pop(heap)
        a = get(col)
        if a is None:
            continue
        row = rows[col]
        b = row[col]
        g = gcd(a, b)
        if g != 1:
            a, b = a // g, b // g
        if b != 1:
            scale *= b
            for c in v:
                v[c] *= b
        for c, y in row.items():
            x = get(c)
            if x is None:
                v[c] = -a * y
                if c in rows:
                    push(heap, c)
            else:
                x -= a * y
                if x:
                    v[c] = x
                else:
                    del v[c]
    return scale


def kernel_basis(seed, images, width):
    """Canonical basis, as dicts {j: c_j} in pivot order, of the combinations
    sum_j c_j * images[j] that lie in span(seed).

    `images` is an iterable of vectors with columns below `width`, read once.
    Each [images[j] | e_j] goes into a copy of `seed` with the identity block
    starting at `width`; a row pivoted in that block has no image part left
    modulo the seed, so those rows are the reduced echelon basis of the
    kernel.  `seed` is not modified.
    """
    ech = seed.copy()
    one = seed.field.one()
    for j, vec in enumerate(images):
        ech.add({**vec, width + j: one})
    rows = ech.rows
    return [{c - width: v for c, v in rows[piv].items()} for piv in sorted(rows) if piv >= width]


# ---------------------------------------------------------------------------
# Spans of monomial multiples: `multiples` is the one builder of x^a * p, for
# p a row over a MonomialTable, and `span_of_multiples` the one kernel of
# their spans.


def multiples(table, row, cols):
    """Yield x^a * row cut at `table.level`, a vector {column: coefficient},
    for each multiplier column a of `cols`, which ascend; a multiple cut away
    entirely is the empty vector.

    `row` is a vector over `table` and is read once, as (degree, key,
    coefficient) sorted by degree, so the terms kept in a multiple by x^a
    of degree d are a prefix, those of degree < level - d.  Each column is
    found by one int addition of packed keys, key(m*a) = key(m) + key(a)
    (see `MonomialTable`); the entries are the row's own coefficients, so a
    caller may reduce a multiple and read the residual as field values.
    """
    keys, col_of_key, offset, level = table.keys, table.col_of_key, table.offset, table.level
    terms = sorted((table.degree_of_col(c), keys[c], v) for c, v in row.items())
    degrees = [d for d, _, _ in terms]
    d = -1
    for col in cols:
        if col >= offset[d + 1]:  # the first multiplier of a higher degree
            d = table.degree_of_col(col)
            kept = [(k, v) for _, k, v in terms[:bisect_left(degrees, level - d)]]
        ka = keys[col]
        yield {col_of_key[k + ka]: v for k, v in kept}


def span_of_multiples(table, field, polys, lo=0):
    """Echelon span of all x^a * p, p in polys, |a| >= lo, cut at `table.level`.

    Multiples go in generator by generator, multiplier degree ascending.  The
    canonical rows do not depend on that order, but the cost does: on N=3
    complete intersections this order measured 3-6x cheaper than inserting
    all generators degree by degree.  The span before each generator is an
    ideal, so `_add_multiples` skips the multiples that it already accounts
    for.  Each polynomial becomes a row once (`MonomialTable.vector_of`,
    which cuts its terms at or above the level), and every insert goes
    through `Echelon.add`, the one place where a QQ row becomes integers.
    """
    ech = Echelon(field)
    for p in polys:
        _add_multiples(table, ech, table.vector_of(p), lo)
    return ech


def _add_multiples(table, ech, row, lo=0):
    """Insert x^a * row, |a| >= lo, into `ech`, multiplier column ascending,
    for `row` a vector over `table`; the multiples cut away entirely, and
    every one when lo is past the level, are not inserted.

    The caller guarantees that `ech` spans an ideal of R/M^n (the multiples
    x^b * q, |b| >= lo, of earlier rows q), and x^a * row is skipped when
    the column of x^a is a pivot of `ech` before the row: some g in the
    ideal has x^a as its lowest column, and x^a * row is a combination of
    g * row and of the x^m * row at later columns, so the span is unchanged
    (the proof is in the `idealcalc` module docstring).  The multiples keep
    the row's field elements; `Echelon` turns each QQ insert into integers.
    """
    if not row:
        return
    offset, level = table.offset, table.level
    top = level - table.degree_of_col(min(row))  # x^a * row is cut from degree top on
    pivots = ech.pivots()
    cols = [c for c in range(offset[min(lo, top)], offset[top]) if c not in pivots]
    for vec in multiples(table, row, cols):
        ech.add(vec)


def degree_block(table, ech, d):
    """The rows of `ech` pivoted in degree d, cut to degree d, as an Echelon.
    Row support starts at the pivot, so the cut rows are homogeneous and in
    echelon form; rows pivoted above degree d vanish there, so the cut
    stored rows span the same block as the cut canonical rows and the
    block's own `rows` are the canonical ones."""
    lo, hi = table.offset[d], table.offset[d + 1]
    block = Echelon(ech.field)
    block._rows = {piv: {c: v for c, v in row.items() if c < hi}
                   for piv, row in ech._rows.items() if lo <= piv < hi}
    return block
