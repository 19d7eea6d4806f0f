"""What a certified delta means: it is the codimension of the image of the
local ring at every higher t-precision.

Whenever `delta_from_param` answers at precision p, the components cut at
p + 30 (tails above p included) must give the same delta, and so must the
codimension at p + 30 of the least subspace of prod_b k[t]/(t^m) that holds
1 and is closed under multiplication by every coordinate.  `codimension`
builds that subspace by the same queue as the library's `branches._closure`,
written out here as the reference for the certificate: it checks the
precision rule, not the closure.  The closure itself is checked against a
span of every monomial image in `tests/test_branches.py::TestDelta`."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from curvemoduli.branches import (  # noqa: E402
    Parametrization, PrecisionError, delta_from_param,
)
from curvemoduli.ringcore import GF, QQ, Echelon, TruncatedPoly  # noqa: E402

TAIL = 30


def codimension(param):
    """dim prod_b k[t]/(t^m) minus the dimension of the image of the local
    ring, all branches at one precision m.  Each series that raises the rank
    queues its products with the coordinates; one already in the span has
    them in the span of the queued products, so the span ends closed."""
    branches, field = param.branches, param.field
    m = branches[0].precision

    def vector(series):
        return {b * m + k: c for b, s in enumerate(series) for (k,), c in s.terms.items()}

    span = Echelon(field)
    todo = [[TruncatedPoly.constant(1, 1, field, m) for _ in branches]]
    while todo:
        series = todo.pop()
        if span.add(vector(series)):
            todo += [[s * b.components[i] for s, b in zip(series, branches)]
                     for i in range(param.n_vars)]
    return len(branches) * m - span.rank


@st.composite
def parametrizations(draw):
    """(branch texts, precision p, field): 1-3 branches in N = 2-4 variables,
    each component a sum of up to two terms of exponent 1..4 and maybe one
    tail term of exponent p..p+29, which precision p cuts away."""
    n, r = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    p = draw(st.integers(10, 24))
    coefficient = st.integers(1, 4)
    term = st.tuples(coefficient, st.integers(1, 4))
    tail = st.lists(st.tuples(coefficient, st.integers(p, p + TAIL - 1)), max_size=1)
    component = st.builds(lambda low, high: low + high, st.lists(term, max_size=2), tail)
    branch = st.lists(component, min_size=n, max_size=n).filter(
        lambda comps: any(e < p for comp in comps for _, e in comp))
    branches = draw(st.lists(branch, min_size=r, max_size=r))
    texts = [[" + ".join(f"{c}*t^{e}" for c, e in comp) or "0" for comp in b]
             for b in branches]
    return texts, p, draw(st.sampled_from([QQ, GF(2), GF(3), GF(32003)]))


@settings(max_examples=150, deadline=None)
@given(parametrizations())
def test_a_certified_delta_holds_at_higher_precision(case):
    texts, p, field = case
    try:
        low = Parametrization.parse(texts, p, field)
    except ValueError:  # a branch with no nonzero component at precision p
        assume(False)
    try:
        delta = delta_from_param(low)
    except PrecisionError:
        return
    high = Parametrization.parse(texts, p + TAIL, field)
    assert delta_from_param(high) == delta
    assert codimension(high) == delta
