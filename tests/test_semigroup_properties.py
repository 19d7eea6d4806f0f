"""The semigroup invariants against independent computations.

`semigroup`'s gaps must be exactly the integers up to conductor +
min(gens) - 1 that are no sum of generators (checked by building every sum
of multiples of the generators); past them every integer is a sum, since
the run of min(gens) sums from the conductor on reaches every later one.
`valuation_h1` must equal the kernel route, `hilbert_from_param` on the
monomial branch t^gens, over QQ and GF(32003)."""

from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from curvemoduli.branches import (  # noqa: E402
    Parametrization, hilbert_from_param, semigroup, valuation_h1,
)
from curvemoduli.ringcore import GF, QQ  # noqa: E402


def coprime_generators(top):
    """Sets of 2-4 distinct generators in 1..top with gcd 1."""
    return st.lists(st.integers(1, top), min_size=2, max_size=4, unique=True).filter(
        lambda gens: gcd(*gens) == 1)


def sums_up_to(gens, limit):
    """Every sum of nonnegative multiples of the generators, up to limit."""
    sums = {0}
    for x in gens:
        sums = {s + k * x for s in sums for k in range((limit - s) // x + 1)}
    return sums


@settings(max_examples=200, deadline=None)
@given(coprime_generators(40))
def test_semigroup_matches_the_sums_of_generators(gens):
    sg = semigroup(gens)
    limit = sg.conductor + min(gens) - 1
    sums = sums_up_to(gens, limit)
    assert sg.generators == sorted(gens)
    assert sg.gaps == [v for v in range(limit + 1) if v not in sums]
    assert (sg.delta, sg.conductor) == (len(sg.gaps), sg.gaps[-1] + 1 if sg.gaps else 0)


@settings(max_examples=60, deadline=None)
@given(coprime_generators(15), st.integers(3, 6), st.sampled_from([QQ, GF(32003)]))
def test_valuation_count_equals_the_kernel_route(gens, level, field):
    P = Parametrization.parse([[f"t^{g}" for g in gens]], level * max(gens), field)
    assert valuation_h1(gens, level - 1) == hilbert_from_param(P, level).values
