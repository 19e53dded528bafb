"""The low-level kernels: normalisation and sign oracles."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import superflag
from superflag.ring import merge_odd, mul_even
from superflag.scalars import FieldScalar, q_mul, q_normalize

ints = st.integers(min_value=-40, max_value=40)
dens = st.integers(min_value=1, max_value=24)
qtuples = st.builds(q_normalize, ints, ints, ints, ints, dens)


def test_backend_exposed():
    assert superflag.BACKEND == "pure"


@given(qtuples)
@settings(max_examples=200, deadline=None)
def test_normalized_invariants(x):
    a, b, c, d, den = x
    assert den > 0
    if any((a, b, c, d)):
        assert math.gcd(math.gcd(abs(a), abs(b)),
                        math.gcd(abs(c), abs(d)), den) == 1
    else:
        assert den == 1


@given(qtuples, qtuples)
@settings(max_examples=200, deadline=None)
def test_mul_matches_field_scalar(x, y):
    def to_scalar(q):
        a, b, c, d, den = q
        return FieldScalar(Fraction(a, den), Fraction(b, den),
                           Fraction(c, den), Fraction(d, den))

    assert to_scalar(q_mul(x, y)) == to_scalar(x) * to_scalar(y)


def _gcd_reduced(a, b, c, d, den):
    """Lowest terms by the general rule: the sign moves to the numerators
    and all five integers are divided by their gcd."""
    if den < 0:
        a, b, c, d, den = -a, -b, -c, -d, -den
    g = math.gcd(a, b, c, d, den)
    return (a // g, b // g, c // g, d // g, den // g)


@given(st.lists(st.integers(min_value=-10**12, max_value=10**12),
                min_size=4, max_size=4),
       st.sampled_from([1, 1, 1, -1, 2, -6, 12]))
@settings(max_examples=300, deadline=None)
def test_normalize_matches_gcd_reduction(nums, den):
    """Integer entries (den == 1) skip the gcds; the result is still the
    gcd-reduced tuple, as it is for every other denominator."""
    assert q_normalize(*nums, den) == _gcd_reduced(*nums, den)


def _permutation_sign(perm):
    """(-1)^inversions, the anticommutation sign of sorting odd factors."""
    inversions = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def test_merge_odd_permutation_sign_oracle():
    """Interleaving two ascending runs costs the inversion-count sign of
    their concatenation."""
    base = frozenset(range(5))
    subsets = [tuple(sorted(s)) for s in _powerset(base)]
    for u in subsets:
        rest = base - set(u)
        for v in (tuple(sorted(rest)), tuple(sorted(rest))[:2]):
            sign, merged = merge_odd(u, v)
            assert merged == tuple(sorted(u + v))
            assert sign == _permutation_sign(u + v), (u, v)


def _powerset(items):
    out = [frozenset()]
    for x in items:
        out.extend([s | {x} for s in out])
    return out


def test_merge_odd_repeat_kills():
    assert merge_odd((1,), (1,)) == (0, ())
    assert merge_odd((1, 2), (2,))[0] == 0


def test_mul_even_merges_sorted_exponents():
    p = ((0, 2), (3, 1))
    q = ((0, 1), (2, 4))
    assert mul_even(p, q) == ((0, 3), (2, 4), (3, 1))
    assert mul_even((), p) == p
