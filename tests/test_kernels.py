"""The low-level kernels: normalisation, and the product of packed
monomial keys against sign and exponent oracles."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superflag
from superflag.ring import CONSTANT, MAX_EXPONENT, W, RingContext, \
    SuperPoly, add_monomial_product
from superflag.scalars import Q_ONE, FieldScalar, q_mul, q_neg, q_normalize

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


#: A ring with four even and five odd variables, for the monomials below.
RING = RingContext()
RING.evens("x0", "x1", "x2", "x3")
RING.odds("t0", "t1", "t2", "t3", "t4")


def _odd_part(ids):
    return sum(1 << i for i in ids)


def _product(left, right):
    """The term dict of the product of two monomials of RING, each given
    as a packed key with coefficient 1."""
    terms = {}
    add_monomial_product(terms, {left: Q_ONE}, *right, Q_ONE, 1, RING._guard)
    return terms


def test_product_sign_is_the_permutation_sign():
    """Interleaving two ascending runs of odd ids costs the inversion-count
    sign of their concatenation; the odd parts are or-ed, and the even
    parts, here one x0 on each side, add."""
    base = frozenset(range(5))
    subsets = [tuple(sorted(s)) for s in _powerset(base)]
    for u in subsets:
        rest = base - set(u)
        for v in (tuple(sorted(rest)), tuple(sorted(rest))[:2]):
            got = _product((1, _odd_part(u)), (1, _odd_part(v)))
            sign = _permutation_sign(u + v)
            assert got == {(2, _odd_part(u + v)):
                           Q_ONE if sign > 0 else q_neg(Q_ONE)}, (u, v)


def _powerset(items):
    out = [frozenset()]
    for x in items:
        out.extend([s | {x} for s in out])
    return out


def test_product_with_a_repeated_odd_id_is_zero():
    assert _product((0, _odd_part([1])), (0, _odd_part([1]))) == {}
    assert _product((0, _odd_part([1, 2])), (0, _odd_part([2]))) == {}
    assert _product((5, _odd_part([0, 4])), (7, _odd_part([3, 4]))) == {}


def test_product_adds_exponents():
    """x0^2 x3 times x0 x2^4 is x0^3 x2^4 x3, and the constant monomial is
    the unit of the product."""
    p = 2 + (1 << 3 * W)
    q = 1 + (4 << 2 * W)
    assert _product((p, 0), (q, 0)) == {(3 + (4 << 2 * W) + (1 << 3 * W), 0):
                                        Q_ONE}
    assert _product(CONSTANT, (p, 0)) == {(p, 0): Q_ONE}
    assert _product((p, 0), CONSTANT) == {(p, 0): Q_ONE}


def test_product_past_the_largest_exponent_raises():
    """An exponent may reach MAX_EXPONENT; a product past it raises
    ValueError rather than carry into the next variable's field, whichever
    variable it is and on whichever side the large power stands."""
    x0, x1, x2 = (RING.var(n) for n in ("x0", "x1", "x2"))
    top = SuperPoly._new(RING, {(MAX_EXPONENT << W, 0): Q_ONE})   # x1^max
    below = SuperPoly._new(RING, {((MAX_EXPONENT - 1) << W, 0): Q_ONE})
    assert (below * x1).render() == f"x1^{MAX_EXPONENT}"
    assert (top * x0 * x2).render() == f"x0*x1^{MAX_EXPONENT}*x2"
    for left, right in ((top, x1), (x1, top), (top * x0, x1 * x2),
                        (top, below)):
        with pytest.raises(ValueError, match=str(MAX_EXPONENT)):
            left * right
    assert MAX_EXPONENT == (1 << (W - 1)) - 1
