"""Exact arithmetic in Q(i, sqrt2)."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superflag.scalars import (
    FieldScalar,
    I,
    I_SQRT2,
    INV_SQRT2,
    ONE,
    Q_MINUS_ONE,
    Q_ONE,
    Q_ZERO,
    SQRT2,
    ZERO,
    add_scaled,
    q_add,
    q_mul,
    q_neg,
    q_normalize,
)

from oracles import fraction_render, to_complex

rationals = st.fractions(
    min_value=-6, max_value=6, max_denominator=5
)
scalars = st.builds(FieldScalar, rationals, rationals, rationals, rationals)
nonzero_scalars = scalars.filter(lambda x: not x.is_zero())


def test_basis_relations():
    assert I * I == -ONE
    assert SQRT2 * SQRT2 == FieldScalar(2)
    assert I_SQRT2 == I * SQRT2
    assert I_SQRT2 * I_SQRT2 == FieldScalar(-2)
    assert INV_SQRT2 * SQRT2 == ONE


def test_known_inverses():
    assert I.inverse() == -I
    assert FieldScalar(1, 1).inverse() == FieldScalar(Fraction(1, 2), Fraction(-1, 2))
    assert SQRT2.inverse() == INV_SQRT2
    # 1/(1 + sqrt2) = -1 + sqrt2
    assert FieldScalar(1, 0, 1).inverse() == FieldScalar(-1, 0, 1)


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_division_and_pow():
    x = FieldScalar(3, -2, 1, Fraction(1, 2))
    assert x / x == ONE
    assert x ** 0 == ONE
    assert x ** 3 == x * x * x
    assert x ** -2 == (x * x).inverse()
    assert ONE / SQRT2 == INV_SQRT2


def test_render_golden():
    assert ZERO.render() == "0"
    assert ONE.render() == "1"
    assert (-ONE).render() == "-1"
    assert I.render() == "i"
    assert SQRT2.render() == "r2"
    assert FieldScalar(Fraction(1, 2)).render() == "1/2"
    assert FieldScalar(1, 1).render() == "1 + i"
    assert FieldScalar(0, 0, 0, Fraction(-1, 2)).render() == "-1/2*i*r2"


# Parts of a field tuple: zero, small and up to 40 digits, of either sign.
tuple_parts = st.one_of(st.just(0), st.integers(-60, 60),
                        st.integers(-10**40, 10**40))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(tuple_parts, tuple_parts, tuple_parts, tuple_parts,
       st.one_of(st.integers(1, 12), st.integers(1, 10**6)))
def test_render_matches_fraction_text(a, b, c, d, den):
    """The text written from the tuple's integers is the text of its four
    parts as Fractions."""
    q = q_normalize(a, b, c, d, den)
    assert FieldScalar.from_q(q).render() == fraction_render(q)


def test_hash_agrees_with_equality():
    assert FieldScalar(1) == 1 and len({FieldScalar(1), 1}) == 1
    assert hash(ZERO) == hash(0)
    assert hash(FieldScalar(Fraction(-3, 2))) == hash(Fraction(-3, 2))
    assert {Fraction(1, 2): "half"}[FieldScalar(Fraction(1, 2))] == "half"


@settings(max_examples=60, derandomize=True)
@given(st.tuples(*[st.integers(-50, 50)] * 4), st.integers(0, 4))
def test_int_arguments_match_fraction_arguments(ints, count):
    """The all-int constructor path gives the same value, hash and text as
    the Fraction path, for any number of given components."""
    args = ints[:count]
    a = FieldScalar(*args)
    b = FieldScalar(*[Fraction(v) for v in args])
    assert a.q == b.q and a == b and hash(a) == hash(b)
    assert a.render() == b.render()


def test_parse_round_trip_examples():
    for text in ["0", "1", "-1", "i", "r2", "1/2", "1 + i", "-1/2*i*r2",
                 "2 - 3*i + 1/2*r2 - 5*i*r2"]:
        assert FieldScalar.parse(text).render() == text


def test_parse_factor_grammar():
    """A rational factor is an integer, a decimal or p/q, as ``Fraction``
    reads them, but with no exponent, digit separator or non-ASCII digit."""
    for text in ["12", "3/4", "0.25", ".5", "5.", "2*-3", "1/2*i", "007"]:
        expected = FieldScalar(1)
        for factor in text.split("*"):
            expected = expected * (I if factor == "i"
                                   else FieldScalar(Fraction(factor)))
        assert FieldScalar.parse(text) == expected, text
    for text in ["1e3", "1E3", "1.5e-2", "1_0", "1/2_0", "\u0661", "1/", "/2",
                 ".", "1.5/2", "0x10", "inf", "nan"]:
        with pytest.raises(ValueError):
            FieldScalar.parse(text)


@given(scalars, scalars, scalars)
@settings(max_examples=200, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(nonzero_scalars)
@settings(max_examples=200, deadline=None)
def test_inverse_is_two_sided(a):
    assert a * a.inverse() == ONE
    assert a.inverse() * a == ONE


@given(scalars)
@settings(max_examples=200, deadline=None)
def test_parse_render_round_trip(a):
    assert FieldScalar.parse(a.render()) == a


@given(scalars)
@settings(max_examples=100, deadline=None)
def test_numeric_embedding_consistent(a):
    b = to_complex(a)
    c = to_complex(a * a)
    assert abs(b * b - c) < 1e-9


def test_add_scaled_matches_the_plain_sum():
    """add_scaled, which adds or subtracts without a multiplication for a
    factor of 1 or -1, gives the dict of the loop that multiplies every
    value, adds it in and then drops the zeros; a sum that cancels
    leaves nothing behind."""
    rng = random.Random(20261020)

    def random_q():
        return q_normalize(*(rng.randint(-3, 3) for _ in range(4)),
                           rng.choice((1, 2, 3)))

    def random_dict():
        return {k: q for k in rng.sample(range(8), rng.randint(0, 6))
                if (q := random_q()) != Q_ZERO}

    for _ in range(300):
        target, src = random_dict(), random_dict()
        factor = rng.choice((Q_ONE, Q_MINUS_ONE, random_q()))
        plain = dict(target)
        for k, y in src.items():
            plain[k] = q_add(plain.get(k, Q_ZERO), q_mul(factor, y))
        plain = {k: q for k, q in plain.items() if q != Q_ZERO}
        add_scaled(target, src, factor)
        assert target == plain
    for factor in (Q_ONE, Q_MINUS_ONE, random_q()):
        src = random_dict()
        target = {k: q_neg(q_mul(factor, y)) for k, y in src.items()}
        add_scaled(target, src, factor)
        assert target == {}


# The basis 1, i, r2, i*r2 of Q(i, sqrt2) as exponent pairs (of i, of r2).
_BASIS = ((0, 0), (1, 0), (0, 1), (1, 1))


def _fraction_product(x, y):
    """x*y for elements given as four Fraction components on ``_BASIS``,
    multiplied basis element by basis element with i^2 = -1 and r2^2 = 2.
    Shares no code with ``superflag.scalars``."""
    out = [Fraction(0)] * 4
    for (p1, s1), u in zip(_BASIS, x):
        for (p2, s2), v in zip(_BASIS, y):
            p, s = p1 + p2, s1 + s2
            scale = (-1) ** (p // 2) * 2 ** (s // 2)
            out[_BASIS.index((p % 2, s % 2))] += scale * u * v
    return out


def _fraction_tuple(parts):
    """The normal 5-tuple of four Fraction components: the least common
    denominator and the numerators over it."""
    den = math.lcm(*(f.denominator for f in parts))
    return tuple(int(f * den) for f in parts) + (den,)


def test_q_mul_matches_a_fraction_oracle():
    """q_mul, with its fast path for two rationals, equals the product
    formed on Fraction components for every pairing of zeros, integers
    (negatives among them), rationals with other denominators and
    elements with radical parts, and reduces a rational product to
    lowest terms."""
    rng = random.Random(20261020)

    def draw(kind):
        if kind == "zero":
            return [Fraction(0)] * 4
        if kind == "int":
            return [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9))] \
                + [Fraction(0)] * 3
        if kind == "rational":
            return [Fraction(rng.randint(-9, 9), rng.randint(2, 12))] \
                + [Fraction(0)] * 3
        parts = [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 4, 6)))
                 for _ in range(4)]
        parts[rng.randint(1, 3)] = Fraction(rng.choice((-3, -1, 1, 2)),
                                            rng.choice((1, 2)))
        return parts

    kinds = ("zero", "int", "rational", "algebraic")
    reduced = 0
    for kx in kinds:
        for ky in kinds:
            for _ in range(40):
                fx, fy = draw(kx), draw(ky)
                x, y = _fraction_tuple(fx), _fraction_tuple(fy)
                got = q_mul(x, y)
                assert got == _fraction_tuple(_fraction_product(fx, fy)), \
                    (x, y)
                reduced += got[4] < x[4] * y[4]
    assert reduced
