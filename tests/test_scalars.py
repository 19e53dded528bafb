"""Exact arithmetic in Q(i, sqrt2)."""

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
    import random

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
