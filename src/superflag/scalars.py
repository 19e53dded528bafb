"""Exact arithmetic in Q(i, sqrt2): FieldScalar and its tuple arithmetic.

Every coefficient in this package is an element of the field Q(i, sqrt2),
stored as a rational linear combination of the basis (1, i, sqrt2, i*sqrt2).
That field is closed under the arithmetic the package needs (inverses
included) and avoids any floating point.

Internally an element is a normalised 5-tuple of ints ``(a, b, c, d, den)``
meaning ``(a + b*i + c*sqrt2 + d*i*sqrt2)/den``, with ``den > 0`` and
``gcd(a, b, c, d, den) == 1``.  The ``q_*`` functions below are the field
operations on these tuples; polynomial code calls them directly on the
coefficients it stores, and :class:`FieldScalar` wraps one tuple.

Text form: ``a + b*i + c*r2 + d*i*r2`` with rational coefficients like
``-3/2``; ``r2`` stands for sqrt(2).  Examples: ``1/2 + 1/2*i``, ``-r2``,
``2*i*r2``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

Q_ZERO = (0, 0, 0, 0, 1)
Q_ONE = (1, 0, 0, 0, 1)


def q_normalize(a, b, c, d, den):
    """Reduce to lowest terms with a positive denominator."""
    if den == 1:
        return (a, b, c, d, 1)
    if den < 0:
        a, b, c, d, den = -a, -b, -c, -d, -den
    g = gcd(gcd(gcd(a, b), gcd(c, d)), den)
    if g > 1:
        return (a // g, b // g, c // g, d // g, den // g)
    return (a, b, c, d, den)


def q_add(x, y):
    a1, b1, c1, d1, n1 = x
    a2, b2, c2, d2, n2 = y
    if n1 == n2:
        return q_normalize(a1 + a2, b1 + b2, c1 + c2, d1 + d2, n1)
    return q_normalize(a1 * n2 + a2 * n1, b1 * n2 + b2 * n1,
                       c1 * n2 + c2 * n1, d1 * n2 + d2 * n1, n1 * n2)


def q_neg(x):
    a, b, c, d, den = x
    return (-a, -b, -c, -d, den)


def q_mul(x, y):
    a1, b1, c1, d1, n1 = x
    a2, b2, c2, d2, n2 = y
    return q_normalize(
        a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2),
        a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2),
        a1 * c2 + c1 * a2 - b1 * d2 - d1 * b2,
        a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
        n1 * n2,
    )


def q_inv(x):
    """Invert via two conjugations: first over i, then over sqrt(2).

    ``x * conj_i(x)`` has the form ``e + f*sqrt2`` with rational e, f, and
    ``(e + f*sqrt2)(e - f*sqrt2) = e^2 - 2 f^2`` is rational and nonzero for
    nonzero x (sqrt2 is irrational, and e > 0 unless x == 0).
    """
    a, b, c, d, den = x
    e = a * a + b * b + 2 * (c * c + d * d)
    if e == 0:
        raise ZeroDivisionError("inverse of zero field element")
    f = 2 * (a * c + b * d)
    g = e * e - 2 * f * f
    # conj_i(x) * (e - f*sqrt2), numerators only; den multiplies back in.
    return q_normalize(
        den * (a * e - 2 * c * f),
        den * (-b * e + 2 * d * f),
        den * (c * e - a * f),
        den * (-d * e + b * f),
        g,
    )


def signed_sum(summands):
    """The text of a sum of ``(negative, body)`` summands: ``-body`` or
    ``body`` first, then `` - body`` or `` + body``; ``0`` when empty.
    Every ``render`` in the package writes its sum here."""
    out = ""
    for negative, body in summands:
        if out:
            out += (" - " if negative else " + ") + body
        else:
            out = "-" + body if negative else body
    return out or "0"


def scaled(coeff, factor):
    """The ``(negative, body)`` summand of a coefficient, given as its text,
    times ``factor``.  A coefficient of 1 or -1 is left out, one with a space
    is bracketed, and a leading minus becomes the sign; with no factor the
    coefficient stands as it is, so a constant ``1 + i`` is not bracketed."""
    if not factor:
        return (True, coeff[1:]) if coeff.startswith("-") else (False, coeff)
    if coeff in ("1", "-1"):
        return coeff == "-1", factor
    if " " in coeff:
        return False, f"({coeff})*{factor}"
    if coeff.startswith("-"):
        return True, f"{coeff[1:]}*{factor}"
    return False, f"{coeff}*{factor}"


# One rational factor of a scalar literal: an integer, a decimal or p/q,
# with an optional sign.  This is the grammar of ``Fraction`` without its
# exponents and digit separators: ``1e1000000000`` would build an integer
# of a billion digits before any size cap could apply.
_RATIONAL = re.compile(
    r"\s*[-+]?(?:[0-9]+(?:/[0-9]+|\.[0-9]*)?|\.[0-9]+)\s*")


class FieldScalar:
    """An element a + b*i + c*sqrt2 + d*i*sqrt2 with rational a, b, c, d."""

    __slots__ = ("q",)

    def __init__(self, a=0, b=0, c=0, d=0):
        if type(a) is int and type(b) is int and type(c) is int \
                and type(d) is int:
            self.q = q_normalize(a, b, c, d, 1)
            return
        a, b, c, d = Fraction(a), Fraction(b), Fraction(c), Fraction(d)
        den = lcm(a.denominator, b.denominator, c.denominator, d.denominator)
        self.q = q_normalize(
            int(a * den), int(b * den), int(c * den), int(d * den), den
        )

    @classmethod
    def from_q(cls, q):
        obj = object.__new__(cls)
        obj.q = q
        return obj

    # -- component access -------------------------------------------------

    def components(self):
        """The (a, b, c, d) coordinates as Fractions."""
        a, b, c, d, den = self.q
        return (Fraction(a, den), Fraction(b, den),
                Fraction(c, den), Fraction(d, den))

    def is_zero(self):
        return self.q == Q_ZERO

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, FieldScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return FieldScalar(x)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldScalar.from_q(q_add(self.q, other.q))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldScalar.from_q(q_add(self.q, q_neg(other.q)))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldScalar.from_q(q_add(other.q, q_neg(self.q)))

    def __neg__(self):
        return FieldScalar.from_q(q_neg(self.q))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldScalar.from_q(q_mul(self.q, other.q))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldScalar.from_q(q_mul(self.q, q_inv(other.q)))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldScalar.from_q(q_mul(other.q, q_inv(self.q)))

    def inverse(self):
        return FieldScalar.from_q(q_inv(self.q))

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = FieldScalar.from_q(Q_ONE)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.q == other.q

    def __hash__(self):
        # Rational values hash like the int or Fraction they equal.
        a, b, c, d, den = self.q
        if b or c or d:
            return hash(self.q)
        return hash(Fraction(a, den))

    def __bool__(self):
        return self.q != Q_ZERO

    # -- text form ---------------------------------------------------------

    def render(self):
        radicals = ("", "i", "r2", "i*r2")
        return signed_sum(scaled(str(coeff), radical) for coeff, radical
                          in zip(self.components(), radicals) if coeff)

    __str__ = render

    def __repr__(self):
        return f"FieldScalar({self.render()!r})"

    @classmethod
    def parse(cls, text):
        """Parse the ``a + b*i + c*r2 + d*i*r2`` format."""
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty scalar literal")
        terms = []
        start = 0
        for pos in range(1, len(s)):
            if s[pos] in "+-" and s[pos - 1] not in "+-*/":
                terms.append(s[start:pos])
                start = pos
        terms.append(s[start:])
        total = cls()
        for term in terms:
            sign = 1
            while term and term[0] in "+-":
                if term[0] == "-":
                    sign = -sign
                term = term[1:]
            if not term:
                raise ValueError(f"dangling sign in scalar literal {text!r}")
            value = cls(sign)
            for factor in term.split("*"):
                if factor == "i":
                    value = value * cls(0, 1)
                elif factor == "r2":
                    value = value * cls(0, 0, 1)
                else:
                    try:
                        if not _RATIONAL.fullmatch(factor):
                            raise ValueError
                        value = value * cls(Fraction(factor))
                    except (ValueError, ArithmeticError):
                        raise ValueError(
                            f"bad factor {factor!r} in scalar literal {text!r}"
                        ) from None
            total = total + value
        return total


ZERO = FieldScalar()
ONE = FieldScalar(1)
I = FieldScalar(0, 1)
SQRT2 = FieldScalar(0, 0, 1)
I_SQRT2 = FieldScalar(0, 0, 0, 1)
# 1/sqrt2 = sqrt2/2 and i/sqrt2 = i*sqrt2/2 -- the entries of the basis
# change matrices.
INV_SQRT2 = FieldScalar(0, 0, Fraction(1, 2))
I_INV_SQRT2 = FieldScalar(0, 0, 0, Fraction(1, 2))
