"""Exact arithmetic in Q(i, sqrt2).

Every coefficient in this package is an element of the field Q(i, sqrt2),
stored as a rational linear combination of the basis (1, i, sqrt2, i*sqrt2).
That field is closed under the arithmetic the package needs (inverses
included) and avoids any floating point.

Text form: ``a + b*i + c*r2 + d*i*r2`` with rational coefficients like
``-3/2``; ``r2`` stands for sqrt(2).  Examples: ``1/2 + 1/2*i``, ``-r2``,
``2*i*r2``.
"""

from __future__ import annotations

from fractions import Fraction

from .kernels import Q_ONE, Q_ZERO, q_add, q_inv, q_mul, q_neg, q_normalize

_SQRT2 = 1.4142135623730951


class FieldScalar:
    """An element a + b*i + c*sqrt2 + d*i*sqrt2 with rational a, b, c, d."""

    __slots__ = ("q",)

    def __init__(self, a=0, b=0, c=0, d=0):
        if type(a) is int and type(b) is int and type(c) is int \
                and type(d) is int:
            self.q = q_normalize(a, b, c, d, 1)
            return
        a, b, c, d = Fraction(a), Fraction(b), Fraction(c), Fraction(d)
        den = 1
        for part in (a, b, c, d):
            den = den * part.denominator // _gcd(den, part.denominator)
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

    def to_complex(self):
        """Floating approximation (used only by test oracles)."""
        a, b, c, d, den = self.q
        return complex((a + c * _SQRT2) / den, (b + d * _SQRT2) / den)

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
        parts = []
        for coeff, radical in zip(self.components(), ("", "i", "r2", "i*r2")):
            if not coeff:
                continue
            mag = abs(coeff)
            if not radical:
                body = str(mag)
            elif mag == 1:
                body = radical
            else:
                body = f"{mag}*{radical}"
            parts.append(("-" if coeff < 0 else "+", body))
        if not parts:
            return "0"
        sign, body = parts[0]
        text = body if sign == "+" else "-" + body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

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
                        value = value * cls(Fraction(factor))
                    except (ValueError, ArithmeticError):
                        raise ValueError(
                            f"bad factor {factor!r} in scalar literal {text!r}"
                        ) from None
            total = total + value
        return total


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


ZERO = FieldScalar()
ONE = FieldScalar(1)
I = FieldScalar(0, 1)
SQRT2 = FieldScalar(0, 0, 1)
I_SQRT2 = FieldScalar(0, 0, 0, 1)
# 1/sqrt2 = sqrt2/2 and i/sqrt2 = i*sqrt2/2 -- the entries of the basis
# change matrices.
INV_SQRT2 = FieldScalar(0, 0, Fraction(1, 2))
I_INV_SQRT2 = FieldScalar(0, 0, 0, Fraction(1, 2))
