"""Pure-Python arithmetic kernels.

Two small families of primitives live here because every higher layer funnels
through them:

* scalar arithmetic in the field Q(i, sqrt(2)), represented as 5-tuples of
  ints ``(a, b, c, d, den)`` meaning ``(a + b*i + c*sqrt2 + d*i*sqrt2)/den``
  with ``den > 0`` and ``gcd(a, b, c, d, den) == 1``;
* merging of sorted odd-index tuples with the anticommutation sign.
"""

from math import gcd

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


def q_sub(x, y):
    return q_add(x, q_neg(y))


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


def merge_odd(u, v):
    """Merge two ascending odd-index tuples, counting anticommutation swaps.

    Returns ``(sign, merged)``; sign is 0 when an index repeats (a squared
    odd generator), otherwise +1/-1 by parity of the inversions needed to
    interleave ``v`` into ``u``.
    """
    if not u:
        return 1, v
    if not v:
        return 1, u
    out = []
    i, j = 0, 0
    nu, nv = len(u), len(v)
    swaps = 0
    while i < nu and j < nv:
        a, b = u[i], v[j]
        if a == b:
            return 0, ()
        if a < b:
            out.append(a)
            i += 1
        else:
            out.append(b)
            j += 1
            swaps += nu - i
    out.extend(u[i:])
    out.extend(v[j:])
    return (1 if swaps % 2 == 0 else -1), tuple(out)


def mul_even(p, q):
    """Merge two sorted ((var, exp), ...) tuples, adding exponents."""
    if not p:
        return q
    if not q:
        return p
    out = []
    i, j = 0, 0
    np_, nq = len(p), len(q)
    while i < np_ and j < nq:
        vi, ei = p[i]
        vj, ej = q[j]
        if vi == vj:
            out.append((vi, ei + ej))
            i += 1
            j += 1
        elif vi < vj:
            out.append(p[i])
            i += 1
        else:
            out.append(q[j])
            j += 1
    out.extend(p[i:])
    out.extend(q[j:])
    return tuple(out)
