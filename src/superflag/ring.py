"""Supercommutative polynomial rings over Q(i, sqrt2).

A :class:`RingContext` owns an ordered list of even and odd variables; a
:class:`SuperPoly` is a finite scalar combination of monomials in them.  Odd
variables anticommute and square to zero -- that is enforced structurally by
storing each monomial's odd part as a strictly ascending tuple of variable
ids and tracking the interleaving sign on multiplication.

A monomial key is ``(even, odd)``: ``(var id, exponent)`` pairs sorted by
id, then the ascending odd ids.  :func:`mul_even` and :func:`merge_odd`
multiply the two parts; a term dict maps keys to the field tuples of
:mod:`superflag.scalars`.

:func:`add_monomial_product` adds a polynomial times one monomial into a
term dict; it is the one product kernel.  :func:`add_product` runs it
once per term of its right factor, and :func:`add_derivative` applies a
derivation, given by its coefficients per variable, in one pass over a
polynomial's terms: each coefficient times the term's partial goes
through the same kernel, with no partial built on its own.
``SuperPoly.left_derivative`` is that pass for the derivation 1 * d/dv.

Contexts can be *extended* (new variables appended; existing ids stay
stable), and a polynomial lifts for free into any extending context.
:func:`common_context` is the one rule for which of two contexts a result
lives in.  Combining polynomials from unrelated contexts is an error, never
a silent union.
"""

from __future__ import annotations

from operator import itemgetter

from .scalars import (
    Q_MINUS_ONE, Q_ONE, Q_ZERO, FieldScalar, add_scaled, q_add, q_mul, q_neg,
    q_render, scaled, signed_sum,
)


#: The monomial key of a constant term.
CONSTANT = ((), ())

#: The exponent of a ``(var id, exponent)`` pair of a key's even part.
_exponent = itemgetter(1)


class ContextError(Exception):
    """Raised when values from incompatible ring contexts are combined."""


class RingContext:
    __slots__ = ("_even", "_odd", "_byname")

    def __init__(self):
        self._even = []
        self._odd = []
        self._byname = {}

    # -- variable declaration ---------------------------------------------

    def even(self, name):
        self._declare(name, 0)
        return self.var(name)

    def odd(self, name):
        self._declare(name, 1)
        return self.var(name)

    def evens(self, *names):
        return tuple(self.even(n) for n in names)

    def odds(self, *names):
        return tuple(self.odd(n) for n in names)

    def _declare(self, name, parity):
        if name in self._byname:
            raise ContextError(f"variable {name!r} already declared")
        pool = self._odd if parity else self._even
        self._byname[name] = (parity, len(pool))
        pool.append(name)

    # -- lookup -----------------------------------------------------------

    def has(self, name):
        return name in self._byname

    def parity_of(self, name):
        return self._byname[name][0]

    @property
    def even_names(self):
        return tuple(self._even)

    @property
    def odd_names(self):
        return tuple(self._odd)

    def by_variable(self, coefficients):
        """The term dicts of the nonzero polynomials of ``coefficients``, a
        dict keyed by names of this context, keyed by variable id instead:
        an ``(even, odd)`` pair of dicts, the form :func:`add_derivative`
        reads."""
        even, odd = {}, {}
        byname = self._byname
        for name, c in coefficients.items():
            if c.terms:
                parity, vid = byname[name]
                (odd if parity else even)[vid] = c.terms
        return even, odd

    def var(self, name):
        parity, vid = self._byname[name]
        if parity:
            key = ((), (vid,))
        else:
            key = (((vid, 1),), ())
        return SuperPoly._new(self, {key: Q_ONE})

    def scalar(self, c):
        s = FieldScalar._coerce(c)
        if s is None:
            raise TypeError(f"cannot interpret {c!r} as a scalar")
        if s.is_zero():
            return SuperPoly._new(self, {})
        return SuperPoly._new(self, {CONSTANT: s.q})

    @property
    def zero(self):
        return SuperPoly._new(self, {})

    @property
    def one(self):
        return SuperPoly._new(self, {CONSTANT: Q_ONE})

    # -- extension and lifting --------------------------------------------

    def extended(self, even=(), odd=()):
        """A new context with the same variables plus the given fresh ones."""
        ctx = RingContext()
        ctx._even = list(self._even)
        ctx._odd = list(self._odd)
        ctx._byname = dict(self._byname)
        for name in even:
            ctx._declare(name, 0)
        for name in odd:
            ctx._declare(name, 1)
        return ctx

    def extends(self, other):
        """True when this context's variables start with all of ``other``'s."""
        if other is self:
            return True
        return (
            self._even[: len(other._even)] == other._even
            and self._odd[: len(other._odd)] == other._odd
        )

    def lift(self, p):
        if p.ctx is self:
            return p
        if not self.extends(p.ctx):
            raise ContextError("cannot lift: target context does not extend source")
        return SuperPoly._new(self, p.terms)

    def __repr__(self):
        return f"<RingContext even={len(self._even)} odd={len(self._odd)}>"


#: Shared empty context: the natural home of purely numeric quantities,
#: liftable into every other context.
NUMERIC_CTX = RingContext()


def common_context(a, b):
    """The one of two contexts that extends the other, or fail loudly."""
    if a.extends(b):
        return a
    if b.extends(a):
        return b
    raise ContextError("values live in unrelated ring contexts")


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


def _align(p, q):
    """Bring two polynomials into a common context, or fail loudly."""
    if p.ctx is q.ctx:
        return p, q
    ctx = common_context(p.ctx, q.ctx)
    return ctx.lift(p), ctx.lift(q)


#: The sign of each unit coefficient: a product with one of them is a copy.
_UNIT_SIGN = {Q_ONE: 1, Q_MINUS_ONE: -1}


def add_monomial_product(terms, c, ek2, ok2, q2, keep):
    """Add ``keep * c * m`` into the term dict ``terms``, where ``c`` is a
    term dict, ``m`` the monomial with coefficient ``q2``, even part
    ``ek2`` and odd part ``ok2``, and ``keep`` is 1 or -1.  Monomial keys
    agree across contexts that extend one another, so the caller names
    the context of the sum.

    This is the one product kernel of term dicts.  Most of its term pairs
    have an empty even or odd part on one side or a coefficient of 1 or
    -1, and land on a key not yet in ``terms``; such a pair skips the
    merge, the multiplication or the addition that would leave its
    operand as it is."""
    unit = _UNIT_SIGN.get(q2)
    for (ek1, ok1), q1 in c.items():
        if ok1 and ok2:
            sign, ok = merge_odd(ok1, ok2)
            if sign == 0:
                continue
        else:
            sign, ok = 1, ok1 or ok2
        if unit:
            x = q1 if unit == sign * keep else q_neg(q1)
        elif q1 in _UNIT_SIGN:
            x = q2 if _UNIT_SIGN[q1] == sign * keep else q_neg(q2)
        else:
            x = q_mul(q1, q2)
            if sign != keep:
                x = q_neg(x)
        key = (mul_even(ek1, ek2) if ek1 and ek2 else ek1 or ek2, ok)
        acc = terms.get(key)
        if acc is None:
            terms[key] = x
            continue
        acc = q_add(acc, x)
        if acc == Q_ZERO:
            del terms[key]
        else:
            terms[key] = acc


def add_product(terms, p, q, negate=False):
    """Add ``p * q``, or ``-(p * q)`` when ``negate``, into the term dict
    ``terms``: :func:`add_monomial_product` once per term of ``q``.  p and
    q need not be lifted first."""
    keep = -1 if negate else 1
    c = p.terms
    for (ek, ok), q2 in q.terms.items():
        add_monomial_product(terms, c, ek, ok, q2, keep)


def add_derivative(terms, held, poly, negate=False):
    """Add ``D(poly)``, or ``-D(poly)`` when ``negate``, into the term dict
    ``terms``, where D = sum c_v d/dv is the derivation whose nonzero
    coefficients ``held = (even, odd)`` maps by variable id to term dicts,
    as :meth:`RingContext.by_variable` gives them.

    This is the one derivative in the package: one pass over the terms of
    ``poly``, and for each variable of a term that D holds, c_v times the
    term's partial by v, added with :func:`add_monomial_product`.  An even
    factor x^e leaves x^(e-1) and the factor e; an odd factor is first
    anticommuted to the front, so it leaves the sign of its position: with
    xi before eta, d/d(xi) (xi*eta) = eta while d/d(eta) (xi*eta) = -xi."""
    even, odd = held
    keep = -1 if negate else 1
    for (ek, ok), q in poly.terms.items():
        if even:
            for pos, (v, e) in enumerate(ek):
                c = even.get(v)
                if c is not None:
                    if e == 1:
                        add_monomial_product(terms, c, ek[:pos] + ek[pos + 1:],
                                             ok, q, keep)
                    else:
                        add_monomial_product(
                            terms, c, ek[:pos] + ((v, e - 1),) + ek[pos + 1:],
                            ok, q_mul(q, (e, 0, 0, 0, 1)), keep)
        if odd:
            for pos, v in enumerate(ok):
                c = odd.get(v)
                if c is not None:
                    add_monomial_product(terms, c, ek, ok[:pos] + ok[pos + 1:],
                                         q, -keep if pos & 1 else keep)


class SuperPoly:
    """A supercommutative polynomial; immutable by convention."""

    __slots__ = ("ctx", "terms")

    @classmethod
    def _new(cls, ctx, terms):
        obj = object.__new__(cls)
        obj.ctx = ctx
        obj.terms = terms
        return obj

    # -- structure --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_scalar(self):
        return not self.terms or set(self.terms) == {CONSTANT}

    def scalar_part(self):
        """Coefficient of the empty monomial (the value at the origin)."""
        return FieldScalar.from_q(self.terms.get(CONSTANT, Q_ZERO))

    def body(self):
        """The monomial-free part obtained by killing every odd variable.

        Even variables survive; this is the underlying ordinary polynomial.
        """
        return SuperPoly._new(
            self.ctx, {k: q for k, q in self.terms.items() if not k[1]}
        )

    def parity(self):
        """0 or 1 for homogeneous polynomials, None for zero."""
        parities = {len(ok) % 2 for _, ok in self.terms}
        if not parities:
            return None
        if len(parities) > 1:
            raise ValueError("polynomial is not parity-homogeneous")
        return parities.pop()

    def is_even(self):
        return all(len(ok) % 2 == 0 for _, ok in self.terms)

    def is_odd(self):
        return all(len(ok) % 2 == 1 for _, ok in self.terms)

    def is_homogeneous(self):
        return len({len(ok) % 2 for _, ok in self.terms}) <= 1

    def variables(self):
        """Names of the variables actually appearing."""
        seen = set()
        for ek, ok in self.terms:
            for vid, _ in ek:
                seen.add(self.ctx._even[vid])
            for oid in ok:
                seen.add(self.ctx._odd[oid])
        return seen

    def monomials(self):
        """Iterate (even_factors, odd_factors, coefficient) deterministically.

        ``even_factors`` is a tuple of (name, exponent); ``odd_factors`` a
        tuple of names in canonical order.
        """
        for ek, ok in sorted(self.terms):
            yield (
                tuple((self.ctx._even[vid], e) for vid, e in ek),
                tuple(self.ctx._odd[oid] for oid in ok),
                FieldScalar.from_q(self.terms[(ek, ok)]),
            )

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, SuperPoly):
            return other
        c = FieldScalar._coerce(other)
        return None if c is None else self.ctx.scalar(c)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = _align(self, other)
        terms = dict(a.terms)
        add_scaled(terms, b.terms, Q_ONE)
        return SuperPoly._new(a.ctx, terms)

    __radd__ = __add__

    def __neg__(self):
        return SuperPoly._new(
            self.ctx, {k: q_neg(q) for k, q in self.terms.items()}
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = _align(self, other)
        terms = {}
        add_product(terms, a, b)
        return SuperPoly._new(a.ctx, terms)

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = self.ctx.one
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = _align(self, other)
        return a.terms == b.terms

    def __hash__(self):
        # Constants hash like the scalar they equal.
        if self.is_scalar():
            return hash(self.scalar_part())
        return hash(frozenset(self.terms.items()))

    # -- calculus ----------------------------------------------------------

    def left_derivative(self, name):
        """Left partial derivative with respect to a declared variable:
        :func:`add_derivative` with the derivation 1 * d/d(name)."""
        parity, vid = self.ctx._byname[name]
        held = {vid: {CONSTANT: Q_ONE}}
        terms = {}
        add_derivative(terms, ({}, held) if parity else (held, {}), self)
        return SuperPoly._new(self.ctx, terms)

    # -- rendering ---------------------------------------------------------

    def render(self):
        """The terms by ascending total degree, then by monomial key."""
        even, odd = self.ctx._even, self.ctx._odd
        items = [(sum(map(_exponent, ek)) + len(ok), ek, ok, q)
                 for (ek, ok), q in self.terms.items()]
        if len(items) > 1:
            items.sort()
        summands = []
        for _, ek, ok, q in items:
            factors = []
            for vid, e in ek:
                name = even[vid]
                factors.append(name if e == 1 else f"{name}^{e}")
            for oid in ok:
                factors.append(odd[oid])
            summands.append(scaled(q_render(q), "*".join(factors)))
        return signed_sum(summands)

    __str__ = render

    def __repr__(self):
        return f"SuperPoly({self.render()!r})"
