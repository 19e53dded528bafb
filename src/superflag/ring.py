"""Supercommutative polynomial rings over Q(i, sqrt2).

A :class:`RingContext` owns an ordered list of even and odd variables; a
:class:`SuperPoly` is a finite scalar combination of monomials in them.  Odd
variables anticommute and square to zero -- that is enforced structurally by
storing each monomial's odd part as a set of variable ids and tracking the
interleaving sign on multiplication.

A monomial key is a pair of non-negative ints ``(even, odd)``, and a term
dict maps keys to the field tuples of :mod:`superflag.scalars`:

* ``odd`` is the sum of ``1 << id`` over the monomial's odd variables;
* ``even`` is the sum of ``e << (W * id)`` over its even factors x_id^e,
  one field of :data:`W` bits per even variable.  The top bit of each
  field is a guard that no key sets, so an exponent is at most
  :data:`MAX_EXPONENT`, and the even part of a product is the sum of the
  even parts of its factors;
* the constant monomial is :data:`CONSTANT`, ``(0, 0)``.

:func:`decode` gives a key's tuple form ``(((id, exponent), ...), (odd
ids, ...))``, both by ascending id; monomials are displayed in the order
of those tuples.

:func:`add_monomial_product` adds a polynomial times one monomial into a
term dict; it is the one product kernel.  Per term pair it tests ``o1 &
o2`` (a repeated odd variable gives zero), adds the even parts, ors the
odd parts, and takes the sign from one popcount.  A product that sets a
guard bit raises ValueError.  :func:`add_product` runs it once per term
of its right factor, and :func:`add_derivative` applies a derivation,
given by its coefficients per variable, in one pass over a polynomial's
terms: each coefficient times the term's partial goes through the same
kernel, with no partial built on its own.  ``SuperPoly.left_derivative``
is that pass for the derivation 1 * d/dv.

Contexts can be *extended* (new variables appended; existing ids stay
stable), so keys agree across contexts that extend one another, and a
polynomial lifts for free into any extending context.
:func:`common_context` is the one rule for which of two contexts a result
lives in.  Combining polynomials from unrelated contexts is an error, never
a silent union.
"""

from __future__ import annotations

from .scalars import (
    Q_MINUS_ONE, Q_ONE, Q_ZERO, FieldScalar, add_scaled, q_add, q_mul, q_neg,
    q_render, scaled, signed_sum,
)


#: Bits per even variable in a key's even part, the guard bit included.
W = 16

#: The largest exponent of an even variable: a field below its guard bit.
MAX_EXPONENT = (1 << (W - 1)) - 1

#: The monomial key of a constant term.
CONSTANT = (0, 0)


def decode(key):
    """The tuple form of a monomial key: ``((var id, exponent), ...)`` and
    the odd ids, both by ascending id."""
    even, odd = key
    ek = []
    while even:
        shift = (even & -even).bit_length() - 1
        shift -= shift % W
        e = (even >> shift) & MAX_EXPONENT
        ek.append((shift // W, e))
        even -= e << shift
    ok = []
    while odd:
        low = odd & -odd
        ok.append(low.bit_length() - 1)
        odd ^= low
    return tuple(ek), tuple(ok)


class ContextError(Exception):
    """Raised when values from incompatible ring contexts are combined."""


class RingContext:
    """The variables of a ring.  ``_guard`` holds the guard bit of each
    even variable's field.  ``_evens`` caches the even parts of the keys
    that ``render`` has shown, decoded, one entry per distinct part."""

    __slots__ = ("_even", "_odd", "_byname", "_guard", "_evens")

    def __init__(self):
        self._even = []
        self._odd = []
        self._byname = {}
        self._guard = 0
        self._evens = {}

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
        if not parity:
            self._guard |= 1 << (W * len(pool) + W - 1)
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
        key = (0, 1 << vid) if parity else (1 << (W * vid), 0)
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

    def _even_part(self, even):
        """``(degree, (id, exponent, ...))`` of an even part, the ids
        ascending, added to ``_evens``.  The flat tuple sorts as the tuple
        of ``(id, exponent)`` pairs does."""
        flat = sum(decode((even, 0))[0], ())
        out = self._evens[even] = (sum(flat[1::2]), flat)
        return out

    # -- extension and lifting --------------------------------------------

    def extended(self, even=(), odd=()):
        """A new context with the same variables plus the given fresh ones."""
        ctx = RingContext()
        ctx._even = list(self._even)
        ctx._odd = list(self._odd)
        ctx._byname = dict(self._byname)
        ctx._guard = self._guard
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


def _align(p, q):
    """Bring two polynomials into a common context, or fail loudly."""
    if p.ctx is q.ctx:
        return p, q
    ctx = common_context(p.ctx, q.ctx)
    return ctx.lift(p), ctx.lift(q)


#: The sign of each unit coefficient: a product with one of them is a copy.
_UNIT_SIGN = {Q_ONE: 1, Q_MINUS_ONE: -1}


def add_monomial_product(terms, c, ek2, ok2, q2, keep, guard):
    """Add ``keep * c * m`` into the term dict ``terms``, where ``c`` is a
    term dict, ``m`` the monomial with coefficient ``q2``, even part
    ``ek2`` and odd part ``ok2``, and ``keep`` is 1 or -1.  ``guard`` has
    the guard bit set of at least every field that ``ek2`` uses; the
    ``_guard`` of a context that holds ``m`` does.  Monomial keys agree
    across contexts that extend one another, so the caller names the
    context of the sum.

    This is the one product kernel of term dicts.  A pair whose odd parts
    meet is zero.  Otherwise its sign is (-1) to the number of pairs of
    an odd id of the left term above one of ``m``: the parity of ``o1 &
    below``, where ``below`` has bit x set when an odd number of ``m``'s
    odd ids lie below x.  Raises ValueError when an exponent of the
    product exceeds :data:`MAX_EXPONENT`.  Most pairs have an empty even
    or odd part on the side of ``m`` or a coefficient of 1 or -1 on one
    side, and land on a key not yet in ``terms``; such a pair skips the
    sign, the sum of even parts, the multiplication or the addition that
    would leave its operand as it is."""
    unit = _UNIT_SIGN.get(q2)
    below = 0
    o = ok2
    while o:
        low = o & -o
        below ^= -(low << 1)
        o ^= low
    for (ek1, ok1), q1 in c.items():
        if ok2:
            if ok1 & ok2:
                continue
            ok = ok1 | ok2
            sign = -keep if (ok1 & below).bit_count() & 1 else keep
        else:
            ok, sign = ok1, keep
        if unit:
            x = q1 if unit == sign else q_neg(q1)
        elif q1 in _UNIT_SIGN:
            x = q2 if _UNIT_SIGN[q1] == sign else q_neg(q2)
        else:
            x = q_mul(q1, q2)
            if sign < 0:
                x = q_neg(x)
        if ek2:
            ek = ek1 + ek2
            if ek & guard:
                raise ValueError("a product has an exponent above"
                                 f" {MAX_EXPONENT}")
            key = (ek, ok)
        else:
            key = (ek1, ok)
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
    guard = q.ctx._guard
    for (ek, ok), q2 in q.terms.items():
        add_monomial_product(terms, c, ek, ok, q2, keep, guard)


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
    guard = poly.ctx._guard
    for (ek, ok), q in poly.terms.items():
        if even:
            rest = ek
            while rest:
                shift = (rest & -rest).bit_length() - 1
                shift -= shift % W
                e = (rest >> shift) & MAX_EXPONENT
                rest -= e << shift
                c = even.get(shift // W)
                if c is not None:
                    add_monomial_product(
                        terms, c, ek - (1 << shift), ok,
                        q if e == 1 else q_mul(q, (e, 0, 0, 0, 1)), keep,
                        guard)
        if odd:
            rest, sign = ok, keep
            while rest:
                low = rest & -rest
                c = odd.get(low.bit_length() - 1)
                if c is not None:
                    add_monomial_product(terms, c, ek, ok ^ low, q, sign,
                                         guard)
                rest ^= low
                sign = -sign


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
        parities = {ok.bit_count() & 1 for _, ok in self.terms}
        if not parities:
            return None
        if len(parities) > 1:
            raise ValueError("polynomial is not parity-homogeneous")
        return parities.pop()

    def is_even(self):
        return all(not ok.bit_count() & 1 for _, ok in self.terms)

    def is_odd(self):
        return all(ok.bit_count() & 1 for _, ok in self.terms)

    def is_homogeneous(self):
        return len({ok.bit_count() & 1 for _, ok in self.terms}) <= 1

    def variables(self):
        """Names of the variables actually appearing."""
        seen = set()
        for key in self.terms:
            ek, ok = decode(key)
            seen.update(self.ctx._even[vid] for vid, _ in ek)
            seen.update(self.ctx._odd[oid] for oid in ok)
        return seen

    def monomials(self):
        """Iterate (even_factors, odd_factors, coefficient) deterministically.

        ``even_factors`` is a tuple of (name, exponent); ``odd_factors`` a
        tuple of names in canonical order.
        """
        even, odd = self.ctx._even, self.ctx._odd
        for (ek, ok), key in sorted((decode(key), key) for key in self.terms):
            yield (
                tuple((even[vid], e) for vid, e in ek),
                tuple(odd[oid] for oid in ok),
                FieldScalar.from_q(self.terms[key]),
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
        """The terms by ascending total degree, then by the tuple form of
        their monomial keys."""
        ctx = self.ctx
        evens = ctx._evens
        items = []
        for (ek, ok), q in self.terms.items():
            e = evens.get(ek)
            if e is None:
                e = ctx._even_part(ek)
            ids = []
            while ok:
                low = ok & -ok
                ids.append(low.bit_length() - 1)
                ok ^= low
            items.append((e[0] + len(ids), e[1], ids, q))
        if len(items) > 1:
            items.sort()
        even, odd = ctx._even, ctx._odd
        summands = []
        for _, ek, ok, q in items:
            factors = []
            for i in range(0, len(ek), 2):
                name, e = even[ek[i]], ek[i + 1]
                factors.append(name if e == 1 else f"{name}^{e}")
            for v in ok:
                factors.append(odd[v])
            summands.append(scaled(q_render(q), "*".join(factors)))
        return signed_sum(summands)

    __str__ = render

    def __repr__(self):
        return f"SuperPoly({self.render()!r})"
