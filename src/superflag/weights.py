"""Root systems and dominant-weight bookkeeping for osp(2k1-1|2l1).

Weights live in the integer lattice spanned by the orthonormal functionals
mu_1..mu_s (even part, type B_s with s = k1 - 1) and la_1..la_n (odd part,
type C_n with n = l1).  The cohomology bookkeeping reduces to filtering a
finite list of highest weights by dominance and reading off whether the
constant weight survives.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import scaled, signed_sum


@dataclass(frozen=True)
class Weight:
    """An integer vector sum(mu_coeffs[i] mu_{i+1}) + sum(la_coeffs[j] la_{j+1})."""

    mu: tuple
    la: tuple

    @classmethod
    def zero(cls, s, n):
        return cls((0,) * s, (0,) * n)

    @classmethod
    def basis_mu(cls, s, n, i):
        """mu_i (1-based)."""
        if not 1 <= i <= s:
            raise IndexError(f"mu_{i} out of range for rank {s}")
        return cls(tuple(1 if t == i - 1 else 0 for t in range(s)), (0,) * n)

    @classmethod
    def basis_la(cls, s, n, j):
        """la_j (1-based)."""
        if not 1 <= j <= n:
            raise IndexError(f"la_{j} out of range for rank {n}")
        return cls((0,) * s, tuple(1 if t == j - 1 else 0 for t in range(n)))

    def __add__(self, other):
        self._check(other)
        return Weight(
            tuple(a + b for a, b in zip(self.mu, other.mu)),
            tuple(a + b for a, b in zip(self.la, other.la)),
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Weight(tuple(-a for a in self.mu), tuple(-a for a in self.la))

    def scale(self, c):
        return Weight(tuple(c * a for a in self.mu), tuple(c * a for a in self.la))

    def inner(self, other):
        """Inner product in the orthonormal mu/la basis."""
        self._check(other)
        return sum(a * b for a, b in zip(self.mu, other.mu)) + sum(
            a * b for a, b in zip(self.la, other.la)
        )

    def is_zero(self):
        return all(a == 0 for a in self.mu + self.la)

    def _check(self, other):
        if len(self.mu) != len(other.mu) or len(self.la) != len(other.la):
            raise ValueError("weights live in different lattices")

    def render(self):
        return signed_sum(
            scaled(str(a), f"{sym}{i}")
            for sym, entries in (("mu", self.mu), ("la", self.la))
            for i, a in enumerate(entries, start=1) if a)

    def __str__(self):
        return self.render()


@dataclass(frozen=True)
class RootSystem:
    """Positive roots of so(2s+1) x sp(2n) in the orthonormal basis."""

    s: int
    n: int

    def simple_roots(self):
        """mu_i - mu_{i+1}, mu_s; la_j - la_{j+1}, 2 la_n."""
        s, n = self.s, self.n
        roots = []
        for i in range(1, s):
            roots.append(Weight.basis_mu(s, n, i) - Weight.basis_mu(s, n, i + 1))
        if s:
            roots.append(Weight.basis_mu(s, n, s))
        for j in range(1, n):
            roots.append(Weight.basis_la(s, n, j) - Weight.basis_la(s, n, j + 1))
        if n:
            roots.append(Weight.basis_la(s, n, n).scale(2))
        return roots

    def violation(self, w):
        """The first positive root with a negative inner product, or None.

        "First" is in the order mu_i - mu_j, mu_i + mu_j (i < j, pairs in
        lexicographic order), mu_i, la_p - la_q (p < q), la_p + la_q
        (p <= q).  The roots are never enumerated; only the returned one
        is built, straight from its at most two nonzero entries.  O(s + n):
        <w, mu_i -+ mu_j> < 0 for some sign exactly when mu_i < |mu_j|,
        and <w, la_p - la_q> < 0 exactly when la_p < la_q.  Once no
        la_p - la_q is violated, la is non-increasing, so la_p + la_q
        (q >= p) is violated for some q exactly when la_p + la_n < 0.
        """
        mu, la = w.mu, w.la
        pair = _first_pair(mu, signed=True)
        if pair is not None:
            i, j = pair
            return self._root(mu=((i, 1), (j, -1 if mu[i] < mu[j] else 1)))
        i = next((i for i, a in enumerate(mu) if a < 0), None)
        if i is not None:
            return self._root(mu=((i, 1),))
        pair = _first_pair(la, signed=False)
        if pair is not None:
            p, q = pair
            return self._root(la=((p, 1), (q, -1)))
        # la is non-increasing here, so some la_p + la_n < 0 exactly when
        # la_n < 0.
        if la and la[-1] < 0:
            p = next(p for p, a in enumerate(la) if a + la[-1] < 0)
            q = next(q for q in range(p, len(la)) if la[p] + la[q] < 0)
            return self._root(la=((p, 1), (q, 1)))
        return None

    def _root(self, mu=(), la=()):
        """The weight with the given ``(index, coefficient)`` entries, which
        add where an index repeats (la_p + la_p = 2 la_p)."""
        vec = [0] * (self.s + self.n)
        for offset, entries in ((0, mu), (self.s, la)):
            for i, c in entries:
                vec[offset + i] += c
        return Weight(tuple(vec[:self.s]), tuple(vec[self.s:]))

    def is_dominant(self, w):
        """Non-negative inner product with every positive root, that is,
        no violating root."""
        return self.violation(w) is None


def _first_pair(values, signed):
    """The first (i, j), i < j in lexicographic order, with
    values[i] < |values[j]| when ``signed``, else values[i] < values[j];
    None when there is none.

    One backward pass keeps the largest |value| (or value) over
    values[i+1:]; the last i found below it is the smallest.
    """
    if len(values) < 2:
        return None
    first = None
    top = values[-1]
    if signed and top < 0:
        top = -top
    for i in range(len(values) - 2, -1, -1):
        v = values[i]
        if v < top:
            first = i
        if signed and v < 0:
            v = -v
        if v > top:
            top = v
    if first is None:
        return None
    a = values[first]
    return first, next(j for j in range(first + 1, len(values))
                       if (abs(values[j]) if signed else values[j]) > a)


def root_system(k1, l1):
    """The root system governing the fiber data at sizes (k1, l1)."""
    if k1 < 1 or l1 < 0:
        raise ValueError("need k1 >= 1 and l1 >= 0")
    return RootSystem(k1 - 1, l1)


def psi_highest_weights(k1, l1):
    """Highest weights of the pulled-back function sheaf on the fiber.

    The generic list is {mu1 - mu_s, mu1 - la_n, la1 - mu_s, la1 - la_n, 0};
    small ranks collapse coincident functionals, dropping the summands that
    degenerate (for s = 1 the difference mu1 - mu_s vanishes from the even
    block, for n = 1 the odd block contributes la1 - mu_s only, and so on).
    """
    if k1 < 1 or l1 < 0:
        raise ValueError("need k1 >= 1 and l1 >= 0")
    s, n = k1 - 1, l1
    # positions of mu1, mu_s, la1 and la_n in the entries (mu | la)
    mu1, mus, la1, lan = 0, s - 1, s, s + n - 1

    def diff(plus, minus):
        """The weight ``plus - minus``, written from its two entries."""
        vec = [0] * (s + n)
        vec[plus] += 1
        vec[minus] -= 1
        return Weight(tuple(vec[:s]), tuple(vec[s:]))

    if l1 == 0:
        return [diff(mu1, mus)] if k1 > 2 else []
    if k1 == 1:
        return [diff(la1, lan)] if l1 > 1 else []
    zero = Weight.zero(s, n)
    if k1 == 2 and l1 == 1:
        return [diff(mu1, la1), diff(la1, mu1), zero]
    if k1 == 2:
        return [diff(mu1, lan), diff(la1, mu1), diff(la1, lan), zero]
    if l1 == 1:
        return [diff(mu1, mus), diff(mu1, la1), diff(la1, mus), zero]
    return [diff(mu1, mus), diff(mu1, lan), diff(la1, mus), diff(la1, lan),
            zero]


def bwb_dominant_filter(weights, rs):
    """Keep the dominant entries (with multiplicity, preserving order).

    Non-dominant highest weights contribute no cohomology in degree zero,
    so the surviving list is exactly what the fiber functions decompose
    into.
    """
    return [w for w in weights if rs.is_dominant(w)]


def fiber_description(survivors):
    """Global functions on the fiber, read from the dominant survivors:
    "ℂ" (constants only) or "{0}".

    A surviving nonzero weight would mean a non-constant global function;
    no size produces one, and encountering it raises rather than guessing
    a description.
    """
    if not survivors:
        return "{0}"
    if all(w.is_zero() for w in survivors):
        return "ℂ"
    raise ValueError(
        "unexpected non-constant dominant weight: "
        + ", ".join(w.render() for w in survivors)
    )
