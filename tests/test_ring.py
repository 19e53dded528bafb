"""Supercommutative polynomial ring: algebra laws, derivatives, rendering."""

from fractions import Fraction

import pytest

from superflag.ring import CONSTANT, ContextError, NUMERIC_CTX, \
    RingContext, SuperPoly, add_derivative, add_product
from superflag.scalars import FieldScalar, ONE, SQRT2, Q_ONE, q_neg, \
    q_normalize

from oracles import add_product_loop, demote, merge_odd_ids, pack, \
    partial, partials, substitute, unpack


@pytest.fixture()
def ctx():
    c = RingContext()
    c.evens("u", "v", "w")
    c.odds("th1", "th2", "th3")
    return c


def _random_poly(ctx, rng, max_terms=4):
    poly = ctx.zero
    for _ in range(rng.randint(1, max_terms)):
        term = ctx.scalar(FieldScalar(rng.randint(-3, 3), rng.randint(-2, 2)))
        for name in ("u", "v", "th1", "th2", "th3"):
            if rng.random() < 0.4:
                term = term * ctx.var(name)
        poly = poly + term
    return poly


def test_declaration_and_lookup(ctx):
    assert ctx.has("u") and ctx.has("th1") and not ctx.has("zz")
    assert ctx.parity_of("u") == 0
    assert ctx.parity_of("th2") == 1
    assert ctx.even_names == ("u", "v", "w")
    assert ctx.odd_names == ("th1", "th2", "th3")
    with pytest.raises(KeyError):
        ctx.var("zz")


def test_even_variables_commute(ctx):
    u, v = ctx.var("u"), ctx.var("v")
    assert u * v == v * u
    assert (u + v) ** 2 == u * u + u * v * 2 + v * v


def test_odd_variables_anticommute(ctx):
    t1, t2 = ctx.var("th1"), ctx.var("th2")
    assert t1 * t2 == -(t2 * t1)
    assert t1 * t1 == ctx.zero
    assert (t1 + t2) * (t1 + t2) == ctx.zero


def test_supercommutativity_random():
    import random

    rng = random.Random(101)
    ctx = RingContext()
    ctx.evens("u", "v")
    ctx.odds("th1", "th2", "th3")
    for _ in range(40):
        p = _random_poly(ctx, rng)
        q = _random_poly(ctx, rng)
        pq, qp = p * q, q * p
        # homogeneous components: p q = (-1)^{|p||q|} q p holds termwise
        if p.is_homogeneous() and q.is_homogeneous() and p.parity() and q.parity():
            assert pq == -qp
        elif p.is_homogeneous() and q.is_homogeneous():
            assert pq == qp


def test_parity_and_body(ctx):
    u, t1, t2 = ctx.var("u"), ctx.var("th1"), ctx.var("th2")
    p = u * t1 * t2 + ctx.scalar(FieldScalar(3))
    assert p.is_even()
    assert p.body() == FieldScalar(3)
    assert (u * t1).is_odd()
    assert not (u + t1).is_homogeneous()


def test_left_derivative_is_odd_leibniz(ctx):
    t1, t2 = ctx.var("th1"), ctx.var("th2")
    # d/dth1 (th1 th2) = th2; d/dth2 (th1 th2) = -th1
    p = t1 * t2
    assert p.left_derivative("th1") == t2
    assert p.left_derivative("th2") == -t1


def test_odd_derivatives_anticommute():
    import random

    rng = random.Random(55)
    ctx = RingContext()
    ctx.evens("u", "v")
    ctx.odds("th1", "th2", "th3")
    for _ in range(30):
        p = _random_poly(ctx, rng)
        d12 = p.left_derivative("th1").left_derivative("th2")
        d21 = p.left_derivative("th2").left_derivative("th1")
        assert d12 == -d21


def _accumulated_left_derivative(p, name):
    """The term dict of the left derivative, each term added into the dict
    and dropped when its sum is zero: the loop ``left_derivative`` used
    before it wrote each term once."""
    from superflag.scalars import Q_ZERO, q_add, q_mul, q_neg

    parity, vid = p.ctx._byname[name]
    terms = {}

    def add(key, coeff):
        acc = q_add(terms.get(key, Q_ZERO), coeff)
        if acc == Q_ZERO:
            terms.pop(key, None)
        else:
            terms[key] = acc

    for key, q in p.terms.items():
        ek, ok = unpack(key)
        if parity == 0:
            for pos, (v, e) in enumerate(ek):
                if v == vid:
                    if e == 1:
                        new_ek = ek[:pos] + ek[pos + 1:]
                    else:
                        new_ek = ek[:pos] + ((v, e - 1),) + ek[pos + 1:]
                    add(pack(new_ek, ok), q_mul(q, (e, 0, 0, 0, 1)))
                    break
        elif vid in ok:
            pos = ok.index(vid)
            add(pack(ek, ok[:pos] + ok[pos + 1:]),
                q if pos % 2 == 0 else q_neg(q))
    return terms


def test_left_derivative_matches_the_accumulating_loop():
    import random

    rng = random.Random(20261018)
    pick = random.Random(20261021)
    ctx = RingContext()
    evens = ctx.evens("u", "v", "w")
    odds = ctx.odds("th1", "th2", "th3", "th4")
    names = ctx.even_names + ctx.odd_names
    positions = set()
    for _ in range(200):
        p = ctx.zero
        for _ in range(rng.randint(0, 6)):
            term = ctx.scalar(FieldScalar(rng.randint(-3, 3),
                                          rng.randint(-2, 2)))
            for x in evens:
                term = term * x ** rng.randint(0, 3)
            for t in rng.sample(odds, rng.randint(0, len(odds))):
                term = term * t
            p = p + term
        for name in names:
            assert p.left_derivative(name).terms == \
                _accumulated_left_derivative(p, name)
        # one pass by a seeded set of variables gives each one's partial
        # and leaves out the zero ones
        held = pick.sample(names, pick.randint(0, len(names)))
        even = {ctx._byname[n][1] for n in held if not ctx.parity_of(n)}
        odd = {ctx._byname[n][1] for n in held if ctx.parity_of(n)}
        by_even, by_odd = partials(p.terms, even, odd)
        assert by_even.keys() <= even and by_odd.keys() <= odd
        for name in held:
            parity, vid = ctx._byname[name]
            assert (by_odd if parity else by_even).get(vid, {}) == \
                _accumulated_left_derivative(p, name)
        for key in p.terms:
            positions.update(enumerate(unpack(key)[1]))
    # every odd variable is seen at every position it can take
    assert positions == {(pos, vid) for vid in range(4)
                         for pos in range(vid + 1)}


def _random_terms(rng, count):
    """A term dict over three even and four odd ids, with about half its
    coefficients 1 or -1 and one key in five the constant monomial."""
    terms = {}
    for _ in range(count):
        if rng.random() < 0.2:
            key = CONSTANT
        else:
            ek = tuple((v, rng.randint(1, 3))
                       for v in sorted(rng.sample(range(3), rng.randint(0, 2))))
            key = pack(ek, sorted(rng.sample(range(4), rng.randint(0, 3))))
        if rng.random() < 0.5:
            q = rng.choice((Q_ONE, q_neg(Q_ONE)))
        else:
            q = q_normalize(*(rng.randint(-4, 4) for _ in range(4)),
                            rng.randint(1, 6))
        if q[:4] != (0, 0, 0, 0):
            terms[key] = q
    return terms


def test_add_product_matches_the_plain_loop():
    """The fast paths of add_product (an empty part on one side, a unit
    coefficient, a key not yet in the sum) give the term dict of the loop
    that merges, multiplies and adds every pair."""
    import random

    rng = random.Random(20261019)
    ctx = RingContext()
    ctx.evens("u", "v", "w")
    ctx.odds("th1", "th2", "th3", "th4")
    seen = set()
    for _ in range(400):
        p = SuperPoly._new(ctx, _random_terms(rng, rng.randint(1, 4)))
        q = SuperPoly._new(ctx, _random_terms(rng, rng.randint(1, 4)))
        negate = rng.random() < 0.5
        start = rng.choice(("empty", "random", "cancel"))
        if start == "empty":
            base = {}
        elif start == "random":
            base = _random_terms(rng, 6)
        else:
            base = {}
            add_product_loop(base, p, q, not negate)
        fast, slow = dict(base), dict(base)
        add_product(fast, p, q, negate)
        add_product_loop(slow, p, q, negate)
        assert fast == slow
        if start == "cancel":
            assert fast == {}
        for key1, q1 in p.terms.items():
            for key2, q2 in q.terms.items():
                units = (q1 in (Q_ONE, q_neg(Q_ONE)),
                         q2 in (Q_ONE, q_neg(Q_ONE)))
                odd1, odd2 = unpack(key1)[1], unpack(key2)[1]
                seen.add(("constant", CONSTANT in (key1, key2)))
                seen.add(("unit", any(units)))
                seen.add(("units", units))
                seen.add(("repeat", bool(set(odd1) & set(odd2))))
                seen.add(("long odd parts", len(odd1) >= 2 and len(odd2) >= 2))
                seen.add(("merge sign", any(units),
                          merge_odd_ids(odd1, odd2)[0]))
        seen.add(("negate", negate))
    # a unit on the left, the right, both or neither (the q_mul path);
    # each merge sign with and without a unit, since one comparison folds
    # the merge sign into a unit's; odd parts of length two or more on
    # both sides
    assert seen == {(kind, flag) for kind in ("constant", "unit", "repeat",
                                              "negate", "long odd parts")
                    for flag in (False, True)} | \
        {("units", (a, b)) for a in (False, True) for b in (False, True)} | \
        {("merge sign", unit, sign) for unit in (False, True)
         for sign in (-1, 0, 1)}


def _random_ring_terms(rng, ring, count, max_exponent):
    """A term dict of up to ``count`` terms over all of ``ring``'s
    variables: even exponents up to ``max_exponent``, any set of odd ids,
    and coefficients 1, -1 or a small field tuple."""
    n_even, n_odd = len(ring.even_names), len(ring.odd_names)
    terms = {}
    for _ in range(count):
        ek = tuple((v, rng.randint(1, max_exponent))
                   for v in sorted(rng.sample(range(n_even),
                                              rng.randint(0, 2))))
        ok = tuple(sorted(rng.sample(range(n_odd), rng.randint(0, n_odd))))
        q = rng.choice((Q_ONE, q_neg(Q_ONE),
                        q_normalize(rng.randint(-3, 3), rng.randint(-2, 2),
                                    0, rng.randint(-1, 1), rng.randint(1, 3))))
        if q[:4] != (0, 0, 0, 0):
            terms[pack(ek, ok)] = q
    return terms


def _derivative_by_partials(terms, coefficients, poly, negate):
    """Add sum_v c_v * partial_v(poly), or its negative, into ``terms``,
    each partial built on its own by ``oracles.partial`` and multiplied
    in by ``add_product_loop``; the names of ``coefficients`` that
    ``poly``'s ring lacks contribute nothing."""
    for name, c in coefficients.items():
        if poly.ctx.has(name):
            add_product_loop(terms, c, partial(poly, name), negate)


def test_add_derivative_matches_the_sum_of_oracle_partials():
    """The one pass of add_derivative gives the term dict of sum_v c_v *
    partial_v, with each partial built on its own and multiplied by the
    plain loop.  The seeded cases hold even exponents 2 and 3, held odd
    factors at every position, sums that cancel, variables the derivation
    does not hold, and a derivation and a polynomial over a ring that
    adds t and tau on either side."""
    import random

    rng = random.Random(20261022)
    ctx = RingContext()
    ctx.evens("u", "v", "w")
    ctx.odds("th1", "th2", "th3", "th4")
    ext = ctx.extended(even=("t",), odd=("tau",))
    seen = set()
    for _ in range(400):
        field_ring, poly_ring = rng.choice(((ctx, ctx), (ctx, ext),
                                            (ext, ctx), (ext, ext)))
        poly = SuperPoly._new(poly_ring, _random_ring_terms(
            rng, poly_ring, rng.randint(0, 5), 3))
        names = field_ring.even_names + field_ring.odd_names
        coefficients = {
            name: SuperPoly._new(field_ring, _random_ring_terms(
                rng, field_ring, rng.randint(1, 3), 2))
            for name in rng.sample(names, rng.randint(0, len(names)))}
        held = field_ring.by_variable(coefficients)
        negate = rng.random() < 0.5
        start = rng.choice(("empty", "random", "cancel"))
        base = {}
        if start == "random":
            base = _random_ring_terms(rng, ext, 6, 3)
        elif start == "cancel":
            _derivative_by_partials(base, coefficients, poly, not negate)
        fast, slow = dict(base), dict(base)
        add_derivative(fast, held, poly, negate)
        _derivative_by_partials(slow, coefficients, poly, negate)
        assert fast == slow
        if start == "cancel":
            assert fast == {}
        even_ids, odd_ids = held
        for key in poly.terms:
            ek, ok = unpack(key)
            for vid, e in ek:
                seen.add(("exponent", e, vid in even_ids))
            for pos, vid in enumerate(ok):
                seen.add(("odd position", pos, vid in odd_ids))
        seen.add(("rings", field_ring is ext, poly_ring is ext))
        seen.add(("negate", negate))
    assert seen >= {("exponent", e, h) for e in (1, 2, 3)
                    for h in (False, True)}
    assert seen >= {("odd position", pos, h) for pos in range(5)
                    for h in (False, True)}
    assert seen >= {("rings", a, b) for a in (False, True)
                    for b in (False, True)}
    assert seen >= {("negate", False), ("negate", True)}

    # one pass whose contributions cancel to zero: u d/du - v d/dv on uv,
    # th1 d/dth1 - th2 d/dth2 on th1*th2 (th2 d/dth2 gives +th1*th2 from
    # the odd position), u d/du - th1 d/dth1 on u*v*th1
    u, v = ctx.var("u"), ctx.var("v")
    t1, t2 = ctx.var("th1"), ctx.var("th2")
    for coefficients, poly in (({"u": u, "v": -v}, u * v),
                               ({"th1": t1, "th2": -t2}, t1 * t2),
                               ({"u": u, "th1": -t1}, u * v * t1)):
        terms = {}
        add_derivative(terms, ctx.by_variable(coefficients), poly)
        assert terms == {}
        _derivative_by_partials(terms, coefficients, poly, False)
        assert terms == {}


def test_even_derivative_is_ordinary(ctx):
    u, v = ctx.var("u"), ctx.var("v")
    p = u * u * v + u * 3
    assert p.left_derivative("u") == u * v * 2 + ctx.scalar(3)
    assert p.left_derivative("v") == u * u


def test_product_rule_super(ctx):
    u, t1, t2 = ctx.var("u"), ctx.var("th1"), ctx.var("th2")
    f = u * t1
    g = t2 * u
    # d(fg) = df g + (-1)^{|f|} f dg for odd derivations
    lhs = (f * g).left_derivative("th1")
    rhs = f.left_derivative("th1") * g - f * g.left_derivative("th1")
    assert lhs == rhs


def test_substitute_parity_checked(ctx):
    u, t1 = ctx.var("u"), ctx.var("th1")
    p = u * t1
    with pytest.raises(Exception):
        substitute(p, {"u": t1})


def test_substitute_basic(ctx):
    u, v, t1, t2 = (ctx.var(n) for n in ("u", "v", "th1", "th2"))
    p = u * t1 + v
    assert substitute(p, {"u": v}) == v * t1 + v
    with pytest.raises(KeyError):
        substitute(p, {"t_absent": u})
    q = substitute(t1 * t2, {"th1": t2})
    assert q.is_zero()


def test_substitute_into_extension(ctx):
    ext = ctx.extended(even=("z",))
    u = ctx.var("u")
    p = u * u
    q = substitute(p, {"u": ext.var("z")})
    assert q == ext.var("z") * ext.var("z")
    assert q.ctx is ext


def test_lift_and_demote(ctx):
    ext = ctx.extended(odd=("tau",))
    u = ctx.var("u")
    lifted = ext.lift(u)
    assert lifted.ctx is ext
    assert demote(ctx, lifted) == u
    with pytest.raises(ContextError):
        demote(ctx, ext.var("tau"))


def test_render_goldens(ctx):
    u, v, t1, t2 = (ctx.var(n) for n in ("u", "v", "th1", "th2"))
    assert (u * u * v).render() == "u^2*v"
    assert (t1 * t2).render() == "th1*th2"
    assert (u - v).render() == "u - v"
    assert ctx.zero.render() == "0"
    assert (u * FieldScalar(0, 1)).render() == "i*u"
    assert ((u + v) * 0 + ctx.one).render() == "1"
    composite = u * FieldScalar(1, 1)
    assert composite.render() == "(1 + i)*u"
    half, i_r2 = Fraction(1, 2), FieldScalar(0, 0, 0, 1)
    assert (u * 2).render() == "2*u"
    assert (u * v * -2).render() == "-2*u*v"
    assert (t1 * t2 * half).render() == "1/2*th1*th2"
    assert (u * i_r2).render() == "i*r2*u"
    assert ctx.scalar(2).render() == "2"
    assert ctx.scalar(-2).render() == "-2"
    assert ctx.scalar(i_r2).render() == "i*r2"
    assert ctx.scalar(-half).render() == "-1/2"
    assert (u * u * 2 - v * half + t1 * i_r2 - 2).render() == \
        "-2 + i*r2*th1 - 1/2*v + 2*u^2"


def test_numeric_context_scalars():
    p = NUMERIC_CTX.scalar(SQRT2)
    assert p.is_scalar()
    assert p.scalar_part() == SQRT2
    assert (p * p).scalar_part() == FieldScalar(2)


def test_power_and_hash(ctx):
    u = ctx.var("u")
    assert u ** 3 == u * u * u
    assert hash(u + u) == hash(u * 2)


def test_constant_hash_matches_scalar(ctx):
    assert NUMERIC_CTX.scalar(1) == 1
    assert len({NUMERIC_CTX.scalar(1), 1}) == 1
    assert hash(NUMERIC_CTX.zero) == hash(ctx.zero) == hash(0)
    assert hash(ctx.scalar(SQRT2)) == hash(SQRT2)
    assert hash(ctx.one) == hash(ONE)
