"""Supercommutative polynomial ring: algebra laws, derivatives, rendering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superflag.ring import ContextError, NUMERIC_CTX, RingContext
from superflag.scalars import FieldScalar, I, ONE, SQRT2

from oracles import demote, substitute


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

    for (ek, ok), q in p.terms.items():
        if parity == 0:
            for pos, (v, e) in enumerate(ek):
                if v == vid:
                    if e == 1:
                        new_ek = ek[:pos] + ek[pos + 1:]
                    else:
                        new_ek = ek[:pos] + ((v, e - 1),) + ek[pos + 1:]
                    add((new_ek, ok), q_mul(q, (e, 0, 0, 0, 1)))
                    break
        elif vid in ok:
            pos = ok.index(vid)
            add((ek, ok[:pos] + ok[pos + 1:]), q if pos % 2 == 0 else q_neg(q))
    return terms


def test_left_derivative_matches_the_accumulating_loop():
    import random

    rng = random.Random(20261018)
    ctx = RingContext()
    evens = ctx.evens("u", "v", "w")
    odds = ctx.odds("th1", "th2", "th3", "th4")
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
        for name in ctx.even_names + ctx.odd_names:
            assert p.left_derivative(name).terms == \
                _accumulated_left_derivative(p, name)
        for _, ok in p.terms:
            positions.update(enumerate(ok))
    # every odd variable is seen at every position it can take
    assert positions == {(pos, vid) for vid in range(4)
                         for pos in range(vid + 1)}


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
