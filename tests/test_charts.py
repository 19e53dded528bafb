"""Charts, the supergroup action, fundamental fields, the isotropic chart."""

import functools
import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest

from superflag import charts, suites
from superflag.charts import (
    ChartError,
    FlagType,
    FlagTypeError,
    VectorField,
    act,
    build_chart,
    chart_variable_count,
    constant_functions_predicate,
    fundamental_bracket_sign,
    fundamental_field,
    isotropic_chart,
    lemma_eta_field,
    lemma_eta_generator,
    lemma_h_field,
    lemma_h_generator,
    validate_flag_type,
)
from superflag.linalg import SingularMatrixError
from superflag.matrices import BlockShape, NotNilpotentError, SuperMatrix
from superflag.osp import basis
from superflag.ring import ContextError, RingContext, SuperPoly, \
    common_context
from superflag.scalars import FieldScalar
from superflag.weights import Weight

from oracles import (
    add_product_loop,
    bracket_all_names,
    demote,
    dependent_values,
    formal_isotropic_chart,
    group_like,
    partial,
    residual_entries,
    substitute,
)


# ---------------------------------------------------------------------------
# Flag types
# ---------------------------------------------------------------------------


def test_validate_flag_type_accepts_chains():
    ft = validate_flag_type((3, 1), (2, 1))
    assert (ft.r, ft.m, ft.n) == (1, 3, 2)
    ft = validate_flag_type((2, 2, 1), (2, 1, 0))
    assert ft.r == 2
    assert ft.fiber_type() == FlagType((2, 1), (1, 0))


@pytest.mark.parametrize("k,l", [
    ((1, 2), (1, 1)),        # increasing k
    ((2, 2), (1, 1)),        # step sum not strictly decreasing
    ((2, 1), (1,)),          # length mismatch
    ((2,), (1,)),            # too short
    ((2, -1), (1, 0)),       # negative
    ((2, 0), (1, 0)),        # trivial last step
    ((3, 1), (0, 0)),        # no odd directions at all
])
def test_validate_flag_type_rejects(k, l):
    with pytest.raises(FlagTypeError):
        validate_flag_type(k, l)


def test_constant_functions_predicate():
    assert constant_functions_predicate(validate_flag_type((2, 1), (1, 1)))
    assert not constant_functions_predicate(
        validate_flag_type((2, 2, 1), (2, 1, 0)))
    # l full on the left, k vanishing on the right: the mirrored family
    assert not constant_functions_predicate(
        validate_flag_type((2, 0), (2, 2)))
    assert constant_functions_predicate(validate_flag_type((3, 1), (2, 1)))


# ---------------------------------------------------------------------------
# Charts and the action
# ---------------------------------------------------------------------------


def test_build_chart_identity_rows_and_slots():
    ft = validate_flag_type((2, 1), (1, 1))
    c = build_chart(ft)
    z = c.matrix(1)
    assert z[0, 0].scalar_part() == FieldScalar(1)
    assert z[2, 1].scalar_part() == FieldScalar(1)
    assert z[1, 0] == c.ctx.var("x1_2_1")
    assert z[1, 1] == c.ctx.var("xi1_2_1")
    assert c.independent == ("x1_2_1", "xi1_2_1")
    assert c.slot_of("x1_2_1") == (1, 1, 0)


def test_build_chart_custom_index_sets():
    # identity row moved to the second even slot: column (x; 1)
    ft = FlagType((2, 1), (0, 0))
    c = build_chart(ft, index_sets=[((2,), ())])
    z = c.matrix(1)
    assert z[0, 0] == c.ctx.var("x1_1_1")
    assert z[1, 0].scalar_part() == FieldScalar(1)


def test_chart_variable_count_matches_built_charts():
    for k, l in [((2, 1), (1, 1)), ((3, 1), (2, 1)), ((2, 2, 1), (2, 1, 0))]:
        ft = validate_flag_type(k, l)
        ev, od = chart_variable_count(ft)
        c = build_chart(ft)
        got_ev = sum(1 for n in c.independent
                     if c.ctx.parity_of(n) == 0)
        got_od = len(c.independent) - got_ev
        assert (got_ev, got_od) == (ev, od)


def test_index_set_validation():
    ft = validate_flag_type((2, 1), (1, 1))
    with pytest.raises(ChartError):
        build_chart(ft, index_sets=[((3,), (1,))])     # out of range
    with pytest.raises(ChartError):
        build_chart(ft, index_sets=[((1, 2), (1,))])   # wrong cardinality
    with pytest.raises(ChartError):
        build_chart(ft, index_sets=[((1,), (1,)), ((1,), (1,))])


def test_act_identity_fixes_chart():
    ft = validate_flag_type((3, 1), (2, 1))
    c = build_chart(ft)
    ident = SuperMatrix.identity(BlockShape(3, 2), c.ctx)
    assert act(ident, c) == c


def test_act_composition_randomized():
    ft = validate_flag_type((3, 1), (2, 1))
    c = build_chart(ft)
    ext = c.ctx.extended(odd=("q1", "q2", "q3", "q4"))
    odd_vars = [ext.var(f"q{i}") for i in range(1, 5)]
    shape = BlockShape(3, 2)
    identity_rows = {0, 3}       # I1 = ({1}, {1})
    rng = random.Random(20240815)
    done = 0
    while done < 8:
        l1 = group_like(rng, ext, shape, identity_rows, odd_vars)
        l2 = group_like(rng, ext, shape, identity_rows, odd_vars)
        lhs = act(l2, act(l1, c))
        rhs = act(l2 @ l1, c)
        assert lhs == rhs
        done += 1


def test_act_retarget_index_sets():
    ft = validate_flag_type((2, 1), (1, 1))
    c = build_chart(ft)
    swap = SuperMatrix.build(
        BlockShape(2, 1), BlockShape(2, 1),
        {(0, 1): FieldScalar(1), (1, 0): FieldScalar(1),
         (2, 2): FieldScalar(1)}, parity=0)
    moved = act(swap, c, J=[((2,), (1,))])
    z = moved.matrix(1)
    assert z[1, 0].scalar_part() == FieldScalar(1)   # identity row moved
    assert z[0, 0] == moved.ctx.lift(c.ctx.var("x1_2_1"))
    assert moved.index_sets == (((2,), (1,)),)


#: Flag types of the action pin: one to four steps, a zero last k and a
#: zero last l among them.
ACT_TYPES = [
    ((2, 1), (1, 1)),
    ((3, 1), (2, 1)),
    ((3, 2, 1), (2, 1, 0)),
    ((3, 1, 0), (2, 1, 1)),
    ((2, 2, 1), (2, 1, 0)),
    ((3, 2, 1, 1), (3, 2, 1, 0)),
]


def _retargeted(rng, ft):
    """Seeded index sets of ``ft``, drawn from each step's whole range."""
    return [(rng.sample(range(1, ft.k[s - 1] + 1), ft.k[s]),
             rng.sample(range(1, ft.l[s - 1] + 1), ft.l[s]))
            for s in range(1, ft.r + 1)]


def _numeric_acting(rng, shape, kept):
    """A seeded even numeric matrix; for ``kept`` rows, only its entries in
    the ``kept`` columns are nonzero."""
    entries = {}
    for i in range(shape.total):
        for j in range(shape.total):
            if shape.is_odd_index(i) != shape.is_odd_index(j):
                continue
            if i in kept and j not in kept:
                continue
            v = rng.randint(-1, 2) + (2 if i == j else 0)
            if v:
                entries[(i, j)] = FieldScalar(v)
    return SuperMatrix.build(shape, shape, entries, parity=0)


def _act_sweep():
    """One line or block per ``act`` call: the rendered chart and its index
    sets, or the type and text of the error raised.  Per flag type of
    ``ACT_TYPES`` and per target (the chart's own index sets, then seeded
    ones): numeric L, half of them with the designated rows of the first
    step kept off the other columns, and E + X t over the chart's ring
    extended by odd tau__1, tau__2, with t = tau__1 for odd X and
    tau__1 tau__2 for even X, X numeric or with odd chart variables."""
    rng = random.Random(20261022)
    out = []
    for k, l in ACT_TYPES:
        chart = build_chart(validate_flag_type(k, l))
        ft = chart.ft
        shape = BlockShape(ft.m, ft.n)
        ext = chart.ctx.extended(odd=("tau__1", "tau__2"))
        t_odd = ext.var("tau__1")
        t_even = t_odd * ext.var("tau__2")
        eye = SuperMatrix.identity(shape, ext)
        for J in (None, _retargeted(rng, ft)):
            own = chart.index_sets if J is None else J
            kept = set(charts._identity_rows(ft, 1, *own[0]))
            acting = [_numeric_acting(rng, shape, kept if i % 2 else ())
                      for i in range(8)]
            for i in range(16):
                parity = i % 2
                x = _random_algebra_matrix(
                    rng, shape, parity, chart.ctx if i % 4 > 1 else None)
                acting.append(eye + x.lift(ext) * (t_odd if parity
                                                   else t_even))
            for L in acting:
                try:
                    moved = act(L, chart, J)
                except (SingularMatrixError, NotNilpotentError) as exc:
                    out.append(f"{type(exc).__name__}: {exc}")
                else:
                    out.append(f"{moved.index_sets}\n{moved.render()}")
    return out


#: sha256 over ``_act_sweep()``, one entry per ``act`` call: 168 charts
#: and 120 errors; taken while C_s was still cut out by a submatrix call.
PINNED_ACT = ("e39d2c7c6869bd4376d05c4f5d16b6c2"
              "6fed2ee638d448c2cdea12555c1f4901")


def test_act_matches_pinned_digest():
    text = "\n".join(_act_sweep()) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_ACT


# ---------------------------------------------------------------------------
# Vector fields
# ---------------------------------------------------------------------------


def test_euler_type_field_from_diagonal_action():
    """Row scalings of the ambient space dilate the non-identity rows."""
    ft = validate_flag_type((2, 1), (1, 1))
    c = build_chart(ft)
    X = SuperMatrix.build(
        BlockShape(2, 1), BlockShape(2, 1),
        {(0, 0): FieldScalar(2), (1, 1): FieldScalar(3),
         (2, 2): FieldScalar(5)},
        parity=0,
    )
    v = fundamental_field(X, c)
    ctx = c.ctx
    # identity row weight 2, variable row weight 3, odd identity weight 5
    assert v.coefficient("x1_2_1") == ctx.var("x1_2_1") * FieldScalar(3 - 2)
    assert v.coefficient("xi1_2_1") == ctx.var("xi1_2_1") * FieldScalar(3 - 5)


def test_vector_field_apply_and_render():
    ctx = RingContext()
    ctx.evens("u")
    ctx.odds("th")
    v = VectorField(ctx, 1, {"th": ctx.one, "u": -ctx.var("th")},
                    ("th", "u"))
    f = ctx.var("u") * ctx.var("th")
    # v(f) = 1 * d/dth(u th) + (-th) * d/du(u th) = u - th*th = u
    assert v.apply(f) == ctx.var("u")
    assert v.render() == "d/dth - th*d/du"


def test_vector_field_apply_matches_termwise_sum():
    """apply skips absent variables and sums in one term dict; the result
    is the plain sum of coefficient * left derivative over every name."""
    ctx = RingContext()
    u, w = ctx.evens("u", "w")
    a, b, c = ctx.odds("a", "b", "c")
    v = VectorField(ctx, 1, {"u": a, "w": u * b, "a": u * u, "b": ctx.zero,
                             "c": -w}, ("u", "w", "a", "b", "c"))
    polys = [u * a * b + w * c, u * u * w, a * b * c, ctx.zero,
             ctx.scalar(FieldScalar(3)), u * c - w * a * b]
    for f in polys:
        want = ctx.zero
        for name, coeff in v.coefficients.items():
            want = want + coeff * f.left_derivative(name)
        assert v.apply(f) == want
        assert v.apply(f).render() == want.render()


def _termwise_apply(field, poly):
    """``field`` applied to ``poly`` name by name: the sum of coefficient
    * left_derivative(name) over every coefficient, in the larger ring."""
    ctx = common_context(field.ctx, poly.ctx)
    poly = ctx.lift(poly)
    out = ctx.zero
    for name, coeff in field.coefficients.items():
        out = out + coeff * poly.left_derivative(name)
    return out


def _random_field(rng, ctx, names, parity):
    """A field over ``ctx`` holding a seeded subset of ``names``, with
    polynomial coefficients of small degree, some of them zero."""
    coeffs = {}
    for name in names:
        if rng.random() < 0.6:
            coeffs[name] = _random_poly(rng, ctx, 2)
    return VectorField(ctx, parity, coeffs, tuple(names))


def _random_poly(rng, ctx, max_terms):
    """A seeded polynomial over ``ctx``: each term a small integer times
    even variables to the powers 0 to 3 and a random set of odd ones."""
    poly = ctx.zero
    for _ in range(rng.randint(0, max_terms)):
        term = ctx.scalar(FieldScalar(rng.choice((-2, -1, 1, 3))))
        for name in ctx.even_names:
            term = term * ctx.var(name) ** rng.choice((0, 0, 1, 2, 3))
        for name in rng.sample(ctx.odd_names, rng.randint(0, 3)):
            term = term * ctx.var(name)
        poly = poly + term
    return poly


def test_derivation_pass_matches_the_sum_of_left_derivatives():
    """apply and bracket differentiate and multiply each polynomial in
    one pass; both equal the sums of coefficient * left_derivative(name),
    name by name.  The seeded cases hold even exponents 2 and 3, odd
    factors at even and odd positions, names the applying field lacks,
    and fields over a ring that adds t and tau on either side of a
    bracket."""
    rng = random.Random(20261020)
    ctx = RingContext()
    ctx.evens("u", "w")
    ctx.odds("a", "b", "c")
    ext = ctx.extended(even=("t",), odd=("tau",))
    seen = set()
    for _ in range(60):
        rings = [rng.choice((ctx, ext)), rng.choice((ctx, ext))]
        v, w = (_random_field(rng, ring, ring.even_names + ring.odd_names,
                              rng.randint(0, 1)) for ring in rings)
        poly = _random_poly(rng, rings[1], 4)
        assert v.apply(poly) == _termwise_apply(v, poly)
        assert v.apply(poly).render() == _termwise_apply(v, poly).render()
        got = v.bracket(w)
        sign = -1 if v.parity and w.parity else 1
        for name in got.order:
            want = _termwise_apply(v, w.coefficient(name)) - \
                _termwise_apply(w, v.coefficient(name)) * sign
            assert got.coefficient(name) == want
            assert (name in got.coefficients) == bool(want.terms)
        for field, polys in ((v, [poly]), (v, w.coefficients.values()),
                             (w, v.coefficients.values())):
            held = {n for n, c in field.coefficients.items() if c.terms}
            for p in polys:
                for evens, odds, _ in p.monomials():
                    for name, e in evens:
                        seen.add(("held" if name in held else "lacks", e))
                    for pos, name in enumerate(odds):
                        if name in held:
                            seen.add(("odd at", pos % 2))
        seen.add(("rings", tuple(r is ext for r in rings)))
    assert {("held", 2), ("held", 3), ("lacks", 1), ("odd at", 0),
            ("odd at", 1), ("rings", (True, False)),
            ("rings", (False, True))} <= seen


def test_field_sums_and_scales_keep_only_nonzero_coefficients():
    """Every VectorField operation drops a coefficient that vanishes:
    v - v and v.scale(0) hold none and render 0, and a sum holds only the
    names whose coefficients do not cancel."""
    iso = isotropic_chart(3, 2)
    bas = basis("odd", 2, 2)
    fields = [fundamental_field(bas[t].matrix, iso.chart)
              for t in ("G4:1", "C12:1,1", "B21:1,1")]
    for v in fields:
        assert v.coefficients
        for zero in (v - v, v.scale(FieldScalar(0)), v + (-v)):
            assert zero.coefficients == {}
            assert zero.render() == "0"
            assert zero.order == v.order
        assert (-v).coefficients.keys() == v.coefficients.keys()
        assert all(c.terms for c in (v + v).coefficients.values())
    a, b = fields[0], fields[1]
    total = a + b
    assert (total - b).coefficients.keys() == a.coefficients.keys()
    assert total - b == a
    assert all(c.terms for c in total.coefficients.values())


def test_bracket_takes_no_per_name_derivative(monkeypatch):
    """A guard against the per-name path: the bracket indexes each
    field's coefficients by variable once and splits each polynomial in
    one pass, never asking a polynomial for its variables or for one
    left derivative at a time."""
    iso = isotropic_chart(3, 2, tail=((1,), (1,)))
    bas = basis("odd", 2, 2)
    fx = fundamental_field(bas["G4:1"].matrix, iso.chart)
    fy = fundamental_field(bas["C21:1,1"].matrix, iso.chart)
    calls = []
    for method in ("left_derivative", "variables"):
        real = getattr(SuperPoly, method)

        def counting(self, *args, _real=real, _method=method):
            calls.append(_method)
            return _real(self, *args)

        monkeypatch.setattr(SuperPoly, method, counting)
    br = fx.bracket(fy)
    assert br.coefficients
    assert calls == []


def test_sum_of_fields_over_two_rings_lives_in_the_larger():
    """A sum or difference of fields over a ring R and over R + t is a
    field over R + t, whichever side holds t."""
    r = RingContext()
    u, = r.evens("u")
    rt = r.extended(even=("t",))
    v = VectorField(r, 0, {"u": u}, ("u",))
    w = VectorField(rt, 0, {"u": rt.lift(u) * rt.var("t")}, ("u",))
    for f in (v + w, w + v, v - w):
        assert f.ctx is rt
        assert f.coefficient("u").ctx is rt
    assert (v + w).apply(u).render() == (w + v).apply(u).render() \
        == "u + u*t"
    assert (v - w).apply(u).render() == "u - u*t"


def test_vector_field_bracket_closes_on_coordinates():
    ctx = RingContext()
    ctx.evens("u", "v")
    v1 = VectorField(ctx, 0, {"u": ctx.var("v"), "v": ctx.zero}, ("u", "v"))
    v2 = VectorField(ctx, 0, {"u": ctx.zero, "v": ctx.var("u")}, ("u", "v"))
    br = v1.bracket(v2)
    assert br.coefficient("u") == -ctx.var("u")
    assert br.coefficient("v") == ctx.var("v")


def test_equal_vector_fields_hash_equal():
    """Equality reads only the coefficients, so the hash must ignore the
    parity, the order and the zero coefficients too."""
    ctx = RingContext()
    u, = ctx.evens("u")
    th, = ctx.odds("th")
    zero_even = VectorField(ctx, 0, {}, ())
    zero_odd = VectorField(ctx, 1, {"u": ctx.zero}, ("u",))
    even = VectorField(ctx, 0, {"u": u, "th": th}, ("u", "th"))
    odd = VectorField(ctx, 1, {"th": ctx.zero, "u": th}, ("th", "u"))
    mixed = even + odd
    assert mixed.parity is None
    pairs = [
        (zero_even, zero_odd),
        (even + zero_odd, even),
        (mixed - odd, even),
        (VectorField(ctx, 0, {"th": th, "u": u}, ("th", "u")), even),
        (VectorField(ctx, 0, {"u": ctx.one}, ("u",)),
         VectorField(ctx.extended(even=("w",)), 0,
                     {"u": ctx.extended(even=("w",)).one}, ("u",))),
    ]
    for a, b in pairs:
        assert a == b
        assert hash(a) == hash(b)
    assert (mixed - odd).parity is None
    assert len({zero_even, zero_odd, even, even + zero_odd, mixed - odd,
                odd, mixed}) == 4


def test_bracket_of_a_mixed_parity_field_is_a_value_error():
    ctx = RingContext()
    u, = ctx.evens("u")
    th, = ctx.odds("th")
    even = VectorField(ctx, 0, {"u": u}, ("u",))
    odd = VectorField(ctx, 1, {"u": th}, ("u",))
    mixed = even + odd
    for a, b in ((mixed, even), (odd, mixed), (mixed, mixed)):
        with pytest.raises(ValueError, match="parity-homogeneous"):
            a.bracket(b)
    assert even.bracket(odd).parity == 1


# ---------------------------------------------------------------------------
# The isotropic chart
# ---------------------------------------------------------------------------


#: (2, 1) with a one-step tail: the tail matrices hold no dependent slot.
TAIL_CASE = pytest.param(2, 1, ((1,), (0,)), id="2-1-tail")


@pytest.mark.parametrize("k1,l1,tail", [
    pytest.param(1, 1, None, id="1-1"), pytest.param(2, 1, None, id="2-1"),
    pytest.param(2, 2, None, id="2-2"), pytest.param(3, 1, None, id="3-1"),
    TAIL_CASE,
])
def test_isotropic_residual_vanishes(k1, l1, tail):
    iso = isotropic_chart(k1, l1, tail=tail)
    res = iso.residual()
    for i in range(res.rows.total):
        for j in range(res.cols.total):
            assert res[i, j].is_zero(), (i, j)


@pytest.mark.parametrize("k1,l1,tail", [
    pytest.param(2, 1, None, id="2-1"), pytest.param(2, 2, None, id="2-2"),
    TAIL_CASE,
])
def test_formal_relations_resolved_by_solution(k1, l1, tail):
    """The chart's dependent entries, substituted into the relations of
    the chart with every slot a variable, solve them."""
    iso = isotropic_chart(k1, l1, tail=tail)
    formal = formal_isotropic_chart(k1, l1, tail)
    solution = dependent_values(iso, formal)
    assert len(solution) == len(formal.slots) - len(iso.chart.slots)
    for entry in residual_entries(formal, iso.gram):
        assert substitute(entry, solution).is_zero()


def test_isotropic_chart_blocks_layout():
    iso = isotropic_chart(2, 1)
    z = iso.chart.matrix(1)
    ctx = iso.chart.ctx
    x, xi = ctx.var("x1_1"), ctx.var("xi1_1")
    eta, y = ctx.var("eta1_1_1"), ctx.var("y1_1_1")
    half = FieldScalar.parse("1/2")
    assert z[0, 0] == x * x * (-half)            # dependent diagonal of Z1
    assert z[0, 1] == -eta - x * xi              # dependent zeta block
    assert z[1, 0].scalar_part() == FieldScalar(1)
    assert z[2, 0] == x and z[2, 1] == xi
    assert z[3, 0] == eta and z[3, 1] == y
    assert z[4, 1].scalar_part() == FieldScalar(1)
    assert iso.chart.independent == ("x1_1", "xi1_1", "eta1_1_1", "y1_1_1")


def test_isotropic_index_sets():
    iso = isotropic_chart(3, 2)
    (i0, i1), = iso.chart.index_sets
    assert i0 == (3, 4)          # rows k1..2k1-2
    assert i1 == (3, 4)          # rows l1+1..2l1


def test_lemma_fields_symbol_for_symbol_2_1():
    iso = isotropic_chart(2, 1)
    h = fundamental_field(lemma_h_generator(iso, 1), iso.chart)
    assert h == lemma_h_field(iso, 1)
    assert h.render() == "d/dxi1_1 - x1_1*d/deta1_1_1 - xi1_1*d/dy1_1_1"
    e = fundamental_field(lemma_eta_generator(iso, 1, 1), iso.chart)
    assert e == lemma_eta_field(iso, 1, 1)
    assert e.render() == "d/deta1_1_1"


@pytest.mark.parametrize("k1,l1", [(2, 2), (3, 1)])
def test_lemma_fields_all_indices(k1, l1):
    iso = isotropic_chart(k1, l1)
    for i in range(1, l1 + 1):
        assert fundamental_field(lemma_h_generator(iso, i), iso.chart) == \
            lemma_h_field(iso, i)
    for a in range(1, l1 + 1):
        for b in range(1, k1):
            got = fundamental_field(lemma_eta_generator(iso, a, b), iso.chart)
            assert got == lemma_eta_field(iso, a, b)


def test_lemma_fields_fails_an_eta_field_with_one_coefficient_more(
        monkeypatch):
    """The eta-field check is ``got == want`` alone: an eta field given one
    nonzero coefficient more fails it, since a field keeps only nonzero
    coefficients and equality reads an absent name as zero.  The h fields,
    left as they are, still pass."""
    real = suites.fundamental_field

    def one_more(x, chart):
        field = real(x, chart)
        if len(field.coefficients) > 1:
            return field
        return VectorField(field.ctx, field.parity,
                           {**field.coefficients, "xi1_1": field.ctx.one},
                           field.order)

    monkeypatch.setattr(suites, "fundamental_field", one_more)
    verdicts = {}
    for r in suites.suite_lemma_fields(3, 2).records:
        verdicts.setdefault(r.check_id[:3], []).append(r.ok)
    assert verdicts == {"h-f": [True] * 2, "eta": [False] * 4}


def test_lemma_fields_ignore_one_step_tail():
    iso = isotropic_chart(2, 1, tail=((1,), (0,)))
    assert iso.ft == FlagType((3, 1, 1), (2, 1, 0))
    v = fundamental_field(lemma_h_generator(iso, 1), iso.chart)
    assert v == lemma_h_field(iso, 1)
    for name in iso.chart.independent:
        if iso.chart.slot_of(name)[0] > 1:
            assert v.coefficient(name).is_zero(), name


def test_fields_annihilate_isotropy_relations():
    """Tangency: the closed-form fields, acting through every slot of the
    chart with every slot a variable, kill the quadric entries modulo the
    relations."""
    for k1, l1 in [(2, 1), (2, 2)]:
        iso = isotropic_chart(k1, l1)
        formal = formal_isotropic_chart(k1, l1)
        solution = dependent_values(iso, formal)
        entries = residual_entries(formal, iso.gram)
        gens = [lemma_h_generator(iso, i) for i in range(1, l1 + 1)]
        gens += [lemma_eta_generator(iso, a, b)
                 for a in range(1, l1 + 1) for b in range(1, k1)]
        for g in gens:
            w = fundamental_field(g, formal)
            for entry in entries:
                assert substitute(w.apply(entry), solution).is_zero()


def _check_opposite_homomorphism(k1, l1, tail=None):
    """[field(X), field(Y)] = -(-1)^{|X||Y|} field([X, Y]) on every ordered
    pair of generators of osp(2k1-1|2l1)."""
    iso = isotropic_chart(k1, l1, tail=tail)
    bas = basis("odd", k1 - 1, l1)
    fields = {g.tag: fundamental_field(g.matrix, iso.chart) for g in bas}
    for p in bas:
        for q in bas:
            br = fundamental_field(p.matrix.superbracket(q.matrix), iso.chart)
            want = br.scale(
                FieldScalar(fundamental_bracket_sign(p.parity, q.parity)))
            assert fields[p.tag].bracket(fields[q.tag]) == want, (p.tag, q.tag)


def test_fundamental_field_is_opposite_homomorphism():
    """The field map is an anti-homomorphism on osp(3|2)."""
    _check_opposite_homomorphism(2, 1)


@pytest.mark.parametrize("k1,l1,tail", [
    pytest.param(3, 2, None, id="3-2"),
    pytest.param(3, 2, ((1,), (1,)), id="3-2-tail"),
])
def test_fundamental_field_is_opposite_homomorphism_larger(k1, l1, tail):
    """The same on osp(5|4), on the chart and on a chart with a tail."""
    _check_opposite_homomorphism(k1, l1, tail)


def _over_extension(field, ext):
    """``field`` moved to ``ext``, which adds the even t and the odd tau:
    each coefficient times t, plus d/dt and d/dtau terms of the field's
    parity whose coefficients hold t or tau."""
    t, tau = ext.var("t"), ext.var("tau")
    coeffs = {n: ext.lift(c) * t for n, c in field.coefficients.items()}
    if field.parity:
        coeffs |= {"t": tau, "tau": t}
    else:
        coeffs |= {"t": t * t, "tau": tau * t}
    return VectorField(ext, field.parity, coeffs,
                       field.order + ("t", "tau"))


@functools.lru_cache(maxsize=None)
def _chart_and_basis(k1, l1, tail):
    return isotropic_chart(k1, l1, tail=tail), basis("odd", k1 - 1, l1)


@pytest.mark.parametrize("k1, l1, tail, x, y", [
    (5, 4, ((2,), (1,)), "C21:2,2", "B21:1,1"),
    (5, 4, ((2,), (1,)), "B21:1,3", "C21:1,3"),
    (5, 4, ((2,), (1,)), "G3:3", "A21:1,2"),
    (5, 4, ((2,), (1,)), "C21:1,2", "C21:4,4"),
    (6, 5, None, "B21:2,4", "C21:3,5"),
])
def test_bracket_matches_the_all_names_scan_on_the_costliest_pairs(
        k1, l1, tail, x, y):
    """The five generator pairs of the benchmark's fields pool whose field
    bracket takes the most term products, on the widest charts there: the
    bracket equals the oracle's in both orders.  These brackets are zero,
    so thousands of products must cancel exactly; each field applied to
    the other's coefficients, a half of the bracket, is not zero, and
    equals the sum of coefficient times oracle partial."""
    iso, bas = _chart_and_basis(k1, l1, tail)
    v = fundamental_field(bas[x].matrix, iso.chart)
    w = fundamental_field(bas[y].matrix, iso.chart)
    for a, b in ((v, w), (w, v)):
        halves = 0
        for poly in b.coefficients.values():
            want = {}
            for name in poly.variables() & a.coefficients.keys():
                add_product_loop(want, a.coefficients[name],
                                 partial(poly, name))
            got = a.apply(poly).terms
            assert got == want
            halves += bool(got)
        assert halves
        got, want = a.bracket(b), bracket_all_names(a, b)
        assert {n: c.terms for n, c in got.coefficients.items()} == \
            {n: c.terms for n, c in want.coefficients.items() if c.terms}
        assert got.render() == want.render()


def test_bracket_matches_the_all_names_scan():
    """The bracket differentiates by the names present in each polynomial
    and looks each one up; the oracle scans every coefficient name.  The
    pairs make the two see different names: a lemma field with a few
    coefficients against a full one, and a field over a ring that adds t
    and tau against fields over the chart's ring, whose coefficients have
    no t or tau, and against another such field.  The oracle gives every
    name of the two orders an entry and the bracket keeps only the nonzero
    ones, so the term dicts are compared on the oracle's nonzero ones."""
    iso = isotropic_chart(3, 2)
    ctx = iso.chart.ctx
    ext = ctx.extended(even=("t",), odd=("tau",))
    full = [fundamental_field(g.matrix, iso.chart)
            for g in basis("odd", 2, 2)]
    sparse = [lemma_eta_field(iso, a, b) for a in (1, 2) for b in (1, 2)]
    sparse += [lemma_h_field(iso, i) for i in (1, 2)]
    wide = [_over_extension(f, ext) for f in full[::5] + sparse]
    pairs = [(v, w) for v in sparse for w in full]
    pairs += [(v, w) for v in wide for w in full[::3] + sparse + wide]
    misses = set()
    for v, w in pairs + [(w, v) for v, w in pairs]:
        got, want = v.bracket(w), bracket_all_names(v, w)
        assert got.ctx is want.ctx is common_context(v.ctx, w.ctx)
        assert (got.parity, got.order) == (want.parity, want.order)
        assert {n: c.terms for n, c in got.coefficients.items()} == \
            {n: c.terms for n, c in want.coefficients.items() if c.terms}
        assert got.render() == want.render()
        assert got == want
        for a, b in ((v, w), (w, v)):
            for c in b.coefficients.values():
                misses.update(n for n in c.variables()
                              if n not in a.coefficients)
    # names the applying field lacks: chart coordinates and t, tau
    assert {"t", "tau"} <= misses and len(misses) > 2


# ---------------------------------------------------------------------------
# The closed form against the action over a ring extended by t
# ---------------------------------------------------------------------------


def _tau_field(X, chart):
    """The fundamental field by its definition: act with E + X t, where t
    is a fresh odd tau (odd X) or a product of two (even X) in an extended
    ring, and take the left t-derivative of each independent coordinate."""
    base = chart.ctx
    taus = ("tau__1",) if X.parity else ("tau__1", "tau__2")
    ext = base.extended(odd=taus)
    t = ext.var("tau__1")
    if not X.parity:
        t = t * ext.var("tau__2")
    shape = BlockShape(chart.ft.m, chart.ft.n)
    moved = act(SuperMatrix.identity(shape, ext) + X.lift(ext) * t, chart)
    coeffs = {}
    for name in chart.independent:
        s, i, j = chart.slot_of(name)
        v = moved.matrix(s)[i, j] - ext.lift(chart.matrix(s)[i, j])
        for tau in taus:
            v = v.left_derivative(tau)
        coeffs[name] = demote(base, v)
    return VectorField(base, X.parity, coeffs, chart.independent)


def _random_algebra_matrix(rng, shape, parity, ctx=None):
    """A seeded matrix of the given parity: small integers in the slots of
    that parity and, when ``ctx`` is given, odd chart variables times
    integers in the other slots."""
    odd_names = ctx.odd_names if ctx is not None else ()
    entries = {}
    for i in range(shape.total):
        for j in range(shape.total):
            slot = int(shape.is_odd_index(i)) ^ int(shape.is_odd_index(j))
            if slot == parity:
                if rng.random() < 0.6:
                    entries[(i, j)] = FieldScalar(rng.randint(-2, 2))
            elif odd_names and rng.random() < 0.4:
                entries[(i, j)] = ctx.var(rng.choice(odd_names)) * \
                    FieldScalar(rng.randint(-2, 2))
    return SuperMatrix.build(shape, shape, entries, ctx=ctx, parity=parity)


def _assert_same_field(X, chart):
    got, want = fundamental_field(X, chart), _tau_field(X, chart)
    assert got == want
    assert got.render() == want.render()


@pytest.mark.parametrize("k,l", [
    pytest.param((2, 1), (1, 1), id="2-1"),
    pytest.param((3, 2, 1), (2, 1, 1), id="3-2-1"),
    pytest.param((3, 1, 0), (2, 1, 1), id="3-1-0"),      # zero last k
    pytest.param((3, 2, 1, 1), (3, 2, 1, 0), id="3-2-1-1"),
])
def test_closed_form_matches_tau_path_on_built_charts(k, l):
    """Seeded X of both parities: numeric, and with odd chart variables in
    the slots of the other parity (so that X itself has odd entries)."""
    chart = build_chart(validate_flag_type(k, l))
    shape = BlockShape(chart.ft.m, chart.ft.n)
    rng = random.Random(f"{k} {l}")
    for _ in range(4):
        for parity in (0, 1):
            _assert_same_field(_random_algebra_matrix(rng, shape, parity),
                               chart)
            _assert_same_field(
                _random_algebra_matrix(rng, shape, parity, chart.ctx), chart)


@pytest.mark.parametrize("k1,l1,tail", [
    pytest.param(2, 1, None, id="2-1"),
    pytest.param(3, 2, None, id="3-2"),
    pytest.param(3, 2, ((1,), (1,)), id="3-2-tail"),
    pytest.param(4, 3, ((2,), (1,)), id="4-3-tail"),
    pytest.param(5, 4, ((2,), (1,)), id="5-4-tail"),
    pytest.param(6, 5, None, id="6-5"),
])
def test_closed_form_matches_tau_path_on_isotropic_charts(k1, l1, tail):
    """Every generator of both parities, and seeded even combinations of
    generators.  (5,4) with tail (2|1) and (6,5) are the benchmark's two
    largest charts, where the first step has the most dependent slots."""
    chart = isotropic_chart(k1, l1, tail=tail).chart
    bas = basis("odd", k1 - 1, l1)
    for g in bas:
        _assert_same_field(g.matrix, chart)
    rng = random.Random(k1 * 10 + l1)
    evens = [g.matrix for g in bas if not g.parity]
    for _ in range(3):
        x = evens[0] * FieldScalar(rng.randint(1, 3))
        for m in rng.sample(evens[1:], 3):
            x = x + m * FieldScalar(rng.randint(-2, 2))
        _assert_same_field(x, chart)


@pytest.mark.parametrize("tail,products", [
    pytest.param(None, 4040, id="5-4"),
    pytest.param(((2,), (1,)), 6053, id="5-4-tail"),
])
def test_fundamental_field_forms_no_dependent_slot(monkeypatch, tail,
                                                   products):
    """A guard against forming entries the field throws away: over every
    generator's field on the (5,4) chart, P is formed only at the identity
    rows and coordinate slots, and Z~_s B only at coordinate slots."""
    chart = isotropic_chart(5, 4, tail=tail).chart
    calls = []

    def counting(*args, _real=charts.add_product):
        calls.append(None)
        return _real(*args)

    monkeypatch.setattr(charts, "add_product", counting)
    for g in basis("odd", 4, 4):
        fundamental_field(g.matrix, chart)
    assert len(calls) == products


def test_fundamental_field_requires_homogeneous_matrix():
    iso = isotropic_chart(2, 1)
    sh = BlockShape(3, 2)
    mixed = SuperMatrix.build(sh, sh, {(0, 0): FieldScalar(1),
                                       (0, 3): FieldScalar(1)}, parity=None)
    with pytest.raises(ValueError):
        fundamental_field(mixed, iso.chart)


def test_fundamental_field_rejects_a_matrix_over_a_foreign_ring():
    """An X over a ring the chart's ring does not extend, unrelated or
    larger, raises ContextError."""
    iso = isotropic_chart(2, 1)
    sh = BlockShape(3, 2)
    unrelated = RingContext()
    unrelated.odds("th")
    larger = iso.chart.ctx.extended(odd=("tau",))
    for ctx in (unrelated, larger):
        name = ctx.odd_names[-1]
        X = SuperMatrix.build(sh, sh, {(0, 3): ctx.var(name)}, ctx=ctx,
                              parity=0)
        with pytest.raises(ContextError):
            fundamental_field(X, iso.chart)


@pytest.mark.parametrize("k1,l1,tail", [
    pytest.param(1, 2, None, id="1-2"),
    pytest.param(2, 1, None, id="2-1"),
    pytest.param(2, 1, ((1,), (0,)), id="2-1-tail"),
    pytest.param(3, 2, None, id="3-2"),
    pytest.param(3, 2, ((1,), (1,)), id="3-2-tail"),
    pytest.param(4, 3, ((2,), (1,)), id="4-3-tail"),
])
def test_fundamental_field_keeps_only_nonzero_coefficients(k1, l1, tail):
    """On the fields of every generator and of sampled brackets of two,
    each coefficient held is nonzero and the order is the chart's
    independent coordinates."""
    chart = isotropic_chart(k1, l1, tail=tail).chart
    gens = basis("odd", k1 - 1, l1).generators
    mats = [g.matrix for g in gens]
    mats += [p.matrix.superbracket(q.matrix)
             for p in gens[::3] for q in gens[1::4]]
    held = 0
    for X in mats:
        v = fundamental_field(X, chart)
        assert v.order == chart.independent
        assert all(c.terms for c in v.coefficients.values())
        held += len(v.coefficients)
    assert held


def test_explicit_zero_coefficients_change_nothing():
    """A fundamental field and the same field with a zero coefficient
    under every other name of its order render, compare, hash, scale and
    bracket (against a third field, on either side) alike; both differ
    from the field with one nonzero coefficient dropped."""
    iso = isotropic_chart(3, 2)
    ctx = iso.chart.ctx
    bas = basis("odd", 2, 2)
    third = fundamental_field(bas["G4:1"].matrix, iso.chart)
    for g in (bas.generators[0], bas["C12:1,1"], bas.generators[-1]):
        sparse = fundamental_field(g.matrix, iso.chart)
        padded = VectorField(
            ctx, sparse.parity,
            {n: sparse.coefficients.get(n, ctx.zero) for n in sparse.order},
            sparse.order)
        assert len(padded.coefficients) > len(sparse.coefficients)
        assert sparse.render() == padded.render()
        assert sparse == padded and hash(sparse) == hash(padded)
        dropped = VectorField(ctx, sparse.parity,
                              dict(list(sparse.coefficients.items())[1:]),
                              sparse.order)
        assert sparse != dropped and dropped != sparse
        assert padded != dropped and dropped != padded
        factor = FieldScalar(-2)
        assert sparse.scale(factor) == padded.scale(factor)
        assert sparse.scale(factor).render() == padded.scale(factor).render()
        for a, b in ((sparse.bracket(third), padded.bracket(third)),
                     (third.bracket(sparse), third.bracket(padded))):
            assert (a.parity, a.order) == (b.parity, b.order)
            assert {n: c.terms for n, c in a.coefficients.items()} == \
                {n: c.terms for n, c in b.coefficients.items()}
            assert a.render() == b.render()


def test_isotropic_chart_size_validation():
    with pytest.raises(FlagTypeError):
        isotropic_chart(0, 1)
    with pytest.raises(FlagTypeError):
        isotropic_chart(1, 0)


# ---------------------------------------------------------------------------
# Pinned chart internals
# ---------------------------------------------------------------------------


def _chart_tails(k1, l1):
    """The last valid one-step and two-step tails of the size, where the
    size has them."""
    def valid(tail):
        try:
            validate_flag_type((2 * k1 - 1, k1 - 1) + tail[0],
                               (2 * l1, l1) + tail[1])
        except FlagTypeError:
            return False
        return True

    ones = [((a,), (b,)) for a in range(k1) for b in range(l1 + 1)]
    twos = [((a, c), (b, d)) for (a,), (b,) in ones
            for c in range(a + 1) for d in range(b + 1)]
    tails = []
    for candidates in (ones, twos):
        tails += [t for t in candidates if valid(t)][-1:]
    return tails


def _chart_record(label, chart):
    ctx = chart.ctx
    lines = [label, "|".join(ctx.even_names), "|".join(ctx.odd_names),
             "|".join(chart.independent), repr(sorted(chart.slots.items())),
             repr(chart.index_sets)]
    lines += [m.render() for m in chart.matrices]
    return "\n".join(lines) + "\n"


#: Charts built through the multi-step path, one with its own index sets.
DIGEST_BUILT = [
    (((3, 2, 1), (2, 1, 0)), None),
    (((2, 2, 1), (2, 1, 0)), None),
    (((3, 1, 1), (2, 2, 1)), [((1,), (2, 1)), ((1,), (2,))]),
]

#: sha256 over ring names, independent coordinates, sorted slots, index sets
#: and rendered matrices of the isotropic chart and of the chart with every
#: slot a variable (``oracles.formal_isotropic_chart``) at (1..4) x (1..3),
#: with no tail and with the tails of ``_chart_tails``, and of the
#: ``DIGEST_BUILT`` charts; taken before the chart builders were merged into
#: one assembler, when the library built both isotropic charts.
PINNED_CHARTS = ("a0a8a90eafddaaeff7a602d0d3436be9"
                 "f6f0ec61cbacd92f7a80b43c73fa0702")


def test_chart_internals_match_pinned_digest():
    h = hashlib.sha256()
    for k1 in range(1, 5):
        for l1 in range(1, 4):
            for tail in [None] + _chart_tails(k1, l1):
                iso = isotropic_chart(k1, l1, tail=tail)
                label = f"{k1},{l1},{tail}"
                h.update(_chart_record(label, iso.chart).encode())
                h.update(_chart_record(
                    label, formal_isotropic_chart(k1, l1, tail)).encode())
    for (k, l), index_sets in DIGEST_BUILT:
        chart = build_chart(validate_flag_type(k, l), index_sets)
        h.update(_chart_record(f"{k},{l}", chart).encode())
    assert h.hexdigest() == PINNED_CHARTS


# ---------------------------------------------------------------------------
# Rendered text
# ---------------------------------------------------------------------------


def _render_sweep():
    """Rendered scalars, polynomials, vector fields and weights, one per
    line: every sign, ±1, bracketing and constant case of the text rule."""
    lines = []
    grid = (Fraction(-3, 2), -1, 0, 1, 2)
    for a, b, c, d in product(grid, repeat=4):
        lines.append(FieldScalar(a, b, c, d).render())

    ctx = RingContext()
    x, y = ctx.evens("x", "y")
    xi, eta = ctx.odds("xi", "eta")
    coeffs = [FieldScalar.parse(t) for t in (
        "1", "-1", "2", "-3/2", "i", "-i", "1 + i", "-1 + i", "1/2 + i",
        "-r2", "1/2*i*r2", "-1 - i*r2")]
    monos = [ctx.one, x, y ** 2, x ** 2 * y, xi, xi * eta, x * eta,
             y * xi * eta]
    singles = [c * m for c in coeffs for m in monos]
    sums = []
    for i, c1 in enumerate(coeffs):
        for j, c2 in enumerate(coeffs):
            p = c1 * monos[i % len(monos)] + c2 * monos[(i + j) % len(monos)]
            sums.append(p)
            c3 = coeffs[(i * j) % len(coeffs)]
            sums.append(p - c3 * monos[j % len(monos)])
    polys = [ctx.zero] + singles + sums
    lines += [p.render() for p in polys]

    names = ("x", "xi", "y", "eta")
    lines.append(VectorField(ctx, 0, {}, ()).render())
    for p in polys:
        lines.append(VectorField(ctx, 0, {"y": p}, ("y",)).render())
    for i in range(len(polys)):
        coefficients = {names[t]: polys[(i * (t + 1) + 7 * t) % len(polys)]
                        for t in range(4)}
        lines.append(VectorField(ctx, 0, coefficients, names).render())

    entries = (-3, -1, 0, 1, 2)
    for m1, m2, l1, l2 in product(entries, repeat=4):
        lines.append(Weight((m1, m2), (l1, l2)).render())
    return lines


#: sha256 over ``_render_sweep()``, one line per render; taken before the
#: four renderers shared one signed-sum writer.
PINNED_RENDERS = ("ccfa48284cc08cdd1b44072c1725cdd1"
                  "7443e061062629ee952fd3dba78a05dd")


def test_rendered_text_matches_pinned_digest():
    text = "\n".join(_render_sweep()) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_RENDERS
