"""Charts, the supergroup action, fundamental fields, the isotropic chart."""

import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest

from superflag.charts import (
    Chart,
    ChartError,
    FlagType,
    FlagTypeError,
    VectorField,
    act,
    build_chart,
    chart_variable_count,
    constant_functions_predicate,
    default_index_sets,
    fundamental_bracket_sign,
    fundamental_field,
    isotropic_chart,
    lemma_eta_field,
    lemma_eta_generator,
    lemma_h_field,
    lemma_h_generator,
    validate_flag_type,
)
from superflag.matrices import BlockShape, SuperMatrix
from superflag.osp import basis
from superflag.ring import RingContext
from superflag.scalars import FieldScalar
from superflag.weights import Weight

from oracles import (
    demote,
    dependent_values,
    formal_isotropic_chart,
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


def _group_like(rng, ctx, shape, identity_rows, odd_vars):
    """Numeric-plus-nilpotent matrices whose designated rows keep the
    chart submatrix exactly invertible; closed under multiplication."""
    entries = {}
    n = shape.total
    for i in range(n):
        for j in range(n):
            even_slot = shape.is_odd_index(i) == shape.is_odd_index(j)
            if even_slot:
                val = FieldScalar(rng.randint(-2, 2))
                if i == j:
                    val = FieldScalar(rng.choice([1, -1, 2]))
                if i in identity_rows and j not in identity_rows:
                    val = FieldScalar(0)
                p = ctx.scalar(val)
                if rng.random() < 0.5:
                    p = p + odd_vars[rng.randrange(len(odd_vars))] * \
                        odd_vars[rng.randrange(len(odd_vars))] * \
                        FieldScalar(rng.randint(-1, 1))
                if not p.is_zero():
                    entries[(i, j)] = p
            elif rng.random() < 0.5:
                entries[(i, j)] = odd_vars[rng.randrange(len(odd_vars))] * \
                    FieldScalar(rng.randint(-2, 2))
    return SuperMatrix.build(shape, shape, entries, ctx=ctx, parity=0)


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
        l1 = _group_like(rng, ext, shape, identity_rows, odd_vars)
        l2 = _group_like(rng, ext, shape, identity_rows, odd_vars)
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
])
def test_closed_form_matches_tau_path_on_isotropic_charts(k1, l1, tail):
    """Every odd generator, and seeded even combinations of generators."""
    chart = isotropic_chart(k1, l1, tail=tail).chart
    bas = basis("odd", k1 - 1, l1)
    for g in bas:
        if g.parity:
            _assert_same_field(g.matrix, chart)
    rng = random.Random(k1 * 10 + l1)
    evens = [g.matrix for g in bas if not g.parity]
    for _ in range(3):
        x = evens[0] * FieldScalar(rng.randint(1, 3))
        for m in rng.sample(evens[1:], 3):
            x = x + m * FieldScalar(rng.randint(-2, 2))
        _assert_same_field(x, chart)


def test_fundamental_field_requires_homogeneous_matrix():
    iso = isotropic_chart(2, 1)
    sh = BlockShape(3, 2)
    mixed = SuperMatrix.build(sh, sh, {(0, 0): FieldScalar(1),
                                       (0, 3): FieldScalar(1)}, parity=None)
    with pytest.raises(ValueError):
        fundamental_field(mixed, iso.chart)


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
