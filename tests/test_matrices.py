"""Block supermatrices: supertranspose, inversion, brackets, parsing."""

import random

import pytest

from superflag.charts import isotropic_chart
from superflag.linalg import SingularMatrixError
from superflag.matrices import (
    BlockShape,
    NotNilpotentError,
    ParityError,
    ShapeError,
    SuperMatrix,
    parse_numeric_matrix,
)
from superflag.osp import (
    basis,
    gram_form,
    is_member,
    membership_residual,
)
from superflag.ring import RingContext
from superflag.scalars import FieldScalar, ONE, ZERO

from oracles import body, embed_j, invert, neumann_invert, \
    residual_terms


def rand_numeric(rng, rows, cols, parity):
    """Scalar entries only in the slots a parity-homogeneous matrix allows."""
    entries = {}
    for i in range(rows.total):
        for j in range(cols.total):
            slot = int(rows.is_odd_index(i)) ^ int(cols.is_odd_index(j))
            if slot == parity and rng.random() < 0.8:
                entries[(i, j)] = FieldScalar(rng.randint(-3, 3))
    return SuperMatrix.build(rows, cols, entries, parity=parity)


def test_block_shape_bookkeeping():
    sh = BlockShape(3, 2)
    assert sh.total == 5
    assert not sh.is_odd_index(2)
    assert sh.is_odd_index(3)
    with pytest.raises(ShapeError):
        BlockShape(3, -1)


def test_build_getitem_identity():
    sh = BlockShape(1, 1)
    m = SuperMatrix.identity(sh)
    assert m[0, 0].scalar_part() == ONE
    assert m[0, 1].is_zero()
    assert m == parse_numeric_matrix("1, 0; 0, 1", sh, sh)


def test_supertranspose_product_rule():
    rng = random.Random(17)
    sh = BlockShape(2, 1)
    for pa in (0, 1):
        for pb in (0, 1):
            for _ in range(12):
                a = rand_numeric(rng, sh, sh, pa)
                b = rand_numeric(rng, sh, sh, pb)
                lhs = (a @ b).supertranspose()
                rhs = b.supertranspose() @ a.supertranspose()
                if pa and pb:
                    assert lhs == -rhs
                else:
                    assert lhs == rhs


def test_supertranspose_rectangular():
    rows = BlockShape(2, 1)
    cols = BlockShape(1, 2)
    rng = random.Random(3)
    m = rand_numeric(rng, rows, cols, 0)
    t = m.supertranspose()
    assert (t.rows.even, t.rows.odd) == (1, 2)
    assert (t.cols.even, t.cols.odd) == (2, 1)


def test_supertranspose_needs_parity():
    sh = BlockShape(1, 1)
    m = SuperMatrix.build(sh, sh, {(0, 0): ONE, (0, 1): ONE}, parity=None)
    with pytest.raises(ParityError):
        m.supertranspose()


def test_inverse_two_sided_numeric():
    rng = random.Random(23)
    sh = BlockShape(2, 2)
    found = 0
    while found < 10:
        m = rand_numeric(rng, sh, sh, 0)
        try:
            inv = m.invert()
        except SingularMatrixError:
            continue
        found += 1
        ident = SuperMatrix.identity(sh)
        assert m @ inv == ident
        assert inv @ m == ident


def test_inverse_scalar_plus_nilpotent():
    ctx = RingContext()
    ctx.odds("th1", "th2")
    sh = BlockShape(2, 0)
    t1, t2 = ctx.var("th1"), ctx.var("th2")
    m = SuperMatrix.build(
        sh, sh,
        {(0, 0): ctx.one + t1 * t2, (0, 1): t1 * t2 * 3, (1, 1): ctx.one},
        ctx=ctx, parity=0,
    )
    inv = m.invert()
    ident = SuperMatrix.identity(sh, ctx)
    assert m @ inv == ident
    assert inv @ m == ident


def test_inverse_rejects_non_nilpotent_tail():
    ctx = RingContext()
    ctx.evens("u")
    sh = BlockShape(1, 0)
    m = SuperMatrix.build(sh, sh, {(0, 0): ctx.one + ctx.var("u")},
                          ctx=ctx, parity=0)
    with pytest.raises(NotNilpotentError):
        m.invert()


def _inverse_case(kind, rng, ctx):
    """A seeded even matrix with unit or random body: numeric, scalar plus
    odd (odd names in the odd slots, products of two in the even ones), or
    a unipotent upper triangle whose entries hold even variables."""
    th = [ctx.var(name) for name in ctx.odd_names]
    u = [ctx.var(name) for name in ctx.even_names]
    if kind == "numeric":
        return rand_numeric(rng, BlockShape(2, 2), BlockShape(2, 2), 0)
    if kind == "scalar-plus-odd":
        sh = BlockShape(2, 2)
        entries = {}
        for i in range(4):
            for j in range(4):
                c = FieldScalar(rng.randint(-2, 2))
                if sh.is_odd_index(i) != sh.is_odd_index(j):
                    entries[(i, j)] = rng.choice(th) * c
                else:
                    a, b = rng.sample(th, 2)
                    entries[(i, j)] = a * b * c + rng.randint(-3, 3)
        return SuperMatrix.build(sh, sh, entries, ctx=ctx, parity=0)
    size = rng.randint(2, 5)
    sh = BlockShape(size, 0)
    entries = {(i, i): ctx.one for i in range(size)}
    for i in range(size):
        for j in range(i + 1, size):
            pure = rng.choice([u[0], u[1], u[0] * u[1], u[0] + th[0] * th[1]])
            entries[(i, j)] = ctx.scalar(rng.randint(-1, 1)) \
                + pure * FieldScalar(rng.choice([-2, -1, 1, 2]))
    return SuperMatrix.build(sh, sh, entries, ctx=ctx, parity=0)


def _inverse_outcome(invert, m):
    try:
        return invert(m)
    except (SingularMatrixError, NotNilpotentError) as e:
        return type(e)


@pytest.mark.parametrize("kind", ["numeric", "scalar-plus-odd",
                                  "even-triangle"])
def test_inverse_matches_neumann_loop_oracle(kind):
    """invert against the Neumann loop that summed up to (odd names + 1)
    powers before it decided.  Numeric and scalar-plus-odd input give the
    same inverse or the same error.  A unipotent triangle in even
    variables is the one changed verdict: the loop inverts it when N^k = 0
    within its cap, while invert rejects any N with a monomial free of odd
    factors before forming a power."""
    ctx = RingContext()
    ctx.evens("u1", "u2")
    ctx.odds("th1", "th2", "th3")
    rng = random.Random(f"invert {kind}")
    seen = set()
    for _ in range(24):
        m = _inverse_case(kind, rng, ctx)
        want = _inverse_outcome(neumann_invert, m)
        got = _inverse_outcome(SuperMatrix.invert, m)
        if kind == "even-triangle":
            assert got is NotNilpotentError
            if isinstance(want, SuperMatrix):
                assert m @ want == SuperMatrix.identity(m.rows, m.ctx)
                seen.add("loop inverts")
            else:
                assert want is NotNilpotentError
                seen.add("both reject")
            continue
        if isinstance(want, SuperMatrix):
            assert got == want
            assert m @ got == SuperMatrix.identity(m.rows, m.ctx)
            seen.add("inverse")
        else:
            assert got is want
            seen.add("error")
    assert seen == ({"loop inverts", "both reject"} if kind == "even-triangle"
                    else {"inverse", "error"})


def _singular_body(rng, ctx, sh):
    """An even matrix over ``ctx`` whose body has a zero row or two equal
    rows of one parity, plus odd-name products that leave the body as it
    is."""
    th1, th2 = ctx.var("th1"), ctx.var("th2")
    entries = dict(rand_numeric(rng, sh, sh, 0).entries)
    rows = [i for i in range(sh.total)
            if sh.is_odd_index(i) == sh.is_odd_index(sh.total - 1)]
    src, dst = rows[0], rows[-1]
    copy = src != dst and rng.random() < 0.5
    for j in range(sh.total):
        entries.pop((dst, j), None)
        if copy and (src, j) in entries:
            entries[(dst, j)] = entries[(src, j)]
    for i in range(sh.total):
        for j in range(sh.total):
            if sh.is_odd_index(i) == sh.is_odd_index(j) and rng.random() < 0.5:
                entries[(i, j)] = entries.get((i, j), ZERO) + th1 * th2
    return SuperMatrix.build(sh, sh, entries, ctx=ctx, parity=0)


def test_invert_matches_the_dense_oracle():
    """The sparse body inverse against the dense one (``oracles.invert``):
    on seeded numeric matrices with invertible bodies of several shapes,
    odd ones among them, ``invert`` is the dense inverse of the body
    with the same parity; on Grassmann matrices with invertible body it
    equals the Neumann oracle built on the dense inverse; on singular
    bodies both raise SingularMatrixError("matrix body is singular")."""
    rng = random.Random(2207)
    ctx = RingContext()
    ctx.odds("th1", "th2", "th3")
    seen = {"numeric": 0, "grassmann": 0, "singular": 0}
    for sh, parity in ((BlockShape(2, 2), 0), (BlockShape(3, 1), 0),
                       (BlockShape(0, 3), 0), (BlockShape(1, 1), 1),
                       (BlockShape(2, 2), 1)):
        for _ in range(8):
            m = rand_numeric(rng, sh, sh, parity)
            try:
                dense = invert(body(m))
            except SingularMatrixError:
                with pytest.raises(SingularMatrixError,
                                   match="^matrix body is singular$"):
                    m.invert()
                continue
            want = SuperMatrix.build(sh, sh, dense)
            got = m.invert()
            assert got == want and got.parity == want.parity
            assert m @ got == SuperMatrix.identity(sh)
            seen["numeric"] += 1
    for _ in range(12):
        m = _inverse_case("scalar-plus-odd", rng, ctx)
        try:
            want = neumann_invert(m)
        except SingularMatrixError:
            continue
        got = m.invert()
        assert got == want and got.parity == want.parity == 0
        assert m @ got == SuperMatrix.identity(m.rows, ctx)
        seen["grassmann"] += 1
    for sh in (BlockShape(2, 2), BlockShape(3, 0), BlockShape(1, 2)):
        for _ in range(4):
            m = _singular_body(rng, ctx, sh)
            for inverse in (SuperMatrix.invert, neumann_invert):
                with pytest.raises(SingularMatrixError,
                                   match="^matrix body is singular$"):
                    inverse(m)
            seen["singular"] += 1
    assert all(count >= 10 for count in seen.values()), seen


def test_inverse_rejects_singular_body():
    sh = BlockShape(2, 0)
    m = SuperMatrix.build(sh, sh, {(0, 0): ONE, (1, 0): ONE}, parity=0)
    with pytest.raises(SingularMatrixError):
        m.invert()


def test_superbracket_conventions():
    rng = random.Random(8)
    sh = BlockShape(1, 1)
    for pa in (0, 1):
        for pb in (0, 1):
            a = rand_numeric(rng, sh, sh, pa)
            b = rand_numeric(rng, sh, sh, pb)
            br = a.superbracket(b)
            if pa and pb:
                assert br == a @ b + b @ a
            else:
                assert br == a @ b - b @ a
            # graded antisymmetry
            sign = -1 if (pa and pb) else 1
            assert b.superbracket(a) == br.map_entries(lambda p: p * (-sign))


def test_submatrix():
    sh = BlockShape(2, 1)
    m = SuperMatrix.build(
        sh, sh, {(i, j): FieldScalar(10 * i + j) for i in range(3)
                 for j in range(3)}, parity=None)
    sub = m.submatrix([0, 2], [0, 2], BlockShape(1, 1), BlockShape(1, 1))
    assert sub[0, 0].scalar_part() == FieldScalar(0)
    assert sub[1, 1].scalar_part() == FieldScalar(22)


def test_matmul_parity_and_context_lift():
    ctx = RingContext()
    ctx.odds("th")
    sh = BlockShape(1, 1)
    numeric = SuperMatrix.build(sh, sh, {(0, 1): ONE, (1, 0): ONE}, parity=1)
    sym = SuperMatrix.build(sh, sh, {(0, 0): ctx.var("th")}, ctx=ctx,
                            parity=1)
    prod = numeric @ sym
    assert prod.parity == 0
    assert prod[1, 0] == ctx.var("th")
    scaled = sym * FieldScalar(2)
    assert scaled[0, 0] == ctx.var("th") * 2


def test_body_and_map_entries():
    sh = BlockShape(1, 1)
    ctx = RingContext()
    ctx.odds("th1", "th2")
    m = SuperMatrix.build(
        sh, sh,
        {(0, 0): ctx.scalar(FieldScalar(4)) + ctx.var("th1") * ctx.var("th2")},
        ctx=ctx, parity=0)
    assert body(m) == [[FieldScalar(4), ZERO], [ZERO, ZERO]]
    assert body(m)[1][1] is ZERO
    doubled = m.map_entries(lambda p: p * 2)
    assert doubled[0, 0].body() == FieldScalar(8)


def test_parity_involution_moves_an_odd_scalar_across():
    """M t = t M' for odd t, where M' negates the entries of odd parity."""
    rng = random.Random(23)
    sh = BlockShape(2, 2)
    ctx = RingContext()
    ctx.evens("u")
    ctx.odds("th1", "th2", "t")
    t = ctx.var("t")
    pool = [ctx.var("th1"), ctx.var("th2"),
            ctx.var("u") * ctx.var("th1") * ctx.var("th2"), ctx.one]
    for parity in (0, 1):
        for _ in range(10):
            m = rand_numeric(rng, sh, sh, parity).lift(ctx)
            m = m + rand_numeric(rng, sh, sh, 1 - parity).lift(ctx) \
                * ctx.var("th1")
            m = m + rand_numeric(rng, sh, sh, parity).lift(ctx) * pool[2]
            assert m.parity == parity
            assert m * t == t * m.parity_involution()
            assert m.parity_involution().parity_involution() == m


def test_render_and_parse_round_trip():
    sh = BlockShape(1, 1)
    m = parse_numeric_matrix("1/2, i; -r2, 0", sh, sh)
    assert m.render() == "1/2, i; -r2, 0"
    with pytest.raises(ShapeError):
        parse_numeric_matrix("1, 0", sh, sh)


def _entrywise_product(a, b):
    """a @ b summed slot by slot through SuperPoly * and +: an oracle that
    shares nothing with the accumulation loop."""
    ctx = a.ctx if a.ctx.extends(b.ctx) else b.ctx
    entries = {}
    for i in range(a.rows.total):
        for j in range(b.cols.total):
            acc = ctx.zero
            for k in range(a.cols.total):
                acc = acc + a[i, k] * b[k, j]
            entries[(i, j)] = acc
    return SuperMatrix.build(a.rows, b.cols, entries, ctx=ctx)


def _grassmann_matrices():
    """Square Grassmann matrices from the (3,2) isotropic chart: Z Z^ST
    (even), the same times an odd coordinate (odd) and a numeric odd
    generator times Z Z^ST (odd, numeric and chart contexts mixed)."""
    iso = isotropic_chart(3, 2)
    z = iso.chart.matrix(1)
    w = z @ z.supertranspose()
    xi = iso.chart.ctx.var("xi1_1")
    x = next(g.matrix for g in basis("odd", 2, 2) if g.parity == 1)
    return [w, w * xi, x @ w]


def _generator_matrices():
    return [g.matrix for g in basis("odd", 1, 1)]


def test_product_matches_entrywise_oracle():
    rng = random.Random(31)
    sh = BlockShape(2, 2)
    pairs = [(rand_numeric(rng, sh, sh, pa), rand_numeric(rng, sh, sh, pb))
             for pa in (0, 1) for pb in (0, 1) for _ in range(5)]
    mats = _grassmann_matrices()
    pairs += [(a, b) for a in mats for b in mats]
    for a, b in pairs:
        prod = a @ b
        assert prod == _entrywise_product(a, b)
        assert prod.parity == a.parity ^ b.parity
        assert prod.ctx is _entrywise_product(a, b).ctx
        assert all(not v.is_zero() for v in prod.entries.values())


@pytest.mark.parametrize("source", ["generators", "grassmann"])
def test_superbracket_matches_separate_products(source):
    mats = _generator_matrices() if source == "generators" \
        else _grassmann_matrices()
    for a in mats:
        for b in mats:
            br = a.superbracket(b)
            if a.parity and b.parity:
                assert br == a @ b + b @ a
            else:
                assert br == a @ b - b @ a
            assert br.parity == a.parity ^ b.parity
            assert all(not v.is_zero() for v in br.entries.values())


def _random_grassmann(rng, shape, parity):
    """A parity-homogeneous square matrix on ``shape`` whose entries mix
    scalars, an even variable and products of odd ones."""
    ctx = RingContext()
    ctx.evens("x")
    ctx.odds("th1", "th2", "th3")
    x, th1, th2, th3 = (ctx.var(n) for n in ("x", "th1", "th2", "th3"))
    entries = {}
    for i in range(shape.total):
        for j in range(shape.total):
            if rng.random() < 0.4:
                continue
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            if int(shape.is_odd_index(i)) ^ int(shape.is_odd_index(j)) \
                    ^ parity:
                entries[(i, j)] = th1 * a + th3 * b + x * th2
            else:
                entries[(i, j)] = x * a + th1 * th2 * b + 1
    return SuperMatrix.build(shape, shape, entries, ctx=ctx, parity=parity)


def test_membership_residual_matches_separate_products():
    """The residual read off the Gram's signed permutation equals
    M^ST G + G M from matrix products, and is_member agrees with its
    is_zero(), for the odd and even flavors and for primed forms with odd
    and even t: on generators, on generators times an odd variable, on
    generators with their forced entry scaled (non-members), on bordered
    images of primed generators and on Grassmann-entry matrices."""
    rng = random.Random(53)
    th = _grassmann_matrices()[1].ctx.var("xi1_1")
    for flavor, a, b in (("odd", 1, 1), ("odd", 2, 2), ("even", 1, 1),
                         ("even", 2, 2), ("primed", 2, 1), ("primed", 5, 2),
                         ("primed", 4, 2), ("primed", 3, 1)):
        gram = gram_form(flavor, a, b)
        bas = basis(flavor, a, b)
        gens = [g.matrix for g in bas]
        noise = [_random_grassmann(rng, gram.shape, p) for p in (0, 1, 0, 1)]
        scaled = [SuperMatrix.build(
            g.matrix.rows, g.matrix.cols,
            {s: v if s == g.primary else v * 2
             for s, v in g.matrix.entries.items()}, parity=g.parity)
            for g in bas if len(g.matrix.entries) > 1]
        cases = [(m, gram) for m in
                 gens + [m * th for m in gens[::3]] + noise + scaled]
        if gram.shape == _grassmann_matrices()[0].rows:
            cases += [(m, gram) for m in _grassmann_matrices()]
        if flavor == "primed" and a % 2:
            target = gram_form(flavor, a + 1, b)
            cases += [(embed_j(m), target) for m in gens]
        for m, form in cases:
            g = form.matrix.lift(m.ctx)
            want = m.supertranspose() @ g + g @ m
            got = membership_residual(m, form)
            assert got == want and got.parity == want.parity, flavor
            assert got.ctx is m.ctx
            assert is_member(m, form) == want.is_zero()
        assert all(is_member(m, gram) for m in gens)
        assert scaled and not any(is_member(m, gram) for m in scaled)
        assert not any(is_member(m, gram) for m in noise)
    assert not is_member(_grassmann_matrices()[0], gram_form("odd", 2, 2))


def test_membership_residual_matches_the_whole_term_oracle():
    """``is_member`` and ``membership_residual``, which apply the one
    residual on ``{slot: q}`` to each Grassmann component, against
    ``oracles.residual_terms``, which reads whole term dicts: seeded
    numeric and Grassmann matrices, members and not, for odd, even and
    primed Grams; a non-homogeneous matrix raises ParityError and a wrong
    shape ValueError on both sides."""
    rng = random.Random(2203)
    members = 0
    for flavor, a, b in (("odd", 1, 1), ("odd", 2, 1), ("even", 1, 2),
                         ("even", 2, 1), ("primed", 3, 1), ("primed", 4, 2)):
        gram = gram_form(flavor, a, b)
        sh = gram.shape
        gens = basis(flavor, a, b).generators
        grassmann = [_random_grassmann(rng, sh, p) for p in (0, 1, 0, 1)]
        x, th1 = grassmann[0].ctx.var("x"), grassmann[0].ctx.var("th1")
        cases = [rand_numeric(rng, sh, sh, p) for p in (0, 1, 0, 1)]
        cases += grassmann
        for _ in range(4):
            g, h = rng.sample(gens, 2)
            same = h if h.parity == g.parity else g
            cases.append(g.matrix * th1)
            cases.append(g.matrix * x + same.matrix * 3)
        for m in cases:
            terms = residual_terms(m, gram)
            want = SuperMatrix.from_terms(sh, sh, m.ctx, m.parity, terms)
            got = membership_residual(m, gram)
            assert got == want and got.parity == want.parity
            assert got.ctx is m.ctx
            assert is_member(m, gram) == (not any(terms.values()))
            members += is_member(m, gram)
        mixed = SuperMatrix.build(sh, sh, {(0, 0): ONE, (0, sh.total - 1):
                                           ONE}, parity=None)
        wrong = rand_numeric(rng, BlockShape(sh.even + 1, sh.odd),
                             BlockShape(sh.even + 1, sh.odd), 0)
        for bad, error in ((mixed, ParityError), (wrong, ValueError)):
            for residual in (is_member, membership_residual, residual_terms):
                with pytest.raises(error):
                    residual(bad, gram)
    assert members >= 24


def test_membership_residual_rejects_a_non_homogeneous_matrix():
    gram = gram_form("odd", 1, 1)
    mixed = SuperMatrix.build(gram.shape, gram.shape,
                              {(0, 0): ONE, (0, 4): ONE}, parity=None)
    with pytest.raises(ParityError, match="parity-homogeneous"):
        membership_residual(mixed, gram)
    with pytest.raises(ParityError, match="parity-homogeneous"):
        is_member(mixed, gram)


def test_cancelling_products_store_no_zero_entry():
    for x in _generator_matrices() + _grassmann_matrices()[:1]:
        if x.parity == 0:
            br = x.superbracket(x)
            assert br.entries == {} and br.parity == 0
    row, col = BlockShape(1, 0), BlockShape(2, 0)
    a = SuperMatrix.build(row, col, [[ONE, ONE]])
    b = SuperMatrix.build(col, row, [[ONE], [-ONE]])
    prod = a @ b
    assert prod.entries == {} and prod.parity == 0
    ctx = RingContext()
    ctx.odds("th")
    sh = BlockShape(1, 1)
    theta = SuperMatrix.build(sh, sh, {(0, 0): ctx.var("th")}, ctx=ctx)
    assert theta.parity == 1
    square = theta @ theta
    assert square.entries == {} and square.parity == 0


def _set_based_parity(mat):
    """The entry-by-entry parity rule: every entry homogeneous, and one
    common value of entry parity xor slot parity; 0 for no entries."""
    bits = set()
    for (i, j), v in mat.entries.items():
        if not v.is_homogeneous():
            return None
        slot = int(mat.rows.is_odd_index(i)) ^ int(mat.cols.is_odd_index(j))
        bits.add(v.parity() ^ slot)
        if len(bits) > 1:
            return None
    return bits.pop() if bits else 0


def test_infer_parity_matches_the_set_based_rule():
    """The one-pass parity agrees with the set-based rule on homogeneous
    matrices, on matrices mixing even and odd slots and on matrices with
    non-homogeneous entries (an odd variable plus a scalar)."""
    rng = random.Random(71)
    ctx = RingContext()
    x, = ctx.evens("x")
    th1, th2, th3 = ctx.odds("th1", "th2", "th3")
    even_pool = [ctx.one, -x, x * x + 2, th1 * th2, th1 * th2 * x + th2 * th3]
    odd_pool = [th1, th2 * -3, th1 + th2 * x, th1 * th2 * th3]
    mixed_pool = [th1 + 1, th1 * th2 + th3, x + th2]
    seen = set()
    for rows, cols in ((BlockShape(2, 2), BlockShape(2, 2)),
                       (BlockShape(1, 2), BlockShape(3, 1)),
                       (BlockShape(0, 2), BlockShape(2, 0))):
        for _ in range(150):
            entries = {}
            for i in range(rows.total):
                for j in range(cols.total):
                    r = rng.random()
                    if r < 0.45:
                        continue
                    pool = even_pool if r < 0.7 else odd_pool if r < 0.95 \
                        else mixed_pool
                    entries[(i, j)] = rng.choice(pool)
            mat = SuperMatrix._new(rows, cols, ctx, None, entries)
            want = _set_based_parity(mat)
            assert mat._infer_parity() == want, mat.render()
            seen.add(want)
    assert seen == {0, 1, None}
    for rows in (BlockShape(2, 1), BlockShape(0, 3)):
        assert SuperMatrix._new(rows, rows, ctx, None, {})._infer_parity() \
            == 0
    for p in (0, 1):
        m = rand_numeric(rng, BlockShape(2, 2), BlockShape(1, 2), p)
        assert m._infer_parity() == _set_based_parity(m) == p


def test_build_with_a_declared_parity_still_checks_the_entries():
    sh = BlockShape(1, 1)
    ctx = RingContext()
    th, = ctx.odds("th")
    with pytest.raises(ParityError, match="contradicts"):
        SuperMatrix.build(sh, sh, {(0, 0): ONE}, parity=1)
    with pytest.raises(ParityError, match="contradicts"):
        SuperMatrix.build(sh, sh, {(0, 1): ONE}, parity=0)
    with pytest.raises(ParityError, match="contradicts"):
        SuperMatrix.build(sh, sh, {(0, 0): th}, ctx=ctx, parity=0)
    with pytest.raises(ParityError, match="not parity-homogeneous"):
        SuperMatrix.build(sh, sh, {(0, 0): ONE, (0, 1): ONE}, parity=0)
    with pytest.raises(ParityError, match="not parity-homogeneous"):
        SuperMatrix.build(sh, sh, {(0, 0): th + 1}, ctx=ctx, parity=1)
    assert SuperMatrix.build(sh, sh, {(0, 1): th}, ctx=ctx, parity=0).parity \
        == 0
    assert SuperMatrix.build(sh, sh, {}, parity=1).parity == 1
