"""Block supermatrices: supertranspose, inversion, brackets, parsing."""

import random

import pytest

from superflag.linalg import SingularMatrixError
from superflag.matrices import (
    BlockShape,
    NotNilpotentError,
    ParityError,
    ShapeError,
    SuperMatrix,
    parse_numeric_matrix,
)
from superflag.ring import RingContext
from superflag.scalars import FieldScalar, ONE, ZERO


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
    sh = BlockShape(3, 2, (2, 1), (1, 1))
    assert sh.total == 5
    assert sh.part_ranges() == [(0, 2), (2, 3), (3, 4), (4, 5)]
    assert not sh.is_odd_index(2)
    assert sh.is_odd_index(3)
    with pytest.raises(ShapeError):
        BlockShape(3, 2, (2, 2), (1, 1))


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


def test_submatrix_and_block():
    sh = BlockShape(2, 1, (1, 1), (1,))
    m = SuperMatrix.build(
        sh, sh, {(i, j): FieldScalar(10 * i + j) for i in range(3)
                 for j in range(3)}, parity=None)
    blk = m.block(0, 1)
    assert blk[0, 0].scalar_part() == FieldScalar(1)
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
    assert m.body() == [[FieldScalar(4), ZERO], [ZERO, ZERO]]
    assert m.body()[1][1] is ZERO
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
