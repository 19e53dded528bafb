"""Reference implementations that the tests compare the library with.

Each oracle computes its answer another way than the code it checks, and
none calls that code: matrix brackets for the Jacobi identity that
``osp.jacobi_failures`` composes from structure constants, the enumerated
positive roots for the closed forms of ``RootSystem.violation``, term-by-
term substitution for the resolved isotropic chart, a chart with every
slot a variable built by hand for ``charts.isotropic_chart``, and a
Neumann loop that decides only after summing its powers for the up-front
test of ``SuperMatrix.invert``.
"""

from __future__ import annotations

import math
from itertools import combinations

from superflag import linalg
from superflag.charts import Chart, validate_flag_type
from superflag.matrices import BlockShape, NotNilpotentError, SuperMatrix
from superflag.osp import OspBasis, basis
from superflag.ring import NUMERIC_CTX, ContextError, RingContext, SuperPoly, \
    common_context
from superflag.scalars import FieldScalar
from superflag.weights import Weight


# ---------------------------------------------------------------------------
# Scalars and polynomials
# ---------------------------------------------------------------------------


def to_complex(x):
    """A floating approximation of the FieldScalar ``x``."""
    a, b, c, d, den = x.q
    r2 = math.sqrt(2)
    return complex((a + c * r2) / den, (b + d * r2) / den)


def demote(ctx, p):
    """``p`` rebuilt over ``ctx``, a prefix of its ring; ContextError when
    ``p`` uses a variable that ``ctx`` lacks."""
    if p.ctx is ctx:
        return p
    if not p.ctx.extends(ctx):
        raise ContextError("demote target is not a prefix of the source"
                           " context")
    ne, no = len(ctx.even_names), len(ctx.odd_names)
    for ek, ok in p.terms:
        if any(vid >= ne for vid, _ in ek) or any(oid >= no for oid in ok):
            raise ContextError("polynomial uses variables outside the target"
                               " context")
    return SuperPoly._new(ctx, p.terms)


def substitute(p, bindings):
    """The ring homomorphism ``{name: value}`` applied to ``p``, monomial by
    monomial.

    A value is a polynomial over ``p``'s ring or one extending it, or a
    scalar, and must have the parity of the variable it replaces; an
    unbound variable maps to itself.  KeyError for a name that ``p``'s ring
    lacks.
    """
    ctx = p.ctx
    target = ctx
    values = {}
    for name, value in bindings.items():
        parity = ctx.parity_of(name)
        if not isinstance(value, SuperPoly):
            value = NUMERIC_CTX.scalar(value)
        target = common_context(value.ctx, target)
        if not value.is_zero() and value.parity() != parity:
            raise ValueError(f"substitution for {name!r} must have parity"
                             f" {parity}")
        values[name] = value
    evens, odds = ctx.even_names, ctx.odd_names

    def image(name):
        return target.lift(values[name]) if name in values \
            else target.var(name)

    out = target.zero
    for (ek, ok), q in p.terms.items():
        piece = target.scalar(FieldScalar.from_q(q))
        for vid, e in ek:
            piece = piece * image(evens[vid]) ** e
        for oid in ok:
            piece = piece * image(odds[oid])
        out = out + piece
    return out


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


def neumann_invert(m):
    """The inverse by the Neumann series, deciding after the loop: sum up
    to (odd names + 1) powers of N = B^-1 M - E and raise
    NotNilpotentError when the last power is not zero."""
    binv = SuperMatrix.build(m.rows, m.rows, linalg.invert(m.body()),
                             ctx=m.ctx)
    eye = SuperMatrix.identity(m.rows, m.ctx)
    n = binv @ m - eye
    acc = power = eye
    for k in range(1, len(m.ctx.odd_names) + 2):
        power = power @ n
        if power.is_zero():
            break
        acc = acc + (-power if k % 2 else power)
    if not power.is_zero():
        raise NotNilpotentError("entries are not scalar-plus-nilpotent")
    return acc @ binv


# ---------------------------------------------------------------------------
# Orthosymplectic algebras
# ---------------------------------------------------------------------------


def super_jacobi_holds(x, y, z):
    """Graded Leibniz form of the Jacobi identity for three homogeneous
    matrices, [x,[y,z]] = [[x,y],z] + (-1)^{|x||y|} [y,[x,z]], by matrix
    brackets."""
    left = x.superbracket(y.superbracket(z))
    right = x.superbracket(y).superbracket(z)
    tail = y.superbracket(x.superbracket(z))
    if x.parity and y.parity:
        return left == right - tail
    return left == right + tail


#: Free block families of the base-flag stabilizers p (in osp(2k1-1|2l1),
#: the odd flavor) and p1 (in osp(2k1|2l1), the even flavor), in the
#: original slot names.
ORIGINAL_PARABOLIC_TAGS = {
    "p": {"A11", "A21", "G2", "C11", "C21", "C22", "G3", "B11", "B21"},
    "p1": {"A11", "A21", "C11", "C21", "C22", "B11", "B21"},
}


def original_parabolic_basis(which, k1, l1):
    """The generators of the odd ("p") or even ("p1") flavor at (k1, l1)
    whose family is in ORIGINAL_PARABOLIC_TAGS, as a basis."""
    ambient = basis("odd", k1 - 1, l1) if which == "p" \
        else basis("even", k1, l1)
    gens = [g for g in ambient
            if g.tag.split(":")[0] in ORIGINAL_PARABOLIC_TAGS[which]]
    return OspBasis(ambient.flavor, ambient.sizes, ambient.gram, gens,
                    name=which)


def stabilized_subspace_indices(flavor, shape):
    """Row indices of the base flag: second even block plus second odd
    block."""
    ev = shape.even_parts
    if flavor not in ("odd", "even"):
        raise ValueError("base flag is defined for the odd/even flavors")
    even_idx = range(ev[0], ev[0] + ev[1])
    n = shape.odd_parts[1]
    odd_lo = shape.even + shape.odd_parts[0]
    return list(even_idx) + list(range(odd_lo, odd_lo + n))


# ---------------------------------------------------------------------------
# Roots
# ---------------------------------------------------------------------------


def positive_even_part(rs):
    """Positive roots of the so(2s+1) factor: mu_i -+ mu_j (i<j), mu_i."""
    s, n = rs.s, rs.n
    mu = lambda i: Weight.basis_mu(s, n, i)
    roots = []
    for i, j in combinations(range(1, s + 1), 2):
        roots += [mu(i) - mu(j), mu(i) + mu(j)]
    return roots + [mu(i) for i in range(1, s + 1)]


def positive_odd_part(rs):
    """Positive roots of the sp(2n) factor: la_p - la_q (p<q),
    la_p + la_q (p<=q)."""
    s, n = rs.s, rs.n
    la = lambda j: Weight.basis_la(s, n, j)
    roots = [la(p) - la(q) for p, q in combinations(range(1, n + 1), 2)]
    return roots + [la(p) + la(q) for p in range(1, n + 1)
                    for q in range(p, n + 1)]


def positive_roots(rs):
    return positive_even_part(rs) + positive_odd_part(rs)


# ---------------------------------------------------------------------------
# The isotropic chart with every slot a variable
# ---------------------------------------------------------------------------


def formal_isotropic_chart(k1, l1, tail=None):
    """The chart of ``isotropic_chart(k1, l1, tail)`` before the isotropy
    relations are solved: every free slot holds its own variable.

    With s = k1 - 1, the first matrix is, by rows (s even and l1 odd
    columns):

        0 .. s-1           Z1 (z1_i_j)        | Zeta1 (zeta1_i_a)
        s .. 2s-1          identity           | 0
        2s                 X1 (x1_j)          | Xi1 (xi1_a)
        2s+1 .. 2s+l1      Eta1 (eta1_a_b)    | Y1 (y1_a_b)
        2s+l1+1 .. 2s+2l1  0                  | identity

    The dependent slots are the upper-with-diagonal triangle of Z1, the
    upper triangle of Y1 and all of Zeta1.  A tail step t has the default
    index sets: its top even and odd rows are the identity, and the free
    rows hold x{t}, xi{t} (even rows) and eta{t}, y{t} (odd rows).

    The coordinates run x1, xi1, eta1, y1, z1, zeta1 and then the tail;
    the ring holds the independent names first (each parity in that
    order), then the dependent ones, so it extends the chart's ring.
    """
    s = k1 - 1
    tail_k, tail_l = tail or ((), ())
    ks = (2 * k1 - 1, s) + tuple(tail_k)
    ls = (2 * l1, l1) + tuple(tail_l)
    ft = validate_flag_type(ks, ls)
    # (name, one index, first row, first column, rows, columns, parity,
    #  dependent(i, j)) of each first-step block, in coordinate order
    never = lambda i, j: False
    blocks = (
        ("x1", True, 2 * s, 0, 1, s, 0, never),
        ("xi1", True, 2 * s, s, 1, l1, 1, never),
        ("eta1", False, 2 * s + 1, 0, l1, s, 1, never),
        ("y1", False, 2 * s + 1, s, l1, l1, 0, lambda i, j: j > i),
        ("z1", False, 0, 0, s, s, 0, lambda i, j: j >= i),
        ("zeta1", False, 0, s, s, l1, 1, lambda i, j: True),
    )
    free = []       # (name, step, row, col, parity, dependent)
    for name, vec, r0, c0, nr, nc, parity, dependent in blocks:
        for i in range(1, nr + 1):
            for j in range(1, nc + 1):
                label = f"{name}_{j}" if vec else f"{name}_{i}_{j}"
                free.append((label, 1, r0 + i - 1, c0 + j - 1, parity,
                             dependent(i, j)))
    fixed = [{s + i: i for i in range(s)}
             | {2 * s + 1 + l1 + a: s + a for a in range(l1)}]
    for t in range(2, ft.r + 1):
        ke, le, kc, lc = ks[t - 1], ls[t - 1], ks[t], ls[t]
        fixed.append({i: i for i in range(kc)}
                     | {ke + a: kc + a for a in range(lc)})
        for i in range(kc, ke):
            free += [(f"x{t}_{i + 1}_{j + 1}", t, i, j, 0, False)
                     for j in range(kc)]
            free += [(f"xi{t}_{i + 1}_{j + 1}", t, i, kc + j, 1, False)
                     for j in range(lc)]
        for a in range(lc, le):
            free += [(f"eta{t}_{a + 1}_{j + 1}", t, ke + a, j, 1, False)
                     for j in range(kc)]
            free += [(f"y{t}_{a + 1}_{j + 1}", t, ke + a, kc + j, 0, False)
                     for j in range(lc)]
    ctx = RingContext()
    for dependent in (False, True):
        names = [(n, p) for n, _, _, _, p, d in free if d == dependent]
        ctx.evens(*(n for n, p in names if not p))
        ctx.odds(*(n for n, p in names if p))
    entries = [{(i, j): 1 for i, j in rows.items()} for rows in fixed]
    slots = {}
    for name, t, i, j, _, _ in free:
        entries[t - 1][(i, j)] = ctx.var(name)
        slots[name] = (t, i, j)
    matrices = tuple(
        SuperMatrix.build(BlockShape(ks[t - 1], ls[t - 1]),
                          BlockShape(ks[t], ls[t]), entries[t - 1],
                          ctx=ctx, parity=0)
        for t in range(1, ft.r + 1))
    index_sets = ((tuple(range(k1, 2 * k1 - 1)),
                   tuple(range(l1 + 1, 2 * l1 + 1))),)
    index_sets += tuple((tuple(range(1, ks[t] + 1)),
                         tuple(range(1, ls[t] + 1)))
                        for t in range(2, ft.r + 1))
    return Chart(ft, index_sets, ctx, matrices, slots,
                 tuple(name for name, *_ in free))


def dependent_values(iso, formal):
    """``{name: value}`` of each slot of ``formal`` that is not a
    coordinate of ``iso.chart``: the entry of the resolved chart there."""
    return {name: iso.chart.matrix(t)[i, j]
            for name, (t, i, j) in formal.slots.items()
            if name not in iso.chart.slots}


def residual_entries(chart, gram):
    """Every entry of Z^ST Gamma Z for the first matrix Z of ``chart``."""
    z = chart.matrix(1)
    res = z.supertranspose() @ gram.matrix.lift(z.ctx) @ z
    return [res[i, j] for i in range(res.rows.total)
            for j in range(res.cols.total)]
