"""Charts on flag supermanifolds and the supergroup action on them.

A flag type (k, l) fixes a chain of sub-superspaces; a chart is a tuple of
coordinate matrices ``Z[s]``, one per flag step, each containing a fixed
identity submatrix in the rows named by the index sets and fresh variables
in the remaining rows.  The supergroup acts by ``Z -> L Z C^{-1}`` where C
is the designated row submatrix.  The first-order fundamental vector field
of X is the t-linear part of the action of ``E + t X`` for a square-zero
parameter t, which ``fundamental_field`` computes in closed form.

The isotropic chart is the special first-step chart whose column span is
isotropic for the orthosymplectic form; its dependent coordinates are
solved once from the isotropy relations and substituted everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .matrices import BlockShape, SuperMatrix
from .osp import basis, gram_form
from .ring import RingContext, SuperPoly, add_product, common_context
from .scalars import ONE


class FlagTypeError(ValueError):
    """The tuples (k, l) do not describe a valid flag type."""


class ChartError(ValueError):
    """Ill-formed chart data (index sets, cardinalities, ranges)."""


@dataclass(frozen=True)
class FlagType:
    k: tuple
    l: tuple

    @property
    def r(self):
        return len(self.k) - 1

    @property
    def m(self):
        return self.k[0]

    @property
    def n(self):
        return self.l[0]

    def fiber_type(self):
        """The type (k1..kr | l1..lr) of the fiber over the first step."""
        if self.r < 2:
            raise FlagTypeError("fiber type needs at least two flag steps")
        return FlagType(self.k[1:], self.l[1:])

    def __str__(self):
        ks = ",".join(str(v) for v in self.k)
        ls = ",".join(str(v) for v in self.l)
        return f"k=({ks}) l=({ls})"


def validate_flag_type(k, l):
    """Check the chain conditions and return the FlagType.

    Requires non-increasing k and l, strictly decreasing step sums down to
    a positive last step, and at least one odd dimension (l_0 >= 1): types
    with no odd directions are ordinary flag manifolds and fall outside
    every statement this library checks.  ``FlagType`` itself can still be
    instantiated directly for such borderline shapes when only the chart
    bookkeeping is wanted.
    """
    k = tuple(int(v) for v in k)
    l = tuple(int(v) for v in l)
    if len(k) != len(l):
        raise FlagTypeError("k and l must have the same length")
    if len(k) < 2:
        raise FlagTypeError("a flag type needs at least two steps (r >= 1)")
    if any(v < 0 for v in k + l):
        raise FlagTypeError("flag entries must be non-negative")
    for s in range(1, len(k)):
        if k[s] > k[s - 1] or l[s] > l[s - 1]:
            raise FlagTypeError(f"entries must be non-increasing at step {s}")
        if k[s] + l[s] >= k[s - 1] + l[s - 1]:
            raise FlagTypeError(f"step sums must strictly decrease at step {s}")
    if k[-1] + l[-1] <= 0:
        raise FlagTypeError("the last step must be non-trivial (k_r + l_r > 0)")
    if l[0] == 0:
        raise FlagTypeError(
            "purely even types (l identically zero) are not flag supermanifolds"
        )
    return FlagType(k, l)


def constant_functions_predicate(ft):
    """True iff every global function on the flag supermanifold is constant.

    The excluded shapes are: k starts with s+1 copies of k_0 while l ends
    with r-s zeros, or the mirrored shape with the roles of k and l
    swapped, for some s in 0..r-1.  Types matching either shape carry a
    full Grassmann algebra of global functions instead.
    """
    k, l, r = ft.k, ft.l, ft.r
    m, n = ft.m, ft.n
    for s in range(r):
        if all(k[i] == m for i in range(s + 1)) and \
                all(l[i] == 0 for i in range(s + 1, r + 1)):
            return False
        if all(l[i] == n for i in range(s + 1)) and \
                all(k[i] == 0 for i in range(s + 1, r + 1)):
            return False
    return True


# ---------------------------------------------------------------------------
# Charts
# ---------------------------------------------------------------------------


def _check_index_sets(ft, index_sets):
    if len(index_sets) != ft.r:
        raise ChartError(f"need {ft.r} index sets, got {len(index_sets)}")
    cleaned = []
    for s in range(1, ft.r + 1):
        i0, i1 = index_sets[s - 1]
        i0 = tuple(sorted(int(v) for v in i0))
        i1 = tuple(sorted(int(v) for v in i1))
        if len(set(i0)) != len(i0) or len(set(i1)) != len(i1):
            raise ChartError(f"index set {s} has repeated indices")
        if len(i0) != ft.k[s] or len(i1) != ft.l[s]:
            raise ChartError(f"index set {s} has the wrong cardinalities")
        if any(v < 1 or v > ft.k[s - 1] for v in i0):
            raise ChartError(f"even indices of set {s} out of range")
        if any(v < 1 or v > ft.l[s - 1] for v in i1):
            raise ChartError(f"odd indices of set {s} out of range")
        cleaned.append((i0, i1))
    return tuple(cleaned)


def default_index_sets(ft):
    """The chart at the top rows: I_s = ({1..k_s}, {1..l_s})."""
    return tuple(
        (tuple(range(1, ft.k[s] + 1)), tuple(range(1, ft.l[s] + 1)))
        for s in range(1, ft.r + 1)
    )


def _identity_rows(ft, s, i0, i1):
    """0-based absolute row -> 0-based column of its fixed 1 entry."""
    rows = {}
    for col, i in enumerate(sorted(i0)):
        rows[i - 1] = col
    for col, i in enumerate(sorted(i1)):
        rows[ft.k[s - 1] + i - 1] = ft.k[s] + col
    return rows


@dataclass(frozen=True)
class Chart:
    ft: FlagType
    index_sets: tuple
    ctx: RingContext
    matrices: tuple
    slots: dict = field(compare=False)   # variable name -> (s, row, col)
    independent: tuple = ()

    def matrix(self, s):
        """Coordinate matrix of flag step s (1-based)."""
        return self.matrices[s - 1]

    def slot_of(self, name):
        return self.slots[name]

    def __eq__(self, other):
        if not isinstance(other, Chart):
            return NotImplemented
        return (
            self.ft == other.ft
            and self.index_sets == other.index_sets
            and all(a == b for a, b in zip(self.matrices, other.matrices))
        )

    def __hash__(self):
        return hash((self.ft, self.index_sets))

    def render(self):
        lines = []
        for s in range(1, self.ft.r + 1):
            lines.append(f"Z_{s} = {self.matrix(s).render()}")
        return "\n".join(lines)


def _step_slots(ft, s, fixed, step_label):
    """Variable names and slots of one coordinate matrix, in display order."""
    ke, le = ft.k[s - 1], ft.l[s - 1]
    kc, lc = ft.k[s], ft.l[s]
    evens, odds, placed = [], [], []
    for i in range(ke):
        if i in fixed:
            continue
        for j in range(kc):
            name = f"x{step_label}_{i + 1}_{j + 1}"
            evens.append(name)
            placed.append((name, i, j))
        for j in range(lc):
            name = f"xi{step_label}_{i + 1}_{j + 1}"
            odds.append(name)
            placed.append((name, i, kc + j))
    for a in range(le):
        if ke + a in fixed:
            continue
        for j in range(kc):
            name = f"eta{step_label}_{a + 1}_{j + 1}"
            odds.append(name)
            placed.append((name, ke + a, j))
        for j in range(lc):
            name = f"y{step_label}_{a + 1}_{j + 1}"
            evens.append(name)
            placed.append((name, ke + a, kc + j))
    return evens, odds, placed


def build_chart(ft, index_sets=None, step_offset=0):
    """Coordinate matrices with identity rows placed and fresh variables
    elsewhere.  ``step_offset`` shifts the step number used in variable
    names (for charts embedded as the tail of a longer flag)."""
    if index_sets is None:
        index_sets = default_index_sets(ft)
    index_sets = _check_index_sets(ft, index_sets)
    steps = []
    even_names, odd_names = [], []
    for s in range(1, ft.r + 1):
        fixed = _identity_rows(ft, s, *index_sets[s - 1])
        evens, odds, placed = _step_slots(ft, s, fixed, s + step_offset)
        even_names.extend(evens)
        odd_names.extend(odds)
        steps.append((fixed, placed))
    ctx = RingContext()
    ctx.evens(*even_names)
    ctx.odds(*odd_names)
    matrices, slots, order = [], {}, []
    for s in range(1, ft.r + 1):
        fixed, placed = steps[s - 1]
        entries = {(i, j): ONE for i, j in fixed.items()}
        for name, i, j in placed:
            entries[(i, j)] = ctx.var(name)
            slots[name] = (s, i, j)
            order.append(name)
        matrices.append(
            SuperMatrix.build(
                BlockShape(ft.k[s - 1], ft.l[s - 1]),
                BlockShape(ft.k[s], ft.l[s]),
                entries, ctx=ctx, parity=0,
            )
        )
    return Chart(ft, index_sets, ctx, tuple(matrices), slots, tuple(order))


def chart_variable_count(ft):
    """(even, odd) independent coordinate counts of any chart of this type."""
    ev = od = 0
    for s in range(1, ft.r + 1):
        dk = ft.k[s - 1] - ft.k[s]
        dl = ft.l[s - 1] - ft.l[s]
        ev += dk * ft.k[s] + dl * ft.l[s]
        od += dk * ft.l[s] + dl * ft.k[s]
    return ev, od


# ---------------------------------------------------------------------------
# The supergroup action
# ---------------------------------------------------------------------------


def _designated_rows(ft, index_sets, s):
    """0-based rows named by the index set of step s, even rows first."""
    i0, i1 = index_sets[s - 1]
    return [i - 1 for i in i0] + [ft.k[s - 1] + i - 1 for i in i1]


def act(L, chart, J=None):
    """Transform a chart by the supergroup element L.

    The first matrix becomes ``L Z_1 C_1^{-1}``; later ones become
    ``C_{s-1} Z_s C_s^{-1}``, where C_s is the submatrix of the rows
    designated by the target index sets J (default: the chart's own).  The
    result carries exact identity rows again by construction.  Raises when
    a designated submatrix has singular body, or when its entries are not
    scalar-plus-nilpotent so the exact inverse does not exist.
    """
    ft = chart.ft
    J = chart.index_sets if J is None else _check_index_sets(ft, J)
    shape = BlockShape(ft.m, ft.n)
    if not (L.rows.compatible(shape) and L.cols.compatible(shape)):
        raise ChartError("acting matrix has the wrong shape")
    carrier = L
    new_mats = []
    ctx = chart.ctx
    for s in range(1, ft.r + 1):
        prod = carrier @ chart.matrix(s)
        sub_shape = BlockShape(ft.k[s], ft.l[s])
        c_s = prod.submatrix(_designated_rows(ft, J, s),
                             range(sub_shape.total), sub_shape, sub_shape)
        new_mats.append(prod @ c_s.invert())
        ctx = new_mats[-1].ctx
        carrier = c_s
    return Chart(ft, J, ctx, tuple(new_mats), chart.slots, chart.independent)


# ---------------------------------------------------------------------------
# Vector fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VectorField:
    """A derivation ``sum coefficient * d/d(variable)`` on a chart's ring."""

    ctx: RingContext
    parity: int
    coefficients: dict
    order: tuple

    def coefficient(self, name):
        c = self.coefficients.get(name)
        return self.ctx.zero if c is None else c

    def is_zero(self):
        return all(c.is_zero() for c in self.coefficients.values())

    def apply(self, poly):
        """Act on a polynomial: sum of coefficient * left derivative."""
        terms = {}
        self._apply_into(terms, poly)
        return SuperPoly._new(common_context(self.ctx, poly.ctx), terms)

    def _apply_into(self, terms, poly, negate=False):
        """Add this field's value on ``poly`` (subtract it when ``negate``)
        into the term dict ``terms``, differentiating only by the
        variables that occur in ``poly``."""
        if not poly.terms:
            return
        present = poly.variables()
        for name, c in self.coefficients.items():
            if c.terms and name in present:
                add_product(terms, c, poly.left_derivative(name), negate)

    def bracket(self, other):
        """Super-commutator [V, W] = V W - (-1)^{|V||W|} W V, again a field
        on the same ring."""
        ctx = common_context(self.ctx, other.ctx)
        negate = not (self.parity and other.parity)
        names = tuple(dict.fromkeys((*self.order, *other.order)))
        coeffs = {}
        for name in names:
            terms = {}
            self._apply_into(terms, other.coefficient(name))
            other._apply_into(terms, self.coefficient(name), negate)
            coeffs[name] = SuperPoly._new(ctx, terms)
        return VectorField(
            self.ctx, (self.parity + other.parity) % 2, coeffs, names
        )

    def __add__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        names = list(dict.fromkeys(list(self.order) + list(other.order)))
        coeffs = {n: self.coefficient(n) + other.coefficient(n) for n in names}
        parity = self.parity if self.parity == other.parity else None
        return VectorField(self.ctx, parity, coeffs, tuple(names))

    def __neg__(self):
        return VectorField(
            self.ctx, self.parity,
            {n: -c for n, c in self.coefficients.items()}, self.order,
        )

    def __sub__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        return VectorField(
            self.ctx, self.parity,
            {n: v * c for n, v in self.coefficients.items()}, self.order,
        )

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        names = set(self.coefficients) | set(other.coefficients)
        return all(self.coefficient(n) == other.coefficient(n) for n in names)

    def __hash__(self):
        return hash(self.parity)

    def render(self):
        parts = []
        for name in self.order:
            c = self.coefficient(name)
            if c.is_zero():
                continue
            d = f"d/d{name}"
            if c == self.ctx.one:
                text = d
            elif c == -self.ctx.one:
                text = f"-{d}"
            else:
                body = c.render()
                if len(list(c.monomials())) > 1 or " " in body:
                    body = f"({body})"
                text = f"{body}*{d}"
            parts.append(text)
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __str__(self):
        return self.render()


def fundamental_field(X, chart):
    """First-order vector field of the one-parameter family exp(t X).

    The field is the t-linear part of ``act(E + tX, chart)`` for a
    square-zero parameter t of the parity of X, in closed form.  Each chart
    matrix Z_s is the identity on its designated rows I_s, so step s moves
    Z_s to (Z_s + tP)(E + tB)^{-1} = Z_s + t(P - Z~_s B), with

        P = A Z_s,   B = the rows I_s of P,
        A = X~ at step 1 and the previous step's B after it,

    because (E + tB)^{-1} = E - tB when t^2 = 0.  The tildes are the signs
    of moving t to the front: Z_s t B = t Z~_s B and X t = t X~.  For even
    X, t is even and central, and nothing changes sign.  For odd X, t is
    odd and passes an entry M_ik with the sign (-1)^{|M_ik|}; chart
    matrices are even, so |Z_ik| is the slot parity |i| + |k|, and an odd X
    with numeric entries has no odd entry, so X~ = X.  The coefficient of
    each independent coordinate is the entry of P - Z~_s B at its slot.  X
    must be declared parity-homogeneous.
    """
    if X.parity not in (0, 1):
        raise ValueError("fundamental_field needs a parity-homogeneous matrix")
    ft, ctx = chart.ft, chart.ctx
    odd = X.parity == 1
    carrier = X.lift(ctx).parity_involution() if odd else X.lift(ctx)
    rates = []
    for s in range(1, ft.r + 1):
        z = chart.matrix(s)
        prod = carrier @ z
        shape = BlockShape(ft.k[s], ft.l[s])
        carrier = prod.submatrix(_designated_rows(ft, chart.index_sets, s),
                                 range(shape.total), shape, shape)
        twisted = z.parity_involution() if odd else z
        rates.append(prod - twisted @ carrier)
    coeffs = {}
    for name in chart.independent:
        s, i, j = chart.slot_of(name)
        coeffs[name] = rates[s - 1][i, j]
    return VectorField(ctx, X.parity, coeffs, chart.independent)


def fundamental_bracket_sign(parity_x, parity_y):
    """Sign in [field(X), field(Y)] = sign * field([X, Y]).

    The action composes contravariantly on coordinates, so X -> field(X)
    is a homomorphism from the opposite super Lie algebra: the sign is
    -(-1)^(|X||Y|).  Verified on every orthosymplectic generator pair by
    the property suite.
    """
    return 1 if (parity_x and parity_y) else -1


# ---------------------------------------------------------------------------
# The isotropic maximal-type chart
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IsotropicChart:
    """The five-block chart with its isotropy relations resolved.

    ``formal`` carries the layout with every non-identity slot a variable;
    its ring extends the chart's ring by the dependent names.  ``chart`` is
    derived from ``formal``: each dependent slot takes its ``solution``
    value and every entry is demoted to the smaller ring, so the chart is
    the formal chart resolved by the solution by construction.  The block
    relations are

        Z1 + Z1^T + X1^T X1 = 0
        Zeta1^T + Xi1^T X1 + Eta1 = 0
        Xi1^T Xi1 + Y1 - Y1^T = 0

    with independent coordinates X1, Xi1, Eta1, the strictly-lower triangle
    of Z1 and the lower-with-diagonal triangle of Y1.
    """

    k1: int
    l1: int
    ft: FlagType
    chart: Chart
    formal: Chart
    solution: dict
    gram: object

    def residual(self):
        """Z^{ST} Gamma Z of the constrained first matrix; must be zero."""
        z = self.chart.matrix(1)
        g = self.gram.matrix.lift(z.ctx)
        return z.supertranspose() @ g @ z

    def formal_residual_entries(self):
        """Entries of Z^{ST} Gamma Z of the unconstrained first matrix."""
        z = self.formal.matrix(1)
        g = self.gram.matrix.lift(z.ctx)
        res = z.supertranspose() @ g @ z
        return [
            res[i, j]
            for i in range(res.rows.total)
            for j in range(res.cols.total)
        ]


def _isotropic_name_lists(k1, l1):
    """Independent first-step names: evens, odds and the field display order."""
    s = k1 - 1
    xs = [f"x1_{j}" for j in range(1, s + 1)]
    xis = [f"xi1_{a}" for a in range(1, l1 + 1)]
    etas = [f"eta1_{a}_{b}" for a in range(1, l1 + 1) for b in range(1, s + 1)]
    ys = [f"y1_{i}_{j}" for i in range(1, l1 + 1) for j in range(1, i + 1)]
    zs = [f"z1_{i}_{j}" for i in range(1, s + 1) for j in range(1, i)]
    return xs + ys + zs, xis + etas, xs + xis + etas + ys + zs


def _first_step_rows(k1, l1):
    s = k1 - 1
    return BlockShape(2 * k1 - 1, 2 * l1, (s, s, 1), (l1, l1))


def _tail_matrices(tail, ctx):
    """The coordinate matrices of the trailing steps, rebuilt over ``ctx``."""
    mats = []
    for s, m in enumerate(tail.matrices, 1):
        fixed = _identity_rows(tail.ft, s, *tail.index_sets[s - 1])
        entries = {(i, j): ONE for i, j in fixed.items()}
        for name, (ps, i, j) in tail.slots.items():
            if ps == s:
                entries[(i, j)] = ctx.var(name)
        mats.append(SuperMatrix.build(m.rows, m.cols, entries, ctx=ctx,
                                      parity=0))
    return mats


def isotropic_chart(k1, l1, tail=None, tail_index_sets=None):
    """The maximal-type chart with first matrix in the five-block layout.

    The first flag step is (2k1-1, k1-1 | 2l1, l1); ``tail`` optionally
    appends further steps as a pair of tuples, completing the chart on the
    total space.  The chart is the formal chart with its dependent
    first-step coordinates replaced by their solutions from the isotropy
    relations; see :class:`IsotropicChart`.
    """
    if k1 < 1 or l1 < 1:
        raise FlagTypeError("the isotropic chart needs k1 >= 1 and l1 >= 1")
    ks = [2 * k1 - 1, k1 - 1]
    ls = [2 * l1, l1]
    if tail is not None:
        ks.extend(tail[0])
        ls.extend(tail[1])
    ft = validate_flag_type(ks, ls)
    evens, odds, order = _isotropic_name_lists(k1, l1)
    tail_chart = None
    if ft.r > 1:
        tail_chart = build_chart(FlagType(ft.k[1:], ft.l[1:]),
                                 tail_index_sets, step_offset=1)
        evens += tail_chart.ctx.even_names
        odds += tail_chart.ctx.odd_names
        order += tail_chart.independent
    ctx = RingContext()
    ctx.evens(*evens)
    ctx.odds(*odds)

    formal = _formal_isotropic_chart(k1, l1, ft, ctx, tail_chart)
    solution = _dependent_solution(k1, l1, formal.ctx)
    name_at = {slot: name for name, slot in formal.slots.items()}
    matrices = []
    for s, fm in enumerate(formal.matrices, 1):
        entries = {}
        for (i, j), v in fm.entries.items():
            name = name_at.get((s, i, j))
            entries[(i, j)] = ctx.demote(solution.get(name, v))
        matrices.append(SuperMatrix.build(fm.rows, fm.cols, entries, ctx=ctx,
                                          parity=0))
    slots = {name: slot for name, slot in formal.slots.items()
             if name not in solution}
    chart = Chart(ft, formal.index_sets, ctx, tuple(matrices), slots,
                  tuple(order))
    return IsotropicChart(k1, l1, ft, chart, formal, solution,
                          gram_form("odd", k1 - 1, l1))


def _formal_isotropic_chart(k1, l1, ft, ctx, tail_chart):
    """The same layout with every non-identity slot a variable.

    Its ring extends ``ctx`` by the dependent names: the upper triangle of
    Y1, the upper-with-diagonal triangle of Z1 and all of Zeta1.
    """
    s = k1 - 1
    ctx = ctx.extended(
        even=[f"y1_{i}_{j}" for i in range(1, l1 + 1)
              for j in range(i + 1, l1 + 1)]
        + [f"z1_{i}_{j}" for i in range(1, s + 1) for j in range(i, s + 1)],
        odd=[f"zeta1_{i}_{a}" for i in range(1, s + 1)
             for a in range(1, l1 + 1)],
    )
    v = ctx.var
    order = [f"x1_{j}" for j in range(1, s + 1)]
    order += [f"xi1_{a}" for a in range(1, l1 + 1)]
    order += [f"eta1_{a}_{b}" for a in range(1, l1 + 1)
              for b in range(1, s + 1)]
    order += [f"y1_{i}_{j}" for i in range(1, l1 + 1)
              for j in range(1, l1 + 1)]
    order += [f"z1_{i}_{j}" for i in range(1, s + 1) for j in range(1, s + 1)]
    order += [f"zeta1_{i}_{a}" for i in range(1, s + 1)
              for a in range(1, l1 + 1)]

    rows = _first_step_rows(k1, l1)
    cols = BlockShape(s, l1)
    entries = {}
    slots = {}
    for i in range(1, s + 1):
        for j in range(1, s + 1):
            entries[(i - 1, j - 1)] = v(f"z1_{i}_{j}")
            slots[f"z1_{i}_{j}"] = (1, i - 1, j - 1)
        for a in range(1, l1 + 1):
            entries[(i - 1, s + a - 1)] = v(f"zeta1_{i}_{a}")
            slots[f"zeta1_{i}_{a}"] = (1, i - 1, s + a - 1)
        entries[(s + i - 1, i - 1)] = ONE
    for j in range(1, s + 1):
        entries[(2 * s, j - 1)] = v(f"x1_{j}")
        slots[f"x1_{j}"] = (1, 2 * s, j - 1)
    for a in range(1, l1 + 1):
        entries[(2 * s, s + a - 1)] = v(f"xi1_{a}")
        slots[f"xi1_{a}"] = (1, 2 * s, s + a - 1)
        for b in range(1, s + 1):
            entries[(2 * s + a, b - 1)] = v(f"eta1_{a}_{b}")
            slots[f"eta1_{a}_{b}"] = (1, 2 * s + a, b - 1)
        for b in range(1, l1 + 1):
            entries[(2 * s + a, s + b - 1)] = v(f"y1_{a}_{b}")
            slots[f"y1_{a}_{b}"] = (1, 2 * s + a, s + b - 1)
        entries[(2 * s + l1 + a, s + a - 1)] = ONE
    first = SuperMatrix.build(rows, cols, entries, ctx=ctx, parity=0)
    matrices = [first]
    index_sets = [
        (tuple(range(k1, 2 * k1 - 1)), tuple(range(l1 + 1, 2 * l1 + 1)))
    ]
    if tail_chart is not None:
        matrices.extend(_tail_matrices(tail_chart, ctx))
        index_sets.extend(tail_chart.index_sets)
        order += tail_chart.independent
        for name, (ps, i, j) in tail_chart.slots.items():
            slots[name] = (ps + 1, i, j)
    return Chart(ft, tuple(index_sets), ctx, tuple(matrices), slots,
                 tuple(order))


def _dependent_solution(k1, l1, ctx):
    """Substitution resolving the dependent slots of the formal chart."""
    s = k1 - 1
    v = ctx.var
    half = Fraction(1, 2)
    sol = {}
    for i in range(1, s + 1):
        sol[f"z1_{i}_{i}"] = v(f"x1_{i}") * v(f"x1_{i}") * (-half)
        for j in range(i + 1, s + 1):
            sol[f"z1_{i}_{j}"] = -v(f"z1_{j}_{i}") - v(f"x1_{i}") * v(f"x1_{j}")
    for i in range(1, l1 + 1):
        for j in range(i + 1, l1 + 1):
            sol[f"y1_{i}_{j}"] = v(f"y1_{j}_{i}") - v(f"xi1_{i}") * v(f"xi1_{j}")
    for i in range(1, s + 1):
        for a in range(1, l1 + 1):
            sol[f"zeta1_{i}_{a}"] = (
                -v(f"x1_{i}") * v(f"xi1_{a}") - v(f"eta1_{a}_{i}")
            )
    return sol


# ---------------------------------------------------------------------------
# Closed-form coordinate fields and the generators that induce them
# ---------------------------------------------------------------------------


def lemma_eta_field(iso, a, b):
    """The plain coordinate field d/deta1_{a b}."""
    name = f"eta1_{a}_{b}"
    ctx = iso.chart.ctx
    return VectorField(ctx, 1, {name: ctx.one}, iso.chart.independent)


def lemma_h_field(iso, i):
    """h_i = d/dxi1_i - sum_j x1_j d/deta1_{i j} - sum_{j<=i} xi1_j d/dy1_{i j}."""
    ctx = iso.chart.ctx
    coeffs = {f"xi1_{i}": ctx.one}
    for j in range(1, iso.k1):
        coeffs[f"eta1_{i}_{j}"] = -ctx.var(f"x1_{j}")
    for j in range(1, i + 1):
        coeffs[f"y1_{i}_{j}"] = -ctx.var(f"xi1_{j}")
    return VectorField(ctx, 1, coeffs, iso.chart.independent)


def lemma_h_generator(iso, i):
    """The algebra element whose one-parameter family induces h_i."""
    bas = basis("odd", iso.k1 - 1, iso.l1)
    return bas[f"G4:{i}"].matrix


def lemma_eta_generator(iso, a, b):
    """The algebra element inducing the coordinate field on eta1_{a b}."""
    bas = basis("odd", iso.k1 - 1, iso.l1)
    return -bas[f"C12:{b},{a}"].matrix
