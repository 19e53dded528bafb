"""Charts on flag supermanifolds and the supergroup action on them.

A flag type (k, l) fixes a chain of sub-superspaces; a chart is a tuple of
coordinate matrices ``Z[s]``, one per flag step, each containing a fixed
identity submatrix in the rows named by the index sets and fresh variables
in the remaining rows.  The supergroup acts by ``Z -> L Z C^{-1}`` where C
is the designated row submatrix.  The first-order fundamental vector field
of X is the t-linear part of the action of ``E + t X`` for a square-zero
parameter t, which ``fundamental_field`` computes in closed form.  It
reads the chart matrices through ``Chart.field_index``, built once per
chart, so a field costs what the entries of X touch, not what the chart
holds, and it keeps only the nonzero coefficients.  ``VectorField.bracket``
passes once over the terms of each coefficient polynomial, differentiating
each term by the variables the other field holds and multiplying it by
their coefficients in the same step, and keeps only the nonzero
coefficients too.

The isotropic chart is the special first-step chart whose column span is
isotropic for the orthosymplectic form; each dependent slot holds its
solution of the isotropy relations, written in the independent
coordinates.

Every chart is assembled in one place, ``_assemble``, from a table of
steps: the identity rows of each step and its free slots
``(name, row, col, parity, dependent)`` in display order.  A plain chart
reads its slots off the index sets (``_steps``); the isotropic chart
takes its first step from the five-block table ``_first_step`` and any
trailing steps from ``_steps``.  The ring, the coordinate order and the
slot map are all read from the same table.  The chart with every slot a
variable, against which the tests check the relations, is built by hand
in ``tests/oracles.py``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from .matrices import BlockShape, SuperMatrix
from .osp import basis, gram_form
from .ring import ContextError, RingContext, SuperPoly, add_derivative, \
    add_product, common_context
from .scalars import ONE, scaled, signed_sum


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
class StepIndex:
    """One chart matrix Z_s indexed for ``fundamental_field``.

    ``rows`` maps each row k of Z_s to its ``(column, entry)`` pairs;
    ``cols`` and ``twisted_cols`` map each column c to the ``(row, entry)``
    pairs of Z_s and of its parity involution Z~_s, leaving out the
    identity rows, where P - Z~_s B vanishes and no coordinate sits.
    ``fixed`` is the identity-row map of ``_identity_rows`` and ``names``
    maps each slot (row, col) of an independent coordinate to its name.
    """

    rows: dict
    cols: dict
    twisted_cols: dict
    fixed: dict
    names: dict

    @classmethod
    def of(cls, z, fixed, names):
        rows, cols, twisted_cols = {}, {}, {}
        twisted = z.parity_involution().entries
        for (i, j), v in z.entries.items():
            rows.setdefault(i, []).append((j, v))
            if i not in fixed:
                cols.setdefault(j, []).append((i, v))
                twisted_cols.setdefault(j, []).append((i, twisted[(i, j)]))
        return cls(rows, cols, twisted_cols, fixed, names)


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

    @functools.cached_property
    def field_index(self):
        """The chart matrices as ``fundamental_field`` reads them, one
        :class:`StepIndex` per flag step, built once per chart."""
        names = [{} for _ in self.matrices]
        for name in self.independent:
            s, i, j = self.slots[name]
            names[s - 1][(i, j)] = name
        index = []
        for s, z in enumerate(self.matrices, 1):
            fixed = _identity_rows(self.ft, s, *self.index_sets[s - 1])
            index.append(StepIndex.of(z, fixed, names[s - 1]))
        return tuple(index)

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
    """The free slots of one coordinate matrix in display order, each a
    ``(name, row, col, parity, dependent)`` tuple with 0-based row and
    column; no slot of a plain chart is dependent."""
    ke, le = ft.k[s - 1], ft.l[s - 1]
    kc, lc = ft.k[s], ft.l[s]
    slots = []
    for i in range(ke):
        if i in fixed:
            continue
        slots += [(f"x{step_label}_{i + 1}_{j + 1}", i, j, 0, False)
                  for j in range(kc)]
        slots += [(f"xi{step_label}_{i + 1}_{j + 1}", i, kc + j, 1, False)
                  for j in range(lc)]
    for a in range(le):
        if ke + a in fixed:
            continue
        slots += [(f"eta{step_label}_{a + 1}_{j + 1}", ke + a, j, 1, False)
                  for j in range(kc)]
        slots += [(f"y{step_label}_{a + 1}_{j + 1}", ke + a, kc + j, 0, False)
                  for j in range(lc)]
    return slots


def _steps(ft, index_sets, label_offset=0):
    """``(identity rows, free slots)`` of every step of a plain chart;
    variable names carry the step number plus ``label_offset``."""
    steps = []
    for s in range(1, ft.r + 1):
        fixed = _identity_rows(ft, s, *index_sets[s - 1])
        steps.append((fixed, _step_slots(ft, s, fixed, s + label_offset)))
    return steps


def _ring(slots):
    """The ring of the names of ``slots``, each parity in slot order."""
    return RingContext().extended(
        even=[name for name, _, _, p, _ in slots if not p],
        odd=[name for name, _, _, p, _ in slots if p])


def _assemble(ft, index_sets, steps, ctx, solution=None):
    """The chart over ``ctx`` whose step s has the identity rows and free
    slots of ``steps[s - 1]``.  A free slot named in ``solution`` holds its
    solution value, a polynomial over ``ctx``, and is not a coordinate;
    every other one holds its own variable."""
    solution = solution or {}
    matrices, slots, order = [], {}, []
    for s, (fixed, free) in enumerate(steps, 1):
        entries = {(i, j): ONE for i, j in fixed.items()}
        for name, i, j, _, _ in free:
            if name in solution:
                entries[(i, j)] = solution[name]
                continue
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


def build_chart(ft, index_sets=None):
    """Coordinate matrices with identity rows placed and fresh variables
    elsewhere, assembled from the free slots of every step."""
    if index_sets is None:
        index_sets = default_index_sets(ft)
    index_sets = _check_index_sets(ft, index_sets)
    steps = _steps(ft, index_sets)
    return _assemble(ft, index_sets, steps,
                     _ring([slot for _, free in steps for slot in free]))


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


def _designated(prod, ft, index_sets, s):
    """The square submatrix of ``prod`` in the rows named by the index set
    of step s, even rows first: the rows that hold the identity in Z_s."""
    shape = BlockShape(ft.k[s], ft.l[s])
    return prod.submatrix(list(_identity_rows(ft, s, *index_sets[s - 1])),
                          range(shape.total), shape, shape)


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
    if L.rows != shape or L.cols != shape:
        raise ChartError("acting matrix has the wrong shape")
    carrier = L
    new_mats = []
    ctx = chart.ctx
    for s in range(1, ft.r + 1):
        prod = carrier @ chart.matrix(s)
        c_s = _designated(prod, ft, J, s)
        new_mats.append(prod @ c_s.invert())
        ctx = new_mats[-1].ctx
        carrier = c_s
    return Chart(ft, J, ctx, tuple(new_mats), chart.slots, chart.independent)


# ---------------------------------------------------------------------------
# Vector fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VectorField:
    """A derivation ``sum coefficient * d/d(variable)`` on a chart's ring.

    ``order`` lists the coordinates in display order; a name it lists and
    ``coefficients`` lacks has coefficient zero.  A field may be built
    with zero coefficients, but every field that the operations below
    return holds only nonzero ones.  ``apply`` and ``bracket`` index a
    field's coefficients by variable id once per call
    (``RingContext.by_variable``) and pass once over the terms of each
    polynomial they act on, adding each coefficient times the term's
    partial by its variable into the result (``ring.add_derivative``).
    """

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
        add_derivative(terms, self.ctx.by_variable(self.coefficients), poly)
        return SuperPoly._new(common_context(self.ctx, poly.ctx), terms)

    def bracket(self, other):
        """Super-commutator [V, W] = V W - (-1)^{|V||W|} W V, a field on
        the one of the two rings that extends the other.  Both fields must
        be parity-homogeneous.  Each field's coefficients are indexed by
        variable once; the coefficient of a name is V applied to W's
        coefficient there, minus the sign times W applied to V's, and only
        the nonzero ones are kept."""
        if self.parity not in (0, 1) or other.parity not in (0, 1):
            raise ValueError("bracket needs parity-homogeneous fields; a sum"
                             " of an even and an odd field has no parity")
        ctx = common_context(self.ctx, other.ctx)
        negate = not (self.parity and other.parity)
        mine = self.ctx.by_variable(self.coefficients)
        theirs = other.ctx.by_variable(other.coefficients)
        sums = {}
        for name, c in other.coefficients.items():
            add_derivative(sums.setdefault(name, {}), mine, c)
        for name, c in self.coefficients.items():
            add_derivative(sums.setdefault(name, {}), theirs, c, negate)
        return VectorField(
            ctx, (self.parity + other.parity) % 2,
            {name: SuperPoly._new(ctx, terms)
             for name, terms in sums.items() if terms},
            tuple(dict.fromkeys((*self.order, *other.order))))

    def __add__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        ctx = common_context(self.ctx, other.ctx)
        sums = {name: ctx.lift(c) for name, c in self.coefficients.items()}
        for name, c in other.coefficients.items():
            sums[name] = sums[name] + c if name in sums else ctx.lift(c)
        parity = self.parity if self.parity == other.parity else None
        return VectorField(
            ctx, parity, {n: c for n, c in sums.items() if c.terms},
            tuple(dict.fromkeys((*self.order, *other.order))))

    def __neg__(self):
        return VectorField(
            self.ctx, self.parity,
            {n: -c for n, c in self.coefficients.items() if c.terms},
            self.order,
        )

    def __sub__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        products = ((n, v * c) for n, v in self.coefficients.items())
        return VectorField(self.ctx, self.parity,
                           {n: v for n, v in products if v.terms}, self.order)

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        mine, theirs = self.coefficients, other.coefficients
        for name in mine.keys() | theirs.keys():
            a, b = mine.get(name), theirs.get(name)
            if a is None or b is None:
                if (b if a is None else a).terms:
                    return False
            elif a != b:
                return False
        return True

    def __hash__(self):
        # Equality ignores the parity, the order and the zero coefficients.
        return hash(frozenset((n, c) for n, c in self.coefficients.items()
                              if not c.is_zero()))

    def render(self):
        held = self.coefficients
        return signed_sum(scaled(held[name].render(), f"d/d{name}")
                          for name in self.order
                          if name in held and held[name].terms)

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

    The work follows the entries of A, not the size of the chart: each
    entry of A meets the row of Z_s it names, each entry of B the column
    of Z~_s (of Z_s for even X) it names, both read off the chart's
    ``field_index``, and only the slots these products touch are read.
    Z~_s B is subtracted outside the rows I_s only: on them P - Z~_s B is
    zero and no coordinate sits, so B keeps P's term dicts there.  The
    field keeps the nonzero coefficients; its ``order`` lists every
    independent coordinate.
    """
    if X.parity not in (0, 1):
        raise ValueError("fundamental_field needs a parity-homogeneous matrix")
    ctx = chart.ctx
    if not ctx.extends(X.ctx):
        raise ContextError("cannot lift: the chart's ring does not extend"
                           " the matrix's")
    odd = X.parity == 1
    carrier = (X.parity_involution() if odd else X).entries
    coeffs = {}
    for step in chart.field_index:
        cols = step.twisted_cols if odd else step.cols
        rate = {}                                   # P, then P - Z~_s B
        for (i, k), a in carrier.items():
            for j, z in step.rows.get(k, ()):
                add_product(rate.setdefault((i, j), {}), a, z)
        carrier = {(step.fixed[i], j): SuperPoly._new(ctx, terms)
                   for (i, j), terms in rate.items()
                   if terms and i in step.fixed}
        for (c, j), b in carrier.items():
            for i, z in cols.get(c, ()):
                add_product(rate.setdefault((i, j), {}), z, b, True)
        for slot, terms in rate.items():
            name = step.names.get(slot)
            if name is not None and terms:
                coeffs[name] = SuperPoly._new(ctx, terms)
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

    Each dependent slot of the first matrix holds its solution of the block
    relations

        Z1 + Z1^T + X1^T X1 = 0
        Zeta1^T + Xi1^T X1 + Eta1 = 0
        Xi1^T Xi1 + Y1 - Y1^T = 0

    in the independent coordinates X1, Xi1, Eta1, the strictly-lower
    triangle of Z1 and the lower-with-diagonal triangle of Y1, which are
    the chart's coordinates.
    """

    k1: int
    l1: int
    ft: FlagType
    chart: Chart
    gram: object

    def residual(self):
        """Z^{ST} Gamma Z of the constrained first matrix; must be zero."""
        z = self.chart.matrix(1)
        g = self.gram.matrix.lift(z.ctx)
        return z.supertranspose() @ g @ z


def _first_step(k1, l1):
    """The free slots of the five-block first matrix in display order, each
    a ``(name, row, col, parity, dependent)`` tuple.

    With s = k1 - 1 the rows are Z1|Zeta1 (s rows), the even identity,
    X1|Xi1 (one row), Eta1|Y1 (l1 rows) and the odd identity; the columns
    are s even and l1 odd.  The dependent slots are the upper-with-diagonal
    triangle of Z1, the upper triangle of Y1 and all of Zeta1; leaving
    them out gives the chart's coordinates in display order.
    """
    s = k1 - 1
    slots = [(f"x1_{j}", 2 * s, j - 1, 0, False) for j in range(1, s + 1)]
    slots += [(f"xi1_{a}", 2 * s, s + a - 1, 1, False)
              for a in range(1, l1 + 1)]
    slots += [(f"eta1_{a}_{b}", 2 * s + a, b - 1, 1, False)
              for a in range(1, l1 + 1) for b in range(1, s + 1)]
    slots += [(f"y1_{a}_{b}", 2 * s + a, s + b - 1, 0, b > a)
              for a in range(1, l1 + 1) for b in range(1, l1 + 1)]
    slots += [(f"z1_{i}_{j}", i - 1, j - 1, 0, j >= i)
              for i in range(1, s + 1) for j in range(1, s + 1)]
    slots += [(f"zeta1_{i}_{a}", i - 1, s + a - 1, 1, True)
              for i in range(1, s + 1) for a in range(1, l1 + 1)]
    return slots


def isotropic_chart(k1, l1, tail=None):
    """The maximal-type chart with first matrix in the five-block pattern.

    The first flag step is (2k1-1, k1-1 | 2l1, l1); ``tail`` optionally
    appends further steps as a pair of tuples, completing the chart on the
    total space with plain steps at their default index sets.  The first
    step's slots come from ``_first_step`` and the tail's from the plain
    chart's step builder; the ring holds the independent ones, and the
    assembler puts each dependent first-step slot's solution from the
    isotropy relations in its place; see :class:`IsotropicChart`.
    """
    if k1 < 1 or l1 < 1:
        raise FlagTypeError("the isotropic chart needs k1 >= 1 and l1 >= 1")
    ks = [2 * k1 - 1, k1 - 1]
    ls = [2 * l1, l1]
    if tail is not None:
        ks.extend(tail[0])
        ls.extend(tail[1])
    ft = validate_flag_type(ks, ls)
    index_sets = ((tuple(range(k1, 2 * k1 - 1)),
                   tuple(range(l1 + 1, 2 * l1 + 1))),)
    steps = [(_identity_rows(ft, 1, *index_sets[0]), _first_step(k1, l1))]
    if ft.r > 1:
        tail_ft = ft.fiber_type()
        index_sets += default_index_sets(tail_ft)
        steps += _steps(tail_ft, index_sets[1:], label_offset=1)
    ctx = _ring([slot for _, free in steps for slot in free
                 if not slot[4]])
    chart = _assemble(ft, index_sets, steps, ctx,
                      _dependent_solution(k1, l1, ctx))
    return IsotropicChart(k1, l1, ft, chart, gram_form("odd", k1 - 1, l1))


def _dependent_solution(k1, l1, ctx):
    """The value of each dependent first-step slot, over the chart's ring
    ``ctx``: every value is written in independent coordinates only."""
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
