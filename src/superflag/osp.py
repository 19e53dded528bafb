"""Orthosymplectic Lie superalgebras as block supermatrices.

Four matrix realizations ("flavors") are supported, differing in the Gram
matrix of the defining bilinear form and hence in the block pattern of the
solution space of ``M^ST @ G + G @ M = 0``:

``odd``
    osp(2m+1|2n); even Gram has E_m off-diagonal blocks plus a middle 1,
    odd part is the standard symplectic J.  Five blocks
    (m, m, 1 | n, n).
``even``
    osp(2k|2l); even Gram has E_k off-diagonal blocks.  Four blocks
    (k, k | l, l).
``primed``
    the same algebras after the sqrt2/i change of basis: even Gram is the
    identity E_t with t = 2k-1 or 2k; five or four blocks depending on
    the parity of t.
``gl``
    the full matrix algebra gl(p|q); no defining equation.  Used as a
    control in center computations.

Every basis generator is tagged by its free block parameter (for instance
``A11:1,2`` or ``G4:1``) so structure constants are reproducible run to run.

The generators come from one family table per slot naming: ``original``
(the odd/even flavors) and ``primed``.  Each row names a tag, a row block,
a column block and an index range over them: ``full``, ``strict`` (i < j),
``upper`` (i <= j) or ``vec`` (one index, along the block that is not the
middle one).  The table order is the generator order: every even family
comes before every odd one, and ``basis`` sorts nothing.  The blocks are
read off the Gram's sizes (p|q): even halves b1 and b2 of size p // 2,
the one-wide middle block b3 after them when p is odd, and odd halves c1
and c2 of size q // 2; the three symplectic B rows are shared by both
tables.

Each Gram is written as its signed permutation g_x e(x, pi(x)):
``gram_form`` writes pi and the signs g_x, and the matrix and pi^-1
follow from them.  A generator has +1 at its primary slot (r, c) and one
forced entry that the Gram form fixes: the defining equation puts
-sigma g_r g_c at (pi(c), pi(r)), where sigma = -1 on the
even-row/odd-column slots that the supertranspose negates.  When that
slot is (r, c) itself there is no second entry.

The same permutation gives the membership residual M^ST G + G M without a
product: entry M[r, c] adds g_x M[r, c] at (x, c), x = pi^-1(r), through
G M, and sigma g_r M[r, c] at its partner slot (c, pi(r)) through M^ST G.
``GramForm.partner`` holds the sigma rule for both uses.  The residual
has one implementation, ``entry_residual``, on a constant matrix given as
``{slot: q}``.  G is numeric, so ``membership_residual``, the one
membership test for a matrix, assembles its residual matrix from the
residuals of the matrix's Grassmann components: M is a member exactly
when that matrix has no entries.

Every generator entry is a constant, so structure constants are computed
on the normalised 5-tuples of ``scalars`` (``q``): ``components`` splits
a matrix into its Grassmann components ``{monomial key: {slot: q}}``.
``basis`` makes each generator as its entry table, the one form a
``Generator`` stores: it checks the table's slot parities and residual,
and ``Generator.matrix`` is built from the table on first read, by the
``osp-basis`` command, the charts and the tests; the osp-defining,
isomorphism and imp-witness suites never read it.  ``basis`` and
``gram_form`` keep ``CACHE_SIZE`` results, enough for every basis one
run asks for.  ``closure_check`` brackets on the tables
(``OspBasis.entry_table``): it indexes them by row and by column once per
call and sweeps each generator once against that index, forming its
bracket with every later generator that meets it; ``odd_self_bracket``
forms [X, X] = 2 X^2 of an odd table with the same sweep, against the
table's own row index alone.
``OspBasis.read_off``, the one span test for constant matrices, expands
a bracket or a candidate in one pass over its entries: the generators'
supports are pairwise disjoint (``OspBasis`` refuses a basis where two
share a slot), so each entry is checked against the one generator that
owns its slot (``OspBasis.owners``) and no combination is re-assembled.
``conjugate_entries`` forms S^-1 M S, and
the zero-bordering P M P^T (``border_matrix``), on the same tables.
``closure_check`` returns the constants as a ``BracketTable``, whose
view in both orders of each pair is filled on first read; the Jacobi and
center checks read it and compose and reduce tuple rows; every sum of
such dicts is ``scalars.add_scaled``.  The constants stay 5-tuples end
to end: the center feeds them to ``RankTracker`` as ``{column: q}`` rows
and scales the generators' entry tables by its ``{column: q}`` nullspace
vectors, so no FieldScalar is built in these checks.  The
matrix-bracket Jacobi identity, the conjugation by two matrix products,
the one-way constant table, the residual on whole term dicts and by
matrix products, the matrix-first basis, the matrix bordering with its
span test, the read-off by re-assembly and the odd/even stabilizer of
the base flag, which the tests compare these with, live in
``tests/oracles.py``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .linalg import RankTracker
from .matrices import BlockShape, ParityError, SuperMatrix
from .ring import CONSTANT, NUMERIC_CTX
from .scalars import I_INV_SQRT2, INV_SQRT2, ONE, Q_MINUS_ONE, Q_ONE, \
    Q_ZERO, add_scaled, q_add, q_mul, q_neg


class NotInSpanError(ValueError):
    """A matrix failed to expand exactly in the requested basis."""


@dataclass(frozen=True)
class GramForm:
    """A Gram matrix g_x e(x, pi(x)): ``perm`` is pi, ``inverse`` its
    inverse and ``sign`` the g_x as +1 or -1, one per row."""

    shape: BlockShape
    matrix: SuperMatrix
    perm: tuple
    inverse: tuple
    sign: tuple

    def partner(self, r, c):
        """``(slot, sign)``: entry M[r, c] adds sign * M[r, c] to M^ST G at
        slot (c, pi(r)), where sign is sigma g_r and sigma = -1 on the
        even-row/odd-column slots that the supertranspose negates."""
        sign = self.sign[r]
        if r < self.shape.even <= c:
            sign = -sign
        return (c, self.perm[r]), sign


@dataclass(frozen=True)
class Generator:
    """A basis generator stored as its nonzero entries ``{slot: q}``, with
    its +1 primary slot and the square shape of its algebra.  ``matrix``
    is built from the table on first access and then kept."""

    tag: str
    parity: int
    entries: dict
    primary: tuple
    shape: BlockShape

    @functools.cached_property
    def matrix(self):
        return SuperMatrix.from_terms(self.shape, self.shape, NUMERIC_CTX,
                                      self.parity,
                                      {slot: {CONSTANT: q}
                                       for slot, q in self.entries.items()})


@dataclass
class OspBasis:
    """Generators with pairwise disjoint supports: ``owners`` maps each
    slot some generator touches to ``(generator index, entry)``, and
    ``__post_init__`` raises ValueError when two generators share a slot
    or a generator's primary slot is not one of its entries."""

    gram: GramForm
    generators: tuple
    _by_tag: dict = field(init=False, repr=False, compare=False)
    owners: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.generators = tuple(self.generators)
        self._by_tag = {g.tag: g for g in self.generators}
        self.owners = {}
        for i, g in enumerate(self.generators):
            if g.primary not in g.entries:
                raise ValueError(f"generator {g.tag}: primary slot"
                                 f" {g.primary} is not one of its entries")
            for slot, v in g.entries.items():
                prev = self.owners.setdefault(slot, (i, v))
                if prev[0] != i:
                    raise ValueError(
                        f"slot {slot} is shared by generators"
                        f" {self.generators[prev[0]].tag} and {g.tag}")

    def __len__(self):
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)

    def __getitem__(self, tag):
        return self._by_tag[tag]

    def tags(self):
        return [g.tag for g in self.generators]

    def even_generators(self):
        return [g for g in self.generators if g.parity == 0]

    def odd_generators(self):
        return [g for g in self.generators if g.parity == 1]

    def entry_table(self):
        """Each generator's entries as ``{slot: q}``, in generator order.
        The read-off and ``closure_check`` work on these 5-tuples."""
        return tuple(g.entries for g in self.generators)

    def read_off(self, entries):
        """The coefficients of a matrix given by its nonzero entries as
        ``{slot: q}``: ``(generator index, q)`` pairs in generator order,
        or None when the matrix is not in the span.

        The supports are disjoint, so (sum_i c_i g_i)[s] is c_o g_o[s] for
        the one owner o of slot s, and each entry is checked once against
        its owner: an unowned slot fails; an entry on the owner's primary
        slot, which must hold 1 there, is the owner's coefficient c_o; any
        other entry must be c_o g_o[s], with c_o read at the owner's
        primary slot.  The owners' supports must then cover the entries
        exactly, which their summed sizes decide, so the read-off is a
        sound span test and builds no combination.  No entry dict holds a
        zero (polynomial terms, the brackets of ``closure_check`` and
        ``odd_self_bracket``, the generator tables and the witness
        components never store one).
        """
        owners, gens = self.owners, self.generators
        coeffs, covered = [], 0
        for slot, c in entries.items():
            owner = owners.get(slot)
            if owner is None:
                return None
            i, v = owner
            g = gens[i]
            if slot == g.primary:
                if v != Q_ONE:
                    return None
                coeffs.append((i, c))
                covered += len(g.entries)
                continue
            lead = entries.get(g.primary)
            if lead is None or c != (lead if v == Q_ONE else
                                     q_neg(lead) if v == Q_MINUS_ONE else
                                     q_mul(lead, v)):
                return None
        if covered != len(entries):
            return None
        if len(coeffs) > 1:
            coeffs.sort()
        return coeffs


def components(m):
    """The Grassmann components of ``m``: one constant matrix, as its
    nonzero entries ``{slot: q}``, per monomial key of the entries, as
    ``{monomial key: {slot: q}}``.  A numeric matrix has at most the one
    component ``CONSTANT``, the key ``((), ())``."""
    parts = {}
    for slot, v in m.entries.items():
        for key, q in v.terms.items():
            parts.setdefault(key, {})[slot] = q
    return parts


def constant_entries(m, what="matrix"):
    """The entries ``{slot: q}`` of a constant matrix ``m``; raises
    ValueError, naming ``what``, when an entry is not a constant."""
    parts = components(m)
    if parts.keys() - {CONSTANT}:
        raise ValueError(f"{what} has non-constant entries")
    return parts.get(CONSTANT, {})


def entry_lines(entries, by_column=False):
    """The entries ``{slot: q}`` of a constant matrix by row, as ``{row:
    [(column, q)]}``, or by column, as ``{column: [(row, q)]}``."""
    lines = {}
    for (i, j), q in entries.items():
        if by_column:
            i, j = j, i
        lines.setdefault(i, []).append((j, q))
    return lines


# ---------------------------------------------------------------------------
# Gram forms
# ---------------------------------------------------------------------------


#: The slots of the ``basis`` and ``gram_form`` caches, enough to hold
#: every basis of a run: the ``structure`` benchmark deck asks for 32
#: distinct bases, ``fields`` for 6, ``witness-weights`` for 5 and the
#: default ``verify`` for 10.  All 32 ``structure`` bases take 0.92 MB
#: as entry tables (tracemalloc), against 1.97 MB with their matrices.
CACHE_SIZE = 64


def _check_sizes(flavor, a, b):
    if a < 0 or b < 0 or (a == 0 and b == 0):
        raise ValueError(f"invalid sizes ({a}, {b}) for flavor {flavor!r}")


def _shape(flavor, a, b):
    if flavor == "odd":
        return BlockShape(2 * a + 1, 2 * b)
    if flavor == "even":
        return BlockShape(2 * a, 2 * b)
    if flavor == "primed":
        return BlockShape(a, 2 * b)
    if flavor == "gl":
        return BlockShape(a, b)
    raise ValueError(f"unknown flavor {flavor!r}")


@functools.lru_cache(maxsize=CACHE_SIZE)
def gram_form(flavor, a, b):
    """The Gram matrix of the defining form for the given flavor and sizes,
    written as its signed permutation: the even halves of size h swap,
    the indices 2h..p-1 (a middle one, or all of the primed identity) stay,
    and the odd halves swap with sign +1 then -1.

    Parameters mean (m, n) for ``odd``, (k, l) for ``even`` and (t, l) for
    ``primed`` where t is the full even size 2k-1 or 2k.  Memoised in
    CACHE_SIZE slots like ``basis``, whose forms these are.
    """
    _check_sizes(flavor, a, b)
    shape = _shape(flavor, a, b)
    if flavor == "gl":
        raise ValueError(f"no gram form for flavor {flavor!r}")
    p = shape.even
    h = 0 if flavor == "primed" else a
    perm = (*range(h, 2 * h), *range(h), *range(2 * h, p),
            *range(p + b, p + 2 * b), *range(p, p + b))
    sign = (1,) * (p + b) + (-1,) * b
    inverse = tuple(sorted(range(len(perm)), key=perm.__getitem__))
    mat = SuperMatrix.build(
        shape, shape, {(x, y): g for x, (y, g) in enumerate(zip(perm, sign))})
    return GramForm(shape, mat, perm, inverse, sign)


def membership_residual(m, gram):
    """M^ST G + G M as a matrix, in O(nnz M): M is a member exactly when
    the result has no entries.  G is numeric, so the residual is
    assembled from the ``entry_residual`` of each Grassmann component of
    M (``components``), with no supertranspose and no product.  Raises
    ValueError when the shape of M is not the Gram's, and ParityError, as
    the supertranspose would, when M is not parity-homogeneous."""
    shape = gram.shape
    if m.rows != shape or m.cols != shape:
        raise ValueError("matrix shape does not match the gram form")
    if m.parity not in (0, 1):
        raise ParityError("supertranspose needs a parity-homogeneous matrix")
    acc = {}
    for key, part in components(m).items():
        for slot, q in entry_residual(part, gram).items():
            acc.setdefault(slot, {})[key] = q
    return SuperMatrix.from_terms(shape, shape, m.ctx, m.parity, acc)


def entry_residual(entries, gram):
    """M^ST G + G M of a constant matrix M given as its nonzero entries
    ``{slot: q}``, read off the Gram's signed permutation (see the module
    doc): each entry lands at two slots with a sign, so the work is
    O(nnz M), with no supertranspose and no matrix product.  Returns the
    nonzero entries as ``{slot: q}``."""
    acc = {}
    inverse, signs = gram.inverse, gram.sign
    for (r, c), u in entries.items():
        x = inverse[r]
        slot, sign = gram.partner(r, c)
        for out, s in (((x, c), signs[x]), (slot, sign)):
            v = u if s > 0 else q_neg(u)
            prev = acc.get(out)
            acc[out] = v if prev is None else q_add(prev, v)
    return {slot: q for slot, q in acc.items() if q != Q_ZERO}


# ---------------------------------------------------------------------------
# Basis enumeration
# ---------------------------------------------------------------------------

#: The symplectic block families, shared by both slot namings.
_SP_FAMILIES = (
    ("B11", "c1", "c1", "full"),
    ("B12", "c1", "c2", "upper"),
    ("B21", "c2", "c1", "upper"),
)

#: One row per free block family: tag, row block, column block, index
#: range.  The rows are in generator order, every even family first.
_FAMILIES = {
    "original": (
        ("A11", "b1", "b1", "full"),
        ("A12", "b1", "b2", "strict"),
        ("A21", "b2", "b1", "strict"),
        ("G1", "b1", "b3", "vec"),
        ("G2", "b2", "b3", "vec"),
        *_SP_FAMILIES,
        ("C11", "b1", "c1", "full"),
        ("C12", "b1", "c2", "full"),
        ("C21", "b2", "c1", "full"),
        ("C22", "b2", "c2", "full"),
        ("G3", "b3", "c1", "vec"),
        ("G4", "b3", "c2", "vec"),
    ),
    "primed": (
        ("A11", "b2", "b1", "full"),
        ("A12", "b2", "b2", "strict"),
        ("A21", "b1", "b1", "strict"),
        ("G1", "b2", "b3", "vec"),
        ("G2", "b1", "b3", "vec"),
        *_SP_FAMILIES,
        ("C11", "b2", "c1", "full"),
        ("C12", "b2", "c2", "full"),
        ("C21", "b1", "c1", "full"),
        ("C22", "b1", "c2", "full"),
        ("G3", "c1", "b3", "vec"),
        ("G4", "b3", "c1", "vec"),
    ),
}


def _index_range(kind, rows, cols, along_cols):
    """((i, j), label) for every free entry of one family's block."""
    if kind == "vec":
        if along_cols:
            return [((0, j), f"{j + 1}") for j in range(cols)]
        return [((i, 0), f"{i + 1}") for i in range(rows)]
    start = {"full": lambda i: 0, "strict": lambda i: i + 1,
             "upper": lambda i: i}[kind]
    return [((i, j), f"{i + 1},{j + 1}")
            for i in range(rows) for j in range(start(i), cols)]


def _family_specs(naming, gram):
    """(tag, parity, entries ``{slot: q}``, primary slot) of every
    family-table entry, with the forced entry read off the Gram form (see
    the module doc)."""
    p, q = gram.shape.even, gram.shape.odd
    h, n = p // 2, q // 2
    blocks = {"b1": (0, h), "b2": (h, h), "c1": (p, n), "c2": (p + n, n)}
    if p % 2:
        blocks["b3"] = (2 * h, 1)
    perm = gram.perm
    specs = []
    for tag, row, col, kind in _FAMILIES[naming]:
        if row not in blocks or col not in blocks:
            continue
        (r0, nr), (c0, nc) = blocks[row], blocks[col]
        parity = int(row[0] == "c") ^ int(col[0] == "c")
        for (i, j), label in _index_range(kind, nr, nc, row == "b3"):
            r, c = r0 + i, c0 + j
            entries = {(r, c): Q_ONE}
            forced = (perm[c], perm[r])
            if forced != (r, c):
                # (r, c) lands at (c, pi(r)) in M^ST G; the forced entry
                # cancels it there through G M, where it is weighted g_c.
                _, sign = gram.partner(r, c)
                entries[forced] = Q_MINUS_ONE if sign * gram.sign[c] > 0 \
                    else Q_ONE
            specs.append((f"{tag}:{label}", parity, entries, (r, c)))
    return specs


def _gl_specs(shape):
    """One unit matrix per slot of gl(p|q), the even slots first."""
    p, n = shape.even, shape.total
    return [(f"E:{i + 1},{j + 1}", parity, {(i, j): Q_ONE}, (i, j))
            for parity in (0, 1) for i in range(n) for j in range(n)
            if (i >= p) ^ (j >= p) == parity]


@functools.lru_cache(maxsize=CACHE_SIZE)
def basis(flavor, a, b):
    """Canonical generators, one per free block entry, all verified members.

    Memoised, with ``gram_form``, in CACHE_SIZE slots, enough for every
    basis one run asks for (see ``CACHE_SIZE``).  Callers share the
    result, so its ``generators`` is a tuple and nothing mutates a table.

    Each generator is born as its entry table ``{slot: q}``, which is the
    only form it stores: every slot's parity must be the family's
    (ParityError otherwise), and its ``entry_residual`` must be empty
    (AssertionError otherwise).  Its matrix is built from the table, with
    the family's parity, only when something reads ``Generator.matrix``.
    """
    _check_sizes(flavor, a, b)
    shape = _shape(flavor, a, b)
    if flavor == "gl":
        gram, specs = None, _gl_specs(shape)
    else:
        gram = gram_form(flavor, a, b)
        specs = _family_specs("primed" if flavor == "primed" else "original",
                              gram)
    p = shape.even
    gens = []
    for tag, parity, entries, primary in specs:
        if any((i >= p) ^ (j >= p) != parity for i, j in entries):
            raise ParityError(f"generator {tag}: declared parity {parity}"
                              " contradicts its slots")
        if gram is not None and entry_residual(entries, gram):
            raise AssertionError(f"generator {tag} fails the defining equation")
        gens.append(Generator(tag, parity, entries, primary, shape))
    return OspBasis(gram, gens)


def dimension_counts(flavor, a, b):
    """(even, odd) dimensions by the block-parameter count."""
    if flavor == "odd":
        m, n = a, b
        return m * (2 * m + 1) + n * (2 * n + 1), 2 * n * (2 * m + 1)
    if flavor == "even":
        k, n = a, b
        return k * (2 * k - 1) + n * (2 * n + 1), 2 * n * (2 * k)
    if flavor == "primed":
        t, n = a, b
        return t * (t - 1) // 2 + n * (2 * n + 1), 2 * n * t
    if flavor == "gl":
        return a * a + b * b, 2 * a * b
    raise ValueError(f"unknown flavor {flavor!r}")


# ---------------------------------------------------------------------------
# Closure and center
# ---------------------------------------------------------------------------


def closure_check(bas):
    """Superbracket every generator pair and re-expand in the basis.

    Returns the ``BracketTable`` of the structure constants
    ``(tag_p, tag_q, tag_r, q)`` and the failed pairs; its two-way view is
    built only when a caller reads ``table``.  For a filtered
    basis (a parabolic) a bracket landing outside the subset is a failure,
    which is exactly the subalgebra test.

    Every generator entry is a constant, so the brackets never leave
    Q(i, sqrt2).  The tables (``OspBasis.entry_table``) are indexed by row
    and by column once per call and per parity of a left factor
    (``_index``), and each generator e_p is swept once against its
    parity's index (``_sweep``), which forms [e_p, e_q] for every q >= p
    whose matrix meets e_p's.  Every other pair of the N(N+1)/2 brackets
    to zero, which expands to no constant and cannot fail, so it is never
    formed.  The partners are expanded with ``OspBasis.read_off`` in
    ascending q, so the constants come out in the order of the all-pairs
    loop.  No matrix, polynomial or FieldScalar is built per pair.
    """
    constants = []
    failures = []
    gens = bas.generators
    tags = bas.tags()
    tables, parities = bas.entry_table(), [g.parity for g in gens]
    indexes = [_index(tables, parities, odd) for odd in (0, 1)]
    for p, gp in enumerate(gens):
        # [X, X] = 0 identically for even X
        brackets = _sweep(gp.entries, *indexes[gp.parity],
                          p if gp.parity else p + 1)
        for q in sorted(brackets):
            entries = brackets[q]
            if Q_ZERO in entries.values():
                entries = {slot: c for slot, c in entries.items()
                           if c != Q_ZERO}
            found = bas.read_off(entries)
            if found is None:
                failures.append((tags[p], tags[q]))
                continue
            if len(found) > 1:
                found.sort(key=lambda rc: tags[rc[0]])
            for r, c in found:
                constants.append((tags[p], tags[q], tags[r], c))
    return BracketTable(bas, constants, failures)


def odd_self_bracket(x):
    """[X, X] = 2 X^2 for an odd constant matrix X given as its nonzero
    entries ``{slot: q}``, by ``closure_check``'s sweep with X indexed by
    row only, so it forms XX alone and doubles each entry.  Returns the
    nonzero entries."""
    rows, _ = _index((x,), (1,), 1)
    acc = _sweep(x, rows, {}, 0).get(0, {})
    return {slot: q_add(c, c) for slot, c in acc.items() if c != Q_ZERO}


def _index(tables, parities, odd):
    """The ``{slot: q}`` tables of Y_0, Y_1, ... for a left factor X of
    parity ``odd``: by row, ``{row: [(q, column, v)]}``, and by column,
    ``{column: [(q, row, w)]}`` with w the entry signed as YX is in [X,
    Y_q] = X Y_q - (-1)^{|X||Y_q|} Y_q X: v when X and Y_q are both odd,
    else -v.  Lines list q in ascending order."""
    rows, cols = {}, {}
    for q, (entries, parity) in enumerate(zip(tables, parities)):
        for (i, j), v in entries.items():
            rows.setdefault(i, []).append((q, j, v))
            cols.setdefault(j, []).append(
                (q, i, v if odd and parity else q_neg(v)))
    return rows, cols


def _sweep(entries, rows, cols, lo):
    """[X, Y_q] as ``{q: {slot: c}}`` for X given by its ``entries`` and
    each Y_q, q >= lo, of the ``_index`` lines ``rows`` and ``cols`` built
    for X's parity that meets X; a slot that cancels is kept as 0.
    Entry X[i, k] meets row k of Y_q in X Y_q and column i in Y_q X, so
    each entry of X is read once.  A factor of 1 or -1 multiplies
    nothing: generator entries are mostly units."""
    out = {}
    for (i, k), u in entries.items():
        plus, minus = u == Q_ONE, u == Q_MINUS_ONE
        for line, left in ((rows.get(k), True), (cols.get(i), False)):
            if line is None:
                continue
            for q, t, v in reversed(line):
                if q < lo:
                    break
                c = v if plus else q_neg(v) if minus else q_mul(u, v)
                acc = out.get(q)
                if acc is None:
                    acc = out[q] = {}
                slot = (i, t) if left else (t, k)
                prev = acc.get(slot)
                acc[slot] = c if prev is None else q_add(prev, c)
    return out


class BracketTable:
    """The structure constants of a basis, as ``closure_check`` returns
    them, indexed by ordered generator pair for ``jacobi_failures`` and
    ``center_from_constants``.

    ``constants`` lists closure's ``(tag_p, tag_q, tag_r, q)``, p before q
    in the basis, and ``failures`` its pairs that did not expand.
    ``index`` and ``parity`` map each tag to its position in the basis and
    its parity.  ``table`` is built on first read, so a caller that reads
    only ``failures`` builds none: both orders of every expanded pair are
    filled once, with [b, a] = -(-1)^{|a||b|} [a, b] applied once per
    constant, and a failed pair is filled as None in both orders; a pair
    that brackets to zero has no entry.
    """

    def __init__(self, bas, constants, failures):
        self.constants = constants
        self.failures = list(failures)
        self.index = {g.tag: i for i, g in enumerate(bas.generators)}
        self.parity = {g.tag: g.parity for g in bas.generators}

    @functools.cached_property
    def table(self):
        table, parity = {}, self.parity
        for p, q, r, c in self.constants:
            table.setdefault((p, q), {})[r] = c
            if p != q:
                table.setdefault((q, p), {})[r] = \
                    c if parity[p] and parity[q] else q_neg(c)
        for a, b in self.failures:
            table[(a, b)] = table[(b, a)] = None
        return table

    def of(self, a, b):
        """[a, b] as ``{tag: q}`` for any ordered pair of tags, by one
        lookup: a pair with no constant brackets to zero ({}; [x, x] = 0
        for even x among them), and a failed pair raises
        NotInSpanError."""
        coeffs = self.table.get((a, b), {})
        if coeffs is None:
            raise NotInSpanError(f"[{a}, {b}] is not in the span of the"
                                 " basis")
        return coeffs


def jacobi_failures(br, triples):
    """The tag triples (x, y, z) that break the graded Jacobi identity
    [x,[y,z]] = [[x,y],z] + (-1)^{|x||y|} [y,[x,z]], composed from the
    structure constants of the BracketTable ``br`` instead of matrix
    brackets.

    The basis is linearly independent, so the identity holds for the
    matrices exactly when it holds for the coefficient vectors.  A triple
    that needs a bracket closure could not expand (None in ``br.table``)
    fails.
    """
    bad = []
    get, parity = br.table.get, br.parity

    def compose(acc, coeffs, other, left, negate=False):
        # acc += sum_r c_r [other, e_r] ([e_r, other] if not left), with
        # -c_r if negate; False when a bracket it needs is None
        if coeffs is None:
            return False
        for r, c in coeffs.items():
            part = get((other, r) if left else (r, other), {})
            if part is None:
                return False
            add_scaled(acc, part, q_neg(c) if negate else c)
        return True

    for x, y, z in triples:
        left, right = {}, {}
        if not (compose(left, get((y, z), {}), x, True)
                and compose(right, get((x, y), {}), z, False)
                and compose(right, get((x, z), {}), y, True,
                            parity[x] and parity[y])
                and left == right):
            bad.append((x, y, z))
    return bad


def center_from_constants(bas, br):
    """Exact basis of {Z : [Z, X] = 0 for all X}, computed per parity sector
    from the structure constants of the BracketTable ``br`` of ``bas``.

    In a sector with generators g_1..g_s, Z = sum c_i g_i is central when
    sum c_i [g_i, X] = 0 for every generator X, that is, coefficient by
    coefficient of each [g_i, X] in the basis: one ad row per (X, tag).
    Each [g_i, X] is one lookup in ``br.table``, which holds only the
    nonzero brackets, and the probes X whose entry tables are diagonal
    come first: in the odd, even and gl bases such an X brackets every
    generator to a multiple of itself, so each of its rows has one entry,
    and these rows fill most of the rank.  The reduced row echelon form of
    a row space is unique, so the order of the rows changes neither the
    nullspace nor the center.  Each nullspace vector scales the
    generators' entry tables.  Raises NotInSpanError when closure could
    not expand some bracket, whichever bracket that is.
    """
    if br.failures:
        a, b = br.failures[0]
        raise NotInSpanError(f"[{a}, {b}] is not in the span of the basis")
    gens, table = bas.generators, bas.entry_table()
    probes = sorted(range(len(gens)),
                    key=lambda x: any(i != j for i, j in table[x]))
    out = []
    for parity in (0, 1):
        sector = [i for i, g in enumerate(gens) if g.parity == parity]
        if not sector:
            continue
        tags = [gens[i].tag for i in sector]
        tracker = RankTracker(len(sector))
        for probe in probes:
            x, rows = gens[probe].tag, {}
            for k, a in enumerate(tags):
                coeffs = br.table.get((a, x))
                if coeffs:
                    for tag, c in coeffs.items():
                        rows.setdefault(tag, {})[k] = c
            for tag in sorted(rows, key=br.index.__getitem__):
                tracker.add(rows[tag])
                if tracker.is_full():
                    break
            if tracker.is_full():
                break
        shape = gens[sector[0]].shape
        for vec in tracker.nullspace():
            acc = {}
            for k, q in vec.items():
                add_scaled(acc, table[sector[k]], q)
            out.append(SuperMatrix.from_terms(
                shape, shape, NUMERIC_CTX, parity,
                {slot: {CONSTANT: q} for slot, q in acc.items()}))
    return out


# ---------------------------------------------------------------------------
# Basis change, embedding, parabolics
# ---------------------------------------------------------------------------


def basis_change_S(flavor, k1, l1):
    """The sqrt2/i block matrix S with S^ST @ Gram @ S = primed Gram.

    ``flavor`` selects the source algebra: "odd" for osp(2k1-1|2l1) (the
    even part of S has a middle 1), "even" for osp(2k1|2l1).
    """
    if flavor == "odd":
        s = k1 - 1
        shape = _shape("odd", s, l1)
        middle = True
    elif flavor == "even":
        s = k1
        shape = _shape("even", s, l1)
        middle = False
    else:
        raise ValueError("flavor must be 'odd' or 'even'")
    entries = {}
    for i in range(s):
        entries[(i, i)] = INV_SQRT2
        entries[(i, s + i)] = I_INV_SQRT2
        entries[(s + i, i)] = INV_SQRT2
        entries[(s + i, s + i)] = -I_INV_SQRT2
    if middle:
        entries[(2 * s, 2 * s)] = ONE
    p = shape.even
    for j in range(2 * l1):
        entries[(p + j, p + j)] = ONE
    return SuperMatrix.build(shape, shape, entries)


def conjugate_entries(entries, s_rows, s_inv_cols):
    """S^-1 M S of a constant matrix M given as its nonzero entries
    ``{slot: q}``, with S by row and S^-1 by column (``entry_lines``):
    entry M[i, j] meets only column i of S^-1 and row j of S.  Returns the
    nonzero entries as ``{slot: q}``; it maps members of osp(Gram) to
    members of osp(primed Gram) when S is ``basis_change_S``."""
    acc = {}
    for (i, j), u in entries.items():
        for a, x in s_inv_cols.get(i, ()):
            ux = q_mul(x, u)
            for b, y in s_rows.get(j, ()):
                c = q_mul(ux, y)
                prev = acc.get((a, b))
                acc[(a, b)] = c if prev is None else q_add(prev, c)
    return {slot: c for slot, c in acc.items() if c != Q_ZERO}


def border_matrix(k1, l1):
    """The even (2k1|2l1) x (2k1-1|2l1) matrix P with P[i+1, i] = 1.

    j(X) = P X P^T borders a primed osp(2k1-1|2l1) matrix X with a zero
    first row and column: on the supergroup the map is X -> diag(1, X).
    """
    source, target = _shape("primed", 2 * k1 - 1, l1), \
        _shape("primed", 2 * k1, l1)
    return SuperMatrix.build(target, source,
                             {(i + 1, i): ONE for i in range(source.total)})


#: Free block families of the base-point stabilizer patterns p and p1 in
#: the primed slot names: the shape that the zero-bordering embedding maps
#: into itself (excluded families land on excluded slots), which makes
#: d j(p) subset-of p1 a slot-by-slot statement.  The pattern is *not*
#: bracket-closed as a literal subspace (for instance [A11, G2] = G1
#: there); the bracket-closed stabilizer of the base flag in the odd/even
#: flavors is the tests' reference in ``tests/oracles.py``.
PARABOLIC_TAGS = {
    "p": {"A21", "A11", "G2", "C21", "C22", "C11", "G4", "B11", "B21"},
    "p1": {"A21", "A11", "C21", "C22", "C11", "B11", "B21"},
}
