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
middle one).  Blocks are the parts of the Gram shape: even parts b1, b2 and
the one-wide middle block b3 (present only when there are three even
parts), odd parts c1, c2; the three symplectic B rows are shared by both tables.  A
generator has +1 at its primary slot (r, c) and one forced entry that the
Gram form fixes: every Gram here is a signed permutation g_x e(x, pi(x)),
so the defining equation puts -sigma g_r g_c at (pi(c), pi(r)), where
sigma = -1 on the even-row/odd-column slots that the supertranspose
negates.  When that slot is (r, c) itself there is no second entry.

The same permutation gives the membership residual M^ST G + G M without a
product: entry M[r, c] adds g_x M[r, c] at (x, c), x = pi^-1(r), through
G M, and sigma g_r M[r, c] at its partner slot (c, pi(r)) through M^ST G.
``GramForm.partner`` holds the sigma rule for both uses.  ``is_member``
reads that residual as term dicts and builds no matrix;
``membership_residual`` builds it from the same dicts.

Every generator entry is a constant, so structure constants are computed
on the normalised 5-tuples of ``scalars`` (``q``): a basis reads its
generators as ``{slot: q}`` on first use (``OspBasis.entry_table``),
``closure_check`` brackets on those tables, ``OspBasis.read_off`` expands
a bracket or a candidate matrix, and the Jacobi and center checks compose
and reduce tuple rows.  FieldScalar appears only in what they hand out:
the structure constants, the coefficients and the center matrices.  The
matrix-bracket Jacobi identity and the odd/even stabilizer of the base
flag, which the tests compare these with, live in ``tests/oracles.py``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .linalg import RankTracker, add_scaled
from .matrices import BlockShape, ParityError, SuperMatrix
from .ring import add_terms
from .scalars import I_INV_SQRT2, INV_SQRT2, ONE, Q_ONE, Q_ZERO, \
    FieldScalar, q_add, q_mul, q_neg

#: The monomial key of a constant term.
_CONSTANT = ((), ())


class NotInSpanError(ValueError):
    """A matrix failed to expand exactly in the requested basis."""


@dataclass(frozen=True)
class GramForm:
    """A Gram matrix g_x e(x, pi(x)): ``perm`` is pi, ``inverse`` its
    inverse and ``sign`` the g_x as +1 or -1, one per row."""

    flavor: str
    sizes: tuple
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
    tag: str
    parity: int
    matrix: SuperMatrix
    primary: tuple


@dataclass
class OspBasis:
    flavor: str
    sizes: tuple
    gram: GramForm
    generators: tuple
    name: str = "osp"
    _by_tag: dict = field(default_factory=dict, repr=False)
    _by_primary: dict = field(default_factory=dict, repr=False)
    _table: tuple = field(default=None, repr=False)

    def __post_init__(self):
        self.generators = tuple(self.generators)
        self._by_tag = {g.tag: g for g in self.generators}
        self._by_primary = {g.primary: i
                            for i, g in enumerate(self.generators)}

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
        """Each generator's entries as ``{slot: q}``, read on first use:
        the read-off and ``closure_check`` work on these 5-tuples, and a
        basis that expands nothing never builds them."""
        if self._table is None:
            table = []
            for g in self.generators:
                entries, others = _constant_entries(g.matrix)
                if others:
                    raise ValueError(f"generator {g.tag} has non-constant"
                                     " entries")
                table.append(entries)
            self._table = tuple(table)
        return self._table

    def coefficients_of(self, m):
        """Expand ``m`` exactly in this basis, or raise NotInSpanError."""
        entries, others = _constant_entries(m)
        bad = sorted(self._by_primary[slot] for slot in others
                     if slot in self._by_primary)
        if bad:
            raise NotInSpanError(f"slot {self.generators[bad[0]].primary}"
                                 " of the candidate is not scalar")
        found = None if others else self.read_off(entries)
        if found is None:
            raise NotInSpanError("matrix is not in the span of the basis")
        return {self.generators[i].tag: FieldScalar.from_q(c)
                for i, c in found}

    def read_off(self, entries):
        """The coefficients of a matrix given by its nonzero entries as
        ``{slot: q}``: ``(generator index, q)`` pairs in generator order,
        or None when the matrix is not in the span.

        Each generator owns a distinct +1 "primary" slot that no other
        generator touches, so the candidate coefficients are the entries on
        primary slots: only the nonzero entries are visited.  The
        combination is re-assembled slot by slot and compared with the
        entries, which makes the read-off a sound span test.
        """
        table = self.entry_table()
        coeffs = [(i, entries[self.generators[i].primary])
                  for i in sorted(self._by_primary[slot] for slot in entries
                                  if slot in self._by_primary)]
        acc = {}
        for i, c in coeffs:
            for slot, v in table[i].items():
                v = q_mul(c, v)
                prev = acc.get(slot)
                acc[slot] = v if prev is None else q_add(prev, v)
        if any(entries.get(slot, Q_ZERO) != v for slot, v in acc.items()) \
                or not entries.keys() <= acc.keys():
            return None
        return coeffs


def _constant_entries(m):
    """``(constants, others)``: the nonzero constant entries of ``m`` as
    ``{slot: q}``, and the slots of the entries that are not constant."""
    constants, others = {}, []
    for slot, v in m.entries.items():
        terms = v.terms
        if len(terms) == 1 and _CONSTANT in terms:
            constants[slot] = terms[_CONSTANT]
        elif terms:
            others.append(slot)
    return constants, others


def _linear_combination(terms):
    """The sum of ``matrix * c`` over ``(c, matrix)`` pairs; None if empty."""
    acc = None
    for c, mat in terms:
        scaled = mat * c
        acc = scaled if acc is None else acc + scaled
    return acc


# ---------------------------------------------------------------------------
# Gram forms
# ---------------------------------------------------------------------------


def _check_sizes(flavor, a, b):
    if a < 0 or b < 0 or (a == 0 and b == 0):
        raise ValueError(f"invalid sizes ({a}, {b}) for flavor {flavor!r}")


def _shape(flavor, a, b):
    if flavor == "odd":
        return BlockShape(2 * a + 1, 2 * b, (a, a, 1), (b, b))
    if flavor == "even":
        return BlockShape(2 * a, 2 * b, (a, a), (b, b))
    if flavor == "primed":
        t = a
        if t % 2:
            k = (t + 1) // 2
            return BlockShape(t, 2 * b, (k - 1, k - 1, 1), (b, b))
        k = t // 2
        return BlockShape(t, 2 * b, (k, k), (b, b))
    if flavor == "gl":
        return BlockShape(a, b)
    raise ValueError(f"unknown flavor {flavor!r}")


@functools.lru_cache(maxsize=4)
def gram_form(flavor, a, b):
    """The Gram matrix of the defining form for the given flavor and sizes,
    with its signed permutation read off once for ``membership_residual``
    and the generators' forced entries.

    Parameters mean (m, n) for ``odd``, (k, l) for ``even`` and (t, l) for
    ``primed`` where t is the full even size 2k-1 or 2k.  Memoised like
    ``basis``, whose forms these are; ``embed_j`` and ``j_image_contains``
    ask for them on every call.
    """
    _check_sizes(flavor, a, b)
    shape = _shape(flavor, a, b)
    entries = {}
    p = shape.even
    if flavor == "odd":
        for i in range(a):
            entries[(i, a + i)] = 1
            entries[(a + i, i)] = 1
        entries[(2 * a, 2 * a)] = 1
    elif flavor == "even":
        for i in range(a):
            entries[(i, a + i)] = 1
            entries[(a + i, i)] = 1
    elif flavor == "primed":
        for i in range(p):
            entries[(i, i)] = 1
    else:
        raise ValueError(f"no gram form for flavor {flavor!r}")
    for j in range(b):
        entries[(p + j, p + b + j)] = 1
        entries[(p + b + j, p + j)] = -1
    mat = SuperMatrix.build(shape, shape, entries)
    perm = tuple(y for _, y in sorted(entries))
    inverse = tuple(x for _, x in sorted((y, x) for x, y in entries))
    sign = tuple(entries[(x, y)] for x, y in enumerate(perm))
    return GramForm(flavor, (a, b), shape, mat, perm, inverse, sign)


def is_member(m, gram):
    """Exact test of the defining equation M^ST G + G M = 0, in O(nnz M):
    the residual's term dicts (``_residual_terms``) must all be empty, and
    no matrix is built."""
    return not any(_residual_terms(m, gram).values())


def membership_residual(m, gram):
    """M^ST G + G M as a matrix, from the same term dicts as
    ``is_member``.

    Raises ParityError, as the supertranspose would, when M is not
    parity-homogeneous.
    """
    return SuperMatrix.from_terms(gram.shape, gram.shape, m.ctx, m.parity,
                                  _residual_terms(m, gram))


def _residual_terms(m, gram):
    """M^ST G + G M as ``{slot: term dict}``, read off the Gram's signed
    permutation (see the module doc): each entry of M lands at two slots
    with a sign, so the work is O(nnz M), with no supertranspose and no
    matrix product.  A slot whose contributions cancel holds an empty
    dict."""
    shape = gram.shape
    if not (m.rows.compatible(shape) and m.cols.compatible(shape)):
        raise ValueError("matrix shape does not match the gram form")
    if m.parity not in (0, 1):
        raise ParityError("supertranspose needs a parity-homogeneous matrix")
    acc = {}
    for (r, c), v in m.entries.items():
        x = gram.inverse[r]
        slot, sign = gram.partner(r, c)
        for out, s in (((x, c), gram.sign[x]), (slot, sign)):
            terms = acc.get(out)
            if terms is None:
                terms = acc[out] = {}
            add_terms(terms, v.terms, s < 0)
    return acc


# ---------------------------------------------------------------------------
# Basis enumeration
# ---------------------------------------------------------------------------

#: The symplectic block families, shared by both slot namings.
_SP_FAMILIES = (
    ("B11", "c1", "c1", "full"),
    ("B12", "c1", "c2", "upper"),
    ("B21", "c2", "c1", "upper"),
)

#: One row per free block family: tag, row block, column block, index range.
_FAMILIES = {
    "original": (
        ("A11", "b1", "b1", "full"),
        ("A12", "b1", "b2", "strict"),
        ("A21", "b2", "b1", "strict"),
        ("G1", "b1", "b3", "vec"),
        ("G2", "b2", "b3", "vec"),
        ("C11", "b1", "c1", "full"),
        ("C12", "b1", "c2", "full"),
        ("C21", "b2", "c1", "full"),
        ("C22", "b2", "c2", "full"),
        ("G3", "b3", "c1", "vec"),
        ("G4", "b3", "c2", "vec"),
    ) + _SP_FAMILIES,
    "primed": (
        ("A21", "b1", "b1", "strict"),
        ("A12", "b2", "b2", "strict"),
        ("A11", "b2", "b1", "full"),
        ("G2", "b1", "b3", "vec"),
        ("G1", "b2", "b3", "vec"),
        ("C21", "b1", "c1", "full"),
        ("C11", "b2", "c1", "full"),
        ("C22", "b1", "c2", "full"),
        ("C12", "b2", "c2", "full"),
        ("G4", "b3", "c1", "vec"),
        ("G3", "c1", "b3", "vec"),
    ) + _SP_FAMILIES,
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
    """(tag, parity, entries, primary slot) of every family-table entry,
    with the forced entry read off the Gram form (see the module doc)."""
    shape = gram.shape
    names = ("b1", "b2", "b3", "c1", "c2") if len(shape.even_parts) == 3 \
        else ("b1", "b2", "c1", "c2")
    blocks = {name: (lo, hi - lo)
              for name, (lo, hi) in zip(names, shape.part_ranges())}
    perm = gram.perm
    specs = []
    for tag, row, col, kind in _FAMILIES[naming]:
        if row not in blocks or col not in blocks:
            continue
        (r0, nr), (c0, nc) = blocks[row], blocks[col]
        parity = int(row[0] == "c") ^ int(col[0] == "c")
        for (i, j), label in _index_range(kind, nr, nc, row == "b3"):
            r, c = r0 + i, c0 + j
            entries = {(r, c): ONE}
            forced = (perm[c], perm[r])
            if forced != (r, c):
                # (r, c) lands at (c, pi(r)) in M^ST G; the forced entry
                # cancels it there through G M, where it is weighted g_c.
                _, sign = gram.partner(r, c)
                entries[forced] = -ONE if sign * gram.sign[c] > 0 else ONE
            specs.append((f"{tag}:{label}", parity, entries, (r, c)))
    return specs


def _gl_specs(shape):
    p = shape.even
    return [(f"E:{i + 1},{j + 1}", int(i >= p) ^ int(j >= p), {(i, j): ONE},
             (i, j))
            for i in range(shape.total) for j in range(shape.total)]


_BLOCK_ORDER = ["A11", "A12", "A21", "G1", "G2", "B11", "B12", "B21",
                "C11", "C12", "C21", "C22", "G3", "G4", "E"]


def _tag_sort_key(item):
    tag = item[0]
    block, _, indices = tag.partition(":")
    nums = tuple(int(x) for x in indices.split(",")) if indices else ()
    return (item[1], _BLOCK_ORDER.index(block), nums)


@functools.lru_cache(maxsize=4)
def basis(flavor, a, b):
    """Canonical generators, one per free block entry, all verified members.

    Memoised for the four bases one suite run asks for (the isomorphism
    suite's odd, even and two primed ones); an unbounded cache would keep
    every basis a long-running process ever built.  Callers share the
    result, so its ``generators`` is a tuple and nothing mutates a matrix.
    Each matrix is built with its spec's parity, which ``build`` checks
    against the entries, and then asserted a member.
    """
    _check_sizes(flavor, a, b)
    shape = _shape(flavor, a, b)
    if flavor == "gl":
        gram, specs = None, _gl_specs(shape)
    else:
        gram = gram_form(flavor, a, b)
        specs = _family_specs("primed" if flavor == "primed" else "original",
                              gram)
    specs.sort(key=_tag_sort_key)
    gens = []
    for tag, parity, entries, primary in specs:
        mat = SuperMatrix.build(shape, shape, entries, parity=parity)
        if gram is not None and not is_member(mat, gram):
            raise AssertionError(f"generator {tag} fails the defining equation")
        gens.append(Generator(tag, parity, mat, primary))
    return OspBasis(flavor, (a, b), gram, gens)


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

    Returns a report dict with the sparse structure constants
    ``(tag_p, tag_q, tag_r, coefficient)`` and any failures.  For a filtered
    basis (a parabolic) a bracket landing outside the subset is a failure,
    which is exactly the subalgebra test.

    Only the pairs whose matrices meet are bracketed: XY = 0 unless a
    column of X is a row of Y, and YX = 0 unless a row of X is a column of
    Y.  Every other pair brackets to zero, which expands to no constant and
    cannot fail, so it is skipped; ``pairs`` still counts all N(N+1)/2.
    The candidates of each p are walked in ascending q, so the constants
    come out in the order of the all-pairs loop.

    Every generator entry is a constant, so the brackets never leave
    Q(i, sqrt2): each generator is read once per call as ``{slot: q}``
    (``OspBasis.entry_table``) with a row index, ``bracket_entries`` forms
    each meeting pair's bracket from those tables and ``OspBasis.read_off``
    expands it.  No matrix or polynomial is built per pair, and only the
    reported constants become FieldScalars.
    """
    constants = []
    failures = []
    gens = bas.generators
    tables = []
    by_row, by_col = {}, {}
    for q, entries in enumerate(bas.entry_table()):
        rows = {}
        for (i, j), v in entries.items():
            rows.setdefault(i, []).append((j, v))
            by_row.setdefault(i, set()).add(q)
            by_col.setdefault(j, set()).add(q)
        tables.append((entries, rows))
    for p, gp in enumerate(gens):
        meets = set()
        for i, j in tables[p][0]:
            meets.update(by_row.get(j, ()))
            meets.update(by_col.get(i, ()))
        for q in sorted(meets):
            if q < p or (q == p and gp.parity == 0):
                continue  # [X, X] = 0 identically for even X
            gq = gens[q]
            found = bas.read_off(bracket_entries(
                tables[p], tables[q], gp.parity and gq.parity))
            if found is None:
                failures.append((gp.tag, gq.tag))
                continue
            for tag, c in sorted((gens[r].tag, c) for r, c in found):
                constants.append((gp.tag, gq.tag, tag, FieldScalar.from_q(c)))
    return {
        "pairs": len(gens) * (len(gens) + 1) // 2,
        "structure_constants": constants,
        "failures": failures,
    }


def bracket_entries(x, y, both_odd):
    """The superbracket [X, Y] = XY - (-1)^{|X||Y|} YX of two constant
    matrices, each given as ``(entries, rows)``: its ``{slot: q}`` entries
    and a map from row to ``(column, q)`` pairs.  Returns the nonzero
    entries as ``{slot: q}``; YX is added when ``both_odd``, else
    subtracted."""
    acc = {}
    for (left, _), (_, right), negate in ((x, y, False),
                                          (y, x, not both_odd)):
        for (i, k), u in left.items():
            if negate:
                u = q_neg(u)
            for j, v in right.get(k, ()):
                c = q_mul(u, v)
                prev = acc.get((i, j))
                acc[(i, j)] = c if prev is None else q_add(prev, c)
    return {slot: c for slot, c in acc.items() if c != Q_ZERO}


class _BracketTable:
    """closure_check's structure constants indexed by generator pair.

    ``of(a, b)`` is [a, b] as ``{tag: q}`` for any ordered pair of tags,
    using [b, a] = -(-1)^{|a||b|} [a, b] for the pairs that closure_check
    expanded the other way round and [x, x] = 0 for even x; it raises
    NotInSpanError when closure could not expand the bracket.
    """

    def __init__(self, bas, closure):
        self.index = {g.tag: i for i, g in enumerate(bas.generators)}
        self.parity = {g.tag: g.parity for g in bas.generators}
        self.failed = set(closure["failures"])
        self.table = {}
        for p, q, r, c in closure["structure_constants"]:
            self.table.setdefault((p, q), {})[r] = c.q

    def of(self, a, b):
        if self.index[a] > self.index[b]:
            coeffs = self.of(b, a)
            if self.parity[a] and self.parity[b]:
                return coeffs
            return {r: q_neg(c) for r, c in coeffs.items()}
        if (a, b) in self.failed:
            raise NotInSpanError(f"[{a}, {b}] is not in the span of the"
                                 " basis")
        return self.table.get((a, b), {})

    def compose(self, coeffs, other, left):
        """[sum_r c_r e_r, other] if ``left``, else [other, sum_r c_r e_r]."""
        acc = {}
        for r, c in coeffs.items():
            add_scaled(acc, self.of(r, other) if left else self.of(other, r),
                       c)
        return acc


def jacobi_failures(bas, closure, triples):
    """The tag triples (x, y, z) that break the graded Jacobi identity
    [x,[y,z]] = [[x,y],z] + (-1)^{|x||y|} [y,[x,z]], composed from
    closure_check's structure constants instead of matrix brackets.

    The basis is linearly independent, so the identity holds for the
    matrices exactly when it holds for the coefficient vectors.  A triple
    that needs a bracket closure could not expand fails.
    """
    br = _BracketTable(bas, closure)
    bad = []
    for x, y, z in triples:
        try:
            left = br.compose(br.of(y, z), x, left=False)
            right = br.compose(br.of(x, y), z, left=True)
            tail = br.compose(br.of(x, z), y, left=False)
        except NotInSpanError:
            bad.append((x, y, z))
            continue
        add_scaled(right, tail, q_neg(Q_ONE) if br.parity[x] and br.parity[y]
                   else Q_ONE)
        if left != right:
            bad.append((x, y, z))
    return bad


def center_from_constants(bas, closure):
    """Exact basis of {Z : [Z, X] = 0 for all X}, computed per parity sector
    from closure_check's structure constants.

    In a sector with generators g_1..g_s, Z = sum c_i g_i is central when
    sum c_i [g_i, X] = 0 for every generator X, that is, coefficient by
    coefficient of each [g_i, X] in the basis: one ad row per (X, tag).
    Raises NotInSpanError when closure could not expand a bracket.
    """
    br = _BracketTable(bas, closure)
    out = []
    for parity in (0, 1):
        sector = [g for g in bas.generators if g.parity == parity]
        if not sector:
            continue
        tracker = RankTracker(len(sector))
        for probe in bas.generators:
            rows = {}
            for i, g in enumerate(sector):
                for tag, c in br.of(g.tag, probe.tag).items():
                    rows.setdefault(tag, {})[i] = c
            for tag in sorted(rows, key=br.index.__getitem__):
                tracker.add(rows[tag])
                if tracker.is_full():
                    break
            if tracker.is_full():
                break
        for vec in tracker.nullspace():
            acc = _linear_combination(
                (c, g.matrix) for c, g in zip(vec, sector) if c)
            if acc is not None:
                out.append(acc)
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


def conjugate(m, s, s_inv):
    """S^{-1} M S; maps members of osp(Gram) to members of osp(primed Gram)."""
    return s_inv @ m @ s


def embed_j(x):
    """Border a primed osp(2k1-1|2l1) matrix with a zero first row/column.

    The result lies in primed osp(2k1|2l1); on the supergroup the map is
    X -> diag(1, X), on the superalgebra the new row and column are zero.

    Once X passes the source membership test its entries shift by (1, 1)
    as they are: the new index is even and comes first, so every slot
    keeps its parity and the image keeps the parity of X.
    """
    t, q = x.rows.even, x.rows.odd
    if t % 2 == 0 or not x.is_square():
        raise ValueError("source must be square with odd even-size 2k1-1")
    l1 = q // 2
    source = gram_form("primed", t, l1)
    if not is_member(x, source):
        raise ValueError("matrix is not in the source algebra")
    target_shape = _shape("primed", t + 1, l1)
    return SuperMatrix._new(target_shape, target_shape, x.ctx, x.parity,
                            {(i + 1, j + 1): v
                             for (i, j), v in x.entries.items()})


def bordered_basis(generators):
    """The zero-bordered images of primed osp(2k1-1|2l1) generators, as a
    basis of their span in primed osp(2k1|2l1).

    Each generator keeps its tag and parity; its matrix is ``embed_j`` of
    the source matrix and its primary slot shifts by (1, 1) with it, so the
    slots stay private and ``coefficients_of`` and ``closure_check`` apply.
    """
    gens = [Generator(g.tag, g.parity, embed_j(g.matrix),
                      (g.primary[0] + 1, g.primary[1] + 1))
            for g in generators]
    if not gens:
        raise ValueError("no generators to border")
    t, l1 = gens[0].matrix.rows.even, gens[0].matrix.rows.odd // 2
    return OspBasis("primed", (t, l1), gram_form("primed", t, l1), gens,
                    name="j")


def j_image_contains(m):
    """Image test: vanishing first row and column plus primed membership."""
    t, q = m.rows.even, m.rows.odd
    if t % 2:
        raise ValueError("j lands in an even-sized primed algebra")
    for (i, j) in m.entries:
        if i == 0 or j == 0:
            return False
    return is_member(m, gram_form("primed", t, q // 2))


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


def parabolic_basis(which, k1, l1):
    """Basis of the primed stabilizer pattern p or p1 at sizes (k1, l1).

    ``which`` is "p" (ambient primed osp(2k1-1|2l1)) or "p1" (ambient
    primed osp(2k1|2l1)); the result is the slot pattern that the
    zero-bordering embedding preserves slot by slot, see PARABOLIC_TAGS
    for why it is not itself closed.
    """
    if which not in PARABOLIC_TAGS:
        raise ValueError("which must be 'p' or 'p1'")
    if k1 < 1 or l1 < 1:
        raise ValueError("parabolic sizes need k1 >= 1 and l1 >= 1")
    ambient = basis("primed", 2 * k1 - 1 if which == "p" else 2 * k1, l1)
    allowed = PARABOLIC_TAGS[which]
    gens = [g for g in ambient.generators if g.tag.split(":")[0] in allowed]
    return OspBasis(ambient.flavor, ambient.sizes, ambient.gram, gens,
                    name=which)
