"""Reference implementations that the tests compare the library with.

Each oracle computes its answer another way than the code it checks, and
none calls that code: Fractions for the text of a field tuple, the
product loop with no fast paths for ``ring.add_product``, which merges
odd parts by counting inversions and even parts through a dict, the
partials of a polynomial built one dict each for the one-pass
``ring.add_derivative``, a bracket that scans every coefficient name and
multiplies those partials for ``VectorField.bracket``, matrix
brackets for the Jacobi identity that ``osp.jacobi_failures`` composes
from structure constants, two matrix products for the conjugation that
``osp.conjugate_entries`` forms on entry tables, the structure constants
of the all-pairs matrix closure kept in one order and read the other way
by recursion for the two-way view of the ``osp.BracketTable`` that
``osp.closure_check`` returns, the enumerated positive roots for the closed
forms of ``RootSystem.violation``, term-by-term substitution for the
resolved isotropic chart, a chart with every slot a variable built by
hand for ``charts.isotropic_chart``, the dense body of a matrix, the
dense inverse of a FieldScalar list and a Neumann loop on it that decides
only after summing its powers for the sparse body inverse and up-front
test of ``SuperMatrix.invert``, the residual on whole term dicts
(``residual_terms``) and the defining equation as written, by two matrix
products (``defining_residual``), for the per-component
``osp.entry_residual`` of ``membership_residual``, and the span route
the imp-witness suite took before it read its Grassmann components off
one basis each: numeric matrices built even, expanded in bases of even
generators only, the bordered one built with ``embed_j``.  That route
shares neither the split, the bordering, the parity test nor the
read-off with the suite.  The matrix route of the suite's numeric
witnesses (odd FieldScalar matrices, ``defining_residual`` and
``j_image_contains``, ``SuperMatrix.superbracket``) checks the entry
tables, ``entry_residual`` and ``odd_self_bracket`` that the suite uses
in its place.  The matrix bordering the isomorphism suite once ran
(``embed_j``, a shift of a member's entries by (1, 1), ``bordered_basis``,
``j_image_contains`` and ``coefficients_of``, which converts a matrix
before its read-off) checks the suite's P X P^T on entry tables.
Likewise the matrix-first basis shares the family specs with
``osp.basis``, but not the route from a spec to a generator: ``build``'s
parity check, the residual and the table read back off the matrix.
``reassembled_read_off`` sums the combination that the primary slots
name and compares it with the entries, where ``OspBasis.read_off``
checks each entry against its slot's owner.  Every membership verdict
here comes from ``defining_residual`` and every span verdict from
``reassembled_read_off``: no oracle names the library's residual, its
membership test, its read-off or its owner map, which a test checks by
parsing this file.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from superflag import osp
from superflag.charts import Chart, VectorField, validate_flag_type
from superflag.linalg import RankTracker, SingularMatrixError
from superflag.matrices import BlockShape, NotNilpotentError, ParityError, \
    SuperMatrix
from superflag.osp import PARABOLIC_TAGS, Generator, NotInSpanError, \
    OspBasis, basis, components, constant_entries
from superflag.ring import CONSTANT, NUMERIC_CTX, ContextError, \
    RingContext, SuperPoly, common_context
from superflag.scalars import Q_MINUS_ONE, Q_ONE, Q_ZERO, ZERO, \
    FieldScalar, add_scaled, q_add, q_mul, q_neg
from superflag.weights import Weight


# ---------------------------------------------------------------------------
# Scalars and polynomials
# ---------------------------------------------------------------------------


def to_complex(x):
    """A floating approximation of the FieldScalar ``x``."""
    a, b, c, d, den = x.q
    r2 = math.sqrt(2)
    return complex((a + c * r2) / den, (b + d * r2) / den)


def fraction_render(q):
    """The text of the field tuple ``q`` written from four Fractions: each
    nonzero part, its sign taken out, then ``*i``, ``*r2`` or ``*i*r2``
    unless it is the bare radical of a part 1 or -1; ``0`` when all vanish."""
    *nums, den = q
    out = ""
    for num, radical in zip(nums, ("", "i", "r2", "i*r2")):
        part = Fraction(num, den)
        if not part:
            continue
        size = abs(part)
        if not radical:
            body = str(size)
        elif size == 1:
            body = radical
        else:
            body = f"{size}*{radical}"
        if out:
            out += (" - " if part < 0 else " + ") + body
        else:
            out = "-" + body if part < 0 else body
    return out or "0"


def merge_odd_ids(u, v):
    """``(sign, merged)`` for the odd parts ``u`` and ``v``: sign 0 when an
    id repeats, else (-1) to the number of inversions of ``u + v``."""
    ids = u + v
    if len(set(ids)) < len(ids):
        return 0, ()
    inversions = sum(a > b for i, a in enumerate(ids) for b in ids[i + 1:])
    return (-1) ** inversions, tuple(sorted(ids))


def merge_even_exponents(p, q):
    """The even part of the product of even parts ``p`` and ``q``: the
    exponents of each id summed in a dict, then sorted by id."""
    exponents = dict(p)
    for v, e in q:
        exponents[v] = exponents.get(v, 0) + e
    return tuple(sorted(exponents.items()))


def add_product_loop(terms, p, q, negate=False):
    """Add ``p * q``, or ``-(p * q)`` when ``negate``, into the term dict
    ``terms``: every term pair merged, multiplied and summed in, with no
    shortcut for an empty part, a unit coefficient or a new key."""
    keep = -1 if negate else 1
    for (ek1, ok1), q1 in p.terms.items():
        for (ek2, ok2), q2 in q.terms.items():
            sign, ok = merge_odd_ids(ok1, ok2)
            if sign == 0:
                continue
            c = q_mul(q1, q2)
            if sign != keep:
                c = q_neg(c)
            key = (merge_even_exponents(ek1, ek2), ok)
            acc = q_add(terms.get(key, Q_ZERO), c)
            if acc == Q_ZERO:
                terms.pop(key, None)
            else:
                terms[key] = acc


def partials(terms, even, odd):
    """The left partial derivatives of the term dict ``terms`` by the even
    variable ids in ``even`` and the odd ids in ``odd``: ``(by_even,
    by_odd)``, each mapping a variable id to the term dict of its partial,
    and leaving out the ids whose partial is zero.

    An even factor x^e leaves x^(e-1) and the factor e; an odd factor is
    first anticommuted to the front, so it leaves the sign of its
    position.  Taking one factor of a variable out is injective on the
    monomials that hold it, so within one partial no key repeats."""
    by_even, by_odd = {}, {}
    for (ek, ok), q in terms.items():
        for pos, (v, e) in enumerate(ek):
            if v in even:
                if e == 1:
                    key, c = (ek[:pos] + ek[pos + 1:], ok), q
                else:
                    key = (ek[:pos] + ((v, e - 1),) + ek[pos + 1:], ok)
                    c = q_mul(q, (e, 0, 0, 0, 1))
                by_even.setdefault(v, {})[key] = c
        for pos, v in enumerate(ok):
            if v in odd:
                key = (ek, ok[:pos] + ok[pos + 1:])
                by_odd.setdefault(v, {})[key] = q_neg(q) if pos & 1 else q
    return by_even, by_odd


def partial(poly, name):
    """The left partial derivative of ``poly`` by the variable ``name`` of
    its ring, from :func:`partials`."""
    parity, vid = poly.ctx._byname[name]
    ids = {vid}
    parts = partials(poly.terms, set() if parity else ids,
                     ids if parity else set())
    return SuperPoly._new(poly.ctx, parts[parity].get(vid, {}))


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
# Vector fields
# ---------------------------------------------------------------------------


def bracket_all_names(v, w):
    """[v, w] = v w - (-1)^{|v||w|} w v, each field applied to a
    polynomial by scanning all of its coefficients and differentiating by
    the names that occur in the polynomial by :func:`partial`; products
    by :func:`add_product_loop`."""
    ctx = common_context(v.ctx, w.ctx)

    def apply_into(field, terms, poly, negate=False):
        present = poly.variables()
        for name, c in field.coefficients.items():
            if c.terms and name in present:
                add_product_loop(terms, c, partial(poly, name), negate)

    negate = not (v.parity and w.parity)
    names = tuple(dict.fromkeys((*v.order, *w.order)))
    coeffs = {}
    for name in names:
        terms = {}
        apply_into(v, terms, w.coefficient(name))
        apply_into(w, terms, v.coefficient(name), negate)
        coeffs[name] = SuperPoly._new(ctx, terms)
    return VectorField(ctx, (v.parity + w.parity) % 2, coeffs, names)


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


def body(m):
    """The dense list of the constant terms of a SuperMatrix's entries, as
    FieldScalars."""
    out = [[ZERO] * m.cols.total for _ in range(m.rows.total)]
    for (i, j), v in m.entries.items():
        out[i][j] = v.scalar_part()
    return out


def invert(a):
    """The exact inverse of a dense square list of FieldScalars; raises
    SingularMatrixError when the rank drops.

    The reduced form of [A | I] is [I | A^-1] exactly when every pivot lies
    in the A half.
    """
    n = len(a)
    tracker = RankTracker(2 * n)
    for i, row in enumerate(a):
        entries = {j: x.q for j, x in enumerate(row)}
        entries[n + i] = Q_ONE
        tracker.add(entries)
    if tracker.pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [[FieldScalar.from_q(row.get(n + j, Q_ZERO)) for j in range(n)]
            for row in tracker.rows]


def neumann_invert(m):
    """The inverse by the Neumann series, deciding after the loop: the
    body inverted dense (``invert``), then up to (odd names + 1) powers of
    N = B^-1 M - E summed, raising NotNilpotentError when the last power
    is not zero, and SingularMatrixError("matrix body is singular") for a
    singular body."""
    try:
        body_inv = invert(body(m))
    except SingularMatrixError:
        raise SingularMatrixError("matrix body is singular") from None
    binv = SuperMatrix.build(m.rows, m.rows, body_inv, ctx=m.ctx)
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


def defining_residual(m, gram):
    """M^ST G + G M as the defining equation writes it: the supertranspose
    of M times the Gram matrix, plus the Gram matrix times M, with G
    lifted to the ring of M.  M is a member of osp(G) exactly when the
    result is zero.  No signed permutation and no Grassmann split."""
    g = gram.matrix.lift(m.ctx)
    return m.supertranspose() @ g + g @ m


def residual_terms(m, gram):
    """M^ST G + G M as ``{slot: term dict}``, read off the Gram's signed
    permutation on the whole term dicts of M, with no split into Grassmann
    components: each entry of M lands at two slots with a sign.  A slot
    whose contributions cancel holds an empty dict.  ValueError for a
    shape that is not the Gram's, ParityError for a matrix that is not
    parity-homogeneous."""
    shape = gram.shape
    if m.rows != shape or m.cols != shape:
        raise ValueError("matrix shape does not match the gram form")
    if m.parity not in (0, 1):
        raise ParityError("supertranspose needs a parity-homogeneous matrix")
    acc = {}
    for (r, c), v in m.entries.items():
        x = gram.inverse[r]
        slot, sign = gram.partner(r, c)
        for out, s in (((x, c), gram.sign[x]), (slot, sign)):
            terms = acc.setdefault(out, {})
            add_scaled(terms, v.terms, Q_MINUS_ONE if s < 0 else Q_ONE)
    return acc


def matrix_built_basis(flavor, a, b):
    """``basis(flavor, a, b)`` built matrix first: each spec's entries, as
    FieldScalars, go through ``SuperMatrix.build`` with the family parity,
    which checks the entries against it, the matrix must pass
    ``residual_terms``, and each generator's entry table is read back off
    its matrix with ``constant_entries``.  Returns ``(basis, matrices)``,
    the matrices in generator order.  It shares the family specs with the
    library, not the route from a spec to a generator."""
    shape = osp._shape(flavor, a, b)
    if flavor == "gl":
        gram, specs = None, osp._gl_specs(shape)
    else:
        gram = osp.gram_form(flavor, a, b)
        specs = osp._family_specs(
            "primed" if flavor == "primed" else "original", gram)
    gens, mats = [], []
    for tag, parity, entries, primary in specs:
        mat = SuperMatrix.build(
            shape, shape,
            {slot: FieldScalar.from_q(q) for slot, q in entries.items()},
            parity=parity)
        if gram is not None and any(residual_terms(mat, gram).values()):
            raise AssertionError(f"generator {tag} fails the defining equation")
        gens.append(Generator(tag, parity, constant_entries(mat), primary,
                              shape))
        mats.append(mat)
    return OspBasis(gram, gens), mats


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


def conjugate(m, s, s_inv):
    """S^-1 M S by two matrix products; maps members of osp(Gram) to
    members of osp(primed Gram) when S is ``basis_change_S``."""
    return s_inv @ m @ s


class OneWayBracketTable:
    """Structure constants ``(tag_p, tag_q, tag_r, q)`` stored in the order
    they were expanded, each pair (p, q) with p before q in the basis, and
    the failed pairs.  ``of(a, b)`` reads a pair in the other order by
    recursion, as [b, a] = -(-1)^{|a||b|} [a, b], and checks the failures
    in the stored order only."""

    def __init__(self, bas, constants, failures):
        self.index = {g.tag: i for i, g in enumerate(bas.generators)}
        self.parity = {g.tag: g.parity for g in bas.generators}
        self.failed = set(failures)
        self.table = {}
        for p, q, r, c in constants:
            self.table.setdefault((p, q), {})[r] = c

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


def coefficients_of(bas, m):
    """Expand the matrix ``m`` exactly in ``bas`` as ``{tag: FieldScalar}``
    in generator order, or raise NotInSpanError: ``m`` is split into its
    Grassmann components, a non-constant part is out of the span, and the
    constant part is read off with ``reassembled_read_off``."""
    parts = components(m)
    entries = parts.pop(CONSTANT, {})
    others = {slot for part in parts.values() for slot in part}
    bad = [g.primary for g in bas.generators if g.primary in others]
    if bad:
        raise NotInSpanError(f"slot {bad[0]} of the candidate is not scalar")
    found = None if others else reassembled_read_off(bas, entries)
    if found is None:
        raise NotInSpanError("matrix is not in the span of the basis")
    return {bas.generators[i].tag: FieldScalar.from_q(c) for i, c in found}


def reassembled_read_off(bas, entries):
    """``OspBasis.read_off`` by re-assembly: the entries on primary slots
    are the candidate coefficients, and the combination they give, summed
    with ``add_scaled`` (which drops the slots that cancel), must equal
    the entries.  ``(generator index, q)`` pairs in generator order, or
    None; it reads no owner map and assumes no disjoint supports."""
    by_primary = {g.primary: i for i, g in enumerate(bas.generators)}
    coeffs = sorted((by_primary[slot], c) for slot, c in entries.items()
                    if slot in by_primary)
    acc = {}
    for i, c in coeffs:
        add_scaled(acc, bas.generators[i].entries, c)
    return coeffs if acc == entries else None


def embed_j(x):
    """Border a primed osp(2k1-1|2l1) matrix with a zero first row/column.

    The result lies in primed osp(2k1|2l1).  Once X passes the source
    membership test its entries shift by (1, 1) as they are: the new index
    is even and comes first, so every slot keeps its parity and the image
    keeps the parity of X.
    """
    t, q = x.rows.even, x.rows.odd
    if t % 2 == 0 or not x.is_square():
        raise ValueError("source must be square with odd even-size 2k1-1")
    l1 = q // 2
    if not defining_residual(x, osp.gram_form("primed", t, l1)).is_zero():
        raise ValueError("matrix is not in the source algebra")
    target = osp._shape("primed", t + 1, l1)
    return SuperMatrix._new(target, target, x.ctx, x.parity,
                            {(i + 1, j + 1): v
                             for (i, j), v in x.entries.items()})


def bordered_basis(generators):
    """The zero-bordered images (``embed_j``) of primed osp(2k1-1|2l1)
    generators, as a basis of their span in primed osp(2k1|2l1): each
    keeps its tag and parity, and its primary slot shifts by (1, 1)."""
    images = [embed_j(g.matrix) for g in generators]
    if not images:
        raise ValueError("no generators to border")
    shape = images[0].rows
    gens = [Generator(g.tag, g.parity, constant_entries(img),
                      (g.primary[0] + 1, g.primary[1] + 1), shape)
            for g, img in zip(generators, images)]
    return OspBasis(osp.gram_form("primed", shape.even, shape.odd // 2),
                    gens)


def j_image_contains(m):
    """Image test: vanishing first row and column plus primed membership."""
    t, q = m.rows.even, m.rows.odd
    if t % 2:
        raise ValueError("j lands in an even-sized primed algebra")
    if any(i == 0 or j == 0 for i, j in m.entries):
        return False
    return defining_residual(m, osp.gram_form("primed", t, q // 2)).is_zero()


def parabolic_basis(which, k1, l1):
    """Basis of the primed stabilizer pattern p (in primed osp(2k1-1|2l1))
    or p1 (in primed osp(2k1|2l1)): the generators whose family is in
    ``osp.PARABOLIC_TAGS[which]``, a slot pattern, not a subalgebra."""
    if which not in PARABOLIC_TAGS:
        raise ValueError("which must be 'p' or 'p1'")
    if k1 < 1 or l1 < 1:
        raise ValueError("parabolic sizes need k1 >= 1 and l1 >= 1")
    ambient = basis("primed", 2 * k1 - 1 if which == "p" else 2 * k1, l1)
    gens = [g for g in ambient.generators
            if g.tag.split(":")[0] in PARABOLIC_TAGS[which]]
    return OspBasis(ambient.gram, gens)


def parabolic_strays(k1, l1):
    """The ``dj-parabolic`` stray list by matrices: ``(source tag, target
    tag)`` for each nonzero coefficient outside the p1 pattern of
    ``embed_j`` of a p-pattern generator, expanded with ``coefficients_of``
    in primed osp(2k1|2l1)."""
    ambient = basis("primed", 2 * k1, l1)
    return [(g.tag, tag) for g in parabolic_basis("p", k1, l1)
            for tag, c in coefficients_of(ambient, embed_j(g.matrix)).items()
            if c != ZERO and tag.split(":")[0] not in PARABOLIC_TAGS["p1"]]


def even_span_route(k1, l1):
    """The verdicts of the imp-witness suite's span questions, the way it
    once asked them: a function of a matrix ``m`` over primed
    osp(2k1|2l1) that returns ``(in_full, in_j)``.  ``m`` is split into one
    numeric matrix per monomial, each built even, and every one of them
    must expand with ``coefficients_of`` in the even generators of primed
    osp(2k1|2l1) (``in_full``) or in the zero-bordered even generators of
    primed osp(2k1-1|2l1) (``in_j``).  A component that is not even is in
    neither span.  The read-off is ``reassembled_read_off``, so the route
    shares no span test with the suite."""
    full = basis("primed", 2 * k1, l1)
    full_even = OspBasis(full.gram, full.even_generators())
    j_even = bordered_basis(basis("primed", 2 * k1 - 1, l1).even_generators())

    def in_span(target, bas):
        try:
            coefficients_of(bas, target)
        except NotInSpanError:
            return False
        return True

    def verdicts(m):
        keys = {}
        for (i, j), p in m.entries.items():
            for even_part, odd_part, coeff in p.monomials():
                keys.setdefault((even_part, odd_part), {})[(i, j)] = coeff
        try:
            pieces = [SuperMatrix.build(m.rows, m.cols, keys[key], parity=0)
                      for key in sorted(keys, key=repr)]
        except ParityError:
            return False, False
        return (all(in_span(p, full_even) for p in pieces),
                all(in_span(p, j_even) for p in pieces))

    return verdicts


#: Free block families of the base-flag stabilizers p (in osp(2k1-1|2l1),
#: the odd flavor) and p1 (in osp(2k1|2l1), the even flavor), in the
#: original slot names.
ORIGINAL_PARABOLIC_TAGS = {
    "p": {"A11", "A21", "G2", "C11", "C21", "C22", "G3", "B11", "B21"},
    "p1": {"A11", "A21", "C11", "C21", "C22", "B11", "B21"},
}


def witness_numeric(mat):
    """The numeric witness of ``mat``, a matrix whose entries are single
    Grassmann monomials: each monomial, named by its odd factors, becomes
    a distinct FieldScalar from 2 up in slot order, signs kept, and the
    result is built odd, so ``SuperMatrix.build`` raises ParityError on an
    even slot."""
    assigned = {}
    entries = {}
    for (i, j), p in sorted(mat.entries.items()):
        (_, odd_key, coeff), = list(p.monomials())
        if odd_key not in assigned:
            assigned[odd_key] = FieldScalar(len(assigned) + 2)
        entries[(i, j)] = coeff * assigned[odd_key]
    return SuperMatrix.build(mat.rows, mat.cols, entries, parity=1)


def witness_membership(m):
    """``(member, j_image_contains)`` of a matrix over primed
    osp(2k1|2l1), the first by ``defining_residual`` against the Gram
    ``gram_form`` writes."""
    gram = osp.gram_form("primed", m.rows.even, m.rows.odd // 2)
    return defining_residual(m, gram).is_zero(), j_image_contains(m)


def witness_numeric_route(k1, l1):
    """The numeric half of the imp-witness suite the way it once ran, on
    matrices: the two Grassmann witnesses built as SuperMatrices, their
    numeric forms (``witness_numeric``), the membership verdicts of each
    (``witness_membership``), and the bordered one bracketed with itself by
    ``SuperMatrix.superbracket`` and split by ``osp.components``.  Returns
    a dict with ``witnesses`` and ``numeric``, each the pair (bordered,
    first-row), ``membership``, one verdict pair per witness, and
    ``self_bracket``, the entries ``{slot: q}`` of the self bracket."""
    shape = BlockShape(2 * k1, 2 * l1)
    ctx = RingContext()
    a_names = [f"a{w}_{i}_{j}" for w in (1, 2)
               for i in range(1, k1 + 1) for j in range(1, l1 + 1)]
    b_names = [f"b{w}_{j}" for w in (1, 2) for j in range(1, l1 + 1)]
    ctx.odds(*(a_names + b_names))
    e0 = 2 * k1
    ma_entries = {}
    for i in range(k1):
        for j in range(l1):
            a1 = ctx.var(f"a1_{i + 1}_{j + 1}")
            a2 = ctx.var(f"a2_{i + 1}_{j + 1}")
            ma_entries[(k1 + i, e0 + j)] = a1
            ma_entries[(k1 + i, e0 + l1 + j)] = a2
            ma_entries[(e0 + j, k1 + i)] = -a2
            ma_entries[(e0 + l1 + j, k1 + i)] = a1
    mb_entries = {}
    for j in range(l1):
        b1, b2 = ctx.var(f"b1_{j + 1}"), ctx.var(f"b2_{j + 1}")
        mb_entries[(0, e0 + j)] = b1
        mb_entries[(0, e0 + l1 + j)] = b2
        mb_entries[(e0 + j, 0)] = -b2
        mb_entries[(e0 + l1 + j, 0)] = b1
    witnesses = tuple(SuperMatrix.build(shape, shape, e, ctx=ctx, parity=0)
                      for e in (ma_entries, mb_entries))
    numeric = tuple(witness_numeric(m) for m in witnesses)
    self_br = numeric[0].superbracket(numeric[0])
    return {
        "witnesses": witnesses,
        "numeric": numeric,
        "membership": tuple(witness_membership(m) for m in numeric),
        "self_bracket": osp.components(self_br).get(CONSTANT, {}),
    }


def original_parabolic_basis(which, k1, l1):
    """The generators of the odd ("p") or even ("p1") flavor at (k1, l1)
    whose family is in ORIGINAL_PARABOLIC_TAGS, as a basis."""
    ambient = basis("odd", k1 - 1, l1) if which == "p" \
        else basis("even", k1, l1)
    gens = [g for g in ambient
            if g.tag.split(":")[0] in ORIGINAL_PARABOLIC_TAGS[which]]
    return OspBasis(ambient.gram, gens)


def stabilized_subspace_indices(flavor, shape):
    """Row indices of the base flag: second even block plus second odd
    block."""
    if flavor not in ("odd", "even"):
        raise ValueError("base flag is defined for the odd/even flavors")
    h, n = shape.even // 2, shape.odd // 2
    odd_lo = shape.even + n
    return list(range(h, 2 * h)) + list(range(odd_lo, odd_lo + n))


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
