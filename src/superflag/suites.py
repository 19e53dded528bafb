"""Named verification suites with machine-readable reports.

Each suite bundles the exact checks for one statement family: defining
equations and closure of the orthosymplectic algebras, the closed-form
fundamental fields on the isotropic chart, the basis-change isomorphism
and zero-bordering embedding, the image witness bracket, and the
dominant-weight table.  Reports are deterministic given identical inputs;
the structured form is versioned as ``superflag-report/1``.

The isomorphism suite conjugates each source generator by S once, on its
entry table with S read once by row and S^-1 by column
(``osp.conjugate_entries``), and reads the image off the primed basis
with ``OspBasis.read_off``; an image outside its span fails the check.
No matrix is multiplied per generator.  The source generators are
independent, so conjugation is injective exactly when the coefficient
vectors have rank N = len(source), and onto exactly when that rank is
the primed dimension: one rank count replaces conjugating every primed
generator back.  S S^-1 = E makes the inverse conjugation the inverse
map.

The zero-bordering embedding j: osp(2k1-1|2l1) -> osp(2k1|2l1) is
conjugation by the even border matrix P (``osp.border_matrix``, P[i+1, i]
= 1): j(X) = P X P^T, formed on each source table by
``osp.conjugate_entries`` with P read once by column, which are also the
rows of P^T.  The lemma: if P^ST P = E and P is even, then
j(X) j(Y) = P X P^T P Y P^T = P XY P^T = j(XY), and j keeps parities, so
j[X, Y] = [jX, jY] for every pair.  So ``dj-bracket`` passes exactly
when the source closes (the run's only ``closure_check``), P^ST P = E
with P even, and every image's ``entry_residual`` against primed
osp(2k1|2l1) is empty.  ``j-image-slice`` and ``dj-parabolic`` read the
same image tables: an image lies in the j-image when its first row and
column vanish and it is a member (``_in_j_image``), and its coefficients
are read off the primed osp(2k1|2l1) basis with ``OspBasis.read_off``.

The imp-witness suite keeps the paper's witness symbolic: the two
Grassmann matrices, their superbracket and the closed form it must equal,
built one term dict per slot with ``ring.add_product``.  It splits the
bracket into Grassmann components (``osp.components``) and reads each one
off the memoised basis of primed osp(2k1|2l1) with ``OspBasis.read_off``;
a component lies in the embedded subalgebra when, even there, it passes
the isomorphism suite's ``_in_j_image`` as well, so no basis of the source
is built.  The numeric witnesses are entry tables ``{slot: q}``, one
distinct integer per Grassmann monomial, with no FieldScalar or matrix:
each is a member when its ``osp.entry_residual`` against the basis's Gram
is empty, and lies in the embedded subalgebra when ``_in_j_image`` holds.
The bordered one is bracketed with itself on its table by
``osp.odd_self_bracket``, as 2 X^2.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass, field

from . import BACKEND, __version__
from .charts import (
    fundamental_field,
    isotropic_chart,
    lemma_eta_field,
    lemma_eta_generator,
    lemma_h_field,
    lemma_h_generator,
)
from .linalg import RankTracker
from .matrices import BlockShape, ParityError, SuperMatrix
from .osp import (
    PARABOLIC_TAGS,
    NotInSpanError,
    basis,
    basis_change_S,
    border_matrix,
    center_from_constants,
    closure_check,
    components,
    conjugate_entries,
    constant_entries,
    dimension_counts,
    entry_lines,
    entry_residual,
    gram_form,
    jacobi_failures,
    odd_self_bracket,
)
from .ring import RingContext, add_product
from .scalars import Q_ONE, q_mul
from .weights import (
    bwb_dominant_filter,
    fiber_description,
    psi_highest_weights,
    root_system,
)

REPORT_SCHEMA = "superflag-report/1"


@dataclass
class CheckRecord:
    check_id: str
    label: str
    status: str
    witness: str = ""

    @property
    def ok(self):
        return self.status == "pass"


@dataclass
class SuiteReport:
    suite: str
    records: list = field(default_factory=list)
    duration: float = 0.0

    @property
    def ok(self):
        return all(r.ok for r in self.records)

    def add(self, check_id, label, passed, witness=""):
        self.records.append(
            CheckRecord(check_id, label, "pass" if passed else "fail", witness)
        )

    def to_dict(self):
        return {
            "schema": REPORT_SCHEMA,
            "suite": self.suite,
            "version": __version__,
            "backend": BACKEND,
            "duration_seconds": round(self.duration, 3),
            "status": "pass" if self.ok else "fail",
            "checks": [
                {
                    "id": r.check_id,
                    "label": r.label,
                    "status": r.status,
                    "witness": r.witness,
                }
                for r in self.records
            ],
        }

    def render(self):
        lines = [f"suite {self.suite}: {'PASS' if self.ok else 'FAIL'}"
                 f" ({len(self.records)} checks, {self.duration:.2f}s,"
                 f" backend={BACKEND})"]
        for r in self.records:
            mark = "ok " if r.ok else "FAIL"
            line = f"  [{mark}] {r.check_id}: {r.label}"
            if r.witness and (not r.ok or len(r.witness) < 100):
                line += f" -- {r.witness}"
            lines.append(line)
        return "\n".join(lines)


def _timed(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        report = fn(*args, **kwargs)
        report.duration = time.perf_counter() - t0
        return report

    return wrapper


@_timed
def suite_osp_defining(m, n):
    """Basis size, defining equation, closure, Jacobi, and center for
    osp(2m+1|2n)."""
    rep = SuiteReport(f"osp-defining(m={m},n={n})")
    bas = basis("odd", m, n)
    want = dimension_counts("odd", m, n)
    got = (len(bas.even_generators()), len(bas.odd_generators()))
    rep.add("dimension-count",
            "generator count matches the block-parameter formula",
            got == want, f"even/odd = {got}, expected {want}")
    # the per-component residual of membership_residual, on each
    # generator's one constant component, its entry table
    bad = [g.tag for g in bas if entry_residual(g.entries, bas.gram)]
    rep.add("defining-equation",
            "every generator satisfies M^ST G + G M = 0",
            not bad, ", ".join(bad) or f"{len(bas)} generators")
    table = closure_check(bas)
    rep.add("closure",
            "every superbracket of generators re-expands in the basis",
            not table.failures,
            f"{len(table.constants)} structure constants"
            if not table.failures else str(table.failures[:4]))
    tags = bas.tags()
    rng = random.Random(20240811)
    if len(tags) <= 12:
        triples = [(x, y, z) for x in tags for y in tags for z in tags]
    else:
        triples = [
            (rng.choice(tags), rng.choice(tags), rng.choice(tags))
            for _ in range(300)
        ]
    bad_j = jacobi_failures(table, triples)
    rep.add("jacobi", "graded Jacobi identity on generator triples",
            not bad_j, f"{len(triples)} triples" if not bad_j else str(bad_j[:3]))
    try:
        z = center_from_constants(bas, table)
        witness = f"dimension {len(z)}" if z else "trivial"
    except NotInSpanError:
        z, witness = None, "undetermined: closure failed"
    rep.add("center", "the center is {0}", z == [], witness)
    return rep


@_timed
def suite_lemma_fields(k1, l1, tail=None):
    """The closed-form h_i and eta coordinate fields are fundamental."""
    rep = SuiteReport(f"lemma-fields(k1={k1},l1={l1}"
                      + (f",tail={tail}" if tail else "") + ")")
    iso = isotropic_chart(k1, l1, tail=tail)
    h_fields = []
    for i in range(1, l1 + 1):
        got = fundamental_field(lemma_h_generator(iso, i), iso.chart)
        h_fields.append(got)
        want = lemma_h_field(iso, i)
        rep.add(f"h-field-{i}",
                f"one-parameter family of the h_{i} generator induces the"
                " closed-form field",
                got == want,
                got.render() if got == want
                else f"got {got.render()} expected {want.render()}")
    for a in range(1, l1 + 1):
        for b in range(1, k1):
            got = fundamental_field(lemma_eta_generator(iso, a, b), iso.chart)
            want = lemma_eta_field(iso, a, b)
            single = sum(1 for c in got.coefficients.values()
                         if not c.is_zero()) == 1
            rep.add(f"eta-field-{a}-{b}",
                    f"the eta1_{a}_{b} coordinate field is fundamental",
                    got == want and single,
                    got.render())
    if tail:
        clean = all(v.coefficient(name).is_zero()
                    for v in h_fields for name in iso.chart.independent
                    if iso.chart.slot_of(name)[0] > 1)
        rep.add("tail-invariance",
                "the h fields do not move the trailing flag steps", clean)
    return rep


@_timed
def suite_isomorphism(k1, l1):
    """Basis change to the primed form, the induced isomorphism, and the
    zero-bordering embedding."""
    if k1 < 1 or l1 < 1:
        raise ValueError("the isomorphism suite needs k1 >= 1 and l1 >= 1")
    rep = SuiteReport(f"isomorphism(k1={k1},l1={l1})")
    for flavor, t in (("odd", 2 * k1 - 1), ("even", 2 * k1)):
        if flavor == "odd":
            src = basis("odd", k1 - 1, l1)
        else:
            src = basis("even", k1, l1)
        primed_gram = gram_form("primed", t, l1)
        s = basis_change_S(flavor, k1, l1)
        lhs = s.supertranspose() @ src.gram.matrix @ s
        rep.add(f"gram-transform-{flavor}",
                "S^ST Gram S equals the primed Gram",
                lhs == primed_gram.matrix)
        s_inv = s.invert()
        s_rows = entry_lines(constant_entries(s, "S"))
        s_inv_cols = entry_lines(constant_entries(s_inv, "S^-1"),
                                 by_column=True)
        primed = basis("primed", t, l1)
        images = RankTracker(len(primed))
        fwd = []
        for g, entries in zip(src, src.entry_table()):
            found = primed.read_off(
                conjugate_entries(entries, s_rows, s_inv_cols))
            if found is None:
                fwd.append(g.tag)
            else:
                images.add(dict(found))
        pivots = set(images.pivots)
        back = [g.tag for i, g in enumerate(primed) if i not in pivots]
        bijective = images.rank == len(primed) == len(src)
        inverse = s @ s_inv == SuperMatrix.identity(s.rows)
        ok = not fwd and bijective and inverse
        # both bases use the same tag names, so each group names its basis
        witness = "; ".join(f"{name}: {', '.join(tags)}" for name, tags
                            in (("source", fwd), ("primed", back)) if tags)
        rep.add(f"conjugation-iso-{flavor}",
                "conjugation by S maps the algebra onto the primed algebra"
                " bijectively",
                ok, witness or
                (f"{len(src)} generators both ways" if ok else
                 f"rank {images.rank} from {len(src)} generators onto"
                 f" {len(primed)}, S S^-1 {'=' if inverse else '!='} E"))
    # j(X) = P X P^T on the entry tables; the lemma in the module doc
    # reduces dj-bracket to one closure, P^ST P = E and membership.
    src = basis("primed", 2 * k1 - 1, l1)
    target = basis("primed", 2 * k1, l1)
    p = border_matrix(k1, l1)
    p_cols = entry_lines(constant_entries(p, "P"), by_column=True)
    images = [conjugate_entries(entries, p_cols, p_cols)
              for entries in src.entry_table()]
    isometry = p.parity == 0 and \
        p.supertranspose() @ p == SuperMatrix.identity(p.cols)
    # an image in the j-image is a member, so the residuals run once
    in_image = all(_in_j_image(img, target.gram) for img in images)
    members = in_image or \
        not any(entry_residual(img, target.gram) for img in images)
    rep.add("dj-bracket",
            "the zero-bordering embedding preserves every superbracket",
            not closure_check(src).failures and isometry and members,
            f"{len(src)}^2 pairs")
    spoiled = {**images[0], (0, 1): Q_ONE}
    rep.add("j-image-slice",
            "the image is exactly the vanishing first row/column slice",
            in_image and not _in_j_image(spoiled, target.gram))
    try:
        inside, stray = _parabolic_strays(src, target, images)
        witness = str(stray[:4]) if stray else \
            f"{inside} generators land inside"
    except NotInSpanError as e:
        stray, witness = None, f"undetermined: {e}"
    rep.add("dj-parabolic",
            "the embedding carries the p pattern into the p1 pattern",
            stray == [], witness)
    return rep


def _parabolic_strays(src, target, images):
    """``(count, stray)`` for the generators of ``src`` in the p pattern:
    their number, and ``(source tag, target tag)`` of each coefficient
    outside the p1 pattern that their images (``images``, in generator
    order) have, read off ``target``.  Raises NotInSpanError for an image
    outside its span."""
    count, stray = 0, []
    for g, img in zip(src, images):
        if g.tag.split(":")[0] not in PARABOLIC_TAGS["p"]:
            continue
        found = target.read_off(img)
        if found is None:
            raise NotInSpanError(f"j({g.tag}) is not in the span of the"
                                 " basis")
        count += 1
        stray += [(g.tag, tag) for tag in (target.generators[i].tag
                                           for i, _ in found)
                  if tag.split(":")[0] not in PARABOLIC_TAGS["p1"]]
    return count, stray


def _in_even_span(bas, entries):
    """Whether the constant matrix ``entries`` (``{slot: q}``) is a
    combination of the even generators of ``bas``."""
    found = bas.read_off(entries)
    return found is not None and all(bas.generators[i].parity == 0
                                     for i, _ in found)


def _in_j_image(entries, gram):
    """Whether the constant matrix ``entries`` (``{slot: q}``) lies in the
    zero-bordered image of primed osp(2k1-1|2l1) in osp(``gram``), primed
    osp(2k1|2l1): its first row and column vanish and its
    ``entry_residual`` is empty.  The primed Gram fixes index 0, so such a
    member is diag(0, X) with X a member of the source, which is j(X)."""
    return not any(i == 0 or j == 0 for i, j in entries) \
        and not entry_residual(entries, gram)


def _odd_table(mat):
    """The numeric witness of ``mat``, a matrix whose entries are single
    Grassmann monomials: its entries ``{slot: q}`` with each monomial
    replaced by a distinct integer from 2 up, in slot order, and its sign
    and coefficient kept.  Every slot must be odd, as the entries of an
    odd constant matrix are; raises ParityError otherwise."""
    p, q = mat.rows.even, mat.cols.even
    assigned = {}
    table = {}
    for (i, j), poly in sorted(mat.entries.items()):
        if (i < p) == (j < q):
            raise ParityError(f"witness entry ({i}, {j}) is on an even slot"
                              " of an odd matrix")
        (key, c), = poly.terms.items()
        n = assigned.setdefault(key, len(assigned) + 2)
        table[(i, j)] = q_mul(c, (n, 0, 0, 0, 1))
    return table


def _membership(gram, table):
    """``(member, bordered)`` for the constant matrix ``table``: whether it
    satisfies the defining equation of ``gram`` (its ``entry_residual`` is
    empty), and whether it lies in the zero-bordered image
    (``_in_j_image``), which makes it a member."""
    bordered = _in_j_image(table, gram)
    return bordered or not entry_residual(table, gram), bordered


@_timed
def suite_imP_witness(k1, l1):
    """The witness bracket showing the image is larger than the bordered
    subalgebra: two explicit odd-type matrices with Grassmann blocks whose
    commutator has first-row/first-column support."""
    if k1 < 1 or l1 < 1:
        raise ValueError("the imP witness needs k1 >= 1 and l1 >= 1")
    rep = SuiteReport(f"imP-witness(k1={k1},l1={l1})")
    shape = BlockShape(2 * k1, 2 * l1)
    ctx = RingContext()
    a_names = [f"a{w}_{i}_{j}" for w in (1, 2)
               for i in range(1, k1 + 1) for j in range(1, l1 + 1)]
    b_names = [f"b{w}_{j}" for w in (1, 2) for j in range(1, l1 + 1)]
    ctx.odds(*(a_names + b_names))
    v = {name: ctx.var(name) for name in a_names + b_names}

    def a(w, i, j):
        return v[f"a{w}_{i}_{j}"]

    def b(w, j):
        return v[f"b{w}_{j}"]

    e0 = 2 * k1            # first odd index
    ma_entries = {}
    for i in range(k1):
        for j in range(l1):
            ma_entries[(k1 + i, e0 + j)] = a(1, i + 1, j + 1)
            ma_entries[(k1 + i, e0 + l1 + j)] = a(2, i + 1, j + 1)
            ma_entries[(e0 + j, k1 + i)] = -a(2, i + 1, j + 1)
            ma_entries[(e0 + l1 + j, k1 + i)] = a(1, i + 1, j + 1)
    mb_entries = {}
    for j in range(l1):
        mb_entries[(0, e0 + j)] = b(1, j + 1)
        mb_entries[(0, e0 + l1 + j)] = b(2, j + 1)
        mb_entries[(e0 + j, 0)] = -b(2, j + 1)
        mb_entries[(e0 + l1 + j, 0)] = b(1, j + 1)
    ma = SuperMatrix.build(shape, shape, ma_entries, ctx=ctx, parity=0)
    mb = SuperMatrix.build(shape, shape, mb_entries, ctx=ctx, parity=0)
    bracket = ma.superbracket(mb)

    expected = {}
    for i in range(k1):
        # block (2,1): -A1 B2^T + A2 B1^T, supported in the first column
        terms = expected[(k1 + i, 0)] = {}
        for j in range(l1):
            add_product(terms, a(1, i + 1, j + 1), b(2, j + 1), negate=True)
            add_product(terms, a(2, i + 1, j + 1), b(1, j + 1))
        # block (1,2): -B2 A1^T + B1 A2^T, supported in the first row
        terms = expected[(0, k1 + i)] = {}
        for j in range(l1):
            add_product(terms, b(2, j + 1), a(1, i + 1, j + 1), negate=True)
            add_product(terms, b(1, j + 1), a(2, i + 1, j + 1))
    shown = bracket == SuperMatrix.from_terms(shape, shape, ctx, 0, expected)
    rep.add("bracket-display",
            "the commutator equals the expected even matrix"
            " (-A1 B2^T + A2 B1^T | -B2 A1^T + B1 A2^T)",
            shown, f"{len(bracket.entries)} nonzero slots" if shown
            else bracket.render())

    full = basis("primed", 2 * k1, l1)
    ta, tb = _odd_table(ma), _odd_table(mb)
    rep.add("witness-membership",
            "both witness matrices satisfy the primed defining equation;"
            " only the bordered one lies in the embedded subalgebra",
            _membership(full.gram, ta) == (True, True)
            and _membership(full.gram, tb) == (True, False))

    pieces = list(components(bracket).values())
    in_full = all(_in_even_span(full, p) for p in pieces)
    outside = any(not _in_j_image(p, full.gram) for p in pieces)
    rep.add("outside-j-image",
            "the bracket lies in the even part but escapes the embedded"
            " subalgebra",
            bool(pieces) and in_full and outside,
            f"{len(pieces)} Grassmann components")
    rep.add("self-bracket-control",
            "the bordered witness brackets with itself inside the embedded"
            " subalgebra",
            _in_j_image(odd_self_bracket(ta), full.gram))
    return rep


@_timed
def suite_bwb(k1, l1):
    """Highest weights, the dominance filter, and the fiber description."""
    if k1 < 1 or l1 < 1:
        raise ValueError("the bwb suite needs k1 >= 1 and l1 >= 1")
    rep = SuiteReport(f"bwb(k1={k1},l1={l1})")
    weights = psi_highest_weights(k1, l1)
    rs = root_system(k1, l1)
    rep.add("highest-weights", "the case-split weight list",
            True, "[" + ", ".join(w.render() for w in weights) + "]")
    survivors = bwb_dominant_filter(weights, rs)
    expected = (k1 >= 2)
    ok = (len(survivors) == 1 and survivors[0].is_zero()) if expected \
        else survivors == []
    rep.add("dominant-filter",
            "exactly the zero weight survives for k1 >= 2, nothing for"
            " k1 = 1",
            ok, "[" + ", ".join(w.render() for w in survivors) + "]")
    desc = fiber_description(survivors)
    rep.add("fiber-description", "global fiber functions",
            desc == ("ℂ" if expected else "{0}"), desc)
    return rep


#: Each suite of ``verify --suite``: its function and size parameters.
SUITES = {
    "osp-defining": (suite_osp_defining, ("m", "n")),
    "lemma-fields": (suite_lemma_fields, ("k1", "l1")),
    "isomorphism": (suite_isomorphism, ("k1", "l1")),
    "imp-witness": (suite_imP_witness, ("k1", "l1")),
    "bwb": (suite_bwb, ("k1", "l1")),
}
#: The suites that no size cap applies to: their cost is linear in the
#: ranks.
UNCAPPED = frozenset({"bwb"})

#: The runs of ``run_all`` in order, each a suite and its arguments: the
#: size parameters, then any further ones.
DEFAULT_RUNS = (
    ("osp-defining", (1, 1)),
    ("osp-defining", (2, 1)),
    ("lemma-fields", (2, 1)),
    ("lemma-fields", (2, 2)),
    ("lemma-fields", (2, 1, ((1,), (0,)))),
    ("isomorphism", (1, 1)),
    ("isomorphism", (2, 1)),
    ("imp-witness", (1, 1)),
    ("imp-witness", (2, 1)),
    ("bwb", (1, 2)),
    ("bwb", (2, 1)),
    ("bwb", (3, 2)),
)


def run_all(cap):
    """Run ``DEFAULT_RUNS``, leaving out a run whose sizes exceed ``cap``
    unless its suite is UNCAPPED."""
    reports = []
    for suite, args in DEFAULT_RUNS:
        fn, params = SUITES[suite]
        if suite in UNCAPPED or all(v <= cap for v in args[:len(params)]):
            reports.append(fn(*args))
    return reports
