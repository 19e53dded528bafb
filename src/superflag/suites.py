"""Named verification suites with machine-readable reports.

Each suite bundles the exact checks for one statement family: defining
equations and closure of the orthosymplectic algebras, the closed-form
fundamental fields on the isotropic chart, the basis-change isomorphism
and zero-bordering embedding, the image witness bracket, and the
dominant-weight table.  Reports are deterministic given identical inputs;
the structured form is versioned as ``superflag-report/1``.

The isomorphism suite conjugates each source generator by S once and
expands the image in the primed basis; an image outside its span fails
the check.  The source generators are independent, so conjugation is
injective exactly when the coefficient vectors have rank N = len(source),
and onto exactly when that rank is the primed dimension: one rank count
replaces conjugating every primed generator back.  S S^-1 = E makes the
inverse conjugation the inverse map.
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
from .matrices import BlockShape, SuperMatrix
from .osp import (
    PARABOLIC_TAGS,
    NotInSpanError,
    OspBasis,
    basis,
    basis_change_S,
    bordered_basis,
    center_from_constants,
    closure_check,
    conjugate,
    dimension_counts,
    gram_form,
    is_member,
    j_image_contains,
    jacobi_failures,
    parabolic_basis,
)
from .ring import RingContext
from .scalars import FieldScalar, ONE, ZERO
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
    version: str = __version__
    backend: str = BACKEND

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
            "version": self.version,
            "backend": self.backend,
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
                 f" backend={self.backend})"]
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
    gram = bas.gram
    bad = [g.tag for g in bas if not is_member(g.matrix, gram)]
    rep.add("defining-equation",
            "every generator satisfies M^ST G + G M = 0",
            not bad, ", ".join(bad) or f"{len(bas)} generators")
    closure = closure_check(bas)
    rep.add("closure",
            "every superbracket of generators re-expands in the basis",
            not closure["failures"],
            f"{len(closure['structure_constants'])} structure constants"
            if not closure["failures"] else str(closure["failures"][:4]))
    tags = bas.tags()
    rng = random.Random(20240811)
    if len(tags) <= 12:
        triples = [(x, y, z) for x in tags for y in tags for z in tags]
    else:
        triples = [
            (rng.choice(tags), rng.choice(tags), rng.choice(tags))
            for _ in range(300)
        ]
    bad_j = jacobi_failures(bas, closure, triples)
    rep.add("jacobi", "graded Jacobi identity on generator triples",
            not bad_j, f"{len(triples)} triples" if not bad_j else str(bad_j[:3]))
    try:
        z = center_from_constants(bas, closure)
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
        primed = basis("primed", t, l1)
        column = {tag: i for i, tag in enumerate(primed.tags())}
        images = RankTracker(len(primed))
        fwd = []
        for g in src:
            try:
                coeffs = primed.coefficients_of(conjugate(g.matrix, s, s_inv))
            except NotInSpanError:
                fwd.append(g.tag)
                continue
            images.add({column[tag]: c for tag, c in coeffs.items()})
        pivots = set(images.pivots)
        back = [tag for tag, i in column.items() if i not in pivots]
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
    # j is linear and injective and both brackets are graded-antisymmetric,
    # so j preserves every bracket exactly when the source closes and the
    # bordered generators have the source's structure constants.
    src = basis("primed", 2 * k1 - 1, l1)
    bordered = bordered_basis(src.generators)
    src_closure, j_closure = closure_check(src), closure_check(bordered)
    rep.add("dj-bracket",
            "the zero-bordering embedding preserves every superbracket",
            not src_closure["failures"] and not j_closure["failures"]
            and src_closure["structure_constants"]
            == j_closure["structure_constants"],
            f"{len(src)}^2 pairs")
    embedded = {g.tag: g.matrix for g in bordered}
    img_ok = all(j_image_contains(embedded[g.tag]) for g in src)
    probe = embedded[src.generators[0].tag]
    spoiled = probe + SuperMatrix.build(
        probe.rows, probe.cols, {(0, 1): ONE}, parity=probe.parity or 0)
    rep.add("j-image-slice",
            "the image is exactly the vanishing first row/column slice",
            img_ok and not j_image_contains(spoiled))
    p_primed = parabolic_basis("p", k1, l1)
    p1_primed = basis("primed", 2 * k1, l1)
    p1_tags = PARABOLIC_TAGS["p1"]
    stray = []
    for g in p_primed:
        coeffs = p1_primed.coefficients_of(embedded[g.tag])
        for tag, c in coeffs.items():
            if c != ZERO and tag.split(":")[0] not in p1_tags:
                stray.append((g.tag, tag))
    rep.add("dj-parabolic",
            "the embedding carries the p pattern into the p1 pattern",
            not stray, str(stray[:4]) if stray else
            f"{len(p_primed)} generators land inside")
    return rep


def _in_span(target, bas):
    try:
        bas.coefficients_of(target)
    except NotInSpanError:
        return False
    return True


def _monomial_coefficient_matrices(m):
    """Split a Grassmann-coefficient matrix into numeric matrices per
    odd monomial key."""
    keys = {}
    for (i, j), p in m.entries.items():
        for even_part, odd_part, coeff in p.monomials():
            keys.setdefault((even_part, odd_part), {})[(i, j)] = coeff
    out = []
    for key in sorted(keys, key=repr):
        entries = keys[key]
        out.append(
            SuperMatrix.build(m.rows, m.cols,
                              {k: v for k, v in entries.items()}, parity=0)
        )
    return out


@_timed
def suite_imP_witness(k1, l1):
    """The witness bracket showing the image is larger than the bordered
    subalgebra: two explicit odd-type matrices with Grassmann blocks whose
    commutator has first-row/first-column support."""
    if k1 < 1 or l1 < 1:
        raise ValueError("the imP witness needs k1 >= 1 and l1 >= 1")
    rep = SuiteReport(f"imP-witness(k1={k1},l1={l1})")
    shape = BlockShape(2 * k1, 2 * l1, (k1, k1), (l1, l1))
    ctx = RingContext()
    a_names = [f"a{w}_{i}_{j}" for w in (1, 2)
               for i in range(1, k1 + 1) for j in range(1, l1 + 1)]
    b_names = [f"b{w}_{j}" for w in (1, 2) for j in range(1, l1 + 1)]
    ctx.odds(*(a_names + b_names))
    v = ctx.var

    def a(w, i, j):
        return v(f"a{w}_{i}_{j}")

    def b(w, j):
        return v(f"b{w}_{j}")

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
    bracket = ma @ mb - mb @ ma

    expected = {}
    for i in range(k1):
        # block (2,1): -A1 B2^T + A2 B1^T, supported in the first column
        val = ctx.zero
        for j in range(l1):
            val = val - a(1, i + 1, j + 1) * b(2, j + 1) \
                      + a(2, i + 1, j + 1) * b(1, j + 1)
        if not val.is_zero():
            expected[(k1 + i, 0)] = val
        # block (1,2): -B2 A1^T + B1 A2^T, supported in the first row
        val = ctx.zero
        for j in range(l1):
            val = val - b(2, j + 1) * a(1, i + 1, j + 1) \
                      + b(1, j + 1) * a(2, i + 1, j + 1)
        if not val.is_zero():
            expected[(0, k1 + i)] = val
    want = SuperMatrix.build(shape, shape, expected, ctx=ctx, parity=0)
    rep.add("bracket-display",
            "the commutator equals the expected even matrix"
            " (-A1 B2^T + A2 B1^T | -B2 A1^T + B1 A2^T)",
            bracket == want, bracket.render() if bracket != want else
            f"{len(bracket.entries)} nonzero slots")

    def numeric(mat):
        """Replace each Grassmann generator by a distinct integer, keeping
        signs, and declare the result odd."""
        assigned = {}
        entries = {}
        for (i, j), p in sorted(mat.entries.items()):
            (_, odd_key, coeff), = list(p.monomials())
            if odd_key not in assigned:
                assigned[odd_key] = FieldScalar(len(assigned) + 2)
            entries[(i, j)] = coeff * assigned[odd_key]
        return SuperMatrix.build(shape, shape, entries, parity=1)

    ma_num = numeric(ma)
    mb_num = numeric(mb)
    gram = gram_form("primed", 2 * k1, l1)
    rep.add("witness-membership",
            "both witness matrices satisfy the primed defining equation;"
            " only the bordered one lies in the embedded subalgebra",
            is_member(ma_num, gram) and is_member(mb_num, gram)
            and j_image_contains(ma_num) and not j_image_contains(mb_num))

    full = basis("primed", 2 * k1, l1)
    full_even = OspBasis(full.flavor, full.sizes, full.gram,
                         full.even_generators())
    j_even = bordered_basis(basis("primed", 2 * k1 - 1, l1).even_generators())
    pieces = _monomial_coefficient_matrices(bracket)
    in_full = all(_in_span(p, full_even) for p in pieces)
    outside = any(not _in_span(p, j_even) for p in pieces)
    rep.add("outside-j-image",
            "the bracket lies in the even part but escapes the embedded"
            " subalgebra",
            bool(pieces) and in_full and outside,
            f"{len(pieces)} Grassmann components")
    self_br = ma_num.superbracket(ma_num)
    rep.add("self-bracket-control",
            "the bordered witness brackets with itself inside the embedded"
            " subalgebra",
            _in_span(self_br, j_even))
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


def run_all(max_size=3):
    """Run ``DEFAULT_RUNS``, leaving out a run whose sizes exceed
    ``max_size`` unless its suite is UNCAPPED."""
    cap = max(1, int(max_size))
    reports = []
    for suite, args in DEFAULT_RUNS:
        fn, params = SUITES[suite]
        if suite in UNCAPPED or all(v <= cap for v in args[:len(params)]):
            reports.append(fn(*args))
    return reports
