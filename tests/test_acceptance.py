"""Acceptance gate: the structural claims, exact arithmetic, desk scale.

Each test covers one numbered criterion, collects failures instead of
stopping at the first, prints a single pass/fail line (visible with
``pytest -s``), and enforces its runtime budget.  Every comparison is
exact equality; there are no tolerances anywhere.
"""

import random
import sys
import time
from contextlib import contextmanager

from superflag.charts import (
    act,
    build_chart,
    fundamental_field,
    isotropic_chart,
    lemma_eta_field,
    lemma_eta_generator,
    lemma_h_field,
    lemma_h_generator,
    validate_flag_type,
)
from superflag.matrices import BlockShape, SuperMatrix
from superflag.osp import (
    PARABOLIC_TAGS,
    basis,
    basis_change_S,
    center_from_constants,
    closure_check,
    gram_form,
)
from superflag.ring import RingContext
from superflag.scalars import FieldScalar
from superflag.suites import suite_imP_witness
from superflag.weights import (
    RootSystem,
    Weight,
    bwb_dominant_filter,
    fiber_description,
    psi_highest_weights,
    root_system,
)

from oracles import (
    coefficients_of,
    conjugate,
    defining_residual,
    dependent_values,
    embed_j,
    formal_isotropic_chart,
    parabolic_basis,
    residual_entries,
    substitute,
    super_jacobi_holds,
)


@contextmanager
def criterion(number, label, budget, capture=None):
    t0 = time.perf_counter()
    failures = []
    ok = False
    try:
        yield failures
        ok = not failures
    finally:
        elapsed = time.perf_counter() - t0
        status = "PASS" if ok else "FAIL"
        line = f"criterion {number}: {status} - {label} ({elapsed:.2f}s)"
        if capture is not None:
            # suspend fd capture so the line reaches the real stdout
            with capture.disabled():
                print(line, flush=True)
        else:
            print(line, file=sys.__stdout__ or sys.stdout, flush=True)
    assert not failures, f"criterion {number}: {failures[:5]}"
    assert elapsed < budget, (
        f"criterion {number} exceeded its {budget}s budget: {elapsed:.1f}s"
    )


def test_criterion_1_defining_relations(capfd):
    with criterion(1, "defining relations, counts, closure, Jacobi",
                   30, capture=capfd) as failures:
        for m in range(4):
            for n in range(4):
                if m == 0 and n == 0:
                    continue
                bas = basis("odd", m, n)
                even = m * (2 * m + 1) + n * (2 * n + 1)
                odd = 2 * n * (2 * m + 1)
                if (len(bas.even_generators()), len(bas.odd_generators())) \
                        != (even, odd):
                    failures.append(("count", m, n))
                bad = [g.tag for g in bas
                       if not defining_residual(g.matrix, bas.gram).is_zero()]
                if bad:
                    failures.append(("defining", m, n, bad[:3]))
        for m in range(3):
            for n in range(3):
                if m == 0 and n == 0:
                    continue
                bas = basis("odd", m, n)
                if closure_check(bas).failures:
                    failures.append(("closure", m, n))
                gens = list(bas)
                rng = random.Random(1000 * m + n)
                triples = (
                    [(x, y, z) for x in gens for y in gens for z in gens]
                    if len(gens) <= 12
                    else [tuple(rng.choice(gens) for _ in range(3))
                          for _ in range(400)]
                )
                for x, y, z in triples:
                    if not super_jacobi_holds(x.matrix, y.matrix, z.matrix):
                        failures.append(("jacobi", m, n, x.tag, y.tag, z.tag))
                        break


def test_criterion_2_center_trivial(capfd):
    with criterion(2, "center is {0} at (1,1),(2,1),(1,2),(2,2)",
                   10, capture=capfd) as failures:
        for m, n in ((1, 1), (2, 1), (1, 2), (2, 2)):
            bas = basis("odd", m, n)
            z = center_from_constants(bas, closure_check(bas))
            if z != []:
                failures.append((m, n, len(z)))


def test_criterion_3_fundamental_fields(capfd):
    with criterion(3, "closed-form h_i and eta fields are fundamental"
                      " (one-step tails)", 20, capture=capfd) as failures:
        cases = [
            (2, 1, ((1,), (0,))),
            (2, 2, ((1,), (1,))),
            (3, 1, ((1,), (1,))),
        ]
        for k1, l1, tail in cases:
            iso = isotropic_chart(k1, l1, tail=tail)
            for i in range(1, l1 + 1):
                got = fundamental_field(lemma_h_generator(iso, i), iso.chart)
                if got != lemma_h_field(iso, i):
                    failures.append(("h", k1, l1, i, got.render()))
            for a in range(1, l1 + 1):
                for b in range(1, k1):
                    got = fundamental_field(
                        lemma_eta_generator(iso, a, b), iso.chart)
                    if got != lemma_eta_field(iso, a, b):
                        failures.append(("eta", k1, l1, a, b, got.render()))


def test_criterion_4_isotropy(capfd):
    with criterion(4, "isotropy residual vanishes; fields annihilate the"
                      " relations", 20, capture=capfd) as failures:
        for k1 in (1, 2, 3):
            for l1 in (1, 2):
                iso = isotropic_chart(k1, l1)
                res = iso.residual()
                for i in range(res.rows.total):
                    for j in range(res.cols.total):
                        if not res[i, j].is_zero():
                            failures.append(("residual", k1, l1, i, j))
                formal = formal_isotropic_chart(k1, l1)
                solution = dependent_values(iso, formal)
                entries = residual_entries(formal, iso.gram)
                for entry in entries:
                    if not substitute(entry, solution).is_zero():
                        failures.append(("relations", k1, l1))
                        break
                gens = [lemma_h_generator(iso, i) for i in range(1, l1 + 1)]
                gens += [lemma_eta_generator(iso, a, b)
                         for a in range(1, l1 + 1) for b in range(1, k1)]
                for g in gens:
                    w = fundamental_field(g, formal)
                    for entry in entries:
                        if not substitute(w.apply(entry), solution).is_zero():
                            failures.append(("tangency", k1, l1))
                            break


def test_criterion_5_bwb_table(capfd):
    with criterion(5, "dominant filter table for k1 in 1..6, l1 in 1..4",
                   1, capture=capfd) as failures:
        for k1 in range(1, 7):
            for l1 in range(1, 5):
                survivors = bwb_dominant_filter(
                    psi_highest_weights(k1, l1), root_system(k1, l1))
                desc = fiber_description(survivors)
                if k1 >= 2:
                    if not (len(survivors) == 1 and survivors[0].is_zero()
                            and desc == "ℂ"):
                        failures.append((k1, l1, desc))
                else:
                    if survivors != [] or desc != "{0}":
                        failures.append((k1, l1, desc))


def test_criterion_6_basis_change_and_embedding(capfd):
    with criterion(6, "S^ST Gram S = primed Gram; conjugation bijective;"
                      " dj bracket-preserving; dj(p) in p1", 30,
                   capture=capfd) as failures:
        for k1 in (1, 2, 3):
            for l1 in (1, 2, 3):
                for flavor, t in (("odd", 2 * k1 - 1), ("even", 2 * k1)):
                    s = basis_change_S(flavor, k1, l1)
                    src_gram = gram_form(
                        flavor, k1 - 1 if flavor == "odd" else k1, l1)
                    primed = gram_form("primed", t, l1)
                    if s.supertranspose() @ src_gram.matrix @ s \
                            != primed.matrix:
                        failures.append(("gram", flavor, k1, l1))
        for k1 in (1, 2):
            for l1 in (1, 2):
                for flavor, t in (("odd", 2 * k1 - 1), ("even", 2 * k1)):
                    if flavor == "odd":
                        src = basis("odd", k1 - 1, l1)
                    else:
                        src = basis("even", k1, l1)
                    s = basis_change_S(flavor, k1, l1)
                    s_inv = s.invert()
                    primed_gram = gram_form("primed", t, l1)
                    primed = basis("primed", t, l1)
                    for g in src:
                        img = conjugate(g.matrix, s, s_inv)
                        member = defining_residual(img, primed_gram).is_zero()
                        if not member or conjugate(img, s_inv, s) != g.matrix:
                            failures.append(("conj-fwd", flavor, k1, l1, g.tag))
                    for g in primed:
                        back = conjugate(g.matrix, s_inv, s)
                        if not defining_residual(back, src.gram).is_zero():
                            failures.append(("conj-back", flavor, k1, l1, g.tag))
                inner = basis("primed", 2 * k1 - 1, l1)
                gens = list(inner)
                for x in gens:
                    for y in gens:
                        lhs = embed_j(x.matrix.superbracket(y.matrix))
                        rhs = embed_j(x.matrix).superbracket(
                            embed_j(y.matrix))
                        if lhs != rhs:
                            failures.append(("dj-bracket", k1, l1, x.tag, y.tag))
                p = parabolic_basis("p", k1, l1)
                ambient = basis("primed", 2 * k1, l1)
                allowed = PARABOLIC_TAGS["p1"]
                for g in p:
                    coeffs = coefficients_of(ambient, embed_j(g.matrix))
                    stray = [t for t, c in coeffs.items()
                             if not c.is_zero()
                             and t.split(":")[0] not in allowed]
                    if stray:
                        failures.append(("dj-parabolic", k1, l1, g.tag, stray))


def test_criterion_7_image_witness(capfd):
    assert suite_imP_witness.__name__ == "suite_imP_witness"
    with criterion(7, "witness bracket outside the embedded subalgebra",
                   10, capture=capfd) as failures:
        for k1, l1 in ((1, 1), (2, 1), (2, 2)):
            report = suite_imP_witness(k1, l1)
            for record in report.records:
                if not record.ok:
                    failures.append((k1, l1, record.check_id))


def _group_like(rng, ctx, shape, identity_rows, odd_vars):
    entries = {}
    n = shape.total
    for i in range(n):
        for j in range(n):
            even_slot = shape.is_odd_index(i) == shape.is_odd_index(j)
            if even_slot:
                val = FieldScalar(rng.randint(-2, 2))
                if i == j:
                    val = FieldScalar(rng.choice([1, -1, 2]))
                if i in identity_rows and j not in identity_rows:
                    val = FieldScalar(0)
                p = ctx.scalar(val)
                if rng.random() < 0.5:
                    p = p + odd_vars[rng.randrange(len(odd_vars))] * \
                        odd_vars[rng.randrange(len(odd_vars))] * \
                        FieldScalar(rng.randint(-1, 1))
                if not p.is_zero():
                    entries[(i, j)] = p
            elif rng.random() < 0.5:
                entries[(i, j)] = odd_vars[rng.randrange(len(odd_vars))] * \
                    FieldScalar(rng.randint(-2, 2))
    return SuperMatrix.build(shape, shape, entries, ctx=ctx, parity=0)


def test_criterion_8_action_coherence(capfd):
    with criterion(8, "act(identity) fixes charts; act composes over"
                      " products", 30, capture=capfd) as failures:
        ft = validate_flag_type((3, 1), (2, 1))
        chart = build_chart(ft)
        ident = SuperMatrix.identity(BlockShape(3, 2), chart.ctx)
        if act(ident, chart) != chart:
            failures.append("identity")
        ext = chart.ctx.extended(odd=("q1", "q2", "q3", "q4"))
        odd_vars = [ext.var(f"q{i}") for i in range(1, 5)]
        shape = BlockShape(3, 2)
        identity_rows = {0, 3}
        rng = random.Random(77002)
        for trial in range(20):
            l1 = _group_like(rng, ext, shape, identity_rows, odd_vars)
            l2 = _group_like(rng, ext, shape, identity_rows, odd_vars)
            if act(l2, act(l1, chart)) != act(l2 @ l1, chart):
                failures.append(("composition", trial))


def test_criterion_9_property_suites(capfd):
    with criterion(9, "algebraic property suites with fixed seeds",
                   30, capture=capfd) as failures:
        rng = random.Random(90909)
        ctx = RingContext()
        ctx.evens("u", "v")
        ctx.odds("th1", "th2", "th3")

        def rand_poly():
            poly = ctx.zero
            for _ in range(rng.randint(1, 3)):
                term = ctx.scalar(FieldScalar(rng.randint(-3, 3)))
                for name in ("u", "v", "th1", "th2", "th3"):
                    if rng.random() < 0.4:
                        term = term * ctx.var(name)
                poly = poly + term
            return poly

        # supercommutativity on homogeneous sampled pairs
        for _ in range(60):
            p, q = rand_poly(), rand_poly()
            if p.is_homogeneous() and q.is_homogeneous():
                sign = -1 if (p.parity() and q.parity()) else 1
                if p * q != q * p * sign:
                    failures.append(("supercommutativity", p.render()))
        # odd derivative anticommutation
        for _ in range(40):
            p = rand_poly()
            if p.left_derivative("th1").left_derivative("th2") != \
                    -(p.left_derivative("th2").left_derivative("th1")):
                failures.append(("derivative-anticommute", p.render()))

        # supertranspose product rule on random parity-homogeneous matrices
        sh = BlockShape(2, 1)

        def rand_mat(parity):
            entries = {}
            for i in range(sh.total):
                for j in range(sh.total):
                    slot = int(sh.is_odd_index(i)) ^ int(sh.is_odd_index(j))
                    if slot == parity and rng.random() < 0.8:
                        entries[(i, j)] = FieldScalar(rng.randint(-3, 3))
            return SuperMatrix.build(sh, sh, entries, parity=parity)

        for pa in (0, 1):
            for pb in (0, 1):
                for _ in range(10):
                    a, b = rand_mat(pa), rand_mat(pb)
                    lhs = (a @ b).supertranspose()
                    rhs = b.supertranspose() @ a.supertranspose()
                    if pa and pb:
                        rhs = -rhs
                    if lhs != rhs:
                        failures.append(("st-product", pa, pb))
        # two-sided inversion
        ident = SuperMatrix.identity(sh)
        inverted = 0
        while inverted < 12:
            m = rand_mat(0)
            try:
                inv = m.invert()
            except Exception:
                continue
            inverted += 1
            if m @ inv != ident or inv @ m != ident:
                failures.append(("inversion", m.render()))
        # dominance: simple-root criterion equals all-positive-roots
        rs = RootSystem(3, 2)
        for _ in range(150):
            w = Weight(tuple(rng.randint(-3, 3) for _ in range(3)),
                       tuple(rng.randint(-3, 3) for _ in range(2)))
            if rs.is_dominant(w) != all(
                    w.inner(a) >= 0 for a in rs.simple_roots()):
                failures.append(("dominance", w.render()))
