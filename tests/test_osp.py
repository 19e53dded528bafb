"""Orthosymplectic algebras: bases, brackets, center, isomorphisms,
parabolic patterns."""

import ast
import hashlib
import random
from pathlib import Path

import pytest

from superflag import osp, suites
from superflag.linalg import RankTracker
from superflag.matrices import BlockShape, ParityError, SuperMatrix
from superflag.osp import (
    BracketTable,
    Generator,
    NotInSpanError,
    OspBasis,
    PARABOLIC_TAGS,
    basis,
    basis_change_S,
    center_from_constants,
    closure_check,
    conjugate_entries,
    constant_entries,
    dimension_counts,
    entry_lines,
    gram_form,
    jacobi_failures,
    membership_residual,
)
from superflag.ring import CONSTANT, RingContext
from superflag.scalars import FieldScalar, ONE, Q_MINUS_ONE, Q_ONE, Q_ZERO, \
    add_scaled, q_add, q_mul, q_neg

from oracles import (
    OneWayBracketTable,
    bordered_basis,
    coefficients_of,
    conjugate,
    defining_residual,
    defining_system,
    dense_row,
    embed_j,
    even_span_route,
    j_image_contains,
    original_parabolic_basis,
    parabolic_basis,
    parabolic_strays,
    reassembled_read_off,
    sparse_row,
    stabilized_subspace_indices,
    super_jacobi_holds,
    witness_membership,
    witness_numeric,
    witness_numeric_route,
)


@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_odd_flavor_dimension_formula(m, n):
    if m == 0 and n == 0:
        return
    bas = basis("odd", m, n)
    even, odd = dimension_counts("odd", m, n)
    assert even == m * (2 * m + 1) + n * (2 * n + 1)
    assert odd == 2 * n * (2 * m + 1)
    assert len(bas.even_generators()) == even
    assert len(bas.odd_generators()) == odd


@pytest.mark.parametrize("flavor,a,b", [
    ("even", 1, 1), ("even", 2, 1), ("even", 2, 2),
    ("primed", 1, 1), ("primed", 3, 1), ("primed", 4, 2),
    ("gl", 2, 1), ("gl", 1, 2),
])
def test_other_flavor_counts(flavor, a, b):
    bas = basis(flavor, a, b)
    even, odd = dimension_counts(flavor, a, b)
    assert (len(bas.even_generators()), len(bas.odd_generators())) == (even, odd)


@pytest.mark.parametrize("flavor,a,b", [
    ("odd", 1, 1), ("odd", 2, 1), ("odd", 1, 2),
    ("even", 2, 1), ("primed", 3, 1), ("primed", 4, 1),
])
def test_defining_equation_all_generators(flavor, a, b):
    bas = basis(flavor, a, b)
    for g in bas:
        assert defining_residual(g.matrix, bas.gram).is_zero(), g.tag
    # a perturbed generator violates the equation
    probe = bas.generators[0].matrix
    spoiled = probe + SuperMatrix.build(
        probe.rows, probe.cols, {(0, 0): ONE}, parity=0)
    assert not defining_residual(spoiled, bas.gram).is_zero()
    assert membership_residual(spoiled, bas.gram) != \
        membership_residual(probe, bas.gram)


def _sizes(first, second):
    return [(a, b) for a in range(first + 1) for b in range(second + 1)
            if a or b]


#: sha256 over (sizes, tag, parity, primary slot, rendered matrix) of every
#: generator of each flavor, sizes up to 3 (primed t up to 6), taken from the
#: hand-written generator lists that the family table replaced.  Tags and
#: their order feed the structure constants in the report; the nullspace
#: oracle below sees neither.
PINNED_BASES = {
    "odd": (_sizes(3, 3), "191342748c2dea72c7347f440012fb85"
                          "e771e4adf6ae6e4a33f38318f3da9558"),
    "even": (_sizes(3, 3), "9adfc72b5968381bf20952bafd3c8e11"
                           "b5abfeb9c1b8cdfdec8219392fb57a76"),
    "primed": (_sizes(6, 3), "20fed8cca7601d0bce562c2e542eff1c"
                             "2c28aa9d4c492ac42d1f0a0c4376bc81"),
    "gl": (_sizes(3, 3), "b2396c74e1deddb8958e9164e3561fa4"
                         "d25701235f904a96d85df0d5c57b797a"),
}


@pytest.mark.parametrize("flavor", sorted(PINNED_BASES))
def test_bases_match_pinned_digest(flavor):
    sizes, want = PINNED_BASES[flavor]
    h = hashlib.sha256()
    for a, b in sizes:
        for g in basis(flavor, a, b):
            h.update(f"{a},{b}|{g.tag}|{g.parity}|{g.primary}|"
                     f"{g.matrix.render()}\n".encode())
    assert h.hexdigest() == want


@pytest.mark.parametrize("flavor,a,b",
                         [(f,) + s for f in ("odd", "even", "primed", "gl")
                          for s in _sizes(5, 5)]
                         + [("primed", 6, b) for b in range(4)])
def test_basis_is_a_basis_of_the_nullspace(flavor, a, b):
    """Independent oracle (``oracles.defining_system``): the generators are
    independent solutions of the defining equation, each of one parity,
    as many as the solution space has dimensions, and the solution space
    splits as dimension_counts says.  Each ``Generator.matrix`` is
    ``SuperMatrix.build`` of its table with its parity; the gl generators
    are the unit matrices, one per slot."""
    gram = None if flavor == "gl" else gram_form(flavor, a, b)
    shape = BlockShape(a, b) if gram is None else gram.shape
    slots, system = defining_system(shape, gram)
    p = shape.even

    def parities(vec):
        return {int(i >= p) ^ int(j >= p)
                for (i, j), x in zip(slots, vec) if x}

    split = [0, 0]
    null = [dense_row(vec, len(slots)) for vec in system.nullspace()]
    for vec in null:
        (parity,) = parities(vec)
        split[parity] += 1
    assert tuple(split) == dimension_counts(flavor, a, b)

    bas = basis(flavor, a, b)
    assert len(bas) == len(null)
    independent = RankTracker(len(slots))
    for g in bas:
        vec = [g.matrix[slot].scalar_part() for slot in slots]
        assert parities(vec) == {g.parity}, g.tag
        entries = sparse_row(vec)
        for row in system.rows:
            dot = Q_ZERO
            for c in row.keys() & entries.keys():
                dot = q_add(dot, q_mul(row[c], entries[c]))
            assert dot == Q_ZERO, g.tag
        assert independent.add(entries), g.tag
        built = SuperMatrix.build(
            shape, shape,
            {slot: FieldScalar.from_q(q) for slot, q in g.entries.items()},
            parity=g.parity)
        assert g.shape == shape and g.matrix == built, g.tag
        assert g.matrix.parity == built.parity == g.parity, g.tag
    if gram is None:
        assert sorted(g.primary for g in bas) == slots
        assert all(g.entries == {g.primary: Q_ONE} for g in bas)


def _bordered_even_basis(k1, l1):
    """Even generators of primed(2k1-1|2l1), zero-bordered into
    primed(2k1|2l1), each primary slot shifted with its matrix."""
    return bordered_basis(
        basis("primed", 2 * k1 - 1, l1).even_generators()).generators


@pytest.mark.parametrize("case",
                         [(f,) + s for f in ("odd", "even", "gl")
                          for s in _sizes(3, 3)]
                         + [("primed",) + s for s in _sizes(6, 3)]
                         + [("bordered", k1, l1) for k1 in (1, 2, 3)
                            for l1 in (1, 2, 3)])
def test_primary_slots_are_private(case):
    """OspBasis.read_off reads each coefficient off its generator's primary
    slot, +1 there, and checks every other entry against the one generator
    whose support holds it: the supports, primaries included, are
    pairwise disjoint."""
    flavor, a, b = case
    gens = _bordered_even_basis(a, b) if flavor == "bordered" \
        else basis(flavor, a, b).generators
    owner = {}
    for g in gens:
        assert g.matrix[g.primary] == ONE, g.tag
        for slot in g.matrix.entries:
            assert owner.setdefault(slot, g.tag) == g.tag, (g.tag,
                                                            owner[slot])


def test_basis_refuses_generators_that_share_a_slot():
    """A generator table holding another generator's entry, or missing its
    own primary slot, is refused with the slot and the tags."""
    bas = basis("odd", 1, 1)
    gens = list(bas.generators)
    first = gens[0]
    other = next(g for g in gens[1:] if len(g.entries) == 2)
    slot = next(s for s in other.entries if s != other.primary)
    gens[0] = Generator(first.tag, first.parity,
                        {**first.entries, slot: Q_ONE}, first.primary,
                        first.shape)
    with pytest.raises(ValueError) as err:
        OspBasis(bas.gram, gens)
    assert str(err.value) == (f"slot {slot} is shared by generators"
                              f" {first.tag} and {other.tag}")
    gens[0] = Generator(first.tag, first.parity, dict(first.entries),
                        other.primary, first.shape)
    with pytest.raises(ValueError, match=first.tag):
        OspBasis(bas.gram, gens)


def _read_off_inputs(bas, rng):
    """Entry tables to read off ``bas``: seeded in-span combinations with
    unit and non-unit coefficients, and each spoiled by a slot no
    generator owns, a missing or sign-flipped partner entry or a missing
    primary; the empty table."""
    gens = bas.generators
    n = gens[0].shape.total
    pool = [FieldScalar.parse(t).q for t in
            ("1", "-1", "2", "-1/3", "i", "r2", "1/2 - i*r2")]
    unowned = [(i, j) for i in range(n) for j in range(n)
               if (i, j) not in bas.owners] + [(n, n)]
    inputs = [{}]
    for _ in range(12):
        chosen = rng.sample(range(len(gens)),
                            rng.randint(1, min(4, len(gens))))
        combo = {}
        for i in chosen:
            add_scaled(combo, gens[i].entries, rng.choice(pool))
        inputs += [combo, {**combo, rng.choice(unowned): Q_ONE}]
        pairs = [gens[i] for i in chosen if len(gens[i].entries) == 2]
        if pairs:
            g = rng.choice(pairs)
            partner = next(s for s in g.entries if s != g.primary)
            inputs += [{s: c for s, c in combo.items() if s != partner},
                       {**combo, partner: q_neg(combo[partner])},
                       {s: c for s, c in combo.items() if s != g.primary}]
    return inputs


@pytest.mark.parametrize("case", [(f, a, b) for f in ("odd", "even", "gl")
                                  for a in (1, 2, 3) for b in (1, 2, 3)]
                         + [("primed", 5, 2), ("primed", 6, 1),
                            ("bordered", 2, 2),
                            ("scaled", ("odd", 2, 1), "A12:1,2", "2"),
                            ("scaled", ("odd", 1, 2), "C12:1,2", "i*r2"),
                            ("scaled", ("gl", 2, 1), "E:1,1", "2"),
                            ("forced", ("odd", 2, 1), "A12:1,2", "2")])
def test_read_off_matches_the_reassembly_oracle(case):
    """OspBasis.read_off, one pass against each slot's owner, returns what
    the re-assembled combination returns, None included, on in-span and
    spoiled tables.  A scaled generator, its primary not 1, reads as out
    of the span on both sides; a forced one, 1 at its primary and 2 at its
    other entry, reads as in it."""
    bas = _closure_oracle_basis(case)
    rng = random.Random(29)
    outcomes = set()
    for entries in _read_off_inputs(bas, rng):
        got = bas.read_off(entries)
        assert got == reassembled_read_off(bas, entries), entries
        outcomes.add(got is None)
    assert outcomes == {True, False}


def test_closure_osp_3_2():
    bas = basis("odd", 1, 1)
    table = closure_check(bas)
    assert table.failures == []
    assert len(table.constants) == 43
    tags = {t for t, _, _, _ in table.constants}
    assert tags <= set(bas.tags())


@pytest.mark.parametrize("m,n", [(2, 1), (1, 2)])
def test_closure_larger(m, n):
    assert closure_check(basis("odd", m, n)).failures == []


def test_jacobi_exhaustive_smallest():
    bas = basis("odd", 1, 1)
    gens = list(bas)
    for x in gens:
        for y in gens:
            for z in gens[::3]:
                assert super_jacobi_holds(x.matrix, y.matrix, z.matrix), (
                    x.tag, y.tag, z.tag)


def test_jacobi_sampled_2_1():
    bas = basis("odd", 2, 1)
    gens = list(bas)
    rng = random.Random(424242)
    for _ in range(150):
        x, y, z = (rng.choice(gens) for _ in range(3))
        assert super_jacobi_holds(x.matrix, y.matrix, z.matrix)


#: sha256 over (tag_p, tag_q, tag_r, rendered coefficient) of
#: closure_check's structure constants, recorded before the Jacobi check
#: and the center were derived from them.
PINNED_CONSTANTS = {
    ("odd", 1, 1): "0832aba9bbccc32f5e46df1b901ba4e3"
                   "180c45ae784093e07583460620ed0df1",
    ("odd", 2, 1): "c99c6e8037e67050192ad4ceb62f1a5d"
                   "f5b73961dbde0cdb67b1839adaf74673",
    ("odd", 1, 2): "91f736b71b10228a618ae5dc160e9a49"
                   "7c9c3bfce70e67dca6b491667fa9c07b",
    ("odd", 2, 2): "28e78f38e885096851c4dd44158dde56"
                   "6924fcd8b0bf08cc6169a74554098dfe",
    ("even", 1, 1): "593ac142fbd363194eb7088c09755306"
                    "847a21ed90822b7e9e6892cf5a0960b8",
    ("even", 2, 1): "6ef667b8a10ceb3d6ce34fa7966c35ae"
                    "9bc334321ac87e9d7d2869ba27136dbd",
    ("gl", 2, 1): "d072b5b2802b6abb3419c5c8849e5691"
                  "e960e1a9dd13180e66cadf95fe33c202",
}


@pytest.mark.parametrize("case", sorted(PINNED_CONSTANTS))
def test_structure_constants_match_pinned_digest(case):
    table = closure_check(basis(*case))
    assert table.failures == []
    h = hashlib.sha256()
    for p, q, r, c in table.constants:
        h.update(f"{p}|{q}|{r}|{FieldScalar.from_q(c).render()}\n".encode())
    assert h.hexdigest() == PINNED_CONSTANTS[case]


def _all_pairs_closure(bas):
    """closure_check's all-pairs form: superbracket every generator pair,
    whether or not the matrices meet, and re-expand in the basis.  Returns
    the structure constants, each coefficient as its 5-tuple, and the
    failed pairs."""
    constants, failures = [], []
    gens = bas.generators
    for p in range(len(gens)):
        for q in range(p, len(gens)):
            gp, gq = gens[p], gens[q]
            if p == q and gp.parity == 0:
                continue
            br = gp.matrix.superbracket(gq.matrix)
            try:
                coeffs = coefficients_of(bas, br)
            except NotInSpanError:
                failures.append((gp.tag, gq.tag))
                continue
            for tag, c in sorted(coeffs.items()):
                constants.append((gp.tag, gq.tag, tag, c.q))
    return constants, failures


def _closure_oracle_basis(case):
    kind = case[0]
    if kind == "bordered":
        return bordered_basis(basis("primed", 2 * case[1] - 1,
                                    case[2]).generators)
    if kind == "parabolic":
        return parabolic_basis(case[1], case[2], case[3])
    if kind in ("scaled", "forced"):
        return _scale_one(basis(*case[1]), case[2],
                          FieldScalar.parse(case[3]), kind == "forced")
    return basis(*case)


@pytest.mark.parametrize("case", [
    ("odd", 1, 1), ("odd", 1, 2), ("odd", 1, 3), ("odd", 2, 1),
    ("odd", 2, 2), ("odd", 2, 3), ("odd", 3, 1), ("odd", 3, 2),
    ("odd", 3, 3), ("even", 2, 2), ("even", 3, 2), ("primed", 5, 2),
    ("primed", 6, 2), ("primed", 7, 2),
    ("gl", 2, 1), ("gl", 3, 2), ("odd", 1, 0), ("odd", 0, 1),
    ("bordered", 2, 2),
    ("parabolic", "p", 3, 2), ("parabolic", "p1", 2, 1),
    ("scaled", ("odd", 2, 1), "A12:1,2", "2"),
    ("scaled", ("odd", 2, 1), "B12:1,1", "i*r2"),
    ("scaled", ("odd", 1, 2), "C12:1,2", "i*r2"),
    ("scaled", ("gl", 2, 1), "E:1,1", "2"),
    ("forced", ("odd", 2, 1), "A12:1,2", "2"),
])
def test_closure_check_matches_all_pairs_oracle(case):
    """The scaled bases, one generator times 2 or i*sqrt2, put entries
    other than 1 and -1 into the brackets, which no library basis does;
    their primary slot no longer holds 1, so the brackets landing on it
    fail on both sides.  The forced one keeps 1 there and has 2 at its
    other entry."""
    bas = _closure_oracle_basis(case)
    table = closure_check(bas)
    constants, failures = _all_pairs_closure(bas)
    assert table.failures == failures
    assert table.constants == constants
    if case[0] == "parabolic":
        assert table.failures
    if case[0] == "scaled":
        assert {c for _, _, _, c in table.constants} - {Q_ONE, Q_MINUS_ONE}


def test_odd_self_bracket_matches_the_matrix_superbracket():
    """odd_self_bracket on seeded odd tables with entries other than 1 and
    -1 equals the matrix superbracket [X, X], and is nonzero on some."""
    rng = random.Random(28)
    shape = BlockShape(3, 4)
    pool = [FieldScalar.parse(t) for t in
            ("1", "-1", "2", "-1/3", "i", "r2", "1/2 - i*r2", "3*i + r2")]
    slots = [(i, j) for i in range(7) for j in range(7)
             if (i >= 3) ^ (j >= 3)]
    nonzero = 0
    for _ in range(40):
        x = {slot: rng.choice(pool)
             for slot in rng.sample(slots, rng.randint(1, 8))}
        mx = SuperMatrix.build(shape, shape, x, parity=1)
        got = osp.odd_self_bracket({s: c.q for s, c in x.items()})
        assert got == constant_entries(mx.superbracket(mx)), x
        nonzero += bool(got)
    assert nonzero


def test_self_bracket_makes_half_the_products(monkeypatch):
    """On the bordered (4,4) witness, whose entries are integers other than
    1 and -1, the self bracket multiplies once per product X[i,k] X[k,j]
    with a non-unit left factor: it forms XX alone and doubles it, where a
    route forming XX and XX again would make twice as many products."""
    real_table = suites._odd_table
    tables = []

    def recording_table(mat):
        tables.append(real_table(mat))
        return tables[-1]

    monkeypatch.setattr(suites, "_odd_table", recording_table)
    assert suites.suite_imP_witness(4, 4).ok
    monkeypatch.undo()
    table = tables[0]
    row_sizes = {}
    for i, _ in table:
        row_sizes[i] = row_sizes.get(i, 0) + 1
    products = sum(row_sizes.get(k, 0) for (_, k), u in table.items()
                   if u not in (Q_ONE, Q_MINUS_ONE))
    calls = []
    real_mul = osp.q_mul

    def counting_mul(x, y):
        calls.append(None)
        return real_mul(x, y)

    monkeypatch.setattr(osp, "q_mul", counting_mul)
    assert osp.odd_self_bracket(table)
    assert products > 0 and len(calls) == products


def test_closure_check_brackets_only_meeting_pairs(monkeypatch):
    """A guard against quadratic pair work: at osp(9|8) most of the
    144 * 145 / 2 generator pairs share no matrix index and are never
    bracketed.  closure_check's sweep expands each bracket it forms with
    one OspBasis.read_off call."""
    bas = basis("odd", 4, 4)
    calls = []
    real = OspBasis.read_off

    def counting(self, entries):
        calls.append(1)
        return real(self, entries)

    monkeypatch.setattr(OspBasis, "read_off", counting)
    pairs = len(bas) * (len(bas) + 1) // 2
    assert pairs == 10440
    assert closure_check(bas).failures == []
    assert 0 < len(calls) <= 0.3 * pairs


def test_center_reads_few_bracket_table_entries():
    """A guard against probing every (generator, probe) pair: at osp(9|8)
    center_from_constants looks up at most N^2 / 2 of the N^2 = 20,736
    ordered pairs of the bracket table.  The diagonal probes come first
    and fill most of the rank, and probing stops at full rank.  A sweep
    over the whole table counts one read per entry."""
    bas = basis("odd", 4, 4)
    table = closure_check(bas)
    reads = []

    class Counting(dict):
        def get(self, key, default=None):
            reads.append(key)
            return super().get(key, default)

        def __getitem__(self, key):
            reads.append(key)
            return super().__getitem__(key)

        def __iter__(self):
            reads.extend(super().keys())
            return super().__iter__()

        def items(self):
            reads.extend(super().keys())
            return super().items()

        def values(self):
            reads.extend(super().keys())
            return super().values()

    table.table = Counting(table.table)
    assert len(bas) ** 2 // 2 == 10368
    assert center_from_constants(bas, table) == []
    assert 0 < len(reads) <= len(bas) ** 2 // 2


def _all_triples(bas):
    tags = bas.tags()
    return [(x, y, z) for x in tags for y in tags for z in tags]


@pytest.mark.parametrize("case", [("odd", 1, 1), ("gl", 1, 1)])
def test_jacobi_from_constants_matches_matrix_oracle(case):
    bas = basis(*case)
    triples = _all_triples(bas)
    table = closure_check(bas)
    assert jacobi_failures(table, triples) == []
    assert all(super_jacobi_holds(bas[x].matrix, bas[y].matrix,
                                  bas[z].matrix) for x, y, z in triples[::7])


def test_jacobi_detects_every_flipped_constant():
    """Each sign flip of a single structure constant of osp(3|2) breaks
    the Jacobi identity on some triple; the true table breaks none."""
    bas = basis("odd", 1, 1)
    closure = closure_check(bas)
    triples = _all_triples(bas)
    constants = list(closure.constants)
    for i, (p, q, r, c) in enumerate(constants):
        mutated = constants[:i] + [(p, q, r, q_neg(c))] + constants[i + 1:]
        assert jacobi_failures(BracketTable(bas, mutated, closure.failures),
                               triples), (p, q, r)
    assert closure.constants == constants


def test_jacobi_fails_every_triple_needing_a_missing_bracket():
    bas = basis("odd", 1, 1)
    closure = closure_check(bas)
    x, y = bas.tags()[0], bas.tags()[3]
    broken = BracketTable(bas, closure.constants, [(x, y)])
    failing = set(jacobi_failures(broken, _all_triples(bas)))
    assert (x, y, y) in failing and (y, x, x) in failing
    assert jacobi_failures(closure, sorted(failing)) == []
    with pytest.raises(NotInSpanError):
        center_from_constants(bas, broken)


@pytest.mark.parametrize("pair", [(0, 3), (3, 7), (5, 9)])
def test_jacobi_fails_exactly_the_triples_needing_a_missing_bracket(pair):
    """With one pair of osp(3|2) marked as failed, the failing triples are
    those whose three sides read that pair in either order, as an outer
    bracket or as one composed from an outer bracket's terms."""
    bas = basis("odd", 1, 1)
    whole = closure_check(bas)
    tags = bas.tags()
    x0, y0 = tags[pair[0]], tags[pair[1]]
    missing = {(x0, y0), (y0, x0)}

    def needs(x, y, z):
        read = {(y, z), (x, y), (x, z)}
        read |= {(x, r) for r in whole.of(y, z)}
        read |= {(r, z) for r in whole.of(x, y)}
        read |= {(y, r) for r in whole.of(x, z)}
        return bool(read & missing)

    triples = _all_triples(bas)
    broken = BracketTable(bas, whole.constants, [(x0, y0)])
    assert jacobi_failures(broken, triples) == [t for t in triples
                                                if needs(*t)]


def test_osp_defining_suite_reports_a_missing_bracket(monkeypatch):
    """When closure cannot expand a bracket, the suite's Jacobi and center
    checks fail too instead of reading the gap as zero."""
    real = suites.closure_check

    def broken(bas):
        table = real(bas)
        p, q = table.constants[0][:2]
        return BracketTable(bas, table.constants, [(p, q)])

    monkeypatch.setattr(suites, "closure_check", broken)
    records = {r.check_id: r for r in suites.suite_osp_defining(1, 1).records}
    assert not records["closure"].ok and not records["jacobi"].ok
    assert not records["center"].ok
    assert records["center"].witness == "undetermined: closure failed"


def _late_failure(bas, table):
    """``table`` of ``bas`` with the pair of its last structure constant
    marked as failed."""
    p, q = table.constants[-1][:2]
    return BracketTable(bas, table.constants, [(p, q)])


def test_center_raises_on_a_late_closure_failure():
    """At osp(5|4) the center's rank fills before the probes reach the
    last constant's pair; a failure there still leaves the center
    undetermined, whatever order the probes come in."""
    bas = basis("odd", 2, 2)
    table = _late_failure(bas, closure_check(bas))
    with pytest.raises(NotInSpanError):
        center_from_constants(bas, table)


def test_osp_defining_suite_reports_a_late_missing_bracket(monkeypatch):
    real = suites.closure_check
    monkeypatch.setattr(suites, "closure_check",
                        lambda bas: _late_failure(bas, real(bas)))
    records = {r.check_id: r for r in suites.suite_osp_defining(2, 2).records}
    assert not records["closure"].ok and not records["center"].ok
    assert records["center"].witness == "undetermined: closure failed"


#: sha256 over ``"{count} {jacobi_triples(tags)}"`` lines, tags T0, T1, ...,
#: at every tag count of osp(2m+1|2n) from (2,2) to (8,8), in increasing
#: order; taken when the draw became one ``Random.choices`` call.
PINNED_JACOBI = ("f487863dbb1788dd0164515da19bbd51"
                 "b4aa8a87fa94f4c3b18c5b3b02f1cd8c")


def test_jacobi_triples_match_pinned_digest():
    """The suite's Jacobi triples are pinned at every tag count it draws
    from up to (8,8); a Python whose ``choices`` draws another way fails
    here.  At most 12 tags give every triple."""
    counts = {sum(dimension_counts("odd", m, n))
              for m in range(2, 9) for n in range(2, 9)}
    h = hashlib.sha256()
    for count in sorted(counts):
        tags = [f"T{i}" for i in range(count)]
        h.update(f"{count} {suites.jacobi_triples(tags)}\n".encode())
    assert h.hexdigest() == PINNED_JACOBI
    tags = [f"T{i}" for i in range(12)]
    assert suites.jacobi_triples(tags) == [
        (x, y, z) for x in tags for y in tags for z in tags]
    assert len(suites.jacobi_triples(tags + ["T12"])) == 300


@pytest.mark.parametrize("case", [("odd", 1, 1), ("gl", 2, 1),
                                  ("primed", 3, 1)])
def test_two_way_bracket_table_matches_the_recursive_rule(case):
    """The table filled in both orders reads every ordered pair as the
    one-way table of the all-pairs matrix oracle and its recursion do,
    with and without a failed pair."""
    bas = basis(*case)
    closure = closure_check(bas)
    constants, failures = _all_pairs_closure(bas)
    tags = bas.tags()
    middle = constants[len(tags)][:2]
    for table, failed in ((closure, failures),
                          (BracketTable(bas, closure.constants, [middle]),
                           [middle])):
        oracle = OneWayBracketTable(bas, constants, failed)
        for a in tags:
            for b in tags:
                try:
                    want = oracle.of(a, b)
                except NotInSpanError:
                    with pytest.raises(NotInSpanError):
                        table.of(a, b)
                    continue
                assert table.of(a, b) == want, (a, b)


def test_center_reads_each_coefficient_back(monkeypatch):
    """A nullspace vector times 3 is still one, and the central matrix read
    back from it is 3 times the identity of gl(2|1)."""
    three = FieldScalar(3).q

    class Tripled(RankTracker):
        def nullspace(self):
            return [{k: q_mul(q, three) for k, q in vec.items()}
                    for vec in super().nullspace()]

    monkeypatch.setattr(osp, "RankTracker", Tripled)
    z, = _center("gl", 2, 1)
    assert z.parity == 0 and z == SuperMatrix.identity(z.rows) * 3


def _center(flavor, a, b):
    """center_from_constants on the constants of ``basis(flavor, a, b)``."""
    bas = basis(flavor, a, b)
    return center_from_constants(bas, closure_check(bas))


def _bracket_probing_center(flavor, a, b):
    """Center by matrix brackets: per parity sector, the coefficients c_g
    with sum c_g [g, X] = 0 entry by entry for every generator X."""
    bas = basis(flavor, a, b)
    out = []
    for parity in (0, 1):
        sector = [g for g in bas.generators if g.parity == parity]
        if not sector:
            continue
        tracker = RankTracker(len(sector))
        for probe in bas.generators:
            brackets = [g.matrix.superbracket(probe.matrix) for g in sector]
            for slot in sorted({k for br in brackets for k in br.entries}):
                tracker.add(sparse_row([br[slot].scalar_part()
                                     for br in brackets]))
        for vec in tracker.nullspace():
            acc = None
            for c, g in zip(dense_row(vec, len(sector)), sector):
                if c:
                    term = g.matrix * c
                    acc = term if acc is None else acc + term
            out.append(acc)
    return out


@pytest.mark.parametrize("case",
                         [(f,) + s for f in ("odd", "even")
                          for s in _sizes(2, 2)]
                         + [("gl", 1, 1), ("gl", 2, 1), ("gl", 2, 2),
                            ("gl", 3, 1)])
def test_center_matches_bracket_probing_oracle(case):
    got = _center(*case)
    assert got == _bracket_probing_center(*case)
    if case[0] == "gl":
        assert len(got) == 1


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2)])
def test_center_trivial(m, n):
    assert _center("odd", m, n) == []


def test_gl_center_is_identity_line():
    z = _center("gl", 2, 1)
    assert len(z) == 1
    mat = z[0]
    # the central element is a multiple of the identity
    diag = mat[0, 0]
    assert not diag.is_zero()
    for i in range(3):
        assert mat[i, i] == diag
    for i in range(3):
        for j in range(3):
            if i != j:
                assert mat[i, j].is_zero()


def test_coefficients_of_round_trip():
    bas = basis("odd", 1, 1)
    rng = random.Random(9)
    combo = None
    want = {}
    for g in bas:
        c = FieldScalar(rng.randint(-3, 3))
        if not c.is_zero():
            want[g.tag] = c
        term = g.matrix * c
        combo = term if combo is None else combo + term
    got = coefficients_of(bas, combo)
    assert {t: c for t, c in got.items() if not c.is_zero()} == want
    # read in generator order, whatever order the entries were built in
    reverse = None
    for g in reversed(bas.generators):
        if g.tag in want:
            term = g.matrix * want[g.tag]
            reverse = term if reverse is None else reverse + term
    assert list(coefficients_of(bas, reverse).items()) == list(want.items())


def test_coefficients_of_rejects_non_member():
    bas = basis("odd", 1, 1)
    sh = bas.gram.matrix.rows
    outside = SuperMatrix.build(sh, sh, {(0, 0): ONE}, parity=0)
    with pytest.raises(NotInSpanError):
        coefficients_of(bas, outside)


def test_coefficients_of_rejects_support_off_the_primary_slots():
    """A matrix whose entries all sit on forced (non-primary) slots reads
    off no coefficient; the re-assembly check still rejects it."""
    bas = basis("odd", 1, 1)
    primaries = {g.primary for g in bas}
    forced = sorted({slot for g in bas for slot in g.matrix.entries}
                    - primaries)
    assert forced
    sh = bas.gram.shape
    for slot in forced:
        outside = SuperMatrix.build(sh, sh, {slot: ONE})
        with pytest.raises(NotInSpanError):
            coefficients_of(bas, outside)


def test_coefficients_of_rejects_non_scalar_primary_entry():
    bas = basis("odd", 1, 1)
    ctx = RingContext()
    ctx.odds("theta")
    gen = bas.generators[0]
    candidate = gen.matrix.lift(ctx) * ctx.var("theta")
    assert not candidate[gen.primary].is_scalar()
    with pytest.raises(NotInSpanError, match="not scalar"):
        coefficients_of(bas, candidate)


def test_coefficients_of_rejects_non_scalar_forced_entry():
    """Primary slots read off exactly, but a forced slot carries a
    Grassmann term: the per-slot term dicts must differ."""
    bas = basis("odd", 1, 1)
    ctx = RingContext()
    ctx.odds("theta")
    gen = next(g for g in bas if len(g.matrix.entries) == 2)
    forced = next(slot for slot in gen.matrix.entries if slot != gen.primary)
    candidate = gen.matrix.lift(ctx) + SuperMatrix.build(
        gen.matrix.rows, gen.matrix.cols,
        {forced: ctx.var("theta")}, ctx=ctx, parity=None)
    assert candidate[gen.primary] == ctx.one
    with pytest.raises(NotInSpanError, match="not in the span"):
        coefficients_of(bas, candidate)


@pytest.mark.parametrize("case", [("odd", 2, 1), ("even", 1, 2),
                                  ("primed", 3, 1), ("gl", 2, 1)])
def test_cached_basis_is_immutable_and_repeatable(case):
    def rendered(bas):
        return [(g.tag, g.parity, g.primary, g.entries, g.matrix.render())
                for g in bas]

    first = basis(*case)
    assert isinstance(first.generators, tuple)
    with pytest.raises(AttributeError):
        first.generators.append(first.generators[0])
    with pytest.raises(AttributeError):
        first.generators[0].entries = {}
    again = basis(*case)
    assert again is first
    assert all(g.matrix is g.matrix for g in again)   # built once, kept
    assert rendered(again) == rendered(first)
    basis.cache_clear()
    gram_form.cache_clear()
    fresh = basis(*case)
    assert fresh is not first and rendered(fresh) == rendered(first)
    assert isinstance(parabolic_basis("p", 2, 1).generators, tuple)


def test_basis_equality_ignores_its_caches():
    """Bases with the same Gram and generators are equal whether or not
    either has read its entry table."""
    bas = basis("odd", 1, 1)
    same = OspBasis(bas.gram, bas.generators)
    assert bas == same
    same.entry_table()
    assert bas == same
    bas.entry_table()
    assert bas == same == OspBasis(bas.gram, bas.generators)
    assert bas != OspBasis(bas.gram, bas.generators[1:])


@pytest.mark.parametrize("flavor", ["odd", "even", "primed"])
def test_gram_permutation_reads_back_off_its_matrix(flavor):
    """gram_form writes pi and the signs g_x directly; reading them back
    off the matrix's entries, one +-1 per row and column, gives the same
    ``perm``, ``inverse`` and ``sign``."""
    for a in range(7):
        for b in range(6):
            if a == b == 0:
                continue
            gram = gram_form(flavor, a, b)
            entries = {}
            for slot, v in gram.matrix.entries.items():
                (key, q), = v.terms.items()
                assert key == CONSTANT
                entries[slot] = {Q_ONE: 1, Q_MINUS_ONE: -1}[q]
            assert len(entries) == gram.shape.total
            perm = tuple(y for _, y in sorted(entries))
            assert sorted(perm) == list(range(gram.shape.total))
            assert gram.perm == perm, (a, b)
            assert gram.inverse == tuple(x for _, x in sorted(
                (y, x) for x, y in entries)), (a, b)
            assert gram.sign == tuple(entries[(x, y)]
                                      for x, y in enumerate(perm)), (a, b)


@pytest.mark.parametrize("flavor,k1,l1", [
    ("odd", 1, 1), ("odd", 2, 1), ("odd", 2, 2), ("odd", 3, 2),
    ("even", 1, 1), ("even", 2, 1), ("even", 3, 3),
])
def test_gram_transform(flavor, k1, l1):
    s = basis_change_S(flavor, k1, l1)
    t = 2 * k1 - 1 if flavor == "odd" else 2 * k1
    src_gram = gram_form(flavor, k1 - 1 if flavor == "odd" else k1, l1)
    primed = gram_form("primed", t, l1)
    assert s.supertranspose() @ src_gram.matrix @ s == primed.matrix


@pytest.mark.parametrize("flavor,k1,l1", [
    ("odd", 2, 1), ("even", 2, 1), ("odd", 1, 2),
])
def test_conjugation_is_bijective_on_the_algebra(flavor, k1, l1):
    if flavor == "odd":
        src = basis("odd", k1 - 1, l1)
        t = 2 * k1 - 1
    else:
        src = basis("even", k1, l1)
        t = 2 * k1
    s = basis_change_S(flavor, k1, l1)
    s_inv = s.invert()
    primed_gram = gram_form("primed", t, l1)
    primed = basis("primed", t, l1)
    for g in src:
        img = conjugate(g.matrix, s, s_inv)
        assert defining_residual(img, primed_gram).is_zero(), g.tag
        assert conjugate(img, s_inv, s) == g.matrix, g.tag
    for g in primed:
        back = conjugate(g.matrix, s_inv, s)
        assert defining_residual(back, src.gram).is_zero(), g.tag


@pytest.mark.parametrize("flavor,k1,l1", [(f, k1, l1)
                                          for f in ("odd", "even")
                                          for k1 in (1, 2, 3)
                                          for l1 in (1, 2, 3)])
def test_conjugation_on_entry_tables_matches_the_matrix_oracle(flavor, k1,
                                                               l1):
    """S^-1 M S formed on each source generator's entry table equals the
    two matrix products, entry for entry."""
    src = basis("odd", k1 - 1, l1) if flavor == "odd" \
        else basis("even", k1, l1)
    s = basis_change_S(flavor, k1, l1)
    s_inv = s.invert()
    s_rows = entry_lines(constant_entries(s))
    s_inv_cols = entry_lines(constant_entries(s_inv), by_column=True)
    for g, entries in zip(src, src.entry_table()):
        got = conjugate_entries(entries, s_rows, s_inv_cols)
        assert got == constant_entries(conjugate(g.matrix, s, s_inv)), g.tag


def _matrix_loop_preserves_brackets(src):
    """The N^2 oracle: embed_j([x, y]) == [j x, j y] as matrices."""
    return all(embed_j(x.matrix.superbracket(y.matrix))
               == embed_j(x.matrix).superbracket(embed_j(y.matrix))
               for x in src for y in src)


def _same_structure(src, bordered):
    """The dj-bracket verdict: both closures succeed with equal constants."""
    a, b = closure_check(src), closure_check(bordered)
    return not a.failures and not b.failures and a.constants == b.constants


@pytest.mark.parametrize("k1,l1", [(k1, l1) for k1 in (1, 2, 3)
                                   for l1 in (1, 2)])
def test_bordered_constants_match_source_and_matrix_oracle(k1, l1):
    src = basis("primed", 2 * k1 - 1, l1)
    bordered = bordered_basis(src.generators)
    assert bordered.gram is gram_form("primed", 2 * k1, l1)
    assert bordered.tags() == src.tags()
    for g, h in zip(src, bordered):
        assert h.parity == g.parity
        assert h.primary == (g.primary[0] + 1, g.primary[1] + 1)
        assert h.matrix == embed_j(g.matrix) and j_image_contains(h.matrix)
    a, b = closure_check(bordered), closure_check(src)
    assert (a.constants, a.failures) == (b.constants, b.failures)
    assert _same_structure(src, bordered)
    assert _matrix_loop_preserves_brackets(src)


def _scale_one(bordered, tag, factor, forced_only=False):
    """``bordered`` with generator ``tag`` times ``factor``, or with only
    its entries off the primary slot times ``factor``."""
    def scaled(g):
        m = _scaled_forced_entry(g.matrix, g.primary, factor) \
            if forced_only else g.matrix * factor
        return Generator(g.tag, g.parity, constant_entries(m), g.primary,
                         g.shape)

    return OspBasis(bordered.gram, [scaled(g) if g.tag == tag else g
                                    for g in bordered.generators])


def test_scaled_bordered_generator_breaks_the_comparison():
    src = basis("primed", 3, 1)
    bordered = bordered_basis(src.generators)
    for g in src:
        assert not _same_structure(src, _scale_one(bordered, g.tag, 2)), \
            g.tag


@pytest.mark.parametrize("k1,l1", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_isomorphism_suite_passes(k1, l1):
    """Every check holds, the conjugation's rank count and S S^-1 = E
    among them."""
    report = suites.suite_isomorphism(k1, l1)
    assert [r.check_id for r in report.records if not r.ok] == []
    assert len(report.records) == 7


def _iso_records(k1, l1):
    return {r.check_id: r for r in suites.suite_isomorphism(k1, l1).records}


def _dj_record(k1, l1):
    return _iso_records(k1, l1)["dj-bracket"]


def test_isomorphism_suite_fails_on_a_scaled_entry_of_S(monkeypatch):
    real = suites.basis_change_S

    def scaled(flavor, k1, l1):
        s = real(flavor, k1, l1)
        entries = dict(s.entries)
        entries[(0, 0)] = entries[(0, 0)] * 2
        return SuperMatrix.build(s.rows, s.cols, entries)

    monkeypatch.setattr(suites, "basis_change_S", scaled)
    records = _iso_records(2, 1)
    for flavor in ("odd", "even"):
        assert not records[f"gram-transform-{flavor}"].ok
        record = records[f"conjugation-iso-{flavor}"]
        assert not record.ok
        # source and primed tags share names; each group names its basis
        assert record.witness.startswith("source: ")
        assert "; primed: " in record.witness


def test_isomorphism_suite_fails_when_two_generators_share_an_image(
        monkeypatch):
    """The rank argument: if a second generator conjugates onto the first
    one's image, the images span one dimension less, and the witness names
    the primed generator left unreached."""
    real = suites.conjugate_entries
    sources = {"odd": basis("odd", 1, 1), "even": basis("even", 2, 1)}

    def collapsing(entries, s_rows, s_inv_cols):
        for src in sources.values():
            if entries is src.entry_table()[1]:
                entries = src.entry_table()[0]
        return real(entries, s_rows, s_inv_cols)

    assert all(r.ok for r in _iso_records(2, 1).values())
    monkeypatch.setattr(suites, "conjugate_entries", collapsing)
    records = _iso_records(2, 1)
    for flavor, t in (("odd", 3), ("even", 4)):
        record = records[f"conjugation-iso-{flavor}"]
        assert not record.ok
        label, _, tag = record.witness.partition(": ")
        assert label == "primed" and tag in basis("primed", t, 1).tags()
    assert records["dj-bracket"].ok


@pytest.mark.parametrize("every", [False, True])
def test_isomorphism_suite_fails_dj_bracket_on_a_scaled_entry_of_P(
        monkeypatch, every):
    """A scaled entry of P breaks P^ST P = E.  The images stay members with
    a zero border (with every entry doubled they are 4 X), so j-image-slice
    passes and only the P^ST P = E test is left to catch that j stops
    being multiplicative (4 j(XY) = j(X) j(Y) in the second case)."""
    real = suites.border_matrix

    def scaled(k1, l1):
        p = real(k1, l1)
        return SuperMatrix.build(p.rows, p.cols, {
            slot: v * 2 if every or slot == (1, 0) else v
            for slot, v in p.entries.items()})

    assert _dj_record(2, 1).ok
    monkeypatch.setattr(suites, "border_matrix", scaled)
    records = _iso_records(2, 1)
    record = records["dj-bracket"]
    assert not record.ok and record.witness == "12^2 pairs"
    assert records["j-image-slice"].ok


def test_isomorphism_suite_fails_dj_bracket_on_swapped_odd_slots(
        monkeypatch):
    """A P that sends the first two odd source indices to each other's
    target slots keeps P^ST P = E, but its images leave primed osp(4|2):
    dj-bracket and j-image-slice fail, and dj-parabolic reports the image
    it cannot read off as undetermined."""
    real = suites.border_matrix

    def swapped(k1, l1):
        p = real(k1, l1)
        a, b = p.cols.even, p.cols.even + 1
        entries = dict(p.entries)
        del entries[(a + 1, a)], entries[(b + 1, b)]
        entries[(b + 1, a)] = entries[(a + 1, b)] = ONE
        return SuperMatrix.build(p.rows, p.cols, entries)

    p = swapped(2, 1)
    assert p.parity == 0
    assert p.supertranspose() @ p == SuperMatrix.identity(p.cols)
    monkeypatch.setattr(suites, "border_matrix", swapped)
    records = _iso_records(2, 1)
    assert not records["dj-bracket"].ok
    assert not records["j-image-slice"].ok
    assert not records["dj-parabolic"].ok
    assert records["dj-parabolic"].witness.startswith("undetermined: j(")


def test_isomorphism_suite_fails_dj_bracket_when_the_source_does_not_close(
        monkeypatch):
    """closure_check reporting a failed pair on the source fails dj-bracket
    and nothing else: the suite's only closure is the source's."""
    real = suites.closure_check

    def failing(bas):
        table = real(bas)
        return BracketTable(bas, table.constants,
                            [*table.failures, tuple(bas.tags()[:2])])

    monkeypatch.setattr(suites, "closure_check", failing)
    records = _iso_records(2, 1)
    assert [r.check_id for r in records.values() if not r.ok] \
        == ["dj-bracket"]


@pytest.mark.parametrize("k1", [1, 2, 3, 4])
@pytest.mark.parametrize("l1", [1, 2, 3, 4])
def test_j_images_match_the_matrix_bordering(monkeypatch, k1, l1):
    """Each image table P X P^T of the suite equals the constant entries of
    embed_j(X), and the dj-parabolic stray list equals the matrix route's
    (embed_j, then coefficients_of), as it stands and with the p1 pattern
    narrowed so that strays occur."""
    real = suites.conjugate_entries
    made = []

    def recording(entries, s_rows, s_inv_cols):
        out = real(entries, s_rows, s_inv_cols)
        made.append(out)
        return out

    monkeypatch.setattr(suites, "conjugate_entries", recording)
    assert suites.suite_isomorphism(k1, l1).ok
    monkeypatch.undo()
    src, target = basis("primed", 2 * k1 - 1, l1), basis("primed", 2 * k1, l1)
    images = made[-len(src):]
    assert images == [constant_entries(embed_j(g.matrix)) for g in src]
    assert suites._parabolic_strays(src, target, images) \
        == (len(parabolic_basis("p", k1, l1)), [])
    assert parabolic_strays(k1, l1) == []
    monkeypatch.setitem(PARABOLIC_TAGS, "p1",
                        PARABOLIC_TAGS["p1"] - {"A11", "B11"})
    _, stray = suites._parabolic_strays(src, target, images)
    assert stray and stray == parabolic_strays(k1, l1)


def test_j_image_characterization():
    src = basis("primed", 3, 1)
    for g in src:
        img = embed_j(g.matrix)
        assert j_image_contains(img), g.tag
        # any entry in the bordered row/column breaks the image test
    probe = embed_j(src.generators[0].matrix)
    spoiled = probe + SuperMatrix.build(
        probe.rows, probe.cols, {(0, 2): ONE}, parity=0)
    assert not j_image_contains(spoiled)
    with pytest.raises(ValueError):
        embed_j(embed_j(src.generators[0].matrix))   # even-sized source


def _witness_spans(k1, l1, m):
    """The imp-witness suite's verdicts on ``m``: every Grassmann component
    lies in the even part of primed osp(2k1|2l1), and every one is the
    image of the even part of primed osp(2k1-1|2l1)."""
    full = basis("primed", 2 * k1, l1)
    pieces = suites.components(m).values()
    in_full = all(suites._in_even_span(full, p) for p in pieces)
    return (in_full,
            in_full and all(suites._in_j_image(p, full.gram) for p in pieces))


def _with_extra_entry(rng, m, where):
    """``m`` with 3 put at one of its empty slots in row 0, in column 0 or
    on an odd slot."""
    n, p = m.rows.total, m.rows.even
    slots = [(i, j) for i in range(n) for j in range(n)
             if (i, j) not in m.entries
             and {"row": i == 0, "column": j == 0,
                  "odd": (i < p) != (j < p)}[where]]
    return SuperMatrix.build(m.rows, m.cols,
                             {**m.entries, rng.choice(slots): ONE * 3})


@pytest.mark.parametrize("k1", [1, 2, 3])
@pytest.mark.parametrize("l1", [1, 2, 3])
def test_witness_spans_match_the_old_route(monkeypatch, k1, l1):
    """The suite reads each Grassmann component off one basis and accepts
    even generators only, asking a j-image candidate for a zero first row
    and column as well; the oracle builds each component even and expands
    it in bases of even generators, the bordered one built with embed_j.
    They agree on the witness components and the self bracket, on every
    generator of primed(2k1|2l1) and every bordered even generator, and on
    each of these with an entry added in row 0, in column 0 or on an odd
    slot; both verdicts occur for both spans."""
    real, real_bracket = suites.components, suites.odd_self_bracket
    witness = []

    def recording(m):
        parts = real(m)
        witness.extend(parts.values())
        return parts

    def recording_bracket(x):
        entries = real_bracket(x)
        witness.append(entries)
        return entries

    monkeypatch.setattr(suites, "components", recording)
    monkeypatch.setattr(suites, "odd_self_bracket", recording_bracket)
    assert suites.suite_imP_witness(k1, l1).ok
    monkeypatch.undo()
    full = basis("primed", 2 * k1, l1)
    shape = full.gram.shape
    cases = [SuperMatrix.build(shape, shape,
                               {slot: FieldScalar.from_q(q)
                                for slot, q in p.items()}, parity=0)
             for p in witness]
    cases += [g.matrix for g in full]
    cases += [embed_j(g.matrix)
              for g in basis("primed", 2 * k1 - 1, l1).even_generators()]
    rng = random.Random(100 * k1 + l1)
    cases += [_with_extra_entry(rng, m, where) for m in list(cases)
              for where in ("row", "column", "odd")]
    oracle = even_span_route(k1, l1)
    seen = set()
    for m in cases:
        got = _witness_spans(k1, l1, m)
        assert got == oracle(m), m.render()
        seen.update(enumerate(got))
    assert witness and seen == {(0, False), (0, True), (1, False), (1, True)}


def test_witness_checks_fail_on_a_spoiled_component(monkeypatch):
    """An entry on an odd slot of the first row, put into every Grassmann
    component of the bracket and into the self bracket, takes the bracket
    out of the even part and the self bracket out of the embedded
    subalgebra; the other checks read neither."""
    real, real_bracket = suites.components, suites.odd_self_bracket
    slot = (0, 4)  # the first odd column of primed osp(4|2)
    monkeypatch.setattr(suites, "components", lambda m: {
        key: {**p, slot: Q_ONE} for key, p in real(m).items()}
        or {((), ()): {slot: Q_ONE}})
    monkeypatch.setattr(suites, "odd_self_bracket", lambda x: {
        **real_bracket(x), slot: Q_ONE})
    status = {r.check_id: r.ok for r in suites.suite_imP_witness(2, 1).records}
    assert status == {"bracket-display": True, "witness-membership": True,
                      "outside-j-image": False,
                      "self-bracket-control": False}


@pytest.mark.parametrize("k1", [1, 2, 3, 4])
@pytest.mark.parametrize("l1", [1, 2, 3, 4])
def test_witness_tables_match_the_matrix_route(monkeypatch, k1, l1):
    """The suite's numeric witnesses, their membership verdicts and the
    self bracket of the bordered one equal the matrix route's: odd
    FieldScalar matrices, defining_residual and j_image_contains, and
    SuperMatrix.superbracket split by components.  The verdicts also agree
    with an entry of either witness set to 1/2, in row 0, in column 0 or
    on another odd slot, and the self bracket is nonzero, so
    self-bracket-control does not pass on an empty matrix."""
    real_table, real_bracket = suites._odd_table, suites.odd_self_bracket
    tables, brackets = [], []

    def recording_table(mat):
        table = real_table(mat)
        tables.append(table)
        return table

    def recording_bracket(x):
        entries = real_bracket(x)
        brackets.append(entries)
        return entries

    monkeypatch.setattr(suites, "_odd_table", recording_table)
    monkeypatch.setattr(suites, "odd_self_bracket", recording_bracket)
    assert suites.suite_imP_witness(k1, l1).ok
    monkeypatch.undo()
    oracle = witness_numeric_route(k1, l1)
    assert tables == [constant_entries(m) for m in oracle["numeric"]]
    gram = basis("primed", 2 * k1, l1).gram
    assert [suites._membership(gram, t) for t in tables] \
        == list(oracle["membership"])
    assert brackets == [oracle["self_bracket"]]
    assert 4 <= len(brackets[0]) <= 76

    rng = random.Random(100 * k1 + l1)
    half = FieldScalar.parse("1/2")
    seen = set()
    for table, m in zip(tables, oracle["numeric"]):
        n, p = m.rows.total, m.rows.even
        for where in ("row", "column", "odd"):
            slots = [(i, j) for i in range(n) for j in range(n)
                     if (i < p) != (j < p)
                     and {"row": i == 0, "column": j == 0,
                          "odd": i and j}[where]]
            slot = rng.choice(slots)
            got = suites._membership(gram, {**table, slot: half.q})
            spoiled = SuperMatrix.build(m.rows, m.cols,
                                        {**m.entries, slot: half}, parity=1)
            assert got == witness_membership(spoiled), (where, slot)
            seen.add(got)
    assert seen | set(oracle["membership"]) \
        == {(True, True), (True, False), (False, False)}


def test_a_witness_entry_on_an_even_slot_is_a_parity_error():
    """The numeric witness is odd: moving one Grassmann entry of either
    witness onto an even slot raises ParityError in the suite's table, as
    building the odd matrix does in the matrix route."""
    for m in witness_numeric_route(2, 2)["witnesses"]:
        slot, value = sorted(m.entries.items())[0]
        moved = dict(m.entries)
        del moved[slot]
        moved[(1, 1)] = value
        bad = SuperMatrix.build(m.rows, m.cols, moved, ctx=m.ctx)
        with pytest.raises(ParityError):
            suites._odd_table(bad)
        with pytest.raises(ParityError):
            witness_numeric(bad)


def _stabilizes(mat, indices):
    keep = set(indices)
    return all(i in keep for (i, j) in mat.entries if j in keep)


@pytest.mark.parametrize("which,flavor,k1,l1", [
    ("p", "odd", 2, 1), ("p", "odd", 2, 2), ("p", "odd", 3, 1),
    ("p1", "even", 2, 1), ("p1", "even", 2, 2), ("p1", "even", 3, 2),
])
def test_parabolic_original_is_the_stabilizer(which, flavor, k1, l1):
    """The tag filter coincides with the flag stabilizer, generator by
    generator, and is closed under the superbracket."""
    if flavor == "odd":
        ambient = basis("odd", k1 - 1, l1)
    else:
        ambient = basis("even", k1, l1)
    sub = original_parabolic_basis(which, k1, l1)
    idx = stabilized_subspace_indices(flavor, ambient.gram.matrix.rows)
    expected = {g.tag for g in ambient if _stabilizes(g.matrix, idx)}
    assert {g.tag for g in sub} == expected
    assert closure_check(sub).failures == []


def test_parabolic_original_contains_full_diagonal_block():
    sub = original_parabolic_basis("p", 2, 1)
    tags = {g.tag for g in sub}
    assert "A11:1,1" in tags          # the full gl block on the diagonal
    assert "B11:1,1" in tags
    assert not any(t.startswith("G1:") or t.startswith("A12:") for t in tags)


def test_parabolic_primed_pattern_is_not_closed():
    """The primed block pattern is a slot pattern, not a
    subalgebra: A11' brackets G2' into the excluded G1' family."""
    sub = parabolic_basis("p", 2, 1)
    failures = closure_check(sub).failures
    assert failures != []
    assert ("A11:1,1", "G2:1") in failures or ("G2:1", "A11:1,1") in failures


@pytest.mark.parametrize("k1,l1", [(1, 1), (2, 1), (2, 2)])
def test_embed_j_carries_p_pattern_into_p1_pattern(k1, l1):
    assert parabolic_strays(k1, l1) == []


def test_flavor_validation():
    with pytest.raises(ValueError):
        basis("odd", 0, 0)
    with pytest.raises(ValueError):
        basis("nosuch", 1, 1)
    with pytest.raises(ValueError):
        parabolic_basis("p2", 2, 1)


# ---------------------------------------------------------------------------
# Oracles for the generator-building rules: bordering and basis
# ---------------------------------------------------------------------------


def _member_by_products(m, gram):
    """M^ST G + G M = 0 from a supertranspose and two matrix products,
    sharing no code with the Gram-permutation residual."""
    g = gram.matrix.lift(m.ctx)
    return (m.supertranspose() @ g + g @ m).is_zero()


def _scaled_forced_entry(mat, primary, factor):
    """``mat`` with every entry off the primary slot multiplied by
    ``factor``, declared with the same parity."""
    return SuperMatrix.build(
        mat.rows, mat.cols,
        {slot: v if slot == primary else v * factor
         for slot, v in mat.entries.items()},
        ctx=mat.ctx, parity=mat.parity)


@pytest.mark.parametrize("k1,l1", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_embed_j_matches_a_built_bordered_matrix(k1, l1):
    """embed_j(x) equals the matrix that build makes from the entries
    shifted by (1, 1), and has the parity of x and of that matrix."""
    src = basis("primed", 2 * k1 - 1, l1)
    target = gram_form("primed", 2 * k1, l1).shape
    ctx = RingContext()
    th, = ctx.odds("th")
    sources = [g.matrix for g in src]
    sources += [g.matrix + h.matrix
                for g, h in zip(src.generators, src.generators[1:])
                if g.parity == h.parity]
    sources += [g.matrix * th for g in src]
    sources += [_scaled_forced_entry(g.matrix, g.primary, 2) for g in src
                if len(g.matrix.entries) > 1]
    rejected = 0
    for x in sources:
        if not _member_by_products(x, src.gram):
            with pytest.raises(ValueError, match="not in the source"):
                embed_j(x)
            rejected += 1
            continue
        want = SuperMatrix.build(
            target, target,
            {(i + 1, j + 1): v for (i, j), v in x.entries.items()},
            ctx=x.ctx)
        got = embed_j(x)
        assert got == want and got.ctx is x.ctx
        assert got.parity == want.parity == x.parity
        assert got.rows == target and got.cols == target
    assert 0 < rejected < len(sources)


def _mutated_specs(monkeypatch, mutate):
    """Make basis build from ``mutate(specs)`` instead of the family specs.
    A basis call that raises caches nothing."""
    real = osp._family_specs
    monkeypatch.setattr(osp, "_family_specs",
                        lambda naming, gram: mutate(real(naming, gram)))


@pytest.fixture()
def fresh_basis_cache():
    """No cached basis on the way in, none built from a mutation on the
    way out."""
    basis.cache_clear()
    yield
    basis.cache_clear()


@pytest.mark.parametrize("flavor,a,b", [("odd", 1, 1), ("even", 2, 1),
                                        ("primed", 3, 1), ("primed", 2, 1)])
def test_basis_rejects_a_wrong_forced_entry_sign(monkeypatch,
                                                 fresh_basis_cache, flavor,
                                                 a, b):
    """Flipping the sign of any one generator's forced entry makes basis
    fail its membership assertion."""
    gram = gram_form(flavor, a, b)
    naming = "primed" if flavor == "primed" else "original"
    forced = [i for i, spec in enumerate(osp._family_specs(naming, gram))
              if len(spec[2]) > 1]
    assert forced
    for index in forced:
        def flip(specs, index=index):
            tag, parity, entries, primary = specs[index]
            entries = {slot: v if slot == primary else q_neg(v)
                       for slot, v in entries.items()}
            specs[index] = (tag, parity, entries, primary)
            return specs

        _mutated_specs(monkeypatch, flip)
        with pytest.raises(AssertionError, match="defining equation"):
            basis(flavor, a, b)


def test_basis_rejects_a_spec_parity_that_contradicts_its_entries(
        monkeypatch, fresh_basis_cache):
    """basis checks each spec's parity against the parity of every slot of
    its entry table before it builds the matrix."""
    def flip(specs):
        tag, parity, entries, primary = specs[0]
        specs[0] = (tag, 1 - parity, entries, primary)
        return specs

    _mutated_specs(monkeypatch, flip)
    with pytest.raises(ParityError, match="contradicts"):
        basis("odd", 1, 1)


def test_nullspace_oracle_sees_a_dropped_spec(monkeypatch, fresh_basis_cache):
    """A spec list without its first generator still gives a basis: its
    generators are members, of one parity each, with disjoint supports.
    An oracle built from the same specs would agree with it; the nullspace
    oracle reads no spec, and its solution space has one dimension more
    than the basis, for every flavor."""
    for flavor, a, b in (("odd", 1, 1), ("even", 2, 1), ("primed", 3, 1),
                         ("gl", 1, 1)):
        specs = "_gl_specs" if flavor == "gl" else "_family_specs"
        real = getattr(osp, specs)
        monkeypatch.setattr(osp, specs,
                            lambda *args, real=real: real(*args)[1:])
        bas = basis(flavor, a, b)
        _, system = defining_system(bas.generators[0].shape, bas.gram)
        assert len(system.nullspace()) == len(bas) + 1, flavor
        with pytest.raises(AssertionError, match="len"):
            test_basis_is_a_basis_of_the_nullspace(flavor, a, b)
        monkeypatch.undo()


@pytest.mark.parametrize("flavor,a,b", [("even", 1, 1), ("primed", 2, 1),
                                        ("gl", 1, 1)])
def test_basis_rejects_a_wrong_family_parity(monkeypatch, fresh_basis_cache,
                                             flavor, a, b):
    """As for the odd flavor above, a spec whose parity is not its slots'
    parity raises ParityError for the other flavors, the gl specs
    included: the matrix is built from the table with the declared
    parity, so this check is the one guard."""
    specs = "_gl_specs" if flavor == "gl" else "_family_specs"
    real = getattr(osp, specs)

    def flipped(*args):
        out = real(*args)
        tag, parity, entries, primary = out[-1]
        out[-1] = (tag, 1 - parity, entries, primary)
        return out

    monkeypatch.setattr(osp, specs, flipped)
    with pytest.raises(ParityError, match="contradicts"):
        basis(flavor, a, b)


def test_osp_defining_builds_one_bracket_table(monkeypatch):
    """Jacobi and center read the one BracketTable of the run, the one
    closure_check returns."""
    built = []

    class Counted(BracketTable):
        def __init__(self, bas, constants, failures):
            built.append(constants)
            super().__init__(bas, constants, failures)

    monkeypatch.setattr(osp, "BracketTable", Counted)
    report = suites.suite_osp_defining(2, 2)
    assert report.ok
    assert len(built) == 1


def test_only_readers_of_the_table_build_the_two_way_view(monkeypatch):
    """The two-way view of a BracketTable is built on first read: the
    isomorphism suite's dj-bracket reads only the failures of its closure
    and builds none, while osp-defining reads the view for Jacobi and the
    center."""
    returned = []

    def recording(bas):
        returned.append(closure_check(bas))
        return returned[-1]

    monkeypatch.setattr(suites, "closure_check", recording)
    assert suites.suite_isomorphism(3, 2).ok
    assert len(returned) == 1 and "table" not in vars(returned[0])
    returned.clear()
    assert suites.suite_osp_defining(2, 2).ok
    assert len(returned) == 1 and "table" in vars(returned[0])


def test_bracket_table_keeps_the_failures_of_its_report():
    """A table keeps the failures it was given when it was built: a later
    change to the list passed reaches neither ``failures`` nor the center
    read from the table."""
    bas = basis("odd", 1, 1)
    closure = closure_check(bas)
    failures = list(closure.failures)
    table = BracketTable(bas, closure.constants, failures)
    failures.extend(_late_failure(bas, closure).failures)
    assert table.failures == []
    assert center_from_constants(bas, table) == []


def test_table_suites_build_no_generator_matrix(monkeypatch):
    """osp-defining, isomorphism and imp-witness read only the
    generators' entry tables: no suite reads ``Generator.matrix``, even
    of a basis whose matrices another caller already built."""
    built = []
    real = osp.Generator.matrix.func

    def counted(g):
        built.append(g.tag)
        return real(g)

    basis("odd", 3, 3).generators[0].matrix
    monkeypatch.setattr(osp.Generator, "matrix", property(counted))
    for report in (suites.suite_osp_defining(3, 3),
                   suites.suite_isomorphism(3, 3),
                   suites.suite_imP_witness(3, 2)):
        assert report.ok, report.suite
    assert built == []


def test_second_default_run_rebuilds_no_basis():
    """The basis cache holds every basis of ``run_all``: a second pass in
    the same process misses it not once."""
    suites.run_all(4)
    misses = basis.cache_info().misses
    suites.run_all(4)
    assert basis.cache_info().misses == misses


#: The library names ``oracles.py`` may import or read off a library
#: module: anywhere (None) or only in the named oracles.  ``RankTracker``
#: is the nullspace oracle's, which checks ``basis``, not the elimination;
#: ``PARABOLIC_TAGS`` is data that ``dj-parabolic`` reads too.
ORACLE_LEDGER = dict.fromkeys((
    "osp", "Chart", "VectorField", "validate_flag_type",
    "SingularMatrixError", "BlockShape", "NotNilpotentError", "ParityError",
    "SuperMatrix", "Generator", "NotInSpanError", "OspBasis", "basis",
    "gram_form", "NUMERIC_CTX", "ContextError", "RingContext", "SuperPoly",
    "W", "common_context", "ONE", "Q_ZERO", "ZERO", "FieldScalar",
    "add_scaled", "q_add", "q_mul", "q_neg", "Weight")) | {
    "RankTracker": {"defining_system"},
    "PARABOLIC_TAGS": {"parabolic_basis", "parabolic_strays"}}

#: Attributes no oracle reads: osp's residual, membership test, read-off,
#: owner map and partner rule, and the inverse ``oracles.invert`` checks.
DENIED_ATTRIBUTES = {"entry_residual", "membership_residual", "is_member",
                     "read_off", "owners", "partner", "invert"}


def _ledger_breaches(source):
    """The sorted ``(line, name)`` of each library name in ``source`` that
    ``ORACLE_LEDGER`` does not allow where it stands, of each private or
    denied attribute, and of each plain ``import`` of the library or
    library name imported under another name."""
    breaches, modules = set(), set()
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            imported, read = [], []
            if isinstance(node, ast.Import):
                breaches.update((node.lineno, a.name) for a in node.names
                                if a.name.startswith("superflag"))
            elif isinstance(node, ast.ImportFrom) \
                    and (node.module or "").startswith("superflag"):
                imported = [a.name for a in node.names]
                breaches.update((node.lineno, a.asname) for a in node.names
                                if a.asname)
                if node.module == "superflag":
                    modules.update(imported)
            elif isinstance(node, ast.Attribute):
                if node.attr.startswith("_") \
                        or node.attr in DENIED_ATTRIBUTES:
                    breaches.add((node.lineno, node.attr))
                if isinstance(node.value, ast.Name) \
                        and node.value.id in modules:
                    imported = read = [node.attr]
            elif isinstance(node, ast.Name):
                read = [node.id]
            breaches.update((node.lineno, name) for name in imported
                            if name not in ORACLE_LEDGER)
            breaches.update((node.lineno, name) for name in read
                            if owner not in (ORACLE_LEDGER.get(name)
                                             or {owner}))
    return sorted(breaches)


def test_oracles_name_no_checked_route():
    """``oracles.py`` imports and reads off library modules only the names
    of ``ORACLE_LEDGER``, each where the ledger allows it, and reads no
    private name and no attribute of ``DENIED_ATTRIBUTES``; docstrings are
    not read.  The ledger refuses each kind of name the oracles once
    read: the tracker in an inverse, osp's Grassmann split, the partner
    rule, the spec readers and private constructors."""
    source = Path(__file__).with_name("oracles.py").read_text()
    assert _ledger_breaches(source) == []
    once = ("from superflag import osp\n"
            "from superflag.linalg import RankTracker\n"
            "from superflag.osp import components, basis as b\n"
            "def invert(a):\n"
            "    return RankTracker(2 * len(a)), components(a)\n"
            "def residual_terms(m, gram):\n"
            "    return gram.partner(0, 0), m.invert(), m._new\n"
            "def matrix_built_basis(flavor, a, b):\n"
            "    return osp._shape(flavor, a, b), osp._family_specs\n")
    assert _ledger_breaches(once) == [
        (3, "b"), (3, "components"), (5, "RankTracker"), (7, "_new"),
        (7, "invert"), (7, "partner"), (9, "_family_specs"), (9, "_shape")]
