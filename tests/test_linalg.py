"""Exact linear algebra: the sparse row reduction, and the dense inverse
through it that the tests use as an oracle.  The tracker takes and gives
``{column: q}`` dicts; the tests that compare it with dense FieldScalar
elimination convert between the two forms here."""

import random

import pytest

from superflag.linalg import RankTracker, SingularMatrixError
from superflag.scalars import FieldScalar, ONE, Q_ZERO, ZERO, q_add, \
    q_mul, q_normalize

from oracles import invert


def _scalar(rng):
    return FieldScalar(*(rng.randint(-3, 3) for _ in range(4)))


def _sparse(row):
    """A dense FieldScalar row as the tracker's ``{column: q}`` dict."""
    return {c: x.q for c, x in enumerate(row) if x}


def _dense(vec, ncols):
    """A ``{column: q}`` dict as a dense FieldScalar row."""
    return [FieldScalar.from_q(vec.get(c, Q_ZERO)) for c in range(ncols)]


def _mat_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), ZERO) for col in zip(*b)]
            for row in a]


def _identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def _nonsingular(rng, n):
    """P L U with unit lower L and nonzero diagonal U: nonsingular by
    construction, with dense entries in Q(i, sqrt2)."""
    lower = [[ONE if i == j else _scalar(rng) if j < i else ZERO
              for j in range(n)] for i in range(n)]
    upper = [[ZERO if j < i else _scalar(rng) for j in range(n)]
             for i in range(n)]
    for i in range(n):
        while upper[i][i].is_zero():
            upper[i][i] = _scalar(rng)
    perm = list(range(n))
    rng.shuffle(perm)
    return [_mat_mul(lower, upper)[p] for p in perm]


@pytest.mark.parametrize("n", range(9))
def test_invert_gives_the_inverse(n):
    rng = random.Random(100 + n)
    for _ in range(3):
        a = _nonsingular(rng, n)
        inv = invert(a)
        assert _mat_mul(a, inv) == _identity(n)
        assert _mat_mul(inv, a) == _identity(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_invert_rejects_rank_drop_in_last_column(n):
    """The first n-1 columns are independent; the last is a combination of
    them (zero for n = 1), so only the last pivot is missing."""
    rng = random.Random(200 + n)
    a = _nonsingular(rng, n)
    weights = [_scalar(rng) for _ in range(n - 1)]
    for row in a:
        row[-1] = sum((w * x for w, x in zip(weights, row)), ZERO)
    with pytest.raises(SingularMatrixError):
        invert(a)


class _DenseTracker:
    """Reference elimination on dense lists: Gauss-Jordan, one row at a
    time, rows kept ordered by pivot column."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []
        self.pivots = []

    def add(self, vec):
        vec = list(vec)
        for row, col in zip(self.rows, self.pivots):
            if vec[col]:
                factor = vec[col]
                vec = [x - factor * y for x, y in zip(vec, row)]
        lead = next((c for c in range(self.ncols) if vec[c]), None)
        if lead is None:
            return False
        inv_lead = vec[lead].inverse()
        vec = [x * inv_lead for x in vec]
        for i, row in enumerate(self.rows):
            if row[lead]:
                factor = row[lead]
                self.rows[i] = [x - factor * y for x, y in zip(row, vec)]
        pos = sum(1 for c in self.pivots if c < lead)
        self.rows.insert(pos, vec)
        self.pivots.insert(pos, lead)
        return True

    def nullspace(self):
        out = []
        for free in range(self.ncols):
            if free in self.pivots:
                continue
            vec = [ZERO] * self.ncols
            vec[free] = ONE
            for row, col in zip(self.rows, self.pivots):
                if row[free]:
                    vec[col] = -row[free]
            out.append(vec)
        return out


def _stream(rng, ncols):
    """Sparse random rows interleaved with rows that reduce to zero: exact
    duplicates and combinations of two earlier rows.  It runs on past full
    rank when the random rows reach it."""
    rows = []
    for _ in range(2 * ncols + 4):
        kind = rng.random()
        if rows and kind < 0.2:
            rows.append(list(rng.choice(rows)))
        elif len(rows) > 1 and kind < 0.4:
            a, b = rng.sample(rows, 2)
            wa, wb = _scalar(rng), _scalar(rng)
            rows.append([wa * x + wb * y for x, y in zip(a, b)])
        else:
            rows.append([_scalar(rng) if rng.random() < 0.4 else ZERO
                         for _ in range(ncols)])
    return rows


@pytest.mark.parametrize("ncols", range(1, 11))
def test_rank_tracker_matches_dense_elimination(ncols):
    rng = random.Random(300 + ncols)
    seen = set()
    for _ in range(4):
        sparse, dense = RankTracker(ncols), _DenseTracker(ncols)
        for k, row in enumerate(_stream(rng, ncols)):
            was_full = sparse.is_full()
            # every other row keeps its zero entries, which add drops
            grew = sparse.add({c: x.q for c, x in enumerate(row)} if k % 2
                              else _sparse(row))
            assert grew == dense.add(row)
            seen.add((was_full, grew))
            assert sparse.rank == len(dense.rows)
            assert sparse.pivots == dense.pivots
            assert [_dense(r, ncols) for r in sparse.rows] == dense.rows
            assert sparse.is_full() == (len(dense.rows) == ncols)
            assert [_dense(v, ncols) for v in sparse.nullspace()] \
                == dense.nullspace()
    # rows that reduced to zero below full rank, and rows fed after it
    assert {(False, False), (True, False)} <= seen


def test_rank_tracker_full_rank_is_the_identity():
    rng = random.Random(7)
    tracker = RankTracker(3)
    while not tracker.is_full():
        tracker.add(_sparse([_scalar(rng) for _ in range(3)]))
    assert [_dense(r, 3) for r in tracker.rows] == _identity(3) \
        and tracker.pivots == [0, 1, 2]
    assert tracker.nullspace() == []
    for _ in range(5):
        assert not tracker.add(_sparse([_scalar(rng) for _ in range(3)]))
    assert not tracker.add({c: Q_ZERO for c in range(3)})
    assert [_dense(r, 3) for r in tracker.rows] == _identity(3)


def test_rank_tracker_hands_out_q_tuples():
    """Rows go in and come out as ``{column: q}`` dicts of nonzero
    5-tuples, and the dense inverse of the oracle hands out FieldScalars."""
    rng = random.Random(11)
    tracker = RankTracker(4)
    assert tracker.add(_sparse([_scalar(rng), ZERO, _scalar(rng), ZERO]))
    assert tracker.add({1: _scalar(rng).q, 3: _scalar(rng).q})
    assert not tracker.add({0: Q_ZERO})
    values = [x for row in tracker.rows for x in row.values()] \
        + [x for vec in tracker.nullspace() for x in vec.values()]
    assert len(values) == 8
    assert all(type(x) is tuple and len(x) == 5 and x != Q_ZERO
               for x in values)
    inv = invert(_nonsingular(rng, 3))
    assert all(type(x) is FieldScalar for row in inv for x in row)


def _random_q(rng):
    """A field tuple with small numerators and denominators, zero one time
    in four."""
    if rng.random() < 0.25:
        return Q_ZERO
    return q_normalize(*(rng.randint(-4, 4) for _ in range(4)),
                       rng.randint(1, 3))


def _sparse_stream(rng, ncols):
    """Sparse ``{column: q}`` rows: random ones with some zero entries
    kept, and combinations of two earlier rows, whose cancelled entries
    stay in the dict as Q_ZERO."""
    rows = []
    for _ in range(ncols + 6):
        if len(rows) > 1 and rng.random() < 0.4:
            a, b = rng.sample(rows, 2)
            wa, wb = _random_q(rng), _random_q(rng)
            rows.append({c: q_add(q_mul(wa, a.get(c, Q_ZERO)),
                                  q_mul(wb, b.get(c, Q_ZERO)))
                         for c in sorted(a.keys() | b.keys())})
        else:
            rows.append({c: _random_q(rng) for c in range(ncols)
                         if rng.random() < 0.35})
    return rows


@pytest.mark.parametrize("seed", range(40))
def test_rank_tracker_contract_on_sparse_rows(seed):
    """With no dense oracle: every nullspace vector is annihilated by every
    row fed, rank + nullity = ncols, nothing the tracker stores or hands
    out holds a zero, and ``add`` leaves the caller's dict as it was."""
    rng = random.Random(f"contract {seed}")
    ncols = rng.randint(1, 14)
    rows = _sparse_stream(rng, ncols)
    tracker = RankTracker(ncols)
    for row in rows:
        before = list(row.items())
        tracker.add(row)
        assert list(row.items()) == before
    null = tracker.nullspace()
    assert tracker.rank + len(null) == ncols
    for vec in null:
        for row in rows:
            dot = Q_ZERO
            for c, x in row.items():
                if c in vec:
                    dot = q_add(dot, q_mul(x, vec[c]))
            assert dot == Q_ZERO
    assert all(x != Q_ZERO for part in (tracker.rows, null)
               for entries in part for x in entries.values())
