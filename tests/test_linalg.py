"""Exact linear algebra: the sparse row reduction, and the dense inverse
through it that the tests use as an oracle."""

import random

import pytest

from superflag.linalg import RankTracker, SingularMatrixError
from superflag.scalars import FieldScalar, ONE, ZERO

from oracles import invert


def _scalar(rng):
    return FieldScalar(*(rng.randint(-3, 3) for _ in range(4)))


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
            # every other row goes in as a {column: value} dict
            grew = sparse.add(dict(enumerate(row)) if k % 2 else row)
            assert grew == dense.add(row)
            seen.add((was_full, grew))
            assert sparse.rank == len(dense.rows)
            assert sparse.pivots == dense.pivots
            assert sparse.rows == dense.rows
            assert sparse.is_full() == (len(dense.rows) == ncols)
            assert sparse.nullspace() == dense.nullspace()
    # rows that reduced to zero below full rank, and rows fed after it
    assert {(False, False), (True, False)} <= seen


def test_rank_tracker_full_rank_is_the_identity():
    rng = random.Random(7)
    tracker = RankTracker(3)
    while not tracker.is_full():
        tracker.add([_scalar(rng) for _ in range(3)])
    assert tracker.rows == _identity(3) and tracker.pivots == [0, 1, 2]
    assert tracker.nullspace() == []
    for _ in range(5):
        assert not tracker.add([_scalar(rng) for _ in range(3)])
    assert not tracker.add([ZERO, ZERO, ZERO])
    assert tracker.rows == _identity(3)


def test_rank_tracker_hands_out_field_scalars():
    """Rows are stored as 5-tuples, but every value leaving the tracker is
    a FieldScalar, and ``add`` takes FieldScalar lists and dicts alike."""
    rng = random.Random(11)
    tracker = RankTracker(4)
    assert tracker.add([_scalar(rng), ZERO, _scalar(rng), ZERO])
    assert tracker.add({1: _scalar(rng), 3: _scalar(rng)})
    assert not tracker.add({0: ZERO})
    values = [x for row in tracker.rows for x in row] \
        + [x for vec in tracker.nullspace() for x in vec]
    assert len(values) == 16
    assert all(type(x) is FieldScalar for x in values)
    inv = invert(_nonsingular(rng, 3))
    assert all(type(x) is FieldScalar for row in inv for x in row)
