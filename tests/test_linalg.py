"""Exact linear algebra: inversion through the one row reduction."""

import random

import pytest

from superflag.linalg import SingularMatrixError, invert
from superflag.scalars import FieldScalar, ONE, ZERO


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
