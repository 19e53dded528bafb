"""Exact linear algebra over Q(i, sqrt2).

One elimination, ``RankTracker``: an incremental reduced row echelon form
stored sparse, as ``{column: q}`` rows of the normalised 5-tuples of
``scalars``.  Rows go in and come out in that one form, with no zero
entries.  ``SuperMatrix.invert`` feeds it the sparse rows of [B | E] for a
matrix body B and reads B^-1 off ``rows``; the center computation feeds it
ad rows read off the structure constants and reads off the nullspace; the
isomorphism suite feeds it the coefficient rows of the conjugated
generators and reads off the rank.  The dense inverse over FieldScalar
lists is a test oracle (``tests/oracles.py``).  Everything is exact, there
are no tolerance decisions anywhere.
"""

import bisect

from .scalars import Q_ONE, Q_ZERO, add_scaled, q_inv, q_mul, q_neg


class SingularMatrixError(ValueError):
    pass


class RankTracker:
    """Incremental RREF: feed rows one by one, stop as soon as rank is full.

    Rows are ``{column: q}`` dicts of their nonzero entries, so a reduction
    step touches only the nonzero entries: center rows and the rows of
    [A | I] are mostly zeros.  ``rows`` and ``nullspace()`` are such dicts
    too.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []
        self.pivots = []
        self._by_pivot = {}

    @property
    def rank(self):
        return len(self.rows)

    def is_full(self):
        return self.rank == self.ncols

    def add(self, row):
        """Reduce and absorb one ``{column: q}`` row, leaving the caller's
        dict as it was; zero entries are dropped.  Returns True when the
        rank grew.  ``rows`` holds the reduced rows, ordered by pivot
        column; they are the tracker's own, not copies."""
        vec = {c: x for c, x in row.items() if x != Q_ZERO}
        # A stored row vanishes on every pivot column but its own, so
        # clearing one pivot column of vec leaves the others as they were:
        # one pass over vec's own pivot columns reduces it.
        for col in [c for c in vec if c in self._by_pivot]:
            add_scaled(vec, self._by_pivot[col], q_neg(vec[col]))
        if not vec:
            return False
        lead = min(vec)
        inv_lead = q_inv(vec[lead])
        vec = {c: q_mul(x, inv_lead) for c, x in vec.items()}
        for stored in self.rows:
            factor = stored.get(lead)
            if factor is not None:
                add_scaled(stored, vec, q_neg(factor))
        pos = bisect.bisect(self.pivots, lead)
        self.rows.insert(pos, vec)
        self.pivots.insert(pos, lead)
        self._by_pivot[lead] = vec
        return True

    def nullspace(self):
        """A basis of the vectors every row fed annihilates, one
        ``{column: q}`` dict per free column, with 1 on that column."""
        pivot_set = set(self.pivots)
        basis = []
        for free in range(self.ncols):
            if free in pivot_set:
                continue
            vec = {col: q_neg(row[free])
                   for row, col in zip(self.rows, self.pivots)
                   if free in row}
            vec[free] = Q_ONE
            basis.append(dict(sorted(vec.items())))
        return basis
