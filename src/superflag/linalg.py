"""Exact linear algebra over Q(i, sqrt2).

One elimination, ``RankTracker``: an incremental reduced row echelon form
stored sparse, as ``{column: q}`` rows of the normalised 5-tuples of
``scalars``.  ``SuperMatrix.invert`` feeds it the sparse rows of [B | E]
for a matrix body B and reads B^-1 off ``sparse_rows``; the center
computation feeds it ad rows read off the structure constants and reads
off the nullspace.  FieldScalar appears only at the edges: ``add`` takes
FieldScalar rows as well as tuple rows, and ``rows`` and ``nullspace()``
hand out FieldScalars.  The dense inverse over FieldScalar lists is a
test oracle (``tests/oracles.py``).  Everything is exact, there are no
tolerance decisions anywhere.
"""

import bisect

from .scalars import Q_ONE, Q_ZERO, FieldScalar, add_scaled, q_inv, q_mul, \
    q_neg


class SingularMatrixError(ValueError):
    pass


class RankTracker:
    """Incremental RREF: feed rows one by one, stop as soon as rank is full.

    Rows are kept as sparse ``{column: q}`` dicts, so a reduction step
    touches only the nonzero entries: center rows and the rows of [A | I]
    are mostly zeros.  ``rows`` and ``nullspace()`` are dense FieldScalar
    lists.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self._rows = []
        self.pivots = []
        self._by_pivot = {}

    @property
    def rank(self):
        return len(self._rows)

    @property
    def rows(self):
        """The reduced rows, dense, ordered by pivot column."""
        return [[FieldScalar.from_q(row.get(c, Q_ZERO))
                 for c in range(self.ncols)] for row in self._rows]

    @property
    def sparse_rows(self):
        """The reduced rows as ``{column: q}`` dicts of their nonzero
        entries, ordered by pivot column; the tracker's own, not copies."""
        return self._rows

    def is_full(self):
        return self.rank == self.ncols

    def add(self, vec):
        """Reduce and absorb one row, a dense sequence or a ``{column:
        value}`` dict of its entries, each a FieldScalar or a 5-tuple;
        returns True when the rank grew."""
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        vec = {}
        for c, x in items:
            if isinstance(x, FieldScalar):
                x = x.q
            if x != Q_ZERO:
                vec[c] = x
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
        for row in self._rows:
            factor = row.get(lead)
            if factor is not None:
                add_scaled(row, vec, q_neg(factor))
        pos = bisect.bisect(self.pivots, lead)
        self._rows.insert(pos, vec)
        self.pivots.insert(pos, lead)
        self._by_pivot[lead] = vec
        return True

    def nullspace(self):
        pivot_set = set(self.pivots)
        basis = []
        for free in range(self.ncols):
            if free in pivot_set:
                continue
            vec = [Q_ZERO] * self.ncols
            vec[free] = Q_ONE
            for row, col in zip(self._rows, self.pivots):
                if free in row:
                    vec[col] = q_neg(row[free])
            basis.append([FieldScalar.from_q(q) for q in vec])
        return basis

