"""Exact linear algebra over Q(i, sqrt2).

One elimination, ``RankTracker``: an incremental reduced row echelon form
over lists of FieldScalar.  Inversion feeds it the rows of [A | I]; the
center computation feeds it bracket rows and reads off the nullspace.
Sizes in this package are tiny (a few dozen rows), so clarity wins over
cleverness; everything is exact, there are no tolerance decisions anywhere.
"""

from .scalars import ONE, ZERO


class SingularMatrixError(ValueError):
    pass


def invert(a):
    """Exact inverse; raises SingularMatrixError when the rank drops.

    The reduced form of [A | I] is [I | A^-1] exactly when every pivot lies
    in the A half.
    """
    n = len(a)
    tracker = RankTracker(2 * n)
    for i, row in enumerate(a):
        tracker.add(list(row) + [ONE if j == i else ZERO for j in range(n)])
    if tracker.pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in tracker.rows]


class RankTracker:
    """Incremental RREF: feed rows one by one, stop as soon as rank is full.

    Used for center computations where the full stacked system has thousands
    of rows but the rank usually saturates after a handful.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []
        self.pivots = []

    @property
    def rank(self):
        return len(self.rows)

    def is_full(self):
        return self.rank == self.ncols

    def add(self, vec):
        """Reduce and absorb one row; returns True when the rank grew."""
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
        # keep rows ordered by pivot column
        pos = next(
            (i for i, c in enumerate(self.pivots) if c > lead), len(self.pivots)
        )
        self.rows.insert(pos, vec)
        self.pivots.insert(pos, lead)
        return True

    def nullspace(self):
        pivot_set = set(self.pivots)
        basis = []
        for free in range(self.ncols):
            if free in pivot_set:
                continue
            vec = [ZERO] * self.ncols
            vec[free] = ONE
            for row, col in zip(self.rows, self.pivots):
                if row[free]:
                    vec[col] = -row[free]
            basis.append(vec)
        return basis
