"""Dense exact linear algebra over Q(i, sqrt2).

Plain Gauss-Jordan elimination on lists of lists of FieldScalar.  Sizes in
this package are tiny (a few dozen rows), so clarity wins over cleverness;
everything is exact, there are no tolerance decisions anywhere.
"""

from .scalars import ONE, ZERO


class SingularMatrixError(ValueError):
    pass


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def invert(a):
    """Exact inverse; raises SingularMatrixError when the rank drops."""
    n = len(a)
    work = [list(row) + ident_row for row, ident_row in zip(a, identity(n))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        inv_lead = work[col][col].inverse()
        work[col] = [x * inv_lead for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def rref(a):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows = [list(r) for r in a]
    m = len(rows[0]) if rows else 0
    pivots = []
    rank = 0
    for col in range(m):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv_lead = rows[rank][col].inverse()
        rows[rank] = [x * inv_lead for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows[:rank], pivots


def solve(a, b):
    """One exact solution of ``a x = b`` (free variables set to 0), or None."""
    if not a:
        return [] if all(not x for x in b) else None
    m = len(a[0])
    augmented = [list(row) + [rhs] for row, rhs in zip(a, b)]
    rows, pivots = rref(augmented)
    x = [ZERO] * m
    for row, col in zip(rows, pivots):
        if col == m:
            return None  # pivot in the RHS column: inconsistent
        x[col] = row[m]
    return x


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
