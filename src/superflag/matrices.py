"""Block supermatrices over a supercommutative ring.

A :class:`SuperMatrix` is a sparse rectangular matrix of :class:`SuperPoly`
entries together with row and column :class:`BlockShape`s and a declared
parity.  A shape is just its even and odd sizes: the even rows (or
columns) come first, then the odd ones.

Parity bookkeeping follows the usual convention: in an *even* matrix the
diagonal blocks carry even entries and the off-diagonal blocks odd entries;
in an *odd* matrix it is the other way around.  The supertranspose is the
graded transpose (M11^T, M21^T; -M12^T, M22^T) and satisfies
(M N)^ST = (-1)^{|M||N|} N^ST M^ST.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .ring import CONSTANT, NUMERIC_CTX, SuperPoly, add_product, \
    common_context
from .scalars import Q_ONE, FieldScalar


class ShapeError(ValueError):
    pass


class ParityError(ValueError):
    pass


class NotNilpotentError(ValueError):
    pass


@dataclass(frozen=True)
class BlockShape:
    """even|odd sizes of one side of a supermatrix."""

    even: int
    odd: int

    def __post_init__(self):
        if self.even < 0 or self.odd < 0:
            raise ShapeError("negative block sizes")

    @property
    def total(self):
        return self.even + self.odd

    def is_odd_index(self, i):
        return i >= self.even


def add_matrix_product(acc, a, b, negate):
    """Add the entries of ``a @ b``, or of ``-(a @ b)`` when ``negate``,
    into ``acc``, a map from slot (i, j) to term dict."""
    by_row = {}
    for (k, j), v in b.entries.items():
        by_row.setdefault(k, []).append((j, v))
    for (i, k), u in a.entries.items():
        for j, v in by_row.get(k, ()):
            terms = acc.get((i, j))
            if terms is None:
                terms = acc[(i, j)] = {}
            add_product(terms, u, v, negate)


def bracket_terms(a, b):
    """The entries of the superbracket [a, b] = ab - (-1)^{|a||b|} ba as a
    map from slot to term dict, with no matrix built; a slot whose products
    cancel holds an empty dict."""
    acc = {}
    add_matrix_product(acc, a, b, False)
    add_matrix_product(acc, b, a, not (a.parity and b.parity))
    return acc


def _entry_value(ctx, value):
    if isinstance(value, SuperPoly):
        return ctx.lift(value) if value.ctx is not ctx else value
    return ctx.scalar(value)


class SuperMatrix:
    __slots__ = ("rows", "cols", "ctx", "parity", "entries")

    @classmethod
    def _new(cls, rows, cols, ctx, parity, entries):
        obj = object.__new__(cls)
        obj.rows = rows
        obj.cols = cols
        obj.ctx = ctx
        obj.parity = parity
        obj.entries = entries
        return obj

    @classmethod
    def build(cls, rows, cols, entries, ctx=None, parity="auto"):
        """Construct from ``{(i, j): value}`` or a dense list of lists."""
        if isinstance(entries, (list, tuple)):
            entries = {
                (i, j): v
                for i, row in enumerate(entries)
                for j, v in enumerate(row)
            }
        if ctx is None:
            ctx = NUMERIC_CTX
            for v in entries.values():
                if isinstance(v, SuperPoly) and v.ctx is not ctx:
                    ctx = common_context(v.ctx, ctx)
        clean = {}
        for (i, j), v in entries.items():
            if not (0 <= i < rows.total and 0 <= j < cols.total):
                raise ShapeError(f"entry index {(i, j)} outside the matrix")
            v = _entry_value(ctx, v)
            if not v.is_zero():
                clean[(i, j)] = v
        mat = cls._new(rows, cols, ctx, None, clean)
        mat.parity = mat._resolve_parity(parity)
        return mat

    @classmethod
    def identity(cls, shape, ctx=NUMERIC_CTX):
        entries = {(i, i): ctx.one for i in range(shape.total)}
        return cls._new(shape, shape, ctx, 0, entries)

    # -- parity ------------------------------------------------------------

    def _slot_parity(self, i, j):
        return int(self.rows.is_odd_index(i)) ^ int(self.cols.is_odd_index(j))

    def _infer_parity(self):
        """The matrix parity read in one pass over the entries' monomials:
        each term contributes its slot parity xor its odd degree, and every
        contribution must agree.  None for a non-homogeneous entry or
        matrix, 0 for the zero matrix."""
        p, q = self.rows.even, self.cols.even
        bit = None
        for (i, j), v in self.entries.items():
            slot = (i >= p) ^ (j >= q)
            for _, ok in v.terms:
                b = slot ^ (ok.bit_count() & 1)
                if bit is None:
                    bit = b
                elif b != bit:
                    return None
        return 0 if bit is None else bit

    def _resolve_parity(self, parity):
        inferred = self._infer_parity()
        if parity == "auto":
            return inferred
        if parity is None:
            return None
        if parity not in (0, 1):
            raise ParityError(f"parity must be 0, 1, None or 'auto', got {parity!r}")
        if inferred is not None and inferred != parity and self.entries:
            raise ParityError(
                f"declared parity {parity} contradicts the entries"
            )
        if inferred is None:
            raise ParityError("entries are not parity-homogeneous")
        return parity

    # -- basic access -------------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        v = self.entries.get((i, j))
        if v is None:
            return self.ctx.zero
        return v

    def is_zero(self):
        return not self.entries

    def is_square(self):
        return self.rows == self.cols

    def lift(self, ctx):
        if ctx is self.ctx:
            return self
        return SuperMatrix._new(
            self.rows, self.cols, ctx, self.parity,
            {k: ctx.lift(v) for k, v in self.entries.items()},
        )

    @staticmethod
    def _align(a, b):
        ctx = common_context(a.ctx, b.ctx)
        return a.lift(ctx), b.lift(ctx)

    def map_entries(self, fn):
        entries = {}
        for k, v in self.entries.items():
            w = fn(v)
            if not w.is_zero():
                entries[k] = w
        mat = SuperMatrix._new(self.rows, self.cols, self.ctx, None, entries)
        mat.parity = mat._infer_parity()
        return mat

    # -- arithmetic ----------------------------------------------------------

    def _require_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError("shape mismatch")

    def __add__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        self._require_same_shape(other)
        a, b = SuperMatrix._align(self, other)
        entries = dict(a.entries)
        for k, v in b.entries.items():
            w = entries.get(k)
            s = v if w is None else w + v
            if s.is_zero():
                entries.pop(k, None)
            else:
                entries[k] = s
        mat = SuperMatrix._new(a.rows, a.cols, a.ctx, None, entries)
        if a.parity == b.parity:
            mat.parity = a.parity
        else:
            mat.parity = mat._infer_parity()
        return mat

    def __sub__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return SuperMatrix._new(
            self.rows, self.cols, self.ctx, self.parity,
            {k: -v for k, v in self.entries.items()},
        )

    def _scalar_operand(self, scalar):
        """Coerce a multiplier and bring matrix and multiplier to one ctx."""
        if isinstance(scalar, SuperPoly):
            ctx = common_context(scalar.ctx, self.ctx)
            return self.lift(ctx), ctx.lift(scalar)
        scalar = FieldScalar._coerce(scalar)
        return self, (None if scalar is None else self.ctx.scalar(scalar))

    def __mul__(self, scalar):
        """Right multiplication by a scalar or polynomial."""
        mat, s = self._scalar_operand(scalar)
        if s is None:
            return NotImplemented
        return mat.map_entries(lambda v: v * s)

    def __rmul__(self, scalar):
        mat, s = self._scalar_operand(scalar)
        if s is None:
            return NotImplemented
        return mat.map_entries(lambda v: s * v)

    def __matmul__(self, other):
        """The product, with every term added into one term dict per entry
        and each entry built once, so no intermediate matrix or polynomial
        is made.  The result lives in the larger of the two contexts; its
        parity is the sum of the factors' parities, or inferred when one
        of them has none."""
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError("inner shapes do not match")
        parity = None
        if self.parity in (0, 1) and other.parity in (0, 1):
            parity = self.parity ^ other.parity
        acc = {}
        add_matrix_product(acc, self, other, False)
        return SuperMatrix.from_terms(
            self.rows, other.cols, common_context(self.ctx, other.ctx),
            parity, acc)

    @classmethod
    def from_terms(cls, rows, cols, ctx, parity, acc):
        """The matrix of the nonzero term dicts in ``acc``; a parity of
        None is inferred from the entries."""
        entries = {k: SuperPoly._new(ctx, terms)
                   for k, terms in acc.items() if terms}
        mat = cls._new(rows, cols, ctx, parity, entries)
        if parity is None:
            mat.parity = mat._infer_parity()
        return mat

    def __eq__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            return False
        a, b = SuperMatrix._align(self, other)
        return a.entries == b.entries

    # -- graded operations ----------------------------------------------------

    def supertranspose(self):
        if self.parity not in (0, 1):
            raise ParityError("supertranspose needs a parity-homogeneous matrix")
        entries = {}
        for (i, j), v in self.entries.items():
            if not self.rows.is_odd_index(i) and self.cols.is_odd_index(j):
                entries[(j, i)] = -v
            else:
                entries[(j, i)] = v
        return SuperMatrix._new(self.cols, self.rows, self.ctx, self.parity, entries)

    def parity_involution(self):
        """Entrywise grading automorphism a -> (-1)^{|a|} a.

        An entry's parity is the matrix parity plus its slot parity.  For an
        odd scalar t, ``M t == t M.parity_involution()``.
        """
        if self.parity not in (0, 1):
            raise ParityError("parity_involution needs a parity-homogeneous"
                              " matrix")
        entries = {
            (i, j): -v if self.parity ^ self._slot_parity(i, j) else v
            for (i, j), v in self.entries.items()
        }
        return SuperMatrix._new(self.rows, self.cols, self.ctx, self.parity,
                                entries)

    def superbracket(self, other):
        if not isinstance(other, SuperMatrix):
            raise TypeError("superbracket needs two supermatrices")
        if self.parity not in (0, 1) or other.parity not in (0, 1):
            raise ParityError("superbracket needs parity-homogeneous matrices")
        if not (self.is_square() and other.is_square()
                and self.rows == other.rows):
            raise ShapeError("superbracket needs square matrices of one"
                             " shape")
        return SuperMatrix.from_terms(self.rows, other.cols,
                                      common_context(self.ctx, other.ctx),
                                      self.parity ^ other.parity,
                                      bracket_terms(self, other))

    def invert(self):
        """Exact inverse for matrices with invertible body.

        The body B holds the entries' constant terms.  Its rows, sparse, are
        fed to a RankTracker as the rows of [B | E], whose reduced form is
        [E | B^-1] exactly when every pivot lies in the B half; no dense
        matrix is formed.  With N = B^-1 M - E, M = B(E + N): when N is
        zero, as for every numeric matrix, B^-1 is the inverse.  Otherwise
        the Neumann series for (E + N)^-1 is summed.  The series ends when
        every monomial of every entry of N has an odd factor: with k odd
        names in the ring, N^(k+1) = 0.  Any other N, for instance one
        holding even chart variables, raises NotNilpotentError before a
        power of N is formed.
        """
        if not self.is_square():
            raise ShapeError("only square matrices invert")
        size = self.rows.total
        rows = [{size + i: Q_ONE} for i in range(size)]
        for (i, j), v in self.entries.items():
            q = v.terms.get(CONSTANT)
            if q is not None:
                rows[i][j] = q
        tracker = linalg.RankTracker(2 * size)
        for row in rows:
            tracker.add(row)
        if tracker.pivots[:size] != list(range(size)):
            raise linalg.SingularMatrixError("matrix body is singular")
        binv = SuperMatrix.from_terms(self.rows, self.rows, self.ctx, None, {
            (i, j - size): {CONSTANT: q}
            for i, row in enumerate(tracker.rows)
            for j, q in sorted(row.items()) if j >= size})
        eye = SuperMatrix.identity(self.rows, self.ctx)
        n = binv @ self - eye
        if n.is_zero():
            return binv
        if any(not odd for v in n.entries.values() for _, odd in v.terms):
            raise NotNilpotentError(
                "entries are not scalar-plus-nilpotent; no exact inverse "
                "in this ring"
            )
        acc = eye
        power = eye
        for k in range(1, len(self.ctx.odd_names) + 2):
            power = power @ n
            if power.is_zero():
                break
            acc = acc + (-power if k % 2 else power)
        return acc @ binv

    # -- rendering ----------------------------------------------------------------

    def render(self):
        """Rows separated by ';', entries by ',' (spaces after separators);
        an absent entry is written "0" without building a zero."""
        get, cols = self.entries.get, range(self.cols.total)
        rows = []
        for i in range(self.rows.total):
            rows.append(", ".join(
                "0" if (v := get((i, j))) is None else v.render()
                for j in cols))
        return "; ".join(rows)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return (
            f"SuperMatrix({self.rows.even}|{self.rows.odd} x "
            f"{self.cols.even}|{self.cols.odd}: {self.render()!r})"
        )


def parse_numeric_matrix(text, rows, cols, parity="auto"):
    """Parse the ';'/',' matrix literal with numeric (scalar) entries."""
    row_chunks = [chunk for chunk in text.strip().split(";")]
    if len(row_chunks) != rows.total:
        raise ShapeError(
            f"expected {rows.total} rows, got {len(row_chunks)}"
        )
    entries = {}
    for i, chunk in enumerate(row_chunks):
        items = chunk.split(",")
        if len(items) != cols.total:
            raise ShapeError(
                f"row {i + 1}: expected {cols.total} entries, got {len(items)}"
            )
        for j, item in enumerate(items):
            entries[(i, j)] = FieldScalar.parse(item)
    return SuperMatrix.build(rows, cols, entries, parity=parity)
