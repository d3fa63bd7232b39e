"""Exact dense matrices over the rationals.

Entries are ints or fractions.Fraction (mixing is fine; integer matrices stay
integer under the ring operations).  Everything is computed exactly: the
characteristic polynomial is Berkowitz's division-free algorithm, so an
integer matrix gives an integer polynomial without any rational arithmetic;
rank and det share one fraction-free (Bareiss) elimination.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm, prod
from operator import mul

from .polynomials import Poly


class DimensionError(ValueError):
    pass


class Matrix:
    """Immutable-by-convention dense matrix with exact entries."""

    __slots__ = ("_rows", "nrows", "ncols")

    def __init__(self, rows, ncols: int | None = None):
        rs = [list(r) for r in rows]
        if rs:
            w = len(rs[0])
            if any(len(r) != w for r in rs):
                raise DimensionError("ragged rows")
        else:
            w = 0
        if ncols is None:
            ncols = w
        elif rs and ncols != w:
            raise DimensionError("ncols does not match row length")
        self._rows = rs
        self.nrows = len(rs)
        self.ncols = ncols

    @classmethod
    def zeros(cls, r: int, c: int) -> "Matrix":
        return cls([[0] * c for _ in range(r)], ncols=c)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], ncols=n)

    @classmethod
    def diagonal(cls, diag) -> "Matrix":
        d = list(diag)
        n = len(d)
        return cls([[d[i] if i == j else 0 for j in range(n)] for i in range(n)], ncols=n)

    @property
    def rows(self):
        return self._rows

    def __getitem__(self, i: int):
        return self._rows[i]

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_symmetric(self) -> bool:
        if not self.is_square():
            return False
        r = self._rows
        return all(r[i][j] == r[j][i] for i in range(self.nrows) for j in range(i))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self._rows == other._rows
        )

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionError("shape mismatch in addition")
        return Matrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self._rows, other._rows)],
            ncols=self.ncols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionError("shape mismatch in subtraction")
        return Matrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self._rows, other._rows)],
            ncols=self.ncols,
        )

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in r] for r in self._rows], ncols=self.ncols)

    def scaled(self, s) -> "Matrix":
        return Matrix([[a * s for a in r] for r in self._rows], ncols=self.ncols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise DimensionError("inner dimensions do not match")
        brows = other._rows
        w = other.ncols
        if _is_dense(self._rows, self.ncols):
            cols = list(zip(*brows)) if brows else [()] * w
            return Matrix(
                [[sum(map(mul, arow, col)) for col in cols] for arow in self._rows],
                ncols=w,
            )
        out = []
        for arow in self._rows:
            acc = [0] * w
            for a, brow in zip(arow, brows):
                # skip-zero accumulation for the sparse 0/1 operators
                if a == 0:
                    continue
                if a == 1:
                    acc = [x + y for x, y in zip(acc, brow)]
                else:
                    acc = [x + a * y for x, y in zip(acc, brow)]
            out.append(acc)
        return Matrix(out, ncols=w)

    def transpose(self) -> "Matrix":
        return Matrix(
            [list(col) for col in zip(*self._rows)] if self._rows else [],
            ncols=self.nrows,
        )

    def trace(self):
        if not self.is_square():
            raise DimensionError("trace of a non-square matrix")
        return sum(self._rows[i][i] for i in range(self.nrows))

    def power_traces(self, kmax: int) -> list:
        """[tr(M), tr(M^2), ..., tr(M^kmax)] by successive multiplication."""
        if not self.is_square():
            raise DimensionError("power traces of a non-square matrix")
        traces = []
        power = self
        for _ in range(kmax):
            traces.append(power.trace())
            if len(traces) < kmax:
                # T^k as T T^(k-1): a sparse T then adds rows of the power
                power = self * power
        return traces

    def to_float_rows(self) -> list[list[float]]:
        return [[float(a) for a in r] for r in self._rows]

    def to_json_dict(self) -> dict:
        """Dims plus exact entry strings; the CLI debug export format."""
        from .polynomials import scalar_str

        return {
            "rows": self.nrows,
            "cols": self.ncols,
            "entries": [[scalar_str(a) for a in r] for r in self._rows],
        }

    # -- eliminations ------------------------------------------------------

    def rank(self) -> int:
        """Exact rank by fraction-free elimination."""
        return _bareiss(self._rows, self.ncols)[0]

    def det(self):
        """Exact determinant by fraction-free elimination with row swaps."""
        if not self.is_square():
            raise DimensionError("determinant of a non-square matrix")
        rank, pivot, scale = _bareiss(self._rows, self.ncols)
        if rank < self.nrows:
            return 0
        q, r = divmod(pivot, scale)
        return q if r == 0 else Fraction(pivot, scale)

    # -- characteristic polynomial ------------------------------------------

    def charpoly(self) -> Poly:
        """Monic characteristic polynomial det(xI - M), computed exactly.

        Berkowitz's division-free algorithm: ring operations only, so integer
        input stays integer and never meets a Fraction.  The polynomial of each
        leading (r+1)x(r+1) block is the Toeplitz column
        [1, -a, -R C, -R A_r C, ..., -R A_r^(r-1) C] convolved with that of
        the leading r x r block A_r, where R and C are row and column r cut to
        A_r and a is entry (r, r).  The mat-vecs take one of three loops from
        the matrix itself: a dense matrix (_is_dense) dots the row prefixes of
        A_r with map(mul), O(n^4) in all; a sparse operator walks the
        nonzeros of A_r, O(n * nnz) per block; and a sparse operator whose
        nonzeros all equal 1 (T, T + T^T, L, A) keeps their column indices
        and sums v at them, with no product at all.
        """
        if not self.is_square():
            raise DimensionError("characteristic polynomial of a non-square matrix")
        rows = self._rows
        dense = _is_dense(rows, self.ncols)
        unit = not dense and set(chain.from_iterable(rows)) <= {0, 1}
        # sparse: the nonzeros of A_r by row, as column indices when unit
        # and as (column, entry) pairs otherwise
        block: list[list] = []
        coeffs = [1]  # charpoly of A_r, descending degree
        for r, row in enumerate(rows):
            if dense:
                across = row[:r]
            elif unit:
                across = [j for j in range(r) if row[j]]
            else:
                across = [(j, a) for j, a in enumerate(row[:r]) if a]
            t = [1, -row[r]]
            # a unit index list may be [0], so sparse lists are tested for length
            if any(across) if dense else across:
                v = [rows[i][r] for i in range(r)]
                if dense:
                    prefixes = [rows[i][:r] for i in range(r)]
                    for k in range(r):
                        if k:
                            v = [sum(map(mul, p, v)) for p in prefixes]
                        t.append(-sum(map(mul, across, v)))
                elif unit:
                    for k in range(r):
                        if k:
                            v = [sum(map(v.__getitem__, idx)) for idx in block]
                        t.append(-sum(map(v.__getitem__, across)))
                else:
                    for k in range(r):
                        if k:
                            v = [sum(a * v[j] for j, a in nz) for nz in block]
                        t.append(-sum(a * v[j] for j, a in across))
            t += [0] * (r + 2 - len(t))
            coeffs = [sum(map(mul, t[k::-1], coeffs)) for k in range(r + 2)]
            if not dense:
                for i, nz in enumerate(block):
                    if rows[i][r]:
                        nz.append(r if unit else (r, rows[i][r]))
                if row[r]:
                    across.append(r if unit else (r, row[r]))
                block.append(across)
        return Poly(coeffs[::-1])

    def __repr__(self):
        return f"Matrix({self._rows!r})"


def _is_dense(rows, ncols: int) -> bool:
    """At least half the entries nonzero, the fill above which charpoly and
    products dot whole rows with sum(map(mul, ...)) instead of walking the
    nonzeros in Python.  Over the matrices verify meets on the corpus
    (Python 3.11), whole-row dots take charpolys 1.3x and products 1.5-1.8x
    faster on the dense m x m shadow products, and are 0.1-0.6x as fast on
    the sparse operators (T, the 2-core companion K, A of a sparse graph).
    Below this fill, charpoly's walk is a third loop when every nonzero is 1
    (T, T + T^T, L, A but not K): it sums v at column indices, no products."""
    return 2 * sum(map(bool, chain.from_iterable(rows))) >= len(rows) * ncols


def _bareiss(rows, ncols: int) -> tuple[int, int, int]:
    """Bareiss's fraction-free elimination to row echelon form.

    Rows are first scaled to integers by their denominators' lcm.  After k
    pivots every entry is a (k+1)-minor of the scaled matrix, so each division
    by the previous pivot is exact.  Returns (rank, signed last pivot, product
    of the row scales); a square full-rank matrix has det = pivot / scale.
    """
    dens = [lcm(*(a.denominator for a in r)) for r in rows]
    m = [[int(a * d) for a in r] for r, d in zip(rows, dens)]
    nr = len(m)
    rank, sign, prev = 0, 1, 1
    for col in range(ncols):
        piv = next((i for i in range(rank, nr) if m[i][col]), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        prow = m[rank]
        p = prow[col]
        for i in range(rank + 1, nr):
            mi = m[i]
            f = mi[col]
            for j in range(col + 1, ncols):
                mi[j] = (p * mi[j] - f * prow[j]) // prev
        prev = p
        rank += 1
    return rank, sign * prev, prod(dens)

