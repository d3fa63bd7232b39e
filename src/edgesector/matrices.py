"""Exact dense integer matrices.

Every operator here (T, L, S, A, the incidence products, M) is an integer
matrix; the 1/2 of (1/2) L lives in the polynomials.  So entries are ints
only, checked once where outside rows enter, and all arithmetic is integer:
the characteristic polynomial of a small matrix is read from the digits of
one determinant at a power of two by _kronecker_poly, the one digit reader,
which zeta.ihara_det uses too, and that of any other comes from
Berkowitz's division-free algorithm, whose mat-vecs sum at column indices
for a light nonnegative matrix and dot row prefixes for any other.  rank
and det share one fraction-free (Bareiss) elimination with row swaps.  A
product walks the nonzeros of its left operand.

Most of the package's matrices are symmetric: L, S, A, Q, T + T^T and the
shadows M M^T, M^T M and M^T L^k M.  For those the Kronecker determinant
(_symmetric_det) and Berkowitz do about half their work.  Each kernel tests
symmetry itself with _symmetric, one exact comparison, so no caller passes
it and a wrong assumption cannot reach a result.  T, the deflated Delta and
the deflated shadow products Q (Q - 2I)^k Delta are not symmetric and take
the general loops.
"""

from __future__ import annotations

from itertools import chain
from math import isqrt
from operator import add, mul, sub

from .polynomials import Poly


class DimensionError(ValueError):
    pass


def _require_ints(values) -> None:
    """TypeError unless every value is exactly an int, so a bool, a float or
    a rational is refused."""
    for a in values:
        if type(a) is not int:
            raise TypeError(f"matrix entries must be int, not {type(a).__name__}")


class Matrix:
    """Immutable-by-convention dense matrix of ints.

    Matrix(rows) copies rows and raises DimensionError on ragged rows and
    TypeError on any entry whose type is not exactly int (a bool, a float or
    a rational).  Matrix._of(rows, ncols) wraps int rows the library has just
    built, with no copy and no check.
    """

    __slots__ = ("_rows", "nrows", "ncols")

    def __init__(self, rows, ncols: int | None = None):
        rs = [list(r) for r in rows]
        w = len(rs[0]) if rs else 0
        if any(len(r) != w for r in rs):
            raise DimensionError("ragged rows")
        if ncols is None:
            ncols = w
        elif rs and ncols != w:
            raise DimensionError("ncols does not match row length")
        _require_ints(chain.from_iterable(rs))
        self._rows = rs
        self.nrows = len(rs)
        self.ncols = ncols

    @classmethod
    def _of(cls, rows: list[list[int]], ncols: int) -> "Matrix":
        """The matrix of fresh, rectangular int rows, taken as they are."""
        m = object.__new__(cls)
        m._rows, m.nrows, m.ncols = rows, len(rows), ncols
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of([[1 if i == j else 0 for j in range(n)] for i in range(n)], n)

    @property
    def rows(self):
        return self._rows

    def __getitem__(self, i: int):
        return self._rows[i]

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_symmetric(self) -> bool:
        return self.is_square() and _symmetric(self._rows)

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
        return Matrix._of(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self._rows, other._rows)],
            self.ncols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionError("shape mismatch in subtraction")
        return Matrix._of(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self._rows, other._rows)],
            self.ncols,
        )

    def __neg__(self) -> "Matrix":
        return Matrix._of([[-a for a in r] for r in self._rows], self.ncols)

    def scaled(self, s: int) -> "Matrix":
        _require_ints((s,))
        return Matrix._of([[a * s for a in r] for r in self._rows], self.ncols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise DimensionError("inner dimensions do not match")
        brows = other._rows
        w = other.ncols
        out = []
        for arow in self._rows:
            acc = [0] * w
            for a, brow in zip(arow, brows):
                # walk the nonzeros of the left operand; a signed incidence
                # entry of 1 or -1 adds or subtracts a row, unmultiplied
                if a == 0:
                    continue
                if a == 1:
                    acc = list(map(add, acc, brow))
                elif a == -1:
                    acc = list(map(sub, acc, brow))
                else:
                    acc = [x + a * y for x, y in zip(acc, brow)]
            out.append(acc)
        return Matrix._of(out, w)

    def transpose(self) -> "Matrix":
        return Matrix._of(
            [list(col) for col in zip(*self._rows)] if self._rows else [], self.nrows
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
        return {
            "rows": self.nrows,
            "cols": self.ncols,
            "entries": [[str(a) for a in r] for r in self._rows],
        }

    # -- eliminations ------------------------------------------------------

    def rank(self) -> int:
        """Exact rank by fraction-free elimination."""
        return _eliminate([list(r) for r in self._rows], self.ncols)[0]

    def det(self) -> int:
        """Exact determinant by fraction-free elimination with row swaps."""
        if not self.is_square():
            raise DimensionError("determinant of a non-square matrix")
        rank, pivot = _eliminate([list(r) for r in self._rows], self.ncols)
        return pivot if rank == self.nrows else 0

    # -- characteristic polynomial ------------------------------------------

    def charpoly(self) -> Poly:
        """Monic characteristic polynomial det(xI - M), computed exactly.

        Two algorithms, both with integer ring operations only.  A small
        matrix takes the Kronecker route (_kronecker_charpoly): one
        determinant of x0 I - M at x0 = 2^b, whose balanced base-2^b digits
        are the coefficients, read and checked by _kronecker_poly, the
        reader zeta.ihara_det shares.  b comes from the Frobenius norm F =
        ||M||_F^2 (_coefficient_bits): by Schur's inequality every
        |c_k| <= C(n, k) rho^k <= (1 + rho)^n with rho^2 = F / n, which
        never exceeds the row-sum bound (1 + R)^n.  The route runs when
        n * b is at most _KRONECKER_BITS; every other matrix takes Berkowitz
        (_berkowitz_charpoly), whose mat-vecs sum at column indices for a
        light nonnegative matrix and dot row prefixes for any other.  Both
        routes do about half their work on a symmetric matrix (A, Q, L, S,
        T + T^T, M M^T, M^T L^k M); T, the deflated Delta and the deflated
        shadow products take the general loops.  At n = 20, m = 38, A takes
        680 bits, Q 1040 and deflated Delta 970-990, so A and Delta take
        the Kronecker route and Q and the shadow products (1500 and more)
        Berkowitz.  _KRONECKER_BITS records how the limit was fitted.
        """
        if not self.is_square():
            raise DimensionError("characteristic polynomial of a non-square matrix")
        rows = self._rows
        n = self.nrows
        if n * (b := _coefficient_bits(rows)) <= _KRONECKER_BITS:
            return _kronecker_charpoly(rows, b)
        return _berkowitz_charpoly(rows)

    def __repr__(self):
        return f"Matrix({self._rows!r})"


# The largest n * b, in bits, at which charpoly takes the Kronecker route.
#
# Fitted on the symmetric kernels over the charpolys of fingerprint (A, Q,
# and Delta and the shadow products Q (Q - 2I)^k Delta deflated to n - 1
# rows) of seeded random graphs on 8 to 26 vertices with m = 1.9 n and 2.5 n,
# and of verify_all over the corpus entries of at most 18 edges: 404
# matrices between 300 and 2600 bits, each route timed best of 7 or 9
# (Python 3.11, 2 CPUs).  In three runs the summed time of the route each
# limit picks was lowest between 1020 and 1180 bits, within 0.4% of the
# time at 1000 and flat within 0.6% from 1000 to 1300, below the spread
# between runs; it grew by 4% at 600 and at 1600.  So the limit stays at
# 1000.  By kind, the median Kronecker/Berkowitz time ratio reaches 1 near
# 780 bits for symmetric listed matrices (a sparse A or Q; 620 on the
# general kernels, measured on the same matrices), near 1150 for symmetric
# dotted ones (S, M M^T, M^T L^k M, a dense Q) and near 1250 for
# non-symmetric dotted ones (deflated Delta and X_k).
_KRONECKER_BITS = 1000


def _symmetric(rows) -> bool:
    """Whether the square rows equal their transpose: one C-level comparison
    that stops at the first row that differs."""
    return rows == list(map(list, zip(*rows)))


def _coefficient_bits(rows) -> int:
    """b with |c| < 2^(b-2) for every charpoly coefficient c of the square
    int matrix rows, and 2^b > 4R for its largest absolute row sum R.

    By Schur's inequality the eigenvalues have sum |lambda_i|^2 <= F =
    ||M||_F^2, so by Cauchy-Schwarz their mean modulus is at most rho =
    sqrt(F / n), and by Maclaurin's inequality |c_k| <= e_k(|lambda|) <=
    C(n, k) rho^k, whose sum is (1 + rho)^n.  In integers, with t = 8
    fractional bits, s = isqrt(F 4^t / n) + 1 > 2^t rho, so
    (1 + rho)^n < (2^t + s)^n / 2^(tn) < 2^(b-2) for
    b = bit_length((2^t + s)^n) - tn + 2.  As F <= n R^2, rho <= R, so
    (1 + rho)^n is never looser than (1 + R)^n.  And R <= sqrt(n F) =
    n rho < (1 + rho)^n, so 2^b > 4R too.  A 0 x 0 matrix, whose charpoly
    is 1, takes b = 3.
    """
    n = len(rows)
    if not n:
        return 3
    f = sum(sum(map(mul, row, row)) for row in rows)
    s = isqrt((f << 16) // n) + 1
    return ((256 + s) ** n).bit_length() - 8 * n + 2


def _kronecker_poly(rows, b: int, degree: int, top: int, low: int | None = None) -> Poly:
    """The polynomial p of the given degree whose value at x0 = 2^b is the
    determinant of the square int matrix rows: the balanced base-2^b digits
    of that determinant, lowest first, when each |c_k| < x0 / 4 (Kronecker
    substitution).  The one digit reader of charpoly and zeta.ihara_det.

    rows is eliminated in place, and the last pivot is the determinant: by
    _symmetric_det when rows is symmetric (x0 I - M for a symmetric M, and
    the Bass matrix of zeta._ihara_kronecker), by _eliminate otherwise.  A
    strictly diagonally dominant matrix has every leading minor nonzero, so
    no row is swapped.  That is O(n^3) operations on integers no longer
    than the determinant.  A wrong bound b wraps the digits unseen, so the
    digits known in advance are checked: degree + 1 of them, the top one
    and, when low is given, the constant one.  Anything else raises
    ArithmeticError.
    """
    if _symmetric(rows):
        value = _symmetric_det(rows)
    else:
        value = _eliminate(rows, len(rows))[1]
    x0 = 1 << b
    mask, half = x0 - 1, x0 >> 1
    digits = []
    while value:
        digit = value & mask
        if digit >= half:
            digit -= x0
        digits.append(digit)
        value = (value - digit) >> b
    if len(digits) != degree + 1 or digits[-1] != top or low is not None and digits[0] != low:
        raise ArithmeticError(
            f"Kronecker digits {digits} are not those of a degree-{degree} polynomial"
            f" with top coefficient {top}" + ("" if low is None else f" and constant term {low}")
        )
    return Poly(digits)


def _kronecker_charpoly(rows, b: int) -> Poly:
    """charpoly of the square int matrix rows from one determinant: the
    digits of det(x0 I - M) at x0 = 2^b (_kronecker_poly), monic of degree n.

    With b = _coefficient_bits(rows) each |c_k| < x0 / 4, and x0 > 4R, R the
    largest absolute row sum, makes x0 I - M strictly diagonally dominant.
    Where Berkowitz is O(n^4) behind about n^3 / 3 Python-level calls, this
    is one O(n^3) elimination.
    """
    x0 = 1 << b
    m = [[-a for a in row] for row in rows]
    for i, row in enumerate(m):
        row[i] += x0
    return _kronecker_poly(m, b, len(rows), 1)


def _berkowitz_charpoly(rows) -> Poly:
    """charpoly of the square matrix rows by Berkowitz's division-free
    algorithm.

    The polynomial of each leading (r+1)x(r+1) block is the Toeplitz column
    [1, -a, -R C, -R A_r C, ..., -R A_r^(r-1) C] convolved with that of the
    leading r x r block A_r, where R and C are row and column r cut to A_r
    and a is entry (r, r).  The mat-vecs take one of two loops, by sign and
    weight.  A listed matrix, every entry >= 0 and the entries summing to at
    most n^2 / 2 (T, T + T^T, L, A and a sparse Q), keeps each row of A_r as
    a list of column indices, j listed a_ij times, and sums v at them with
    no product at all; its lists never hold more than half the cells.  Any
    other matrix (Delta, S, the shadow products) dots the row prefixes of
    A_r with map(mul), O(n^4) in all.

    A symmetric matrix (_symmetric: L, S, A, Q, T + T^T, M M^T, M^T L^k M)
    has R = C^T and a symmetric A_r, so with w_j = A_r^j C the entries are
    R A_r^2j C = w_j . w_j and R A_r^(2j+1) C = w_j . w_(j+1): floor(r / 2)
    mat-vecs per block where any other matrix (T, the deflated Delta, the
    shadow products X_k) takes r - 1.
    """
    entries = list(chain.from_iterable(rows))
    listed = min(entries, default=0) >= 0 and 2 * sum(entries) <= len(rows) ** 2
    symmetric = _symmetric(rows)
    block: list[list[int]] = []  # listed: the rows of A_r as column indices
    coeffs = [1]  # charpoly of A_r, descending degree
    for r, row in enumerate(rows):
        if listed:
            across = [j for j in range(r) if row[j] for _ in range(row[j])]
        else:
            across = row[:r]
        t = [1, -row[r]]
        # an index list may be [0], so it is tested for length
        if across if listed else any(across):
            v = [rows[i][r] for i in range(r)]
            if not listed:
                prefixes = [rows[i][:r] for i in range(r)]
            for k in range(r):
                if symmetric and not k & 1:
                    # k = 2j and v = w_j
                    t.append(-sum(map(mul, v, v)))
                    continue
                w = v
                if k:
                    if listed:
                        v = [sum(map(v.__getitem__, idx)) for idx in block]
                    else:
                        v = [sum(map(mul, p, v)) for p in prefixes]
                if symmetric:
                    t.append(-sum(map(mul, w, v)))
                elif listed:
                    t.append(-sum(map(v.__getitem__, across)))
                else:
                    t.append(-sum(map(mul, across, v)))
        t += [0] * (r + 2 - len(t))
        coeffs = [sum(map(mul, t[k::-1], coeffs)) for k in range(r + 2)]
        if listed:
            for i, idx in enumerate(block):
                if rows[i][r]:
                    idx += [r] * rows[i][r]
            if row[r]:
                across += [r] * row[r]
            block.append(across)
    return Poly(coeffs[::-1])


def _eliminate(m: list[list[int]], ncols: int) -> tuple[int, int]:
    """Bareiss's fraction-free elimination of the int rows m, in place, to
    row echelon form; returns (rank, signed last pivot).

    After k pivots every entry is a (k+1)-minor, so each division by the
    previous pivot is exact.  A row is searched for only when the diagonal
    candidate is zero, which it never is on the diagonally dominant matrices
    _kronecker_poly takes.  The inner loop is plain: on the 7 x 7 x0 I - A it
    took 37 us where row-slice comprehensions took 58 us (Python 3.11).
    """
    nr = len(m)
    rank, sign, prev = 0, 1, 1
    for col in range(ncols):
        if rank == nr:
            break
        if not m[rank][col]:
            piv = next((i for i in range(rank + 1, nr) if m[i][col]), None)
            if piv is None:
                continue
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
    return rank, sign * prev


def _symmetric_det(m: list[list[int]]) -> int:
    """Determinant of the symmetric int rows m by Bareiss's elimination
    without row swaps, in place, on and above the diagonal only.

    After k pivots entry (i, j) is the (k+1)-minor of rows 0..k-1, i and
    columns 0..k-1, j, which is symmetric in (i, j).  So only j >= i is
    updated, and row i's multiplier, entry (i, col), is read as entry
    (col, i) of the pivot row: about n^3 / 6 updates where _eliminate makes
    n^3 / 3.  Entries below the diagonal are left stale.  A zero pivot
    raises ArithmeticError; on the strictly diagonally dominant matrices
    _kronecker_poly takes, every leading minor is nonzero.
    """
    n = len(m)
    prev = 1
    for col in range(n):
        prow = m[col]
        p = prow[col]
        if not p:
            raise ArithmeticError(f"zero pivot at column {col} of a symmetric elimination")
        for i in range(col + 1, n):
            mi = m[i]
            f = prow[i]
            for j in range(i, n):
                mi[j] = (p * mi[j] - f * prow[j]) // prev
        prev = p
    return prev
