import random
from fractions import Fraction
from math import comb, isqrt

import pytest

from edgesector import matrices
from edgesector.census import builtin_generate
from edgesector.graphs import corpus, corpus_graph
from edgesector.edge_space import build_hashimoto, edge_space, sector_blocks
from edgesector.matrices import (
    _KRONECKER_BITS,
    DimensionError,
    Matrix,
    _berkowitz_charpoly,
    _coefficient_bits,
    _eliminate,
    _kronecker_charpoly,
    _kronecker_poly,
    _symmetric_det,
)
from edgesector.polynomials import Poly, series_of, ratfunc_reduce, PowerSeries

from conftest import sparse20_graphs


def naive_polymatrix_det(rows):
    """Cofactor-expansion determinant for matrices with Poly entries.

    Exponential; an independent oracle for small resolvent determinants.
    """
    n = len(rows)
    if n == 0:
        return Poly.one()
    if n == 1:
        return rows[0][0]
    out = Poly.zero()
    for j in range(n):
        if rows[0][j].is_zero():
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        term = rows[0][j] * naive_polymatrix_det(minor)
        out = out + (term if j % 2 == 0 else -term)
    return out


def resolvent_oracle(mat, scale=1):
    """det(I - w*scale*mat) by direct cofactor expansion over Poly entries."""
    n = mat.nrows
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            const = 1 if i == j else 0
            row.append(Poly((const, -scale * mat[i][j])))
        rows.append(row)
    return naive_polymatrix_det(rows)


def naive_product(a: Matrix, b: Matrix) -> Matrix:
    """Row-by-column product with no zero skipping; the oracle for __mul__."""
    cols = [[row[j] for row in b.rows] for j in range(b.ncols)]
    return Matrix(
        [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a.rows],
        ncols=b.ncols,
    )


def faddeev_leverrier(mat: Matrix) -> Poly:
    """Characteristic polynomial by the Faddeev-LeVerrier recursion.

    O(n^4); an independent oracle against Matrix.charpoly().
    """
    n = mat.nrows
    if n == 0:
        return Poly.one()
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    mk = Matrix.identity(n)
    for k in range(1, n + 1):
        mk = naive_product(mat, mk)
        c = -Fraction(mk.trace()) / k
        if c.denominator == 1:  # integer input keeps integer work
            c = c.numerator
        coeffs[n - k] = c
        if k < n:
            mk = mk + Matrix.identity(n).scaled(c)
    return Poly(coeffs)


def fraction_rank(mat: Matrix) -> int:
    """Rank by Gaussian elimination over Fraction; an oracle for Matrix.rank."""
    m = [[Fraction(a) for a in r] for r in mat.rows]
    rank = 0
    col = 0
    nr, nc = mat.nrows, mat.ncols
    while rank < nr and col < nc:
        piv = next((i for i in range(rank, nr) if m[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        prow = m[rank]
        inv = 1 / prow[col]
        for i in range(rank + 1, nr):
            f = m[i][col] * inv
            if f:
                mi = m[i]
                for j in range(col, nc):
                    mi[j] -= f * prow[j]
        rank += 1
        col += 1
    return rank


def fraction_det(mat: Matrix):
    """Determinant by Gaussian elimination over Fraction with row swaps; an
    oracle for Matrix.det."""
    n = mat.nrows
    m = [[Fraction(a) for a in r] for r in mat.rows]
    sign = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        prow = m[col]
        inv = 1 / prow[col]
        for i in range(col + 1, n):
            f = m[i][col] * inv
            if f:
                mi = m[i]
                for j in range(col, n):
                    mi[j] -= f * prow[j]
    out = Fraction(sign)
    for i in range(n):
        out *= m[i][i]
    return int(out) if out.denominator == 1 else out


def _kronecker_bits(m: Matrix) -> int:
    """n * b, the size charpoly compares with _KRONECKER_BITS."""
    return m.nrows * _coefficient_bits(m.rows)


def _listed(m: Matrix) -> bool:
    """Berkowitz's rule for its index-list loop: every entry >= 0 and the
    entries summing to at most n^2 / 2."""
    entries = [a for row in m.rows for a in row]
    return min(entries, default=0) >= 0 and 2 * sum(entries) <= m.nrows**2


def _limit_neighbours(n: int) -> tuple[Matrix, Matrix]:
    """r I for the largest r inside the Kronecker limit, and (r + 1) I."""
    r = 0
    while _kronecker_bits(Matrix.identity(n).scaled(r + 1)) <= _KRONECKER_BITS:
        r += 1
    return Matrix.identity(n).scaled(r), Matrix.identity(n).scaled(r + 1)


def _elimination_inputs():
    """Seeded integer matrices: square, wide, tall, singular, 0x0, 1x1,
    small and wide entries, sparse 0/1 and dense n = 16 with entries in
    +-50."""
    rng = random.Random(17)
    mats = [Matrix([]), Matrix([[0]]), Matrix([[-7]]), Matrix([[-60]])]
    mats += [Matrix([], ncols=3), Matrix([[]] * 3, ncols=0), Matrix([[0] * 5] * 3)]

    def entry(kind):
        if kind == "wide":
            return rng.randint(-60, 60)
        if kind == "sparse":
            return int(rng.random() < 0.3)
        return rng.randint(-3, 3)

    for kind in ("int", "wide", "sparse"):
        for _ in range(40):
            r = rng.randint(1, 8)
            c = r if rng.random() < 0.5 else rng.randint(1, 8)
            mats.append(Matrix([[entry(kind) for _ in range(c)] for _ in range(r)]))
        for n in range(2, 8):  # singular: a row repeats, or is a combination
            raw = [[entry(kind) for _ in range(n)] for _ in range(n)]
            raw[-1] = [a + 2 * b for a, b in zip(raw[0], raw[1])]
            mats.append(Matrix(raw))
            mats.append(Matrix(raw).transpose())
    for _ in range(2):  # dense, large entries
        mats.append(Matrix([[rng.randint(-50, 50) for _ in range(16)] for _ in range(16)]))
    return mats


def test_det_and_rank_vs_fraction_elimination():
    for m in _elimination_inputs():
        assert m.rank() == fraction_rank(m), m
        if m.is_square():
            d = m.det()
            assert d == fraction_det(m), m
            assert type(d) is int, m
            if m.nrows and m.rank() < m.nrows:
                assert d == 0
    with pytest.raises(DimensionError):
        Matrix([[1, 2]]).det()


def test_charpoly_examples():
    assert Matrix([[0] * 3] * 3).charpoly() == Poly((0, 0, 0, 1))
    assert corpus_graph("K3").adjacency().charpoly() == Poly((-2, -3, 0, 1))
    assert corpus_graph("K2").adjacency().charpoly() == Poly((-1, 0, 1))
    assert Matrix([[]] * 0).charpoly() == Poly.one()


def test_charpoly_vs_faddeev_leverrier():
    rng = random.Random(10)
    mats = []
    for _ in range(40):
        n = rng.randint(1, 12) if rng.random() < 0.3 else rng.randint(1, 6)
        mats.append(Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]))
    mats += [Matrix([]), Matrix([[0]]), Matrix([[-7]])]
    for n in range(2, 9):  # singular: the last row repeats the first
        raw = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        raw[-1] = list(raw[0])
        mats.append(Matrix(raw))
        assert mats[-1].charpoly()[0] == 0
    for n in range(1, 10):  # nilpotent: strictly upper triangular
        m = Matrix([[rng.randint(-5, 5) if j > i else 0 for j in range(n)] for i in range(n)])
        assert m.charpoly() == Poly((0,) * n + (1,))
        mats.append(m)
    for n in (16, 24):  # dense, large entries
        mats.append(Matrix([[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]))
    for _ in range(10):  # wide entries
        n = rng.randint(1, 6)
        mats.append(Matrix([[rng.randint(-60, 60) for _ in range(n)] for _ in range(n)]))
    sparse = []  # 0/1 fills on both sides of the listing rule
    for n in range(2, 13):
        for fill in (0.15, 0.35, 0.6, 0.9):
            sparse.append(Matrix([[int(rng.random() < fill) for _ in range(n)] for _ in range(n)]))
    assert {_listed(m) for m in sparse} == {False, True}
    mats += sparse
    for n in range(3, 13):  # sparse 0/1, one nonzero changed: a repeated index or a sign
        for x in (2, -1, -2, 1):
            raw = [[int(rng.random() < 0.3) for _ in range(n)] for _ in range(n)]
            nonzeros = [(i, j) for i in range(n) for j in range(n) if raw[i][j]]
            i, j = rng.choice(nonzeros or [(0, 0)])
            raw[i][j] = x
            mats.append(Matrix(raw))
    for name in ("K3", "C5", "K4", "star4", "exA_G1"):  # the sparse operators
        g = corpus_graph(name)
        es = edge_space(g)
        t = build_hashimoto(es)
        mats += [t, t + t.transpose(), sector_blocks(es).L]
    for n in (1, 5, 8):  # |lambda| = R, the bound's extreme
        for r in (1, 2, 7):
            for s in (r, -r):  # (x - s)^n: |c_k| = C(n, k) r^(n-k), the bound exactly
                m = Matrix.identity(n).scaled(s)
                assert m.charpoly() == Poly([comb(n, k) * (-s) ** (n - k) for k in range(n + 1)])
                mats.append(m)
        ones = Matrix([[1] * n for _ in range(n)])  # x^(n-1) (x - n), R = n
        assert ones.charpoly() == Poly((0,) * (n - 1) + (-n, 1))
        mats += [ones, -ones]
    for n in (10, 16):
        mats += _limit_neighbours(n)
    # the edges of the listing rule: entries summing to exactly n^2 / 2, with
    # a 2 (a repeated index) above and below the diagonal; one entry more; a
    # single -1 in a light matrix; and 2s on the diagonal and off it
    at_half = [[0, 2, 0, 1], [0, 0, 1, 0], [2, 0, 0, 0], [0, 1, 0, 1]]
    over_half = [list(row) for row in at_half]
    over_half[1][3] += 1
    signed = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1], [1, 0, 0, 0]]
    repeated = [[2 if (i + 2 * j) % 5 == 0 else 0 for j in range(6)] for i in range(6)]
    edges = [Matrix(rows) for rows in (at_half, over_half, signed, repeated)]
    assert [sum(map(sum, m.rows)) for m in edges[:2]] == [8, 9]
    assert [_listed(m) for m in edges] == [True, False, False, True]
    mats += edges
    # the Kronecker route and Berkowitz
    assert {_kronecker_bits(m) <= _KRONECKER_BITS for m in mats} == {False, True}
    for m in mats:
        p = m.charpoly()
        assert p == faddeev_leverrier(m)
        assert p.is_integer()
        assert _berkowitz_charpoly(m.rows) == p


def _deflated(x: Matrix) -> Matrix:
    """x, whose rows sum to 0, with row 0 subtracted from every row and row
    and column 0 dropped: charpoly(x) = x charpoly(_deflated(x))."""
    pivot = x.rows[0]
    return Matrix([[a - p for a, p in zip(row[1:], pivot[1:])] for row in x.rows[1:]])


def _fingerprint_matrices(g) -> list[Matrix]:
    """A, Q, Delta and Q (Q - 2I)^k Delta for k = 0, 1, 2, and the
    deflations of the last four, which fingerprint takes charpolys of."""
    deg = g.degrees()
    q, delta = g.vertex_operator(deg), g.vertex_operator(deg, -1)
    q_minus_2 = g.vertex_operator([d - 2 for d in deg])
    q1 = q * q_minus_2
    laplacian_side = [delta, q * delta, q1 * delta, q1 * q_minus_2 * delta]
    return [g.adjacency(), q, *laplacian_side, *map(_deflated, laplacian_side)]


def _assert_digits_fit(m: Matrix, p: Poly) -> None:
    """The bound charpoly takes its digit length b from: every coefficient
    of m's charpoly p has |c_k| < 2^(b-2), and 2^b > 4R, R the largest
    absolute row sum, which keeps 2^b I - m strictly diagonally dominant."""
    b = _coefficient_bits(m.rows)
    r = max([sum(map(abs, row)) for row in m.rows], default=0)
    assert max(map(abs, p.coeffs)) < 1 << (b - 2), m
    assert 1 << b > 4 * r, m


def test_charpoly_routes_agree_on_census_and_corpus_matrices():
    mats = [m for n in range(1, 8) for g in builtin_generate(n) for m in _fingerprint_matrices(g)]
    for entry in corpus():
        es = edge_space(entry.graph)
        blocks = sector_blocks(es)
        mats += [build_hashimoto(es), blocks.L, blocks.S, blocks.M * blocks.M.transpose()]
    for g in sparse20_graphs():  # A and Q on index lists, Delta and the products on dots
        mats += _fingerprint_matrices(g)
    assert {_listed(m) for m in mats} == {False, True}
    kron_bits = [_kronecker_bits(m) for m in mats]
    assert min(kron_bits) <= _KRONECKER_BITS < max(kron_bits)
    for m in mats:
        p = _berkowitz_charpoly(m.rows)
        _assert_digits_fit(m, p)
        assert _kronecker_charpoly(m.rows, _coefficient_bits(m.rows)) == p
        assert m.charpoly() == p


def _symmetric_matrices() -> list[Matrix]:
    """Seeded random symmetric matrices, n = 0..14, of three kinds each:
    0/1 (the listed loop), signed small entries and entries up to 10^6 in
    absolute value (the dotted loop)."""
    rng = random.Random(41)
    entry = {
        "listed": lambda: int(rng.random() < 0.3),
        "signed": lambda: rng.randint(-3, 3),
        "large": lambda: rng.randint(-(10**6), 10**6),
    }
    mats = []
    for n in range(15):
        for kind in ("listed", "signed", "large"):
            raw = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1):
                    raw[i][j] = raw[j][i] = entry[kind]()
            mats.append(Matrix(raw))
    return mats


def _spy_symmetric_det(monkeypatch) -> list[int]:
    """Replace matrices._symmetric_det by a spy; the list it returns grows
    by the order of each matrix the spy eliminates."""
    calls = []

    def spy(m):
        calls.append(len(m))
        return _symmetric_det(m)

    monkeypatch.setattr(matrices, "_symmetric_det", spy)
    return calls


def test_symmetric_charpoly_both_routes_vs_faddeev_leverrier(monkeypatch):
    mats = _symmetric_matrices()
    assert {_listed(m) for m in mats if m.nrows > 1} == {False, True}
    calls = _spy_symmetric_det(monkeypatch)
    for m in mats:
        assert m.is_symmetric()
        p = faddeev_leverrier(m)
        assert _berkowitz_charpoly(m.rows) == p, m
        calls.clear()
        assert _kronecker_charpoly(m.rows, _coefficient_bits(m.rows)) == p, m
        assert calls == [m.nrows]
        assert m.charpoly() == p


def test_nearly_symmetric_charpoly_takes_the_general_path(monkeypatch):
    # one entry off the diagonal changed: no longer symmetric, and both
    # routes still agree with the oracle through the general kernels
    rng = random.Random(42)
    calls = _spy_symmetric_det(monkeypatch)
    for m in _symmetric_matrices():
        n = m.nrows
        if n < 2:
            continue
        raw = [list(row) for row in m.rows]
        i, j = rng.sample(range(n), 2)
        raw[i][j] += rng.choice((1, 2, -1))
        near = Matrix(raw)
        assert not near.is_symmetric()
        p = faddeev_leverrier(near)
        assert _berkowitz_charpoly(near.rows) == p, near
        assert _kronecker_charpoly(near.rows, _coefficient_bits(near.rows)) == p, near
        assert near.charpoly() == p
    assert calls == []


def test_symmetric_det_equals_eliminate_on_dominant_inputs():
    rng = random.Random(43)
    inputs = []
    for m in _symmetric_matrices():  # x0 I - M, as the Kronecker route builds it
        x0 = 1 << _coefficient_bits(m.rows)
        rows = [[-a for a in row] for row in m.rows]
        for i, row in enumerate(rows):
            row[i] += x0
        inputs.append(rows)
    for n in range(1, 15):  # strictly dominant, either sign on the diagonal
        raw = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i):
                raw[i][j] = raw[j][i] = rng.randint(-9, 9)
        for i in range(n):
            raw[i][i] = rng.choice((1, -1)) * (sum(map(abs, raw[i])) + rng.randint(1, 5))
        inputs.append(raw)
    for rows in inputs:
        n = len(rows)
        rank, det = _eliminate([list(r) for r in rows], n)
        assert rank == n
        assert _symmetric_det([list(r) for r in rows]) == det
    assert _symmetric_det([]) == 1
    # no row swap: a zero pivot raises, where _eliminate swaps rows
    with pytest.raises(ArithmeticError):
        _symmetric_det([[0, 1], [1, 0]])
    assert Matrix([[0, 1], [1, 0]]).det() == -1


def _adversarial_matrices() -> list[Matrix]:
    """Matrices far from normal, or at the bound's extremes, where an
    eigenvalue bound from the entries is most easily wrong."""
    rng = random.Random(31)
    mats = [Matrix([]), Matrix([[0]]), Matrix([[1]]), Matrix([[-9]]), Matrix([[10**12]])]
    mats += [Matrix([[0] * n for _ in range(n)]) for n in (2, 7, 40)]
    for n in (2, 5, 9, 16):  # nilpotent: strictly upper triangular, large entries
        for top in (1, 10**3, 10**9):
            mats.append(
                Matrix([[rng.randint(-top, top) if j > i else 0 for j in range(n)] for i in range(n)])
            )
    for n in (2, 3, 8, 20):  # Jordan blocks: (x - c)^n from a matrix with one eigenvector
        for c in (0, 1, -1, 5, -7, 100):
            mats.append(Matrix([[c if j == i else int(j == i + 1) for j in range(n)] for i in range(n)]))
    for n in (1, 4, 17, 30):  # +-J_n and c I, at |c_k| = C(n, k) rho^k exactly
        ones = Matrix([[1] * n for _ in range(n)])
        mats += [ones, -ones]
        mats += [Matrix.identity(n).scaled(c) for c in (1, -1, 3, -50)]
    for n in (2, 6, 12, 25):  # mixed-sign rank one u v^T
        for top in (1, 9, 1000):
            u = [rng.randint(-top, top) for _ in range(n)]
            v = [rng.randint(-top, top) for _ in range(n)]
            mats.append(Matrix([[a * c for c in v] for a in u]))
    return mats


def test_coefficient_bits_bound_adversarial_matrices():
    for m in _adversarial_matrices():
        p = _berkowitz_charpoly(m.rows)
        _assert_digits_fit(m, p)
        assert _kronecker_charpoly(m.rows, _coefficient_bits(m.rows)) == p
        assert m.charpoly() == p


def test_charpoly_route_choice(monkeypatch):
    calls = []
    for name in ("_coefficient_bits", "_kronecker_charpoly", "_berkowitz_charpoly"):
        original = getattr(matrices, name)

        def spy(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(matrices, name, spy)

    def route(m: Matrix) -> tuple[str, ...]:
        calls.clear()
        assert m.charpoly() == faddeev_leverrier(m)
        return tuple(calls)

    kronecker = ("_coefficient_bits", "_kronecker_charpoly")
    berkowitz = ("_coefficient_bits", "_berkowitz_charpoly")
    for n in (10, 16):
        inside, outside = _limit_neighbours(n)
        assert _kronecker_bits(inside) <= _KRONECKER_BITS < _kronecker_bits(outside)
        assert route(inside) == kronecker
        assert route(outside) == berkowitz
    assert route(Matrix([])) == kronecker
    assert route(Matrix([[5]])) == kronecker
    # a zero matrix has b = 3, so even at n^2 above the limit n * b is inside it
    n = isqrt(_KRONECKER_BITS) + 1
    assert route(Matrix([[0] * n] * n)) == kronecker


def test_matrix_refuses_entries_that_are_not_ints():
    for rows in ([[Fraction(1, 2)]], [[Fraction(2)]], [[True]], [[1.0]], [[1, 2], [3, 2.0]]):
        with pytest.raises(TypeError, match="matrix entries must be int"):
            Matrix(rows)
    for s in (Fraction(2), Fraction(1, 2), True, 2.0):
        with pytest.raises(TypeError, match="matrix entries must be int"):
            Matrix.identity(3).scaled(s)
    # the checked constructor copies: a later change to the caller's rows
    # cannot slip a non-int past it
    rows = [[1, 2], [3, 4]]
    m = Matrix(rows)
    rows[0][0] = Fraction(1, 2)
    assert m == Matrix([[1, 2], [3, 4]])


def test_kronecker_charpoly_checks_its_leading_digit():
    # b = 3 is too few bits for x - 100: the digits wrap and leave -11, not 1
    with pytest.raises(ArithmeticError):
        _kronecker_charpoly([[100]], 3)
    assert _kronecker_charpoly([[100]], _coefficient_bits([[100]])) == Poly((-100, 1))


def test_kronecker_poly_checks_the_digits_it_is_given():
    # det(x0 I - M) for M = [[2, 1], [1, 3]] at x0 = 2^8 carries the digits
    # of x^2 - 5x + 5; a non-symmetric matrix takes the general elimination
    def shifted(rows, b=8):
        return [[(1 << b) * (i == j) - a for j, a in enumerate(row)] for i, row in enumerate(rows)]

    for rows in ([[2, 1], [1, 3]], [[2, 5], [-1, 3]]):
        p = Matrix(rows).charpoly()
        assert _kronecker_poly(shifted(rows), 8, 2, 1) == p
        assert _kronecker_poly(shifted(rows), 8, 2, 1, p[0]) == p
        for degree, top, low in ((2, 2, None), (2, -1, p[0]), (2, 1, p[0] + 1), (1, 1, None), (3, 1, None)):
            with pytest.raises(ArithmeticError, match="Kronecker digits"):
                _kronecker_poly(shifted(rows), 8, degree, top, low)


def test_mul_vs_naive_product():
    rng = random.Random(12)
    pairs = [
        (Matrix([[]] * 3, ncols=0), Matrix([], ncols=2)),
        (Matrix([], ncols=3), Matrix([[0] * 4] * 3)),
    ]
    for _ in range(40):
        r, k, c = (rng.randint(1, 9) for _ in range(3))
        fill = rng.choice((0.1, 0.3, 0.5, 0.8, 1.0))

        def entry():
            if rng.random() >= fill:
                return 0
            return rng.choice((1, -1, rng.randint(-9, 9), rng.randint(-60, 60)))

        a = Matrix([[entry() for _ in range(k)] for _ in range(r)], ncols=k)
        b = Matrix([[entry() for _ in range(c)] for _ in range(k)], ncols=c)
        pairs.append((a, b))
    for r, k, c in ((5, 7, 6), (9, 12, 4), (1, 3, 3)):  # sparse, entries 1, -1 and 2
        a = Matrix([[rng.choice((0, 0, 0, 0, 1, -1, 2)) for _ in range(k)] for _ in range(r)])
        b = Matrix([[rng.randint(-9, 9) for _ in range(c)] for _ in range(k)])
        pairs.append((a, b))
    # every branch of the walk: a zero, a 1, a -1 and another entry
    assert {0, 1, -1, 2} <= {x for a, _ in pairs for row in a.rows for x in row}
    for a, b in pairs:
        product = a * b
        assert product == naive_product(a, b)
        assert (product.nrows, product.ncols) == (a.nrows, b.ncols)


def test_charpoly_rational_entries():
    # X = [[1/2, 1], [0, -1/3]] is refused; 6X enters, and the 1/6 lives in
    # the polynomial, as the 1/2 of (1/2) L does in zeta.line_factor
    with pytest.raises(TypeError):
        Matrix([[Fraction(1, 2), 1], [0, Fraction(-1, 3)]])
    six_x = Matrix([[3, 6], [0, -2]])
    assert six_x.charpoly() == Poly((-6, -1, 1))
    # det(I - wX) = (1 - w/2)(1 + w/3)
    assert six_x.charpoly().resolvent(2, Fraction(1, 6)) == Poly(
        (1, Fraction(-1, 6), Fraction(-1, 6))
    )


def test_cayley_hamilton_small_dims():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 6)
        m = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        p = m.charpoly()
        zero = Matrix([[0] * n] * n)
        acc = zero
        power = Matrix.identity(n)
        for c in p.coeffs:
            acc = acc + power.scaled(c)
            power = power * m
        assert acc == zero


def test_det_resolvent_examples():
    t = build_hashimoto(edge_space(corpus_graph("K3")))
    assert t.charpoly().resolvent(t.nrows) == Poly((1, 0, 0, -2, 0, 0, 1))  # (1 - w^3)^2
    assert t.charpoly().resolvent(t.nrows) == resolvent_oracle(t)  # brute-force 6x6 expansion
    assert Matrix([[0] * 4] * 4).charpoly().resolvent(4) == Poly.one()
    line_k3 = corpus_graph("K3").adjacency()
    expect = Poly((1, -1)) * Poly((1, Fraction(1, 2))) ** 2
    assert line_k3.charpoly().resolvent(3, Fraction(1, 2)) == expect


def test_det_resolvent_vs_oracle_random():
    rng = random.Random(12)
    for _ in range(15):
        n = rng.randint(1, 5)
        m = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        assert m.charpoly().resolvent(m.nrows) == resolvent_oracle(m)


def test_det_resolvent_constant_term_and_reversal():
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randint(1, 6)
        m = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        p = m.charpoly().resolvent(m.nrows)
        assert p[0] == 1
        assert p.degree() <= n
        # coefficients are the reversed charpoly coefficients
        cp = m.charpoly()
        assert all(p[k] == cp[n - k] for k in range(n + 1))


def test_rank_examples():
    for name in ["K3", "C5", "paperG", "star4"]:
        g = corpus_graph(name)
        from edgesector.edge_space import build_incidence

        d, absd = build_incidence(edge_space(g))
        assert d.rank() == g.n - 1  # connected
    c4 = corpus_graph("C4")
    from edgesector.edge_space import build_incidence

    _, absd = build_incidence(edge_space(c4))
    assert absd.rank() == 3  # bipartite: n - 1
    assert Matrix.identity(5).rank() == 5
    assert Matrix([[0] * 7] * 3).rank() == 0


def test_rank_transpose_and_symmetric_charpoly_valuation():
    rng = random.Random(14)
    for _ in range(15):
        n = rng.randint(1, 6)
        raw = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i):
                raw[i][j] = raw[j][i]
        m = Matrix(raw)
        assert m.rank() == m.transpose().rank()
        p = m.charpoly()
        val = 0
        while p[val] == 0:
            val += 1
        assert m.rank() == n - val  # symmetric: rank = dim - order of x-power


def test_det_matches_charpoly_constant():
    rng = random.Random(15)
    for _ in range(15):
        n = rng.randint(1, 6)
        m = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        p = m.charpoly()
        assert m.det() == (-1) ** n * p[0]


def test_log_trace_identity_random_matrices():
    # log(det(I - wX)) == -sum w^k/k tr(X^k), exact
    rng = random.Random(16)
    order = 6
    for _ in range(12):
        n = rng.randint(1, 8)
        m = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        p = m.charpoly().resolvent(m.nrows)
        lhs = series_of(ratfunc_reduce(p, Poly.one()), order).log()
        traces = m.power_traces(order)
        rhs = PowerSeries(
            order, [0] + [Fraction(-traces[k - 1], k) for k in range(1, order + 1)]
        )
        assert lhs == rhs


def test_dimension_errors():
    with pytest.raises(DimensionError):
        Matrix([[1, 2]]).charpoly()
    with pytest.raises(DimensionError):
        Matrix([[1, 2]]) * Matrix([[1, 2]])
    with pytest.raises(DimensionError):
        Matrix([[1, 2], [3, 4]]) + Matrix([[1]])


def test_power_traces():
    a = corpus_graph("K3").adjacency()
    assert a.power_traces(3) == [0, 6, 6]  # tr A, tr A^2 = 2m, tr A^3 = 6 triangles
    rng = random.Random(14)
    mats = [
        build_hashimoto(edge_space(corpus_graph("exA_G1"))),  # sparse 0/1, not symmetric
        Matrix([[rng.randint(-4, 4) for _ in range(7)] for _ in range(7)]),
        # sparse, entries 1, -1 and others: every branch of the product's walk
        Matrix([[rng.choice((0, 0, 0, 1, -1, 3)) for _ in range(5)] for _ in range(5)]),
    ]
    assert not mats[0].is_symmetric()
    for m in mats:
        power, expect = m, []
        for _ in range(6):
            expect.append(power.trace())
            power = naive_product(power, m)
        assert m.power_traces(6) == expect
