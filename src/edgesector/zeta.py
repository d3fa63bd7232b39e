"""Ihara determinant, its edge-sector factorization, and the correction series.

The reciprocal zeta function det(I - wT) factors exactly as

    det(I - wT) = det(I - (w/2) L) * C(w),

where L is the line-graph adjacency and the correction factor C(w) is a
reduced rational function (for P3 it is 1/(1 - w^2/4), so it is genuinely
non-polynomial in general).  Everything in this module is exact; the only
floating-point work in the package lives in bounds.py.

This module is the one production route of the Ihara polynomials, and
fingerprint, factorize, trivial_roots and the bounds all read it: det(I - wT)
from ihara_det, the Bass formula (Bass, Internat. J. Math. 3, 1992) on the
graph's 2-core, an n_core x n_core determinant read from the digits of one
integer determinant at w = 2^b; the charpoly of L from the n x n signless
Laplacian (_line_charpoly); and the correction series as one integer quotient
in u = w/2 (_correction_quotient).  hashimoto_det (the 2m x 2m charpoly of T),
line_factor (the m x m L) and bass_det (evaluation-interpolation) are the
oracles of verify and the tests.

verify's series identities run in integers too.  The Schur complement E(u)
of the edge-space blocks S, L and M is evaluated at u = 2^b, and det E
through u^order is read from the digits of that one determinant modulo
2^(b(order+1)) (_schur_det), b from a majorant of its coefficients
(_schur_bits).  The log-trace identity is checked as Newton's identities
between the correction series in u and the power traces of T and L.  Both
compare with the correction series times 2^k at w^k, so no series ring,
series logarithm or Fraction enters either check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt, prod
from operator import mul

from .edge_space import build_hashimoto, build_incidence, edge_space, sector_blocks
from .graphs import Graph, is_bipartite, is_connected
from .matrices import Matrix, _kronecker_poly, _kronecker_series_det
from .polynomials import (
    Poly,
    PowerSeries,
    RatFunc,
    _integer_multiple,
    first_difference,
    ratfunc_reduce,
    truncated_product,
)

DEFAULT_ORDER = 12


@lru_cache(maxsize=4096)
def hashimoto_det(g: Graph) -> Poly:
    """det(I - wT), an integer polynomial with constant term 1."""
    t = build_hashimoto(edge_space(g))
    p = t.charpoly().resolvent(t.nrows)
    if not (p.is_integer() and p[0] == 1):
        raise ArithmeticError("det(I - wT) is not an integer polynomial with constant term 1")
    return p


@lru_cache(maxsize=4096)
def line_factor(g: Graph) -> Poly:
    """det(I - (w/2) L); dyadic rational coefficients, constant term 1."""
    blocks = sector_blocks(edge_space(g))
    return blocks.L.charpoly().resolvent(blocks.L.nrows, Fraction(1, 2))


def _vertex_space_det(g: Graph) -> Poly:
    """det(I - w A + w^2 (D - I)) by exact evaluation-interpolation.

    The determinant has degree at most 2n, so evaluating at 2n+1 integer
    points and interpolating recovers it exactly.
    """
    deg = g.degrees()
    points = []
    for w in range(2 * g.n + 1):
        mat = g.vertex_operator([1 + w * w * (d - 1) for d in deg], -w)
        points.append((w, mat.det()))
    return Poly.interpolate(points)


def _bass_prefactor(vertex: Poly, excess: int) -> Poly:
    """(1 - w^2)^excess * vertex, an integer polynomial, where excess is m - n.

    (1 - w^2)^|excess| is written once from its binomial coefficients.  For
    a nonnegative excess it leads the product, whose outer loop skips its
    zero odd coefficients; on the 2-cores of the irregular 8-vertex graphs
    of minimum degree 2 that took 0.16-0.17 s where repeated squaring took
    0.43-0.50 s.  For a negative excess it divides vertex, exactly (trees
    give the constant 1).
    """
    e = abs(excess)
    factor = [0] * (2 * e + 1)
    factor[::2] = [(-1) ** j * comb(e, j) for j in range(e + 1)]
    if excess >= 0:
        out = Poly(factor) * vertex
    else:
        out = vertex.exact_div(Poly(factor))
    if not out.is_integer():
        raise ArithmeticError("Bass determinant is not an integer polynomial")
    return out


def bass_det(g: Graph) -> Poly:
    """det(I - wT) by the Bass formula on the whole graph, the vertex
    determinant taken by evaluation-interpolation; an oracle independent of
    ihara_det's kernel and of its 2-core."""
    return _bass_prefactor(_vertex_space_det(g), g.m - g.n)


def _two_core(g: Graph) -> list[list[int]]:
    """The 2-core of g as neighbour lists, its vertices renumbered 0, 1, ...
    in ascending degree.

    Vertices of degree below 2 are peeled until none is left: a pendant tree
    or an isolated vertex lies on no closed non-backtracking walk, so the
    core has the same det(I - wT) (Kotani & Sunada, J. Math. Sci. Univ. Tokyo
    7, 2000), and every core component has m >= n.  Eliminating the
    low-degree vertices first keeps more of _ihara_kronecker's matrix zero:
    over 39 random cores of 20-vertex, 38-edge graphs, its determinants took
    0.15 s in this order and 0.20 s in vertex order (Python 3.11).
    """
    nbrs = g.neighbors()
    deg = [len(nb) for nb in nbrs]
    alive = [True] * g.n
    peel = [v for v in range(g.n) if deg[v] < 2]
    while peel:
        v = peel.pop()
        alive[v] = False
        for u in nbrs[v]:
            if alive[u]:
                deg[u] -= 1
                if deg[u] == 1:  # each vertex drops from 2 to 1 at most once
                    peel.append(u)
    core = sorted((v for v in range(g.n) if alive[v]), key=deg.__getitem__)
    pos = {v: i for i, v in enumerate(core)}
    return [[pos[u] for u in nbrs[v] if alive[u]] for v in core]


def _ihara_bits(core: list[list[int]]) -> int:
    """b with |c_k| < 2^(b-2) for every coefficient c_k of the core's
    V(w) = det(I - wA + w^2 (Deg - I)).

    By Cauchy's estimate on the unit circle, |c_k| <= max |V(w)| over
    |w| = 1.  There row v of the Bass matrix holds 1 + w^2 (d_v - 1), of
    modulus at most d_v, and d_v entries -w, so its 2-norm squared is at most
    d_v^2 + d_v, and by Hadamard's inequality |V(w)| <= prod ||row_v||_2 <=
    sqrt(prod d_v (d_v + 1)) < isqrt(prod d_v (d_v + 1)) + 1.
    """
    return (isqrt(prod(len(nb) * (len(nb) + 1) for nb in core)) + 1).bit_length() + 2


def _ihara_kronecker(core: list[list[int]], b: int) -> Poly:
    """det(I - wA + w^2 (Deg - I)) of the 2-core from one n x n determinant
    at w = 2^b, its coefficients the balanced base-2^b digits
    (matrices._kronecker_poly).

    With b = _ihara_bits(core) no coefficient reaches 2^(b-2) in absolute
    value, so the digits stay apart.  With every d_v >= 2 the diagonal
    1 + 4^b (d_v - 1) outweighs the row's d_v entries -2^b, so the matrix is
    strictly diagonally dominant.  The constant digit must be 1 and the one
    at w^2n det(Deg - I) = prod(d_v - 1); anything else raises
    ArithmeticError.
    """
    x0 = 1 << b
    x0_squared = x0 * x0
    rows = []
    for i, nb in enumerate(core):
        row = [0] * len(core)
        for j in nb:
            row[j] = -x0
        row[i] = 1 + x0_squared * (len(nb) - 1)
        rows.append(row)
    return _kronecker_poly(rows, b, 2 * len(core), prod(len(nb) - 1 for nb in core), 1)


def ihara_det(g: Graph) -> Poly:
    """det(I - wT) in vertex space: the Bass formula on the 2-core.

    det(I - wT) = (1 - w^2)^(m - n) det(I - wA + w^2 (Deg - I)) on the core,
    and the n x n vertex determinant is the digits of one integer
    determinant at w = 2^b (_ihara_kronecker), with b = _ihara_bits(core) =
    bit_length(isqrt(prod d_v (d_v + 1)) + 1) + 2 from Cauchy's estimate and
    Hadamard's inequality.  On ten seeded n = 40, m = 80 graphs that puts
    6100-6900 bits (2 n_core b) in the determinant where b =
    bit_length(prod(2 d_v)) + 2 put 8300-9600.  A graph whose core is empty
    (a forest) has det(I - wT) = 1.
    """
    core = _two_core(g)
    if not core:
        return Poly.one()
    excess = sum(map(len, core)) // 2 - len(core)
    return _bass_prefactor(_ihara_kronecker(core, _ihara_bits(core)), excess)


@dataclass(frozen=True)
class ZetaFactorization:
    hashimoto_det: Poly
    line_factor: Poly
    correction: RatFunc
    correction_series: PowerSeries

    def identity_holds(self) -> bool:
        """hashimoto_det * den(C) == line_factor * num(C), exactly, in
        integers: each polynomial times the lcm of its coefficient
        denominators, and each product of two times the other side's
        scales."""
        (det, a), (den, b), (line, c), (num, d) = map(
            _integer_multiple,
            (self.hashimoto_det, self.correction.den, self.line_factor, self.correction.num),
        )
        return (det * den).scale(c * d) == (line * num).scale(a * b)


def _x_plus_power(a: int, e: int) -> Poly:
    """(x + a)^e, written once from its binomial coefficients."""
    return Poly._of([comb(e, k) * a ** (e - k) for k in range(e + 1)])


def _times_x_plus_2_power(p: Poly, e: int) -> Poly:
    """(x + 2)^e p for a monic int p, by an exact division for a negative
    e: the AB/BA factor x^e of a charpoly read at x + 2."""
    if e < 0:
        return p.exact_div(_x_plus_power(2, -e))
    # p is a monic int charpoly, so the product is monic too
    return Poly._of(truncated_product(p.coeffs, _x_plus_power(2, e).coeffs, len(p.coeffs) + e - 1))


def _q_minus_2_charpoly(g: Graph) -> Poly:
    """charpoly of Q - 2I, Q = |D||D|^T = Deg + A the signless Laplacian."""
    return g.vertex_operator([d - 2 for d in g.degrees()]).charpoly()


def _line_charpoly(g: Graph) -> Poly:
    """charpoly of L = |D|^T |D| - 2I (m x m) from the n x n Q - 2I.

    L + 2I and Q share their nonzero eigenvalues (the AB/BA lemma), so
    charpoly(L + 2I) = x^(m-n) charpoly(Q), and at x + 2 that reads
    charpoly(L) = (x + 2)^(m-n) charpoly(Q - 2I), an exact division for
    m < n.  So no polynomial is shifted, and Q - 2I, with a smaller
    Frobenius norm than Q, has fewer digits: at n = 20, m = 38 it takes
    840-900 bits and the Kronecker route, where Q took 1020-1060 and
    Berkowitz (0.78 against 0.95 ms a charpoly over twelve seeded graphs,
    Python 3.11).  From n = 30, m = 2n both take Berkowitz, and Q - 2I, whose
    leaves put -1 on its diagonal, the dotted loop: 1.6-1.9 times the
    listed loop on Q and a shift of its charpoly.
    """
    return _times_x_plus_2_power(_q_minus_2_charpoly(g), g.m - g.n)


def _correction_quotient(det: Poly, line_charpoly: Poly, order: int) -> PowerSeries:
    """C(w) = det(I - wT) / det(I - (w/2) L) as a power series to order.

    In u = w/2 both factors are integer polynomials with constant term 1:
    det(I - 2uT), coefficient k d_k = 2^k t_k for t_k that of det(I - wT),
    and det(I - uL), whose coefficients l_i are the charpoly of L read from
    the top (l_0 = 1).  Their quotient q is the integer series with
    d = l q, so q_k = d_k - sum_{i>=1} l_i q_(k-i), one recurrence with no
    series inverse.  Coefficient k divided by 2^k writes it in w, an int
    where the division is exact.
    """
    line = line_charpoly.coeffs[-2::-1][:order]  # l_1 .. l_order
    quotient: list[int] = []
    for k, t in enumerate(det.coeffs[: order + 1] + (0,) * (order + 1 - len(det.coeffs))):
        quotient.append((t << k) - sum(map(mul, line, reversed(quotient))))
    return PowerSeries(
        order,
        [
            Fraction(c, 1 << k) if c & ((1 << k) - 1) else c >> k
            for k, c in enumerate(quotient)
        ],
    )


@lru_cache(maxsize=1024)
def factorize(g: Graph, order: int = DEFAULT_ORDER) -> ZetaFactorization:
    """det(I - wT), det(I - (w/2) L), the reduced C(w) and its series to
    order, from the vertex kernels that fingerprint uses; verify checks them
    against the edge-space oracles.

    For m > n, (1 + w)^(m-n) divides both factors: det(I - wT) by Bass's
    formula, and the line factor as (1 + w)^(m-n) det(I - (w/2)(Q - 2I)),
    from charpoly(L) = (x + 2)^(m-n) charpoly(Q - 2I).  The reduced C(w) is
    unique, so it is reduced from the two quotients, and the gcd's
    pseudo-remainder sequence no longer carries that factor: on an n = 40,
    m = 80 graph the reduction took 0.33 s where it took 1.14 s.
    """
    det = ihara_det(g)
    q_minus_2 = _q_minus_2_charpoly(g)
    excess = g.m - g.n
    line_charpoly = _times_x_plus_2_power(q_minus_2, excess)
    line = line_charpoly.resolvent(g.m, Fraction(1, 2))
    if excess > 0:
        correction = ratfunc_reduce(
            det.exact_div(_x_plus_power(1, excess)), q_minus_2.resolvent(g.n, Fraction(1, 2))
        )
    else:
        correction = ratfunc_reduce(det, line)
    return ZetaFactorization(
        det, line, correction, _correction_quotient(det, line_charpoly, order)
    )


def correction_series(g: Graph, order: int = DEFAULT_ORDER) -> PowerSeries:
    return factorize(g, order).correction_series


def _row_norm(mat: Matrix) -> int:
    """The largest absolute row sum of mat; 0 for a matrix with no rows."""
    return max((sum(map(abs, row)) for row in mat.rows), default=0)


def _schur_bits(blocks, order: int) -> int:
    """b with 2^(b-1) > [u^k] r(u)^m for k = 0 .. order, where

        r(u) = 1 + s u + mu sum_{j=0}^{order-2} lambda^j u^(j+2),

    s and lambda are the largest absolute row sums of S and L, and mu =
    ||M^T|| ||M|| in the same norm; so every coefficient e_k of det E(u)
    through u^order has |e_k| < 2^(b-1).

    Proof.  Write p <= q when every coefficient of p is at most that of q
    in absolute value, q with nonnegative coefficients.  Row i of E(u)
    modulo u^(order+1) has sum_l |E_il(u)| <= r(u): the u^0 coefficients
    are a row of I, the u^1 ones a row of S, and the u^(j+2) ones a row of
    M^T L^j M, whose absolute sum is at most ||M^T|| ||L||^j ||M|| since
    the row-sum norm is submultiplicative.  det E = sum_sigma +-prod_i
    E_i,sigma(i), and every product of series with nonnegative coefficients
    is monotone in its factors, so det E <= sum_sigma prod_i |E_i,sigma(i)|
    <= prod_i sum_l |E_il| <= r^m; a coefficient of det E through u^order
    reads coefficients of E through u^order only.  Also r <= r^m, as r^(m-1)
    has constant term 1, so every entry of every C_j is below 2^(b-1) and a
    difference of two is below 2^b.
    """
    s, lam = _row_norm(blocks.S), _row_norm(blocks.L)
    mu = _row_norm(blocks.M.transpose()) * _row_norm(blocks.M)
    r = ([1, s] + [mu * lam**j for j in range(order - 1)])[: order + 1]
    m = blocks.L.nrows
    # the coefficients of r^m by J. C. P. Miller's recurrence (Knuth, TAOCP
    # vol. 2, 4.7), from r (r^m)' = m r' r^m and r_0 = 1; every division is exact
    power = [1]
    for k in range(1, order + 1):
        power.append(
            sum(((m + 1) * i - k) * r[i] * power[k - i] for i in range(1, k + 1)) // k
        )
    return max(power).bit_length() + 1


def _schur_det(g: Graph, order: int) -> list[int]:
    """Coefficients 0 .. order of det E(u), E(u) the Schur complement of
    schur_series_check, from one integer matrix X = E(2^b).

    Truncated at u^order, E(u) = I + u S + sum_{j=0}^{order-2} u^(j+2)
    M^T L^j M is a polynomial matrix, and X is its value by Horner's rule:
    Y <- M + 2^b (L Y), order - 2 times from Y = M, then X = I + 2^b S +
    4^b M^T Y (X = I + 2^b S at order 1).  L and M^T are sparse, so every
    product walks a sparse left operand.  b = _schur_bits keeps each
    coefficient below 2^(b-1), and matrices._kronecker_series_det reads
    them as the balanced base-2^b digits of det X modulo 2^(b(order+1)).
    A coefficient matrix that is not symmetric raises ArithmeticError
    naming the lowest one, C_j: each entry of X - X^T is sum_j 2^(bj)
    delta_j with |delta_j| < 2^b, so its lowest nonzero delta_j sits at
    bit position (2-adic valuation) // b.
    """
    blocks = sector_blocks(edge_space(g))
    mt = blocks.M.transpose()
    b = _schur_bits(blocks, order)
    x0 = 1 << b
    x = Matrix.identity(g.m) + blocks.S.scaled(x0)
    if order >= 2:
        y = blocks.M
        for _ in range(order - 2):
            y = blocks.M + (blocks.L * y).scaled(x0)
        x = x + (mt * y).scaled(x0 * x0)
    rows = x.rows
    if not x.is_symmetric():
        diffs = [a - c for row, col in zip(rows, zip(*rows)) for a, c in zip(row, col) if a != c]
        j = min(((d & -d).bit_length() - 1) // b for d in diffs)
        raise ArithmeticError(f"Schur coefficient matrix C_{j} is not symmetric")
    digits = _kronecker_series_det(rows, b, order)
    return digits + [0] * (order + 1 - len(digits))


def _in_u(series: PowerSeries) -> list[int] | None:
    """The coefficients 2^k c_k of a series sum_k c_k w^k in u = w/2, or
    None when one of them is not an integer."""
    out = []
    for k, c in enumerate(series.coeffs):
        q, r = divmod(c.numerator << k, c.denominator)
        if r:
            return None
        out.append(q)
    return out


def schur_series_check(g: Graph, order: int) -> bool:
    """Check the Schur-complement form of the correction factor.

    With u = w/2 the Schur complement is

        E(u) = I + u S + u^2 M^T (I - u L)^{-1} M
             = I + u S + sum_{j>=0} u^(j+2) M^T L^j M,

    a power series whose coefficients C_0 = I, C_1 = S and
    C_(j+2) = M^T L^j M are symmetric integer matrices built from the
    edge-space blocks.  det E through u^order is read from the digits of
    one integer determinant (_schur_det); in w its coefficient k is that of
    the correction series from the determinant quotient times 2^k, so the
    check is that each such product is an integer equal to digit k.  A
    coefficient matrix that is not symmetric, or a pivot that is not 1
    modulo 2^b, raises ArithmeticError.
    """
    if order < 1:
        raise ValueError("series order must be at least 1")
    digits = _schur_det(g, order)
    return _in_u(correction_series(g, order)) == digits


@dataclass(frozen=True)
class TrivialRootReport:
    """Where the trivial roots w = +-1 sit, against the kernel dimensions.

    ord_correction_at_plus1 is the zero-order at w = 1 of the reduced
    correction factor (a rational function, so the order can drop when the
    line factor also vanishes there: the Petersen graph has line-factor
    order 5 and correction order 1 at w = 1).  The invariant that always
    holds is the combined order: ord(line at 1) + ord(C at 1) >= m - n + 1
    for connected graphs with m >= n.
    """

    m_minus_n: int
    ord_line_at_minus1: int
    ord_line_at_plus1: int
    ord_correction_at_plus1: int
    ker_dim_D: int
    ker_dim_absD: int
    bipartite: bool

    def ok(self) -> bool:
        mn = self.m_minus_n
        expected_absd = mn + 1 if self.bipartite else mn
        if self.ker_dim_absD != expected_absd:
            return False
        if self.ker_dim_D != mn + 1:
            return False
        # ker |D| forces eigenvalue -2 of L, hence (1+w)^ker there
        if self.ord_line_at_minus1 < self.ker_dim_absD:
            return False
        needed = mn + 1 if mn >= 0 else 0
        return self.ord_line_at_plus1 + self.ord_correction_at_plus1 >= needed


def trivial_roots(g: Graph, order: int = DEFAULT_ORDER) -> TrivialRootReport:
    """Where w = +-1 sit in the line factor and the correction factor, with
    the kernel dimensions of D and |D|, for a connected graph.

    The Ihara polynomials are factorize(g, order)'s, the cached call the
    command line and verify make first, so none is computed twice.  The line
    factor det(I - (w/2) L) vanishes at w = +-1 to the multiplicity of the
    eigenvalue +-2 of L, taken as a root order of its integer multiple;
    C = det(I - wT) / line factor, so its order at w = 1 is a difference of
    two orders and needs no reduced C.
    """
    # is_connected counts the null graph, whose ker D has dimension 0, not m - n + 1
    if not (g.n and is_connected(g)):
        raise ValueError("trivial-root localization requires a connected graph with a vertex")
    d, absd = build_incidence(edge_space(g))
    ker_d = g.m - d.rank()
    ker_absd = g.m - absd.rank()
    fact = factorize(g, order)
    line = _integer_multiple(fact.line_factor)[0]
    line_at_plus1 = line.root_order(1)
    return TrivialRootReport(
        m_minus_n=g.m - g.n,
        ord_line_at_minus1=line.root_order(-1),
        ord_line_at_plus1=line_at_plus1,
        ord_correction_at_plus1=fact.hashimoto_det.root_order(1) - line_at_plus1,
        ker_dim_D=ker_d,
        ker_dim_absD=ker_absd,
        bipartite=is_bipartite(g),
    )


def log_trace_check(g: Graph, order: int) -> bool:
    """log C(w) == -sum_k (w^k/k) (tr T^k - 2^-k tr L^k), exactly to the order,
    checked by Newton's identities over the integers.

    In u = w/2, C = sum_k d_k u^k with d_k = 2^k c_k, and the identity reads
    log C = -sum_k P_k u^k / k with P_k = 2^k tr T^k - tr L^k.  Since
    C(0) = 1, that is u C' = -C sum_k P_k u^k, coefficient by coefficient
    k d_k = -sum_{i=1..k} P_i d_(k-i) for k = 1 .. order, with d_0 = 1: no
    series logarithm and no Fraction.  The series the identity determines,
    det(I - 2uT) / det(I - uL), has integer coefficients, so a d_k that is
    not an integer, or d_0 != 1, fails the check.
    """
    if order < 1:
        raise ValueError("series order must be at least 1")
    d = _in_u(correction_series(g, order))
    if d is None or d[0] != 1:
        return False
    es = edge_space(g)
    t_traces = build_hashimoto(es).power_traces(order)
    l_traces = sector_blocks(es).L.power_traces(order)
    p = [(tt << k) - lt for k, (tt, lt) in enumerate(zip(t_traces, l_traces), start=1)]
    return all(
        k * d[k] == -sum(p[i - 1] * d[k - i] for i in range(1, k + 1))
        for k in range(1, order + 1)
    )


@dataclass(frozen=True)
class PairDivergence:
    """Where two graphs' Ihara data split, for the resolution principle."""

    line_cospectral: bool
    det_first_diff_order: int | None
    correction_first_diff_order: int | None
    diff_values: tuple | None  # (coefficient of g, coefficient of h) at the det order
    series_order: int  # the order through which the correction series were compared

    def consistent(self) -> bool:
        """For line-cospectral pairs the two divergence orders must agree
        whenever both are observable at the compared order: dets that first
        differ past series_order leave the compared series equal."""
        if not self.line_cospectral:
            return True
        if self.det_first_diff_order is None:
            return self.correction_first_diff_order is None
        if self.correction_first_diff_order is None:
            return self.det_first_diff_order > self.series_order
        return self.det_first_diff_order == self.correction_first_diff_order

    @classmethod
    def between(cls, a, b) -> "PairDivergence":
        """Divergence of two records carrying hashimoto_det, line_factor and
        correction_series (ZetaFactorizations or Fingerprints)."""
        det_order = first_difference(a.hashimoto_det, b.hashimoto_det)
        values = None
        if det_order is not None:
            values = (a.hashimoto_det[det_order], b.hashimoto_det[det_order])
        return cls(
            line_cospectral=a.line_factor == b.line_factor,
            det_first_diff_order=det_order,
            correction_first_diff_order=first_difference(
                a.correction_series, b.correction_series
            ),
            diff_values=values,
            series_order=min(a.correction_series.order, b.correction_series.order),
        )


def resolution_compare(g: Graph, h: Graph, order: int = DEFAULT_ORDER) -> PairDivergence:
    """Divergence of two graphs, through factorize."""
    return PairDivergence.between(factorize(g, order), factorize(h, order))
