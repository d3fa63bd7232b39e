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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt, prod

from .edge_space import build_hashimoto, build_incidence, edge_space, sector_blocks
from .graphs import Graph, is_bipartite, is_connected
from .matrices import Matrix, _kronecker_poly
from .polynomials import (
    Poly,
    PowerSeries,
    RatFunc,
    first_difference,
    ratfunc_reduce,
    rescale,
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
        """hashimoto_det * den(C) == line_factor * num(C), exactly."""
        lhs = self.hashimoto_det * self.correction.den
        rhs = self.line_factor * self.correction.num
        return lhs == rhs


def _line_charpoly(g: Graph) -> Poly:
    """charpoly of L = |D|^T |D| - 2I (m x m) from that of the signless
    Laplacian Q = |D||D|^T = Deg + A (n x n): the AB/BA factor x^(m-n), then
    the shift x -> x + 2."""
    q = g.vertex_operator(g.degrees())
    return q.charpoly().times_x_power(g.m - g.n).shift(2)


def _correction_quotient(det: Poly, line_charpoly: Poly, m: int, order: int) -> PowerSeries:
    """C(w) = det(I - wT) / det(I - (w/2) L) as a power series to order.

    In u = w/2 both factors are integer polynomials with constant term 1,
    det(I - 2uT) and det(I - uL) (the reversal of the charpoly of L), so the
    quotient is an integer series; coefficient k divided by 2^k writes it in
    w, an int where the division is exact.
    """
    det_u = rescale(PowerSeries.from_poly(det, order), 2)
    line_u = PowerSeries.from_poly(line_charpoly.reversal(m), order)
    quotient = (det_u * line_u.inverse()).coeffs
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
    against the edge-space oracles."""
    det = ihara_det(g)
    line_charpoly = _line_charpoly(g)
    line = line_charpoly.resolvent(g.m, Fraction(1, 2))
    return ZetaFactorization(
        det, line, ratfunc_reduce(det, line), _correction_quotient(det, line_charpoly, g.m, order)
    )


def correction_series(g: Graph, order: int = DEFAULT_ORDER) -> PowerSeries:
    return factorize(g, order).correction_series


def schur_series_check(g: Graph, order: int) -> bool:
    """Check the Schur-complement form of the correction factor.

    With u = w/2 the Schur complement is

        E(u) = I + u S + u^2 M^T (I - u L)^{-1} M
             = I + u S + sum_{j>=0} u^(j+2) M^T L^j M,

    a power series whose coefficients C_0 = I, C_1 = S and
    C_(j+2) = M^T L^j M are symmetric integer matrices.  Its determinant is
    taken by Gaussian elimination in the series ring, each entry a plain
    list of integer coefficients (every pivot is 1 + O(u), so no pivoting is
    needed and every entry, pivot inverses included, stays an integer
    series).  Every trailing block of a symmetric matrix stays symmetric, so
    only the entries on and above the diagonal are kept and updated, entry
    (i, col) read as (col, i): about half the series products of a full
    elimination.  A coefficient matrix that is not symmetric raises
    ArithmeticError.  Rescaling u = w/2 gives det E in w, which is compared
    with the correction series from the determinant quotient.
    """
    if order < 1:
        raise ValueError("series order must be at least 1")
    blocks = sector_blocks(edge_space(g))
    m = g.m
    mt = blocks.M.transpose()
    coeffs = [Matrix.identity(m), blocks.S]
    lm = blocks.M  # L^j M, carried forward
    for _ in range(order - 1):
        coeffs.append(mt * lm)
        lm = blocks.L * lm
    for j, c in enumerate(coeffs):
        if not c.is_symmetric():
            raise ArithmeticError(f"Schur coefficient matrix C_{j} is not symmetric")
    # row i holds entries k >= i only; None stands below the diagonal
    mat = [[None] * i + [[c[i][k] for c in coeffs] for k in range(i, m)] for i in range(m)]

    # determinant by elimination; the matrix is I + O(u) throughout, and only
    # the entries right of the pivot column still feed a later pivot
    det = [1] + [0] * order
    for col in range(m):
        prow = mat[col]
        pivot = prow[col]
        if pivot[0] != 1:
            raise ArithmeticError("series pivot lost its unit constant term")
        det = truncated_product(det, pivot, order)
        inv = PowerSeries(order, pivot).inverse().coeffs
        for i in range(col + 1, m):
            if not any(prow[i]):
                continue
            row = mat[i]
            factor = truncated_product(prow[i], inv, order)
            for k in range(i, m):
                if any(prow[k]):
                    row[k] = [
                        x - y
                        for x, y in zip(row[k], truncated_product(factor, prow[k], order))
                    ]
    return rescale(PowerSeries(order, det), Fraction(1, 2)) == correction_series(g, order)


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


def trivial_roots(g: Graph) -> TrivialRootReport:
    # is_connected counts the null graph, whose ker D has dimension 0, not m - n + 1
    if not (g.n and is_connected(g)):
        raise ValueError("trivial-root localization requires a connected graph with a vertex")
    d, absd = build_incidence(edge_space(g))
    ker_d = g.m - d.rank()
    ker_absd = g.m - absd.rank()
    line = _line_charpoly(g).resolvent(g.m, Fraction(1, 2))
    line_at_plus1 = line.root_order(1)
    return TrivialRootReport(
        m_minus_n=g.m - g.n,
        ord_line_at_minus1=line.root_order(-1),
        ord_line_at_plus1=line_at_plus1,
        # C = det / line, so no reduction of C is needed for its order
        ord_correction_at_plus1=ihara_det(g).root_order(1) - line_at_plus1,
        ker_dim_D=ker_d,
        ker_dim_absD=ker_absd,
        bipartite=is_bipartite(g),
    )


def log_trace_check(g: Graph, order: int) -> bool:
    """log C(w) == -sum_k (w^k/k) (tr T^k - 2^-k tr L^k), exactly to the order."""
    if order < 1:
        raise ValueError("series order must be at least 1")
    lhs = correction_series(g, order).log()
    es = edge_space(g)
    t = build_hashimoto(es)
    line = sector_blocks(es).L
    t_traces = t.power_traces(order)
    l_traces = line.power_traces(order)
    rhs = [0]
    for k in range(1, order + 1):
        rhs.append(-Fraction(t_traces[k - 1] - Fraction(l_traces[k - 1], 2**k), k))
    return lhs == PowerSeries(order, rhs)


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
