"""Ihara determinant, its edge-sector factorization, and the correction series.

The reciprocal zeta function det(I - wT) factors exactly as

    det(I - wT) = det(I - (w/2) L) * C(w),

where L is the line-graph adjacency and the correction factor C(w) is a
reduced rational function (for P3 it is 1/(1 - w^2/4), so it is genuinely
non-polynomial in general).  Everything in this module is exact; the only
floating-point work in the package lives in bounds.py.

hashimoto_det (the 2m x 2m charpoly of T), line_factor, factorize and
bass_det (evaluation-interpolation) are the oracles of verify and the
tests; fingerprints take det(I - wT) from ihara_det, the charpoly of a
2n_core x 2n_core companion on the graph's 2-core.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .edge_space import build_hashimoto, build_incidence, edge_space, sector_blocks
from .graphs import Graph, is_bipartite, is_connected
from .matrices import Matrix, det_resolvent
from .polynomials import (
    Poly,
    PowerSeries,
    RatFunc,
    first_difference,
    ratfunc_reduce,
    rescale,
    series_of,
)

DEFAULT_ORDER = 12


@lru_cache(maxsize=4096)
def hashimoto_det(g: Graph) -> Poly:
    """det(I - wT), an integer polynomial with constant term 1."""
    t = build_hashimoto(edge_space(g))
    p = det_resolvent(t)
    if not (p.is_integer() and p[0] == 1):
        raise ArithmeticError("det(I - wT) is not an integer polynomial with constant term 1")
    return p


@lru_cache(maxsize=4096)
def line_factor(g: Graph) -> Poly:
    """det(I - (w/2) L); dyadic rational coefficients, constant term 1."""
    blocks = sector_blocks(edge_space(g))
    return det_resolvent(blocks.L, Fraction(1, 2))


def _vertex_space_det(g: Graph) -> Poly:
    """det(I - w A + w^2 (D - I)) by exact evaluation-interpolation.

    The determinant has degree at most 2n, so evaluating at 2n+1 integer
    points and interpolating recovers it exactly.
    """
    n = g.n
    a = g.adjacency()
    d_minus_i = Matrix.diagonal([d - 1 for d in g.degrees()])
    ident = Matrix.identity(n)
    points = []
    for w in range(2 * n + 1):
        mat = ident - a.scaled(w) + d_minus_i.scaled(w * w)
        points.append((w, mat.det()))
    return Poly.interpolate(points)


def _bass_prefactor(vertex: Poly, excess: int) -> Poly:
    """(1 - w^2)^excess * vertex, an integer polynomial, where excess is m - n.

    For a negative excess the division must be exact (trees give the
    constant 1).
    """
    one_minus_w2 = Poly((1, 0, -1))
    if excess >= 0:
        out = vertex * one_minus_w2**excess
    else:
        out = vertex.exact_div(one_minus_w2 ** (-excess))
    if not out.is_integer():
        raise ArithmeticError("Bass determinant is not an integer polynomial")
    return out


def bass_det(g: Graph) -> Poly:
    """det(I - wT) by the Bass formula on the whole graph, the vertex
    determinant taken by evaluation-interpolation; an oracle independent of
    ihara_det's kernel and of its 2-core."""
    return _bass_prefactor(_vertex_space_det(g), g.m - g.n)


def _ihara_companion(g: Graph) -> tuple[Matrix, int]:
    """The companion K of the 2-core of g, and the core's m - n.

    Vertices of degree below 2 are peeled until none is left: a pendant tree
    or an isolated vertex lies on no closed non-backtracking walk, so the
    core has the same det(I - wT) (Kotani & Sunada, J. Math. Sci. Univ. Tokyo
    7, 2000), and every core component has m >= n.  On the core, with
    vertices in ascending degree, K is [[A, I - Deg], [I, 0]] written in the
    interleaved basis y_0, x_0, y_1, x_1, ...: y_v' = x_v and
    x_v' = (A x)_v + (1 - d_v) y_v.  By the Schur complement of the lower
    block, det(I - wK) = det(I - wA + w^2 (Deg - I)).  The interleaving is a
    similarity, chosen for Berkowitz, whose row r costs r mat-vecs unless it
    has no entry left of its diagonal: no y row has one, so the core's n
    x rows cost about n^2 mat-vecs, against about 2n^2 for the rows of
    [[A, I - Deg], [I, 0]] in block order.
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
    size = 2 * len(core)
    rows = []
    for i, v in enumerate(core):
        y_row = [0] * size
        y_row[2 * i + 1] = 1
        x_row = [0] * size
        x_row[2 * i] = 1 - deg[v]
        for u in nbrs[v]:
            if alive[u]:
                x_row[2 * pos[u] + 1] = 1
        rows += (y_row, x_row)
    return Matrix(rows, ncols=size), sum(deg[v] for v in core) // 2 - len(core)


def ihara_det(g: Graph) -> Poly:
    """det(I - wT) in vertex space: the Bass formula on the 2-core, the
    vertex determinant read off the reversed charpoly of the core's
    2n_core x 2n_core companion.  A graph whose core is empty (a forest) has
    det(I - wT) = 1."""
    k, excess = _ihara_companion(g)
    if k.nrows == 0:
        return Poly.one()
    return _bass_prefactor(det_resolvent(k), excess)


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


@lru_cache(maxsize=1024)
def factorize(g: Graph, order: int = DEFAULT_ORDER) -> ZetaFactorization:
    det = hashimoto_det(g)
    line = line_factor(g)
    correction = ratfunc_reduce(det, line)
    return ZetaFactorization(det, line, correction, series_of(correction, order))


def correction_series(g: Graph, order: int = DEFAULT_ORDER) -> PowerSeries:
    return factorize(g, order).correction_series


def schur_series_check(g: Graph, order: int) -> bool:
    """Check the Schur-complement form of the correction factor.

    With u = w/2 the Schur complement is

        E(u) = I + u S + u^2 M^T (I - u L)^{-1} M
             = I + u S + sum_{j>=0} u^(j+2) M^T L^j M,

    a power series whose coefficients C_0 = I, C_1 = S and
    C_(j+2) = M^T L^j M are integer matrices.  Its determinant is taken by
    Gaussian elimination in the series ring (every pivot is 1 + O(u), so no
    pivoting is needed and every entry, pivot inverses included, stays an
    integer series).  Rescaling u = w/2 gives det E in w, which is compared
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
    mat = [
        [PowerSeries(order, [c[i][k] for c in coeffs]) for k in range(m)]
        for i in range(m)
    ]

    # determinant by elimination; the matrix is I + O(u) throughout
    det = PowerSeries(order, [1])
    for col in range(m):
        pivot = mat[col][col]
        if pivot.coeffs[0] != 1:
            raise ArithmeticError("series pivot lost its unit constant term")
        det = det * pivot
        inv = pivot.inverse()
        for i in range(col + 1, m):
            factor = mat[i][col] * inv
            if all(c == 0 for c in factor.coeffs):
                continue
            mat[i] = [
                mat[i][k] - factor * mat[col][k] for k in range(m)
            ]
    return rescale(det, Fraction(1, 2)) == correction_series(g, order)


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
    if not is_connected(g):
        raise ValueError("trivial-root localization requires a connected graph")
    d, absd = build_incidence(edge_space(g))
    ker_d = g.m - d.rank()
    ker_absd = g.m - absd.rank()
    line = line_factor(g)
    line_at_plus1 = line.root_order(1)
    return TrivialRootReport(
        m_minus_n=g.m - g.n,
        ord_line_at_minus1=line.root_order(-1),
        ord_line_at_plus1=line_at_plus1,
        # C = det / line, so no reduction of C is needed for its order
        ord_correction_at_plus1=hashimoto_det(g).root_order(1) - line_at_plus1,
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

    def consistent(self) -> bool:
        """For line-cospectral pairs the two divergence orders must agree
        whenever both are observable at the compared order."""
        if not self.line_cospectral:
            return True
        if self.det_first_diff_order is None:
            return self.correction_first_diff_order is None
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
        )


def resolution_compare(g: Graph, h: Graph, order: int = DEFAULT_ORDER) -> PairDivergence:
    """Edge-space divergence of two graphs, through factorize."""
    return PairDivergence.between(factorize(g, order), factorize(h, order))
