"""Directed-edge operators and the reversal-sector block structure.

For a graph with m edges the directed-edge space has dimension 2m; edge i
occupies indices 2i (its reference direction) and 2i+1 (the reverse).  The
default reference orientation is lexicographic (tail = min endpoint).  On
this space live the non-backtracking operator T, the reversal involution P,
the shared-head-or-tail adjacency A, and, through the incidence matrices,
the line-graph block L, the signed block S and the mixed block M that appear
when T is written in the +/- eigenbasis of P.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphs import Graph
from .matrices import Matrix


@dataclass(frozen=True)
class OrientedEdgeSpace:
    """A graph together with a reference orientation and directed-edge index."""

    graph: Graph
    orientation: tuple[tuple[int, int], ...]  # (tail, head) per edge index

    def __post_init__(self):
        if len(self.orientation) != self.graph.m:
            raise ValueError("orientation must assign a direction to every edge")
        for (a, b), (t, h) in zip(self.graph.edges, self.orientation):
            if {t, h} != {a, b}:
                raise ValueError(f"orientation ({t},{h}) does not match edge ({a},{b})")

    @classmethod
    def lexicographic(cls, graph: Graph) -> "OrientedEdgeSpace":
        """Default gauge: every edge points from its smaller endpoint."""
        return cls(graph, tuple((a, b) for a, b in graph.edges))

    @property
    def m(self) -> int:
        return self.graph.m

    def directed_edges(self) -> list[tuple[int, int]]:
        """All 2m directed edges; index 2i is the reference direction of edge i."""
        out = []
        for t, h in self.orientation:
            out.append((t, h))
            out.append((h, t))
        return out


def reverse_index(e: int) -> int:
    return e ^ 1


def build_hashimoto(es: OrientedEdgeSpace) -> Matrix:
    """Non-backtracking operator: T[e,f] = 1 iff head(e) = tail(f), f != reverse(e)."""
    darts = es.directed_edges()
    two_m = len(darts)
    by_tail: dict[int, list[int]] = {}
    for idx, (t, _) in enumerate(darts):
        by_tail.setdefault(t, []).append(idx)
    rows = [[0] * two_m for _ in range(two_m)]
    for e, (_, head) in enumerate(darts):
        for f in by_tail.get(head, ()):
            if f != reverse_index(e):
                rows[e][f] = 1
    return Matrix._of(rows, two_m)


def build_reversal(es: OrientedEdgeSpace) -> Matrix:
    """Permutation matrix of the edge-reversal involution (2i <-> 2i+1)."""
    two_m = 2 * es.m
    rows = [[0] * two_m for _ in range(two_m)]
    for e in range(two_m):
        rows[e][reverse_index(e)] = 1
    return Matrix._of(rows, two_m)


def build_hl2(es: OrientedEdgeSpace) -> Matrix:
    """Symmetric adjacency on directed edges: share a tail or share a head."""
    darts = es.directed_edges()
    two_m = len(darts)
    rows = [[0] * two_m for _ in range(two_m)]
    for e, (te, he) in enumerate(darts):
        for f, (tf, hf) in enumerate(darts):
            if e != f and (te == tf or he == hf):
                rows[e][f] = 1
    return Matrix._of(rows, two_m)


def build_incidence(es: OrientedEdgeSpace) -> tuple[Matrix, Matrix]:
    """(D, |D|): oriented (+1 head, -1 tail) and unsigned incidence, n x m."""
    n, m = es.graph.n, es.m
    signed = [[0] * m for _ in range(n)]
    unsigned = [[0] * m for _ in range(n)]
    for i, (t, h) in enumerate(es.orientation):
        signed[h][i] = 1
        signed[t][i] = -1
        unsigned[h][i] = 1
        unsigned[t][i] = 1
    return Matrix._of(signed, m), Matrix._of(unsigned, m)


@dataclass(frozen=True)
class SectorBlocks:
    """The three m x m blocks of T in the reversal eigenbasis."""

    L: Matrix  # line-graph adjacency, |D|^T |D| - 2I
    S: Matrix  # signed line-graph adjacency, D^T D - 2I
    M: Matrix  # mixed block |D|^T D (gauge-dependent)

    def block_matrix(self) -> Matrix:
        """[[L, -M], [M^T, -S]], the 2m x 2m sector form."""
        m = self.L.nrows
        mt = self.M.transpose()
        rows = []
        for i in range(m):
            rows.append(list(self.L[i]) + [-x for x in self.M[i]])
        for i in range(m):
            rows.append(list(mt[i]) + [-x for x in self.S[i]])
        return Matrix._of(rows, 2 * m)


@lru_cache(maxsize=128)
def sector_blocks(es: OrientedEdgeSpace) -> SectorBlocks:
    """L, S and M of one gauge, built once: verify_all reaches the same
    blocks through a dozen checks.  The matrices are shared, never mutate
    them."""
    d, absd = build_incidence(es)
    m = es.m
    two_i = Matrix.identity(m).scaled(2)
    dt = d.transpose()
    absdt = absd.transpose()
    return SectorBlocks(
        L=absdt * absd - two_i,
        S=dt * d - two_i,
        M=absdt * d,
    )


def build_pm_basis(es: OrientedEdgeSpace) -> Matrix:
    """Unnormalized change of basis U = [U+ | U-], columns e+ +- e-.

    U^T U = 2I; using U instead of the orthonormal basis keeps every entry an
    integer (the orthonormal version differs by a factor sqrt(2) per column).
    """
    m = es.m
    rows = [[0] * (2 * m) for _ in range(2 * m)]
    for i in range(m):
        rows[2 * i][i] = 1
        rows[2 * i + 1][i] = 1
        rows[2 * i][m + i] = 1
        rows[2 * i + 1][m + i] = -1
    return Matrix._of(rows, 2 * m)


@dataclass(frozen=True)
class SectorCheck:
    ok: bool
    mismatch: tuple[int, int, int, int] | None = None  # (row, col, lhs, rhs)


def verify_sector_identity(es: OrientedEdgeSpace) -> SectorCheck:
    """Exact check of U^T T U = [[L, -M], [M^T, -S]]: the left side is the
    matrix product of U = build_pm_basis and T = build_hashimoto, the right
    side the block_matrix of sector_blocks.  On mismatch the first offending
    (row, col, lhs, rhs) in row-major order is reported.
    """
    u = build_pm_basis(es)
    lhs = (u.transpose() * build_hashimoto(es) * u).rows
    rhs = sector_blocks(es).block_matrix().rows
    for row, (got, expect) in enumerate(zip(lhs, rhs)):
        if got != expect:
            col = next(j for j, (a, b) in enumerate(zip(got, expect)) if a != b)
            return SectorCheck(False, (row, col, got[col], expect[col]))
    return SectorCheck(True)


def regauge(es: OrientedEdgeSpace, signs) -> OrientedEdgeSpace:
    """Flip the reference orientation of every edge whose sign is -1.

    The new space satisfies D' = D Sigma, M' = M Sigma, S' = Sigma S Sigma,
    and leaves L untouched.
    """
    signs = tuple(signs)
    if len(signs) != es.m:
        raise ValueError("one sign per edge required")
    if any(s not in (1, -1) for s in signs):
        raise ValueError("gauge signs must be +1 or -1")
    orientation = tuple(
        (t, h) if s == 1 else (h, t) for (t, h), s in zip(es.orientation, signs)
    )
    return OrientedEdgeSpace(es.graph, orientation)


def random_gauge(rng, m: int) -> tuple[int, ...]:
    return tuple(rng.choice((1, -1)) for _ in range(m))


def edge_space(graph: Graph) -> OrientedEdgeSpace:
    """Shorthand for the default lexicographic gauge."""
    return OrientedEdgeSpace.lexicographic(graph)
