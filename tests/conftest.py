import dataclasses
import random
from fractions import Fraction

import pytest

from edgesector import screen
from edgesector.graphs import Graph, corpus
from edgesector.matrices import Matrix
from edgesector.polynomials import Poly, PowerSeries, _newton_expand
from edgesector.shadows import fingerprint


def random_connected_graph(rng: random.Random, n_max: int = 10, extra_max: int = 6) -> Graph:
    """Seeded sparse connected graph: random spanning tree plus extra edges."""
    n = rng.randint(2, n_max)
    edges = {(min(v, u), max(v, u)) for v in range(1, n) for u in [rng.randrange(v)]}
    possible = [
        (a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in edges
    ]
    rng.shuffle(possible)
    for extra in possible[: rng.randint(0, min(extra_max, len(possible)))]:
        edges.add(extra)
    return Graph.from_edges(n, edges)


def diagonal_matrix(diag) -> Matrix:
    """diag(diag), built through the checked constructor."""
    n = len(diag)
    return Matrix([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])


def poly_power(p: Poly, k: int) -> Poly:
    """p^k as k products; Poly has no power operator."""
    out = Poly.one()
    for _ in range(k):
        out = out * p
    return out


def shift(p: Poly, a) -> Poly:
    """p(x + a): the coefficients as a Newton form whose nodes are all -a.
    The oracle of the charpolys of L and S, which the package reads at
    x + 2 from Q - 2I and the deflated Delta - 2I instead."""
    return Poly(_newton_expand([-a] * len(p.coeffs), p.coeffs))


def old_scalar_from_str(s):
    """The store's scalar parse without its ASCII fast paths: int(), then
    Fraction, an int when whole.  The oracle of scalar_from_str and of the
    list readers built on it."""
    try:
        return int(s)
    except ValueError:
        f = Fraction(s)
        return int(f) if f.denominator == 1 else f


def old_from_coeff_strings(strings) -> Poly:
    """Poly.from_coeff_strings through old_scalar_from_str, string by string."""
    return Poly([old_scalar_from_str(s) for s in strings])


def series_log(s: PowerSeries) -> PowerSeries:
    """The formal logarithm of a series with constant term 1, by
    integrating s'/s: the oracle of the log-trace identity, which the
    package checks by Newton's identities instead."""
    if s.coeffs[0] != 1:
        raise ValueError("series logarithm needs constant term 1")
    if s.order == 0:
        return PowerSeries(0, [0])
    deriv = PowerSeries(s.order - 1, [k * c for k, c in enumerate(s.coeffs)][1:])
    ratio = deriv * PowerSeries(s.order - 1, s.coeffs[: s.order]).inverse()
    return PowerSeries(s.order, [0] + [Fraction(c, k) for k, c in enumerate(ratio.coeffs, start=1)])


def vertex_triples(g: Graph) -> tuple:
    """The sorted per-vertex (degree, sorted neighbor degrees, triangles
    through the vertex): a cheap non-isomorphism certificate.  A vertex
    lies on half the closed 3-walks from it, (A^3)_vv / 2."""
    deg = g.degrees()
    nbrs = g.neighbors()
    a = g.adjacency()
    a3 = a * a * a
    return tuple(sorted(
        (deg[v], tuple(sorted(deg[u] for u in nbrs[v])), a3[v][v] // 2) for v in range(g.n)
    ))


def correction_bumped_on(g6: str):
    """A stand-in for screen.fingerprint that adds 1 to one graph's order-3
    correction coefficient, leaving its Ihara determinant as it is."""

    def fake(g, order, kmax, known=()):
        fp = fingerprint(g, order, kmax, known)
        if fp.graph6 != g6:
            return fp
        coeffs = list(fp.correction_series.coeffs)
        coeffs[3] += 1
        return dataclasses.replace(fp, correction_series=PowerSeries(order, coeffs))

    return fake


def random_population(seed: int, count: int, n_max: int = 10, extra_max: int = 6):
    rng = random.Random(seed)
    return [random_connected_graph(rng, n_max, extra_max) for _ in range(count)]


def _tree_plus_chords(rng: random.Random, n: int, m: int) -> Graph:
    """Uniform random recursive tree on n vertices plus m - n + 1 random
    chords: the generator of the sparse_large benchmark workload."""
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    while len(edges) < m:
        a, b = sorted(rng.sample(range(n), 2))
        edges.add((a, b))
    return Graph.from_edges(n, sorted(edges))


def sparse20_graphs() -> list[Graph]:
    """Four seeded n=20, m=38 graphs: their A and deflated Delta take the
    Kronecker route, their Q and shadow products Berkowitz."""
    return [_tree_plus_chords(random.Random(f"golden/{j}"), 20, 38) for j in range(4)]


def sparse40_graphs() -> list[Graph]:
    """Two seeded n=40, m=80 graphs, whose 2-cores (37 and 38 vertices) are
    the largest Ihara determinants the golden digests pin."""
    return [_tree_plus_chords(random.Random(f"golden40/{j}"), 40, 80) for j in range(2)]


@pytest.fixture(scope="session")
def corpus_graphs():
    return {entry.name: entry.graph for entry in corpus()}


@pytest.fixture(scope="session")
def random_200():
    """The seeded 200-graph population shared by the acceptance criteria."""
    return random_population(seed=20240601, count=200, n_max=10)


@pytest.fixture(scope="session")
def random_50_small():
    return random_population(seed=777, count=50, n_max=8, extra_max=5)


@pytest.fixture
def pooled(monkeypatch):
    """screen's pool limits at 0: a batch's rate is 0 before its first
    chunk, so every batch of more than one chunk goes whole to a pool."""
    monkeypatch.setattr(screen, "_POOL_MIN_TASK_S", 0)
    monkeypatch.setattr(screen, "_POOL_MIN_S", 0)
