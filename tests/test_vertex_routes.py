"""Every fingerprint field against its edge-space oracle.

fingerprint computes in vertex space: L, S and the mixed shadows from n x n
matrices built from Q = Deg + A and Delta = Deg - A, the Ihara determinant
from one determinant on the 2-core, the correction series by one integer
recurrence.
The oracles here are the m x m sector blocks, the 2m x 2m Hashimoto
operator and the series of the reduced rational function det(I - wT) /
det(I - (w/2) L) taken from them.  zeta.factorize, zeta's trivial_roots and
bounds.hashimoto_spectrum take the vertex routes too.
"""

import importlib
import random

import pytest

import edgesector
from edgesector import bounds, cli, polynomials, screen, shadows, zeta
from edgesector.edge_space import edge_space, sector_blocks
from edgesector.census import _all_graphs_up_to_iso
from edgesector.graphs import Graph, corpus, corpus_graph, encode_graph6, is_connected
from edgesector.matrices import Matrix, _berkowitz_charpoly
from edgesector.polynomials import PowerSeries, ratfunc_reduce, series_of
from edgesector.shadows import (
    GROUPING_KEYS,
    Fingerprint,
    ShadowSet,
    compare,
    fingerprint,
    invariant,
    shadow_set,
    vertex_shadow_set,
)
from edgesector.verify import verify_all
from edgesector.zeta import (
    PairDivergence,
    factorize,
    hashimoto_det,
    ihara_det,
    line_factor,
    resolution_compare,
)
from conftest import _tree_plus_chords, random_population, shift, sparse20_graphs

# (order, kmax): every order in {0, 1, 12} and every kmax in 0..3
SETTINGS = ((0, 0), (1, 1), (12, 2), (12, 3))
KMAX = 3


def edge_fingerprint(g: Graph, order: int, kmax: int) -> Fingerprint:
    """The fingerprint assembled from the edge-space routes only."""
    es = edge_space(g)
    blocks = sector_blocks(es)
    mixed = shadow_set(es, kmax)
    assert (blocks.M.transpose() * blocks.M).charpoly() == mixed.mmt
    return Fingerprint(
        graph6=encode_graph6(g),
        n=g.n,
        m=g.m,
        degrees=g.degree_multiset(),
        charpoly_adjacency=g.adjacency().charpoly(),
        charpoly_line=blocks.L.charpoly(),
        charpoly_signed=blocks.S.charpoly(),
        shadows=ShadowSet(kmax, mixed.mmt, mixed.mtlkm),
        hashimoto_det=hashimoto_det(g),
        correction_order=order,
        correction_series=series_of(ratfunc_reduce(hashimoto_det(g), line_factor(g)), order),
    )


def truncated(fp: Fingerprint, order: int, kmax: int) -> Fingerprint:
    """The same record at a lower series order and kmax."""
    s = fp.shadows
    return Fingerprint(
        graph6=fp.graph6,
        n=fp.n,
        m=fp.m,
        degrees=fp.degrees,
        charpoly_adjacency=fp.charpoly_adjacency,
        charpoly_line=fp.charpoly_line,
        charpoly_signed=fp.charpoly_signed,
        shadows=ShadowSet(kmax, s.mmt, s.mtlkm[:kmax]),
        hashimoto_det=fp.hashimoto_det,
        correction_order=order,
        correction_series=PowerSeries(order, fp.correction_series.coeffs[: order + 1]),
    )


def assert_routes_agree(g: Graph) -> None:
    oracle = edge_fingerprint(g, 12, KMAX)
    assert ihara_det(g) == oracle.hashimoto_det
    for order, kmax in SETTINGS:
        want = truncated(oracle, order, kmax)
        got = fingerprint(g, order, kmax)
        assert got.to_json_dict() == want.to_json_dict(), (encode_graph6(g), order, kmax)
        assert got == want
    assert fingerprint(g, 12, KMAX).line_factor == line_factor(g)
    fact = factorize(g, 12)
    assert fact.hashimoto_det == oracle.hashimoto_det
    assert fact.line_factor == line_factor(g)
    assert fact.correction_series == oracle.correction_series


def random_graph(rng: random.Random, n_max: int) -> Graph:
    """Seeded G(n, p): edgeless, forests and disconnected graphs included."""
    n = rng.randint(0, n_max)
    p = rng.choice((0.0, 0.15, 0.3, 0.5, 0.8))
    return Graph.from_edges(n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p])


def disjoint_union(*graphs: Graph) -> Graph:
    edges, offset = [], 0
    for g in graphs:
        edges += [(a + offset, b + offset) for a, b in g.edges]
        offset += g.n
    return Graph.from_edges(offset, edges)


EDGE_CASES = {
    "n=0": Graph.from_edges(0, []),
    "K1": Graph.from_edges(1, []),
    "edgeless3": Graph.from_edges(3, []),
    "edgeless6": Graph.from_edges(6, []),
    "K2": corpus_graph("K2"),
    "star5": Graph.from_edges(6, [(0, v) for v in range(1, 6)]),
    "forest": disjoint_union(corpus_graph("P3"), Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)])),
    "tree_plus_isolated": disjoint_union(corpus_graph("P3"), Graph.from_edges(2, [])),
    "K3+K1": disjoint_union(corpus_graph("K3"), Graph.from_edges(1, [])),
    "C4+K2": disjoint_union(corpus_graph("C4"), corpus_graph("K2")),
    "K4+P3+K1": disjoint_union(corpus_graph("K4"), corpus_graph("P3"), Graph.from_edges(1, [])),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_routes_agree_edge_cases(name):
    assert_routes_agree(EDGE_CASES[name])


@pytest.mark.parametrize("entry", corpus(), ids=lambda e: e.name)
def test_routes_agree_corpus(entry):
    assert_routes_agree(entry.graph)


def test_routes_agree_random_connected():
    for g in random_population(seed=4242, count=20, n_max=9):
        assert_routes_agree(g)


def test_routes_agree_random_any():
    rng = random.Random(2718)
    for _ in range(30):
        assert_routes_agree(random_graph(rng, 8))


def test_vertex_shadow_set_rejects_negative_kmax():
    with pytest.raises(ValueError):
        vertex_shadow_set(corpus_graph("petersen"), -1)


def _small_and_sparse20_graphs() -> list[Graph]:
    """Every graph on at most 7 vertices (n = 0 and 1, forests and
    disconnected graphs included), the corpus, the seeded n=20 graphs and a
    disconnected graph with an isolated vertex."""
    petersen_k4 = list(corpus_graph("petersen").edges)
    petersen_k4 += [(10 + i, 10 + j) for j in range(4) for i in range(j)]
    graphs = [g for n in range(8) for g in _all_graphs_up_to_iso(n)]
    graphs += [entry.graph for entry in corpus()] + sparse20_graphs()
    graphs.append(Graph.from_edges(15, petersen_k4))
    assert {0, 1, 20} <= {g.n for g in graphs}
    assert not is_connected(graphs[-1])
    return graphs


def test_vertex_shadow_products_equal_matrix_products(monkeypatch):
    # the X_k vertex_shadow_set builds from neighbour lists are Q Delta,
    # then (Q - 2I) X_(k-1), as Matrix products compute them
    built = []
    charpoly = shadows._shadow_charpoly

    def recording(rows, deg, m):
        built.append(rows)
        return charpoly(rows, deg, m)

    monkeypatch.setattr(shadows, "_shadow_charpoly", recording)
    for g in _small_and_sparse20_graphs():
        deg = g.degrees()
        q, delta = g.vertex_operator(deg), g.vertex_operator(deg, -1)
        q_minus_2 = g.vertex_operator([d - 2 for d in deg])
        built.clear()
        mixed = vertex_shadow_set(g, KMAX)
        assert len(mixed.mtlkm) == KMAX
        x = q * delta
        expected = [x]
        for _ in range(KMAX):
            x = q_minus_2 * x
            expected.append(x)
        assert built == [mat.rows for mat in expected], g.edges


def test_deflated_charpolys_equal_berkowitz_on_the_full_matrix():
    # Delta and X_k = Q (Q - 2I)^k Delta, k = 0, 1, 2, every row of which
    # sums to 0; with m = n the shadow charpoly is x charpoly(deflated X)
    for g in _small_and_sparse20_graphs():
        deg = g.degrees()
        q, delta = g.vertex_operator(deg), g.vertex_operator(deg, -1)
        q_minus_2 = g.vertex_operator([d - 2 for d in deg])
        x = q * delta
        for mat in (delta, x, q_minus_2 * x, q_minus_2 * (q_minus_2 * x)):
            full = _berkowitz_charpoly(mat.rows)
            assert shadows._shadow_charpoly(mat.rows, deg, g.n) == full, g.edges


def test_line_and_signed_charpolys_equal_the_shifted_vertex_charpolys():
    # L + 2I and Q, S + 2I and Delta share their nonzero spectrum, so the
    # charpolys of L and S are x^(m-n) charpoly(Q) and x^(m-n) charpoly(Delta)
    # read at x + 2
    for g in _small_and_sparse20_graphs():
        deg = g.degrees()
        for key, mat in (("L", g.vertex_operator(deg)), ("S", g.vertex_operator(deg, -1))):
            want = shift(_berkowitz_charpoly(mat.rows).times_x_power(g.m - g.n), 2)
            assert invariant(g, key) == want, (key, g.edges)


def test_deflation_refuses_a_nonzero_row_sum():
    g = corpus_graph("petersen")
    deg = g.degrees()
    for mat in (g.adjacency(), g.vertex_operator(deg)):
        with pytest.raises(ArithmeticError):
            shadows._deflated(mat.rows, deg)
    # one row off by one, and a 1 x 1 matrix that is not 0
    off = [list(row) for row in g.vertex_operator(deg, -1).rows]
    off[9][0] += 1
    with pytest.raises(ArithmeticError):
        shadows._deflated(off, deg)
    with pytest.raises(ArithmeticError):
        shadows._deflated([[1]], [0])


def test_laplacian_side_charpolys_take_n_minus_1_rows(monkeypatch):
    sizes = []
    charpoly = Matrix.charpoly

    def recording(self):
        sizes.append(self.nrows)
        return charpoly(self)

    monkeypatch.setattr(Matrix, "charpoly", recording)
    g = corpus_graph("petersen")
    for key in GROUPING_KEYS:
        invariant(g, key, 2)
    # A and Q - 2I whole; Delta - 2I and X_0, X_1, X_2 deflated; hashimoto takes none
    assert sizes == [10, 10, 9, 9, 9, 9]


def test_pair_report_matches_edge_space_divergence():
    for a, b in [("paperG", "paperH"), ("exA_G1", "exA_H1"), ("exB_G2", "exB_H2"), ("K4", "C6")]:
        g, h = corpus_graph(a), corpus_graph(b)
        pd = PairDivergence.between(edge_fingerprint(g, 12, 0), edge_fingerprint(h, 12, 0))
        rep = compare(g, h)
        assert rep.line_cospectral == pd.line_cospectral
        assert rep.det_first_diff_order == pd.det_first_diff_order
        assert rep.correction_first_diff_order == pd.correction_first_diff_order
        assert rep.det_diff_values == pd.diff_values
        assert resolution_compare(g, h) == pd


# the package re-exports the function edge_space under the module's name
edge_space_module = importlib.import_module("edgesector.edge_space")

# names that only the edge-space oracles may reach; bass_det is a verify oracle
EDGE_ONLY = {
    edge_space_module: ("build_hashimoto", "sector_blocks"),
    polynomials: ("series_of",),
    zeta: ("hashimoto_det", "line_factor", "bass_det"),
    shadows: ("shadow_set",),
}
# bounds keeps sector_blocks for its pinned float spectra of L, S and M^T M
CLI_KEEPS = ("sector_blocks",)


def _refuse(monkeypatch, names: dict) -> None:
    """Make every binding of each named function raise when called."""
    modules = (edgesector, edge_space_module, polynomials, zeta, shadows, bounds, screen, cli)
    for home, attrs in names.items():
        for name in attrs:
            original = getattr(home, name)

            def refuse(*args, _name=name, **kwargs):
                raise AssertionError(f"{_name} called on the vertex route")

            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, refuse)


def test_fingerprint_and_pair_reports_never_reach_edge_space(monkeypatch, capsys):
    # zeta and bounds: every Ihara polynomial from the vertex kernels; zeta
    # keeps build_incidence for the kernel ranks of trivial_roots
    _refuse(monkeypatch, {home: tuple(n for n in names if n not in CLI_KEEPS)
                          for home, names in EDGE_ONLY.items()})
    zeta.factorize.cache_clear()
    fingerprint.cache_clear()
    try:
        for name in edgesector.corpus_names():
            assert cli.main(["zeta", name]) == cli.EXIT_OK, name
            assert cli.main(["bounds", name, "--json"]) == cli.EXIT_OK, name
        capsys.readouterr()
        _refuse(monkeypatch, EDGE_ONLY)
        for entry in corpus():
            fingerprint(entry.graph, 12, KMAX)
        compare(corpus_graph("paperG"), corpus_graph("paperH"))
        lines = [(i, encode_graph6(g)) for i, g in enumerate(random_population(99, 12, n_max=6), 1)]
        screen.run_screen(lines, screen.ScreenConfig(keys=("A", "hashimoto")))
    finally:
        zeta.factorize.cache_clear()
        fingerprint.cache_clear()


@pytest.mark.slow
@pytest.mark.parametrize("n", [20, 30, 40])
def test_production_routes_and_battery_at_production_sizes(n):
    # seeded graphs with m = 2n: the battery's oracles and the edge-space
    # fingerprint against the vertex routes, past the census and the corpus
    for seed in range(2):
        g = _tree_plus_chords(random.Random(f"sweep/{n}/{seed}"), n, 2 * n)
        failed = [r for r in verify_all(g) if not r.ok]
        assert failed == [], (encode_graph6(g), failed)
        assert_routes_agree(g)
