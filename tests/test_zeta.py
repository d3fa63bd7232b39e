import random
from fractions import Fraction

import pytest

from edgesector.graphs import Graph, corpus, corpus_graph, is_connected
from edgesector.edge_space import build_hashimoto, build_incidence, edge_space, sector_blocks
from edgesector.matrices import Matrix
from edgesector.polynomials import Poly, PowerSeries, RatFunc, ratfunc_reduce, series_of
from edgesector.census import _all_graphs_up_to_iso, builtin_generate
from edgesector.zeta import (
    bass_det,
    factorize,
    hashimoto_det,
    ihara_det,
    line_factor,
    log_trace_check,
    resolution_compare,
    schur_series_check,
    trivial_roots,
)
from conftest import random_connected_graph


def test_tree_det_is_one():
    for name in ["K2", "P3", "star3", "star6"]:
        assert hashimoto_det(corpus_graph(name)) == Poly.one()
    rng = random.Random(30)
    for _ in range(10):
        n = rng.randint(2, 9)
        tree = Graph.from_edges(
            n, [(rng.randrange(v), v) for v in range(1, n)]
        )
        assert hashimoto_det(tree) == Poly.one()


def test_paper_pair_coefficients():
    assert hashimoto_det(corpus_graph("paperG"))[6] == -28
    assert hashimoto_det(corpus_graph("paperH"))[6] == -30


def test_example_a_coefficients():
    dg = hashimoto_det(corpus_graph("exA_G1"))
    dh = hashimoto_det(corpus_graph("exA_H1"))
    assert dg[8] == 16 and dh[8] == 20
    assert all(dg[k] == dh[k] for k in range(8))


def test_hashimoto_det_integer_and_unit_constant():
    for entry in corpus():
        p = hashimoto_det(entry.graph)
        assert p.is_integer()
        assert p[0] == 1
        assert p.degree() is None or p.degree() <= 2 * entry.graph.m


def test_hashimoto_det_degree_spot_values():
    # full degree 2m exactly when minimum degree >= 2; a pendant vertex
    # forces nilpotent directions and drops the degree
    assert hashimoto_det(corpus_graph("K3")).degree() == 6
    assert hashimoto_det(corpus_graph("C6")).degree() == 12
    assert hashimoto_det(corpus_graph("petersen")).degree() == 30
    assert hashimoto_det(corpus_graph("paperG")).degree() < 44  # has a leaf
    assert hashimoto_det(corpus_graph("exB_G2")).degree() == 36  # min degree 3


def test_bass_k3_closed_form():
    expect = Poly((1, -1)) ** 2 * Poly((1, 1, 1)) ** 2
    assert bass_det(corpus_graph("K3")) == expect
    assert expect == Poly((1, 0, 0, -2, 0, 0, 1))


def test_bass_equals_hashimoto_corpus():
    for entry in corpus():
        assert bass_det(entry.graph) == hashimoto_det(entry.graph), entry.name


def test_bass_equals_hashimoto_random():
    rng = random.Random(31)
    for _ in range(40):
        g = random_connected_graph(rng)
        assert bass_det(g) == hashimoto_det(g)


def test_bass_disconnected_multiplicative():
    two_triangles = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    assert bass_det(two_triangles) == hashimoto_det(two_triangles)
    assert hashimoto_det(two_triangles) == hashimoto_det(corpus_graph("K3")) ** 2


def test_ihara_det_equals_bass_det_every_graph_to_n7():
    # every class on at most 7 vertices, disconnected graphs, forests and
    # isolated vertices included: the 2-core route against the Bass formula
    # on the whole graph, which peels nothing
    count = 0
    for n in range(8):
        for g in _all_graphs_up_to_iso(n):
            assert ihara_det(g) == bass_det(g), (n, g.edges)
            count += 1
    assert count == 1253


def test_ihara_det_equals_hashimoto_det_every_graph_to_n6():
    for n in range(7):
        for g in _all_graphs_up_to_iso(n):
            assert ihara_det(g) == hashimoto_det(g), (n, g.edges)


def test_ihara_det_takes_its_charpoly_on_the_2_core(monkeypatch):
    g = corpus_graph("petersen")
    n = g.n
    # a pendant path of three vertices on vertex 0, and an isolated vertex
    tailed = Graph.from_edges(n + 4, list(g.edges) + [(0, n), (n, n + 1), (n + 1, n + 2)])
    forest = Graph.from_edges(9, [(0, 1), (1, 2), (1, 3), (4, 5), (5, 6), (6, 7)])
    expect = hashimoto_det(g)
    dims = []
    charpoly = Matrix.charpoly

    def recording(self):
        dims.append(self.nrows)
        return charpoly(self)

    monkeypatch.setattr(Matrix, "charpoly", recording)
    assert ihara_det(tailed) == expect
    assert dims == [2 * n]
    dims.clear()
    assert ihara_det(forest) == Poly.one()
    assert dims == []


def test_factorize_paper_c6():
    fg = factorize(corpus_graph("paperG"))
    fh = factorize(corpus_graph("paperH"))
    assert fg.correction_series[6] == Fraction(38663, 32)
    assert fh.correction_series[6] == Fraction(38599, 32)
    assert fg.correction_series[6] - fh.correction_series[6] == 2


def test_factorize_p3():
    fact = factorize(corpus_graph("P3"))
    assert fact.hashimoto_det == Poly.one()
    assert fact.line_factor == Poly((1, 0, Fraction(-1, 4)))
    # correction = 1 / (1 - w^2/4)
    want = ratfunc_reduce(Poly.one(), Poly((1, 0, Fraction(-1, 4))))
    assert fact.correction == want
    assert fact.correction_series.coeffs[:5] == (1, 0, Fraction(1, 4), 0, Fraction(1, 16))


def test_factorize_k2_trivial():
    fact = factorize(corpus_graph("K2"))
    assert fact.correction.num == Poly.one() and fact.correction.den == Poly.one()


def test_factorization_identity_everywhere():
    rng = random.Random(32)
    graphs = [e.graph for e in corpus()] + [random_connected_graph(rng) for _ in range(20)]
    for g in graphs:
        fact = factorize(g)
        assert fact.identity_holds()
        assert fact.hashimoto_det[0] == 1
        assert fact.line_factor[0] == 1
        assert fact.correction_series[0] == 1


def test_schur_series_corpus():
    for entry in corpus():
        assert schur_series_check(entry.graph, 8), entry.name


def test_schur_series_k3_closed_form():
    # (1-w)(1+w+w^2)^2 / (1+w/2)^2 expanded to order 10
    num = Poly((1, -1)) * Poly((1, 1, 1)) ** 2
    den = Poly((1, Fraction(1, 2))) ** 2
    closed = series_of(RatFunc.reduce(num, den), 10)
    assert factorize(corpus_graph("K3"), 10).correction_series == closed
    assert schur_series_check(corpus_graph("K3"), 10)


def test_schur_series_random():
    rng = random.Random(33)
    graphs = [Graph.from_edges(1, [])]  # edgeless, m = 0
    graphs += [random_connected_graph(rng, n_max=8, extra_max=4) for _ in range(15)]
    for g in graphs:
        # order 1 runs no coefficient product; order 2 adds only M^T M
        for order in (1, 2, 6):
            assert schur_series_check(g, order), (g, order)


def test_schur_series_detects_wrong_correction(monkeypatch):
    import edgesector.zeta as zeta

    true_series = zeta.correction_series

    def off_by_last(g, order):
        coeffs = list(true_series(g, order).coeffs)
        coeffs[-1] += Fraction(1, 2**order)
        return PowerSeries(order, coeffs)

    monkeypatch.setattr(zeta, "correction_series", off_by_last)
    assert not schur_series_check(corpus_graph("K4"), 8)


def test_schur_rejects_bad_order():
    with pytest.raises(ValueError):
        schur_series_check(corpus_graph("K3"), 0)


def test_trivial_roots_examples():
    rep = trivial_roots(corpus_graph("C4"))
    assert rep.ker_dim_absD == 1 and rep.ker_dim_D == 1
    assert rep.bipartite
    assert rep.ord_line_at_minus1 >= 0
    assert rep.ord_line_at_plus1 + rep.ord_correction_at_plus1 >= 1

    rep = trivial_roots(corpus_graph("K4"))
    assert rep.ord_line_at_minus1 >= 2
    assert rep.ord_correction_at_plus1 >= 3

    rep = trivial_roots(corpus_graph("P3"))
    assert rep.ker_dim_D == 0
    assert rep.ord_correction_at_plus1 >= 0


def test_trivial_roots_corpus_and_random():
    rng = random.Random(34)
    graphs = [e.graph for e in corpus()] + [random_connected_graph(rng) for _ in range(25)]
    for g in graphs:
        assert trivial_roots(g).ok()


def test_trivial_roots_petersen_rational_order_drop():
    # the line factor of a regular graph can vanish at w = 1, lowering the
    # reduced correction's order there; the combined order still localizes
    rep = trivial_roots(corpus_graph("petersen"))
    assert rep.m_minus_n == 5
    assert rep.ord_line_at_plus1 == 5
    assert rep.ord_correction_at_plus1 == 1
    assert rep.ok()


def test_trivial_roots_take_the_correction_order_from_det_and_line():
    # against the reduced C = num/den: coprime, so at most one vanishes at 1
    rng = random.Random(35)
    graphs = [e.graph for e in corpus() if is_connected(e.graph)]
    graphs += [g for n in range(1, 6) for g in builtin_generate(n)]
    graphs += [random_connected_graph(rng) for _ in range(25)]
    for g in graphs:
        c = factorize(g).correction
        want = c.num.root_order(1) - c.den.root_order(1)
        assert trivial_roots(g).ord_correction_at_plus1 == want


def test_trivial_roots_requires_connected():
    with pytest.raises(ValueError):
        trivial_roots(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_kernel_eigenvector_localization():
    # x in ker D forces Sx = -2x and Mx = 0; x in ker |D| forces Lx = -2x
    for name in ["K4", "C4", "petersen", "exB_G2"]:
        g = corpus_graph(name)
        es = edge_space(g)
        d, absd = build_incidence(es)
        blocks = sector_blocks(es)
        for mat, block, target in ((d, blocks.S, -2), (absd, blocks.L, -2)):
            kernel = _kernel_basis(mat)
            for vec in kernel:
                sx = _matvec(block, vec)
                assert sx == [target * x for x in vec]
                if mat is d:
                    assert _matvec(blocks.M, vec) == [0] * len(vec)


def _matvec(mat, vec):
    return [sum(row[j] * vec[j] for j in range(len(vec))) for row in mat.rows]


def _kernel_basis(mat):
    """Exact kernel basis via reduced row echelon form."""
    rows = [[Fraction(x) for x in row] for row in mat.rows]
    ncols = mat.ncols
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -rows[i][fc]
        basis.append(vec)
    return basis


def test_log_trace_corpus():
    for entry in corpus():
        assert log_trace_check(entry.graph, 8), entry.name


def test_log_trace_k2_degenerate():
    assert log_trace_check(corpus_graph("K2"), 6)


def test_log_trace_c3_closed_form():
    # both sides equal log((1-w^3)^2) - log((1-w)(1+w/2)^2)
    g = corpus_graph("K3")
    order = 8
    det_series = series_of(ratfunc_reduce(hashimoto_det(g), Poly.one()), order)
    line_series = series_of(ratfunc_reduce(line_factor(g), Poly.one()), order)
    closed = det_series.log() - line_series.log()
    assert factorize(g, order).correction_series.log() == closed
    assert log_trace_check(g, order)


def test_newton_identities_det_vs_traces():
    # k a_k = -sum_{i=1..k} tr(T^i) a_{k-i} for det(I - wT) = sum a_k w^k
    for name in ["K4", "C5", "exA_G1"]:
        g = corpus_graph(name)
        p = hashimoto_det(g)
        t = build_hashimoto(edge_space(g))
        kmax = min(8, 2 * g.m)
        traces = t.power_traces(kmax)
        for k in range(1, kmax + 1):
            lhs = k * p[k]
            rhs = -sum(traces[i - 1] * p[k - i] for i in range(1, k + 1))
            assert lhs == rhs


def test_resolution_compare_pairs():
    pd = resolution_compare(corpus_graph("paperG"), corpus_graph("paperH"))
    assert pd.line_cospectral
    assert pd.det_first_diff_order == 6
    assert pd.correction_first_diff_order == 6
    assert pd.diff_values == (-28, -30)
    assert pd.consistent()

    pd = resolution_compare(corpus_graph("exA_G1"), corpus_graph("exA_H1"))
    assert pd.det_first_diff_order == 8 and pd.diff_values == (16, 20)
    assert pd.consistent()

    g = corpus_graph("K4")
    pd = resolution_compare(g, g)
    assert pd.det_first_diff_order is None
    assert pd.correction_first_diff_order is None

    pd = resolution_compare(corpus_graph("exB_G2"), corpus_graph("exB_H2"))
    assert pd.line_cospectral
    assert pd.det_first_diff_order is None
    assert pd.correction_first_diff_order is None


def test_resolution_principle_random_line_cospectral_free():
    # for arbitrary pairs the report stays internally consistent
    rng = random.Random(35)
    graphs = [random_connected_graph(rng, n_max=7) for _ in range(10)]
    for a in graphs[:5]:
        for b in graphs[5:]:
            assert resolution_compare(a, b).consistent()


@pytest.mark.parametrize("bad", [Poly((1, Fraction(1, 2))), Poly((2, 1))])
def test_hashimoto_det_rejects_bad_resolvent(monkeypatch, bad):
    import edgesector.zeta as zeta

    monkeypatch.setattr(zeta, "det_resolvent", lambda mat: bad)
    with pytest.raises(ArithmeticError):
        zeta.hashimoto_det.__wrapped__(corpus_graph("K3"))  # bypass the cache


def test_bass_det_rejects_non_integer(monkeypatch):
    import edgesector.zeta as zeta

    monkeypatch.setattr(zeta, "_vertex_space_det", lambda g: Poly((1, Fraction(1, 2))))
    with pytest.raises(ArithmeticError):
        bass_det(corpus_graph("K3"))
