import dataclasses
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from edgesector import matrices, zeta
from edgesector.graphs import Graph, corpus, corpus_graph, is_connected, is_regular
from edgesector.edge_space import build_hashimoto, build_incidence, edge_space, sector_blocks
from edgesector.matrices import Matrix
from edgesector.polynomials import (
    Poly,
    PowerSeries,
    RatFunc,
    ratfunc_reduce,
    series_of,
    truncated_product,
)
from edgesector.census import _all_graphs_up_to_iso, builtin_generate
from edgesector.zeta import (
    PairDivergence,
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
from conftest import poly_power, random_connected_graph, series_log


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
    expect = poly_power(Poly((1, -1)), 2) * poly_power(Poly((1, 1, 1)), 2)
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
    assert hashimoto_det(two_triangles) == poly_power(hashimoto_det(corpus_graph("K3")), 2)


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


def test_ihara_det_takes_one_determinant_on_the_2_core(monkeypatch):
    g = corpus_graph("petersen")
    n = g.n
    # a pendant path of three vertices on vertex 0, and an isolated vertex
    tailed = Graph.from_edges(n + 4, list(g.edges) + [(0, n), (n, n + 1), (n + 1, n + 2)])
    forest = Graph.from_edges(9, [(0, 1), (1, 2), (1, 3), (4, 5), (5, 6), (6, 7)])
    expect = hashimoto_det(g)
    sizes, charpolys = [], []
    kronecker_poly = zeta._kronecker_poly
    charpoly = Matrix.charpoly

    def recording(rows, b, *digits):
        sizes.append(len(rows))
        return kronecker_poly(rows, b, *digits)

    def recording_charpoly(self):
        charpolys.append(self.nrows)
        return charpoly(self)

    monkeypatch.setattr(zeta, "_kronecker_poly", recording)
    monkeypatch.setattr(Matrix, "charpoly", recording_charpoly)
    assert ihara_det(tailed) == expect
    assert sizes == [n]
    sizes.clear()
    assert ihara_det(forest) == Poly.one()
    assert sizes == []
    assert charpolys == []


def _random_connected(seed: int, n: int, m: int) -> Graph:
    """A random recursive tree on n vertices plus random chords up to m edges."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return Graph.from_edges(n, sorted(edges))


def test_ihara_det_equals_bass_det_on_large_cores():
    def tailed_complete(k: int) -> Graph:
        # K_k with a pendant path of two vertices: the core is K_k
        edges = [(i, j) for j in range(k) for i in range(j)] + [(0, k), (k, k + 1)]
        return Graph.from_edges(k + 2, edges)

    # dense and sparse cores of 15 to 20 vertices, 2n_core * b from 1672 to
    # 3520 bits, where the census cores take at most 294
    graphs = [
        tailed_complete(15),
        tailed_complete(16),
        tailed_complete(20),
        _random_connected(760, 19, 40),
        _random_connected(880, 20, 44),
    ]
    for g in graphs:
        assert ihara_det(g) == bass_det(g), g.edges


def test_ihara_bits_bound_every_digit():
    # Cauchy's estimate with Hadamard's inequality bounds every coefficient
    # of V(w) = det(I - wA + w^2 (Deg - I)) by sqrt(prod d_v (d_v + 1)); the
    # oracle is evaluation-interpolation, which takes no bound
    def cycle(n: int) -> Graph:
        return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    def complete(n: int) -> Graph:
        return Graph.from_edges(n, [(i, j) for j in range(n) for i in range(j)])

    def complete_bipartite(a: int, b: int) -> Graph:
        return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])

    graphs = [cycle(n) for n in (3, 4, 7, 12)] + [complete(n) for n in (4, 5, 8, 11)]
    graphs += [complete_bipartite(a, b) for a, b in ((2, 2), (2, 5), (3, 3), (4, 6))]
    graphs.append(corpus_graph("petersen"))
    graphs += [_random_connected(seed, n, m) for seed, n, m in ((1, 9, 14), (2, 12, 22), (3, 14, 30))]
    for g in graphs:
        core = zeta._two_core(g)
        edges = {(v, u) for v, nb in enumerate(core) for u in nb if v < u}
        v = zeta._vertex_space_det(Graph.from_edges(len(core), sorted(edges)))
        b = zeta._ihara_bits(core)
        assert max(map(abs, v.coeffs)) < 1 << (b - 2), g.edges
        assert zeta._ihara_kronecker(core, b) == v


def test_ihara_det_checks_its_digits(monkeypatch):
    g = corpus_graph("petersen")
    core = zeta._two_core(g)
    b = zeta._ihara_bits(core)
    assert zeta._ihara_kronecker(core, b) == zeta._vertex_space_det(g)
    # too few bits: the digits wrap into each other
    with pytest.raises(ArithmeticError):
        zeta._ihara_kronecker(core, 3)
    # the Bass matrix is symmetric, so its determinant is _symmetric_det's
    symmetric_det = matrices._symmetric_det
    # an error in the lowest digit, and one in the digit at w^2n alone
    for error in (1, 1 << (2 * g.n * b)):

        def wrong(m, _error=error):
            return symmetric_det(m) + _error

        monkeypatch.setattr(matrices, "_symmetric_det", wrong)
        with pytest.raises(ArithmeticError):
            ihara_det(g)


def test_schur_series_check_refuses_a_non_symmetric_coefficient(monkeypatch):
    g = corpus_graph("K4")
    blocks = sector_blocks(edge_space(g))
    rows = [list(row) for row in blocks.S.rows]
    rows[0][1] += 1
    bad = dataclasses.replace(blocks, S=Matrix(rows))
    monkeypatch.setattr(zeta, "sector_blocks", lambda es: bad)
    with pytest.raises(ArithmeticError, match="C_1 is not symmetric"):
        schur_series_check(g, 4)


@pytest.mark.slow
def test_ihara_det_equals_bass_det_irregular_n8_min_degree_2():
    # the graphs an n=8 Ihara screen meets; about 15 s, nearly all of it bass_det
    graphs = [
        g
        for g in _all_graphs_up_to_iso(8)
        if is_connected(g) and is_regular(g) is None and min(g.degrees()) >= 2
    ]
    assert len(graphs) == 7425
    for g in graphs:
        assert ihara_det(g) == bass_det(g), g.edges


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
    num = Poly((1, -1)) * poly_power(Poly((1, 1, 1)), 2)
    den = poly_power(Poly((1, Fraction(1, 2))), 2)
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


def series_ring_schur_det(g: Graph, order: int) -> list:
    """det E(u) through u^order by Gaussian elimination in the ring of
    truncated integer series, on and above the diagonal: the Schur check's
    elimination before it read the digits of one integer determinant."""
    blocks = sector_blocks(edge_space(g))
    m = g.m
    mt = blocks.M.transpose()
    coeffs = [Matrix.identity(m), blocks.S]
    lm = blocks.M
    for _ in range(order - 1):
        coeffs.append(mt * lm)
        lm = blocks.L * lm
    # row i holds entries k >= i only; None stands below the diagonal
    mat = [[None] * i + [[c[i][k] for c in coeffs] for k in range(i, m)] for i in range(m)]
    det = [1] + [0] * order
    for col in range(m):
        prow = mat[col]
        pivot = prow[col]
        assert pivot[0] == 1
        det = truncated_product(det, pivot, order)
        inv = PowerSeries(order, pivot).inverse().coeffs
        for i in range(col + 1, m):
            row = mat[i]
            factor = truncated_product(prow[i], inv, order)
            for k in range(i, m):
                row[k] = [x - y for x, y in zip(row[k], truncated_product(factor, prow[k], order))]
    return det


def _schur_cases():
    rng = random.Random(36)
    graphs = [entry.graph for entry in corpus()]
    graphs += [Graph.from_edges(n, []) for n in (0, 1, 3)]  # edgeless, m = 0
    graphs += [random_connected_graph(rng, n_max=12, extra_max=10) for _ in range(8)]
    graphs += [_random_connected(seed, 20, 38) for seed in (36, 37)]
    return graphs


def test_schur_digits_match_the_series_ring_elimination():
    for g in _schur_cases():
        for order in (1, 2, 3, 8, 12):
            want = series_ring_schur_det(g, order)
            assert zeta._schur_det(g, order) == want, (g.edges, order)
            # the majorant of _schur_bits bounds every coefficient
            b = zeta._schur_bits(sector_blocks(edge_space(g)), order)
            assert max(map(abs, want)) < 1 << (b - 1)
            assert schur_series_check(g, order)


def test_schur_bits_take_the_majorant_power_by_products():
    # Miller's recurrence for r^m, against m truncated products
    def norm(mat):
        return max((sum(map(abs, row)) for row in mat.rows), default=0)

    for g in _schur_cases():
        blocks = sector_blocks(edge_space(g))
        for order in (1, 2, 3, 8, 12):
            mu = norm(blocks.M.transpose()) * norm(blocks.M)
            r = [1, norm(blocks.S)] + [mu * norm(blocks.L) ** j for j in range(order - 1)]
            power = [1] + [0] * order
            for _ in range(g.m):
                power = truncated_product(power, r, order)
            assert zeta._schur_bits(blocks, order) == max(power).bit_length() + 1


def _outcome(g: Graph, order: int):
    try:
        return schur_series_check(g, order)
    except (ArithmeticError, ValueError):
        return "raised"


def test_schur_check_never_passes_on_wrapped_digits(monkeypatch):
    # b too small for the true coefficients wraps the digits, and the check
    # must then fail or raise, while a b they fit is read exactly.  Tried:
    # two bits fewer than _schur_bits, which only the smallest graphs need,
    # and the fewest bits the coefficients need, and one fewer
    bits = zeta._schur_bits
    short_wrapped = 0
    for g in _schur_cases():
        for order in (1, 2, 3, 8):
            want = series_ring_schur_det(g, order)

            def fits(b):
                # balanced digits take at least 2 bits
                return b >= 2 and all(-(1 << (b - 1)) <= e < 1 << (b - 1) for e in want)

            need = next(b for b in range(2, 200) if fits(b))
            short = bits(sector_blocks(edge_space(g)), order) - 2
            short_wrapped += not fits(short)
            for b in (short, need, need - 1):
                monkeypatch.setattr(zeta, "_schur_bits", lambda blocks, order, _b=b: _b)
                outcome = _outcome(g, order)
                monkeypatch.setattr(zeta, "_schur_bits", bits)
                if fits(b):
                    assert outcome is True, (g.edges, order, b)
                else:
                    assert outcome in (False, "raised"), (g.edges, order, b)
    assert short_wrapped  # K2 and P3


def test_schur_series_check_names_the_lowest_non_symmetric_coefficient(monkeypatch):
    # a non-symmetric L leaves C_0 = I, C_1 = S and C_2 = M^T M symmetric
    # and breaks C_3 = M^T L M first
    g = corpus_graph("K4")
    blocks = sector_blocks(edge_space(g))
    rows = [list(row) for row in blocks.L.rows]
    rows[0][1] += 1
    bad = dataclasses.replace(blocks, L=Matrix(rows))
    monkeypatch.setattr(zeta, "sector_blocks", lambda es: bad)
    for order in (3, 8):
        with pytest.raises(ArithmeticError, match="C_3 is not symmetric"):
            schur_series_check(g, order)
    # through u^2 E reads no L
    assert series_ring_schur_det(g, 2) == zeta._schur_det(g, 2)


def test_schur_rejects_bad_order():
    with pytest.raises(ValueError):
        schur_series_check(corpus_graph("K3"), 0)


def test_schur_series_guards_its_unit_pivots(monkeypatch):
    import edgesector.zeta as zeta

    class TwiceIdentity(Matrix):
        @classmethod
        def identity(cls, n):
            return Matrix.identity(n).scaled(2)

    monkeypatch.setattr(zeta, "Matrix", TwiceIdentity)
    with pytest.raises(ArithmeticError, match="series pivot lost its unit constant term"):
        schur_series_check(corpus_graph("K3"), 4)


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
    # the null graph counts as connected, but its ker D has dimension 0, not 1
    with pytest.raises(ValueError):
        trivial_roots(Graph.from_edges(0, []))
    assert trivial_roots(Graph.from_edges(1, [])).ok()


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
    closed = [a - b for a, b in zip(series_log(det_series).coeffs, series_log(line_series).coeffs)]
    assert list(series_log(factorize(g, order).correction_series).coeffs) == closed
    assert log_trace_check(g, order)


def test_log_trace_check_fails_on_a_bumped_trace(monkeypatch):
    # tr T^k + 1 moves P_k by 2^k, and Newton's identity at k breaks
    traces = Matrix.power_traces
    for name in ("K3", "K4", "petersen", "exA_G1"):
        g = corpus_graph(name)
        assert log_trace_check(g, 6)
        for k in range(1, 7):

            def bumped(mat, kmax, _k=k, _two_m=2 * g.m):
                out = traces(mat, kmax)
                if mat.nrows == _two_m:
                    out[_k - 1] += 1
                return out

            monkeypatch.setattr(Matrix, "power_traces", bumped)
            assert not log_trace_check(g, 6), (name, k)
            monkeypatch.setattr(Matrix, "power_traces", traces)


def test_log_trace_check_fails_on_a_series_off_the_identity(monkeypatch):
    true_series = zeta.correction_series
    g = corpus_graph("K4")
    for k, delta in ((0, 1), (3, 1), (8, Fraction(1, 2**8)), (5, Fraction(1, 2**6))):

        def off(g, order, _k=k, _delta=delta):
            coeffs = list(true_series(g, order).coeffs)
            coeffs[_k] += _delta
            return PowerSeries(order, coeffs)

        monkeypatch.setattr(zeta, "correction_series", off)
        # d_0 != 1, a d_k off by one, and a 2^k c_k that is not an integer
        assert not log_trace_check(g, 8), k


def test_identity_holds_fails_on_a_bumped_polynomial():
    for entry in corpus():
        fact = factorize(entry.graph)
        assert fact.identity_holds()
        num, den = fact.correction.num, fact.correction.den
        for k in range(len(num.coeffs)):
            coeffs = list(num.coeffs)
            coeffs[k] += 1
            bumped = dataclasses.replace(fact, correction=RatFunc(Poly(coeffs), den))
            assert not bumped.identity_holds(), (entry.name, k)
        line = list(fact.line_factor.coeffs)
        line[-1] += Fraction(1, 2 ** len(line))
        assert not dataclasses.replace(fact, line_factor=Poly(line)).identity_holds()


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


@pytest.mark.parametrize("order", [4, 5, 6, 12])
def test_resolution_compare_at_every_order(order):
    # the dets of paperG and paperH first differ at w^6: past a series order
    # of 4 or 5 the truncated corrections agree, which is consistent too
    pd = resolution_compare(corpus_graph("paperG"), corpus_graph("paperH"), order)
    assert pd.line_cospectral and pd.det_first_diff_order == 6
    assert pd.series_order == order
    assert pd.correction_first_diff_order == (6 if order >= 6 else None)
    assert pd.consistent()


def test_pair_divergence_inconsistent_when_observable():
    # records whose line factors agree and whose dets first differ at w^3,
    # yet whose corrections agree through w^8: det = line * C forbids that
    line = Poly((1, 0, -2))
    series = PowerSeries(8, [1, 0, 2])
    a = SimpleNamespace(hashimoto_det=Poly((1, 0, 0, -4)), line_factor=line, correction_series=series)
    b = SimpleNamespace(hashimoto_det=Poly((1, 0, 0, -6)), line_factor=line, correction_series=series)
    pd = PairDivergence.between(a, b)
    assert (pd.det_first_diff_order, pd.correction_first_diff_order, pd.series_order) == (3, None, 8)
    assert not pd.consistent()

    def divergence(det_order, correction_order, series_order=12):
        return PairDivergence(True, det_order, correction_order, (1, 2), series_order)

    # the corrections differ first at another order than the dets
    assert not divergence(6, 7).consistent()
    # the dets differ within the compared order, but the corrections agree
    assert not divergence(6, None).consistent()
    assert not divergence(5, None, series_order=5).consistent()
    # the dets agree, but the corrections differ
    assert not divergence(None, 4).consistent()
    assert divergence(6, None, series_order=5).consistent()
    # pairs that are not line-cospectral are not constrained
    assert PairDivergence(False, 6, 7, (1, 2), 12).consistent()


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

    monkeypatch.setattr(zeta.Poly, "resolvent", lambda p, dim, scale=1: bad)
    with pytest.raises(ArithmeticError):
        zeta.hashimoto_det.__wrapped__(corpus_graph("K3"))  # bypass the cache


def test_bass_det_rejects_non_integer(monkeypatch):
    import edgesector.zeta as zeta

    monkeypatch.setattr(zeta, "_vertex_space_det", lambda g: Poly((1, Fraction(1, 2))))
    with pytest.raises(ArithmeticError):
        bass_det(corpus_graph("K3"))
