import importlib
import random

import pytest

from edgesector.graphs import corpus, corpus_graph
from edgesector.edge_space import (
    OrientedEdgeSpace,
    SectorCheck,
    build_hashimoto,
    build_hl2,
    build_incidence,
    build_pm_basis,
    build_reversal,
    edge_space,
    random_gauge,
    regauge,
    sector_blocks,
    verify_sector_identity,
)
from edgesector.matrices import Matrix
from edgesector.polynomials import Poly
from edgesector.verify import CheckResult, verify_all
from conftest import diagonal_matrix, random_connected_graph

# the package exports the function edge_space under the module's name
edge_space_module = importlib.import_module("edgesector.edge_space")


def test_hashimoto_k2_zero():
    t = build_hashimoto(edge_space(corpus_graph("K2")))
    assert t == Matrix([[0, 0], [0, 0]])


def test_hashimoto_p3():
    t = build_hashimoto(edge_space(corpus_graph("P3")))
    ones = sum(sum(row) for row in t.rows)
    assert ones == 2
    assert t * t == Matrix([[0] * 4] * 4)


def test_hashimoto_c3_det():
    t = build_hashimoto(edge_space(corpus_graph("K3")))
    assert t.charpoly().resolvent(t.nrows) == Poly((1, 0, 0, -2, 0, 0, 1))


def test_row_sums_are_head_degree_minus_one():
    for entry in corpus():
        g = entry.graph
        es = edge_space(g)
        t = build_hashimoto(es)
        deg = g.degrees()
        for e, (_, head) in enumerate(es.directed_edges()):
            assert sum(t[e]) == deg[head] - 1


def test_reversal_and_hl2_identities_corpus():
    for entry in corpus():
        es = edge_space(entry.graph)
        t = build_hashimoto(es)
        p = build_reversal(es)
        a = build_hl2(es)
        two_m = 2 * entry.graph.m
        assert p * p == Matrix.identity(two_m)
        assert a == p * t + t * p
        assert p * a == t + t.transpose()
        assert t == p * t.transpose() * p


def test_traces():
    for name in ["K3", "K4", "petersen", "paperG", "C6"]:
        g = corpus_graph(name)
        t = build_hashimoto(edge_space(g))
        tr = t.power_traces(3)
        assert tr[0] == 0 and tr[1] == 0
        # a closed walk of length 3 is a triangle, which never backtracks
        a = g.adjacency()
        assert tr[2] == (a * a * a).trace()


def test_incidence_properties():
    for entry in corpus():
        g = entry.graph
        d, absd = build_incidence(edge_space(g))
        # one +1 and one -1 per column
        for j in range(g.m):
            col = [d[i][j] for i in range(g.n)]
            assert sorted(c for c in col if c) == [-1, 1]
            assert sum(col) == 0
        assert d * d.transpose() == g.vertex_operator(g.degrees(), -1)
        assert absd * absd.transpose() == g.vertex_operator(g.degrees())


def test_sector_blocks_k3():
    blocks = sector_blocks(edge_space(corpus_graph("K3")))
    assert blocks.L == corpus_graph("K3").adjacency()  # line graph of K3 is K3
    assert blocks.M.rows == [[0, -1, -1], [-1, 0, 1], [1, 1, 0]]
    # one single-edge gauge flip away sits the equivalent form
    flipped = sector_blocks(regauge(edge_space(corpus_graph("K3")), (-1, 1, 1)))
    assert flipped.M.rows == [[0, -1, -1], [1, 0, 1], [-1, 1, 0]]


def test_sector_blocks_k2_zero():
    blocks = sector_blocks(edge_space(corpus_graph("K2")))
    assert blocks.L.rows == [[0]]
    assert blocks.S.rows == [[0]]
    assert blocks.M.rows == [[0]]


def test_blocks_structure_corpus():
    for entry in corpus():
        blocks = sector_blocks(edge_space(entry.graph))
        m = entry.graph.m
        for i in range(m):
            assert blocks.L[i][i] == 0 and blocks.S[i][i] == 0
            for j in range(m):
                assert blocks.L[i][j] == abs(blocks.S[i][j])  # |S| = L entrywise
                assert blocks.L[i][j] == blocks.L[j][i]
                assert blocks.S[i][j] == blocks.S[j][i]


def test_unchecked_operators_pass_the_checked_constructor():
    # every build_* and the block matrix wrap their rows with Matrix._of
    for entry in corpus():
        es = edge_space(entry.graph)
        blocks = sector_blocks(es)
        ops = [build_hashimoto(es), build_reversal(es), build_hl2(es), build_pm_basis(es)]
        ops += [*build_incidence(es), blocks.L, blocks.S, blocks.M, blocks.block_matrix()]
        for x in ops:
            assert Matrix(x.rows, x.ncols) == x


def test_pm_basis_norm():
    for name in ["K3", "C5", "star4"]:
        es = edge_space(corpus_graph(name))
        u = build_pm_basis(es)
        assert u.transpose() * u == Matrix.identity(2 * es.m).scaled(2)


def test_sector_identity_direct_vs_matrix_product():
    # the check agrees with literally computing U^T T U
    for name in ["K3", "C4", "exA_G1"]:
        es = edge_space(corpus_graph(name))
        u = build_pm_basis(es)
        t = build_hashimoto(es)
        assert u.transpose() * t * u == sector_blocks(es).block_matrix()
        assert verify_sector_identity(es).ok


def test_sector_identity_corpus():
    for entry in corpus():
        assert verify_sector_identity(edge_space(entry.graph)).ok


def test_sector_identity_random():
    rng = random.Random(100)
    for _ in range(50):
        g = random_connected_graph(rng)
        assert verify_sector_identity(edge_space(g)).ok


def test_cross_block_antisymmetry():
    # (U^T T U)_{+-} = -((U^T T U)_{-+})^T
    for name in ["K4", "exB_G2", "C7"]:
        es = edge_space(corpus_graph(name))
        u = build_pm_basis(es)
        t = build_hashimoto(es)
        full = u.transpose() * t * u
        m = es.m
        upper_right = Matrix([[full[i][m + j] for j in range(m)] for i in range(m)])
        lower_left = Matrix([[full[m + i][j] for j in range(m)] for i in range(m)])
        assert upper_right == lower_left.transpose().scaled(-1)


def test_sector_check_reports_witness(monkeypatch):
    # a non-matching orientation is rejected outright
    g = corpus_graph("K3")
    with pytest.raises(ValueError):
        OrientedEdgeSpace(g, ((0, 1), (0, 2), (2, 3)))

    # flip T[1][4], from dart 1 = (1, 0) to dart 4 = (1, 2): 0 becomes 1.
    # Entry (i, j) of U^T T U moves by U[1][i] U[4][j], nonzero at i in
    # {0, m} and j in {2, m + 2}, so the first row-major witness is (0, 2),
    # where L holds 1 (edges 0 and 2 share vertex 1) and U^T T U now 2
    es = edge_space(g)
    build = edge_space_module.build_hashimoto

    def flipped(space):
        rows = [list(row) for row in build(space).rows]
        rows[1][4] ^= 1
        return Matrix(rows)

    monkeypatch.setattr(edge_space_module, "build_hashimoto", flipped)
    check = verify_sector_identity(es)
    assert check == SectorCheck(False, (0, 2, 2, 1))
    assert not check
    # verify_all reports it as a failed check, as data, and passes the rest
    results = verify_all(g)
    assert [r for r in results if not r.ok] == [CheckResult("sector_identity", False, "(0, 2, 2, 1)")]


def test_regauge_identity_gauge():
    es = edge_space(corpus_graph("C5"))
    assert regauge(es, (1,) * 5) == es


def test_regauge_covariance():
    rng = random.Random(101)
    for name in ["K3", "C6", "exA_H1", "paperG"]:
        g = corpus_graph(name)
        es = edge_space(g)
        base = sector_blocks(es)
        d, _ = build_incidence(es)
        for _ in range(5):
            signs = random_gauge(rng, g.m)
            sig = diagonal_matrix(signs)
            other = regauge(es, signs)
            d2, _ = build_incidence(other)
            blocks2 = sector_blocks(other)
            assert d2 == d * sig
            assert blocks2.M == base.M * sig
            assert blocks2.S == sig * base.S * sig
            assert blocks2.L == base.L
            assert verify_sector_identity(other).ok


def test_regauge_charpoly_invariants():
    rng = random.Random(102)
    g = corpus_graph("exB_G2")
    es = edge_space(g)
    base = sector_blocks(es)
    base_s = base.S.charpoly()
    base_mmt = base.M * base.M.transpose()
    base_mtm_poly = (base.M.transpose() * base.M).charpoly()
    for _ in range(5):
        other = sector_blocks(regauge(es, random_gauge(rng, g.m)))
        assert other.S.charpoly() == base_s
        assert other.M * other.M.transpose() == base_mmt  # literally unchanged
        assert (other.M.transpose() * other.M).charpoly() == base_mtm_poly


def test_single_edge_flip_on_k3():
    es = edge_space(corpus_graph("K3"))
    blocks = sector_blocks(es)
    signs = (-1, 1, 1)
    flipped = sector_blocks(regauge(es, signs))
    assert flipped.M == blocks.M * diagonal_matrix(signs)


def test_bad_gauge_rejected():
    es = edge_space(corpus_graph("K3"))
    with pytest.raises(ValueError):
        regauge(es, (1, 1))
    with pytest.raises(ValueError):
        regauge(es, (1, 0, 1))
