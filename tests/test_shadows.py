import json
import random

import pytest

from edgesector.graphs import Graph, corpus, corpus_graph
from edgesector.edge_space import edge_space, random_gauge, regauge, sector_blocks
from edgesector.polynomials import Poly, first_difference
from edgesector.census import _all_graphs_up_to_iso
from edgesector.shadows import (
    GROUPING_KEYS,
    Fingerprint,
    compare,
    fingerprint,
    invariant,
    regular_collapse_check,
    shadow_set,
)
from edgesector.zeta import resolution_compare


def first_shadow_difference(fg: Fingerprint, fh: Fingerprint):
    """(name, order) of the first differing shadow coefficient, or None."""
    for (name, pg), (_, ph) in zip(fg.shadows.named(), fh.shadows.named()):
        k = first_difference(pg, ph)
        if k is not None:
            return name, k
    return None


def test_k3_shadow_roots():
    ss = shadow_set(edge_space(corpus_graph("K3")))
    assert ss.mtm == Poly((0, 9, -6, 1))  # x^3 - 6x^2 + 9x, nonzero roots {3, 3}
    assert ss.mmt == ss.mtm


def test_k2_shadows_are_x():
    ss = shadow_set(edge_space(corpus_graph("K2")))
    for _, p in ss.named():
        assert p == Poly((0, 1))


def test_kmax_zero_and_validation():
    ss = shadow_set(edge_space(corpus_graph("K3")), kmax=0)
    assert ss.mtlkm == ()
    with pytest.raises(ValueError):
        shadow_set(edge_space(corpus_graph("K3")), kmax=-1)


def test_gauge_invariance_property():
    rng = random.Random(50)
    for name in ["K3", "C6", "exA_G1", "exB_H2"]:
        g = corpus_graph(name)
        es = edge_space(g)
        base = shadow_set(es)
        m = sector_blocks(es).M
        base_mmt = m * m.transpose()
        for _ in range(20):
            other = regauge(es, random_gauge(rng, g.m))
            m2 = sector_blocks(other).M
            assert m2 * m2.transpose() == base_mmt
            assert shadow_set(other) == base


def test_regular_collapse_examples():
    assert regular_collapse_check(corpus_graph("K3"))
    assert regular_collapse_check(corpus_graph("petersen"))
    assert regular_collapse_check(corpus_graph("C6"))
    for name in ["K4", "C4", "C5", "C7", "C8"]:
        assert regular_collapse_check(corpus_graph(name))


def test_regular_collapse_k3_stripped_polys():
    # both stripped charpolys equal (x - 3)^2
    g = corpus_graph("K3")
    from edgesector.shadows import _strip_zero_roots
    from edgesector.matrices import Matrix

    ss = shadow_set(edge_space(g), kmax=0)
    a = g.adjacency()
    target = Matrix.identity(3).scaled(4) - a * a
    stripped = _strip_zero_roots(ss.mtm)
    assert stripped == Poly((9, -6, 1))  # (x-3)^2
    assert stripped == _strip_zero_roots(target.charpoly())


def test_regular_collapse_rejects_irregular():
    with pytest.raises(ValueError):
        regular_collapse_check(corpus_graph("paperG"))
    with pytest.raises(ValueError):
        regular_collapse_check(Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]))


def test_fingerprint_paper_pair():
    fg = fingerprint(corpus_graph("paperG"))
    fh = fingerprint(corpus_graph("paperH"))
    assert fg != fh
    assert fg.charpoly_adjacency == fh.charpoly_adjacency
    assert fg.charpoly_line == fh.charpoly_line
    assert fg.charpoly_signed != fh.charpoly_signed


def test_fingerprint_example_b():
    fg = fingerprint(corpus_graph("exB_G2"))
    fh = fingerprint(corpus_graph("exB_H2"))
    assert fg.charpoly_adjacency == fh.charpoly_adjacency
    assert fg.charpoly_line == fh.charpoly_line
    assert fg.charpoly_signed == fh.charpoly_signed
    assert fg.hashimoto_det == fh.hashimoto_det
    assert fg.correction_series == fh.correction_series
    for (_, pg), (_, ph) in zip(fg.shadows.named(), fh.shadows.named()):
        assert pg != ph
    assert first_shadow_difference(fg, fh) is not None


def test_fingerprint_relabel_invariance():
    rng = random.Random(51)
    for name in ["exA_G1", "C6", "paperH"]:
        g = corpus_graph(name)
        f1 = fingerprint(g)
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            f2 = fingerprint(g.relabel(perm))
            assert f2.degrees == f1.degrees
            assert f2.charpoly_adjacency == f1.charpoly_adjacency
            assert f2.charpoly_line == f1.charpoly_line
            assert f2.charpoly_signed == f1.charpoly_signed
            assert f2.shadows == f1.shadows
            assert f2.hashimoto_det == f1.hashimoto_det
            assert f2.correction_series == f1.correction_series


def test_fingerprint_jsonl_roundtrip():
    for name in ["K2", "exA_G1", "paperG"]:
        fp = fingerprint(corpus_graph(name))
        rec = json.loads(fp.to_jsonl())
        assert rec["schema"] == 1
        assert Fingerprint.from_json_dict(rec) == fp


def test_fingerprint_rejects_unknown_schema():
    fp = fingerprint(corpus_graph("K2"))
    rec = json.loads(fp.to_jsonl())
    rec["schema"] = 99
    with pytest.raises(ValueError):
        Fingerprint.from_json_dict(rec)


def test_compare_example_a():
    rep = compare(corpus_graph("exA_G1"), corpus_graph("exA_H1"))
    assert rep.agree["A"] and rep.agree["L"] and rep.agree["S"]
    assert not rep.agree["shadow_MMt"]
    assert not rep.agree["shadow_MtM"]
    assert not rep.agree["shadow_MtL1M"]
    assert not rep.agree["shadow_MtL2M"]
    assert rep.det_first_diff_order == 8
    assert rep.det_diff_values == (16, 20)
    assert rep.line_cospectral


def test_compare_paper_pair():
    rep = compare(corpus_graph("paperG"), corpus_graph("paperH"))
    assert not rep.agree["S"]
    assert rep.det_first_diff_order == 6
    assert rep.correction_first_diff_order == 6


def test_line_cospectral_compares_line_factors_not_line_charpolys():
    # G and G + K2 (a disjoint edge): L gains the eigenvalue 0, so charpoly_L
    # gains a factor x, but det(I - (w/2) L) and det(I - wT) are unchanged
    g = corpus_graph("paperG")
    h = Graph.from_edges(g.n + 2, list(g.edges) + [(g.n, g.n + 1)])
    fg, fh = fingerprint(g), fingerprint(h)
    assert fh.m == fg.m + 1
    assert fh.charpoly_line == Poly((0,) + fg.charpoly_line.coeffs)
    assert fg.line_factor == fh.line_factor
    rep = compare(g, h)
    assert rep.line_cospectral
    assert rep.agree["hashimoto"] and rep.agree["correction"]
    assert not rep.agree["L"]
    assert rep.det_first_diff_order is None
    assert rep.correction_first_diff_order is None
    assert resolution_compare(g, h).line_cospectral


def test_compare_self():
    g = corpus_graph("K4")
    rep = compare(g, g)
    assert rep.all_agree()
    assert rep.det_first_diff_order is None


def test_mmt_equals_mtm_charpolys_corpus():
    # shadow_set stores one charpoly under both keys; check it against M^T M
    for entry in corpus():
        ss = shadow_set(edge_space(entry.graph))
        m = sector_blocks(edge_space(entry.graph)).M
        assert ss.mmt == ss.mtm == (m.transpose() * m).charpoly()
        for _, p in ss.named():
            assert p.is_integer()


def test_shadow_noncollapse_on_irregular_pairs():
    # shadows must separate both published nine-vertex pairs even where the
    # scalar determinant does not
    for a, b in [("exA_G1", "exA_H1"), ("exB_G2", "exB_H2")]:
        fa = fingerprint(corpus_graph(a))
        fb = fingerprint(corpus_graph(b))
        assert first_shadow_difference(fa, fb) is not None


def test_fingerprint_from_known_invariants_equals_fingerprint():
    graphs = [entry.graph for entry in corpus()]
    graphs += [g for n in range(6) for g in _all_graphs_up_to_iso(n)]
    for g in graphs:
        want = fingerprint(g, 12, 2)
        values = {key: invariant(g, key, 2) for key in GROUPING_KEYS}
        for mask in range(1, 1 << len(GROUPING_KEYS)):
            known = tuple(
                (key, values[key]) for bit, key in enumerate(GROUPING_KEYS) if mask >> bit & 1
            )
            assert fingerprint(g, 12, 2, known) == want, (g, known)
