import random
from fractions import Fraction

import pytest

from edgesector.graphs import (
    Graph,
    Graph6Error,
    corpus,
    corpus_graph,
    corpus_names,
    encode_graph6,
    is_bipartite,
    is_connected,
    is_regular,
    parse_graph6,
    read_graph6_lines,
)
from edgesector.census import _all_graphs_up_to_iso
from edgesector.matrices import Matrix
from conftest import diagonal_matrix, random_connected_graph, vertex_triples


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, ((0, 0),))  # loop
    with pytest.raises(ValueError):
        Graph(2, ((0, 3),))  # out of range
    with pytest.raises(ValueError):
        Graph(3, ((1, 0),))  # not a < b
    for edges in (((0, 2), (0, 1)), ((0, 1), (0, 1))):  # unsorted, repeated
        with pytest.raises(ValueError, match="not strictly sorted"):
            Graph(3, edges)
    with pytest.raises(TypeError, match="Graph.from_edges"):
        Graph(3, [(0, 1), (1, 2)])  # a list: unhashable, so uncacheable
    g = Graph.from_edges(3, [(2, 0), (0, 1), (0, 2)])  # dedup + sort
    assert g.edges == ((0, 1), (0, 2))


def test_encode_k2_and_trivial():
    assert encode_graph6(Graph.from_edges(2, [(0, 1)])) == "A_"
    assert encode_graph6(Graph.from_edges(1, [])) == "@"


def test_parse_published_labels():
    g = parse_graph6("H?ABePt")
    assert (g.n, g.m) == (9, 12)
    assert tuple(sorted(g.degrees())) == (1, 2, 2, 2, 2, 3, 3, 4, 5)
    h = parse_graph6("HCpfdrk")
    assert (h.n, h.m) == (9, 18)
    assert tuple(sorted(h.degrees())) == (3, 3, 4, 4, 4, 4, 4, 5, 5)


def test_roundtrip_corpus():
    for entry in corpus():
        s = encode_graph6(entry.graph)
        assert parse_graph6(s) == entry.graph


def test_roundtrip_random():
    rng = random.Random(42)
    for _ in range(60):
        g = random_connected_graph(rng)
        assert parse_graph6(encode_graph6(g)) == g


def _graphs_to_seven_and_corpus() -> list[Graph]:
    """Every graph on at most 7 vertices, from the generator, and the corpus."""
    graphs = [g for n in range(8) for g in _all_graphs_up_to_iso(n)]
    return graphs + [entry.graph for entry in corpus()]


def test_unchecked_graphs_pass_the_checked_constructor():
    # parse_graph6 and the generator build their Graphs without __post_init__
    for g in _graphs_to_seven_and_corpus():
        checked = Graph(g.n, g.edges)
        assert g == checked
        assert parse_graph6(encode_graph6(g)) == checked


def test_vertex_operator_matches_matrix_arithmetic():
    for g in _graphs_to_seven_and_corpus():
        n, deg, edges = g.n, g.degrees(), set(g.edges)
        a = Matrix([[int((min(i, j), max(i, j)) in edges) for j in range(n)] for i in range(n)], n)
        d, ident = diagonal_matrix(deg), Matrix.identity(n)
        assert g.adjacency() == a
        assert g.vertex_operator(deg) == d + a  # Q
        assert g.vertex_operator(deg, -1) == d - a  # Delta
        assert g.vertex_operator([x - 2 for x in deg]) == d + a - ident.scaled(2)
        for w in range(2 * n + 1):  # the Bass points of zeta._vertex_space_det
            bass = ident - a.scaled(w) + (d - ident).scaled(w * w)
            assert g.vertex_operator([1 + w * w * (x - 1) for x in deg], -w) == bass
    k3 = corpus_graph("K3")
    with pytest.raises(ValueError, match="2 diagonal entries for 3 vertices"):
        k3.vertex_operator([0, 0])
    for diagonal, off in (([Fraction(1, 2)] * 3, 1), ([0, True, 0], 1), ([0] * 3, Fraction(1))):
        with pytest.raises(TypeError, match="matrix entries must be int"):
            k3.vertex_operator(diagonal, off)


def reference_edges(s: str) -> list[tuple[int, int]]:
    """The edges of a graph6 line, read one bit at a time from the body as a
    single integer."""
    if s[0] == "~":
        n = sum((ord(ch) - 63) << shift for ch, shift in zip(s[1:4], (12, 6, 0)))
        body = s[4:]
    else:
        n, body = ord(s[0]) - 63, s[1:]
    value = 0
    for ch in body:
        value = (value << 6) | (ord(ch) - 63)
    top = 6 * len(body) - 1
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if (value >> (top - k)) & 1:
                edges.append((j, i))
            k += 1
    return edges


def test_parse_matches_a_reference_decoding():
    graphs = [g for n in range(8) for g in _all_graphs_up_to_iso(n)]
    assert len(graphs) == 1 + 1 + 2 + 4 + 11 + 34 + 156 + 1044  # OEIS A000088
    rng = random.Random(7)
    pairs = [(a, b) for b in range(70) for a in range(b)]
    graphs.append(Graph.from_edges(70, rng.sample(pairs, 300)))  # the long size form
    for g in graphs:
        s = encode_graph6(g)
        assert parse_graph6(s) == Graph.from_edges(g.n, reference_edges(s)) == g


def test_long_size_form():
    g = Graph.from_edges(80, [(0, 79), (3, 7)])
    s = encode_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s) == g


def test_header_tolerated():
    g = parse_graph6(">>graph6<<A_")
    assert g == Graph.from_edges(2, [(0, 1)])


def test_parse_errors_carry_offsets():
    with pytest.raises(Graph6Error):
        parse_graph6(":Fa@x^")  # sparse6
    with pytest.raises(Graph6Error):
        parse_graph6("&C?")  # digraph6
    with pytest.raises(Graph6Error) as err:
        parse_graph6("A")  # truncated
    assert err.value.offset == 1
    with pytest.raises(Graph6Error):
        parse_graph6("H?ABePtZZ")  # trailing data
    with pytest.raises(Graph6Error):
        parse_graph6("A" + chr(30))  # out of range char
    with pytest.raises(Graph6Error):
        parse_graph6("~~A??")  # 8-byte size form unsupported
    assert parse_graph6("C~") == corpus_graph("K4")  # all-ones bits, no padding


def test_nonzero_padding_rejected():
    # K2: adjacency bit 1 + five pad bits; force a pad bit on
    bad = "A" + chr(63 + 0b100001)
    with pytest.raises(Graph6Error):
        parse_graph6(bad)


def test_read_graph6_lines_skips_header_and_blank():
    lines = [">>graph6<<", "", "A_", "  Bw  ", ""]
    assert list(read_graph6_lines(lines)) == [(3, "A_"), (4, "Bw")]


def test_predicates_examples():
    c5, c6 = corpus_graph("C5"), corpus_graph("C6")
    assert is_connected(c5) and not is_bipartite(c5) and is_regular(c5) == 2
    assert is_connected(c6) and is_bipartite(c6) and is_regular(c6) == 2
    pg = corpus_graph("paperG")
    assert is_connected(pg) and is_regular(pg) is None
    assert pg.degree_multiset() == (6, 5, 4, 4, 4, 4, 4, 3, 3, 3, 3, 1)
    two = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not is_connected(two)


def test_corpus_contents():
    names = corpus_names()
    for required in ["paperG", "paperH", "exA_G1", "exA_H1", "exB_G2", "exB_H2",
                     "K2", "P3", "K3", "C4", "C8", "K4", "petersen", "star3", "star6"]:
        assert required in names
    assert corpus_graph("paperG").m == 22
    assert corpus_graph("exB_H2").m == 18
    assert corpus_graph("exA_G1") == parse_graph6("H?ABePt")
    assert corpus_graph("exA_H1") == parse_graph6("H?B@`jh")
    assert corpus_graph("exB_G2") == parse_graph6("HCpfdrk")
    assert corpus_graph("exB_H2") == parse_graph6("HCrRRfw")


def test_degree_multisets_agree_within_pairs():
    for a, b in [("paperG", "paperH"), ("exA_G1", "exA_H1"), ("exB_G2", "exB_H2")]:
        assert corpus_graph(a).degree_multiset() == corpus_graph(b).degree_multiset()


def test_degree_sum_is_twice_edge_count():
    rng = random.Random(6)
    for entry in corpus():
        assert sum(entry.graph.degrees()) == 2 * entry.graph.m
    for _ in range(20):
        g = random_connected_graph(rng)
        assert sum(g.degrees()) == 2 * g.m


def test_encode_after_parse_reproduces_canonical_text():
    for label in ["H?ABePt", "H?B@`jh", "HCpfdrk", "HCrRRfw", "A_", "@", "C~"]:
        assert encode_graph6(parse_graph6(label)) == label


def test_relabel_preserves_structure():
    rng = random.Random(4)
    g = corpus_graph("exB_G2")
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = g.relabel(perm)
    assert h.degree_multiset() == g.degree_multiset()
    assert vertex_triples(h) == vertex_triples(g)
