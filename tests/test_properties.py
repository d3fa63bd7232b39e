"""Property tests: the graph6 codec round trip and gauge invariance.

Runs only where hypothesis is installed; it is not a dependency.  The runs
are derandomized, so every run checks the same examples.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from edgesector.edge_space import edge_space, regauge, sector_blocks  # noqa: E402
from edgesector.graphs import Graph, encode_graph6, parse_graph6  # noqa: E402
from edgesector.shadows import shadow_set  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def graphs(draw, n_max: int, m_max: int):
    n = draw(st.integers(min_value=0, max_value=n_max))
    if n < 2:
        return Graph.from_edges(n, [])
    vertex = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=m_max))
    return Graph.from_edges(n, [(a, b) for a, b in pairs if a != b])


def _long_form(n: int) -> Graph:
    """A graph in the four-byte size form (n >= 63): a path plus a chord."""
    return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)] + [(0, n - 1)])


@SETTINGS
@hypothesis.example(_long_form(63))
@hypothesis.example(_long_form(70))
@hypothesis.given(graphs(n_max=70, m_max=80))
def test_graph6_round_trip(g):
    text = encode_graph6(g)
    assert text.startswith("~") == (g.n >= 63)
    assert parse_graph6(text) == g
    assert encode_graph6(parse_graph6(text)) == text


@st.composite
def gauged_graphs(draw):
    g = draw(graphs(n_max=7, m_max=12))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=g.m, max_size=g.m))
    return g, signs


@SETTINGS
@hypothesis.given(gauged_graphs())
def test_gauge_invariance(gauged):
    g, signs = gauged
    es = edge_space(g)
    other = regauge(es, signs)
    blocks, flipped = sector_blocks(es), sector_blocks(other)
    assert shadow_set(other) == shadow_set(es)
    assert flipped.M * flipped.M.transpose() == blocks.M * blocks.M.transpose()
    assert flipped.L == blocks.L
