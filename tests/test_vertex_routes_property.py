"""Property test: vertex-space fingerprint equals the edge-space routes.

Runs only where hypothesis is installed; it is not a dependency.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from edgesector.graphs import Graph  # noqa: E402
from test_vertex_routes import assert_routes_agree  # noqa: E402


@st.composite
def graphs(draw, n_max: int = 7):
    n = draw(st.integers(min_value=0, max_value=n_max))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph.from_edges(n, chosen)


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(graphs())
def test_vertex_routes_agree_property(g):
    assert_routes_agree(g)
