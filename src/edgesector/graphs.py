"""Simple undirected graphs, the graph6 codec, and the built-in test corpus.

Vertices are dense integers 0..n-1 and the sorted edge list is the single
source of truth; adjacency structures are derived views.  The corpus stores
published edge lists literally and, where a graph6 label is known, checks the
transcription against the label at construction time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, compress

from .matrices import Matrix, _require_ints


class Graph6Error(ValueError):
    """Malformed graph6 input; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with a sorted edge tuple."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("negative vertex count")
        # a list is unhashable, so every cached entry point would fail on it
        if type(self.edges) is not tuple:
            raise TypeError("Graph edges must be a tuple of tuples; use Graph.from_edges")
        prev = ()  # sorts before every edge
        for e in self.edges:
            if type(e) is not tuple:
                raise TypeError(f"Graph edge {e!r} is not a tuple; use Graph.from_edges")
            a, b = e
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError(f"edge ({a},{b}) out of range for n={self.n}")
            if a >= b:
                raise ValueError(f"edge ({a},{b}) not in a<b form")
            if e <= prev:
                raise ValueError("edge list not strictly sorted")
            prev = e

    @classmethod
    def _of(cls, n: int, edges: tuple[tuple[int, int], ...]) -> "Graph":
        """The graph of in-range, a < b, strictly sorted edges, unchecked."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", edges)
        return g

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        norm = sorted({(min(a, b), max(a, b)) for a, b in edges})
        for a, b in norm:
            if a == b:
                raise ValueError(f"loop at vertex {a}")
        return cls(n, tuple(norm))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return deg

    def degree_multiset(self) -> tuple[int, ...]:
        """Degrees sorted descending."""
        return tuple(sorted(self.degrees(), reverse=True))

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def vertex_operator(self, diagonal, off: int = 1) -> Matrix:
        """diag(diagonal) + off * A: diagonal[v] at (v, v) and off at (a, b)
        and (b, a) for each edge.  A, Q = Deg + A, Delta = Deg - A, Q - 2I and
        Bass's I - wA + w^2 (Deg - I) all have this form."""
        n = self.n
        if len(diagonal) != n:
            raise ValueError(f"{len(diagonal)} diagonal entries for {n} vertices")
        _require_ints((off, *diagonal))
        rows = [[0] * n for _ in range(n)]
        for v, c in enumerate(diagonal):
            rows[v][v] = c
        for a, b in self.edges:
            rows[a][b] = rows[b][a] = off
        return Matrix._of(rows, n)

    def adjacency(self) -> Matrix:
        return self.vertex_operator([0] * self.n)

    def relabel(self, perm) -> "Graph":
        """Graph with vertex i renamed to perm[i]."""
        return Graph.from_edges(self.n, [(perm[a], perm[b]) for a, b in self.edges])


# ---------------------------------------------------------------------------
# graph6 codec (undirected flavor only; sparse6 / digraph6 are rejected)

_G6_MIN, _G6_MAX = 63, 126
# each graph6 character's 6 bits, most significant first
_G6_BITS = {chr(_G6_MIN + v): tuple((v >> s) & 1 for s in (5, 4, 3, 2, 1, 0)) for v in range(64)}
# and back; a tuple of bools finds its character too, since True == 1
_G6_CHARS = {bits: ch for ch, bits in _G6_BITS.items()}


def _g6_bits(data: str, start: int, count: int) -> list[int]:
    try:
        bits = list(chain.from_iterable(map(_G6_BITS.__getitem__, data)))
    except KeyError:
        off = next(i for i, ch in enumerate(data) if ch not in _G6_BITS)
        raise Graph6Error(f"character {data[off]!r} outside graph6 range", start + off) from None
    if len(bits) < count:
        raise Graph6Error("graph6 string truncated", start + len(data))
    return bits


def _g6_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The vertex pair of each graph6 bit, in bit order: (0,1), (0,2), (1,2), (0,3), ..."""
    return tuple([(i, j) for j in range(1, n) for i in range(j)])


# the one-character sizes, n <= 62, keep their pairs: at most 1891 each
_g6_short_pairs = lru_cache(maxsize=None)(_g6_pairs)


def parse_graph6(line: str) -> Graph:
    """Decode one header-less graph6 line into a Graph.

    Tolerates an optional ">>graph6<<" header; rejects sparse6 and digraph6
    with a clear error.  Raises Graph6Error with a byte offset on malformed
    input (bad length prefix, out-of-range characters, nonzero padding,
    trailing data).
    """
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if s.startswith(">>sparse6<<") or s.startswith(":"):
        raise Graph6Error("sparse6 input is not supported; decode graph6 only", 0)
    if s.startswith("&"):
        raise Graph6Error("digraph6 input is not supported; decode graph6 only", 0)
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    c0 = ord(s[0])
    if not (_G6_MIN <= c0 <= _G6_MAX):
        raise Graph6Error(f"character {s[0]!r} outside graph6 range", 0)
    if c0 < 126:
        n = c0 - 63
        body_at = 1
    else:
        if len(s) >= 2 and s[1] == "~":
            raise Graph6Error("8-byte graph6 size form exceeds the supported range", 1)
        if len(s) < 4:
            raise Graph6Error("truncated graph6 length prefix", len(s))
        n = 0
        for off in (1, 2, 3):
            c = ord(s[off])
            if not (_G6_MIN <= c <= _G6_MAX):
                raise Graph6Error(f"character {s[off]!r} outside graph6 range", off)
            n = (n << 6) | (c - 63)
        if n < 63:
            raise Graph6Error("non-canonical long length prefix", 1)
        body_at = 4
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    body = s[body_at:]
    if len(body) > nchars:
        raise Graph6Error("trailing data after adjacency bits", body_at + nchars)
    bits = _g6_bits(body, body_at, nbits)
    if any(bits[nbits:]):
        raise Graph6Error("nonzero padding bits", body_at + nchars - 1)
    pairs = _g6_short_pairs(n) if n <= 62 else _g6_pairs(n)
    return Graph._of(n, tuple(sorted(compress(pairs, bits))))


def encode_graph6(g: Graph) -> str:
    """Standard graph6 encoding; inverse of parse_graph6."""
    n = g.n
    if n <= 62:
        prefix = chr(63 + n)
    elif n <= 258047:
        prefix = "~" + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    else:
        raise ValueError("graph too large for the supported graph6 size forms")
    pairs = _g6_short_pairs(n) if n <= 62 else _g6_pairs(n)
    edges = set(g.edges)
    bits = [p in edges for p in pairs]
    bits += [False] * (-len(bits) % 6)
    return prefix + "".join(_G6_CHARS[tuple(bits[k : k + 6])] for k in range(0, len(bits), 6))


def read_graph6_lines(lines):
    """Yield (line_number, graph6_text) for non-empty payload lines,
    skipping a leading format header if present."""
    for lineno, raw in enumerate(lines, start=1):
        s = raw.strip()
        if not s:
            continue
        if s == ">>graph6<<":
            continue
        yield lineno, s


# ---------------------------------------------------------------------------
# structural predicates


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    adj = g.neighbors()
    seen = [False] * g.n
    queue = deque([0])
    seen[0] = True
    count = 1
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if not seen[u]:
                seen[u] = True
                count += 1
                queue.append(u)
    return count == g.n


def is_bipartite(g: Graph) -> bool:
    color = [-1] * g.n
    adj = g.neighbors()
    for start in range(g.n):
        if color[start] >= 0:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if color[u] < 0:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def is_regular(g: Graph):
    """The common degree k when the graph is regular, else None."""
    deg = g.degrees()
    if not deg:
        return None
    k = deg[0]
    return k if all(d == k for d in deg) else None


# ---------------------------------------------------------------------------
# corpus


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    graph: Graph
    expected: dict = field(default_factory=dict)


def _cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _complete(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _star(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def _petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


# Published 12-vertex pair: adjacency- and line-graph-cospectral, Ihara-distinct.
_PAPER_G_EDGES = [
    (0, 1), (0, 6), (0, 7), (0, 8), (0, 10), (1, 4), (1, 9), (1, 10),
    (2, 6), (3, 4), (3, 5), (3, 11), (4, 6), (4, 8), (5, 6), (5, 9),
    (5, 11), (6, 7), (6, 9), (7, 10), (8, 11), (9, 11),
]
_PAPER_H_EDGES = [
    (0, 3), (0, 9), (0, 10), (1, 4), (1, 5), (1, 9), (1, 11), (2, 6),
    (3, 4), (3, 10), (4, 6), (4, 8), (5, 7), (5, 8), (5, 11), (6, 7),
    (6, 9), (6, 10), (6, 11), (7, 11), (8, 10), (9, 10),
]

# Nine-vertex pair A: same A/L/S spectra, mixed shadows and the Hashimoto
# determinant both separate (first determinant divergence at order 8).
_EXA_G1_EDGES = [
    (0, 5), (0, 7), (1, 6), (1, 7), (1, 8), (2, 6), (2, 8), (3, 6),
    (3, 8), (4, 7), (5, 8), (7, 8),
]
_EXA_H1_EDGES = [
    (0, 5), (0, 8), (1, 5), (1, 8), (2, 6), (2, 7), (2, 8), (3, 6),
    (3, 7), (4, 8), (5, 7), (7, 8),
]
_EXA_G1_LABEL = "H?ABePt"
_EXA_H1_LABEL = "H?B@`jh"

# Nine-vertex pair B: same A/L/S spectra and identical Hashimoto determinant,
# yet the mixed shadows separate.
_EXB_G2_EDGES = [
    (0, 3), (0, 4), (0, 6), (0, 7), (0, 8), (1, 4), (1, 5), (1, 6),
    (1, 8), (2, 5), (2, 6), (2, 7), (2, 8), (3, 6), (3, 7), (4, 7),
    (4, 8), (5, 8),
]
_EXB_H2_EDGES = [
    (0, 3), (0, 4), (0, 5), (0, 8), (1, 4), (1, 5), (1, 6), (1, 7),
    (1, 8), (2, 6), (2, 7), (2, 8), (3, 5), (3, 7), (3, 8), (4, 6),
    (4, 8), (6, 7),
]
_EXB_G2_LABEL = "HCpfdrk"
_EXB_H2_LABEL = "HCrRRfw"


@lru_cache(maxsize=1)
def corpus() -> tuple[CorpusEntry, ...]:
    """The embedded corpus: published pairs plus standard small graphs.

    The published entries are stored as literal edge lists; where a graph6
    label was published too, transcription is double-checked against the
    label here, at build time.
    """
    entries = []

    def add(name, graph, **expected):
        entries.append(CorpusEntry(name, graph, expected))

    paper_g = Graph.from_edges(12, _PAPER_G_EDGES)
    paper_h = Graph.from_edges(12, _PAPER_H_EDGES)
    add("paperG", paper_g, degree_multiset=(6, 5, 4, 4, 4, 4, 4, 3, 3, 3, 3, 1))
    add("paperH", paper_h, degree_multiset=(6, 5, 4, 4, 4, 4, 4, 3, 3, 3, 3, 1))

    for name, edge_list, label, degs in (
        ("exA_G1", _EXA_G1_EDGES, _EXA_G1_LABEL, (5, 4, 3, 3, 2, 2, 2, 2, 1)),
        ("exA_H1", _EXA_H1_EDGES, _EXA_H1_LABEL, (5, 4, 3, 3, 2, 2, 2, 2, 1)),
        ("exB_G2", _EXB_G2_EDGES, _EXB_G2_LABEL, (5, 5, 4, 4, 4, 4, 4, 3, 3)),
        ("exB_H2", _EXB_H2_EDGES, _EXB_H2_LABEL, (5, 5, 4, 4, 4, 4, 4, 3, 3)),
    ):
        g = Graph.from_edges(9, edge_list)
        if parse_graph6(label) != g:
            raise AssertionError(
                f"corpus entry {name}: edge list disagrees with graph6 label {label}"
            )
        if encode_graph6(g) != label:
            raise AssertionError(f"corpus entry {name}: encoder disagrees with {label}")
        add(name, g, graph6=label, degree_multiset=degs)

    add("K2", _complete(2))
    add("P3", _path(3))
    add("K3", _complete(3))
    for n in range(4, 9):
        add(f"C{n}", _cycle(n))
    add("K4", _complete(4))
    add("petersen", _petersen())
    for leaves in range(3, 7):
        add(f"star{leaves}", _star(leaves))

    for entry in entries:
        want = entry.expected.get("degree_multiset")
        if want is not None and entry.graph.degree_multiset() != want:
            raise AssertionError(f"corpus entry {entry.name}: degree multiset mismatch")
    return tuple(entries)


def corpus_graph(name: str) -> Graph:
    for entry in corpus():
        if entry.name == name:
            return entry.graph
    raise KeyError(f"no corpus graph named {name!r}")


def corpus_names() -> list[str]:
    return [entry.name for entry in corpus()]
