"""The builtin census: canonical labeling and isomorph-free generation.

canonical_label relabels a graph by the best vertex order of a backtracking
search over degree-refined color classes.  builtin_generate lists the
connected graphs on n <= MAX_GENERATED_VERTICES vertices, one canonical
representative per isomorphism class, built level by level by canonical
augmentation.  Graphs are handled as adjacency bitmask rows throughout;
Graph objects are built only for the last level.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import Graph, is_connected


@lru_cache(maxsize=1 << 10)  # holds every row of a graph on at most 10 vertices
def _bits(mask: int) -> tuple[int, ...]:
    """The indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _adjacency_rows(n: int, edges) -> list[int]:
    """Row v is the bitmask of v's neighbors."""
    rows = [0] * n
    for a, b in edges:
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return rows


def _refine_colors(rows: list[int], top_vertex: int | None = None) -> list[int] | None:
    """Iterated neighbor-color refinement of the graph with adjacency
    bitmask rows, starting from degrees; the color ids are canonical
    (derived from sorted invariant keys only).  Each round ranks the keys
    (previous color, sorted neighbor colors), so a higher degree never gets
    a lower color; a round that splits no cell, or leaves every vertex alone
    in its cell, ends the refinement.

    Given top_vertex, the refinement stops with None as soon as a round
    leaves that vertex out of the top cell: the rounds keep the order of the
    cells, so it cannot come back.

    Each key is packed in one int: the previous color above the neighbor
    colors' counts, one digit per color with color 0 the most significant,
    negated.  Vertices of one previous color have one degree, and between
    two sorted tuples of one length the smaller holds more of the first
    color where their counts differ, so the ints sort as the tuples do.
    """
    n = len(rows)
    nbrs = list(map(_bits, rows))
    colors = [r.bit_count() for r in rows]
    cells = len(set(colors))
    digit = n.bit_length()  # a count is below n
    for _ in range(n):
        top = max(colors)
        shift = digit * (top + 1)
        weight = [1 << digit * (top - c) for c in colors].__getitem__
        keys = [(c << shift) - sum(map(weight, nb)) for c, nb in zip(colors, nbrs)]
        distinct = sorted(set(keys))
        rank = {key: i for i, key in enumerate(distinct)}
        colors = list(map(rank.__getitem__, keys))
        if top_vertex is not None and colors[top_vertex] != len(distinct) - 1:
            return None
        if len(distinct) in (cells, n):
            break
        cells = len(distinct)
    return colors


def _canonical_search(rows: list[int], colors: list[int]) -> tuple[list[int], set[int]]:
    """The backtracking search behind every canonical labeling of the graph
    with adjacency bitmask rows.

    Vertices are placed color class by color class (lowest refined color
    first), maximizing the packed adjacency bit string; branches that cannot
    beat the current best prefix are cut.  Twins, two vertices u, v of one
    color with N(u) - {v} = N(v) - {u}, are swapped by an automorphism that
    fixes every other vertex, so the subtrees below them are images of each
    other and only the first unused member of each twin class is tried.
    Returns the first best order found (the vertex at each position) and the
    vertices that take the last position in some best order.  The best orders
    are the first one composed with the automorphisms of the graph, so the
    second value is the Aut-orbit of the last vertex: the last vertices of
    the best orders reached, closed under their twin classes.
    """
    n = len(rows)
    nbrs = list(map(_bits, rows))
    members: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        members.setdefault(c, []).append(v)
    slot_members = [members[c] for c in sorted(colors)]  # candidates per position
    # u, v are twins when their rows differ in nothing or in exactly u and v
    # (same open or same closed neighborhood); twinship is an equivalence
    # relation, so the pairs give the classes
    twins = [1 << v for v in range(n)]
    for cell in members.values():
        for i, u in enumerate(cell):
            for v in cell[i + 1 :]:
                if rows[u] ^ rows[v] in (0, 1 << u | 1 << v):
                    twins[u] |= 1 << v
                    twins[v] |= 1 << u
    # v is tried only once its lower twins are placed
    lower = [t & ((1 << v) - 1) for v, t in enumerate(twins)]
    row_of = [0] * n  # row_of[v]: the positions of v's placed neighbors
    used = 0
    placed: list[int] = []
    path: list[int] = []
    best_rows: list[int] = []
    best_perm: list[int] = []
    last: set[int] = set()

    def place(position: int, tied: bool) -> bool:
        """Extend the placed prefix, which equals the best prefix when tied
        and else beats it (or no best exists yet); True if a new best order
        was found below."""
        nonlocal used, best_rows, best_perm, last
        if position == n:
            if tied:
                last.add(placed[-1])
                return False
            best_rows, best_perm, last = list(path), list(placed), {placed[-1]}
            return True
        improved = False
        bit = 1 << position
        for v in slot_members[position]:
            if used >> v & 1 or used & lower[v] != lower[v]:
                continue
            row = row_of[v]
            if tied and row < best_rows[position]:
                continue
            path.append(row)
            used |= 1 << v
            placed.append(v)
            for u in nbrs[v]:
                row_of[u] |= bit
            if place(position + 1, tied and row == best_rows[position]):
                # the prefix is now the best one's
                improved = tied = True
            for u in nbrs[v]:
                row_of[u] ^= bit
            placed.pop()
            used ^= 1 << v
            path.pop()
        return improved

    if not place(0, False):
        raise RuntimeError("canonical labeling placed no complete vertex order")
    orbit = 0
    for v in last:
        orbit |= twins[v]
    return best_perm, set(_bits(orbit))


def canonical_label(g: Graph) -> Graph:
    """Canonical representative of the isomorphism class of g: g relabeled
    by the best vertex order of the degree-refined backtracking search."""
    if g.n == 0:
        return g
    rows = _adjacency_rows(g.n, g.edges)
    order, _ = _canonical_search(rows, _refine_colors(rows))
    inverse = [0] * g.n  # the vertex at position i of order is renamed to i
    for pos, v in enumerate(order):
        inverse[v] = pos
    return g.relabel(inverse)


def _next_level(parents: list[tuple], n: int) -> list[tuple[tuple[int, int], ...]]:
    """The canonical edge tuples of the n-vertex classes, sorted by (m,
    edges), from those of the (n-1)-vertex classes (see
    _all_graphs_up_to_iso)."""
    x = n - 1
    by_size: list[list[int]] = [[] for _ in range(n)]  # neighbor sets of x, by size
    for mask in range(1 << x):
        by_size[mask.bit_count()].append(mask)
    # one tuple per vertex pair, shared by every graph of the level
    edge = [[(min(a, b), max(a, b)) for b in range(n)] for a in range(n)]
    level = []
    for parent in parents:
        rows = _adjacency_rows(x, parent)
        deg = [r.bit_count() for r in rows]
        top = max(deg, default=0)
        at_top = sum(1 << v for v in range(x) if deg[v] == top)
        children: set[tuple[tuple[int, int], ...]] = set()
        # x must have the child's maximum degree, which is top, or top + 1
        # where S meets a vertex of degree top
        for size in range(top, n):
            for mask in by_size[size]:
                if size == top and mask & at_top:
                    continue
                child = [r | (mask >> v & 1) << x for v, r in enumerate(rows)]
                child.append(mask)
                colors = _refine_colors(child, x)
                if colors is None:
                    continue
                order, last_orbit = _canonical_search(child, colors)
                if x in last_orbit:
                    pos = [0] * n
                    for p, v in enumerate(order):
                        pos[v] = p
                    edges = [edge[pos[a]][pos[b]] for a, b in parent]
                    edges += [edge[pos[v]][pos[x]] for v in _bits(mask)]
                    children.add(tuple(sorted(edges)))
        level.extend(children)
    level.sort(key=lambda edges: (len(edges), edges))
    return level


@lru_cache(maxsize=8)
def _all_graphs_up_to_iso(n: int) -> tuple[Graph, ...]:
    """Every graph on n vertices up to isomorphism, canonically labeled and
    sorted by (m, edges), by canonical augmentation (McKay, "Isomorph-free
    exhaustive generation", J. Algorithms 26, 1998).

    A child of an (n-1)-vertex class representative P is P plus a new vertex
    x joined to a neighbor set S.  It is accepted only if x lies in the
    Aut(child)-orbit of the vertex that takes the last canonical position:
    then the class of the child fixes the class of its parent, so no two
    parents produce isomorphic children.  The last position always holds a
    vertex of the top refined color, hence of maximum degree, so a child in
    which x has a lower degree or color is rejected before any search.
    Isomorphic accepted children come only from Aut(P)-equivalent neighbor
    sets of one parent, so duplicates are removed per parent.  Candidates
    are adjacency bitmask rows, and each level is a list of canonical edge
    tuples; Graph objects are built for level n only.
    """
    level: list[tuple[tuple[int, int], ...]] = [()]
    for k in range(1, n + 1):
        level = _next_level(level, k)
    return tuple(Graph._of(n, edges) for edges in level)


MAX_GENERATED_VERTICES = 7


def builtin_generate(n: int) -> list[Graph]:
    """All connected graphs on n vertices up to isomorphism, each as its
    canonical form, sorted by (m, edges): the connected members of the
    canonical-augmentation census.  Refuses n > MAX_GENERATED_VERTICES (use
    graph6 ingestion for larger censuses)."""
    if not (1 <= n <= MAX_GENERATED_VERTICES):
        raise ValueError(
            f"builtin generator covers 1 <= n <= {MAX_GENERATED_VERTICES}; "
            "ingest external graph6 output for larger vertex counts"
        )
    return [g for g in _all_graphs_up_to_iso(n) if is_connected(g)]
