"""Census screening: ingest graph6 streams, group by a cascade of exact
invariants, fingerprint the classes, and diff their pairs.

Groups are keyed by exact invariant values and named by digests of their
coefficient strings (full strings confirm each digest bucket), so grouping
never depends on floating hashes.  Output is a pure function of the input
order and the configuration; the worker count changes timing only.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .bounds import check_bounds, hermitian_part_spectrum_check
from .edge_space import (
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
from .graphs import Graph, Graph6Error, is_connected, is_regular, parse_graph6
from .matrices import Matrix
from .shadows import (
    DEFAULT_KMAX,
    GROUPING_KEYS,
    Fingerprint,
    PairReport,
    fingerprint,
    invariant,
    invariant_string,
    pair_report,
    regular_collapse_check,
    shadow_set,
)
from .zeta import (
    DEFAULT_ORDER,
    bass_det,
    factorize,
    hashimoto_det,
    log_trace_check,
    schur_series_check,
    trivial_roots,
)

# ---------------------------------------------------------------------------
# canonical labeling and the builtin generator


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


def _refine_colors(rows: list[int]) -> list[int]:
    """Iterated neighbor-color refinement of the graph with adjacency
    bitmask rows, starting from degrees; the color ids are canonical
    (derived from sorted invariant keys only).  Each round ranks the keys
    (previous color, sorted neighbor colors), so a higher degree never gets
    a lower color; a round that splits no cell, or leaves every vertex alone
    in its cell, ends the refinement.

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


def _relabel_in_order(g: Graph, order: list[int]) -> Graph:
    """g with the vertex at position i of order renamed to i."""
    inverse = [0] * g.n
    for pos, v in enumerate(order):
        inverse[v] = pos
    return g.relabel(inverse)


def canonical_label(g: Graph) -> Graph:
    """Canonical representative of the isomorphism class of g: g relabeled
    by the best vertex order of the degree-refined backtracking search."""
    if g.n == 0:
        return g
    rows = _adjacency_rows(g.n, g.edges)
    order, _ = _canonical_search(rows, _refine_colors(rows))
    return _relabel_in_order(g, order)


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
                colors = _refine_colors(child)
                if colors[x] != max(colors):
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
    return tuple(Graph(n, edges) for edges in level)


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


# ---------------------------------------------------------------------------
# one-shot identity battery


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def verify_all(g: Graph, order: int = 8, gauges: int = 3, seed: int = 0) -> list[CheckResult]:
    """Run every structural identity on one graph; failures are data.

    An order below 1 is an input error, not a failed identity: it raises
    ValueError before any check runs.
    """
    import random

    if order < 1:
        raise ValueError(f"series order must be at least 1, got {order}")
    results: list[CheckResult] = []

    def check(name: str, fn):
        try:
            ok, detail = fn()
        except Exception as exc:  # noqa: BLE001 - failures are data here
            ok, detail = False, f"error: {exc}"
        results.append(CheckResult(name, ok, detail))

    es = edge_space(g)
    t = build_hashimoto(es)
    p = build_reversal(es)
    hl2 = build_hl2(es)
    pm = build_pm_basis(es)
    blocks = sector_blocks(es)
    d, absd = build_incidence(es)
    deg, adj = g.degree_matrix(), g.adjacency()

    check("reversal_involution", lambda: (p * p == Matrix.identity(2 * g.m), ""))
    check("shared_endpoint_splitting", lambda: (hl2 == p * t + t * p, "A = PT + TP"))
    check(
        "reversal_symmetry",
        lambda: (p * hl2 == t + t.transpose() and t == p * t.transpose() * p, "PA = T + T^t"),
    )
    check(
        "incidence_laplacians",
        lambda: (
            d * d.transpose() == deg - adj and absd * absd.transpose() == deg + adj,
            "DD^t and |D||D|^t",
        ),
    )
    check(
        "sector_identity",
        lambda: (lambda r: (r.ok, str(r.mismatch or "")))(verify_sector_identity(es)),
    )
    check(
        "pm_basis_norm",
        lambda: (pm.transpose() * pm == Matrix.identity(2 * g.m).scaled(2), "U^t U = 2I"),
    )
    check("bass_vs_hashimoto", lambda: (bass_det(g) == hashimoto_det(g), ""))
    check(
        "factorization",
        lambda: (factorize(g, order).identity_holds(), "det = line * correction"),
    )
    check("schur_series", lambda: (schur_series_check(g, order), f"order {order}"))
    check("log_trace", lambda: (log_trace_check(g, order), f"order {order}"))
    if is_connected(g):
        check("trivial_roots", lambda: (lambda r: (r.ok(), str(r)))(trivial_roots(g)))
    if is_regular(g) is not None and is_connected(g):
        check("regular_collapse", lambda: (regular_collapse_check(g), ""))

    base_shadows = shadow_set(es)
    m, mt = blocks.M, blocks.M.transpose()
    # production fills MtM from the MMt charpoly; the AB/BA lemma is checked here
    check(
        "mixed_products_cospectral",
        lambda: ((mt * m).charpoly() == base_shadows.mtm, "charpoly(M^t M) = charpoly(M M^t)"),
    )

    rng = random.Random(seed)
    base_mmt = m * mt

    def gauge_check():
        for _ in range(gauges):
            other = regauge(es, random_gauge(rng, g.m))
            m2 = sector_blocks(other).M
            if m2 * m2.transpose() != base_mmt:
                return False, "MM^t moved under a gauge flip"
            if shadow_set(other) != base_shadows:
                return False, "shadow charpolys moved under a gauge flip"
        return True, f"{gauges} random gauges"

    check("gauge_invariance", gauge_check)
    check(
        "spectral_bounds",
        lambda: (lambda r: (r.ok, "; ".join(r.violations)))(check_bounds(g)),
    )
    check(
        "hermitian_part_split",
        lambda: (hermitian_part_spectrum_check(g), "Spec(H) = L/2 u -S/2"),
    )
    return results


# ---------------------------------------------------------------------------
# screening


@dataclass(frozen=True)
class ScreenConfig:
    keys: tuple[str, ...] = ("A", "L", "S")
    order: int = DEFAULT_ORDER
    kmax: int = DEFAULT_KMAX
    connected_only: bool = False
    irregular_only: bool = False
    min_degree: int | None = None
    max_degree: int | None = None
    jobs: int = 1
    max_pairs_per_class: int = 10
    skip_malformed: bool = False

    def __post_init__(self):
        if not self.keys:
            raise ValueError("grouping key must be nonempty")
        for key in self.keys:
            if key not in GROUPING_KEYS:
                raise ValueError(f"unknown grouping key {key!r}; use {GROUPING_KEYS}")
        if self.order < 0 or self.kmax < 0:
            raise ValueError("series order and kmax must be nonnegative")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        if self.max_pairs_per_class < 0:
            raise ValueError(f"max pairs must be nonnegative, got {self.max_pairs_per_class}")
        if "hashimoto" not in self.keys and self.order < 8:
            raise ValueError("series order below 8 cannot report divergence orders")


@dataclass(frozen=True)
class ClassRecord:
    digest: str
    members: tuple[str, ...]  # graph6, in input order
    pairs: tuple[PairReport, ...]

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "digest": self.digest,
            "members": list(self.members),
            "pairs": [p.to_json_dict() for p in self.pairs],
        }


class ScreenError(RuntimeError):
    """An invariant of a screened graph raised, or a pool worker died; the
    message names an input line."""


# graphs per pool task; a batch of at most this many runs in process, since
# one chunk would run on one worker anyway
_CHUNK = 8


def _screen_task(args):
    """One graph's invariant for one stage of the key, or, when the stage is
    None, its fingerprint built around the (key, invariant) pairs known."""
    lineno, g, stage, order, kmax, known = args
    try:
        if stage is None:
            return fingerprint(g, order, kmax, known)
        return invariant(g, stage, kmax)
    except Exception as exc:  # noqa: BLE001 - re-raised with its input line
        # raised inside a pool worker too, so jobs > 1 reports the same line
        raise ScreenError(f"line {lineno}: {type(exc).__name__}: {exc}") from exc


def _tasks(kept, indices, stage, cfg, prefix, stages=()) -> list[tuple]:
    return [(kept[i][0], kept[i][2], stage, cfg.order, cfg.kmax, tuple(zip(stages, prefix[i])))
            for i in indices]


def _map(tasks: list[tuple], jobs: int) -> list:
    """_screen_task's results in task order: in this process when jobs is 1
    or the batch fits in one chunk, which one worker would run alone;
    otherwise in a pool of min(jobs, chunks) workers, closed before return.
    A worker that dies raises a ScreenError naming the first line of the
    earliest chunk without a result."""
    if jobs == 1 or len(tasks) <= _CHUNK:
        return [_screen_task(t) for t in tasks]
    results = []
    with ProcessPoolExecutor(max_workers=min(jobs, -(-len(tasks) // _CHUNK))) as pool:
        try:
            for result in pool.map(_screen_task, tasks, chunksize=_CHUNK):
                results.append(result)
        except BrokenProcessPool as exc:
            # results arrive in task order, chunk by chunk, so the first
            # missing one starts the earliest chunk still in flight
            chunk = tasks[len(results) : len(results) + _CHUNK]
            raise ScreenError(
                f"line {chunk[0][0]}: a pool worker died while lines "
                f"{chunk[0][0]}-{chunk[-1][0]} were in flight: {type(exc).__name__}: {exc}"
            ) from exc
    return results


class ScreenResult:
    """The classes and summary of one screen.

    stage_counts maps each stage of the key to the number of graphs
    evaluated at it.  fingerprints lists the fingerprint of every kept graph
    in input order; it is built on first read as one batch (see _map) from
    the stage values, reusing those of class members, and kept.
    """

    def __init__(self, classes, summary, stage_counts, kept, stages, prefix, built, cfg):
        self.classes: list[ClassRecord] = classes
        self.summary: dict = summary
        self.stage_counts: dict[str, int] = stage_counts
        self._kept = kept  # (lineno, graph6, graph), input order
        self._stages = stages
        self._prefix = prefix  # per kept graph, its stage values
        self._built = built  # index into _kept -> fingerprint
        self._cfg = cfg
        self._fingerprints: list[Fingerprint] | None = None

    @property
    def fingerprints(self) -> list[Fingerprint]:
        if self._fingerprints is None:
            missing = [i for i in range(len(self._kept)) if i not in self._built]
            tasks = _tasks(self._kept, missing, None, self._cfg, self._prefix, self._stages)
            self._built.update(zip(missing, _map(tasks, self._cfg.jobs)))
            self._fingerprints = [self._built[i] for i in range(len(self._kept))]
        return self._fingerprints


def _joined_key(values: dict, keys: tuple[str, ...]) -> str:
    return "|".join(f"{k}={invariant_string(values[k])}" for k in keys)


def key_string_of(fp: Fingerprint, keys: tuple[str, ...]) -> str:
    return _joined_key(fp.invariants(), keys)


def _kept_by_filters(g: Graph, cfg: ScreenConfig) -> bool:
    if cfg.connected_only and not is_connected(g):
        return False
    if cfg.irregular_only and is_regular(g) is not None:
        return False
    degs = g.degree_multiset()
    if cfg.min_degree is not None and (not degs or degs[-1] < cfg.min_degree):
        return False
    if cfg.max_degree is not None and (degs and degs[0] > cfg.max_degree):
        return False
    return True


def run_screen(lines, cfg: ScreenConfig) -> ScreenResult:
    """Screen an iterable of (lineno, graph6) pairs for cospectral classes.

    The lines are read once; the graphs that pass the filters are grouped by
    the configured key in a cascade, one stage per key field, cheapest first
    (GROUPING_KEYS order).  Each stage is evaluated only for graphs that
    still share their exact stage values with another graph: a graph alone
    at a prefix of the key is alone for the whole key, so the classes are
    those of a grouping by the full key.  Full fingerprints are built, from
    the stage values, only for members of classes with at least two members,
    which are returned in order of their first member's line with pairwise
    reports; only their keys are written as strings.

    A class digest is the first 16 hex digits of the SHA-256 of its key
    string.  If two classes with at least two members share one, the later
    takes "full:" + its key; a singleton's key is never built, so it takes
    no part in that comparison.

    A graph whose stage value or fingerprint raises stops the screen with a
    ScreenError naming its input line, whatever the worker count.  A pool
    worker that dies stops it with a ScreenError naming the first line of
    the earliest chunk without a result.  Each stage and the member
    fingerprints are one batch each; a batch larger than one chunk runs in
    a pool of its own, with at most cfg.jobs workers (see _map).
    """
    kept: list[tuple[int, str, Graph]] = []
    read = 0
    malformed = 0
    for lineno, text in lines:
        read += 1
        try:
            g = parse_graph6(text)
        except Graph6Error as exc:
            if cfg.skip_malformed:
                malformed += 1
                continue
            raise Graph6Error(f"line {lineno}: {exc}") from exc
        if _kept_by_filters(g, cfg):
            kept.append((lineno, text, g))

    stages = [k for k in GROUPING_KEYS if k in cfg.keys]
    prefix: list[tuple] = [()] * len(kept)  # stage values so far

    def shared(indices: list[int]) -> list[int]:
        sizes = Counter(prefix[i] for i in indices)
        return [i for i in indices if sizes[prefix[i]] > 1]

    live = list(range(len(kept)))
    stage_counts: dict[str, int] = {}
    for stage in stages:
        live = shared(live)
        stage_counts[stage] = len(live)
        for i, value in zip(live, _map(_tasks(kept, live, stage, cfg, prefix), cfg.jobs)):
            prefix[i] += (value,)
    live = shared(live)
    built = dict(zip(live, _map(_tasks(kept, live, None, cfg, prefix, stages), cfg.jobs)))

    groups: dict[tuple, list[int]] = {}
    for i in live:
        groups.setdefault(prefix[i], []).append(i)
    digest_of: dict[tuple, str] = {}
    key_of_digest: dict[str, str] = {}
    for values in groups:
        key = _joined_key(dict(zip(stages, values)), cfg.keys)
        digest = hashlib.sha256(key.encode()).hexdigest()[:16]
        if key_of_digest.setdefault(digest, key) != key:
            digest = "full:" + key
        digest_of[values] = digest

    classes: list[ClassRecord] = []
    separated = {"shadows": 0, "hashimoto": 0, "S": 0}
    for values, members in sorted(groups.items(), key=lambda item: kept[item[1][0]][0]):
        pairs = []
        for i, j in combinations(members, 2):
            if len(pairs) >= cfg.max_pairs_per_class:
                break
            # from the fingerprints in hand: with jobs > 1 this process
            # never computed them, so compare() would compute them again
            rep = pair_report(built[i], built[j])
            pairs.append(rep)
            if not rep.agree.get("S", True):
                separated["S"] += 1
            if not all(v for k, v in rep.agree.items() if k.startswith("shadow_")):
                separated["shadows"] += 1
            if not rep.agree.get("hashimoto", True):
                separated["hashimoto"] += 1
        classes.append(
            ClassRecord(
                digest=digest_of[values],
                members=tuple(kept[i][1] for i in members),
                pairs=tuple(pairs),
            )
        )

    summary = {
        "read": read,
        "malformed_skipped": malformed,
        "kept": len(kept),
        # every graph outside the classes is a class of its own
        "classes_total": len(kept) - sum(len(m) - 1 for m in groups.values()),
        "classes_nontrivial": len(classes),
        "pairs_reported": sum(len(c.pairs) for c in classes),
        "pairs_separated_by": separated,
        "keys": list(cfg.keys),
    }
    return ScreenResult(classes, summary, stage_counts, kept, stages, prefix, built, cfg)


def write_fingerprints_jsonl(fps, stream) -> None:
    for fp in fps:
        stream.write(fp.to_jsonl() + "\n")


def read_fingerprints_jsonl(stream) -> list[Fingerprint]:
    """Read a JSONL fingerprint store; a bad record raises ValueError naming
    its line number in the store."""
    out = []
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(Fingerprint.from_json_dict(json.loads(line)))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(
                f"fingerprint store line {lineno}: {type(exc).__name__}: {exc}"
            ) from exc
    return out
