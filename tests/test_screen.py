import io
import itertools
import json
import multiprocessing
import os
import random
import sys
import time
from collections import Counter
from itertools import permutations

import pytest

from edgesector.graphs import Graph, Graph6Error, corpus, corpus_graph, encode_graph6
from edgesector import census, screen
from edgesector.census import builtin_generate, canonical_label
from edgesector.screen import (
    ScreenConfig,
    ScreenError,
    read_fingerprints_jsonl,
    run_screen,
    write_fingerprints_jsonl,
)
from edgesector.shadows import fingerprint
from conftest import correction_bumped_on, random_connected_graph

FORKED = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers see a patched kernel only when forked",
)


@pytest.fixture
def pools(monkeypatch):
    """The process pools the screen opens, in order, each recording its
    worker count, the lines of its tasks and whether it has been shut
    down.  The screen sees 4 usable CPUs, whatever the host has."""
    opened = []
    monkeypatch.setattr(screen, "_cpus", lambda: 4)

    class Recorded(screen.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            super().__init__(max_workers=max_workers, **kwargs)
            self.max_workers = max_workers
            self.shut_down = False
            self.lines = []  # the input line of each task mapped
            opened.append(self)

        def map(self, fn, tasks, **kwargs):
            tasks = list(tasks)
            self.lines += [t[0] for t in tasks]
            return super().map(fn, tasks, **kwargs)

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            self.shut_down = True

    monkeypatch.setattr(screen, "ProcessPoolExecutor", Recorded)
    return opened


# the census generator and canonical labeling (census.py)


def vertex_augmentation_oracle(n: int) -> tuple[Graph, ...]:
    """Every graph on n vertices up to isomorphism, the slow way: extend each
    (n-1)-vertex class with a new vertex joined to every subset of the old
    vertices, label every candidate, and dedup through one global set."""
    classes = (Graph.from_edges(0, []),)
    for k in range(1, n + 1):
        seen = set()
        for base in classes:
            for mask in range(1 << (k - 1)):
                edges = list(base.edges)
                edges += [(v, k - 1) for v in range(k - 1) if mask >> v & 1]
                seen.add(canonical_label(Graph.from_edges(k, edges)))
        classes = tuple(sorted(seen, key=lambda g: (g.m, g.edges)))
    return classes


@pytest.mark.parametrize("n", range(7))
def test_generator_matches_vertex_augmentation_oracle(n):
    assert census._all_graphs_up_to_iso(n) == vertex_augmentation_oracle(n)


def test_builtin_counts():
    # connected graphs up to isomorphism: OEIS A001349
    for n, want in [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21), (6, 112)]:
        assert len(builtin_generate(n)) == want


def test_builtin_n4_inventory():
    got = sorted((g.m, g.degree_multiset()) for g in builtin_generate(4))
    want = sorted(
        [
            (3, (2, 2, 1, 1)),  # P4
            (3, (3, 1, 1, 1)),  # star
            (4, (2, 2, 2, 2)),  # C4
            (4, (3, 2, 2, 1)),  # triangle + pendant
            (5, (3, 3, 2, 2)),  # diamond
            (6, (3, 3, 3, 3)),  # K4
        ]
    )
    assert got == want


def test_builtin_generator_bounds():
    with pytest.raises(ValueError):
        builtin_generate(0)
    with pytest.raises(ValueError):
        builtin_generate(8)


def test_builtin_outputs_are_canonical_and_connected():
    from edgesector.graphs import is_connected

    for g in builtin_generate(5):
        assert is_connected(g)
        assert canonical_label(g) == g


def certificate(g: Graph) -> tuple:
    c = canonical_label(g)
    return (c.n, c.edges)


def test_canonical_label_isomorphism_invariant():
    rng = random.Random(70)
    for _ in range(25):
        g = random_connected_graph(rng, n_max=8)
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert certificate(g) == certificate(g.relabel(perm))


def _search(g: Graph):
    rows = census._adjacency_rows(g.n, g.edges)
    return census._canonical_search(rows, census._refine_colors(rows))


def _cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


LAST_ORBIT_GRAPHS = {
    # large twin classes
    "7K1": Graph.from_edges(7, []),
    "K1,5": Graph.from_edges(6, [(0, v) for v in range(1, 6)]),
    "K3,3": Graph.from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)]),
    "K5+2K1": Graph.from_edges(7, [(a, b) for a in range(5) for b in range(a + 1, 5)]),
    # symmetry that no twin swap generates
    "C5": _cycle(5),
    "C6": _cycle(6),
    "C7": _cycle(7),
    "K3xK2": Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                                  (0, 3), (1, 4), (2, 5)]),
}


def test_canonical_search_returns_the_orbit_of_the_last_vertex():
    rng = random.Random(72)
    graphs = [corpus_graph(name) for name in ("C4", "star3", "K4")]
    graphs += [random_connected_graph(rng, n_max=6) for _ in range(20)]
    graphs += [Graph.from_edges(5, []), Graph.from_edges(6, [(0, 1), (2, 3)])]
    graphs += LAST_ORBIT_GRAPHS.values()
    for g in graphs:
        order, last_orbit = _search(g)
        edges = set(g.edges)
        autos = [p for p in permutations(range(g.n))
                 if {(min(p[a], p[b]), max(p[a], p[b])) for a, b in edges} == edges]
        assert last_orbit == {p[order[-1]] for p in autos}
        # and order is a best order: no order placing the colors in the
        # same sequence packs a larger adjacency bit string
        colors = census._refine_colors(census._adjacency_rows(g.n, g.edges))
        nbrs = g.neighbors()

        def packed(order):
            pos = {v: i for i, v in enumerate(order)}
            return [sum(1 << pos[u] for u in nbrs[v] if pos[u] < i) for i, v in enumerate(order)]

        slots = sorted(colors)
        best = max(packed(p) for p in permutations(range(g.n))
                   if [colors[v] for v in p] == slots)
        assert packed(order) == best


def refinement_oracle(g: Graph) -> list[int]:
    """Neighbor-color refinement with tuple keys (previous color, sorted
    neighbor colors), run until a round changes no color."""
    adj = g.neighbors()
    colors = g.degrees()
    for _ in range(g.n):
        keys = [(colors[v], tuple(sorted(colors[u] for u in adj[v]))) for v in range(g.n)]
        rank = {key: i for i, key in enumerate(sorted(set(keys)))}
        new = [rank[k] for k in keys]
        if new == colors:
            break
        colors = new
    return colors


def test_refinement_packs_its_keys_without_changing_a_color():
    rng = random.Random(74)
    graphs = [g for n in range(1, 7) for g in census._all_graphs_up_to_iso(n)]
    graphs += [random_connected_graph(rng, n_max=14, extra_max=20) for _ in range(200)]
    graphs += LAST_ORBIT_GRAPHS.values()
    for g in graphs:
        rows = census._adjacency_rows(g.n, g.edges)
        colors = refinement_oracle(g)
        assert census._refine_colors(rows) == colors
        # a watched vertex gets the full result if it ends in the top cell
        for v in range(g.n):
            expect = colors if colors[v] == max(colors) else None
            assert census._refine_colors(rows, v) == expect


def test_refinement_stops_once_the_watched_vertex_leaves_the_top_cell(monkeypatch):
    rounds = []

    def counted(keys):  # one sorted call per refinement round
        rounds.append(keys)
        return sorted(keys)

    monkeypatch.setattr(census, "sorted", counted, raising=False)
    path = Graph.from_edges(9, [(v, v + 1) for v in range(8)])
    rows = census._adjacency_rows(path.n, path.edges)
    # three rounds split the cells, one more splits none
    assert census._refine_colors(rows) == refinement_oracle(path)
    assert len(rounds) == 4
    rounds.clear()
    # vertex 1 has degree 2 but a neighbor of degree 1: below the top cell after one round
    assert census._refine_colors(rows, 1) is None
    assert len(rounds) == 1


def _place_calls(run) -> list[int]:
    """The position argument of every call of _canonical_search's place
    while run() runs."""
    place = next(c for c in census._canonical_search.__code__.co_consts
                 if getattr(c, "co_name", None) == "place")
    positions = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is place:
            positions.append(frame.f_locals["position"])

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return positions


def test_the_edgeless_graph_reaches_one_leaf():
    g = LAST_ORBIT_GRAPHS["7K1"]
    positions = _place_calls(lambda: _search(g))
    # every vertex is a twin of every other, so one branch per position
    assert positions == list(range(8))
    assert _search(g)[1] == set(range(7))


def test_twin_pruning_fixes_the_place_calls_of_the_n7_census():
    census._all_graphs_up_to_iso.cache_clear()
    # 123,576 calls before the search skipped twins
    assert len(_place_calls(lambda: census._all_graphs_up_to_iso(7))) == 27383


def test_canonical_label_separates_nonisomorphic():
    assert certificate(corpus_graph("C4")) != certificate(corpus_graph("star3"))
    assert certificate(corpus_graph("paperG")) != certificate(corpus_graph("paperH"))


# the screen


def test_screen_example_a():
    lines = [(1, "H?ABePt"), (2, "H?B@`jh")]
    out = run_screen(lines, ScreenConfig(keys=("A", "L", "S")))
    assert len(out.classes) == 1
    record = out.classes[0]
    assert record.members == ("H?ABePt", "H?B@`jh")
    rep = record.pairs[0]
    assert not rep.agree["shadow_MMt"]
    assert rep.det_first_diff_order == 8
    assert out.summary["pairs_separated_by"]["shadows"] == 1
    assert out.summary["pairs_separated_by"]["hashimoto"] == 1


def test_screen_example_b():
    lines = [(1, "HCpfdrk"), (2, "HCrRRfw")]
    out = run_screen(lines, ScreenConfig(keys=("A", "L", "S")))
    assert len(out.classes) == 1
    rep = out.classes[0].pairs[0]
    assert rep.agree["hashimoto"]
    assert rep.agree["correction"]
    assert not rep.agree["shadow_MtM"]
    assert out.summary["pairs_separated_by"]["hashimoto"] == 0
    assert out.summary["pairs_separated_by"]["shadows"] == 1


def test_screen_key_AL_paper_pair_resolution():
    g6 = [encode_graph6(corpus_graph("paperG")), encode_graph6(corpus_graph("paperH"))]
    out = run_screen(list(enumerate(g6, 1)), ScreenConfig(keys=("A", "L")))
    assert len(out.classes) == 1
    rep = out.classes[0].pairs[0]
    assert not rep.agree["S"]
    assert rep.det_first_diff_order == 6
    assert rep.correction_first_diff_order == 6


def test_screen_isomorphic_relabelings_agree():
    k4 = corpus_graph("K4")
    relabeled = k4.relabel([2, 0, 3, 1])
    lines = [(1, encode_graph6(k4)), (2, encode_graph6(relabeled))]
    out = run_screen(lines, ScreenConfig(keys=("A", "L", "S")))
    assert len(out.classes) == 1
    assert all(out.classes[0].pairs[0].agree.values())


def test_screen_grouping_by_hashimoto_key():
    # exB pair groups together under the hashimoto key, exA pair splits
    lines = [(1, "HCpfdrk"), (2, "HCrRRfw"), (3, "H?ABePt"), (4, "H?B@`jh")]
    out = run_screen(lines, ScreenConfig(keys=("hashimoto",)))
    assert len(out.classes) == 1
    assert out.classes[0].members == ("HCpfdrk", "HCrRRfw")


def test_screen_filters():
    lines = [(1, encode_graph6(corpus_graph("C4"))), (2, encode_graph6(corpus_graph("paperG")))]
    out = run_screen(lines, ScreenConfig(keys=("A",), irregular_only=True))
    assert out.summary["kept"] == 1
    disconnected = Graph.from_edges(4, [(0, 1), (2, 3)])
    lines = [(1, encode_graph6(disconnected))]
    out = run_screen(lines, ScreenConfig(keys=("A",), connected_only=True))
    assert out.summary["kept"] == 0
    out = run_screen(lines, ScreenConfig(keys=("A",)))
    assert out.summary["kept"] == 1
    # degrees: C4 (2,2,2,2), star3 (3,1,1,1); the empty graph has none
    c4, star3 = encode_graph6(corpus_graph("C4")), encode_graph6(corpus_graph("star3"))
    empty = encode_graph6(Graph(0, ()))
    lines = [(1, c4), (2, star3), (3, empty)]

    def kept(**limits):
        out = run_screen(lines, ScreenConfig(keys=("A",), **limits))
        return [fp.graph6 for fp in out.fingerprints]

    assert kept(min_degree=2) == [c4]
    assert kept(min_degree=1) == [c4, star3]
    assert kept(max_degree=2) == [c4, empty]
    assert kept(max_degree=3) == [c4, star3, empty]
    assert kept(min_degree=1, max_degree=2) == [c4]
    assert kept(min_degree=3, max_degree=2) == []


def test_builtin_generate_searches_only_candidates_past_the_cheap_rejects(monkeypatch):
    searches, labels = [], []
    real = census._canonical_search

    def counted(rows, colors):
        searches.append(rows)
        return real(rows, colors)

    monkeypatch.setattr(census, "_canonical_search", counted)
    monkeypatch.setattr(census, "canonical_label", labels.append)
    census._all_graphs_up_to_iso.cache_clear()
    assert len(builtin_generate(5)) == 21
    searched = len(searches)
    # candidates whose new vertex has the maximum degree and the top refined color
    passing = 0
    for n in range(1, 6):
        for base in census._all_graphs_up_to_iso(n - 1):
            for mask in range(1 << (n - 1)):
                joined = [(v, n - 1) for v in range(n - 1) if mask >> v & 1]
                child = Graph.from_edges(n, base.edges + tuple(joined))
                colors = census._refine_colors(census._adjacency_rows(child.n, child.edges))
                if child.degrees()[-1] == child.max_degree() and colors[-1] == max(colors):
                    passing += 1
    assert passing == 88
    # one search per such candidate, against 219 labelings of every candidate
    assert searched == passing < 219
    assert labels == []


def test_screen_parses_each_line_once(monkeypatch):
    calls = []
    real = screen.parse_graph6

    def counted(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(screen, "parse_graph6", counted)
    lines = [(i, encode_graph6(g)) for i, g in enumerate(builtin_generate(4), start=1)]
    out = run_screen(lines, ScreenConfig(keys=("A", "L", "S", "shadows", "hashimoto"), jobs=1))
    assert out.summary["kept"] == 6
    assert calls == [text for _, text in lines]


def test_screen_malformed_lines():
    lines = [(1, "A_"), (2, "not graph6 @@@")]
    with pytest.raises(Graph6Error):
        run_screen(lines, ScreenConfig(keys=("A",)))
    out = run_screen(lines, ScreenConfig(keys=("A",), skip_malformed=True))
    assert out.summary["malformed_skipped"] == 1
    assert out.summary["kept"] == 1


def test_screen_config_validation():
    with pytest.raises(ValueError):
        ScreenConfig(keys=())
    with pytest.raises(ValueError):
        ScreenConfig(keys=("A", "bogus"))
    with pytest.raises(ValueError):
        ScreenConfig(keys=("A",), order=4)
    with pytest.raises(ValueError):
        ScreenConfig(keys=("hashimoto",), order=-1)
    with pytest.raises(ValueError):
        ScreenConfig(keys=("A",), kmax=-1)
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs"):
            ScreenConfig(jobs=jobs)
    with pytest.raises(ValueError, match="max pairs"):
        ScreenConfig(max_pairs_per_class=-1)
    assert ScreenConfig(max_pairs_per_class=0).max_pairs_per_class == 0


def test_screen_config_rejects_a_repeated_key():
    for keys in (("A", "A"), ("A", "L", "S", "L")):
        with pytest.raises(ValueError, match=f"grouping key {keys[-1]!r} is repeated"):
            ScreenConfig(keys=keys)


def test_screen_deterministic_across_jobs():
    graphs = builtin_generate(5)
    lines = [(i + 1, encode_graph6(g)) for i, g in enumerate(graphs)]
    cfg1 = ScreenConfig(keys=("A", "L"), jobs=1)
    cfg2 = ScreenConfig(keys=("A", "L"), jobs=2)
    out1 = run_screen(lines, cfg1)
    out2 = run_screen(lines, cfg2)
    assert [c.to_json_dict() for c in out1.classes] == [c.to_json_dict() for c in out2.classes]
    assert out1.summary == out2.summary


# the corpus's examples A and B: cospectral for A, L and S, separated by the shadows
PAPER_PAIRS = [("exA_G1", "exA_H1"), ("exB_G2", "exB_H2")]
ALL_KEYS = screen.GROUPING_KEYS
KEY_SUBSETS = [
    tuple(k for bit, k in enumerate(ALL_KEYS) if mask >> bit & 1)
    for mask in range(1, 1 << len(ALL_KEYS))
] + [("hashimoto", "A")]


def test_screen_reads_a_one_shot_stream_like_a_list():
    lines = [(i + 1, encode_graph6(g)) for i, g in enumerate(builtin_generate(5))]
    lines += [(i + 30, encode_graph6(corpus_graph(n))) for i, n in enumerate(PAPER_PAIRS[0])]
    cfg = ScreenConfig(keys=("A", "L", "S"))
    listed = run_screen(lines, cfg)
    streamed = run_screen((pair for pair in lines), cfg)
    assert listed.classes
    assert [c.to_json_dict() for c in streamed.classes] == [c.to_json_dict() for c in listed.classes]
    assert streamed.summary == listed.summary


def test_screen_stage_counts_on_the_n7_census():
    lines = [(i + 1, encode_graph6(g)) for i, g in enumerate(builtin_generate(7))]
    out = run_screen(lines, ScreenConfig(keys=("A", "L", "S"), jobs=1))
    # 790 of the 853 graphs are alone on A, and every one is alone on A, L
    assert out.stage_counts == {"A": 853, "L": 63, "S": 0}
    assert out.summary["classes_total"] == 853
    assert out.summary["classes_nontrivial"] == 0


def _oracle_lines():
    graphs = [g for n in range(7) for g in census._all_graphs_up_to_iso(n)]
    graphs += [entry.graph for entry in corpus()]
    return [(i + 1, encode_graph6(g)) for i, g in enumerate(graphs)]


def grouping_oracle(lines, cfg):
    """The screen without a cascade: fingerprint every graph, then group by
    the full key string (the lines must parse and pass no filter)."""
    import hashlib
    from itertools import combinations

    from edgesector.screen import key_string_of
    from edgesector.shadows import pair_report

    groups = {}
    for lineno, text in lines:
        fp = fingerprint(screen.parse_graph6(text), cfg.order, cfg.kmax)
        key = key_string_of(fp, cfg.keys)
        digest = hashlib.sha256(key.encode()).hexdigest()[:16]
        groups.setdefault(digest, {"key": key, "members": []})["members"].append((lineno, fp))
        assert groups[digest]["key"] == key, "digest collision"
    classes, separated = [], {"shadows": 0, "hashimoto": 0, "S": 0}
    for digest in sorted(groups, key=lambda d: groups[d]["members"][0][0]):
        members = groups[digest]["members"]
        if len(members) < 2:
            continue
        pairs = []
        for (_, f1), (_, f2) in combinations(members, 2):
            if len(pairs) >= cfg.max_pairs_per_class:
                break
            rep = pair_report(f1, f2)
            pairs.append(rep)
            separated["S"] += not rep.agree.get("S", True)
            separated["shadows"] += not all(
                v for k, v in rep.agree.items() if k.startswith("shadow_")
            )
            separated["hashimoto"] += not rep.agree.get("hashimoto", True)
        classes.append(
            screen.ClassRecord(digest, tuple(fp.graph6 for _, fp in members), tuple(pairs))
        )
    summary = {
        "read": len(lines),
        "malformed_skipped": 0,
        "kept": len(lines),
        "classes_total": len(groups),
        "classes_nontrivial": len(classes),
        "pairs_reported": sum(len(c.pairs) for c in classes),
        "pairs_separated_by": separated,
        "keys": list(cfg.keys),
    }
    return [c.to_json_dict() for c in classes], summary


@pytest.mark.parametrize(
    "keys,jobs",
    [(keys, 1) for keys in KEY_SUBSETS]
    + [(keys, 2) for keys in (ALL_KEYS, ("hashimoto", "A"))],
    ids=lambda v: ",".join(v) if isinstance(v, tuple) else f"jobs{v}",
)
def test_cascade_matches_the_full_key_grouping(keys, jobs):
    lines = _oracle_lines()
    cfg = ScreenConfig(keys=keys, jobs=jobs)
    out = run_screen(lines, cfg)
    assert ([c.to_json_dict() for c in out.classes], out.summary) == grouping_oracle(lines, cfg)


def test_full_key_cascade_reaches_the_shadows_stage_with_the_paper_pairs(monkeypatch):
    evaluated = []
    real = screen.invariant

    def recorded(g, key, kmax):
        evaluated.append((encode_graph6(g), key))
        return real(g, key, kmax)

    monkeypatch.setattr(screen, "invariant", recorded)
    lines = _oracle_lines()
    out = run_screen(lines, ScreenConfig(keys=ALL_KEYS))
    assert out.stage_counts["A"] == len(lines)
    assert 0 < out.stage_counts["hashimoto"] <= out.stage_counts["shadows"] < out.stage_counts["A"]
    for pair in PAPER_PAIRS:
        for name in pair:
            assert (encode_graph6(corpus_graph(name)), "shadows") in evaluated


def test_cascade_fingerprints_each_class_member_once(monkeypatch):
    calls = []

    def counted(g, order, kmax, known=()):
        calls.append(encode_graph6(g))
        return fingerprint(g, order, kmax, known)

    monkeypatch.setattr(screen, "fingerprint", counted)
    out = run_screen(_oracle_lines(), ScreenConfig(keys=ALL_KEYS, jobs=1))
    assert out.classes
    assert sorted(calls) == sorted(g6 for c in out.classes for g6 in c.members)


def test_screen_computes_each_invariant_once_per_graph(monkeypatch):
    from edgesector import shadows

    calls = Counter()
    real = shadows.invariant

    def counted(g, key, kmax=shadows.DEFAULT_KMAX):
        calls[id(g), key] += 1
        return real(g, key, kmax)

    monkeypatch.setattr(screen, "invariant", counted)
    monkeypatch.setattr(shadows, "invariant", counted)
    fingerprint.cache_clear()
    lines = _oracle_lines()
    out = run_screen(lines, ScreenConfig(keys=ALL_KEYS, jobs=1))
    assert len(out.fingerprints) == len(lines)
    # the stages' values and the fingerprints' other fields, each once
    assert len(calls) == len(lines) * len(ALL_KEYS)
    assert set(calls.values()) == {1}


@pytest.mark.parametrize("jobs", [1, 2])
def test_screen_fingerprints_are_every_kept_graph_in_input_order(jobs):
    lines = _oracle_lines()
    out = run_screen(lines, ScreenConfig(keys=("A", "L", "S"), jobs=jobs))
    want = [fingerprint(screen.parse_graph6(text)) for _, text in lines]
    assert out.fingerprints == want
    assert out.fingerprints is out.fingerprints


def _invariant_failing_on(g6: str):
    """A stand-in for the per-key invariant kernel, which every screen runs
    first, that raises on one graph."""
    real = screen.invariant

    def fake(g, key, kmax):
        if encode_graph6(g) == g6:
            raise ArithmeticError("charpoly went wrong")
        return real(g, key, kmax)

    return fake


def test_screen_names_the_line_of_a_failing_fingerprint(monkeypatch):
    lines = [(i + 10, encode_graph6(g)) for i, g in enumerate(builtin_generate(4))]
    monkeypatch.setattr(screen, "invariant", _invariant_failing_on(lines[3][1]))
    with pytest.raises(ScreenError, match=r"^line 13: ArithmeticError: charpoly went wrong$"):
        run_screen(lines, ScreenConfig(keys=("A",)))


@FORKED
def test_screen_names_the_line_of_a_failing_fingerprint_in_a_worker(monkeypatch, pools, pooled):
    # 21 graphs: more than one chunk, so the A stage runs in a pool
    lines = [(i + 10, encode_graph6(g)) for i, g in enumerate(builtin_generate(5))]
    monkeypatch.setattr(screen, "invariant", _invariant_failing_on(lines[3][1]))
    with pytest.raises(ScreenError, match=r"^line 13: ArithmeticError: charpoly went wrong$"):
        run_screen(lines, ScreenConfig(keys=("A",), jobs=2))
    assert len(pools) == 1


def _invariant_exiting_on(g6: str):
    """A stand-in for the per-key invariant kernel that kills its process
    on one graph."""
    real = screen.invariant

    def fake(g, key, kmax):
        if encode_graph6(g) == g6:
            os._exit(3)
        return real(g, key, kmax)

    return fake


@FORKED
def test_screen_names_the_chunk_of_a_dead_worker(monkeypatch, pooled):
    # 21 graphs in chunks of 8: the worker dies in the first chunk, lines 10-17
    lines = [(i + 10, encode_graph6(g)) for i, g in enumerate(builtin_generate(5))]
    monkeypatch.setattr(screen, "invariant", _invariant_exiting_on(lines[3][1]))
    with pytest.raises(
        ScreenError,
        match=r"^line 10: a pool worker died while lines 10-17 were in flight: BrokenProcessPool: ",
    ):
        run_screen(lines, ScreenConfig(keys=("A",), jobs=2))


@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=FORKED)])
def test_reading_fingerprints_names_the_line_of_a_failing_fingerprint(
    monkeypatch, pools, pooled, jobs
):
    # 21 graphs: more than one chunk, so with jobs=2 the fingerprints run in a pool
    lines = [(i + 10, encode_graph6(g)) for i, g in enumerate(builtin_generate(5))]

    def fake(g, order, kmax, known=()):
        if encode_graph6(g) == lines[3][1]:
            raise ArithmeticError("charpoly went wrong")
        return fingerprint(g, order, kmax, known)

    monkeypatch.setattr(screen, "fingerprint", fake)
    # every graph is alone on A, so the screen itself builds no fingerprint
    out = run_screen(lines, ScreenConfig(keys=("A",), jobs=jobs))
    assert out.classes == []
    with pytest.raises(ScreenError, match=r"^line 13: ArithmeticError: charpoly went wrong$"):
        out.fingerprints
    # the A stage and the fingerprints: one pool each
    assert len(pools) == (2 if jobs > 1 else 0)


def test_pool_screen_reports_pairs_from_the_worker_fingerprints(pooled):
    # 49 of the 112 graphs share their Ihara determinant: more than one chunk
    lines = [(i + 1, encode_graph6(g)) for i, g in enumerate(builtin_generate(6))]
    fingerprint.cache_clear()
    out = run_screen(lines, ScreenConfig(keys=("hashimoto",), jobs=2))
    assert out.summary["pairs_reported"] > 0
    # every fingerprint was computed in a worker; none again in this process
    assert fingerprint.cache_info().currsize == 0


def test_a_screen_of_one_chunk_opens_no_pool(pools, pooled):
    # 6 graphs and the example A pair, a class: every batch fits in one chunk
    graphs = builtin_generate(4) + [corpus_graph(name) for name in PAPER_PAIRS[0]]
    lines = [(i + 1, encode_graph6(g)) for i, g in enumerate(graphs)]
    out = run_screen(lines, ScreenConfig(keys=("A", "L", "S"), jobs=2))
    assert [c.members for c in out.classes] == [tuple(text for _, text in lines[-2:])]
    assert pools == []


def test_reading_fingerprints_of_one_chunk_opens_no_pool(pools, pooled):
    lines = [(i + 1, encode_graph6(g)) for i, g in enumerate(builtin_generate(4))]
    out = run_screen(lines, ScreenConfig(keys=("A",), jobs=2))
    assert len(out.fingerprints) == 6
    assert pools == []


@pytest.mark.parametrize("tasks,workers", [(9, 2), (16, 2), (17, 3)])
def test_a_batch_opens_one_pool_of_at_most_one_worker_per_chunk(pools, pooled, tasks, workers):
    # every connected 5-vertex graph is alone on A
    lines = [(i + 1, encode_graph6(g)) for i, g in enumerate(builtin_generate(5)[:tasks])]
    out = run_screen(lines, ScreenConfig(keys=("A",), jobs=4))
    assert out.stage_counts == {"A": tasks}
    assert [p.max_workers for p in pools] == [workers]


def test_a_pool_opens_no_more_workers_than_the_usable_cpus(monkeypatch, pools, pooled):
    # 21 graphs, three chunks, and far more jobs than the 2 usable CPUs
    monkeypatch.setattr(screen, "_cpus", lambda: 2)
    lines = [(i + 1, encode_graph6(g)) for i, g in enumerate(builtin_generate(5))]
    out = run_screen(lines, ScreenConfig(keys=("A",), jobs=500))
    assert out.stage_counts == {"A": 21}
    assert [p.max_workers for p in pools] == [2]


def test_the_usable_cpus_are_the_affinity_mask_else_the_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert screen._cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert screen._cpus() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert screen._cpus() == 1


def test_every_pool_is_shut_down_before_its_batch_returns(monkeypatch, pools, pooled):
    real = screen._map
    left_open = []

    def checked(tasks, jobs):
        results = real(tasks, jobs)
        left_open.extend(p for p in pools if not p.shut_down)
        return results

    monkeypatch.setattr(screen, "_map", checked)
    lines = [(i + 1, encode_graph6(g)) for i, g in enumerate(builtin_generate(6))]
    out = run_screen(lines, ScreenConfig(keys=("hashimoto",), jobs=2))
    out.fingerprints
    # the stage, the 49 class members and the other 63 graphs
    assert len(pools) == 3
    assert left_open == []


def test_a_cheap_batch_of_three_chunks_runs_in_process(pools):
    # 21 graphs: their A charpolys take far less than screen._POOL_MIN_S
    # all told, and each under screen._POOL_MIN_TASK_S
    lines = [(i + 1, encode_graph6(g)) for i, g in enumerate(builtin_generate(5))]
    out = run_screen(lines, ScreenConfig(keys=("A",), jobs=2))
    assert out.stage_counts == {"A": 21}
    assert pools == []


def test_a_batch_of_tasks_under_the_rate_floor_never_opens_a_pool(monkeypatch, pools):
    # a clock 0.1 ms later at each reading: each chunk of 8 seems to take
    # 0.1 ms, far under screen._POOL_MIN_TASK_S a task, so even with no time
    # limit the 112 graphs and their 49 class members all run in process
    lines = [(i + 1, encode_graph6(g)) for i, g in enumerate(builtin_generate(6))]
    monkeypatch.setattr(screen, "_POOL_MIN_S", 0)
    monkeypatch.setattr(screen, "perf_counter", itertools.count(0, 1e-4).__next__)
    out = run_screen(lines, ScreenConfig(keys=("A",), jobs=2))
    assert out.stage_counts == {"A": 112}
    assert len(out.fingerprints) == 112
    assert pools == []


def test_slow_tasks_send_the_rest_of_their_batch_to_a_pool_at_the_default_limits(
    monkeypatch, pools
):
    # each A stage task made to take at least 3 ms, over the rate floor;
    # after the first chunk the other 104 of the 112 graphs project to at
    # least 0.31 s, over the time limit, whatever the host's speed
    assert screen._POOL_MIN_TASK_S <= 0.003 and 104 * 0.003 >= screen._POOL_MIN_S
    real = screen.invariant

    def slow(g, key, kmax):
        time.sleep(0.003)
        return real(g, key, kmax)

    monkeypatch.setattr(screen, "invariant", slow)
    lines = [(i + 1, encode_graph6(g)) for i, g in enumerate(builtin_generate(6))]
    out = run_screen(lines, ScreenConfig(keys=("A",), jobs=2))
    assert out.stage_counts == {"A": 112}
    assert pools[0].lines == list(range(9, 113))
    assert pools[0].max_workers == 2


def _slow_clock(monkeypatch):
    """screen's clock, one second later at each reading: the first chunk of
    a batch seems to take a second, so the rest goes to a pool."""
    monkeypatch.setattr(screen, "perf_counter", itertools.count().__next__)


def test_a_slow_first_chunk_sends_the_rest_of_its_batch_to_one_pool(monkeypatch, pools):
    # the 21 connected 5-vertex graphs, then the example A pair, a class on A
    graphs = builtin_generate(5) + [corpus_graph(name) for name in PAPER_PAIRS[0]]
    lines = [(i + 10, encode_graph6(g)) for i, g in enumerate(graphs)]
    want = run_screen(lines, ScreenConfig(keys=("A",), jobs=1))
    _slow_clock(monkeypatch)
    out = run_screen(lines, ScreenConfig(keys=("A",), jobs=2))
    assert out.stage_counts == want.stage_counts == {"A": 23}
    assert [c.to_json_dict() for c in out.classes] == [c.to_json_dict() for c in want.classes]
    assert out.fingerprints == want.fingerprints
    # the A stage and the 21 fingerprints still missing: the first chunk of
    # each in process, the rest in one pool; the pair's 2 fingerprints fit
    # in one chunk
    assert [p.lines for p in pools] == [list(range(18, 33)), list(range(18, 31))]
    assert [p.max_workers for p in pools] == [2, 2]


@FORKED
def test_a_worker_dying_in_the_rest_of_a_batch_names_its_chunk(monkeypatch):
    # 21 graphs: lines 10-17 run in process, then a worker dies on line 22,
    # in the rest's first chunk, lines 18-25
    lines = [(i + 10, encode_graph6(g)) for i, g in enumerate(builtin_generate(5))]
    _slow_clock(monkeypatch)
    monkeypatch.setattr(screen, "invariant", _invariant_exiting_on(lines[12][1]))
    with pytest.raises(
        ScreenError,
        match=r"^line 18: a pool worker died while lines 18-25 were in flight: BrokenProcessPool: ",
    ):
        run_screen(lines, ScreenConfig(keys=("A",), jobs=2))


def test_an_invariant_failing_in_process_at_jobs_2_names_its_line(monkeypatch, pools):
    lines = [(i + 10, encode_graph6(g)) for i, g in enumerate(builtin_generate(5))]
    monkeypatch.setattr(screen, "invariant", _invariant_failing_on(lines[3][1]))
    with pytest.raises(ScreenError, match=r"^line 13: ArithmeticError: charpoly went wrong$"):
        run_screen(lines, ScreenConfig(keys=("A",), jobs=2))
    assert pools == []


@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=FORKED)])
def test_a_pair_breaking_the_resolution_principle_stops_the_screen(
    monkeypatch, pools, pooled, jobs
):
    # example A is line-cospectral and its dets first differ at order 8;
    # with the bumped series they differ at order 3, both under order 12.
    # Eight more copies of its first graph join the class, so at jobs=2 its
    # ten fingerprints are more than a chunk and are built in a pool
    g6, h6 = (encode_graph6(corpus_graph(name)) for name in PAPER_PAIRS[0])
    lines = list(enumerate([g6, h6] + [g6] * 8, start=1))
    monkeypatch.setattr(screen, "fingerprint", correction_bumped_on(h6))
    with pytest.raises(ArithmeticError) as caught:
        run_screen(lines, ScreenConfig(keys=("A", "L"), jobs=jobs))
    assert str(caught.value) == (
        f"{g6} vs {h6}: line-cospectral, but the Ihara determinants first "
        "differ at order 8 and the correction series at order 3"
    )
    # the A and L stages and the fingerprints: one pool each
    assert len(pools) == (3 if jobs > 1 else 0)


def _store_lines(*names):
    buf = io.StringIO()
    write_fingerprints_jsonl([fingerprint(corpus_graph(n)) for n in names], buf)
    return buf.getvalue().splitlines(keepends=True)


def test_store_truncated_record_names_its_line():
    first, second = _store_lines("K4", "C6")
    cut = io.StringIO(first + second[: len(second) // 2])
    with pytest.raises(ValueError, match=r"fingerprint store line 2: JSONDecodeError"):
        read_fingerprints_jsonl(cut)


def test_store_missing_field_names_its_line():
    (line,) = _store_lines("K4")
    rec = json.loads(line)
    del rec["shadows"]
    with pytest.raises(ValueError, match=r"fingerprint store line 1: KeyError: 'shadows'"):
        read_fingerprints_jsonl(io.StringIO(json.dumps(rec) + "\n"))


@pytest.mark.parametrize("record", ["[1,2]", "5", "null", '"x"'])
def test_store_non_object_record_names_its_line(record):
    (line,) = _store_lines("K4")
    store = io.StringIO(line + record + "\n")
    with pytest.raises(ValueError, match=r"fingerprint store line 2: TypeError: .*JSON object"):
        read_fingerprints_jsonl(store)


@pytest.mark.parametrize(
    "field,value",
    [
        ("graph6", 5),
        ("n", "4"),
        ("n", True),
        ("m", 6.0),
        ("correction_order", "12"),
        ("correction_order", False),
        ("degrees", "3333"),
        ("degrees", [3, 3, 3, "3"]),
        ("degrees", [3, 3, 3, True]),
    ],
)
def test_store_field_of_a_wrong_type_names_its_line(field, value):
    first, second = _store_lines("K4", "C6")
    rec = json.loads(second)
    rec[field] = value
    store = io.StringIO(first + json.dumps(rec) + "\n")
    with pytest.raises(ValueError, match=rf"fingerprint store line 2: TypeError: {field} must"):
        read_fingerprints_jsonl(store)


def _drop(key):
    return lambda shadows: {k: v for k, v in shadows.items() if k != key}


@pytest.mark.parametrize(
    "field,corrupt,message",
    [
        ("n", lambda n: 99, r"n 99 disagrees with graph6 'C~': 4"),
        ("m", lambda m: 5, r"m 5 disagrees with graph6 'C~': 6"),
        ("degrees", lambda d: [3, 3, 3, 2],
         r"degrees \(3, 3, 3, 2\) disagrees with graph6 'C~': \(3, 3, 3, 3\)"),
        ("degrees", lambda d: [1], r"degrees \(1,\) disagrees with graph6 'C~': \(3, 3, 3, 3\)"),
        ("graph6", lambda g6: "C^", r"m 6 disagrees with graph6 'C\^': 5"),
        ("correction_series", lambda c: c[:3],
         r"correction_series holds 3 coefficients, not correction_order \+ 1 = 13"),
        ("correction_series", lambda c: c + ["0"],
         r"correction_series holds 14 coefficients, not correction_order \+ 1 = 13"),
        ("shadows", _drop("MtM"),
         r"shadow keys \['MMt', 'MtL1M', 'MtL2M'\] are not \['MMt', 'MtM', 'MtL1M', 'MtL2M'\]"),
        ("shadows", _drop("MtL1M"),
         r"shadow keys \['MMt', 'MtL2M', 'MtM'\] are not \['MMt', 'MtM'\]"),
        ("shadows", lambda sh: {**sh, "MtL4M": ["1"]},
         r"shadow keys \['MMt', 'MtL1M', 'MtL2M', 'MtL4M', 'MtM'\] are not "
         r"\['MMt', 'MtM', 'MtL1M', 'MtL2M'\]"),
        ("shadows", lambda sh: {**sh, "MtM": sh["MtM"][:-1] + ["2"]},
         r"shadow MtM disagrees with MMt, whose charpoly it shares"),
        # cut-off polynomials, each read back at the parent as another one
        ("charpoly_adjacency", lambda p: ["1"], r"charpoly_adjacency is not monic of degree 4"),
        ("charpoly_line", lambda p: p[:5], r"charpoly_line is not monic of degree 6"),
        ("charpoly_signed", lambda p: p[:-1] + ["2"], r"charpoly_signed is not monic of degree 6"),
        ("shadows", lambda sh: {**sh, "MMt": sh["MMt"][:6], "MtM": sh["MtM"][:6]},
         r"shadow MMt is not monic of degree 6"),
        ("hashimoto_det", lambda p: ["1", "0", "0"], r"hashimoto_det ends in a zero coefficient"),
        ("hashimoto_det", lambda p: p[1:],
         r"hashimoto_det does not have constant term 1 and degree at most 2m = 12"),
        ("hashimoto_det", lambda p: p + ["1"],
         r"hashimoto_det does not have constant term 1 and degree at most 2m = 12"),
        ("correction_series", lambda c: ["0"] + c[1:],
         r"correction_series does not have constant term 1"),
    ],
    ids=["n", "m", "degrees", "degrees-length", "graph6", "series-short", "series-long",
         "shadows-no-MtM", "shadows-gap", "shadows-extra", "shadows-MtM-differs",
         "A-cut", "L-cut", "S-not-monic", "shadow-cut", "det-trailing-zero", "det-no-unit",
         "det-too-long", "series-no-unit"],
)
def test_store_record_that_disagrees_with_itself_names_its_line(field, corrupt, message):
    first, second = _store_lines("C6", "K4")
    rec = json.loads(second)
    rec[field] = corrupt(rec[field])
    store = io.StringIO(first + json.dumps(rec) + "\n")
    with pytest.raises(ValueError, match=rf"fingerprint store line 2: ValueError: {message}"):
        read_fingerprints_jsonl(store)


@pytest.mark.parametrize(
    "field,corrupt,message",
    [
        ("hashimoto_det", lambda p: "1", r"hashimoto_det must be a list of str, not str"),
        ("shadows", lambda sh: {**sh, "MtL1M": "1"}, r"shadow MtL1M must be a list of str, not str"),
        ("charpoly_adjacency", lambda p: [1.5, "2"],
         r"charpoly_adjacency must be a list of str, not one holding 1\.5"),
        ("correction_series", lambda c: [c[0], 2.9] + c[2:],
         r"correction_series must be a list of str, not one holding 2\.9"),
        ("charpoly_line", lambda p: [True] + p[1:],
         r"charpoly_line must be a list of str, not one holding True"),
    ],
    ids=["string-poly", "string-shadow", "float-coefficient", "float-series", "bool-coefficient"],
)
def test_store_coefficient_that_is_not_a_string_names_its_line(field, corrupt, message):
    # each would otherwise parse as a wrong polynomial: "1" as a list of
    # characters, a number through int()
    first, second = _store_lines("C6", "K4")
    rec = json.loads(second)
    rec[field] = corrupt(rec[field])
    store = io.StringIO(first + json.dumps(rec) + "\n")
    with pytest.raises(ValueError, match=rf"fingerprint store line 2: TypeError: {message}$"):
        read_fingerprints_jsonl(store)


@pytest.mark.parametrize(
    "field,corrupt",
    [
        ("charpoly_adjacency", lambda p: ["1/0"] + p[1:]),
        ("correction_series", lambda c: c[:2] + ["1/0"] + c[3:]),
    ],
    ids=["charpoly", "series"],
)
def test_store_coefficient_with_a_zero_denominator_names_its_line(field, corrupt):
    first, second = _store_lines("C6", "K4")
    rec = json.loads(second)
    rec[field] = corrupt(rec[field])
    store = io.StringIO(first + json.dumps(rec) + "\n")
    with pytest.raises(
        ValueError, match=r"^fingerprint store line 2: ZeroDivisionError: Fraction\(1, 0\)$"
    ):
        read_fingerprints_jsonl(store)


def test_store_line_nested_too_deeply_names_its_line():
    first, _ = _store_lines("C6", "K4")
    store = io.StringIO(first + "[" * 100000 + "\n")
    with pytest.raises(ValueError, match=r"^fingerprint store line 2: RecursionError: "):
        read_fingerprints_jsonl(store)


def test_fingerprint_persistence_roundtrip_grouping():
    graphs = [corpus_graph(n) for n in ["exA_G1", "exA_H1", "K4", "C6"]]
    fps = [fingerprint(g) for g in graphs]
    buf = io.StringIO()
    write_fingerprints_jsonl(fps, buf)
    buf.seek(0)
    back = read_fingerprints_jsonl(buf)
    assert back == fps
    # grouping by key strings reproduces identical classes
    from edgesector.screen import key_string_of

    keys = ("A", "L", "S")
    original = [key_string_of(fp, keys) for fp in fps]
    restored = [key_string_of(fp, keys) for fp in back]
    assert original == restored
