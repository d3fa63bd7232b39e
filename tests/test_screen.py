import io
import json
import multiprocessing
import os
import random
from itertools import permutations

import pytest

from edgesector.graphs import Graph, Graph6Error, corpus_graph, encode_graph6
from edgesector import screen
from edgesector.screen import (
    ScreenConfig,
    ScreenError,
    builtin_generate,
    canonical_label,
    read_fingerprints_jsonl,
    run_screen,
    verify_all,
    write_fingerprints_jsonl,
)
from edgesector.shadows import fingerprint
from conftest import random_connected_graph


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
    assert screen._all_graphs_up_to_iso(n) == vertex_augmentation_oracle(n)


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


def test_canonical_search_returns_the_orbit_of_the_last_vertex():
    rng = random.Random(72)
    graphs = [corpus_graph(name) for name in ("C4", "star3", "K4")]
    graphs += [random_connected_graph(rng, n_max=6) for _ in range(20)]
    graphs += [Graph.from_edges(5, []), Graph.from_edges(6, [(0, 1), (2, 3)])]
    for g in graphs:
        order, last_orbit = screen._canonical_search(g, screen._refine_colors(g))
        autos = [p for p in permutations(range(g.n)) if g.relabel(p) == g]
        assert last_orbit == {p[order[-1]] for p in autos}


def test_canonical_label_separates_nonisomorphic():
    assert certificate(corpus_graph("C4")) != certificate(corpus_graph("star3"))
    assert certificate(corpus_graph("paperG")) != certificate(corpus_graph("paperH"))


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
    assert out.classes[0].pairs[0].all_agree()


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
    real = screen._canonical_search

    def counted(g, colors):
        searches.append(g)
        return real(g, colors)

    monkeypatch.setattr(screen, "_canonical_search", counted)
    monkeypatch.setattr(screen, "canonical_label", labels.append)
    screen._all_graphs_up_to_iso.cache_clear()
    assert len(builtin_generate(5)) == 21
    # candidates whose new vertex has the maximum degree and the top refined color
    passing = 0
    for n in range(1, 6):
        for base in screen._all_graphs_up_to_iso(n - 1):
            for mask in range(1 << (n - 1)):
                joined = [(v, n - 1) for v in range(n - 1) if mask >> v & 1]
                child = Graph.from_edges(n, base.edges + tuple(joined))
                colors = screen._refine_colors(child)
                if child.degrees()[-1] == child.max_degree() and colors[-1] == max(colors):
                    passing += 1
    assert passing == 88
    # one search per such candidate, against 219 labelings of every candidate
    assert len(searches) == passing < 219
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


def test_screen_deterministic_across_jobs():
    graphs = builtin_generate(5)
    lines = [(i + 1, encode_graph6(g)) for i, g in enumerate(graphs)]
    cfg1 = ScreenConfig(keys=("A", "L"), jobs=1)
    cfg2 = ScreenConfig(keys=("A", "L"), jobs=2)
    out1 = run_screen(lines, cfg1)
    out2 = run_screen(lines, cfg2)
    assert [c.to_json_dict() for c in out1.classes] == [c.to_json_dict() for c in out2.classes]
    assert out1.summary == out2.summary


def _fail_on(g6: str):
    """A fingerprint stand-in that raises on one graph."""

    def fake(g, order, kmax):
        if encode_graph6(g) == g6:
            raise ArithmeticError("charpoly went wrong")
        return fingerprint(g, order, kmax)

    return fake


def test_screen_names_the_line_of_a_failing_fingerprint(monkeypatch):
    lines = [(i + 10, encode_graph6(g)) for i, g in enumerate(builtin_generate(4))]
    monkeypatch.setattr(screen, "fingerprint", _fail_on(lines[3][1]))
    with pytest.raises(ScreenError, match=r"^line 13: ArithmeticError: charpoly went wrong$"):
        run_screen(lines, ScreenConfig(keys=("A",)))


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers see the patched fingerprint only when forked",
)
def test_screen_names_the_line_of_a_failing_fingerprint_in_a_worker(monkeypatch):
    lines = [(i + 10, encode_graph6(g)) for i, g in enumerate(builtin_generate(4))]
    monkeypatch.setattr(screen, "fingerprint", _fail_on(lines[3][1]))
    with pytest.raises(ScreenError, match=r"^line 13: ArithmeticError: charpoly went wrong$"):
        run_screen(lines, ScreenConfig(keys=("A",), jobs=2))


def _exit_on(g6: str):
    """A fingerprint stand-in that kills its process on one graph."""

    def fake(g, order, kmax):
        if encode_graph6(g) == g6:
            os._exit(3)
        return fingerprint(g, order, kmax)

    return fake


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers see the patched fingerprint only when forked",
)
def test_screen_names_the_chunk_of_a_dead_worker(monkeypatch):
    # 21 graphs in chunks of 8: the worker dies in the first chunk, lines 10-17
    lines = [(i + 10, encode_graph6(g)) for i, g in enumerate(builtin_generate(5))]
    monkeypatch.setattr(screen, "fingerprint", _exit_on(lines[3][1]))
    with pytest.raises(
        ScreenError,
        match=r"^line 10: a pool worker died while lines 10-17 were in flight: BrokenProcessPool: ",
    ):
        run_screen(lines, ScreenConfig(keys=("A",), jobs=2))


def test_pool_screen_reports_pairs_from_the_worker_fingerprints():
    lines = [(i + 1, encode_graph6(g)) for i, g in enumerate(builtin_generate(5))]
    fingerprint.cache_clear()
    out = run_screen(lines, ScreenConfig(keys=("hashimoto",), jobs=2))
    assert out.summary["pairs_reported"] > 0
    # every fingerprint was computed in a worker; none again in this process
    assert fingerprint.cache_info().currsize == 0


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


def test_verify_all_corpus_samples():
    for name in ["K2", "P3", "C4", "K4", "exB_G2"]:
        results = verify_all(corpus_graph(name))
        assert all(r.ok for r in results), [r for r in results if not r.ok]


def test_verify_all_random():
    rng = random.Random(71)
    for _ in range(5):
        g = random_connected_graph(rng, n_max=7)
        results = verify_all(g)
        assert all(r.ok for r in results), [r for r in results if not r.ok]


def test_verify_all_covers_every_identity_family():
    names = {r.name for r in verify_all(corpus_graph("C4"))}
    for expected in [
        "reversal_involution",
        "shared_endpoint_splitting",
        "sector_identity",
        "bass_vs_hashimoto",
        "factorization",
        "schur_series",
        "log_trace",
        "trivial_roots",
        "regular_collapse",
        "gauge_invariance",
        "spectral_bounds",
        "hermitian_part_split",
    ]:
        assert expected in names
