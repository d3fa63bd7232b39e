"""Acceptance suite: one test per criterion, exact values, stated budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines and timings.
"""

import time
from fractions import Fraction

import pytest

from edgesector.graphs import (
    corpus,
    corpus_graph,
    encode_graph6,
    parse_graph6,
    vertex_triple_multiset,
)
from edgesector.edge_space import edge_space, random_gauge, regauge, sector_blocks, verify_sector_identity
from edgesector.bounds import check_bounds, hashimoto_spectrum, hermitian_part_spectrum_check
from edgesector.census import builtin_generate
from edgesector.shadows import fingerprint, regular_collapse_check, shadow_set
from edgesector.zeta import (
    bass_det,
    factorize,
    hashimoto_det,
    log_trace_check,
    resolution_compare,
    schur_series_check,
    trivial_roots,
)


class Budget:
    def __init__(self, seconds: float, label: str):
        self.seconds = seconds
        self.label = label

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert self.elapsed < self.seconds, (
                f"{self.label}: {self.elapsed:.2f}s exceeded budget {self.seconds}s"
            )
            print(f"PASS {self.label} ({self.elapsed:.2f}s / budget {self.seconds:.0f}s)")
        return False


def test_criterion_01_published_twelve_vertex_pair():
    with Budget(10, "criterion 1: 12-vertex pair"):
        g, h = corpus_graph("paperG"), corpus_graph("paperH")
        assert g.degree_multiset() == (6, 5, 4, 4, 4, 4, 4, 3, 3, 3, 3, 1)
        assert h.degree_multiset() == g.degree_multiset()
        fg, fh = fingerprint(g), fingerprint(h)
        assert fg.charpoly_adjacency == fh.charpoly_adjacency
        assert fg.charpoly_line == fh.charpoly_line
        assert fg.charpoly_signed != fh.charpoly_signed
        assert (3, (3, 5, 6), 2) in vertex_triple_multiset(g)
        assert (3, (3, 5, 6), 2) not in vertex_triple_multiset(h)
        assert hashimoto_det(g)[6] == -28
        assert hashimoto_det(h)[6] == -30
        sg, sh = factorize(g).correction_series, factorize(h).correction_series
        assert sg[6] == Fraction(38663, 32)
        assert sh[6] == Fraction(38599, 32)
        assert sg[6] - sh[6] == 2
        pd = resolution_compare(g, h)
        assert pd.det_first_diff_order == 6
        assert pd.correction_first_diff_order == 6


def test_criterion_02_example_a():
    with Budget(5, "criterion 2: example A"):
        g, h = parse_graph6("H?ABePt"), parse_graph6("H?B@`jh")
        fg, fh = fingerprint(g), fingerprint(h)
        assert fg.charpoly_adjacency == fh.charpoly_adjacency
        assert fg.charpoly_line == fh.charpoly_line
        assert fg.charpoly_signed == fh.charpoly_signed
        for (_, pg), (_, ph) in zip(fg.shadows.named(), fh.shadows.named()):
            assert pg != ph
        dg, dh = hashimoto_det(g), hashimoto_det(h)
        assert dg[8] == 16 and dh[8] == 20
        assert all(dg[k] == dh[k] for k in range(8))


def test_criterion_03_example_b():
    with Budget(5, "criterion 3: example B"):
        g, h = parse_graph6("HCpfdrk"), parse_graph6("HCrRRfw")
        fg, fh = fingerprint(g, order=12), fingerprint(h, order=12)
        assert fg.charpoly_adjacency == fh.charpoly_adjacency
        assert fg.charpoly_line == fh.charpoly_line
        assert fg.charpoly_signed == fh.charpoly_signed
        for (_, pg), (_, ph) in zip(fg.shadows.named(), fh.shadows.named()):
            assert pg != ph
        assert fg.hashimoto_det == fh.hashimoto_det
        assert fg.correction_series.order >= 12
        assert fg.correction_series == fh.correction_series


def test_criterion_04_bass_equals_hashimoto(random_200):
    with Budget(60, "criterion 4: Bass == Hashimoto, corpus + 200 random"):
        for entry in corpus():
            assert bass_det(entry.graph) == hashimoto_det(entry.graph), entry.name
        for g in random_200:
            assert bass_det(g) == hashimoto_det(g)


def test_criterion_05_sector_identity(random_200):
    with Budget(60, "criterion 5: sector identity, corpus + 200 random"):
        for entry in corpus():
            assert verify_sector_identity(edge_space(entry.graph)).ok, entry.name
        for g in random_200:
            assert verify_sector_identity(edge_space(g)).ok


def test_criterion_06_factorization_and_schur(random_50_small):
    with Budget(120, "criterion 6: factorization + Schur series"):
        for entry in corpus():
            assert factorize(entry.graph).identity_holds(), entry.name
            assert schur_series_check(entry.graph, 8), entry.name
        for g in random_50_small:
            assert factorize(g).identity_holds()
            assert schur_series_check(g, 8)


def test_criterion_07_trivial_root_localization(random_200):
    with Budget(120, "criterion 7: trivial-root localization"):
        for entry in corpus():
            assert trivial_roots(entry.graph).ok(), entry.name
        for g in random_200:
            assert trivial_roots(g).ok()


def test_criterion_08_gauge_invariance():
    import random as _random

    with Budget(120, "criterion 8: gauge invariance, 20 gauges per corpus graph"):
        rng = _random.Random(8)
        for entry in corpus():
            es = edge_space(entry.graph)
            base = shadow_set(es)
            m = sector_blocks(es).M
            base_mmt = m * m.transpose()
            for _ in range(20):
                other = regauge(es, random_gauge(rng, entry.graph.m))
                m2 = sector_blocks(other).M
                assert m2 * m2.transpose() == base_mmt, entry.name
                assert shadow_set(other) == base, entry.name


def test_criterion_09_regular_collapse():
    with Budget(30, "criterion 9: regular collapse"):
        for name in ["K3", "K4", "C4", "C5", "C6", "C7", "C8", "petersen"]:
            assert regular_collapse_check(corpus_graph(name)), name


def test_criterion_10_log_trace_identity():
    with Budget(60, "criterion 10: log-trace identity, order 8"):
        for entry in corpus():
            assert log_trace_check(entry.graph, 8), entry.name


def test_criterion_11_numerical_range_bounds():
    with Budget(120, "criterion 11: numerical-range bounds"):
        for entry in corpus():
            report = check_bounds(entry.graph, slack=1e-6)
            assert report.ok, (entry.name, report.violations)
            assert hermitian_part_spectrum_check(entry.graph), entry.name
        star = check_bounds(corpus_graph("star5"))
        assert abs(star.rho_L / 2 - 2.0) < 1e-6
        assert star.d_max - 1 == 4
        assert star.rho_L / 2 < star.d_max - 1
        spectrum = hashimoto_spectrum(corpus_graph("paperG"))
        assert len(spectrum.eigenvalues) == 44
        assert spectrum.max_residual < 1e-8


def test_criterion_12_codec_and_generator():
    with Budget(30, "criterion 12: graph6 codec + builtin generator"):
        for entry in corpus():
            assert parse_graph6(encode_graph6(entry.graph)) == entry.graph, entry.name
        assert len(builtin_generate(4)) == 6
        assert len(builtin_generate(5)) == 21
