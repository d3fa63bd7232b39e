import random

from edgesector.graphs import corpus_graph
from edgesector.verify import verify_all
from conftest import random_connected_graph


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
