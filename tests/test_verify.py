import dataclasses
import random

import pytest

from edgesector import verify
from edgesector.edge_space import edge_space, sector_blocks
from edgesector.graphs import Graph, corpus_graph
from edgesector.matrices import Matrix
from edgesector.shadows import shadow_set
from edgesector.verify import CheckResult, verify_all
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


def _patch_regauged_m(monkeypatch, change):
    """Give the battery's sector_blocks a changed M on every regauged space:
    its first call, on the base space, is left as it is."""
    real = verify.sector_blocks
    calls = []

    def patched(space):
        blocks = real(space)
        calls.append(space)
        if len(calls) == 1:
            return blocks
        rows = [list(row) for row in blocks.M.rows]
        change(rows)
        return dataclasses.replace(blocks, M=Matrix(rows))

    monkeypatch.setattr(verify, "sector_blocks", patched)


@pytest.mark.parametrize("name", ["K4", "exA_G1"])
def test_gauge_invariance_fails_on_a_wrong_mixed_entry(monkeypatch, name):
    def change(rows):
        rows[0][0] += 1

    _patch_regauged_m(monkeypatch, change)
    failed = [r for r in verify_all(corpus_graph(name)) if not r.ok]
    assert failed == [CheckResult("gauge_invariance", False, "MM^t moved under a gauge flip")]


# not K4: its M^t L M and M^t L^2 M are diagonal, so no column flip shows there
@pytest.mark.parametrize("name", ["K3", "exA_G1"])
def test_gauge_invariance_is_stricter_than_the_shadow_charpolys(monkeypatch, name):
    # negating column j of M' = M Sigma is another gauge, so M'M'^t and every
    # shadow charpoly still agree; but M'^t L M' is then not Sigma (M^t L M)
    # Sigma for the drawn Sigma where row j of M^t L M is off-diagonal
    es = edge_space(corpus_graph(name))
    blocks = sector_blocks(es)
    m, line = blocks.M, blocks.L
    mtlm = (m.transpose() * line * m).rows
    j = next(j for j, row in enumerate(mtlm) if any(x for i, x in enumerate(row) if i != j))

    def negate_column(rows):
        for row in rows:
            row[j] = -row[j]

    rows = [list(row) for row in m.rows]
    negate_column(rows)
    other = Matrix(rows)
    assert other * other.transpose() == m * m.transpose()
    powers = [line, line * line]
    assert [(other.transpose() * lk * other).charpoly() for lk in powers] == list(
        shadow_set(es).mtlkm
    )

    _patch_regauged_m(monkeypatch, negate_column)
    failed = [r for r in verify_all(corpus_graph(name)) if not r.ok]
    detail = "M'^t L^1 M' != Sigma M^t L^1 M Sigma under a gauge flip"
    assert failed == [CheckResult("gauge_invariance", False, detail)]


def test_verify_all_null_graph_takes_no_trivial_roots():
    results = verify_all(Graph.from_edges(0, []))
    assert all(r.ok for r in results), [r for r in results if not r.ok]
    assert "trivial_roots" not in {r.name for r in results}
