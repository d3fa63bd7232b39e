"""Golden digests of the byte output of fingerprint, screen, verify and zeta.

Each digest is the SHA-256 of newline-joined output lines.  A refactor must
leave every digest unchanged; a digest may change only with a fingerprint
schema bump, recorded in CHANGES.md.
"""

import hashlib

import pytest

from edgesector.cli import EXIT_OK, main
from edgesector.graphs import corpus, corpus_names, encode_graph6, is_connected
from edgesector.census import _all_graphs_up_to_iso, builtin_generate
from edgesector.shadows import fingerprint


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


CORPUS_DIGESTS = {
    (12, 2): "4ba12baf0277e46cdbfb24e223adf5e69f9557354e5063bbf08c3a39d7f9ca41",
    (8, 0): "b36ab9dde824f2c530421eb27a945004194ae3a23b6a1e43fcc1f576d9f69678",
    (16, 3): "ef10ee90a246667f483b596105b91c1c22d556fa1cb55337f220392476712673",
}
CENSUS6_DIGEST = "b3a7a9eb6bc27d0f74ae035d7a7df3ad3183bf0b78fd5ed108761e331b84596d"
# all 1044 graphs on 7 vertices, disconnected ones included, in output order
GENERATED7_DIGEST = "f9a7d1de9e3cf7e112738a7c605b3948cfba9652db8fba2de83f7167e72a1d11"
# likewise the 12346 graphs on 8 and the 274668 on 9 vertices, both taken
# from the generator that walked every best vertex order (no twin pruning)
GENERATED8_DIGEST = "0c6a4c9a78f4717656b63f020f4efd9314d7c1e6cbe71ca5f98f24325de49473"
GENERATED9_DIGEST = "4d6fefa6b9b385907eb20f435ce0a662a2b930e501c62dd4aa60fbde6b9a8fef"
# `verify <every corpus name> --json`: check names, order, results and details
VERIFY_CORPUS_DIGEST = "7023f2e3eb96149a917ba7fccbb48ea2025f1e96675dc69068acc0e9abc943bd"
# `zeta NAME --json` for each corpus name, in corpus order
ZETA_CORPUS_DIGEST = "d3cf41249931d287900d55f9aef3e300499b109d83db1e55a5494b8f4c12d9ac"
SCREEN6_DIGEST = "7920d12bee370648d07628b1d86e6ea330c64a44031fade472b6dd656c4884cb"
# 14 Ihara-cospectral classes, 56 pair reports: pins the PairReport fields
SCREEN6_HASHIMOTO_DIGEST = "7c72459c237480d45d1f7c54c49448e4d32bc0c4ec00f11acb59ac466e15aec9"


@pytest.mark.parametrize("order,kmax", sorted(CORPUS_DIGESTS))
def test_corpus_fingerprints(order, kmax):
    lines = [fingerprint(e.graph, order, kmax).to_jsonl() for e in corpus()]
    assert _digest(lines) == CORPUS_DIGESTS[(order, kmax)]


def test_census_up_to_six_fingerprints():
    graphs = [g for n in range(1, 7) for g in builtin_generate(n)]
    assert len(graphs) == 143
    assert _digest(fingerprint(g).to_jsonl() for g in graphs) == CENSUS6_DIGEST


def test_generator_up_to_seven():
    graphs = _all_graphs_up_to_iso(7)
    assert len(graphs) == 1044
    assert _digest(encode_graph6(g) for g in graphs) == GENERATED7_DIGEST


def test_generator_on_eight_vertices():
    graphs = _all_graphs_up_to_iso(8)
    assert len(graphs) == 12346
    assert sum(map(is_connected, graphs)) == 11117  # OEIS A001349
    assert _digest(encode_graph6(g) for g in graphs) == GENERATED8_DIGEST


@pytest.mark.slow
def test_generator_on_nine_vertices():
    graphs = _all_graphs_up_to_iso(9)
    assert len(graphs) == 274668
    assert sum(map(is_connected, graphs)) == 261080
    assert _digest(encode_graph6(g) for g in graphs) == GENERATED9_DIGEST


def test_screen_generate_six_full_key(capsys):
    code = main(["screen", "--generate", "6", "--key", "A,L,S,shadows,hashimoto", "--json"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert _digest(out.splitlines()) == SCREEN6_DIGEST


def test_screen_generate_six_hashimoto_pairs(capsys):
    code = main(["screen", "--generate", "6", "--key", "hashimoto", "--json"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert _digest(out.splitlines()) == SCREEN6_HASHIMOTO_DIGEST


def test_verify_corpus_json(capsys):
    code = main(["verify", *corpus_names(), "--json"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert _digest(out.splitlines()) == VERIFY_CORPUS_DIGEST


def test_zeta_corpus_json(capsys):
    lines = []
    for name in corpus_names():
        assert main(["zeta", name, "--json"]) == EXIT_OK
        lines += capsys.readouterr().out.splitlines()
    assert _digest(lines) == ZETA_CORPUS_DIGEST
