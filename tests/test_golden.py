"""Golden digests of the byte output of fingerprint and screen.

Each digest is the SHA-256 of newline-joined output lines.  A refactor must
leave every digest unchanged; a digest may change only with a fingerprint
schema bump, recorded in CHANGES.md.
"""

import hashlib

import pytest

from edgesector.cli import EXIT_OK, main
from edgesector.graphs import corpus
from edgesector.screen import builtin_generate
from edgesector.shadows import fingerprint


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


CORPUS_DIGESTS = {
    (12, 2): "4ba12baf0277e46cdbfb24e223adf5e69f9557354e5063bbf08c3a39d7f9ca41",
    (8, 0): "b36ab9dde824f2c530421eb27a945004194ae3a23b6a1e43fcc1f576d9f69678",
    (16, 3): "ef10ee90a246667f483b596105b91c1c22d556fa1cb55337f220392476712673",
}
CENSUS6_DIGEST = "b3a7a9eb6bc27d0f74ae035d7a7df3ad3183bf0b78fd5ed108761e331b84596d"
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
