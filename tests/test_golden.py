"""Golden digests of the byte output of fingerprint, screen, verify, zeta,
bounds, shadows and examples.

Each digest is the SHA-256 of newline-joined output lines.  A refactor must
leave every digest unchanged; a digest may change only with a fingerprint
schema bump, recorded in CHANGES.md.
"""

import hashlib
import json

import pytest

from edgesector.cli import EXIT_OK, main
from edgesector.graphs import corpus, corpus_names, encode_graph6, is_connected
from edgesector.census import _all_graphs_up_to_iso, builtin_generate
from edgesector.shadows import fingerprint

from conftest import sparse20_graphs, sparse40_graphs


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


CORPUS_DIGESTS = {
    (12, 2): "4ba12baf0277e46cdbfb24e223adf5e69f9557354e5063bbf08c3a39d7f9ca41",
    (8, 0): "b36ab9dde824f2c530421eb27a945004194ae3a23b6a1e43fcc1f576d9f69678",
    (16, 3): "ef10ee90a246667f483b596105b91c1c22d556fa1cb55337f220392476712673",
}
CENSUS6_DIGEST = "b3a7a9eb6bc27d0f74ae035d7a7df3ad3183bf0b78fd5ed108761e331b84596d"
# The two below hash bytes as written to a file, each line newline-ended.
# The fingerprint(g).to_jsonl() lines of the 853 connected 7-vertex graphs
CENSUS7_FILE_DIGEST = "44917217ac451ecd31f0cb5825eb24e7a076d63febf6cea81635c9dd94040c03"
# the stdout of `screen --generate 7 --key A,L,S --json`, the census7 path;
# CI checks the same digest under python -O
SCREEN7_STDOUT_DIGEST = "dfa5e86b4254d15eb0925bb1c1cd3232d51119bc000f5403098b15c4cf3476b2"
# the stdout of `screen --generate 7 --key hashimoto --json`, whose
# --fingerprints-out store hashes to CENSUS7_FILE_DIGEST; CI checks both
# under python -O at jobs 2
SCREEN7_HASHIMOTO_DIGEST = "1e7d2682f7a9c106ffb68c8417030cb8118c61b3b594d49358bf0897304cf083"
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
# The stdout bytes of `zeta NAME` for each corpus name, in corpus order: the
# only output that prints trivial_roots.  CI checks it under python -O
ZETA_CORPUS_TEXT_DIGEST = "bc2b1ca05da3958667c39ed165d84cc219fd254851df4b4fae8c2f776352b5b3"
# the stdout bytes of `verify <every corpus name>`, the text table
VERIFY_CORPUS_TEXT_DIGEST = "f8585a40bad09198b99f718bd4b1effdad2e1e114e6cd6799b15b46d9f60e9ac"
# the stdout bytes of `examples` and of `examples --json`
EXAMPLES_TEXT_DIGEST = "00556b070dbb33241d1c7b1abfdd3295d0e0f916a8d5d4c6b2dd5957859b0743"
EXAMPLES_JSON_DIGEST = "9b5401b013476cffcc2da474ac64c47f600337724babd754c19095c844581059"
# `bounds NAME --json` and `bounds NAME` for each corpus name, in corpus order
BOUNDS_CORPUS_JSON_DIGEST = "4b047728f9cc561be8b4fa99d0d64cee49cc50123f01d447fcc005114d193d3d"
BOUNDS_CORPUS_TEXT_DIGEST = "e20e88023a5005109bea75a997503c24f37202e8f956f4790e016b7284b002fe"
# the stdout bytes of `shadows NAME --json` and of `shadows NAME` for each
# corpus name, in corpus order; CI checks the first under python -O
SHADOWS_CORPUS_JSON_DIGEST = "4ef064fc2528aa443dbff40c6819fe08355eb70195de522aa8d8a7847f749d16"
SHADOWS_CORPUS_TEXT_DIGEST = "0c1b893236692b3ee64e4820f644ddebdbfc782a6372caf67a485d8778a30a34"
# The fingerprint(g).to_jsonl() lines, each newline-ended, of the four
# seeded n=20, m=38 graphs of conftest.sparse20_graphs, whose charpolys take
# both routes: A and deflated Delta Kronecker, Q and the shadow products
# Berkowitz.  CI checks the same digest on the CLI's output under python -O
SPARSE20_FILE_DIGEST = "b158ffbf62b4dd3172f5b1480b6fe1fd343c663d1b0011c148a6a97520454837"
SPARSE20_GRAPH6 = [
    "SxWMCDACPA@?_`?OOc?@OOCO?Oj?C??a?",
    "SiCKACESCAl??PD??G?G__G@p?@ASOGA?",
    "S{PaIB?EO@?OCC?@_COW@GO??eY@?CK??",
    "SqCOPE@PGKG??A`h?@Gd?S?C?ODI??IG?",
]
# the stdout bytes of `verify <SPARSE20_GRAPH6> --json`: at m = 38 the Schur
# check reads its widest digits; CI checks the same digest under python -O
VERIFY_SPARSE20_DIGEST = "97c2ab10bfc6279ac1914291d9ad92bf11ce590df7eada5cb618c9c6f3421f3d"
# likewise the two seeded n=40, m=80 graphs of conftest.sparse40_graphs;
# CI checks the same digest on the CLI's output under python -O
SPARSE40_FILE_DIGEST = "0ea9dd17f7016e806f2b2861e2d156999afdecc99789b4008fea0b472a341173"
SPARSE40_GRAPH6 = [
    "gkGI?CC?__A??C?OAKG?@??O?A@??O?`??A??A???C??O??A??????@A_?OC?O_?IG???O??b?A_?????@G?__WG?_aC???@?@OS?@W?GO??G?QA?????A?Cg@????J??I?",
    "gkaA?`@?KA?G?A?W?O?@??A??AL?????eA??C@????_A???A?CC__??g?o?AO??A?QO?O?PAA?@???c?@??PG??????O?CC??@?@?OaG?G@E?O?A@?_??@G?????G?_??A?",
]
SCREEN6_DIGEST = "7920d12bee370648d07628b1d86e6ea330c64a44031fade472b6dd656c4884cb"
# the stdout of `screen --generate 7 --key shadows --kmax 1 --json`: the
# charpolys of M M^T and M^T L M alone leave no class among the 853 graphs;
# CI checks the same digest under python -O
SCREEN7_SHADOWS_KMAX1_DIGEST = "a4428402de7e19d5eaacca2873531b94ea213656edb44569c885127a5960dad7"
# the stdout of `bounds OVERFLOW22 --json`, n=22, m=44, where Cauchy's start
# circle overflows and the roots start again on the circle of radius
# d_max - 1; CI checks the same digest under python -O
OVERFLOW22_GRAPH6 = "Uq_O__AcE?Cg_O?_?WA?__AU?@o@c?A?AS?ACop?"
BOUNDS_OVERFLOW22_JSON_DIGEST = "af86c2bc1d61bd70e457806de8c02809874c302dd2dfedbd77db2c565c5e0be3"
# the stdout of `verify OVERFLOW22 --json`: its bounds check takes the same
# second start; CI checks the same digest under python -O
VERIFY_OVERFLOW22_JSON_DIGEST = "f3fcea59fef27be5d5172923ef92294ecfb5b1ed709988bb41d11458cd328f72"
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


def test_census_seven_fingerprints():
    graphs = builtin_generate(7)
    assert len(graphs) == 853  # OEIS A001349
    text = "".join(fingerprint(g).to_jsonl() + "\n" for g in graphs)
    assert hashlib.sha256(text.encode()).hexdigest() == CENSUS7_FILE_DIGEST


def test_sparse20_fingerprints():
    graphs = sparse20_graphs()
    assert [encode_graph6(g) for g in graphs] == SPARSE20_GRAPH6
    text = "".join(fingerprint(g).to_jsonl() + "\n" for g in graphs)
    assert hashlib.sha256(text.encode()).hexdigest() == SPARSE20_FILE_DIGEST


def test_sparse40_fingerprints():
    graphs = sparse40_graphs()
    assert [encode_graph6(g) for g in graphs] == SPARSE40_GRAPH6
    text = "".join(fingerprint(g).to_jsonl() + "\n" for g in graphs)
    assert hashlib.sha256(text.encode()).hexdigest() == SPARSE40_FILE_DIGEST


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


def test_screen_generate_seven_census_key(capsys):
    code = main(["screen", "--generate", "7", "--key", "A,L,S", "--json"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == SCREEN7_STDOUT_DIGEST


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_screen_generate_seven_hashimoto_and_store(capsys, tmp_path, jobs):
    store = tmp_path / "census7.jsonl"
    argv = ["screen", "--generate", "7", "--key", "hashimoto", "--json"]
    code = main([*argv, "--jobs", jobs, "--fingerprints-out", str(store)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == SCREEN7_HASHIMOTO_DIGEST
    assert hashlib.sha256(store.read_bytes()).hexdigest() == CENSUS7_FILE_DIGEST


def test_screen_generate_seven_shadows_kmax1(capsys):
    code = main(["screen", "--generate", "7", "--key", "shadows", "--kmax", "1", "--json"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert json.loads(out.splitlines()[-1])["summary"]["classes_nontrivial"] == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SCREEN7_SHADOWS_KMAX1_DIGEST


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


def test_verify_sparse20_json(capsys):
    assert main(["verify", *SPARSE20_GRAPH6, "--json"]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SPARSE20_DIGEST


def test_zeta_corpus_json(capsys):
    lines = []
    for name in corpus_names():
        assert main(["zeta", name, "--json"]) == EXIT_OK
        lines += capsys.readouterr().out.splitlines()
    assert _digest(lines) == ZETA_CORPUS_DIGEST


def test_verify_corpus_text(capsys):
    code = main(["verify", *corpus_names()])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_CORPUS_TEXT_DIGEST


def test_zeta_corpus_text(capsys):
    out = ""
    for name in corpus_names():
        assert main(["zeta", name]) == EXIT_OK
        out += capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ZETA_CORPUS_TEXT_DIGEST


@pytest.mark.parametrize("flags,expect", [([], EXAMPLES_TEXT_DIGEST), (["--json"], EXAMPLES_JSON_DIGEST)])
def test_examples(capsys, flags, expect):
    assert main(["examples", *flags]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == expect


@pytest.mark.parametrize(
    "flags,expect", [(["--json"], BOUNDS_CORPUS_JSON_DIGEST), ([], BOUNDS_CORPUS_TEXT_DIGEST)]
)
def test_bounds_corpus(capsys, flags, expect):
    lines = []
    for name in corpus_names():
        assert main(["bounds", name, *flags]) == EXIT_OK
        lines += capsys.readouterr().out.splitlines()
    assert _digest(lines) == expect


def test_bounds_where_the_cauchy_start_overflows(capsys):
    assert main(["bounds", OVERFLOW22_GRAPH6, "--json"]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == BOUNDS_OVERFLOW22_JSON_DIGEST


def test_verify_where_the_cauchy_start_overflows(capsys):
    assert main(["verify", OVERFLOW22_GRAPH6, "--json"]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_OVERFLOW22_JSON_DIGEST


@pytest.mark.parametrize(
    "flags,expect", [(["--json"], SHADOWS_CORPUS_JSON_DIGEST), ([], SHADOWS_CORPUS_TEXT_DIGEST)]
)
def test_shadows_corpus(capsys, flags, expect):
    out = ""
    for name in corpus_names():
        assert main(["shadows", name, *flags]) == EXIT_OK
        out += capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == expect
