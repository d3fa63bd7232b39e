import argparse
import json
import multiprocessing
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import edgesector
from edgesector import zeta
from edgesector.cli import EXIT_CHECK_FAILED, EXIT_INPUT_ERROR, EXIT_OK, build_parser, main
from edgesector.graphs import encode_graph6
from conftest import _tree_plus_chords, correction_bumped_on


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_examples(capsys):
    code, out, _ = run_cli(capsys, "examples")
    assert code == EXIT_OK
    assert "paperG" in out and "petersen" in out


def test_examples_json(capsys):
    code, out, _ = run_cli(capsys, "examples", "--json")
    assert code == EXIT_OK
    names = [json.loads(line)["name"] for line in out.strip().splitlines()]
    assert "exB_H2" in names


def test_zeta_corpus_name(capsys):
    code, out, _ = run_cli(capsys, "zeta", "K3")
    assert code == EXIT_OK
    assert "det(I - wT)" in out and "w^6" in out


def test_zeta_json(capsys):
    code, out, _ = run_cli(capsys, "zeta", "P3", "--json")
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["hashimoto_det"] == ["1"]
    assert rec["correction_series"][2] == "1/4"


def test_zeta_graph6_argument(capsys):
    code, out, _ = run_cli(capsys, "zeta", "Bw", "--json")  # K3 as graph6
    assert code == EXIT_OK
    assert json.loads(out)["hashimoto_det"] == ["1", "0", "0", "-2", "0", "0", "1"]


def test_one_zeta_run_computes_each_ihara_polynomial_once(capsys, monkeypatch):
    # factorize computes det(I - wT) and the charpoly of Q - 2I; trivial_roots
    # reads factorize's cached result
    calls = []
    for name in ("ihara_det", "_q_minus_2_charpoly"):
        original = getattr(zeta, name)

        def counting(g, _name=name, _original=original):
            calls.append(_name)
            return _original(g)

        monkeypatch.setattr(zeta, name, counting)
    g = _tree_plus_chords(random.Random("zeta/once"), 12, 20)
    zeta.factorize.cache_clear()
    try:
        code, out, _ = run_cli(capsys, "zeta", encode_graph6(g), "--order", "5")
    finally:
        zeta.factorize.cache_clear()
    assert code == EXIT_OK and "trivial roots" in out
    assert sorted(calls) == ["_q_minus_2_charpoly", "ihara_det"]


def test_shadows(capsys):
    code, out, _ = run_cli(capsys, "shadows", "K3", "--raw")
    assert code == EXIT_OK
    assert "MMt" in out and "gauge-dependent" in out


def test_shadows_raw_json_matrix_export(capsys):
    code, out, _ = run_cli(capsys, "shadows", "K3", "--raw", "--json")
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["mixed_block"]["rows"] == 3
    assert rec["mixed_block"]["entries"][0] == ["0", "-1", "-1"]


def test_bounds(capsys):
    code, out, _ = run_cli(capsys, "bounds", "star5")
    assert code == EXIT_OK
    assert "rho(L)/2" in out


def test_bounds_json(capsys):
    code, out, _ = run_cli(capsys, "bounds", "C6", "--json")
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["ok"] is True
    assert "margins" in rec


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_bounds_computes_the_spectrum_once(capsys, monkeypatch, json_flag):
    from edgesector import bounds, cli

    calls = []
    real = bounds.hashimoto_spectrum

    def counted(g, *args, **kwargs):
        calls.append(g)
        return real(g, *args, **kwargs)

    monkeypatch.setattr(bounds, "hashimoto_spectrum", counted)
    # counts a spectrum the CLI might compute itself, too
    monkeypatch.setattr(cli, "hashimoto_spectrum", counted, raising=False)
    code, out, _ = run_cli(capsys, "bounds", "paperG", *json_flag)
    assert code == EXIT_OK
    assert ("max residual = " in out) != bool(json_flag)
    assert len(calls) == 1


def test_parser_defaults_are_the_library_defaults():
    from edgesector.bounds import DEFAULT_BOUND_SLACK
    from edgesector.screen import ScreenConfig
    from edgesector.shadows import DEFAULT_KMAX
    from edgesector.zeta import DEFAULT_ORDER

    parser = build_parser()
    cfg = ScreenConfig()
    screen = parser.parse_args(["screen"])
    assert (screen.order, screen.kmax, screen.jobs, screen.max_pairs) == (
        cfg.order, cfg.kmax, cfg.jobs, cfg.max_pairs_per_class
    )
    assert screen.key == ",".join(cfg.keys)
    assert parser.parse_args(["zeta", "K2"]).order == DEFAULT_ORDER
    assert parser.parse_args(["shadows", "K2"]).kmax == DEFAULT_KMAX
    assert parser.parse_args(["bounds", "K2"]).tol == DEFAULT_BOUND_SLACK


def test_fingerprint(capsys):
    code, out, _ = run_cli(capsys, "fingerprint", "K2", "exA_G1")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[1])["graph6"] == "H?ABePt"


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
def test_bounds_rejects_a_meaningless_tol(capsys, tol):
    # --tol=-inf, as argparse takes a lone -inf for an option
    code, out, err = run_cli(capsys, "bounds", "K4", f"--tol={tol}", "--json")
    assert code == EXIT_INPUT_ERROR
    assert err.startswith("error:") and "slack" in err
    assert out == ""


@pytest.mark.parametrize("tol", ["0", "1e-6"])
def test_bounds_accepts_a_finite_nonnegative_tol(capsys, tol):
    code, out, _ = run_cli(capsys, "bounds", "K4", "--tol", tol, "--json")
    assert code == EXIT_OK
    assert json.loads(out)["ok"] is True


def test_null_graph_takes_no_trivial_roots(capsys):
    code, out, _ = run_cli(capsys, "verify", "?")
    assert code == EXIT_OK
    assert "FAIL" not in out and "trivial_roots" not in out
    assert "gauge_invariance" in out
    code, out, _ = run_cli(capsys, "zeta", "?")
    assert code == EXIT_OK
    assert "trivial roots" not in out and out.startswith("det(I - wT)")


def test_verify_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "C4")
    assert code == EXIT_OK
    assert "pass" in out and "FAIL" not in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "K2", "--json")
    assert code == EXIT_OK
    rec = json.loads(out)
    assert all(c["ok"] for c in rec["checks"])


def test_verify_survives_python_O():
    # runtime checks are explicit raises, so -O (which drops asserts) keeps them
    src = str(Path(edgesector.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "edgesector.cli", "verify", "K4", "--json"],
        capture_output=True, text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    checks = json.loads(proc.stdout)["checks"]
    assert all(c["ok"] for c in checks)
    assert "mixed_products_cospectral" in {c["name"] for c in checks}


def test_shared_flags_only_where_read():
    expected = {
        "examples": {"json"},
        "zeta": {"order", "json"},
        "shadows": {"kmax", "json"},
        "bounds": {"tol", "json"},
        "fingerprint": {"order", "kmax"},
        "verify": {"order", "json"},
        "screen": {"order", "kmax", "json", "jobs"},
    }
    shared = {"order", "kmax", "json", "jobs", "tol"}
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, parser in sub.choices.items():
        flags = {opt[2:] for a in parser._actions for opt in a.option_strings}
        assert flags & shared == expected[name], name


def test_verify_order_zero_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "K4", "--order", "0")
    assert code == EXIT_INPUT_ERROR
    assert err.startswith("error:")
    assert out == ""


def test_negative_order_exits_2(capsys):
    for argv in (
        ["zeta", "K4", "--order", "-1"],
        ["fingerprint", "K4", "--order", "-1"],
        ["screen", "--generate", "4", "--order", "-1", "--key", "A,hashimoto"],
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_INPUT_ERROR, argv
        assert err.startswith("error:"), argv


def test_screen_bad_jobs_or_max_pairs_exits_2(capsys):
    for argv in (
        ["screen", "--generate", "4", "--key", "A", "--jobs", "0"],
        ["screen", "--generate", "4", "--key", "A", "--max-pairs", "-1", "--json"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_INPUT_ERROR, argv
        assert err.startswith("error:"), argv
        assert out == "", argv
    code, out, _ = run_cli(capsys, "screen", "--generate", "4", "--key", "A", "--max-pairs", "0", "--json")
    assert code == EXIT_OK
    assert json.loads(out.strip().splitlines()[-1])["summary"]["pairs_reported"] == 0


def test_screen_generate_with_input_exits_2(tmp_path, capsys):
    census = tmp_path / "pair.g6"
    census.write_text("H?ABePt\nH?B@`jh\n")
    for path in (str(census), "-", str(tmp_path / "missing.g6")):
        code, out, err = run_cli(capsys, "screen", "--generate", "4", "--input", path, "--json")
        assert code == EXIT_INPUT_ERROR, path
        assert err.startswith("error:") and "--input" in err, path
        assert out == "", path


def test_screen_repeated_key_exits_2(capsys):
    code, out, err = run_cli(capsys, "screen", "--generate", "4", "--key", "A,A", "--json")
    assert code == EXIT_INPUT_ERROR
    assert err.startswith("error:") and "'A' is repeated" in err
    assert out == ""


def test_unknown_graph_exits_2(capsys):
    code, _, err = run_cli(capsys, "zeta", "no_such_graph")
    assert code == EXIT_INPUT_ERROR
    assert "error" in err


def test_screen_from_file(tmp_path, capsys):
    census = tmp_path / "pair.g6"
    census.write_text(">>graph6<<\nH?ABePt\nH?B@`jh\n")
    code, out, _ = run_cli(capsys, "screen", "--input", str(census), "--key", "A,L,S", "--json")
    assert code == EXIT_OK
    lines = [json.loads(line) for line in out.strip().splitlines()]
    classes = [rec for rec in lines if "members" in rec]
    assert len(classes) == 1
    assert classes[0]["members"] == ["H?ABePt", "H?B@`jh"]
    assert lines[-1]["summary"]["pairs_separated_by"]["shadows"] == 1


def test_screen_generate(capsys):
    code, out, _ = run_cli(capsys, "screen", "--generate", "4", "--key", "A", "--json")
    assert code == EXIT_OK
    summary = json.loads(out.strip().splitlines()[-1])["summary"]
    assert summary["read"] == 6  # six connected graphs on four vertices


def test_screen_bad_input_exits_2(tmp_path, capsys):
    census = tmp_path / "bad.g6"
    census.write_text("A_\n@@@@~~~\n")
    code, _, err = run_cli(capsys, "screen", "--input", str(census))
    assert code == EXIT_INPUT_ERROR
    assert "line 2" in err


def test_screen_failing_fingerprint_exits_1_with_its_line(tmp_path, capsys, monkeypatch):
    from edgesector import screen

    def broken(g, key, kmax):
        raise ArithmeticError("no charpoly")

    # the per-key kernel runs first, on every graph that shares its bucket
    monkeypatch.setattr(screen, "invariant", broken)
    census = tmp_path / "two.g6"
    census.write_text(">>graph6<<\nBw\nBW\n")
    code, out, err = run_cli(capsys, "screen", "--input", str(census))
    assert code == EXIT_CHECK_FAILED
    assert out == ""
    assert err == "error: line 2: ArithmeticError: no charpoly\n"


def test_screen_fingerprints_out_exits_1_when_a_fingerprint_fails(tmp_path, capsys, monkeypatch):
    from edgesector import screen

    def broken(g, order, kmax, known=()):
        raise ArithmeticError("no charpoly")

    monkeypatch.setattr(screen, "fingerprint", broken)
    census = tmp_path / "two.g6"
    census.write_text(">>graph6<<\nBw\nBW\n")
    store = tmp_path / "fps.jsonl"
    # both graphs are alone on A, so only the store needs their fingerprints
    code, _, _ = run_cli(capsys, "screen", "--input", str(census), "--key", "A")
    assert code == EXIT_OK
    code, out, err = run_cli(
        capsys, "screen", "--input", str(census), "--key", "A", "--fingerprints-out", str(store)
    )
    assert code == EXIT_CHECK_FAILED
    assert out == ""
    assert err == "error: line 2: ArithmeticError: no charpoly\n"
    assert not store.exists()


def test_screen_pair_breaking_the_resolution_principle_exits_1(tmp_path, capsys, monkeypatch):
    from edgesector import screen

    # example A's correction series now first differ at order 3, its Ihara
    # determinants still at order 8
    monkeypatch.setattr(screen, "fingerprint", correction_bumped_on("H?B@`jh"))
    census = tmp_path / "example_a.g6"
    census.write_text("H?ABePt\nH?B@`jh\n")
    code, out, err = run_cli(capsys, "screen", "--input", str(census), "--key", "A,L")
    assert code == EXIT_CHECK_FAILED
    assert out == ""
    assert err == (
        "error: H?ABePt vs H?B@`jh: line-cospectral, but the Ihara determinants "
        "first differ at order 8 and the correction series at order 3\n"
    )


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers see the patched fingerprint only when forked",
)
def test_screen_dead_worker_exits_1_with_its_chunk(capsys, monkeypatch, pooled):
    from edgesector import census, screen

    first = encode_graph6(census.builtin_generate(5)[0])
    real = screen.invariant

    def dies(g, key, kmax):
        if encode_graph6(g) == first:
            os._exit(3)
        return real(g, key, kmax)

    monkeypatch.setattr(screen, "invariant", dies)
    code, out, err = run_cli(capsys, "screen", "--generate", "5", "--jobs", "2")
    assert code == EXIT_CHECK_FAILED
    assert out == ""
    assert err.startswith("error: line 1: a pool worker died while lines 1-8 were in flight: ")


def test_screen_fingerprint_store_roundtrip(tmp_path, capsys):
    census = tmp_path / "pair.g6"
    census.write_text("HCpfdrk\nHCrRRfw\n")
    store = tmp_path / "fps.jsonl"
    code, _, _ = run_cli(
        capsys, "screen", "--input", str(census), "--fingerprints-out", str(store)
    )
    assert code == EXIT_OK
    with open(store) as fh:
        from edgesector.screen import read_fingerprints_jsonl

        fps = read_fingerprints_jsonl(fh)
    assert [fp.graph6 for fp in fps] == ["HCpfdrk", "HCrRRfw"]


def test_screen_input_non_ascii_line_exits_2_with_its_line(tmp_path, capsys):
    census = tmp_path / "accent.g6"
    census.write_bytes(b"A_\nB\xc3\xa9\nBw\n")
    code, out, err = run_cli(capsys, "screen", "--input", str(census))
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert err.startswith("error: line 2: ")


def test_screen_input_skips_a_non_ascii_line(tmp_path, capsys):
    census = tmp_path / "accent.g6"
    census.write_bytes(b"A_\nB\xc3\xa9\nBw\n")
    code, out, _ = run_cli(capsys, "screen", "--input", str(census), "--skip-malformed", "--json")
    assert code == EXIT_OK
    summary = json.loads(out.splitlines()[-1])["summary"]
    assert (summary["read"], summary["malformed_skipped"], summary["kept"]) == (3, 1, 2)


@pytest.mark.parametrize("skip", [False, True])
def test_screen_stdin_reads_a_non_ascii_line_like_a_file(skip):
    # a strict UTF-8 stdin must not fail on decoding before any line is read
    src = str(Path(edgesector.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    argv = ["screen", "--json"] + (["--skip-malformed"] if skip else [])
    proc = subprocess.run(
        [sys.executable, "-m", "edgesector.cli", *argv],
        input=b"A_\n\xff\nBw\n", capture_output=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=path, PYTHONIOENCODING="utf-8:strict"),
    )
    if skip:
        assert proc.returncode == EXIT_OK, proc.stderr
        summary = json.loads(proc.stdout.splitlines()[-1])["summary"]
        assert (summary["read"], summary["malformed_skipped"], summary["kept"]) == (3, 1, 2)
    else:
        assert proc.returncode == EXIT_INPUT_ERROR
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"error: line 2: ")


def test_screen_store_skips_malformed_lines(tmp_path, capsys):
    census = tmp_path / "mixed.g6"
    census.write_text("A_\nnot-a-graph!!!\nBw\n")
    store = tmp_path / "fps.jsonl"
    code, _, _ = run_cli(
        capsys, "screen", "--input", str(census), "--skip-malformed",
        "--fingerprints-out", str(store),
    )
    assert code == EXIT_OK
    with open(store) as fh:
        from edgesector.screen import read_fingerprints_jsonl

        fps = read_fingerprints_jsonl(fh)
    assert [fp.graph6 for fp in fps] == ["A_", "Bw"]


@pytest.mark.slow
def test_bounds_and_verify_exit_0_on_seeded_graphs_from_n20_to_n40(capsys):
    # twenty graphs with m = 2n and n spread over 20..40, past 2m = 76,
    # where Cauchy's start circle overflows; about a minute
    for j in range(20):
        n = 20 + 20 * j // 19
        g6 = encode_graph6(_tree_plus_chords(random.Random(f"cli-sweep/{j}"), n, 2 * n))
        assert main(["bounds", g6]) == EXIT_OK, g6
        assert main(["verify", g6]) == EXIT_OK, g6
        capsys.readouterr()
