"""Seeded mutation of every input boundary: graph6 lines, screen input,
fingerprint store records and command-line arguments.

Each mutated input is either accepted or rejected with the documented
exception, which names its line: Graph6Error for parse_graph6 and
run_screen, ValueError for read_fingerprints_jsonl.  The CLI returns 0, 1
or 2, exits 2 on an argument error, and lets no exception out.  Tier-1 runs
a few seeds; `pytest -m slow` runs a larger range.  Nothing here starts a
worker process: every screen runs at jobs 1 or on batches of at most one
chunk.  Uses stdlib random only.
"""

import io
import json
import random
import sys

import pytest

from edgesector.census import builtin_generate
from edgesector.cli import EXIT_CHECK_FAILED, EXIT_INPUT_ERROR, EXIT_OK, main
from edgesector.graphs import Graph, Graph6Error, encode_graph6, parse_graph6, read_graph6_lines
from edgesector.screen import _CHUNK, ScreenConfig, read_fingerprints_jsonl, run_screen
from edgesector.shadows import fingerprint

TIER1_SEEDS = range(2)
SLOW_SEEDS = range(2, 40)

# graph6 lines of every connected graph on at most 5 vertices, and of the
# empty graph on 0 and 3 vertices
GRAPH6 = [encode_graph6(g) for n in range(1, 6) for g in builtin_generate(n)]
GRAPH6 += ["?", "B?"]
# characters a mutation writes: the graph6 range, its edges, the sparse6,
# digraph6 and long-size markers, whitespace, control, non-ASCII and a lone
# surrogate
ALPHABET = [chr(c) for c in range(63, 127)] + list(">:&~ \t\n\r\x00\x7f0-é\udc80")


def mutate(s: str, rng: random.Random) -> str:
    """s after one to three random edits."""
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(0, len(s))
        op = rng.randrange(7)
        if op == 0 and s:
            s = s[: min(k, len(s) - 1)] + rng.choice(ALPHABET) + s[min(k, len(s) - 1) + 1 :]
        elif op == 1:
            s = s[:k] + rng.choice(ALPHABET) + s[k:]
        elif op == 2:
            s = s[:k] + s[k + 1 :]
        elif op == 3:
            s = s[:k]
        elif op == 4:
            j = rng.randint(k, len(s))
            s = s[:j] + s[k:j] + s[j:]
        elif op == 5:
            s = rng.choice([">>graph6<<", ">>sparse6<<", "~", " ", ""]) + s
        else:
            s = "".join(rng.sample(s, len(s)))
    return s


def _check_graph6(text: str) -> Graph | None:
    """The graph text decodes to, which encodes back to it, or None if it
    is rejected with a Graph6Error carrying an offset."""
    try:
        g = parse_graph6(text)
    except Graph6Error as exc:
        assert exc.offset is not None, text
        return None
    payload = text.strip()
    if payload.startswith(">>graph6<<"):
        payload = payload[len(">>graph6<<") :]
    assert encode_graph6(g) == payload, text
    return g


def _fuzz_graph6(seed: int, count: int) -> None:
    rng = random.Random(f"graph6/{seed}")
    for _ in range(count):
        _check_graph6(mutate(rng.choice(GRAPH6), rng))


def _fuzz_screen(seed: int, count: int) -> None:
    rng = random.Random(f"screen/{seed}")
    for _ in range(count):
        lines = [rng.choice(GRAPH6) for _ in range(rng.randint(1, _CHUNK - 1))]
        lines.append(rng.choice(lines))  # a class of two, if the copy survives
        for _ in range(rng.randint(1, 3)):
            k = rng.randrange(len(lines))
            lines[k] = mutate(lines[k], rng)
        payload = list(read_graph6_lines(lines))
        bad = [lineno for lineno, text in payload if _check_graph6(text) is None]
        keys = rng.choice([("A", "L", "S"), ("hashimoto",), ("A", "shadows")])
        for skip in (False, True):
            cfg = ScreenConfig(keys=keys, skip_malformed=skip)
            try:
                result = run_screen(iter(payload), cfg)
            except Graph6Error as exc:
                assert not skip and bad, lines
                assert str(exc).startswith(f"line {bad[0]}: "), (lines, str(exc))
                continue
            assert skip or not bad, lines
            assert result.summary["read"] == len(payload)
            assert result.summary["malformed_skipped"] == len(bad)
            assert result.summary["kept"] == len(payload) - len(bad)


STORE = [fingerprint(g, 8, 2).to_jsonl() for g in builtin_generate(4)]
# JSON values a record mutation writes in place of a field or an element
VALUES = [
    None, True, False, 0, -1, 3, 2**70, 1.5, "", "x", "1", "1/0", "1/2", "-0",
    [], {}, ["1"], [["1"]], {"1": "1"},
]


def _mutate_record(line: str, rng: random.Random) -> str:
    if rng.random() < 0.3:
        return mutate(line, rng)
    if rng.random() < 0.05:
        depth = rng.choice([10, 5000])
        return "[" * depth + "]" * depth
    rec = json.loads(line)
    target, key = rec, rng.choice(sorted(rec))
    # descend into a nested list or dict about half the time
    while isinstance(target[key], (list, dict)) and target[key] and rng.random() < 0.5:
        target = target[key]
        key = rng.randrange(len(target)) if isinstance(target, list) else rng.choice(sorted(target))
    op = rng.randrange(4)
    if op == 0 and isinstance(target, dict):
        del target[key]
    elif op == 1 and isinstance(target, list):
        target.append(rng.choice(VALUES))
    elif op == 2 and isinstance(target[key], str):
        target[key] = mutate(target[key], rng)
    else:
        target[key] = rng.choice(VALUES)
    return json.dumps(rec)


def _fuzz_store(seed: int, count: int) -> None:
    rng = random.Random(f"store/{seed}")
    for _ in range(count):
        lines = list(STORE)
        k = rng.randrange(len(lines))
        lines[k] = _mutate_record(lines[k], rng)
        text = "\n".join(lines) + "\n"
        # a newline the mutation wrote splits record k over several lines
        named = {f"fingerprint store line {k + 1 + j}: " for j in range(lines[k].count("\n") + 1)}
        try:
            fps = read_fingerprints_jsonl(io.StringIO(text))
        except ValueError as exc:
            assert str(exc).startswith(tuple(named)), (lines[k], str(exc))
            continue
        assert len(fps) == sum(1 for line in io.StringIO(text) if line.strip())


# argument lists of every subcommand, on small graphs and cheap inputs; a
# screen of at most 4 vertices, or of a file of at most one chunk of lines,
# runs in process whatever --jobs says
GRAPH_TOKENS = ["K3", "C4", "P3", "K4", "star3", "K2", "Bw", "Dhc"]


def _argvs(tmp) -> list[list[str]]:
    return [
        ["examples"],
        ["examples", "--json"],
        ["zeta", "K4", "--order", "4"],
        ["zeta", "C4", "--json"],
        ["shadows", "K4", "--kmax", "2", "--raw"],
        ["shadows", "P3", "--json"],
        ["bounds", "K4", "--tol", "1e-6"],
        ["bounds", "C5", "--json"],
        ["fingerprint", "K3", "Dhc", "--order", "8", "--kmax", "1"],
        ["verify", "K3", "--order", "4"],
        ["verify", "C4", "star3", "--json"],
        ["screen", "--generate", "4", "--key", "A,L,S", "--json"],
        ["screen", "--generate", "3", "--key", "hashimoto", "--jobs", "2"],
        ["screen", "--input", tmp["lines"], "--skip-malformed", "--fingerprints-out", tmp["out"]],
        ["screen", "--input", tmp["lines"], "--connected-only", "--min-degree", "2", "--max-pairs", "1"],
        ["screen", "--input", tmp["missing"], "--irregular-only", "--max-degree", "3"],
    ]


TOKENS = [
    "--order", "--kmax", "--json", "--jobs", "--tol", "--key", "--raw", "--input", "--generate",
    "--skip-malformed", "--fingerprints-out", "--connected-only", "--max-pairs", "--min-degree",
    "-", "--", "", "x", "-1", "0", "1", "2", "3", "8", "12", "nan", "inf", "-inf", "1e300",
    "A,L,S", "A,A", "shadows,hashimoto", ",", "Q", "zeta", "screen", "verify",
]


def _mutate_argv(argv, rng: random.Random) -> list[str]:
    argv = list(argv)
    for _ in range(rng.randint(1, 2)):
        k = rng.randrange(len(argv)) if argv else 0
        op = rng.randrange(5)
        if op == 0 and argv:
            del argv[k]
        elif op == 1:
            argv.insert(k, rng.choice(TOKENS))
        elif op == 2 and argv:
            argv[k] = rng.choice(TOKENS + GRAPH_TOKENS)
        elif op == 3 and argv:
            argv[k] = mutate(argv[k], rng)
        else:
            argv.insert(k, mutate(rng.choice(GRAPH_TOKENS), rng))
    return argv


def _costly(argv) -> bool:
    """Whether argv may screen the census on 5 to 7 vertices, whose batches
    exceed one chunk and so could reach a pool: --generate, or a prefix of
    it that argparse takes for it, with an int above 4."""
    for flag, value in zip(argv, argv[1:] + [""]):
        flag, eq, attached = flag.partition("=")
        if flag.startswith("--g") and "--generate".startswith(flag):
            try:
                if int(attached if eq else value) > 4:
                    return True
            except ValueError:
                pass
    return False


def _stream(errors: str) -> io.TextIOWrapper:
    return io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors=errors, write_through=True)


def _fuzz_cli(seed: int, count: int, tmp_path, monkeypatch) -> None:
    rng = random.Random(f"cli/{seed}")
    lines = tmp_path / "lines.g6"
    lines.write_text("\n".join(rng.choice(GRAPH6) for _ in range(_CHUNK - 1)) + "\nB_~\n")
    tmp = {"lines": str(lines), "out": str(tmp_path / "out.jsonl"), "missing": str(tmp_path / "none.g6")}
    argvs = _argvs(tmp)
    # a mutated argv may name any token as a path to write
    monkeypatch.chdir(tmp_path)
    with open(lines, encoding="ascii") as stdin:
        monkeypatch.setattr(sys, "stdin", stdin)
        for _ in range(count):
            argv = _mutate_argv(rng.choice(argvs), rng)
            if _costly(argv):
                continue
            stdin.seek(0)
            # as the interpreter sets them up: stderr escapes what it cannot
            # encode, such as a lone surrogate from an undecodable argv byte
            monkeypatch.setattr(sys, "stdout", _stream("strict"))
            monkeypatch.setattr(sys, "stderr", _stream("backslashreplace"))
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses the arguments
                code = exc.code
                assert code == EXIT_INPUT_ERROR, argv
            except Exception as exc:  # noqa: BLE001 - reported with its argv
                pytest.fail(f"{argv!r} raised {type(exc).__name__}: {exc}")
            err = sys.stderr.buffer.getvalue().decode()
            assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_INPUT_ERROR), argv
            assert "Traceback" not in err, argv
            if code == EXIT_INPUT_ERROR:
                assert err.startswith(("error: ", "usage: ")), (argv, err)


@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_mutated_graph6(seed):
    _fuzz_graph6(seed, 1000)


@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_mutated_screen_input(seed):
    _fuzz_screen(seed, 60)


@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_mutated_store_records(seed):
    _fuzz_store(seed, 300)


@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_mutated_cli_argv(seed, tmp_path, monkeypatch):
    _fuzz_cli(seed, 150, tmp_path, monkeypatch)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_mutated_inputs_many_seeds(seed, tmp_path, monkeypatch):
    _fuzz_graph6(seed, 2000)
    _fuzz_screen(seed, 40)
    _fuzz_store(seed, 600)
    _fuzz_cli(seed, 200, tmp_path, monkeypatch)
