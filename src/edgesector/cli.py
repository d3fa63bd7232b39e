"""Command-line interface.

Subcommands: verify, zeta, shadows, bounds, fingerprint, screen, examples.
GRAPH arguments accept a corpus name (see `examples`) or a graph6 string.
Exit codes: 0 success, 1 check failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bounds import DEFAULT_BOUND_SLACK, RootFindingError, check_bounds
from .census import MAX_GENERATED_VERTICES, builtin_generate
from .edge_space import edge_space, sector_blocks
from .graphs import (
    Graph,
    Graph6Error,
    corpus,
    corpus_graph,
    encode_graph6,
    is_bipartite,
    is_connected,
    is_regular,
    parse_graph6,
    read_graph6_lines,
)
from .screen import ScreenConfig, ScreenError, run_screen, write_fingerprints_jsonl
from .shadows import DEFAULT_KMAX, GROUPING_KEYS, fingerprint, vertex_shadow_set
from .verify import verify_all
from .zeta import DEFAULT_ORDER, factorize, trivial_roots

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


class CliInputError(Exception):
    pass


def _resolve_graph(token: str) -> Graph:
    try:
        return corpus_graph(token)
    except KeyError:
        pass
    try:
        return parse_graph6(token)
    except Graph6Error as exc:
        raise CliInputError(
            f"{token!r} is neither a corpus name nor valid graph6: {exc}"
        ) from exc


_SCREEN_DEFAULTS = ScreenConfig()

_FLAGS = {
    "order": dict(type=int, default=DEFAULT_ORDER, help="series order (default %(default)s)"),
    "kmax": dict(type=int, default=DEFAULT_KMAX, help="highest mixed power (default %(default)s)"),
    "json": dict(action="store_true", help="emit JSON instead of tables"),
    "jobs": dict(type=int, default=_SCREEN_DEFAULTS.jobs,
                 help="parallel workers (default %(default)s)"),
    # %(default)s would print 1e-06
    "tol": dict(type=float, default=DEFAULT_BOUND_SLACK, help="bound slack (default 1e-6)"),
}


def _flags(parser: argparse.ArgumentParser, *names: str) -> None:
    """Attach the named shared flags; each subcommand takes only those it reads."""
    for name in names:
        parser.add_argument(f"--{name}", **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgesector",
        description=(
            "Exact non-backtracking edge-space operators, Ihara determinant "
            "factorization, and gauge-invariant mixed-sector invariants."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("examples", help="list the embedded corpus")
    _flags(p, "json")

    p = sub.add_parser("zeta", help="determinant, line factor, correction, series")
    p.add_argument("graph", help="corpus name or graph6")
    _flags(p, "order", "json")

    p = sub.add_parser("shadows", help="gauge-invariant mixed-shadow charpolys")
    p.add_argument("graph", help="corpus name or graph6")
    p.add_argument("--raw", action="store_true",
                   help="also print the raw mixed block (gauge-dependent, lexicographic gauge)")
    _flags(p, "kmax", "json")

    p = sub.add_parser("bounds", help="numerical-range bound report for Spec(T)")
    p.add_argument("graph", help="corpus name or graph6")
    _flags(p, "tol", "json")

    p = sub.add_parser("fingerprint", help="exact invariant record(s), JSONL")
    p.add_argument("graphs", nargs="+", help="corpus names or graph6 strings")
    _flags(p, "order", "kmax")

    p = sub.add_parser(
        "verify",
        help="run the full identity battery (series checks run at order min(--order, 8))",
    )
    p.add_argument("graphs", nargs="+", help="corpus names or graph6 strings")
    _flags(p, "order", "json")

    p = sub.add_parser("screen", help="group a census by exact invariants")
    # default None, not "-", so that cmd_screen sees an --input beside --generate
    p.add_argument("--input", help="graph6 file, or - for stdin")
    p.add_argument("--generate", type=int, metavar="N",
                   help="use the builtin connected census on "
                        f"N <= {MAX_GENERATED_VERTICES} vertices")
    p.add_argument("--key", default=",".join(_SCREEN_DEFAULTS.keys),
                   help=f"comma-separated grouping key, subset of {','.join(GROUPING_KEYS)}")
    p.add_argument("--connected-only", action="store_true")
    p.add_argument("--irregular-only", action="store_true")
    p.add_argument("--min-degree", type=int)
    p.add_argument("--max-degree", type=int)
    p.add_argument("--skip-malformed", action="store_true",
                   help="skip undecodable lines instead of failing")
    p.add_argument("--fingerprints-out", metavar="PATH",
                   help="append every fingerprint to PATH as JSONL")
    p.add_argument("--max-pairs", type=int, default=_SCREEN_DEFAULTS.max_pairs_per_class,
                   help="pair reports per class (default %(default)s)")
    _flags(p, "order", "kmax", "json", "jobs")

    return parser


def _print_poly(label: str, poly) -> None:
    print(f"{label}: {poly.pretty()}")


def cmd_examples(args) -> int:
    if args.json:
        for entry in corpus():
            print(json.dumps({
                "name": entry.name,
                "graph6": encode_graph6(entry.graph),
                "n": entry.graph.n,
                "m": entry.graph.m,
                "degrees": list(entry.graph.degree_multiset()),
            }))
        return EXIT_OK
    for entry in corpus():
        g = entry.graph
        traits = []
        if is_connected(g):
            traits.append("connected")
        if is_bipartite(g):
            traits.append("bipartite")
        k = is_regular(g)
        if k is not None:
            traits.append(f"{k}-regular")
        print(f"{entry.name:10s} n={g.n:3d} m={g.m:3d} {encode_graph6(g):12s} {' '.join(traits)}")
    return EXIT_OK


def cmd_zeta(args) -> int:
    g = _resolve_graph(args.graph)
    fact = factorize(g, args.order)
    if args.json:
        print(json.dumps({
            "graph6": encode_graph6(g),
            "hashimoto_det": fact.hashimoto_det.coeff_strings(),
            "line_factor": fact.line_factor.coeff_strings(),
            "correction_num": fact.correction.num.coeff_strings(),
            "correction_den": fact.correction.den.coeff_strings(),
            "correction_series": fact.correction_series.coeff_strings(),
            "order": args.order,
        }))
        return EXIT_OK
    _print_poly("det(I - wT)      ", fact.hashimoto_det)
    _print_poly("det(I - (w/2)L)  ", fact.line_factor)
    print(f"correction        : {fact.correction.pretty()}")
    print(f"correction series : {fact.correction_series.pretty()}")
    if g.n and is_connected(g):
        print(f"trivial roots     : {trivial_roots(g)}")
    return EXIT_OK


def cmd_shadows(args) -> int:
    g = _resolve_graph(args.graph)
    shadows = vertex_shadow_set(g, args.kmax)
    if args.json:
        record = {
            "graph6": encode_graph6(g),
            "shadows": {name: p.coeff_strings() for name, p in shadows.named()},
        }
        if args.raw:
            record["mixed_block"] = sector_blocks(edge_space(g)).M.to_json_dict()
            record["gauge"] = "lexicographic"
        print(json.dumps(record))
        return EXIT_OK
    for name, poly in shadows.named():
        print(f"charpoly {name:8s}: {poly.pretty('x')}")
    if args.raw:
        print("raw mixed block (gauge-dependent, lexicographic gauge):")
        for row in sector_blocks(edge_space(g)).M.rows:
            print("  ", row)
    return EXIT_OK


def cmd_bounds(args) -> int:
    g = _resolve_graph(args.graph)
    try:
        report = check_bounds(g, slack=args.tol)
    except RootFindingError as exc:
        print(f"root finding failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    if args.json:
        print(json.dumps(report.to_json_dict()))
    else:
        print(f"rho(L)/2      = {report.rho_L / 2:.6f}   re_max = {report.re_max:.6f}")
        print(f"rho(S)/2      = {report.rho_S / 2:.6f}   re_min = {report.re_min:.6f}")
        print(f"sigma_max(M)/2= {report.sigma_max_M / 2:.6f}   im_max = {report.im_max:.6f}")
        print(f"sqrt(rho(Delta) rho(Q)) = {(report.rho_Delta * report.rho_Q) ** 0.5:.6f}")
        print(f"rho(T) = {report.rho_T:.6f}   d_max - 1 = {report.d_max - 1}")
        print(f"max residual = {report.max_residual:.2e}")
        for name, margin in report.margins().items():
            print(f"margin {name:20s} = {margin:+.6f}")
        for violation in report.violations:
            print(f"VIOLATED: {violation}")
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def cmd_fingerprint(args) -> int:
    for token in args.graphs:
        g = _resolve_graph(token)
        print(fingerprint(g, args.order, args.kmax).to_jsonl())
    return EXIT_OK


def cmd_verify(args) -> int:
    failed = False
    for token in args.graphs:
        g = _resolve_graph(token)
        results = verify_all(g, order=min(args.order, 8))
        if args.json:
            print(json.dumps({
                "graph6": encode_graph6(g),
                "checks": [
                    {"name": r.name, "ok": r.ok, "detail": r.detail} for r in results
                ],
            }))
        else:
            print(f"== {token} ({encode_graph6(g)})")
            for r in results:
                mark = "pass" if r.ok else "FAIL"
                detail = f"  [{r.detail}]" if (r.detail and not r.ok) else ""
                print(f"  {mark}  {r.name}{detail}")
        failed = failed or any(not r.ok for r in results)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_screen(args) -> int:
    keys = tuple(k.strip() for k in args.key.split(",") if k.strip())
    cfg = ScreenConfig(
        keys=keys,
        order=args.order,
        kmax=args.kmax,
        connected_only=args.connected_only,
        irregular_only=args.irregular_only,
        min_degree=args.min_degree,
        max_degree=args.max_degree,
        jobs=args.jobs,
        max_pairs_per_class=args.max_pairs,
        skip_malformed=args.skip_malformed,
    )
    if args.generate is not None:
        if args.input is not None:
            raise CliInputError("--generate and --input cannot be used together")
        lines = [(i + 1, encode_graph6(g)) for i, g in enumerate(builtin_generate(args.generate))]
        result = run_screen(lines, cfg)
    else:
        # stdin and a file are read alike: once, line by line, with a
        # non-ASCII byte failing in parse_graph6 as U+FFFD
        stdin = args.input in (None, "-")
        source = sys.stdin.fileno() if stdin else args.input
        with open(source, encoding="ascii", errors="replace", closefd=not stdin) as fh:
            result = run_screen(read_graph6_lines(fh), cfg)

    if args.fingerprints_out:
        fps = result.fingerprints  # built here, so a failure leaves the store as it was
        with open(args.fingerprints_out, "a", encoding="ascii") as fh:
            write_fingerprints_jsonl(fps, fh)

    if args.json:
        for record in result.classes:
            print(json.dumps(record.to_json_dict()))
        print(json.dumps({"summary": result.summary}))
        return EXIT_OK
    for record in result.classes:
        print(f"class {record.digest}  members: {', '.join(record.members)}")
        for rep in record.pairs:
            differing = sorted(k for k, v in rep.agree.items() if not v)
            print(
                f"  {rep.graph6[0]} vs {rep.graph6[1]}: "
                f"differ at {differing or 'nothing'}; "
                f"det divergence order {rep.det_first_diff_order}"
            )
    print(f"summary: {json.dumps(result.summary)}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "examples": cmd_examples,
        "zeta": cmd_zeta,
        "shadows": cmd_shadows,
        "bounds": cmd_bounds,
        "fingerprint": cmd_fingerprint,
        "verify": cmd_verify,
        "screen": cmd_screen,
    }
    try:
        return handlers[args.command](args)
    except (CliInputError, Graph6Error, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (ScreenError, ArithmeticError) as exc:
        # ArithmeticError: a reported pair broke the resolution principle
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
