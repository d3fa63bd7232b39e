"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload census7 --seed 1 --out R.json \
        --spawned-at T [--phase-start I --until U] \
        [--trace-dir D --run-id ID] [--smoke]

Builds the workload's inputs from the seed (the set-up), then runs timed
phases through edgesector's public functions until the monotonic time U
(at least one).  Each phase runs in a child forked from the set-up process,
so every phase starts from the state the set-up left, caches empty; the
child checks its outputs outside the timed region.  Phases I, I+REPS,
I+2*REPS, ... of the seed's inputs are run.  The reference kernel is timed
after the set-up and on both sides of every timed region.  One JSON result
goes to --out.  run.py starts REPS of these per run, so the set-up is
measured several times.  Traced, the one phase runs in this process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

CENSUS_KEYS = {"census7": ("A", "L", "S"), "census7_store": ("A", "L", "S", "shadows", "hashimoto")}
CENSUS_JOBS = {"census7": 1, "census7_store": 2}
# a census phase screens one of this many disjoint parts of the census,
# sized so that a phase times about 3 s of work
CENSUS_PARTS = {"census7": 20, "census7_store": 10}
SPARSE_N, SPARSE_M = 20, 38
MAX_PHASES = 30  # per repetition
REPS = 3  # repetitions, so set-ups, per untraced run

# The host runs the same work in fast and slow spells that last up to
# minutes, longer than a run, and a timing taken in one spell cannot be
# compared with one taken in another.  So a fixed piece of pure-Python
# Fraction arithmetic, the reference kernel, is timed after every set-up and
# on both sides of every timed region, and run.py reports times at the speed
# at which the kernel takes REFERENCE_S (about its time on the machine the
# benchmark was sized on).
REFERENCE_CALLS, REFERENCE_S = 40, 0.16
_ref_rng = random.Random(0)
REFERENCE_MATRIX = [[Fraction(_ref_rng.randint(-3, 3)) for _ in range(16)] for _ in range(16)]
VERIFY_ORDER, VERIFY_GAUGES, VERIFY_MAX_EDGES = 8, 3, 18
CHARPOLY_POINTS = 3  # seeded integer points per fingerprint charpoly in the gate
PINNED = HERE / "pinned.json"
COLD_CACHES = (("shadows", "fingerprint"), ("zeta", "factorize"),
               ("zeta", "hashimoto_det"), ("zeta", "line_factor"))
WORKLOADS = ("census7", "census7_store", "sparse_large", "verify_corpus")


def import_edgesector():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "edgesector" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no edgesector sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import edgesector

    if Path(edgesector.__file__).resolve().parent != (SRC / "edgesector").resolve():
        raise SystemExit(f"perfbench: imported edgesector from {edgesector.__file__}")
    return edgesector


# ---------------------------------------------------------------------------
# inputs


def random_connected_graph(es, rng: random.Random, n: int, m: int):
    """Uniform random recursive tree on n vertices plus m - n + 1 random chords."""
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    while len(edges) < m:
        a, b = sorted(rng.sample(range(n), 2))
        edges.add((a, b))
    return es.Graph.from_edges(n, sorted(edges))


def stratified_parts(items: list, m_of, parts: int) -> list[list]:
    """Split items into `parts` disjoint parts, each in the items' order and
    each holding every parts-th member of every edge-count stratum, so the
    parts have the same edge-count profile and about the same cost."""
    order = sorted(range(len(items)), key=lambda i: (m_of(items[i]), i))
    return [[items[i] for i in sorted(order[p::parts])] for p in range(parts)]


def make_inputs(es, workload: str, seed: int, smoke: bool, phases: list[int]) -> dict:
    """The inputs of the given phases of the seed's workload, by phase."""
    if workload in CENSUS_KEYS:
        graphs = es.builtin_generate(5 if smoke else 7)
        random.Random(seed).shuffle(graphs)
        coded = [(g.m, es.encode_graph6(g)) for g in graphs]
        parts = stratified_parts(coded, lambda c: c[0], 1 if smoke else CENSUS_PARTS[workload])
        return {j: [(i + 1, text) for i, (_, text) in enumerate(parts[j % len(parts)])]
                for j in phases}
    if workload == "sparse_large":
        n, m = (8, 12) if smoke else (SPARSE_N, SPARSE_M)
        return {j: [random_connected_graph(es, random.Random(f"{seed}/{j}"), n, m)]
                for j in phases}
    entries = sorted(es.corpus(), key=lambda e: e.graph.m)
    entries = entries[:3] if smoke else [e for e in entries if e.graph.m <= VERIFY_MAX_EDGES]
    return {j: entries for j in phases}


# ---------------------------------------------------------------------------
# timed phases; each returns (graphs completed, per-graph latencies, outputs)


def run_census(es, workload, lines, store: Path):
    keys = CENSUS_KEYS[workload]
    cfg = es.ScreenConfig(keys=keys, jobs=CENSUS_JOBS[workload])
    result = es.run_screen(lines, cfg)
    out = {"result": result}
    if workload == "census7_store":
        with open(store, "w", encoding="ascii") as fh:
            es.screen.write_fingerprints_jsonl(result.fingerprints, fh)
        with open(store, encoding="ascii") as fh:
            records = es.screen.read_fingerprints_jsonl(fh)
        out["records"] = records
        out["regrouped"] = partition(es, records, keys)
    return len(lines), [], out


def run_sparse(es, graphs):
    latencies, jsonl = [], []
    for g in graphs:
        start = time.perf_counter()
        jsonl.append(es.fingerprint(g).to_jsonl())
        latencies.append(time.perf_counter() - start)
    return len(graphs), latencies, {"jsonl": jsonl}


def run_verify(es, entries, seed):
    latencies, results = [], []
    for entry in entries:
        start = time.perf_counter()
        results.append(es.verify_all(entry.graph, order=VERIFY_ORDER, gauges=VERIFY_GAUGES, seed=seed))
        latencies.append(time.perf_counter() - start)
    return len(entries), latencies, {"checks": results}


# ---------------------------------------------------------------------------
# correctness gate (outside the timed region)


def key_digest(es, fp, keys) -> str:
    key = es.screen.key_string_of(fp, keys)
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def partition(es, fingerprints, keys) -> dict[str, list[str]]:
    """Key digest -> sorted graph6 members: the class structure of a screen."""
    classes: dict[str, list[str]] = {}
    for fp in fingerprints:
        classes.setdefault(key_digest(es, fp, keys), []).append(fp.graph6)
    return {d: sorted(members) for d, members in classes.items()}


def fraction_det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    a = [list(r) for r in rows]
    n, det = len(a), Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return det


def reference_s() -> float:
    """Seconds the reference kernel takes now."""
    start = time.perf_counter()
    for _ in range(REFERENCE_CALLS):
        fraction_det(REFERENCE_MATRIX)
    return time.perf_counter() - start


def bareiss_det(rows: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free elimination; shares
    no code with edgesector's Matrix.det or charpoly."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def int_product(*mats: list[list[int]]) -> list[list[int]]:
    out = mats[0]
    for b in mats[1:]:
        cols = list(zip(*b))
        out = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in out]
    return out


def fingerprint_matrices(es, g, kmax: int) -> dict[str, list[list[int]]]:
    """The integer matrices whose charpolys a fingerprint records, by name."""
    blocks = es.sector_blocks(es.edge_space(g))
    a, line, signed, m = ([[int(x) for x in row] for row in mat.rows]
                          for mat in (g.adjacency(), blocks.L, blocks.S, blocks.M))
    mt = [list(col) for col in zip(*m)]
    out = {"A": a, "L": line, "S": signed, "MMt": int_product(m, mt), "MtM": int_product(mt, m)}
    lk = line
    for k in range(1, kmax + 1):
        out[f"MtL{k}M"] = int_product(mt, lk, m)
        lk = int_product(lk, line)
    return out


def charpoly_failures(es, g, fp, points: list[int]) -> list[str]:
    """Names of the fingerprint's charpolys p for which p(x) != det(xI - X)
    at one of the points, X being the matrix p was taken of."""
    polys = {"A": fp.charpoly_adjacency, "L": fp.charpoly_line, "S": fp.charpoly_signed,
             **dict(fp.shadows.named())}
    bad = []
    for name, mat in fingerprint_matrices(es, g, fp.shadows.kmax).items():
        for x in points:
            value = 0
            for c in reversed(polys[name].coeffs):
                value = value * x + c
            shifted = [[(x if i == j else 0) - v for j, v in enumerate(row)]
                       for i, row in enumerate(mat)]
            if value != bareiss_det(shifted):
                bad.append(name)
                break
    return bad


class Gate:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def gate_census(es, gate, workload, lines, out, pinned):
    keys = CENSUS_KEYS[workload]
    table = pinned[",".join(keys)]
    result = out["result"]
    fps = result.fingerprints
    gate.check([fp.graph6 for fp in fps] == [text for _, text in lines],
               "fingerprints out of input order")
    for fp in fps:
        det = es.bass_det(es.parse_graph6(fp.graph6))
        gate.check(fp.hashimoto_det == det, f"{fp.graph6}: hashimoto_det != bass_det")
        gate.check(key_digest(es, fp, keys) == table.get(fp.graph6),
                   f"{fp.graph6}: key digest differs from the pinned one")
    classes = partition(es, fps, keys)
    nontrivial = sorted(members for members in classes.values() if len(members) > 1)
    reported = sorted(sorted(c.members) for c in result.classes)
    gate.check(nontrivial == reported, "run_screen classes differ from the key grouping")
    if workload == "census7_store":
        records = out["records"]
        gate.check(len(records) == len(fps), "store lost records")
        for fp, rec in zip(fps, records):
            gate.check(fp == rec, f"{fp.graph6}: store record differs from its fingerprint")
        gate.check(out["regrouped"] == classes, "store records regroup differently")


def gate_sparse(es, gate, graphs, out, rng):
    for g, line in zip(graphs, out["jsonl"]):
        fp = es.Fingerprint.from_json_dict(json.loads(line))
        gate.check(fp.graph6 == es.encode_graph6(g), f"{fp.graph6}: record names another graph")
        gate.check(fp.hashimoto_det == es.bass_det(g), f"{fp.graph6}: hashimoto_det != bass_det")
        gate.check(es.factorize(g).identity_holds(), f"{fp.graph6}: factorization identity fails")
        points = [rng.randint(-60, 60) for _ in range(CHARPOLY_POINTS)]
        bad = charpoly_failures(es, g, fp, points)
        gate.check(not bad, f"{fp.graph6}: charpolys {bad} differ from det(xI - X) at x in {points}")


def gate_verify(gate, entries, out):
    for entry, results in zip(entries, out["checks"]):
        for r in results:
            gate.check(r.ok, f"{entry.name}: {r.name} failed {r.detail}")


# ---------------------------------------------------------------------------


def cold_caches(es) -> list[str]:
    """Names of the result caches that are not empty."""
    import importlib

    warm = []
    for short, attr in COLD_CACHES:
        fn = getattr(importlib.import_module(f"edgesector.{short}"), attr)
        while not hasattr(fn, "cache_info"):  # look through a trace wrapper
            fn = fn.__wrapped__
        if fn.cache_info().currsize != 0:
            warm.append(f"{short}.{attr}")
    return warm


def usage() -> tuple[float, float]:
    """(cpu seconds, peak RSS in MiB) of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0


def run_phase(es, args, inputs, store: Path, tracer=None) -> dict:
    """Time one phase of the workload, then check its outputs."""
    record = {"warm_caches": cold_caches(es)}
    ref_before = reference_s()
    cpu0, _ = usage()
    start = time.perf_counter()
    if args.workload in CENSUS_KEYS:
        graphs, latencies, out = run_census(es, args.workload, inputs, store)
    elif args.workload == "sparse_large":
        graphs, latencies, out = run_sparse(es, inputs)
    else:
        graphs, latencies, out = run_verify(es, inputs, args.seed)
    wall_s = time.perf_counter() - start
    cpu1, peak_mb = usage()
    record["reference_s"] = [ref_before, reference_s()]
    if tracer is not None:
        import tracer as tracing

        tracer.stop()
        record["span_cost_s"] = tracing.span_cost()
    record.update(wall_s=wall_s, graphs=graphs, cpu_s=cpu1 - cpu0, peak_rss_mb=peak_mb,
                  latencies=latencies)
    if args.workload in CENSUS_KEYS:
        summary = out["result"].summary
        record["summary"] = {k: summary[k] for k in ("classes_nontrivial", "pairs_reported")}

    gate = Gate()
    gate_start = time.perf_counter()
    if args.workload in CENSUS_KEYS:
        pinned = json.loads(PINNED.read_text())
        gate_census(es, gate, args.workload, inputs, out, pinned)
        store.unlink(missing_ok=True)
    elif args.workload == "sparse_large":
        gate_sparse(es, gate, inputs, out, random.Random(args.seed))
    else:
        gate_verify(gate, inputs, out)
    record.update(attempted=gate.attempted, failed=len(gate.failures),
                  failures=gate.failures[:20], gate_s=time.perf_counter() - gate_start)
    return record


def forked(fn, out: Path) -> dict:
    """fn() in a forked child, which writes its JSON result to out."""
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            out.write_text(json.dumps(fn()))
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"perfbench: a phase exited with status {status}")
    return json.loads(out.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--phase-start", type=int, default=0)
    ap.add_argument("--until", type=float, default=0.0,
                    help="time.monotonic() by which the last phase should end; one phase if past")
    ap.add_argument("--trace-dir", type=Path)
    ap.add_argument("--run-id", default="run")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    es = import_edgesector()
    tracer = None
    if args.trace_dir is not None:
        import tracer as tracing

        tracer = tracing.Tracer(args.run_id, args.trace_dir)
        tracing.install(tracer)
        tracer.start()
    count = 1 if tracer is not None else MAX_PHASES
    phases = [args.phase_start + k * REPS for k in range(count)]
    inputs = make_inputs(es, args.workload, args.seed, args.smoke, phases)
    record = {"setup_s": time.monotonic() - args.spawned_at, "reference_s": [reference_s()],
              "warm_caches": cold_caches(es)}
    store = args.out.with_suffix(".store.jsonl")
    if tracer is not None:
        record["phases"] = [run_phase(es, args, inputs[phases[0]], store, tracer)]
    else:
        done, spent = [], 0.0
        for j in phases:
            start = time.monotonic()
            done.append(forked(lambda: run_phase(es, args, inputs[j], store),
                               args.out.with_suffix(".phase.json")))
            spent += time.monotonic() - start
            if time.monotonic() + spent / len(done) > args.until:
                break
        record["phases"] = done
    args.out.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
