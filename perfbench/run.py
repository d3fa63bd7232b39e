"""edgesector benchmark: census screen, large-graph fingerprint, identity battery.

    python3 perfbench/run.py --workload census7 --seed 1 --seconds 32 --trace 0

Run from the root of a checkout.  Every repetition runs in a fresh
interpreter (perfbench/rep.py) that imports edgesector from ./src and builds
the workload's inputs from --seed (the set-up), then runs timed phases, each
in a child forked from the set-up and checked outside the timed region.
With --trace 0 the run makes REPS repetitions that together fill about
--seconds and reports end-to-end metrics over all their phases, in seconds
at the reference speed (rep.py); with --trace 1 it runs one phase traced
and reports per-layer metrics.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; the line before it
is a JSON report with the machine, every repetition and every layer.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402  (perfbench/tracer.py, no edgesector import)
from rep import REFERENCE_S, REPS, WORKLOADS  # noqa: E402

WORK_DIR = Path(".perfbench")
RUN_TIMEOUT_S = 170  # a whole run, every repetition included
# workloads whose timed phase makes one public call per graph
PER_GRAPH_CALL = {"sparse_large": "fingerprint", "verify_corpus": "verify_all"}


def read_proc(path: str) -> str:
    with open(path, encoding="ascii", errors="replace") as fh:
        return fh.read()


def machine() -> dict:
    cpuinfo = read_proc("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
              if line.startswith("model name")]
    return {
        "nproc": sum(1 for line in cpuinfo.splitlines() if line.startswith("processor")),
        "cpu_model": models[0] if models else "unknown",
        "python": sys.version.split()[0],
    }


def loadavg_1m() -> float:
    return float(read_proc("/proc/loadavg").split()[0])


def run_rep(args, run_dir: Path, tag: str, index: int = 0, until: float = 0.0,
            trace_dir: Path | None = None) -> dict:
    """Start rep.py in a fresh interpreter and return its result record."""
    out = run_dir / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out), "--phase-start", str(index),
           "--until", repr(until)]
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir), "--run-id", tag]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, PYTHONHASHSEED="0")
    load_before = loadavg_1m()
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, args.deadline - time.monotonic()))
    finally:
        if proc.poll() is None or code != 0:
            # the repetition's own pool workers share its process group
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    if code != 0:
        raise RuntimeError(f"repetition {tag} exited with code {code}")
    record = json.loads(out.read_text())
    record["load_1m"] = [load_before, loadavg_1m()]
    return record


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(0, math.ceil(p / 100 * len(xs)) - 1)]


def end_to_end(reps: list[dict], scaled: bool = True) -> dict:
    """setup_s is the median over the set-ups; the timed-phase metrics are
    means over the phases.  Scaled, every time is taken to the reference
    speed by the mean of all the run's reference kernel times: that follows
    the host's slow spells, which outlast a run, and averages out its
    quicker swings, which a single reference time next to a phase would
    carry into the result."""
    phases = [p for r in reps for p in r["phases"]]
    refs = [t for x in reps + phases for t in x["reference_s"]]
    k = REFERENCE_S / statistics.fmean(refs) if scaled else 1.0
    wall = k * statistics.fmean(p["wall_s"] for p in phases)
    return {
        "setup_s": k * statistics.median(r["setup_s"] for r in reps),
        "wall_s": wall,
        "graphs_per_s": statistics.fmean(p["graphs"] for p in phases) / wall,
        "cpu_s": k * statistics.fmean(p["cpu_s"] for p in phases),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in phases),
    }


def per_layer(agg: dict, phase: dict) -> dict:
    layers, caches = agg["layers"], agg["caches"]
    out = {}
    for name, layer in layers.items():
        out[f"{name}.calls"] = layer["calls"]
        out[f"{name}.self_s"] = layer["self_s"]
    charpoly = layers.get("matrices.charpoly")
    out["matrices.charpoly.dim3_sum"] = charpoly["size3_sum"] if charpoly else 0
    out["matrices.charpoly.max_dim"] = charpoly["max_size"] if charpoly else 0
    durations = layers["shadows.fingerprint"]["durations"] if "shadows.fingerprint" in layers else []
    out["shadows.fingerprint.p50_ms"] = 1000 * percentile(durations, 50) if durations else 0.0
    out["shadows.fingerprint.p98_ms"] = 1000 * percentile(durations, 98) if durations else 0.0
    out["shadows.fingerprint.samples"] = len(durations)
    for name, (hits, misses) in caches.items():
        out[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    pool = layers.get(tracer.POOL_SPAN)
    out["screen.pool.wait_s"] = pool["total_s"] if pool else 0.0
    summary = phase.get("summary", {})
    out["screen.classes_nontrivial"] = summary.get("classes_nontrivial", 0)
    out["screen.pairs_reported"] = summary.get("pairs_reported", 0)
    # the wrappers' own cost, summed over the spans of every process
    out["trace.spans"] = sum(layer["calls"] for layer in layers.values())
    out["trace.overhead_s"] = out["trace.spans"] * phase["span_cost_s"]
    return out


def select(values: dict, specs: list[dict]) -> dict:
    """The metrics BENCHMARK.json names, with their units; absent layers
    did no work in this workload and read 0."""
    return {s["name"]: {"value": values.get(s["name"], 0), "unit": s["unit"]} for s in specs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for perfbench's own tests")
    args = ap.parse_args(argv)
    args.deadline = time.monotonic() + RUN_TIMEOUT_S
    # a terminated run still stops the repetition it started (see run_rep)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "edgesector" / "__init__.py").is_file():
        print(f"perfbench: no edgesector sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run_dir = ROOT / WORK_DIR / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "smoke": args.smoke, "machine": machine(),
                  "load_1m_at_start": loadavg_1m()}
        if args.trace:
            trace_dir = run_dir / "spans"
            trace_dir.mkdir()
            reps = [run_rep(args, run_dir, "traced", trace_dir=trace_dir)]
            layers = tracer.aggregate(trace_dir, "traced")
            values = per_layer(layers, reps[0]["phases"][0])
            report["layers"] = {name: {k: v for k, v in layer.items() if k != "durations"}
                                for name, layer in sorted(layers["layers"].items())}
            report["per_layer"] = values
            metrics = select(values, spec["per_layer"])
        else:
            started = time.monotonic()
            reps = [run_rep(args, run_dir, f"rep{i}", i, started + args.seconds * (i + 1) / REPS)
                    for i in range(REPS)]
            values = end_to_end(reps)
            report["end_to_end_unscaled"] = end_to_end(reps, scaled=False)
            metrics = select(values, spec["end_to_end"])

        phases = [p for r in reps for p in r["phases"]]
        attempted = sum(p["attempted"] for p in phases)
        failed = sum(p["failed"] for p in phases)
        warm = sorted({name for x in reps + phases for name in x["warm_caches"]})
        if args.workload in PER_GRAPH_CALL and not args.trace:
            latencies = [x for p in phases for x in p["latencies"]]
            report["graph_latency"] = {
                "call": PER_GRAPH_CALL[args.workload], "samples": len(latencies),
                "graph_p50_s": statistics.median(latencies), "graph_max_s": max(latencies)}
        report.update(
            load_1m_at_end=loadavg_1m(),
            ops_failed_frac=failed / attempted if attempted else 1.0,
            failures=[f for p in phases for f in p["failures"]][:20],
            warm_caches_at_start=warm,
            reps=[{**r, "phases": [{k: v for k, v in p.items() if k != "failures"}
                                   for p in r["phases"]]} for r in reps],
        )
        correct = failed == 0 and attempted > 0 and not warm
        (ROOT / WORK_DIR / f"report-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
            json.dumps(report, indent=1))
        print(json.dumps({"report": report}, separators=(",", ":")))
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
