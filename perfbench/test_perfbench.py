"""Tests of the benchmark itself, on its smoke inputs.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import rep  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = ("matrices.charpoly.calls", "matrices.charpoly.dim3_sum",
                "shadows.fingerprint.calls", "screen.canonical_label.calls")


def bench(workload, trace, *extra, seed=5, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def smoke(workload, trace, *extra, seed=5):
    proc = bench(workload, trace, "--smoke", *extra, seed=seed)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= SPEC["run_seconds"] <= 60 and 2 <= len(WORKLOADS) <= 8
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert unit.match(m["unit"]) and m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result, report = smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert report["ops_failed_frac"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert len(report["reps"]) == 3 and all(r["phases"] for r in report["reps"])
    assert set(report["end_to_end_unscaled"]) == set(want)
    assert report["machine"]["nproc"] >= 1 and report["machine"]["cpu_model"]
    assert all(len(r["load_1m"]) == 2 for r in report["reps"])
    if workload in ("sparse_large", "verify_corpus"):
        latency = report["graph_latency"]
        assert latency["samples"] > 0 and 0 < latency["graph_p50_s"] <= latency["graph_max_s"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric(workload):
    result, report = smoke(workload, 1)
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["metrics"]["matrices.charpoly.calls"]["value"] > 0
    assert result["metrics"]["trace.overhead_s"]["value"] > 0


@pytest.mark.parametrize("workload", ["census7", "census7_store", "sparse_large"])
def test_exact_counts_repeat(workload):
    first, _ = smoke(workload, 1, seed=9)
    second, _ = smoke(workload, 1, seed=9)
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_store_workload_traces_pool_workers():
    result, _ = smoke("census7_store", 1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["shadows.fingerprint.calls"] == 21  # every n=5 graph, in the workers
    assert metrics["screen.pool.wait_s"] > 0


def test_times_are_scaled_to_the_reference_speed():
    import run

    slow = 2 * run.REFERENCE_S  # the host ran at half the reference speed
    phase = {"wall_s": 2.0, "cpu_s": 3.0, "graphs": 10, "peak_rss_mb": 20.0,
             "reference_s": [slow, slow]}
    reps = [{"setup_s": 4.0, "reference_s": [slow], "phases": [phase]}]
    plain = {"setup_s": 4.0, "wall_s": 2.0, "graphs_per_s": 5.0, "cpu_s": 3.0, "peak_rss_mb": 20.0}
    scaled = {"setup_s": 2.0, "wall_s": 1.0, "graphs_per_s": 10.0, "cpu_s": 1.5, "peak_rss_mb": 20.0}
    assert run.end_to_end(reps, scaled=False) == pytest.approx(plain)
    assert run.end_to_end(reps) == pytest.approx(scaled)


def copy_benchmark(dest):
    """BENCHMARK.json and perfbench/ under dest, without the program."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))


def test_gate_fails_on_a_wrong_pinned_digest(tmp_path):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    pinned = tmp_path / "perfbench" / "pinned.json"
    table = json.loads(pinned.read_text())
    keys = table["A,L,S,shadows,hashimoto"]
    g6 = next(g for g in keys if g.startswith("D"))  # a 5-vertex graph
    keys[g6] = "0" * 16
    pinned.write_text(json.dumps(table))
    proc = bench("census7_store", 0, "--smoke", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
    assert not result["correct"] and result["failed"] > 0
    assert any("pinned" in f for f in report["failures"])


def bump(poly, es):
    """poly with its linear coefficient one larger."""
    return es.Poly((poly.coeffs[0], poly.coeffs[1] + 1) + poly.coeffs[2:])


def test_gate_fails_on_a_wrong_charpoly_coefficient():
    es = rep.import_edgesector()
    g = rep.random_connected_graph(es, random.Random(3), 8, 12)
    fp = es.fingerprint(g)
    shadows = fp.shadows
    wrong = {
        "L": dataclasses.replace(fp, charpoly_line=bump(fp.charpoly_line, es)),
        "MtL2M": dataclasses.replace(fp, shadows=dataclasses.replace(
            shadows, mtlkm=(shadows.mtlkm[0], bump(shadows.mtlkm[1], es)))),
    }
    for name, bad in [(None, fp), *wrong.items()]:
        gate = rep.Gate()
        rep.gate_sparse(es, gate, [g], {"jsonl": [bad.to_jsonl()]}, random.Random(1))
        assert gate.attempted == 4
        if name is None:
            assert gate.failures == []
        else:
            assert len(gate.failures) == 1 and f"['{name}']" in gate.failures[0]


def test_refuses_to_run_without_the_program(tmp_path):
    copy_benchmark(tmp_path)
    proc = bench("census7", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
