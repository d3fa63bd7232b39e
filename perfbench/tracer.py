"""Span tracing of edgesector's public entry points, installed from outside.

`install` replaces module attributes (including the names other edgesector
modules imported from them) and a few `Matrix`/`Poly` methods with wrappers
that record one span per call: name, start, end, parent span and a size
attribute.  Spans stay in memory and are written out when tracing stops.
Per-element `Poly`/`Fraction` arithmetic is never wrapped.

Pool workers forked from a traced process inherit the wrappers; a worker
appends its spans to its own file each time its outermost span ends, so the
parent can read them after the pool has shut down.

`aggregate` turns span files into per-layer counts and self times (a span's
duration minus the time its child spans cover).  It imports nothing from
edgesector.  `span_cost` measures what one span adds to a call, from which
the benchmark estimates the cost of tracing.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

# (module, attribute) pairs wrapped as "<module>.<attribute>"
FUNCTIONS = (
    ("graphs", "parse_graph6"),
    ("graphs", "encode_graph6"),
    ("edge_space", "build_hashimoto"),
    ("edge_space", "sector_blocks"),
    ("edge_space", "regauge"),
    ("polynomials", "ratfunc_reduce"),
    ("polynomials", "series_of"),
    ("zeta", "hashimoto_det"),
    ("zeta", "line_factor"),
    ("zeta", "bass_det"),
    ("zeta", "factorize"),
    ("zeta", "schur_series_check"),
    ("zeta", "log_trace_check"),
    ("shadows", "shadow_set"),
    ("shadows", "fingerprint"),
    ("shadows", "compare"),
    ("screen", "builtin_generate"),
    ("screen", "canonical_label"),
    ("screen", "run_screen"),
    ("screen", "write_fingerprints_jsonl"),
    ("screen", "read_fingerprints_jsonl"),
    ("bounds", "check_bounds"),
    ("bounds", "hashimoto_spectrum"),
    ("bounds", "hermitian_part_spectrum_check"),
)

# (module, class, method, span name); the size attribute of a matrix span is
# its row count
METHODS = (
    ("matrices", "Matrix", "charpoly", "matrices.charpoly"),
    ("matrices", "Matrix", "det", "matrices.det"),
    ("matrices", "Matrix", "rank", "matrices.rank"),
    ("matrices", "Matrix", "__mul__", "matrices.mul"),
    ("polynomials", "Poly", "interpolate", "polynomials.interpolate"),
)

# lru caches whose hit ratio is reported
CACHES = (("shadows", "fingerprint"), ("zeta", "factorize"))

POOL_SPAN = "screen.pool.wait"

SPAN_COST_BATCHES, SPAN_COST_CALLS = 5, 20000


class Tracer:
    def __init__(self, run_id: str, out_dir: Path):
        self.run_id = run_id
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.worker = False
        self.recording = False
        self.spans: list[list] = []  # [name, start, end, parent index, size]
        self.stack: list[int] = []
        self.caches: dict[str, object] = {}

    def wrap(self, name: str, fn, size=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if os.getpid() != tracer.pid:
                tracer._forked()
            spans, stack = tracer.spans, tracer.stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, size(args) if size else 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                if tracer.worker and not stack:
                    tracer._write()

        return traced

    def _forked(self) -> None:
        """First span in a forked pool worker: drop the parent's spans."""
        self.pid = os.getpid()
        self.worker = True
        self.spans = []
        self.stack = []

    def _cache_snapshot(self) -> dict:
        out = {}
        for name, fn in self.caches.items():
            info = fn.cache_info()
            out[name] = [info.hits, info.misses]
        return out

    def _write(self) -> None:
        path = self.out_dir / f"spans-{self.run_id}-{self.pid}.jsonl"
        record = {"run_id": self.run_id, "pid": self.pid,
                  "spans": self.spans, "caches": self._cache_snapshot()}
        with open(path, "a", encoding="ascii") as fh:
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        self.spans = []

    def start(self) -> None:
        self.recording = True

    def stop(self) -> None:
        """Stop recording and write this process's spans."""
        self.recording = False
        self._write()


def span_cost() -> float:
    """Seconds one recorded span adds to a call: the median over
    SPAN_COST_BATCHES batches of a traced no-op's time less a bare one's,
    per call."""
    def noop():
        return None

    probe = Tracer("probe", Path("."))  # never a worker, so it never writes
    traced = probe.wrap("probe", noop)
    probe.start()
    costs = []
    for _ in range(SPAN_COST_BATCHES):
        probe.spans = []
        t0 = perf_counter()
        for _ in range(SPAN_COST_CALLS):
            traced()
        t1 = perf_counter()
        for _ in range(SPAN_COST_CALLS):
            noop()
        t2 = perf_counter()
        costs.append(((t1 - t0) - (t2 - t1)) / SPAN_COST_CALLS)
    return statistics.median(costs)


def _replace_everywhere(original, replacement) -> None:
    """Rebind every edgesector module attribute that is `original`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "edgesector" or mod_name.startswith("edgesector.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the traced entry points of an imported edgesector package."""
    import importlib

    def module(short: str):
        return importlib.import_module(f"edgesector.{short}")

    for short, attr in FUNCTIONS:
        original = getattr(module(short), attr)
        if (short, attr) in CACHES:
            # the lru wrapper itself keeps the cache statistics
            tracer.caches[f"{short}.{attr}"] = original
        _replace_everywhere(original, tracer.wrap(f"{short}.{attr}", original))

    for short, cls_name, meth, span_name in METHODS:
        cls = getattr(module(short), cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(tracer.wrap(span_name, raw.__func__)))
        else:
            setattr(cls, meth, tracer.wrap(span_name, raw, size=lambda a: a[0].nrows))

    screen = module("screen")
    base = screen.ProcessPoolExecutor

    class TracedPool(base):
        """Times the parent's wait for the whole pool map."""

        def map(self, fn, *iterables, **kwargs):
            collect = tracer.wrap(POOL_SPAN, lambda: list(base.map(self, fn, *iterables, **kwargs)))
            return iter(collect())

    screen.ProcessPoolExecutor = TracedPool


def aggregate(out_dir: Path, run_id: str) -> dict:
    """Per-span-name totals over every process of one traced run.

    Returns {"layers": {name: {calls, self_s, total_s, size3_sum, max_size,
    durations}}, "caches": {name: [hits, misses]}}.
    """
    layers: dict[str, dict] = {}
    last_cache: dict[int, dict] = {}
    for path in sorted(Path(out_dir).glob(f"spans-{run_id}-*.jsonl")):
        with open(path, encoding="ascii") as fh:
            for line in fh:
                rec = json.loads(line)
                last_cache[rec["pid"]] = rec["caches"]
                spans = rec["spans"]
                covered = [0.0] * len(spans)
                for name, start, end, parent, _ in spans:
                    if parent >= 0:
                        covered[parent] += end - start
                for (name, start, end, _, size), child_time in zip(spans, covered):
                    layer = layers.setdefault(name, {
                        "calls": 0, "self_s": 0.0, "total_s": 0.0,
                        "size3_sum": 0, "max_size": 0, "durations": [],
                    })
                    layer["calls"] += 1
                    layer["total_s"] += end - start
                    layer["self_s"] += end - start - child_time
                    layer["size3_sum"] += size ** 3
                    layer["max_size"] = max(layer["max_size"], size)
                    layer["durations"].append(end - start)
    caches: dict[str, list[int]] = {}
    for snapshot in last_cache.values():
        for name, (hits, misses) in snapshot.items():
            total = caches.setdefault(name, [0, 0])
            total[0] += hits
            total[1] += misses
    return {"layers": layers, "caches": caches}
