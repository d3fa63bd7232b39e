"""Census screening: ingest graph6 streams, group by a cascade of exact
invariants, fingerprint the classes, and diff their pairs.

Groups are keyed by exact invariant values and named by digests of their
coefficient strings (full strings confirm each digest bucket), so grouping
never depends on floating hashes.  Output is a pure function of the input
order and the configuration; the worker count changes timing only.

The builtin generator that feeds `screen --generate` lives in census.py,
and the identity battery in verify.py.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from time import perf_counter

# bound here only for the benchmark tracer, which wraps these two by their
# screen.* names, as it wraps the polynomials.ratfunc_reduce alias
from .census import builtin_generate, canonical_label  # noqa: F401
from .graphs import Graph, Graph6Error, is_connected, is_regular, parse_graph6
from .shadows import (
    DEFAULT_KMAX,
    GROUPING_KEYS,
    Fingerprint,
    PairReport,
    fingerprint,
    invariant,
    invariant_string,
    pair_report,
)
from .zeta import DEFAULT_ORDER


@dataclass(frozen=True)
class ScreenConfig:
    keys: tuple[str, ...] = ("A", "L", "S")
    order: int = DEFAULT_ORDER
    kmax: int = DEFAULT_KMAX
    connected_only: bool = False
    irregular_only: bool = False
    min_degree: int | None = None
    max_degree: int | None = None
    jobs: int = 1
    max_pairs_per_class: int = 10
    skip_malformed: bool = False

    def __post_init__(self):
        if not self.keys:
            raise ValueError("grouping key must be nonempty")
        for i, key in enumerate(self.keys):
            if key not in GROUPING_KEYS:
                raise ValueError(f"unknown grouping key {key!r}; use {GROUPING_KEYS}")
            if key in self.keys[:i]:
                raise ValueError(f"grouping key {key!r} is repeated")
        if self.order < 0 or self.kmax < 0:
            raise ValueError("series order and kmax must be nonnegative")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        if self.max_pairs_per_class < 0:
            raise ValueError(f"max pairs must be nonnegative, got {self.max_pairs_per_class}")
        if "hashimoto" not in self.keys and self.order < 8:
            raise ValueError("series order below 8 cannot report divergence orders")


@dataclass(frozen=True)
class ClassRecord:
    digest: str
    members: tuple[str, ...]  # graph6, in input order
    pairs: tuple[PairReport, ...]

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "digest": self.digest,
            "members": list(self.members),
            "pairs": [p.to_json_dict() for p in self.pairs],
        }


class ScreenError(RuntimeError):
    """An invariant of a screened graph raised, or a pool worker died; the
    message names an input line."""


# graphs per pool task; a batch, or the rest of one, of at most this many
# runs in process, since one chunk would run on one worker anyway
_CHUNK = 8

# _map hands the rest of a batch to a pool once its rate so far is at least
# _POOL_MIN_TASK_S a task and projects the rest to take at least
# _POOL_MIN_S.  Fitted on a pool of 2 workers against this process (Python
# 3.11.7, 2 CPUs, medians of 3-5).  Sending a no-op task and taking back
# its result cost the pool 0.05-0.11 ms of CPU.  Tasks of 0.08-0.22 ms
# (the A, L, S and hashimoto stages at n=7, 8 and 10, batches of up to
# 11117) took 0.87-1.28x their in-process wall time in a pool and 1.55-2.0x
# the CPU time; tasks of 0.57-0.66 ms (A and hashimoto at n=14) took
# 0.51-0.72x, so the floor sits between.  n=7 fingerprints (0.9-1.4 ms a
# task) took 1.17x at 39 ms of work, 0.96x at 83 ms, 0.75x at 0.21 s and
# 0.62-0.70x from 0.48 s, so the time limit sits where the wall time gain
# is steady, not where it starts.
_POOL_MIN_TASK_S = 0.0004
_POOL_MIN_S = 0.25


def _screen_task(args):
    """One graph's invariant for one stage of the key, or, when the stage is
    None, its fingerprint built around the (key, invariant) pairs known."""
    lineno, g, stage, order, kmax, known = args
    try:
        if stage is None:
            return fingerprint(g, order, kmax, known)
        return invariant(g, stage, kmax)
    except Exception as exc:  # noqa: BLE001 - re-raised with its input line
        # raised inside a pool worker too, so jobs > 1 reports the same line
        raise ScreenError(f"line {lineno}: {type(exc).__name__}: {exc}") from exc


def _tasks(kept, indices, stage, cfg, prefix, stages=()) -> list[tuple]:
    return [(kept[i][0], kept[i][2], stage, cfg.order, cfg.kmax, tuple(zip(stages, prefix[i])))
            for i in indices]


def _map(tasks: list[tuple], jobs: int) -> list:
    """_screen_task's results in task order.

    When jobs is 1 or the batch fits in one chunk, which one worker would
    run alone, every task runs in this process.  Otherwise the tasks run
    here a chunk at a time until the rate so far (elapsed / done, 0 before
    the first chunk) is at least _POOL_MIN_TASK_S and projects the rest to
    take at least _POOL_MIN_S; then the rest, if more than one chunk, goes
    to one pool of min(jobs, usable CPUs, chunks) workers, closed before
    return.  A worker that dies raises a ScreenError naming the first line
    of the earliest chunk of the rest without a result."""
    if jobs == 1 or len(tasks) <= _CHUNK:
        return [_screen_task(t) for t in tasks]
    results = []
    start = perf_counter()
    while len(tasks) - len(results) > _CHUNK:
        done = len(results)
        rate = (perf_counter() - start) / done if done else 0.0
        if rate >= _POOL_MIN_TASK_S and rate * (len(tasks) - done) >= _POOL_MIN_S:
            return results + _pool_map(tasks[done:], jobs)
        results += map(_screen_task, tasks[done : done + _CHUNK])
    return results + [_screen_task(t) for t in tasks[len(results) :]]


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_map(tasks: list[tuple], jobs: int) -> list:
    results = []
    workers = min(jobs, _cpus(), -(-len(tasks) // _CHUNK))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        try:
            for result in pool.map(_screen_task, tasks, chunksize=_CHUNK):
                results.append(result)
        except BrokenProcessPool as exc:
            # results arrive in task order, chunk by chunk, so the first
            # missing one starts the earliest chunk still in flight
            chunk = tasks[len(results) : len(results) + _CHUNK]
            raise ScreenError(
                f"line {chunk[0][0]}: a pool worker died while lines "
                f"{chunk[0][0]}-{chunk[-1][0]} were in flight: {type(exc).__name__}: {exc}"
            ) from exc
    return results


class ScreenResult:
    """The classes and summary of one screen.

    stage_counts maps each stage of the key to the number of graphs
    evaluated at it.  fingerprints lists the fingerprint of every kept graph
    in input order; it is built on first read as one batch (see _map) from
    the stage values, reusing those of class members, and kept.  The batch
    runs in this process unless its measured rate says a pool will pay (see
    _map).
    """

    def __init__(self, classes, summary, stage_counts, kept, stages, prefix, built, cfg):
        self.classes: list[ClassRecord] = classes
        self.summary: dict = summary
        self.stage_counts: dict[str, int] = stage_counts
        self._kept = kept  # (lineno, graph6, graph), input order
        self._stages = stages
        self._prefix = prefix  # per kept graph, its stage values
        self._built = built  # index into _kept -> fingerprint
        self._cfg = cfg
        self._fingerprints: list[Fingerprint] | None = None

    @property
    def fingerprints(self) -> list[Fingerprint]:
        if self._fingerprints is None:
            missing = [i for i in range(len(self._kept)) if i not in self._built]
            tasks = _tasks(self._kept, missing, None, self._cfg, self._prefix, self._stages)
            self._built.update(zip(missing, _map(tasks, self._cfg.jobs)))
            self._fingerprints = [self._built[i] for i in range(len(self._kept))]
        return self._fingerprints


def _joined_key(values: dict, keys: tuple[str, ...]) -> str:
    return "|".join(f"{k}={invariant_string(values[k])}" for k in keys)


def key_string_of(fp: Fingerprint, keys: tuple[str, ...]) -> str:
    return _joined_key(fp.invariants(), keys)


def _kept_by_filters(g: Graph, cfg: ScreenConfig) -> bool:
    if cfg.connected_only and not is_connected(g):
        return False
    if cfg.irregular_only and is_regular(g) is not None:
        return False
    if cfg.min_degree is None and cfg.max_degree is None:
        return True
    degs = g.degree_multiset()
    if cfg.min_degree is not None and (not degs or degs[-1] < cfg.min_degree):
        return False
    if cfg.max_degree is not None and (degs and degs[0] > cfg.max_degree):
        return False
    return True


def run_screen(lines, cfg: ScreenConfig) -> ScreenResult:
    """Screen an iterable of (lineno, graph6) pairs for cospectral classes.

    The lines are read once; the graphs that pass the filters are grouped by
    the configured key in a cascade, one stage per key field, cheapest first
    (GROUPING_KEYS order).  Each stage is evaluated only for graphs that
    still share their exact stage values with another graph: a graph alone
    at a prefix of the key is alone for the whole key, so the classes are
    those of a grouping by the full key.  Full fingerprints are built, from
    the stage values, only for members of classes with at least two members,
    which are returned in order of their first member's line with pairwise
    reports; only their keys are written as strings.

    A class digest is the first 16 hex digits of the SHA-256 of its key
    string.  If two classes with at least two members share one, the later
    takes "full:" + its key; a singleton's key is never built, so it takes
    no part in that comparison.

    A graph whose stage value or fingerprint raises stops the screen with a
    ScreenError naming its input line, whatever the worker count.  A pool
    worker that dies stops it with a ScreenError naming the first line of
    the earliest chunk without a result.  Each stage and the member
    fingerprints are one batch each.  A batch runs in this process, a chunk
    at a time, until its rate so far is at least _POOL_MIN_TASK_S and
    projects the rest to take at least _POOL_MIN_S; then the rest, if larger
    than one chunk, runs in a pool of its own with at most cfg.jobs workers,
    and no more than the CPUs this process may use (see _map).
    """
    kept: list[tuple[int, str, Graph]] = []
    read = 0
    malformed = 0
    for lineno, text in lines:
        read += 1
        try:
            g = parse_graph6(text)
        except Graph6Error as exc:
            if cfg.skip_malformed:
                malformed += 1
                continue
            raise Graph6Error(f"line {lineno}: {exc}") from exc
        if _kept_by_filters(g, cfg):
            kept.append((lineno, text, g))

    stages = [k for k in GROUPING_KEYS if k in cfg.keys]
    prefix: list[tuple] = [()] * len(kept)  # stage values so far

    def shared(indices: list[int]) -> list[int]:
        sizes = Counter(prefix[i] for i in indices)
        return [i for i in indices if sizes[prefix[i]] > 1]

    live = list(range(len(kept)))
    stage_counts: dict[str, int] = {}
    for stage in stages:
        live = shared(live)
        stage_counts[stage] = len(live)
        for i, value in zip(live, _map(_tasks(kept, live, stage, cfg, prefix), cfg.jobs)):
            prefix[i] += (value,)
    live = shared(live)
    built = dict(zip(live, _map(_tasks(kept, live, None, cfg, prefix, stages), cfg.jobs)))

    groups: dict[tuple, list[int]] = {}
    for i in live:
        groups.setdefault(prefix[i], []).append(i)
    digest_of: dict[tuple, str] = {}
    key_of_digest: dict[str, str] = {}
    for values in groups:
        key = _joined_key(dict(zip(stages, values)), cfg.keys)
        digest = hashlib.sha256(key.encode()).hexdigest()[:16]
        if key_of_digest.setdefault(digest, key) != key:
            digest = "full:" + key
        digest_of[values] = digest

    classes: list[ClassRecord] = []
    separated = {"shadows": 0, "hashimoto": 0, "S": 0}
    for values, members in sorted(groups.items(), key=lambda item: kept[item[1][0]][0]):
        pairs = []
        for i, j in combinations(members, 2):
            if len(pairs) >= cfg.max_pairs_per_class:
                break
            # from the fingerprints in hand: with jobs > 1 this process
            # never computed them, so compare() would compute them again
            rep = pair_report(built[i], built[j])
            pairs.append(rep)
            if not rep.agree.get("S", True):
                separated["S"] += 1
            if not all(v for k, v in rep.agree.items() if k.startswith("shadow_")):
                separated["shadows"] += 1
            if not rep.agree.get("hashimoto", True):
                separated["hashimoto"] += 1
        classes.append(
            ClassRecord(
                digest=digest_of[values],
                members=tuple(kept[i][1] for i in members),
                pairs=tuple(pairs),
            )
        )

    summary = {
        "read": read,
        "malformed_skipped": malformed,
        "kept": len(kept),
        # every graph outside the classes is a class of its own
        "classes_total": len(kept) - sum(len(m) - 1 for m in groups.values()),
        "classes_nontrivial": len(classes),
        "pairs_reported": sum(len(c.pairs) for c in classes),
        "pairs_separated_by": separated,
        "keys": list(cfg.keys),
    }
    return ScreenResult(classes, summary, stage_counts, kept, stages, prefix, built, cfg)


def write_fingerprints_jsonl(fps, stream) -> None:
    for fp in fps:
        stream.write(fp.to_jsonl() + "\n")


def read_fingerprints_jsonl(stream) -> list[Fingerprint]:
    """Read a JSONL fingerprint store; a bad record raises ValueError naming
    its line number in the store.  A coefficient with a zero denominator,
    such as "1/0", is a bad record too: Fraction raises ZeroDivisionError on
    it.  So is a line nested too deeply for the JSON decoder, which raises
    RecursionError."""
    out = []
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(Fingerprint.from_json_dict(json.loads(line)))
        except (ValueError, KeyError, TypeError, ZeroDivisionError, RecursionError) as exc:
            raise ValueError(
                f"fingerprint store line {lineno}: {type(exc).__name__}: {exc}"
            ) from exc
    return out
