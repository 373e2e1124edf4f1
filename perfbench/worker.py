"""One workload in one fresh process; ``run.py`` starts it.

Untraced (``--trace 0``): time the set-up, warm up, then run the
workload's closed loop until the timed operations add up to
``--seconds``, checking every answer outside the timed region. Each
operation counts at the best time of its kind (see ``Loop``). Prints
one JSON line of figures.

Traced (``--trace 1``): run the loop untraced for half of ``--seconds``,
then replay the same operations on freshly built databases with every
layer's entry point wrapped in spans (see ``spans.py``), and print the
per-layer metrics. End-to-end figures never come from a traced pass.

``--setup-only`` stops after the set-up and prints its time.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Iterable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (imports nothing from repro)
import spans  # noqa: E402

#: The traced pass fails when its spans cover less of the timed wall
#: time than this: some operation ran outside every wrapped entry point.
MIN_TRACE_COVERAGE = 0.9

#: Entry points each workload must reach in a traced run. A refactor
#: that bypasses one fails the run instead of reporting its layer as 0.
REQUIRED_ENTRY_POINTS = {
    "catalogue-cold": (
        "Database.run", "parse", "Translator.translate", "normalize_with_trace",
        "build_plan", "build_group_by_plan", "Optimizer.optimize",
        "Executor.execute", "Evaluator.evaluate",
    ),
    "analytic-large": (
        "Database.run", "build_plan", "build_group_by_plan",
        "Optimizer.optimize", "Executor.execute", "Evaluator.evaluate",
    ),
    "serving-mixed": (
        "Database.run", "QueryCache.compiled_by_text", "QueryCache.remember",
        "QueryCache.result_for", "QueryCache.remember_result",
        "Executor.execute", "run_update", "record_query_result",
    ),
}


class BenchmarkError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def timed_setup(workload: workloads.Workload) -> tuple[float, dict[str, Any]]:
    """Import ``repro`` and build the workload's databases and indexes.

    Only the first call in a process includes the import."""
    start = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        raise BenchmarkError(f"repro imported from {repro.__file__}, not from {SRC}")
    dbs = workload.setup()
    return time.perf_counter() - start, dbs


def same_value(got: Any, want: Any) -> bool:
    """Exact equality, except that floats may differ in the last digits."""
    if got == want:
        return True
    if isinstance(got, float) or isinstance(want, float):
        return (
            isinstance(got, (int, float))
            and isinstance(want, (int, float))
            and math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
        )
    if isinstance(got, (tuple, list)) and type(got) is type(want):
        return len(got) == len(want) and all(map(same_value, got, want))
    from repro.values import Record

    if isinstance(got, Record) and isinstance(want, Record):
        return set(got) == set(want) and all(same_value(got[k], want[k]) for k in got)
    return False


class Checker:
    """Reference answers from ``repro.eval`` on the un-normalized
    translated term, against the current database state; independent
    of the normalizer, planner, JIT and cache under test."""

    def __init__(self, dbs: dict[str, Any], hotel_counts: dict[str, int]) -> None:
        self.dbs = dbs
        self._memo: dict[tuple[str, str], Any] = {}
        #: each city's hotel_count as the update programs so far leave it
        self.hotel_counts = dict(hotel_counts)

    def expected(self, db_name: str, oql: str) -> Any:
        key = (db_name, oql)
        if key not in self._memo:
            db = self.dbs[db_name]
            self._memo[key] = db.evaluator().evaluate(db.translate(oql))
        return self._memo[key]

    def check_write(self, db_name: str, city: str, touched: Any) -> bool:
        """An update program must touch exactly the named city and add
        one to its hotel_count."""
        # Writes change hotel_count and nothing else, so only answers
        # that read it go stale.
        for key in [k for k in self._memo if workloads.UPDATED_FIELD in k[1]]:
            del self._memo[key]
        store = self.dbs[db_name].store
        states = [store.deref(obj) for obj in touched]
        if len(states) != 1 or states[0]["name"] != city:
            return False
        self.hotel_counts[city] += 1
        return states[0][workloads.UPDATED_FIELD] == self.hotel_counts[city]


class Loop:
    """Figures of one closed-loop pass.

    Each operation's time is also filed under its kind: the operation
    itself and what the cache did for it (hit or miss, for compiling and
    for the result). Every repeat of a kind does the same work, and the
    machine runs it in a fast or a slow state, mixed from one millisecond
    to the next in a share that drifts over seconds and minutes. A kind
    repeated a hundred times or more meets the fast state in nearly every
    run, so the end-to-end figures give each operation the best (least)
    time of its kind."""

    def __init__(self) -> None:
        self.read_s: list[float] = []
        self.write_s: list[float] = []
        #: the seconds of every operation of each kind
        self.kinds: dict[Any, list[float]] = {}
        #: seconds spent inside timed operations
        self.timed_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.errors: list[str] = []


def run_ops(
    ops: Iterable[workloads.Op],
    dbs: dict[str, Any],
    checker: Checker,
    budget_s: float = math.inf,
    max_ops: Optional[int] = None,
    wall_cap_s: float = math.inf,
    recorder: Optional[spans.SpanRecorder] = None,
    round_length: int = 1,
) -> Loop:
    """Run operations one at a time until ``budget_s`` seconds of timed
    operations, ``max_ops`` operations, or ``wall_cap_s`` of wall time,
    stopping for the first two only after a whole number of rounds of
    ``round_length`` operations."""
    import repro.objects
    from repro.calculus import const, eq, proj, var

    loop = Loop()
    wall_end = time.perf_counter() + wall_cap_s
    for op in ops:
        if max_ops is not None and loop.attempted >= max_ops:
            break
        if loop.attempted % round_length == 0 and (
                loop.timed_s >= budget_s or time.perf_counter() > wall_end):
            break
        kind, db_name, payload = op
        db = dbs[db_name]
        before = _cache_hits(db)
        loop.attempted += 1
        if recorder is not None:
            recorder.qid = loop.attempted
            recorder.ops[loop.attempted] = f"{kind} {db_name} {payload}"
        try:
            if kind == "read":
                value, elapsed = _timed(recorder, db.run, payload)
                loop.read_s.append(elapsed)
                ok = same_value(value, checker.expected(db_name, payload))
            else:
                program = repro.objects.update_where(
                    "Cities", "c", eq(proj(var("c"), "name"), const(payload)),
                    [repro.objects.add_to_field(workloads.UPDATED_FIELD, const(1))],
                )
                touched, elapsed = _timed(
                    recorder, lambda: repro.objects.run_update(program, db.evaluator()))
                loop.write_s.append(elapsed)
                ok = checker.check_write(db_name, payload, touched)
            loop.timed_s += elapsed
            hits = _cache_hits(db)
            key = (op, hits and (hits[0] - before[0], hits[1] - before[1]))
            loop.kinds.setdefault(key, []).append(elapsed)
        except Exception as err:  # a failed operation is counted, not fatal
            loop.failed += 1
            if len(loop.errors) < 5:
                loop.errors.append(f"{kind} {payload!r}: {type(err).__name__}: {err}")
            continue
        if not ok:
            loop.failed += 1
            loop.mismatches += 1
            if len(loop.errors) < 5:
                loop.errors.append(f"{kind} {payload!r}: answer differs from reference")
    return loop


def _timed(recorder: Optional[spans.SpanRecorder], call: Any, *args: Any) -> tuple[Any, float]:
    """``call(*args)`` and the seconds it took, traced when a recorder
    is given."""
    if recorder is not None:
        recorder.active = True
    start = time.perf_counter()
    try:
        return call(*args), time.perf_counter() - start
    finally:
        if recorder is not None:
            recorder.active = False


def _percentile_ms(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile of ``values`` seconds, in milliseconds."""
    if len(values) < 2:
        return 1000.0 * sum(values)
    return 1000.0 * statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _cache_hits(db: Any) -> Optional[tuple[int, int]]:
    """The cache's compile and result hits so far, if it has a cache."""
    if db.cache is None:
        return None
    return db.cache.stats.compile_hits, db.cache.stats.result_hits


def _best_s(loop: Loop, verb: str) -> list[float]:
    """The seconds of each ``verb`` ("read" or "write") operation of
    ``loop``, taken as the best time of its kind."""
    return [t for key, times in loop.kinds.items() if key[0][0] == verb
            for t in [min(times)] * len(times)]


def _cache_stats(dbs: dict[str, Any]) -> Optional[dict[str, int]]:
    totals: dict[str, int] = {}
    for db in dbs.values():
        if db.cache is not None:
            for name, value in db.cache.stats.as_dict().items():
                totals[name] = totals.get(name, 0) + value
    return totals or None


def _delta(after: Optional[dict], before: Optional[dict]) -> Optional[dict]:
    if after is None:
        return None
    return {k: v - (before or {}).get(k, 0) for k, v in after.items()}


def prepare(workload: workloads.Workload, dbs: dict[str, Any], seed: int) -> tuple[Checker, Loop]:
    """A checker for ``dbs`` and an untimed warm-up over them, so lazy
    imports and caches settle before timing."""
    checker = Checker(dbs, workload.hotel_counts())
    warm = run_ops(workload.warmup(seed), dbs, checker)
    gc.collect()
    return checker, warm


def untraced(args: argparse.Namespace, workload: workloads.Workload,
             setup_s: float, dbs: dict[str, Any]) -> dict[str, Any]:
    checker, warm = prepare(workload, dbs, args.seed)
    cache_before = _cache_stats(dbs)
    loop = run_ops(workload.ops(args.seed), dbs, checker, budget_s=args.seconds,
                   wall_cap_s=4 * args.seconds + 30, round_length=workload.round_length)
    reads, writes = _best_s(loop, "read"), _best_s(loop, "write")
    return {
        "setup_s": setup_s,
        "reads": len(reads),
        "writes": len(writes),
        "kinds": len(loop.kinds),
        "raw_latency_p50_ms": _percentile_ms(loop.read_s, 50),
        "latency_p50_ms": _percentile_ms(reads, 50),
        "latency_p90_ms": _percentile_ms(reads, 90),
        "throughput_qps": len(reads) / sum(reads) if reads else 0.0,
        "write_p50_ms": _percentile_ms(writes, 50),
        "write_p90_ms": _percentile_ms(writes, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": warm.attempted + loop.attempted,
        "failed": warm.failed + loop.failed,
        "mismatches": warm.mismatches + loop.mismatches,
        "errors": warm.errors + loop.errors,
        "cache": _delta(_cache_stats(dbs), cache_before),
    }


def traced(args: argparse.Namespace, workload: workloads.Workload,
           dbs: dict[str, Any]) -> dict[str, Any]:
    checker, warm = prepare(workload, dbs, args.seed)
    base = run_ops(workload.ops(args.seed), dbs, checker, budget_s=args.seconds / 2,
                   wall_cap_s=2 * args.seconds + 30, round_length=workload.round_length)

    # Replay the same operations on fresh databases, traced.
    _, fresh = timed_setup(workload)
    checker, warm2 = prepare(workload, fresh, args.seed)
    recorder = spans.SpanRecorder()
    recorder.install()
    cache_before = _cache_stats(fresh)
    loop = run_ops(workload.ops(args.seed), fresh, checker, max_ops=base.attempted,
                   recorder=recorder)
    if loop.attempted != base.attempted:
        raise BenchmarkError("the traced pass did not replay the untraced operations")
    missing = recorder.missing(REQUIRED_ENTRY_POINTS[workload.name])
    if missing:
        raise BenchmarkError(
            f"{workload.name}: the traced run never reached {', '.join(missing)}; "
            "a wrapped entry point was bypassed or renamed")
    metrics = spans.per_layer(
        recorder, len(loop.read_s), len(loop.write_s), loop.timed_s, base.timed_s,
        _delta(_cache_stats(fresh), cache_before))
    if metrics["trace.coverage"] < MIN_TRACE_COVERAGE:
        raise BenchmarkError(
            f"{workload.name}: spans cover {metrics['trace.coverage']:.3f} of the traced "
            f"wall time, below {MIN_TRACE_COVERAGE}")
    recorder.write(ROOT / ".perfbench" / f"spans-{workload.name}-seed{args.seed}.jsonl")
    passes = (warm, base, warm2, loop)
    return {
        "per_layer": metrics,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "mismatches": sum(p.mismatches for p in passes),
        "errors": [e for p in passes for e in p.errors],
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    setup_s, dbs = timed_setup(workload)
    if args.setup_only:
        result: dict[str, Any] = {"setup_s": setup_s}
    elif args.trace:
        result = traced(args, workload, dbs)
    else:
        result = untraced(args, workload, setup_s, dbs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        sys.exit(2)
