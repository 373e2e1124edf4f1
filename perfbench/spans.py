"""Per-layer spans recorded from outside the program (traced runs only).

:meth:`SpanRecorder.install` replaces each layer's public entry point
with a wrapper that records a span: name, start, end, parent span and
query id. The program itself is not edited. A layer's self time is the
time its spans cover minus the time their child spans cover.

Spans stay in memory and are written out when the run ends. The one
exception is ``Evaluator.evaluate`` called per row by the executor: a
query makes thousands of those calls, so each is timed like any span
but folded into its parent execute span's record as a call count and a
total, which keeps the record of a run small.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Optional, Union


def _evaluate_layer(parent: Optional[str]) -> Optional[str]:
    """``Evaluator.evaluate`` under the executor evaluates one row's
    expression; directly under ``Database.run`` it is the whole-query
    engine. Anywhere else (inside an update program) it is part of the
    calling layer and gets no span of its own."""
    if parent == "algebra.execute":
        return "eval.row"
    if parent == "db":
        return "eval.query"
    return None


#: ``(module, attribute, layer)``: each layer's public entry points. A
#: layer may instead be a function of the parent span's layer that
#: returns the span name, or None for no span.
ENTRY_POINTS: tuple[tuple[str, str, Union[str, Callable]], ...] = (
    ("repro.db.database", "Database.run", "db"),
    ("repro.db.database", "Database.run_detailed", "db"),
    ("repro.oql.parser", "parse", "oql.parse"),
    ("repro.oql.translate", "Translator.translate", "oql.translate"),
    ("repro.normalize.engine", "normalize_with_trace", "normalize"),
    ("repro.algebra.translate", "build_plan", "algebra.plan"),
    ("repro.algebra.groupby", "build_group_by_plan", "algebra.plan"),
    ("repro.algebra.optimizer", "Optimizer.optimize", "algebra.optimize"),
    ("repro.algebra.physical", "Executor.execute", "algebra.execute"),
    ("repro.eval.evaluator", "Evaluator.evaluate", _evaluate_layer),
    ("repro.jit.plan", "precompile_plan", "jit"),
    ("repro.cache.core", "QueryCache.compiled_by_text", "cache"),
    ("repro.cache.core", "QueryCache.compiled_by_canon", "cache"),
    ("repro.cache.core", "QueryCache.alias", "cache"),
    ("repro.cache.core", "QueryCache.remember", "cache"),
    ("repro.cache.core", "QueryCache.result_for", "cache"),
    ("repro.cache.core", "QueryCache.remember_result", "cache"),
    ("repro.objects.updates", "run_update", "objects.update"),
    ("repro.obs.telemetry.instrument", "record_query_result", "obs.telemetry"),
)

#: Per-row spans, folded into their parent's record.
FOLDED = "eval.row"


class SpanRecorder:
    """Collects spans while :attr:`active`; the worker switches it on
    only around the timed call of each operation."""

    def __init__(self) -> None:
        self.active = False
        #: id of the operation being timed, stamped on each span
        self.qid = -1
        #: what each operation was, by id
        self.ops: dict[int, str] = {}
        # open spans: [name, start, child_s, span_id, parent_id, folded_n, folded_s]
        self._stack: list[list[Any]] = []
        self._next_id = 0
        #: closed spans: (id, name, start, end, parent_id, qid, folded_n, folded_s)
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: calls per entry point, for the coverage self-check
        self.hits: Counter = Counter()
        #: counts read off values the entry points return
        self.counts: Counter = Counter()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point whose module is loaded. Call it after a
        warm-up, so every module the workload uses has been imported. A
        loaded module that lacks its entry point raises: the benchmark
        would otherwise report that layer as zero."""
        for module_name, attr, layer in ENTRY_POINTS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                setattr(owner, method, self._wrap(original, attr, layer))
            else:
                original = getattr(module, attr)
                wrapped = self._wrap(original, attr, layer)
                # The function may be bound by name in other modules
                # (``from m import f``); rebind it everywhere.
                for other in list(sys.modules.values()):
                    namespace = getattr(other, "__dict__", None)
                    if namespace is not None and namespace.get(attr) is original:
                        setattr(other, attr, wrapped)

    def _wrap(self, fn: Callable, entry: str, layer: Union[str, Callable]):
        on_return = _RETURN_HOOKS.get(entry)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            if callable(layer):
                name = layer(self._stack[-1][0] if self._stack else None)
                if name is None:
                    return fn(*args, **kwargs)
            else:
                name = layer
            self.hits[entry] += 1
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if on_return is not None:
                on_return(self.counts, result)
            return result

        return traced

    # -- spans -----------------------------------------------------------------

    def _open(self, name: str) -> list[Any]:
        stack = self._stack
        parent_id = stack[-1][3] if stack else -1
        frame = [name, 0.0, 0.0, self._next_id, parent_id, 0, 0.0]
        self._next_id += 1
        stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _close(self, frame: list[Any]) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        name, start, child_s, span_id, parent_id, folded_n, folded_s = frame
        duration = end - start
        self.self_s[name] += duration - child_s
        self.total_s[name] += duration
        self.calls[name] += 1
        if stack:
            parent = stack[-1]
            parent[2] += duration
            if name == FOLDED:
                parent[5] += 1
                parent[6] += duration
                return
        self.spans.append(
            (span_id, name, start, end, parent_id, self.qid, folded_n, folded_s)
        )

    # -- output ------------------------------------------------------------------

    def missing(self, required: tuple[str, ...]) -> list[str]:
        """Required entry points the run never reached."""
        return [entry for entry in required if not self.hits[entry]]

    def write(self, path: Any) -> None:
        """Write every operation and every recorded span, one JSON
        object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "qid", FOLDED + ".calls",
                FOLDED + ".s")
        with open(path, "w", encoding="utf-8") as out:
            for qid, op in self.ops.items():
                out.write(json.dumps({"qid": qid, "op": op}) + "\n")
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def _count_rule_fires(counts: Counter, result: Any) -> None:
    _, trace = result
    counts["normalize.rule_fires"] += len(trace)


def _count_touched(counts: Counter, result: Any) -> None:
    counts["objects.touched"] += len(result)


def _count_query_result(counts: Counter, result: Any) -> None:
    """Counts the program already reports on every ``QueryResult``."""
    counts["results"] += 1
    if result.engine == "algebra":
        counts["planned"] += 1
    stats = result.stats
    if stats is not None:
        counts["rows"] += stats.rows_scanned + stats.rows_unnested + stats.rows_joined
    if result.jit is not None:
        counts["jit.compiled"] += result.jit.get("compiled", 0)
        counts["jit.fallback"] += result.jit.get("fallback", 0)


_RETURN_HOOKS = {
    "normalize_with_trace": _count_rule_fires,
    "run_update": _count_touched,
    "Database.run_detailed": _count_query_result,
}


def per_layer(
    recorder: SpanRecorder,
    reads: int,
    writes: int,
    traced_wall_s: float,
    untraced_wall_s: float,
    cache_delta: Optional[dict[str, int]],
) -> dict[str, float]:
    """The per-layer metrics of one traced pass. Times are mean
    milliseconds per read query (per write for ``objects``); counts are
    means per read query (per write for ``objects.touched``)."""
    self_s, counts = recorder.self_s, recorder.counts

    def per_read_ms(layer: str) -> float:
        return 1000.0 * self_s.get(layer, 0.0) / reads if reads else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    cache = cache_delta or {}
    return {
        "oql.parse.self_ms": per_read_ms("oql.parse"),
        "oql.translate.self_ms": per_read_ms("oql.translate"),
        "normalize.self_ms": per_read_ms("normalize"),
        "normalize.rule_fires": ratio(counts["normalize.rule_fires"], reads),
        "algebra.plan.self_ms": per_read_ms("algebra.plan"),
        "algebra.optimize.self_ms": per_read_ms("algebra.optimize"),
        "algebra.execute.self_ms": per_read_ms("algebra.execute"),
        "algebra.rows": ratio(counts["rows"], reads),
        "algebra.rows_per_s": ratio(counts["rows"], recorder.total_s.get("algebra.execute", 0.0)),
        "algebra.planned_frac": ratio(counts["planned"], counts["results"]),
        "eval.row.self_ms": per_read_ms("eval.row"),
        "eval.row.calls": ratio(recorder.calls["eval.row"], reads),
        "eval.query.self_ms": per_read_ms("eval.query"),
        "jit.compiled_frac": ratio(
            counts["jit.compiled"], counts["jit.compiled"] + counts["jit.fallback"]
        ),
        "cache.self_ms": per_read_ms("cache"),
        "cache.compile_hit_rate": ratio(
            cache.get("compile_hits", 0),
            cache.get("compile_hits", 0) + cache.get("compile_misses", 0),
        ),
        "cache.result_hit_rate": ratio(
            cache.get("result_hits", 0),
            cache.get("result_hits", 0) + cache.get("result_misses", 0),
        ),
        "cache.invalidations": ratio(cache.get("invalidations", 0), reads),
        "cache.evictions": ratio(cache.get("evictions", 0), reads),
        "objects.update.self_ms": ratio(1000.0 * self_s.get("objects.update", 0.0), writes),
        "objects.touched": ratio(counts["objects.touched"], writes),
        "obs.telemetry.self_ms": per_read_ms("obs.telemetry"),
        "db.glue.self_ms": per_read_ms("db"),
        "trace.overhead_frac": ratio(traced_wall_s, untraced_wall_s) - 1.0,
        "trace.coverage": ratio(sum(self_s.values()), traced_wall_s),
    }


def summarize(path: str, match: str = "") -> dict[str, float]:
    """Mean self milliseconds per layer over the operations of a span
    file whose text contains ``match``, plus their mean total."""
    ops: dict[int, str] = {}
    spans_by_qid: dict[int, list[dict]] = defaultdict(list)
    with open(path, encoding="utf-8") as lines:
        for line in lines:
            record = json.loads(line)
            if "op" in record:
                ops[record["qid"]] = record["op"]
            else:
                spans_by_qid[record["qid"]].append(record)
    chosen = [qid for qid, op in ops.items() if match in op]
    self_ms: dict[str, float] = defaultdict(float)
    total_ms = 0.0
    for qid in chosen:
        records = spans_by_qid[qid]
        child_s: dict[int, float] = defaultdict(float)
        for r in records:
            child_s[r["parent"]] += r["end"] - r["start"]
        for r in records:
            folded = r[FOLDED + ".s"]
            self_ms[r["name"]] += 1000.0 * (r["end"] - r["start"] - child_s[r["id"]] - folded)
            if folded:
                self_ms[FOLDED] += 1000.0 * folded
            if r["parent"] == -1:
                total_ms += 1000.0 * (r["end"] - r["start"])
    n = len(chosen) or 1
    summary = {name: ms / n for name, ms in sorted(self_ms.items())}
    summary["total"] = total_ms / n
    summary["operations"] = len(chosen)
    return summary


if __name__ == "__main__":
    # python3 perfbench/spans.py SPAN_FILE [TEXT]: per-layer self time of
    # the operations whose text contains TEXT.
    for name, value in summarize(*sys.argv[1:3]).items():
        print(f"{name:20s} {value:10.4f}")
