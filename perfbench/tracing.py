"""Benchmark-owned tracing: timing wrappers around each layer's public calls.

:func:`install` replaces the attributes callers resolve at call time (a
module global such as ``repro.context.builder.parse``, or a class method
such as ``APFixer.fix``) with wrappers that record one span per call:
``(id, name, start, end, parent, request id, count)``.  Spans stay in
memory and are written out once at the end (:meth:`Tracer.dump`).

A layer's self time is the duration of its spans minus the time their
direct child spans cover.  :func:`layer_table` adds those up per layer so
that self times plus ``unattributed_s`` equal the traced wall time.

Nothing here edits the program: the wrappers return exactly what the
wrapped call returns, and the benchmark installs them only in traced runs.
"""
from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Callable

#: Layer of each span name; names are ``<layer-prefix>.<call>``.
LAYERS = (
    "sqlparser", "catalog", "context", "rules", "detector", "detector.persist",
    "ranking", "fixer", "ingest", "profiler", "reporting", "interfaces.rest",
    "core",
)

#: Span-name prefix -> layer.
_PREFIX_LAYER = {
    "sqlparser": "sqlparser",
    "catalog": "catalog",
    "context": "context",
    "rules": "rules",
    "detector": "detector",
    "persist": "detector.persist",
    "ranking": "ranking",
    "fixer": "fixer",
    "ingest": "ingest",
    "profiler": "profiler",
    "reporting": "reporting",
    "rest": "interfaces.rest",
    "core": "core",
}

#: Span names of the benchmark's own unit of work (not a program layer).
OP_SPAN = "bench.op"


def layer_of(name: str) -> "str | None":
    return _PREFIX_LAYER.get(name.split(".", 1)[0])


class Tracer:
    """In-memory span recorder shared by every wrapper in one process."""

    def __init__(self) -> None:
        #: Off, every wrapper calls straight through and records nothing.
        self.enabled = True
        self.spans: "list[tuple]" = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()

    def _state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.request = 0
        return local, stack

    def new_request(self) -> int:
        """Start a new request id on this thread (children inherit it)."""
        local, _ = self._state()
        local.request = next(self._requests)
        return local.request

    def record(self, name: str, call: Callable, args, kwargs,
               count: "Callable | None" = None):
        if not self.enabled:
            return call(*args, **kwargs)
        local, stack = self._state()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = call(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        n = count(result, args) if count is not None else 0
        self.spans.append((span_id, name, start, end, parent, local.request, n))
        return result

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def _wrapper(tracer: Tracer, name: str, original: Callable,
             count: "Callable | None", new_request: bool = False) -> Callable:
    record = tracer.record

    if new_request:
        @functools.wraps(original)
        def wrapped(*args, **kwargs):
            tracer.new_request()
            return record(name, original, args, kwargs, count)
    else:
        @functools.wraps(original)
        def wrapped(*args, **kwargs):
            return record(name, original, args, kwargs, count)

    return wrapped


def wrap(tracer: Tracer, owner, attribute: str, name: str, *,
         count: "Callable | None" = None, new_request: bool = False) -> None:
    """Replace ``owner.attribute`` (module global or class method)."""
    original = getattr(owner, attribute)
    setattr(owner, attribute, _wrapper(tracer, name, original, count, new_request))


class _TimedLock:
    """Lock proxy recording the wait to acquire as a ``rest.lock_wait`` span."""

    def __init__(self, tracer: Tracer, lock) -> None:
        self._tracer = tracer
        self._lock = lock

    def __enter__(self):
        self._tracer.record("rest.lock_wait", self._lock.acquire, (), {})
        return self

    def __exit__(self, *exc_info) -> None:
        self._lock.release()


class _TimedJSON:
    """Stand-in for the ``json`` module inside the REST interface: encoding
    is a ``reporting.encode`` span, everything else passes through."""

    def __init__(self, tracer: Tracer, module) -> None:
        self._module = module
        self.dumps = _wrapper(tracer, "reporting.encode_json", module.dumps, _length)

    def __getattr__(self, attribute):
        return getattr(self._module, attribute)


def _length(result, args) -> int:
    return len(result)


def _arg_length(index: int) -> Callable:
    def count(result, args) -> int:
        return len(args[index])
    return count


def _is_hit(result, args) -> int:
    return 0 if result is None else 1


def install(tracer: Tracer) -> None:
    """Install the wrappers for every layer at the names callers resolve."""
    import repro.catalog.ddl_builder as ddl_builder
    import repro.context.builder as context_builder
    import repro.detector.pipeline as pipeline
    import repro.ingest.connectors as connectors
    import repro.ingest.scanner as scanner
    import repro.interfaces.rest as rest
    import repro.reporting as reporting
    from repro.context.application_context import ApplicationContext
    from repro.core.sqlcheck import SQLCheck, SQLCheckReport
    from repro.detector.detector import APDetector
    from repro.detector.persist import PersistentMemo
    from repro.fixer.repair_engine import APFixer
    from repro.profiler.profiler import DataProfiler
    from repro.ranking.ranker import APRanker
    from repro.rules.base import DataRule, QueryRule

    # sqlparser: every module that calls parse/annotate by its own global.
    for module in (context_builder, pipeline):
        wrap(tracer, module, "parse", "sqlparser.parse", count=_length)
        wrap(tracer, module, "annotate", "sqlparser.annotate")
    wrap(tracer, ddl_builder, "parse", "sqlparser.parse", count=_length)
    # catalog
    wrap(tracer, ddl_builder.DDLBuilder, "build", "catalog.ddl_build",
         count=lambda schema, args: schema.table_count)
    # context
    wrap(tracer, context_builder.ContextBuilder, "build", "context.build")
    wrap(tracer, ApplicationContext, "queries_referencing", "context.referencing")
    wrap(tracer, ApplicationContext, "queries_referencing_column",
         "context.referencing")
    # rules
    wrap(tracer, QueryRule, "observed_check", "rules.query_check", count=_length)
    wrap(tracer, DataRule, "observed_check_table", "rules.data_check", count=_length)
    # detector + its persistent store
    wrap(tracer, APDetector, "detect_in_context", "detector.detect")
    for attribute in ("get_detections", "get_annotations", "get_corpus"):
        wrap(tracer, PersistentMemo, attribute, "persist.read", count=_is_hit)
    for attribute in ("put_detections", "put_annotations", "put_corpus"):
        wrap(tracer, PersistentMemo, attribute, "persist.write")
    original_flush = PersistentMemo.flush

    def flush(self):
        # Count only flushes that write a transaction.
        pending = len(self._pending)
        return tracer.record("persist.flush", original_flush, (self,), {},
                             lambda result, args: pending)

    PersistentMemo.flush = flush
    # ranking / fixer
    wrap(tracer, APRanker, "rank", "ranking.rank")
    wrap(tracer, APFixer, "fix", "fixer.fix", count=_length)
    # ingest / profiler
    wrap(tracer, scanner, "read_workload_log", "ingest.read_log",
         count=lambda log, args: len(log.errors))
    wrap(tracer, scanner, "connect", "ingest.connect")
    wrap(tracer, connectors.Connector, "_guarded", "ingest.connector")
    wrap(tracer, connectors.Connector, "profiles", "ingest.profiles")
    wrap(tracer, connectors.RetryPolicy, "delay", "ingest.retry")
    wrap(tracer, DataProfiler, "profile_rows", "profiler.profile",
         count=_arg_length(2))
    # reporting: the render entry point the benchmark calls, the REST
    # interface's document builder, and report encoding.
    wrap(tracer, reporting, "render_report", "reporting.render", count=_length)
    wrap(tracer, rest, "build_document", "reporting.render")
    wrap(tracer, SQLCheckReport, "to_dict", "reporting.encode")
    rest.json = _TimedJSON(tracer, rest.json)
    # interfaces.rest: the HTTP entry (new request id), the handler, and
    # the wait on the pooled toolchain lock.
    wrap(tracer, rest._Handler, "do_POST", "rest.http", new_request=True)
    wrap(tracer, rest, "handle_check_request", "rest.handler")
    original_acquire = rest.ToolchainPool.acquire

    def acquire(self, key, factory):
        toolchain, lock = original_acquire(self, key, factory)
        return toolchain, _TimedLock(tracer, lock)

    rest.ToolchainPool.acquire = acquire
    # core: the toolchain entry points that call all the others.
    wrap(tracer, SQLCheck, "check", "core.check")
    wrap(tracer, SQLCheck, "check_context", "core.check_context")
    wrap(tracer, scanner.LiveScanner, "scan", "core.scan")


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def self_times(spans: "list") -> "dict[int, float]":
    """Span id -> duration minus the time its direct children cover."""
    own = {span[0]: span[3] - span[2] for span in spans}
    for span in spans:
        parent = span[4]
        if parent in own:
            own[parent] -= span[3] - span[2]
    return own


def layer_table(spans: "list", wall_s: float) -> "dict[str, float]":
    """Per-layer self seconds plus ``unattributed_s`` (sums to ``wall_s``).

    Only spans that belong to a program layer count; the benchmark's own
    operation spans and anything else unlayered fall to ``unattributed_s``.
    """
    own = self_times(spans)
    table = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        layer = layer_of(span[1])
        if layer is not None:
            table[layer] += own[span[0]]
    table["unattributed_s"] = wall_s - sum(table[layer] for layer in LAYERS)
    return table


#: Per-layer metrics of a traced run: ``(name, unit, better)``.
PER_LAYER = (
    ("sqlparser.self_s", "s", "lower"),
    ("sqlparser.parse_s", "s", "lower"),
    ("sqlparser.annotate_s", "s", "lower"),
    ("sqlparser.statements", "count", "lower"),
    ("sqlparser.annotation_cache_hit_ratio", "ratio", "higher"),
    ("catalog.self_s", "s", "lower"),
    ("catalog.ddl_build_s", "s", "lower"),
    ("catalog.tables", "count", "lower"),
    ("context.self_s", "s", "lower"),
    ("context.build_s", "s", "lower"),
    ("context.referencing_s", "s", "lower"),
    ("context.referencing_calls", "count", "lower"),
    ("rules.self_s", "s", "lower"),
    ("rules.query_check_s", "s", "lower"),
    ("rules.data_check_s", "s", "lower"),
    ("rules.checks", "count", "lower"),
    ("rules.detections", "count", "lower"),
    ("detector.self_s", "s", "lower"),
    ("detector.detect_s", "s", "lower"),
    ("detector.memo_hit_ratio", "ratio", "higher"),
    ("persist.self_s", "s", "lower"),
    ("persist.read_ms", "ms", "lower"),
    ("persist.write_ms", "ms", "lower"),
    ("persist.flush_ms", "ms", "lower"),
    ("persist.flushes", "count", "lower"),
    ("persist.hit_ratio", "ratio", "higher"),
    ("persist.file_mb", "MB", "lower"),
    ("ranking.self_s", "s", "lower"),
    ("ranking.rank_s", "s", "lower"),
    ("fixer.self_s", "s", "lower"),
    ("fixer.fix_s", "s", "lower"),
    ("fixer.fixes", "count", "lower"),
    ("ingest.self_s", "s", "lower"),
    ("ingest.read_log_s", "s", "lower"),
    ("ingest.log_lines", "count", "higher"),
    ("ingest.lines_skipped", "count", "lower"),
    ("ingest.connector_s", "s", "lower"),
    ("ingest.connector_calls", "count", "lower"),
    ("ingest.connector_retries", "count", "lower"),
    ("profiler.self_s", "s", "lower"),
    ("profiler.profile_s", "s", "lower"),
    ("profiler.rows", "count", "lower"),
    ("reporting.self_s", "s", "lower"),
    ("reporting.render_s", "s", "lower"),
    ("reporting.encode_s", "s", "lower"),
    ("reporting.bytes", "count", "lower"),
    ("rest.self_s", "s", "lower"),
    ("rest.handler_ms", "ms", "lower"),
    ("rest.lock_wait_ms", "ms", "lower"),
    ("rest.transport_ms", "ms", "lower"),
    ("rest.requests", "count", "higher"),
    ("rest.failed", "count", "lower"),
    ("core.self_s", "s", "lower"),
    ("core.check_s", "s", "lower"),
    ("unattributed_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
)

#: ``<prefix>.self_s`` metric of each layer.
SELF_METRIC = {layer: f"{prefix}.self_s" for prefix, layer in _PREFIX_LAYER.items()}


def layer_metrics(spans: "list", wall_s: float, *, counters: dict,
                  log_lines: int = 0, persist_file_mb: float = 0.0,
                  latencies: "list[float] | None" = None,
                  client_failed: int = 0) -> "dict[str, float]":
    """Every :data:`PER_LAYER` metric except the ``trace.overhead_*`` pair.

    ``counters`` holds the program's own cache counters (``annotation_*``
    and ``memo_*`` hits/misses); ``latencies`` are the client-side request
    times of the REST workload, whose traced wall time is their sum.
    """
    own = self_times(spans)
    names = {span[0]: span[1] for span in spans}
    total = defaultdict(float)
    self_s = defaultdict(float)
    calls: "Counter[str]" = Counter()
    counts: "Counter[str]" = Counter()
    core_s = 0.0
    for span in spans:
        span_id, name, start, end, parent = span[:5]
        parent_name = names.get(parent, "")
        self_s[name] += own[span_id]
        if parent_name == name:
            continue  # nested call of the same function: counted once
        total[name] += end - start
        calls[name] += 1
        counts[name] += span[6]
        if layer_of(name) == "core" and layer_of(parent_name) != "core":
            core_s += end - start
    table = layer_table(spans, wall_s)
    flushes = [span for span in spans if span[1] == "persist.flush" and span[6] > 0]

    def mean_ms(name: str) -> float:
        return 1000.0 * total[name] / calls[name] if calls[name] else 0.0

    def ratio(hits: float, misses: float) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    handler_ms = mean_ms("rest.handler")
    metrics = {SELF_METRIC[layer]: table[layer] for layer in LAYERS}
    metrics.update({
        "sqlparser.parse_s": total["sqlparser.parse"],
        "sqlparser.annotate_s": total["sqlparser.annotate"],
        "sqlparser.statements": counts["sqlparser.parse"],
        "sqlparser.annotation_cache_hit_ratio": ratio(
            counters.get("annotation_hits", 0), counters.get("annotation_misses", 0)),
        "catalog.ddl_build_s": total["catalog.ddl_build"],
        "catalog.tables": counts["catalog.ddl_build"],
        "context.build_s": self_s["context.build"],
        "context.referencing_s": total["context.referencing"],
        "context.referencing_calls": calls["context.referencing"],
        "rules.query_check_s": total["rules.query_check"],
        "rules.data_check_s": total["rules.data_check"],
        "rules.checks": calls["rules.query_check"] + calls["rules.data_check"],
        "rules.detections": counts["rules.query_check"] + counts["rules.data_check"],
        "detector.detect_s": self_s["detector.detect"],
        "detector.memo_hit_ratio": ratio(
            counters.get("memo_hits", 0), counters.get("memo_misses", 0)),
        "persist.read_ms": mean_ms("persist.read"),
        "persist.write_ms": mean_ms("persist.write"),
        "persist.flush_ms": (
            1000.0 * sum(s[3] - s[2] for s in flushes) / len(flushes) if flushes else 0.0),
        "persist.flushes": len(flushes),
        "persist.hit_ratio": ratio(
            counts["persist.read"], calls["persist.read"] - counts["persist.read"]),
        "persist.file_mb": persist_file_mb,
        "ranking.rank_s": total["ranking.rank"],
        "fixer.fix_s": self_s["fixer.fix"],
        "fixer.fixes": counts["fixer.fix"],
        "ingest.read_log_s": total["ingest.read_log"],
        "ingest.log_lines": log_lines * calls["ingest.read_log"],
        "ingest.lines_skipped": counts["ingest.read_log"],
        "ingest.connector_s": total["ingest.connector"],
        "ingest.connector_calls": calls["ingest.connector"],
        "ingest.connector_retries": calls["ingest.retry"],
        "profiler.profile_s": total["profiler.profile"],
        "profiler.rows": counts["profiler.profile"],
        "reporting.render_s": total["reporting.render"],
        "reporting.encode_s": total["reporting.encode"] + total["reporting.encode_json"],
        "reporting.bytes": counts["reporting.render"] + counts["reporting.encode_json"],
        "rest.handler_ms": handler_ms,
        "rest.lock_wait_ms": (
            1000.0 * total["rest.lock_wait"] / calls["rest.handler"]
            if calls["rest.handler"] else 0.0),
        "rest.transport_ms": (
            1000.0 * sum(latencies) / len(latencies) - handler_ms if latencies else 0.0),
        "rest.requests": calls["rest.handler"],
        "rest.failed": client_failed,
        "core.check_s": core_s,
        "unattributed_s": table["unattributed_s"],
        "trace.wall_s": wall_s,
        "trace.spans": len(spans),
    })
    return metrics
