"""One workload run in a fresh interpreter (spawned by ``run.py``).

Usage::

    python3 perfbench/worker.py probe <workload>   # prints set-up seconds
    python3 perfbench/worker.py run <spec.json>    # writes spec["out"]

``probe`` times ``import repro`` plus the first toolchain construction.
``run`` does the same, then repeats the workload's unit of work until
``spec["seconds"]`` have passed (and at least ``spec["min_ops"]`` units
are done), checking every output.  With ``spec["trace"]`` the layer
wrappers from ``tracing.py`` are installed first, units alternate between
traced and untraced (so the tracing overhead is measured against
neighbours in time, not against another run), and the spans of the traced
units are written to ``spec["spans"]`` at the end.
"""
from __future__ import annotations

import json
import sys
import time

from tracing import OP_SPAN

_WORKLOADS = ("github-apps", "scan-log")


def _setup(workload: str):
    """Import the program and build the first toolchain; return (s, factory)."""
    start = time.perf_counter()
    import repro  # noqa: F401  (the import is what is timed)

    if workload == "github-apps":
        from repro import SQLCheck as factory
    else:
        from repro.ingest import LiveScanner as factory
    factory()
    return time.perf_counter() - start, factory


def _sarif_ok(text: str) -> bool:
    try:
        log = json.loads(text)
    except ValueError:
        return False
    return (
        isinstance(log, dict)
        and log.get("version") == "2.1.0"
        and isinstance(log.get("runs"), list)
        and len(log["runs"]) == 1
        and isinstance(log["runs"][0].get("results"), list)
    )


class _Counters:
    """The program's own cache counters, summed over every toolchain."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.values = {"annotation_hits": 0, "annotation_misses": 0,
                       "memo_hits": 0, "memo_misses": 0}

    def add(self, detector) -> None:
        cache = detector.annotation_cache
        if cache is not None:
            self.values["annotation_hits"] += cache.stats.hits
            self.values["annotation_misses"] += cache.stats.misses
        info = detector.memo_info
        self.values["memo_hits"] += info["hits"]
        self.values["memo_misses"] += info["misses"]


def _github_apps(spec: dict, factory, tracer, result: dict) -> None:
    """One unit = one repository checked as a CI job would: a fresh
    ``SQLCheck()``, ``check(statements, source=repo)``, SARIF render."""
    from repro import reporting

    with open(spec["inputs"]["apps"], encoding="utf-8") as handle:
        apps = json.load(handle)
    order = list(apps)
    counters = _Counters()
    first_pass: "dict[str, list]" = {}

    def unit(repo: str):
        toolchain = factory()
        report = toolchain.check(apps[repo], source=repo)
        return toolchain, report, reporting.render_report(report, "sarif")

    def check(repo: str, outcome, traced: bool) -> "str | None":
        toolchain, report, sarif = outcome
        if traced:
            counters.add(toolchain.detector)
        if repo not in first_pass:
            first_pass[repo] = sorted(
                {(entry.detection.query_index, entry.detection.anti_pattern.value)
                 for entry in report}
            )
        if report.errors:
            return f"{repo}: {len(report.errors)} quarantined error(s) on clean input"
        if not _sarif_ok(sarif):
            return f"{repo}: SARIF output does not parse as a SARIF 2.1.0 log"
        return None

    _loop(spec, order, unit, check, lambda repo: len(apps[repo]), tracer, result,
          min_ops=len(order), reset=counters.reset)
    result["first_pass"] = first_pass
    result["counters"] = counters.values


def _scan_log(spec: dict, factory, tracer, result: dict) -> None:
    """One unit = ``LiveScanner().scan(db, log)`` plus the HTML report."""
    from repro import reporting

    inputs = spec["inputs"]
    planted = {tuple(pair) for pair in inputs["planted"]}
    counters = _Counters()

    def unit(_key):
        scanner = factory()
        report = scanner.scan(inputs["db"], inputs["log"])
        return scanner, report, reporting.render_report(report, "html")

    def check(_key, outcome, traced: bool) -> "str | None":
        scanner, report, html = outcome
        if traced:
            counters.add(scanner.toolchain.detector)
        pairs = sorted(
            {(entry.detection.anti_pattern.value, entry.detection.table)
             for entry in report if entry.detection.table}
        )
        result.setdefault("pairs", pairs)
        missing = planted.difference(pairs)
        if missing:
            return f"planted pair(s) not detected: {sorted(missing)}"
        if report.errors:
            return f"scan degraded: {len(report.errors)} pipeline error(s)"
        if not html.startswith("<!DOCTYPE html>") and "<html" not in html[:200]:
            return "HTML report is not an HTML document"
        return None

    _loop(spec, ["scan"], unit, check, lambda _key: inputs["log_lines"], tracer,
          result, min_ops=spec["min_ops"], reset=counters.reset)
    result["counters"] = counters.values


def _loop(spec, keys, unit, check, size, tracer, result, *, min_ops: int,
          reset) -> None:
    """Warm up once, then repeat units until time is up and ``min_ops``
    timed units are done.  Every unit's output is checked; a failure or an
    exception counts against ``failed``.  ``reset`` drops what the warm-up
    recorded.

    With a tracer, units alternate between traced and untraced.  The parity
    flips every pass when a pass has an even number of keys, so every key
    runs both ways.
    """
    failures: "list[str]" = []
    lanes = {False: ([], []), True: ([], [])}  # traced -> (seconds, sizes)
    attempted = 0

    def attempt(key, traced: bool) -> None:
        nonlocal attempted
        attempted += 1
        start = time.perf_counter()
        try:
            if traced:
                tracer.enabled = True
                outcome = tracer.record(OP_SPAN, unit, (key,), {})
            else:
                if tracer is not None:
                    tracer.enabled = False
                outcome = unit(key)
        except Exception as error:  # noqa: BLE001 - an operation failed
            failures.append(f"{key}: {type(error).__name__}: {error}")
            return
        elapsed = time.perf_counter() - start
        samples, sizes = lanes[traced]
        samples.append(elapsed)
        sizes.append(size(key))
        problem = check(key, outcome, traced)
        if problem is not None:
            failures.append(problem)

    # Warm-up: one unit, checked but not timed (lazy imports and regex
    # compilation happen once per process, not per unit).
    attempt(keys[0], tracer is not None)
    for samples, sizes in lanes.values():
        samples.clear()
        sizes.clear()
    reset()
    if tracer is not None:
        tracer.spans.clear()
    flip_per_pass = len(keys) % 2 == 0
    begin = time.perf_counter()
    index = 0
    while (time.perf_counter() - begin < spec["seconds"]
           or len(lanes[False][0]) + len(lanes[True][0]) < min_ops):
        if time.perf_counter() - begin > spec["max_seconds"]:
            break
        traced = tracer is not None and (
            index + (index // len(keys) if flip_per_pass else 0)) % 2 == 0
        attempt(keys[index % len(keys)], traced)
        index += 1
    result.update(
        samples=lanes[False][0],
        sizes=lanes[False][1],
        traced_samples=lanes[True][0],
        traced_sizes=lanes[True][1],
        attempted=attempted,
        failed=len(failures),
        failures=failures[:5],
    )


def run(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    workload = spec["workload"]
    setup_s, factory = _setup(workload)
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    result: dict = {"setup_s": setup_s}
    if workload == "github-apps":
        _github_apps(spec, factory, tracer, result)
    else:
        _scan_log(spec, factory, tracer, result)
    from stats import peak_rss_mb

    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        tracer.dump(spec["spans"])
    with open(spec["out"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)


def main(argv: "list[str]") -> int:
    if len(argv) == 2 and argv[0] == "probe" and argv[1] in _WORKLOADS:
        seconds, _ = _setup(argv[1])
        print(json.dumps({"setup_s": seconds}))
        return 0
    if len(argv) == 2 and argv[0] == "run":
        run(argv[1])
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
