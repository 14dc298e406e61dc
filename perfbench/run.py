"""SQLCheck benchmark: three seeded workloads, end to end and per layer.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload github-apps --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Workloads (see ``perfbench/DESIGN.md`` for why each was chosen):

* ``github-apps`` — every repository of the labelled synthetic GitHub
  corpus checked as one CI job would: a fresh ``SQLCheck()``, ``check``,
  then a SARIF report;
* ``scan-log`` — ``LiveScanner().scan(db, log)`` over a seeded SQLite
  database with planted anti-patterns and a 24k-line PostgreSQL log, then
  an HTML report;
* ``rest-service`` — ``sqlcheck serve`` restarted on a copy of a primed
  persistent memo, driven by closed-loop keep-alive clients posting one
  corpus statement per ``POST /api/check``.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload traced (timing wrappers around each
layer's public calls, installed from ``perfbench/tracing.py``) plus an
untraced run for the tracing overhead, and reports the per-layer metrics.
Human-readable rows go to standard output first; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402  (benchmark-local modules)
import stats  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("github-apps", "scan-log", "rest-service")

#: End-to-end metrics of the result line (``--trace 0``) and their units;
#: ``BENCHMARK.json`` gives each its bound.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "precision": "ratio",
    "recall": "ratio",
    "peak_rss_mb": "MB",
}

#: Measured and printed in every row, but not in the result line: their
#: run-to-run spread on a shared host exceeds the largest bound the result
#: line may carry (see DESIGN.md, "Noise and bounds").
ROW_ONLY = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}

#: What ``throughput_per_s`` counts on each workload.
THROUGHPUT = {
    "github-apps": ("stmts_per_s", "stmts"),
    "scan-log": ("log_lines_per_s", "log lines"),
    "rest-service": ("req_per_s", "requests"),
}

#: Set-up samples per run (the run's own start is one of them).
SETUP_SAMPLES = 15
#: Timed scans every ``scan-log`` run completes (its tail is their maximum).
SCAN_MIN_OPS = 3
#: Replies every ``rest-service`` run collects (so p99 has 40 beyond it).
#: The server's peak RSS is read when this many replies are in: the store
#: and caches grow with every never-seen statement, so a peak read at the
#: end would grow with throughput.
REST_MIN_REQUESTS = 4000
#: Hard cap on one measured loop, whatever ``--seconds`` says.
MAX_LOOP_SECONDS = 90.0
#: Hard cap on one worker process.
WORKER_TIMEOUT_S = 170.0


def _probe_split() -> "tuple[int, int]":
    """Set-up probes to take before and after the measured run.  The host's
    speed drifts over tens of seconds, so probes on both sides of the run
    sample more of that drift than probes bunched at its start."""
    before = (SETUP_SAMPLES - 1) // 2
    return before, SETUP_SAMPLES - 1 - before


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


def _child_env() -> dict:
    env = dict(os.environ)
    source = str(ROOT / "src")
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _commit() -> str:
    """The checked-out commit, or "unknown" outside a git checkout."""
    try:
        completed = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def _labelled_types(labels) -> "set[str]":
    return {ap for statement in labels for ap in statement}


def _score(found: "set[str]", truth: "set[str]", universe: "set[str]", tally: list) -> None:
    found &= universe
    truth &= universe
    tally[0] += len(found & truth)
    tally[1] += len(found - truth)
    tally[2] += len(truth - found)


# ----------------------------------------------------------------------
# in-process workloads (github-apps, scan-log): a worker per run
# ----------------------------------------------------------------------
def _worker(args: "list[str]", env: dict) -> str:
    completed = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT, env=env,
        stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if completed.returncode != 0:
        raise BenchmarkError(f"worker {args[0]} failed:\n{completed.stderr[-2000:]}")
    return completed.stdout


def _run_worker(spec: dict, work: Path, env: dict) -> dict:
    spec = dict(spec, out=str(work / "result.json"), spans=str(work / "spans.json"))
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    _worker(["run", str(spec_path)], env)
    with open(spec["out"], encoding="utf-8") as handle:
        result = json.load(handle)
    if spec["trace"]:
        with open(spec["spans"], encoding="utf-8") as handle:
            result["spans"] = json.load(handle)
    return result


def _prepare_in_process(workload: str, seed: int, work: Path) -> dict:
    if workload == "github-apps":
        return inputs.write_github_apps(seed, work)
    return inputs.write_scan_log(seed, work)


def _quality(workload: str, prepared: dict, result: dict) -> "tuple[float, float, int]":
    """Precision, recall and the number of scored items."""
    tally = [0, 0, 0]
    if workload == "github-apps":
        labels = prepared["labels"]
        universe = _labelled_types(s for repo in labels.values() for s in repo)
        for repo, detections in result["first_pass"].items():
            by_index: "dict[int, set[str]]" = {}
            for index, anti_pattern in detections:
                by_index.setdefault(index, set()).add(anti_pattern)
            for index, truth in enumerate(labels[repo]):
                _score(by_index.get(index, set()), set(truth), universe, tally)
        scored = sum(len(statements) for statements in labels.values())
    else:
        planted = {tuple(pair) for pair in prepared["planted"]}
        universe = {anti_pattern for anti_pattern, _ in planted}
        found = {tuple(pair) for pair in result.get("pairs", []) if pair[0] in universe}
        tally = [len(found & planted), len(found - planted), len(planted - found)]
        scored = len(planted)
    precision, recall = stats.precision_recall(*tally)
    return precision, recall, scored


def _in_process(workload: str, args, work: Path, env: dict) -> dict:
    prepared = _prepare_in_process(workload, args.seed, work)
    worker_inputs = {key: value for key, value in prepared.items() if key != "labels"}
    spec = {
        "workload": workload, "seconds": args.seconds, "max_seconds": MAX_LOOP_SECONDS,
        "min_ops": SCAN_MIN_OPS, "inputs": worker_inputs,
    }
    guaranteed = len(prepared["labels"]) if workload == "github-apps" else SCAN_MIN_OPS
    if args.trace:
        result = _run_worker(dict(spec, trace=True), work, env)
        wall = sum(result["traced_samples"])
        metrics = tracing.layer_metrics(
            result["spans"], wall, counters=result["counters"],
            log_lines=prepared.get("log_lines", 0),
        )
        _overhead(metrics, wall,
                  [t / n for t, n in zip(result["traced_samples"], result["traced_sizes"])],
                  [t / n for t, n in zip(result["samples"], result["sizes"])])
        return _outcome(workload, args, metrics, [result], layers=True)

    def probes(count: int) -> "list[float]":
        return [json.loads(_worker(["probe", workload], env))["setup_s"] for _ in range(count)]

    before, after = _probe_split()
    setup = probes(before)
    result = _run_worker(dict(spec, trace=False), work, env)
    setup += [result["setup_s"]] + probes(after)
    samples = result["samples"]
    units = sum(result["sizes"])
    # Work over busy seconds, not over the median unit: the host's speed
    # drifts between fast and slow spells, and a median of few units jumps
    # between the two where a sum moves with their mix.
    throughput = units / sum(samples)
    tail_value, tail_label = stats.tail(samples, guaranteed)
    precision, recall, scored = _quality(workload, prepared, result)
    metrics = {
        "setup_s": statistics.median(setup),
        "throughput_per_s": throughput,
        "latency_p50_ms": 1000.0 * statistics.median(samples),
        "latency_tail_ms": 1000.0 * tail_value,
        "precision": precision,
        "recall": recall,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    unit = "apps" if workload == "github-apps" else "scans"
    samples_note = {
        "setup_s": f"n={len(setup)} starts",
        "throughput_per_s": f"n={units} {THROUGHPUT[workload][1]} in {len(samples)} {unit}",
        "latency_p50_ms": f"n={len(samples)} {unit}",
        "latency_tail_ms": f"{tail_label}, n={len(samples)} {unit}",
        "precision": f"n={scored} labelled items",
        "recall": f"n={scored} labelled items",
        "peak_rss_mb": "VmHWM of the worker process",
    }
    return _outcome(workload, args, metrics, [result], notes=samples_note)


# ----------------------------------------------------------------------
# rest-service: a server subprocess, clients in this process
# ----------------------------------------------------------------------
def _copy_store(snapshot: Path, target: Path) -> Path:
    for suffix in ("", "-wal", "-shm"):
        source = Path(str(snapshot) + suffix)
        if source.exists():
            shutil.copyfile(source, str(target) + suffix)
    return target


def _store_mb(store: Path) -> float:
    size = sum(
        Path(str(store) + suffix).stat().st_size
        for suffix in ("", "-wal") if Path(str(store) + suffix).exists()
    )
    return size / (1024.0 * 1024.0)


def _prime(snapshot: Path, pool: "list[str]") -> None:
    """Prime the persistent memo the way the service fills it: one
    ``check`` per statement through a store-backed toolchain."""
    from repro import SQLCheck, SQLCheckOptions
    from repro.detector.detector import DetectorConfig

    toolchain = SQLCheck(SQLCheckOptions(
        detector=DetectorConfig(persistent_memo_path=str(snapshot))))
    try:
        for text in pool:
            toolchain.check(text)
    finally:
        toolchain.detector.close()


def _serve(snapshot: Path, work: Path, env: dict, name: str, *,
           spans: "tuple[Path | None, ...]" = (None,), load=None) -> dict:
    """Start one server per ``spans`` entry (traced when it names a spans
    file), each on a fresh copy of the snapshot; optionally drive
    ``load(servers)`` against them and merge the dict it returns.  The
    servers are always stopped and their store copies deleted.  Health and
    store size are the first server's."""
    import service

    servers: "list[tuple[service.Server, Path]]" = []
    outcome: dict = {}
    try:
        for number, spans_path in enumerate(spans):
            store = _copy_store(snapshot, work / f"{name}-{number}.db")
            servers.append((service.Server(ROOT, env, store, spans_path), store))
        outcome["setup_s"] = [server.wait_ready() for server, _ in servers][0]
        if load is not None:
            outcome.update(load([server for server, _ in servers]))
            status, health = servers[0][0].get("/api/health")
            outcome["health"] = health if status == 200 else {}
    finally:
        codes = [server.stop() for server, _ in servers]
    for (server, store), code in zip(servers, codes):
        if code != 0:
            raise BenchmarkError(
                f"server exited with {code}: " + " | ".join(server.stderr_tail))
    outcome["store_mb"] = _store_mb(servers[0][1])
    for _, store in servers:
        for suffix in ("", "-wal", "-shm"):
            Path(str(store) + suffix).unlink(missing_ok=True)
    return outcome


def _health_counters(health: dict) -> dict:
    counters = {"annotation_hits": 0, "annotation_misses": 0, "memo_hits": 0, "memo_misses": 0}
    for toolchain in health.get("toolchains", {}).get("toolchains", []):
        cache = toolchain.get("annotation_cache") or {}
        counters["annotation_hits"] += cache.get("hits", 0)
        counters["annotation_misses"] += cache.get("misses", 0)
        memo = toolchain.get("detection_memo") or {}
        counters["memo_hits"] += memo.get("hits", 0)
        counters["memo_misses"] += memo.get("misses", 0)
    return counters


def _verify_replies(results, requests, labels) -> "tuple[int, list[str], float, float, int]":
    """Check every reply against in-process ``SQLCheck().check`` of the same
    text; score precision/recall over the statement pool."""
    from repro import SQLCheck

    toolchain = SQLCheck()
    reference: "dict[str, str]" = {}

    def expected(text: str) -> str:
        if text not in reference:
            detections = toolchain.check(text).to_dict()["detections"]
            reference[text] = json.dumps(
                json.loads(json.dumps(detections, default=str)), sort_keys=True)
        return reference[text]

    failed = 0
    problems: "list[str]" = []
    answered: "dict[str, str]" = {}
    for index, _latency, status, detections in results:
        text = requests[index][0]
        if status != 200:
            failed += 1
            problems.append(f"request {index}: status {status}: {str(detections)[:200]}")
        elif detections != expected(text):
            failed += 1
            problems.append(f"request {index}: detections differ from in-process check")
        else:
            answered[text] = detections
    universe = _labelled_types(labels.values())
    tally = [0, 0, 0]
    for text, truth in labels.items():
        detections = json.loads(answered.get(text) or expected(text))
        _score({d["anti_pattern"] for d in detections}, set(truth), universe, tally)
    precision, recall = stats.precision_recall(*tally)
    return failed, problems[:5], precision, recall, len(labels)


def _rest_service(args, work: Path, env: dict) -> dict:
    import service

    prepared = inputs.rest_requests(args.seed)
    snapshot = work / "primed.db"
    _prime(snapshot, prepared["pool"])
    requests = prepared["requests"]
    clients = max(1, min(os.cpu_count() or 1, 8))

    def load(servers) -> dict:
        pid = servers[0].process.pid
        outcome: dict = {}

        def read_rss() -> None:
            outcome["peak_rss_mb"] = stats.peak_rss_mb(pid)

        outcome["results"], outcome["wall_s"] = service.closed_loop(
            [server.address for server in servers], requests, clients, args.seconds,
            REST_MIN_REQUESTS, MAX_LOOP_SECONDS, checkpoint=(REST_MIN_REQUESTS, read_rss))
        if "peak_rss_mb" not in outcome:
            read_rss()
        return outcome

    if args.trace:
        # A traced and an untraced server side by side; the clients switch
        # between them every block of requests, so the tracing overhead is
        # measured against neighbours in time.
        spans_path = work / "spans-server.json"
        traced = _serve(snapshot, work, env, "traced", spans=(spans_path, None), load=load)
        with open(spans_path, encoding="utf-8") as handle:
            spans = json.load(handle)
        lanes: "dict[int, list[float]]" = {0: [], 1: []}
        client_failed = 0
        for index, latency, status, _ in traced["results"]:
            lane = service.server_for(index, 2)
            if status == 200:
                lanes[lane].append(latency)
            elif lane == 0:
                client_failed += 1
        wall = sum(lanes[0])
        metrics = tracing.layer_metrics(
            spans, wall, counters=_health_counters(traced["health"]),
            persist_file_mb=traced["store_mb"], latencies=lanes[0],
            client_failed=client_failed,
        )
        _overhead(metrics, wall, lanes[0], lanes[1])
        run = {"attempted": len(traced["results"]),
               "failed": sum(1 for r in traced["results"] if r[2] != 200), "failures": []}
        return _outcome("rest-service", args, metrics, [run], layers=True)

    def probes(count: int) -> "list[float]":
        return [_serve(snapshot, work, env, f"probe{i}")["setup_s"] for i in range(count)]

    before, after = _probe_split()
    setup = probes(before)
    main = _serve(snapshot, work, env, "main", load=load)
    setup += [main["setup_s"]] + probes(after)
    results = main["results"]
    failed, problems, precision, recall, scored = _verify_replies(
        results, requests, prepared["labels"])
    latencies = [latency for _, latency, status, _ in results if status == 200]
    if not latencies:
        raise BenchmarkError("no request succeeded: " + "; ".join(problems))
    tail_value, tail_label = stats.tail(latencies, REST_MIN_REQUESTS)
    metrics = {
        "setup_s": statistics.median(setup),
        "throughput_per_s": len(latencies) / main["wall_s"],
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "latency_tail_ms": 1000.0 * tail_value,
        "precision": precision,
        "recall": recall,
        "peak_rss_mb": main["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"n={len(setup)} server starts, spawn to first /api/health 200",
        "throughput_per_s": f"n={len(latencies)} requests, {clients} closed-loop clients",
        "latency_p50_ms": f"n={len(latencies)} requests",
        "latency_tail_ms": f"{tail_label}, n={len(latencies)} requests",
        "precision": f"n={scored} distinct statements",
        "recall": f"n={scored} distinct statements",
        "peak_rss_mb": f"VmHWM of the server process after {REST_MIN_REQUESTS} replies",
    }
    run = {"attempted": len(results), "failed": failed, "failures": problems}
    return _outcome("rest-service", args, metrics, [run], notes=notes)


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def _overhead(metrics: dict, traced_s: float, traced: "list[float]",
              plain: "list[float]") -> None:
    """Tracing overhead from the median time per unit of work with and
    without tracing: as a percentage, and as the traced seconds minus the
    untraced seconds the same work would take."""
    ratio = statistics.median(traced) / statistics.median(plain) if traced and plain else 1.0
    metrics["trace.overhead_s"] = traced_s - traced_s / ratio
    metrics["trace.overhead_pct"] = 100.0 * (ratio - 1.0)


def _outcome(workload: str, args, metrics: dict, runs: "list[dict]", *,
             notes: "dict | None" = None, layers: bool = False) -> dict:
    return {
        "workload": workload,
        "metrics": metrics,
        "notes": notes or {},
        "layers": layers,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "failures": [problem for run in runs for problem in run["failures"]][:5],
        "meta": {
            "seed": args.seed,
            "seconds": args.seconds,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "commit": _commit(),
        },
    }


def _print_rows(outcome: dict) -> None:
    meta = outcome["meta"]
    print(f"# {outcome['workload']}: seed={meta['seed']} seconds={meta['seconds']} "
          f"nproc={meta['nproc']} python={meta['python']} commit={meta['commit']}")
    metrics = outcome["metrics"]
    if outcome["layers"]:
        wall = metrics["trace.wall_s"]
        print(f"  {'layer':<18} {'self_s':>10} {'share':>7}")
        for layer in tracing.LAYERS + ("unattributed",):
            name = "unattributed_s" if layer == "unattributed" else tracing.SELF_METRIC[layer]
            value = metrics[name]
            share = 100.0 * value / wall if wall else 0.0
            print(f"  {layer:<18} {value:>10.4f} {share:>6.1f}%")
        print(f"  {'traced wall':<18} {wall:>10.4f}  (tracing overhead "
              f"{metrics['trace.overhead_s']:+.4f} s, {metrics['trace.overhead_pct']:+.1f}%)")
    else:
        name, _ = THROUGHPUT[outcome["workload"]]
        attempted, failed = outcome["attempted"], outcome["failed"]
        cells = []
        for metric, unit in {**END_TO_END, **ROW_ONLY}.items():
            label = name if metric == "throughput_per_s" else metric
            cells.append(f"{label}={metrics[metric]:.4f} {unit} ({outcome['notes'][metric]})")
        cells.append(f"failed_ratio={failed / max(1, attempted):.4f} ({failed}/{attempted})")
        print(f"{outcome['workload']}: " + " | ".join(cells))
    for problem in outcome["failures"]:
        print(f"  FAILED: {problem}")


def _result_line(outcomes: "list[dict]", trace: bool) -> dict:
    wanted = (
        {name: unit for name, unit, _ in tracing.PER_LAYER} if trace else END_TO_END
    )
    metrics = {}
    for outcome in outcomes:
        prefix = "" if len(outcomes) == 1 else outcome["workload"] + "."
        for name, unit in wanted.items():
            metrics[prefix + name] = {"value": outcome["metrics"][name], "unit": unit}
    attempted = sum(outcome["attempted"] for outcome in outcomes)
    failed = sum(outcome["failed"] for outcome in outcomes)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _measure(workload: str, args) -> dict:
    work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        sys.path.insert(0, str(ROOT / "src"))
        env = _child_env()
        if workload == "rest-service":
            return _rest_service(args, work, env)
        return _in_process(workload, args, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def _run_all(args) -> int:
    """Every workload, one row each.  Each measured step already runs in a
    fresh process of its own (worker, probes, server)."""
    outcomes = [_measure(workload, args) for workload in WORKLOADS]
    for outcome in outcomes:
        _print_rows(outcome)
    print(json.dumps(_result_line(outcomes, args.trace)))
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources (src/repro) are missing under {ROOT}",
              file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return _run_all(args)
        outcome = _measure(args.workload, args)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    _print_rows(outcome)
    print(json.dumps(_result_line([outcome], args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
