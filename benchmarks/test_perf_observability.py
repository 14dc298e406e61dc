"""Observability overhead on the fused cold path (PR 9 acceptance).

Metrics are collected by default, so their cost rides on every run — the
budget is ≤5% over a run with all observability off, measured on the same
fused cold-path workload as ``test_perf_fused_cold_path``.  Three modes:

* **obs-off** — metrics disabled, tracer disabled: the bare pipeline;
* **metrics-on** — the default production configuration;
* **metrics+trace** — full span collection (per-rule spans included), the
  opt-in ``--trace`` debugging mode.  Reported for scale, not budgeted:
  tracing is explicitly opt-in and pays for span allocation.

Each mode gets one cache-less detector, built once, which runs the whole
corpus once for the transparency check and the seconds column.  The
budget is judged on interleaved pairs: the corpus is cut into ``SLICES``
slices, and each slice is timed in an ABBA block (obs-off, metrics-on,
metrics-on, obs-off, or the mirror image; the orientation alternates),
``ROUNDS`` times over, each run a ``detect`` call on the mode's detector,
so detector construction stays out of the ratio.  The gate is the median
of the per-block ratios.  A shared runner's speed drifts over seconds; a
block lasts about a quarter of one, so the drift hits both modes of a
block alike, and the median of many blocks ignores the odd burst.  (A
whole-corpus run lasts seconds: pairs of those differed by up to ±30% on
a noisy 2-CPU host.)  Correctness first: all
three modes must produce byte-identical detections (the transparency
contract, also enforced by ``check_observability_transparency``).

Results are written to ``BENCH_pr9.json`` under pytest's ``tmp_path``.
"""
from __future__ import annotations

import json
import os
import statistics
import time

from repro import APDetector, DetectorConfig
from repro.obs import get_metrics, get_tracer, set_metrics_enabled
from repro.workloads.github_corpus import GitHubCorpusGenerator, with_duplicates

from ._helpers import print_table

BENCH_NAME = "BENCH_pr9.json"

CORPUS_REPOS = 680
DUPLICATE_FRACTION = 0.45
MAX_METRICS_OVERHEAD = 0.05
#: about 160 statements, a sixteenth of a second, per slice
SLICES = 64
ROUNDS = 4


def _timed_detect(detector: APDetector, sql: "list[str]", *, metrics: bool, trace: bool):
    """One cold detection under one observability mode."""
    tracer = get_tracer()
    set_metrics_enabled(metrics)
    if trace:
        tracer.enable(reset=True)
    else:
        tracer.disable()
    start = time.perf_counter()
    report = detector.detect(sql)
    return time.perf_counter() - start, report


def _measure(sql: "list[str]", modes: "dict[str, dict]"):
    """One whole-corpus run per mode, then the ABBA blocks over the slices.

    Returns the per-mode seconds and reports of the whole-corpus runs and
    the metrics-on / obs-off ratio of every block.
    """
    # Without caches every detect call is a cold run; reusing one detector
    # per mode keeps its construction out of the timed blocks.
    detectors = {name: APDetector(DetectorConfig(enable_cache=False)) for name in modes}
    seconds, reports = {}, {}
    for name, flags in modes.items():
        seconds[name], reports[name] = _timed_detect(detectors[name], sql, **flags)
    size = -(-len(sql) // SLICES)
    slices = [sql[start:start + size] for start in range(0, len(sql), size)]
    ratios = []
    for round_ in range(ROUNDS):
        for index, piece in enumerate(slices):
            outer, inner = ("off", "metrics") if (round_ + index) % 2 == 0 else ("metrics", "off")
            block = {"off": 0.0, "metrics": 0.0}
            for name in (outer, inner, inner, outer):
                block[name] += _timed_detect(detectors[name], piece, **modes[name])[0]
            ratios.append(block["metrics"] / block["off"])
    return seconds, reports, ratios


def test_observability_overhead_budget(tmp_path):
    base = GitHubCorpusGenerator(repos=CORPUS_REPOS).generate()
    corpus = with_duplicates(base, fraction=DUPLICATE_FRACTION)
    sql = list(corpus.iter_sql())
    assert len(sql) >= 10000

    metrics_was_enabled = get_metrics().enabled
    tracer = get_tracer()
    modes = {
        "off": {"metrics": False, "trace": False},
        "metrics": {"metrics": True, "trace": False},
        "trace": {"metrics": True, "trace": True},
    }
    try:
        seconds, reports, ratios = _measure(sql, modes)
        off_report, metrics_report, trace_report = (
            reports["off"], reports["metrics"], reports["trace"]
        )
        spans = len(tracer.spans())
    finally:
        tracer.disable()
        tracer.reset()
        set_metrics_enabled(metrics_was_enabled)

    # Transparency before speed: observability must not change a verdict.
    baseline_payload = [d.to_dict() for d in off_report]
    assert [d.to_dict() for d in metrics_report] == baseline_payload
    assert [d.to_dict() for d in trace_report] == baseline_payload

    n = len(sql)
    off_seconds, metrics_seconds, trace_seconds = (
        seconds["off"], seconds["metrics"], seconds["trace"]
    )
    metrics_overhead = statistics.median(ratios) - 1.0
    trace_overhead = trace_seconds / off_seconds - 1.0
    rows = [
        ("obs off", f"{off_seconds:.2f}", f"{n / off_seconds:.0f}", "—"),
        ("metrics on (default)", f"{metrics_seconds:.2f}",
         f"{n / metrics_seconds:.0f}", f"{metrics_overhead:+.1%}"),
        ("metrics + trace", f"{trace_seconds:.2f}",
         f"{n / trace_seconds:.0f}", f"{trace_overhead:+.1%}"),
    ]
    print_table(
        f"Observability overhead — {n} statements, fused cold path, "
        f"metrics overhead: median of {len(ratios)} ABBA blocks",
        ("mode", "seconds", "stmt/s", "overhead"),
        rows,
    )

    payload = {
        "benchmark": "observability_overhead",
        "statements": n,
        "unique_statements": len(base),
        "detections": len(off_report.detections),
        "cpu_count": os.cpu_count(),
        "slices": SLICES,
        "abba_blocks": len(ratios),
        "obs_off": {
            "seconds": round(off_seconds, 4),
            "statements_per_second": round(n / off_seconds, 1),
        },
        "metrics_on": {
            "seconds": round(metrics_seconds, 4),
            "statements_per_second": round(n / metrics_seconds, 1),
            "overhead": round(metrics_overhead, 4),
        },
        "metrics_and_trace": {
            "seconds": round(trace_seconds, 4),
            "statements_per_second": round(n / trace_seconds, 1),
            "overhead": round(trace_overhead, 4),
            "spans_recorded": spans,
        },
        "budget": {"max_metrics_overhead": MAX_METRICS_OVERHEAD},
        "results_identical_across_modes": True,
    }
    (tmp_path / BENCH_NAME).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    assert metrics_overhead <= MAX_METRICS_OVERHEAD, (
        f"metrics-on overhead {metrics_overhead:+.1%} exceeds the "
        f"{MAX_METRICS_OVERHEAD:.0%} budget ({metrics_seconds:.2f}s vs "
        f"{off_seconds:.2f}s obs-off)"
    )
