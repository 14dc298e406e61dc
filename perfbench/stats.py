"""Small statistics and process helpers shared by the benchmark scripts."""
from __future__ import annotations

import math

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0)

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def percentile(samples: "list[float]", pct: float) -> float:
    """Nearest-rank percentile of ``samples`` (which must be non-empty)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(guaranteed: int) -> "float | None":
    """The highest ladder percentile with at least ``TAIL_BEYOND`` samples
    beyond it when a run holds ``guaranteed`` samples; ``None`` if even the
    lowest rung has too few (the tail is then the maximum).

    The rung is chosen from the sample count every run is guaranteed to
    reach, not the count it happened to reach, so the same percentile is
    reported on every run of a workload.
    """
    for pct in TAIL_LADDER:
        if guaranteed * (1.0 - pct / 100.0) >= TAIL_BEYOND:
            return pct
    return None


def tail(samples: "list[float]", guaranteed: int) -> "tuple[float, str]":
    """``(value, label)`` of the tail latency, e.g. ``(12.3, "p99")``."""
    pct = tail_percentile(guaranteed)
    if pct is None:
        return max(samples), "max"
    return percentile(samples, pct), f"p{pct:g}"


def peak_rss_mb(pid: "int | str" = "self") -> float:
    """``VmHWM`` (peak resident set) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def precision_recall(tp: int, fp: int, fn: int) -> "tuple[float, float]":
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    return precision, recall
