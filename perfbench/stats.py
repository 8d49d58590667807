"""Statistics of the end-to-end benchmark.

Every figure the benchmark reports is computed here from the raw samples a
workload process writes (per-operation latencies, set-up times,
spans, counters), so the rules below live in one place and are covered by
test_stats.py:

- a timing is a median; a tail percentile is reported only when at least
  ten samples lie beyond it;
- a layer's time is its spans' self time: duration minus the part of the
  span its child spans cover;
- a difference of two layers is the median of per-pair differences, so
  what the two halves of a pair share cancels;
- operations are counted from the workload's progress stream, so a process
  that dies still yields exact attempted / failed counts.
"""

import math

MIN_BEYOND = 10  # samples that must lie beyond a reported percentile


def median(values):
    values = sorted(values)
    n = len(values)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return values[mid] if n % 2 else 0.5 * (values[mid - 1] + values[mid])


def beyond(n, p):
    """Samples strictly beyond the nearest-rank p-th percentile of n."""
    return n - math.ceil(p / 100.0 * n)


def percentile(values, p):
    """Nearest-rank p-th percentile, or None when fewer than MIN_BEYOND
    samples lie beyond it (that percentile would be no tail)."""
    n = len(values)
    if n == 0 or beyond(n, p) < MIN_BEYOND:
        return None
    rank = max(1, math.ceil(p / 100.0 * n))
    return sorted(values)[rank - 1]


def peak_rss_mb(rusage):
    """Peak resident set of a reaped child, from its rusage (ru_maxrss is in
    KiB on Linux)."""
    return rusage.ru_maxrss / 1024.0


class OpCounter:
    """Attempted / completed / failed operations of a workload process, fed
    by its "progress <attempted> <completed> <failed>" lines."""

    def __init__(self):
        self.attempted = 0
        self.completed = 0
        self.failed = 0

    def feed(self, line):
        """Consumes one stdout line; returns False when it is not progress."""
        parts = line.split()
        if len(parts) != 4 or parts[0] != "progress":
            return False
        self.attempted, self.completed, self.failed = map(int, parts[1:])
        return True

    def after_abort(self):
        """(attempted, failed) for a process that died: every started but
        unfinished operation failed. A process that died before its first
        operation counts as one failed operation, the run itself."""
        if self.attempted == 0:
            return 1, 1
        unfinished = self.attempted - self.completed
        return self.attempted, self.failed + unfinished


def self_times(spans):
    """Maps span id -> self time in microseconds: the span's duration minus
    the union of its children's intervals, clipped to the span."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    result = {}
    for s in spans:
        start, end = s["start_us"], s["end_us"]
        covered = 0.0
        cursor = start
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_us"]):
            lo, hi = max(c["start_us"], cursor), min(c["end_us"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[s["id"]] = (end - start) - covered
    return result


def select(spans, name, tag=None):
    return [s for s in spans if s["name"] == name and (tag is None or s["tag"] == tag)]


def span_median(spans, selves, name, tag=None, per_count=False, scale=1e-3):
    """Median self time of the matching spans (divided by each span's
    count when per_count), scaled from microseconds; None if none match."""
    chosen = select(spans, name, tag)
    if not chosen:
        return None
    return median(
        selves[s["id"]] / (s["count"] if per_count else 1.0) * scale for s in chosen
    )


def span_sum(spans, selves, name, tag=None, scale=1e-6):
    chosen = select(spans, name, tag)
    if not chosen:
        return None
    return sum(selves[s["id"]] for s in chosen) * scale


def paired_difference(spans, selves, first, second, scale=1e-3):
    """Median over pairs of self time `first` minus `second`, scaled from
    microseconds. A pair is a span of each name with the same tag; None
    when there are no pairs."""
    seconds = {s["tag"]: selves[s["id"]] for s in select(spans, second)}
    differences = [selves[s["id"]] - seconds[s["tag"]]
                   for s in select(spans, first) if s["tag"] in seconds]
    return median(differences) * scale if differences else None
