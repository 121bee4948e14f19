"""Sample statistics and open-loop accounting used by perfbench/run.py."""

import math
import statistics


class TooFewSamples(ValueError):
    pass


def summary(values):
    """Sample count, median and quartiles (statistics.quantiles, n=4)."""
    values = list(values)
    if not values:
        raise TooFewSamples("no samples")
    median = statistics.median(values)
    if len(values) == 1:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def min_samples(p):
    """Samples a percentile needs: at least ten beyond it (p95 -> 200)."""
    return math.ceil(10 / (1 - p) - 1e-9)


def nearest_rank(values, p):
    """Nearest-rank percentile; refuses a sample too small to support it."""
    values = sorted(values)
    need = min_samples(p)
    if len(values) < need:
        raise TooFewSamples(f"p{p * 100:g} needs {need} samples, have {len(values)}")
    return values[math.ceil(p * len(values)) - 1]


def open_loop(timings):
    """Per-request (latency_ms, late_ms) from (due, sent, recv, ok) rows.

    Latency runs from when the request was due, not when it went out, so a
    generator stall is charged to every request it delayed. A request that
    failed, was refused or never came back has latency +inf (it misses any
    limit). late_ms is None for a request that was never sent.
    """
    out = []
    for due, sent, recv, ok in timings:
        latency = recv - due if ok and recv is not None else math.inf
        late = sent - due if sent is not None else None
        out.append((latency, late))
    return out
