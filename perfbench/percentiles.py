"""Percentile and spread rules shared by the benchmark and its spread check."""

from __future__ import annotations

import math
import statistics

#: p90 is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def nearest_rank(values, p: int) -> float:
    """The nearest-rank `p`-th percentile: the ceil(p/100 * n)-th smallest."""
    ordered = sorted(values)
    rank = math.ceil(p * len(ordered) / 100)
    return ordered[max(rank, 1) - 1]


def has_p90(n: int) -> bool:
    """Whether n samples leave at least MIN_BEYOND beyond their p90
    (integer arithmetic: 100 samples leave 10, 20 leave 2)."""
    return n - math.ceil(90 * n / 100) >= MIN_BEYOND


def latency_summary(latencies_ms) -> dict:
    """{"p50": ..., "p90": ...} in ms; p90 only where the rule allows."""
    if not latencies_ms:
        return {}
    out = {"p50": statistics.median(latencies_ms)}
    if has_p90(len(latencies_ms)):
        out["p90"] = nearest_rank(latencies_ms, 90)
    return out


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with the quartiles of statistics.quantiles(n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
