"""Order statistics used to report timings."""

from __future__ import annotations

TAIL_BEYOND = 10


def median(values):
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else 0.5 * (values[mid - 1] + values[mid])


def tail(values):
    """(value, percentile, samples beyond it): the highest percentile with at
    least TAIL_BEYOND samples beyond it, or the maximum when there are too
    few samples for that."""
    values = sorted(values)
    n = len(values)
    if n > TAIL_BEYOND:
        return values[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND
    return values[-1], 100.0, 0


def op_median_sum(iterations):
    """Sum over operations of each one's median wall time across iterations.

    Each operation's middle sample may come from a different iteration, so
    a slow spell of the host that covers part of one iteration moves this
    less than it moves the median of whole iterations.
    """
    by_op = {}
    for it in iterations:
        for r in it["ops"]:
            by_op.setdefault(r["op"], []).append(r["wall_s"])
    return sum(median(walls) for walls in by_op.values())
