"""Summary statistics used by the benchmark: medians, the tail rule, spreads."""

import statistics


def median(samples):
    return statistics.median(samples)


def tail(samples):
    """Highest percentile that has at least ten samples beyond it.

    Returns ``(value, percentile)``. With n samples sorted ascending, the
    sample of rank n - 10 (1-based) is the highest one with ten samples
    above it, so it is the ``100 * (n - 10) / n`` percentile. Fewer than
    eleven samples have no such point; the maximum is returned with
    percentile 100 and the caller says so.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("tail of an empty sample")
    ordered = sorted(samples)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the median,
    with quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
