"""Order statistics shared by the runner and the compare command."""

import statistics

TAIL_MARGIN = 10


def median(values):
    return statistics.median(values)


def per_op_medians(passes):
    """Each operation's median time over passes of the same list.

    A burst of host contention slows the operations that run during it;
    taking each operation's median over the passes leaves it out of
    ``wall_s``, the sum of these medians.
    """
    return [median(times) for times in zip(*passes)]


def quartiles(values):
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pooled(passes):
    """Every operation time of the passes, sorted."""
    return sorted(t for times in passes for t in times)


def tail(passes):
    """``(value, percentile)`` over every time of ``passes``, passes of the
    same list of ``n`` operations: the value at the highest percentile of one
    pass that leaves ``TAIL_MARGIN`` operations beyond it, ``(n - 10) / n``.

    Over ``P`` passes the value has ``TAIL_MARGIN * P`` samples above it.
    Taking the rank in the pooled samples, not in per-operation medians,
    lets every sample of the slow operations near that rank count, so no
    single operation's few samples decide the figure.
    """
    n = len(passes[0])
    if n <= TAIL_MARGIN:
        raise ValueError(f"a tail needs more than {TAIL_MARGIN} operations, got {n}")
    index = len(passes) * (n - TAIL_MARGIN) - 1
    return pooled(passes)[index], 100.0 * (n - TAIL_MARGIN) / n
