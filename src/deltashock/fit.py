"""The package's one log-log slope fit, on Python floats.

The Lemma 3.1 suite and the weak-solution verdict fit the decay orders of
their coefficient series with it, and ``k-limit`` fits its gaps' order
in k.  It imports no numpy and nothing of the package, so ``k-limit``,
which computes on Python floats, loads it without ``pairing`` or numpy.
"""

import math
from itertools import compress, repeat
from operator import mul, sub
from typing import NamedTuple, Sequence

__all__ = [
    "OrderEstimate",
    "fit_loglog_slope",
]

# The order of a converged series: fewer than two points above its floor.
ORDER_EXACT = math.inf


class OrderEstimate(NamedTuple):
    """Decay orders alpha (larger = faster) and log-log fit residuals, one per series."""

    order: tuple[float, ...]
    residual: tuple[float, ...]


def _deviations(logs: list[float]) -> list[float]:
    """The deviations of ``logs`` from their mean."""
    n = len(logs)
    mean = math.fsum(logs) / n
    return list(map(sub, logs, repeat(mean, n)))


def fit_loglog_slope(xs: Sequence[float], rows: list[list[float]],
                     floors: list[float]) -> OrderEstimate:
    """Least-squares slope of log y against log xs, and its fit residual,
    of each series of ``rows``, ``[series][point]``, over its points above
    its floor in ``floors``: the package's one slope fit, on Python floats.

    The slope is sum(dx dy) / sum(dx^2) over the logs' deviations from
    their means: +inf, the sentinel of a converged series, below two points
    above the floor, and nan when sum(dx^2) = 0, as for equal logs.  The
    residual is sqrt(SSR / n), 0 below three points.  Neither nan raises or
    warns.  Every sum is ``math.fsum``, correctly rounded, so a fit has the
    same bits on every Python the package allows, where built-in ``sum``
    is compensated only from 3.12 on.
    """
    log_xs = list(map(math.log, xs))
    dx = _deviations(log_xs)
    every = dx, math.fsum(map(mul, dx, dx))  # shared by the series that keep every point
    orders, residuals = [], []
    for row, low in zip(rows, floors):
        keep = [y > low for y in row]
        if keep.count(True) < 2:
            orders.append(ORDER_EXACT)
            residuals.append(0.0)
            continue
        if all(keep):
            (dx, spread), log_ys = every, list(map(math.log, row))
        else:
            dx = _deviations(list(compress(log_xs, keep)))
            spread = math.fsum(map(mul, dx, dx))
            log_ys = list(map(math.log, compress(row, keep)))
        n = len(dx)
        dy = _deviations(log_ys)
        try:
            slope = math.fsum(map(mul, dx, dy)) / spread if spread > 0.0 else math.nan
        except ValueError:  # inf - inf, where a y is inf: built-in sum's nan
            slope = math.nan
        misfit = list(map(sub, dy, map(mul, dx, repeat(slope, n))))
        orders.append(slope)
        residuals.append(math.sqrt(math.fsum(map(mul, misfit, misfit)) / n) if n >= 3 else 0.0)
    return OrderEstimate(tuple(orders), tuple(residuals))
