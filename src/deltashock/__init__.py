"""Numerical laboratory for singular-front solutions of a 2x2
nonconservative hyperbolic system and its degenerate limit.

Subpackages:

* :mod:`deltashock.kernels`   mollifier kernels and regularized profiles
* :mod:`deltashock.pairing`   distributional pairing and coefficient extraction
* :mod:`deltashock.fit`       the one log-log slope fit, on Python floats
* :mod:`deltashock.ansatz`    the front protocol and the smooth eps-family
* :mod:`deltashock.dynamics`  jump data, closed-form front dynamics and admissibility
* :mod:`deltashock.riemann`   classical Riemann solver and small-k limit study
* :mod:`deltashock.verifier`  weak-solution verification and derivation replay
* :mod:`deltashock.tables`    the one CSV/JSON table writer
* :mod:`deltashock.cli`       config-driven command line front end

The root holds the kernel kinds with each kernel's omega0, the eps
grid's default powers and rules, the evenly spaced grid rule and the k
rule, without numpy.
"""

import math

__version__ = "0.1.0"

QUARTIC = "quartic-polynomial-bump"
EXPONENTIAL = "smooth-exponential-bump"
KERNEL_KINDS = (QUARTIC, EXPONENTIAL)

# omega0 = int omega^2 of each kernel, read by the front with no kernel layer:
# (15/16)^2 * 256/315 = 5/7, and the exponential bump's quadrature value.
OMEGA0 = {QUARTIC: 5.0 / 7.0, EXPONENTIAL: 0.6751168130096972}

_ALIASES = {
    QUARTIC: QUARTIC,
    EXPONENTIAL: EXPONENTIAL,
    "quartic": QUARTIC,
    "exponential": EXPONENTIAL,
}


def canonical_kind(kind: str) -> str:
    """Resolve a kernel-kind name or alias to its canonical form."""
    canonical = _ALIASES.get(kind)
    if canonical is None:
        raise ValueError(f"unknown kernel kind {kind!r}; choose from {KERNEL_KINDS}")
    return canonical


# The default eps grid's powers: 2^-3 .. 2^-12.
EPS_POW_MIN = 3
EPS_POW_MAX = 12


def default_eps_grid(pow_min: int = EPS_POW_MIN, pow_max: int = EPS_POW_MAX) -> tuple[float, ...]:
    """Dyadic grid 2^-pow_min .. 2^-pow_max, strictly decreasing."""
    if pow_max <= pow_min:
        raise ValueError("pow_max must exceed pow_min")
    return tuple(2.0 ** (-j) for j in range(pow_min, pow_max + 1))


def check_eps_grid(eps_grid) -> tuple[float, ...]:
    """``eps_grid`` as floats; ValueError naming its first value that is not
    positive, finite and below the one before."""
    grid = tuple(float(e) for e in eps_grid)
    for i, (before, eps) in enumerate(zip((math.inf,) + grid, grid)):
        if not 0.0 < eps < before:
            raise ValueError("eps grid must be positive, finite and strictly decreasing: "
                             f"eps[{i}] = {eps!r}" + (f" after {before!r}" if i else ""))
    return grid


def check_k(k) -> float:
    """``k`` as a float, -0.0 as 0.0; ValueError unless it is finite and >= 0."""
    k = float(k)
    if not (math.isfinite(k) and k >= 0.0):
        raise ValueError(f"k must be finite and nonnegative, got {k!r}")
    return k + 0.0


def linear_grid(start: float, stop: float, num: int) -> list[float]:
    """``num`` evenly spaced floats from start to stop, bit for bit those of
    ``numpy.linspace(start, stop, num)``: i * step + start, with step =
    (stop - start) / (num - 1) and the last point set to stop.  Where the
    step underflows to 0, the points are i / (num - 1) * (stop - start) +
    start; a single point is 0 * (stop - start) + start.  A step that
    overflows gives inf and nan points, as numpy's does."""
    start, stop = float(start), float(stop)
    delta = stop - start
    div = num - 1
    if div <= 0:
        return [0.0 * delta + start for _ in range(num)]
    step = delta / div
    if step == 0.0:
        grid = [i / div * delta + start for i in range(num)]
    else:
        grid = [i * step + start for i in range(num)]
    grid[-1] = stop
    return grid
