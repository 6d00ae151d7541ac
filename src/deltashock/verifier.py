"""Weak-solution verification and derivation replay.

Substitutes the smooth ansatz into either system, pairs the residuals in
space against a suite of test functions at each time, and checks that
the pairings decay as eps -> 0.

In the moving frame xi = x - phi(t) both residuals are sums of real
profile products (the basis rows) times per-time scalars built from p,
p-dot and e: one declared layout of (row, product) pairs, from which
:func:`kernels.primitive_table` builds the kernel's table once, and whose
coefficients :meth:`kernels.PrimitiveTable.weights` gathers onto its
columns.  In
those columns c, the data and one front evaluation over the time grid
meet, and :func:`pairing.pair_table` pairs their real view with the plain
and the linear bump of :func:`pairing.default_test_suite`, on one support
that holds the front band at every time and eps.  Every cell agrees with
the cell-by-cell loop of :func:`pairing.pair` to 1e-12 of its sum of
|w f phi|, and the eight series are fitted in one slope-fit call.

The replay facility reads the point-mass and dipole coefficients of both
residuals for an arbitrary trajectory off the same table's exact limits;
with the solved trajectory all of them must vanish.  Their closed forms,
a second derivation of the same four numbers, are the tests' oracle.
"""

import math
from typing import NamedTuple

import numpy as np

from . import check_eps_grid, default_eps_grid
from .ansatz import Front, SmoothAnsatz
from .dynamics import RiemannJumpData, e_rate, overcompressivity
from .fit import fit_loglog_slope
from .kernels import NEGLIGIBLE_RTOL, MollifierKernel, default_t_grid, primitive_table
from .pairing import (
    LINEAR_BUMP,
    NumericsError,
    PLAIN_BUMP,
    Piecewise,
    pair_table,
)

__all__ = [
    "residual_integrand",
    "ResidualSeries",
    "SolutionReport",
    "verify_weak_solution",
    "ReplayResult",
    "replay_derivation",
    "sample_admissible_data",
]

DEFAULT_ORDER_FLOOR = 0.25
# A pure eps^{1/2} residual family decays by (eps_min/eps_max)^{1/2}, which
# is 2^{-4.5} ~ 0.044 over the default nine-step dyadic grid, so the decay
# ceiling must sit above that for the slow family to pass honestly.
DEFAULT_RATIO_CEILING = 5e-2
# A verdict's default grids; the shared time grid is read-only.
_DEFAULT_EPS_GRID = default_eps_grid()
_DEFAULT_T_GRID = default_t_grid()
_DEFAULT_T_GRID.flags.writeable = False
# The replay probes the front here, and sampled data keep e(t) from zero.
_PROBE_TIME = 1.0
# Sampled data are admissible within a few draws for moderate k.
_MAX_DRAWS = 100


def _residual_values(ansatz: SmoothAnsatz, system_k: float, x, t, eps: float):
    """Both residuals at points x and times t from one field evaluation."""
    u, _ = ansatz.eval_fields(x, t, eps)
    u_t, u_x, s_t, s_x = ansatz.eval_derivatives(x, t, eps)
    return u_t + u * u_x - s_x, s_t + u * s_x - system_k**2 * u_x


def residual_integrand(ansatz: SmoothAnsatz, system_k: float, equation: str,
                       t: float, eps: float) -> Piecewise:
    """Residual of ``equation`` ("u" or "sigma") at fixed time as a
    compactly supported integrand; complex when the amplitude is."""
    i = 0 if equation == "u" else 1
    breaks = ansatz.breakpoints(t, eps)
    return Piecewise(lambda x: _residual_values(ansatz, system_k, x, t, eps)[i],
                     breaks[0], breaks[-1], breaks[1:-1])


# Both residuals' real basis rows as (row, profile product) pairs: rows 0-4
# are A and rows 5-7 are B in res_u = A . (1, p, p_dot, p^2, e) and
# res_sigma = B . (1, e, p), and :func:`_basis_coefficients` gives each
# pair's coefficient.  A product names profiles of
# :data:`kernels.PROFILE_EPS_POWERS`, all at xi = x - phi(t).  Its p e term
# R D' vanishes: R and D have disjoint supports.
_LAYOUT = (
    (0, ("dh",)), (0, ("h", "dh")),
    (1, ("dr",)), (1, ("h", "dr")), (1, ("r", "dh")),
    (2, ("r",)), (3, ("r", "dr")), (4, ("dd",)),
    (5, ("dh",)), (5, ("h", "dh")), (5, ("d",)),
    (6, ("dd",)), (6, ("h", "dd")),
    (7, ("r", "dh")), (7, ("dr",)),
)


def _basis_coefficients(ansatz: SmoothAnsatz, system_k: float) -> tuple[float, ...]:
    """The coefficient of each pair of ``_LAYOUT``, in its order, as
    expanding :func:`_residual_values` gives them."""
    d, front = ansatz.data, ansatz.front
    u0, u1, s1, k2, v = d.u0, d.u1, d.sigma1, system_k**2, front.phi_dot
    return (u1 * v - u0 * u1 + s1, -u1**2,
            u0 - v, u1, -u1,
            1.0, 1.0, -1.0,
            s1 * v - u0 * s1 + k2 * u1, -u1 * s1, front.e_rate,
            u0 - v, u1,
            -s1, -k2)


def _expansion(ansatz: SmoothAnsatz, system_k: float, times):
    """The primitive table of the basis rows' products, phi(t), and each
    table column's coefficient in res_u and res_sigma as ``[time, column,
    equation]``, at one or more times."""
    # Read first, so that data whose plateau leaves the float range fails
    # naming the plateau rather than on u1**2 inside a basis row.
    c = ansatz.c_effective
    coefficients = _basis_coefficients(ansatz, system_k)
    table = primitive_table(ansatz.kernel, _LAYOUT)
    try:
        weights = table.weights(coefficients, c)
    except OverflowError:
        raise NumericsError(f"non-finite residual weight: c^2 overflows at c={c:g}") from None
    phi, e, p, p_dot = ansatz.front.evaluate(np.atleast_1d(times))
    one = np.ones_like(p)
    coeffs = np.array([one, p, p_dot, p * p, e, one, e, p]).T  # [time, row]
    equations = np.empty((len(p), len(table.keys), 2), dtype=complex)
    np.matmul(coeffs[:, :5], weights[:5], out=equations[..., 0])
    np.matmul(coeffs[:, 5:], weights[5:], out=equations[..., 1])
    return table, phi, equations


class ResidualSeries(NamedTuple):
    """Max-over-time residual pairings of one equation against one test fn."""

    equation: str
    test_function: str
    part: str
    eps_grid: tuple[float, ...]
    max_pairing: tuple[float, ...]
    worst_t_per_eps: tuple[float, ...]
    order: float
    decay_ratio: float
    passed: bool

    @property
    def worst_t(self) -> float:
        """Time of the largest pairing at the last (finest) eps."""
        return self.worst_t_per_eps[-1]

    def to_json_dict(self) -> dict:
        return {
            "equation": self.equation,
            "test_function": self.test_function,
            "part": self.part,
            "epsilon": list(self.eps_grid),
            "max_pairing_over_t": list(self.max_pairing),
            "worst_t": self.worst_t,
            "worst_t_per_eps": list(self.worst_t_per_eps),
            "order": self.order if math.isfinite(self.order) else "exact",
            "decay_ratio": self.decay_ratio,
            "passed": self.passed,
        }


class SolutionReport(NamedTuple):
    system_k: float
    passed: bool
    order_floor: float
    ratio_ceiling: float
    series: tuple[ResidualSeries, ...]

    def summary_line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        msg = f"{verdict} weak-solution verification (k={self.system_k:g})"
        if not self.passed:
            bad = next(s for s in self.series if not s.passed)
            msg += (f": equation={bad.equation} phi={bad.test_function} "
                    f"part={bad.part} eps={bad.eps_grid[-1]:g} t={bad.worst_t:g} "
                    f"order={bad.order:.3f} ratio={bad.decay_ratio:.3e}")
        return msg

    def to_json_dict(self) -> dict:
        return {
            "system_k": self.system_k,
            "passed": self.passed,
            "order_floor": self.order_floor,
            "ratio_ceiling": self.ratio_ceiling,
            "series": [s.to_json_dict() for s in self.series],
        }


def _series_verdicts(eps_grid, maxima):
    """Order, decay ratio and PASS flag of each series of ``maxima``, rows
    ``[series][eps]`` of max-over-time pairings, as three tuples."""
    scales = [max(row) for row in maxima]
    # Order over the full grid: the acceptance contract quantifies decay
    # across the whole eps range, not just the asymptotic tail.  It is +inf,
    # a pass, for a series negligible or with under two points above its floor.
    fit = fit_loglog_slope(eps_grid, maxima, [NEGLIGIBLE_RTOL * s for s in scales])
    verdicts = []
    for row, scale, order in zip(maxima, scales, fit.order):
        if scale <= NEGLIGIBLE_RTOL:
            order, ratio = math.inf, 0.0
        else:
            ratio = row[-1] / row[0] if row[0] > 0.0 else 0.0
        verdicts.append((order, ratio, math.isinf(order) or (
            order > DEFAULT_ORDER_FLOOR and ratio < DEFAULT_RATIO_CEILING)))
    return tuple(zip(*verdicts))


def verify_weak_solution(ansatz: SmoothAnsatz, system_k: float,
                         t_grid=None, eps_grid=None) -> SolutionReport:
    """Verify the weak-asymptotic-solution contract on grids.

    For both test functions of :func:`pairing.default_test_suite` and every
    time of ``t_grid`` the residuals are paired in space; the report
    carries, per equation and test function, the max-over-time pairing
    magnitude at each eps (real and imaginary parts separately) with the
    time it occurs at, the measured decay order, and a PASS verdict.  An
    eps grid that is not positive, finite and strictly decreasing, or of
    fewer than 2 points, and a time grid that is empty or not 1-D raise
    ValueError.
    """
    eps_grid = _DEFAULT_EPS_GRID if eps_grid is None else check_eps_grid(eps_grid)
    if len(eps_grid) < 2:
        raise ValueError(f"eps grid must span at least 2 points, got {len(eps_grid)}")
    t_grid = _DEFAULT_T_GRID if t_grid is None else np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or not t_grid.size:
        raise ValueError(f"time grid must be a non-empty 1-D array, got shape {t_grid.shape}")
    table, phi, weights = _expansion(ansatz, system_k, t_grid)
    # Rows (equation, Re/Im) of the complex weights' real view.
    suite, vals = pair_table(
        table, weights.view(float), phi, eps_grid,
        lambda i, f, e, t: f"residual pairing at equation={('u', 'sigma')[i // 2]}, "
        f"phi={(PLAIN_BUMP, LINEAR_BUMP)[f]}, eps={eps_grid[e]:g}, t={t_grid[t]:g}")
    # [time, equation, test function, part, eps] of [time, test function, eps, row]
    mags = np.abs(vals).reshape(len(t_grid), 2, len(eps_grid), 2, 2).transpose(0, 3, 1, 4, 2)
    # [series, eps], series in the order (equation, test function, part)
    worst, maxima = mags.argmax(0).reshape(8, -1), mags.max(0).reshape(8, -1).tolist()
    labels = [f"{tf.modulation}@{tf.center:g}(w={tf.halfwidth:g})" for tf in suite]
    keys = [(equation, label, part)
            for equation in ("u", "sigma") for label in labels for part in ("re", "im")]
    series = tuple(ResidualSeries(*key, eps_grid, tuple(m), tuple(w), order, ratio, passed)
                   for key, m, w, order, ratio, passed in zip(
                       keys, maxima, t_grid[worst].tolist(),
                       *_series_verdicts(eps_grid, maxima)))
    return SolutionReport(float(system_k), all(s.passed for s in series),
                          DEFAULT_ORDER_FLOOR, DEFAULT_RATIO_CEILING, series)


class ReplayResult(NamedTuple):
    """Residual coefficients read off the primitive table: ``measured`` is
    (a_u, b_u, a_sigma, b_sigma), the point-mass and dipole coefficients of
    the velocity and then of the stress residual, at the front at time ``t``."""

    measured: tuple[complex, complex, complex, complex]


def sample_admissible_data(rng, k: float) -> RiemannJumpData:
    """Random jump data strictly inside the overcompressive window.

    The sample keeps the point-mass amplitude away from zero at the probe
    time so the correction amplitude and its rate stay moderate.  Raises
    ValueError when ``_MAX_DRAWS`` draws find no such data, as for a k so
    large that the range of u1 rounds to the window's edge 2k.
    """
    k = float(k)
    for _ in range(_MAX_DRAWS):
        u1 = float(rng.uniform(2.0 * k + 0.6, 2.0 * k + 3.0))
        half_window = 0.5 * u1 - k
        sigma1 = u1 * float(rng.uniform(-0.8, 0.8)) * half_window
        data = RiemannJumpData(float(rng.uniform(-1.0, 1.0)), u1,
                               float(rng.uniform(-1.0, 1.0)), sigma1,
                               float(rng.uniform(0.1, 0.6)), k)
        if (overcompressivity(data).admissible
                and abs(data.e0 + e_rate(data) * _PROBE_TIME) >= 0.05):
            return data
    raise ValueError(f"no admissible jump data for k={k:g} in {_MAX_DRAWS} draws")


def replay_derivation(data: RiemannJumpData, trajectory: Front, kernel: MollifierKernel,
                      t: float = _PROBE_TIME, c: float | None = None) -> ReplayResult:
    """Residual coefficients of a trajectory with free coefficients.

    The residuals are those of the system with the data's k.  The
    trajectory's rates are treated as unconstrained numbers, read through
    one :meth:`Front.evaluate` call at ``t``; the coefficients vanish
    exactly when the trajectory solves the front dynamics and the plateau
    level is the one pinned by the data.

    Each coefficient is the table's exact limit,
    :meth:`kernels.PrimitiveTable.limits` of the basis rows' column
    weights, which raises :class:`ExtractionError` for a residual with a
    term of negative eps power.  The exponential table's quadrature error
    puts a floor near 1e-9 on the coefficients.
    """
    table, _, weights = _expansion(SmoothAnsatz(data, trajectory, kernel, c=c), data.k, t)
    (a_u, a_sigma), (b_u, b_sigma) = table.limits(
        weights[0].T, [f"{eq} residual at t={t:g}" for eq in ("u", "sigma")])
    return ReplayResult((complex(a_u), complex(b_u), complex(a_sigma), complex(b_sigma)))
