"""Weak-solution verification and derivation replay.

Substitutes the smooth ansatz into either system, pairs the residuals in
space against a suite of test functions at each time, and checks that
the pairings decay as eps -> 0.

In the moving frame xi = x - phi(t) both residuals are sums of real
profile products (the basis rows) times per-time scalars built from p,
p-dot and e.  So they are weight rows on the columns of the kernel's
:func:`kernels.primitive_table`, built once, in which c, the data and one
call of each trajectory method over the time grid meet, and
:func:`pairing.pair_table` pairs them with a plain and a linear bump on one
support that holds the front band at every time and eps.  Every cell
agrees with the cell-by-cell loop of :func:`pairing.pair` to 1e-12 of its
sum of |w f phi|, and the eight series are fitted in one slope-fit call.

The replay facility reads the point-mass and dipole coefficients of both
residuals for an arbitrary trajectory off the same table's moments and
compares them with the closed forms that define the front dynamics; with
the solved trajectory all of them must vanish.
"""

import math
from typing import NamedTuple

import numpy as np

from .ansatz import Front, RiemannJumpData, SmoothAnsatz
from .kernels import (
    NEGLIGIBLE_RTOL,
    MollifierKernel,
    check_eps_grid,
    default_eps_grid,
    default_t_grid,
    make_kernel,
    primitive_table,
)
from .pairing import (
    LINEAR_BUMP,
    NumericsError,
    PLAIN_BUMP,
    Piecewise,
    TestFunction,
    fit_loglog_slope,
    pair_table,
)

__all__ = [
    "residual_integrand",
    "ResidualSeries",
    "SolutionReport",
    "default_test_suite",
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


def _basis_rows(ansatz: SmoothAnsatz, system_k: float):
    """Both residuals' real basis rows, each as {profile product: coefficient}.

    Rows 0-4 are A and rows 5-7 are B in res_u = A . (1, p, p_dot, p^2, e)
    and res_sigma = B . (1, e, p); expanding :func:`_residual_values`
    gives them.  A product names profiles of
    :data:`kernels.PROFILE_EPS_POWERS`, all at xi = x - phi(t), and is a
    key of the products :func:`kernels.product_columns` evaluates on the
    table's nodes.  Its p e term R D' vanishes:
    R and D have disjoint supports.
    """
    d, front = ansatz.data, ansatz.front
    u0, u1, s1, k2, v = d.u0, d.u1, d.sigma1, system_k**2, front.phi_dot
    return (
        {("dh",): u1 * v - u0 * u1 + s1, ("h", "dh"): -u1**2},
        {("dr",): u0 - v, ("h", "dr"): u1, ("r", "dh"): -u1},
        {("r",): 1.0},
        {("r", "dr"): 1.0},
        {("dd",): -1.0},
        {("dh",): s1 * v - u0 * s1 + k2 * u1, ("h", "dh"): -u1 * s1,
         ("d",): front.e_rate},
        {("dd",): u0 - v, ("h", "dd"): u1},
        {("r", "dh"): -s1, ("dr",): -k2},
    )


def _expansion(ansatz: SmoothAnsatz, system_k: float, times):
    """The primitive table of the basis rows' products, phi(t), and each
    table column's coefficient in res_u and res_sigma as ``[equation, time,
    column]``, a view of ``[time, column, equation]``, at one or more times."""
    # Read first, so that data whose plateau leaves the float range fails
    # naming the plateau rather than on u1**2 inside a basis row.
    c = ansatz.c_effective
    basis_rows = _basis_rows(ansatz, system_k)
    products = tuple(dict.fromkeys(p for row in basis_rows for p in row))
    table = primitive_table(ansatz.kernel, products)
    try:
        weights = table.weights(basis_rows, c)
    except OverflowError:
        raise NumericsError(f"non-finite residual weight: c^2 overflows at c={c:g}") from None
    front = ansatz.front
    phi, e, p, p_dot = (np.atleast_1d(method(times)) for method in
                        (front.phi, front.e, front.p, front.p_dot))
    one = np.ones_like(p)
    coeffs = np.array([one, p, p_dot, p * p, e, one, e, p]).T  # [time, row]
    equations = np.empty((len(p), len(table.keys), 2), dtype=complex)
    np.matmul(coeffs[:, :5], weights[:5], out=equations[..., 0])
    np.matmul(coeffs[:, 5:], weights[5:], out=equations[..., 1])
    return table, phi, equations.transpose(2, 0, 1)


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


def default_test_suite(phi, eps_max: float) -> tuple[TestFunction, ...]:
    """Value- and slope-selecting bumps on one support that holds the front
    band [phi - 4 eps, phi + 4 eps] at every front position of the array
    ``phi`` and every eps up to ``eps_max``, with a margin of 1/2 beyond it."""
    lo, hi = float(phi.min()), float(phi.max())
    center = 0.5 * lo + 0.5 * hi
    halfwidth = max(1.0, 0.5 * hi - 0.5 * lo + 0.5 + 4.0 * eps_max)
    return (TestFunction(center, halfwidth, PLAIN_BUMP),
            TestFunction(center, halfwidth, LINEAR_BUMP))


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

    For both test functions of :func:`default_test_suite` and every time
    of ``t_grid`` the residuals are paired in space; the report carries,
    per equation and test function, the max-over-time pairing magnitude
    at each eps (real and imaginary parts separately) with the time it
    occurs at, the measured decay order, and a PASS verdict.  An eps grid
    that is not positive, finite and strictly decreasing raises ValueError.
    """
    eps_grid = _DEFAULT_EPS_GRID if eps_grid is None else check_eps_grid(eps_grid)
    t_grid = _DEFAULT_T_GRID if t_grid is None else np.asarray(t_grid, dtype=float)
    table, phi, weights = _expansion(ansatz, system_k, t_grid)
    suite = default_test_suite(phi, eps_grid[0])
    # The real array under the pairings: [time, test function, eps, equation, part]
    vals = pair_table(table, weights, phi, suite[0].center, suite[0].halfwidth, eps_grid,
                      lambda i, f, e, t: f"residual pairing at equation={('u', 'sigma')[i]}, "
                      f"phi={suite[f].modulation}, eps={eps_grid[e]:g}, t={t_grid[t]:g}"
                      ).transpose(3, 2, 0, 1)
    mags = np.abs(vals.view(float)).reshape(len(t_grid), 2, len(eps_grid), 2, 2)
    # [series, eps, time], series in the order (equation, test function, part)
    mags = mags.transpose(3, 1, 4, 2, 0).reshape(8, len(eps_grid), len(t_grid))
    worst, maxima = mags.argmax(-1), mags.max(-1).tolist()
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
    """Extracted residual coefficients next to their closed forms.

    ``a_u``/``b_u`` are the point-mass and dipole coefficients of the
    velocity residual, ``a_sigma``/``b_sigma`` those of the stress
    residual, all measured at the front at the replay's time ``t``.
    """

    measured: tuple[complex, complex, complex, complex]
    closed: tuple[complex, complex, complex, complex]


def sample_admissible_data(rng, k: float) -> RiemannJumpData:
    """Random jump data strictly inside the overcompressive window.

    The sample keeps the point-mass amplitude away from zero at the probe
    time so the correction amplitude and its rate stay moderate.  Raises
    ValueError when ``_MAX_DRAWS`` draws find no such data, as for a k so
    large that the range of u1 rounds to the window's edge 2k.
    """
    from .dynamics import e_rate, overcompressivity

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


def closed_form_coefficients(data: RiemannJumpData, trajectory: Front, omega0: float,
                             system_k: float, c_built: float, t: float):
    """The four residual coefficients implied by the expansion algebra."""
    u0, u1, s1 = data.u0, data.u1, data.sigma1
    phi_dot = trajectory.phi_dot
    e_val = float(trajectory.e(t))
    p_val = complex(trajectory.p(t))
    a_u = u1 * phi_dot - u0 * u1 - 0.5 * u1**2 + s1
    b_u = 0.5 * p_val * p_val * omega0 - e_val
    a_sigma = (trajectory.e_rate + s1 * phi_dot - 0.5 * u1 * s1 - u0 * s1
               + system_k**2 * u1)
    b_sigma = e_val * (u0 + u1 * c_built - phi_dot)
    return (complex(a_u), complex(b_u), complex(a_sigma), complex(b_sigma))


def replay_derivation(data: RiemannJumpData, trajectory: Front,
                      kernel: MollifierKernel | None = None,
                      t: float = _PROBE_TIME, c: float | None = None) -> ReplayResult:
    """Residual coefficients of a trajectory with free coefficients.

    The residuals are those of the system with the data's k.  The
    trajectory's rates are treated as unconstrained numbers; the
    measured tuple matches the closed forms, and vanishes exactly when
    the trajectory solves the front dynamics and the plateau level is the
    one pinned by the data.

    Each coefficient is the table's exact limit,
    :meth:`kernels.PrimitiveTable.limits` of the basis rows' column
    weights, which raises :class:`ExtractionError` for a residual with a
    term of negative eps power.  The exponential table's quadrature error
    puts a floor near 1e-9 on the coefficients.
    """
    kernel = kernel or make_kernel()
    ansatz = SmoothAnsatz(data, trajectory, kernel, c=c)
    table, _, weights = _expansion(ansatz, data.k, t)
    (a_u, a_sigma), (b_u, b_sigma) = table.limits(
        np.concatenate(weights), [f"{eq} residual at t={t:g}" for eq in ("u", "sigma")])
    measured = (complex(a_u), complex(b_u), complex(a_sigma), complex(b_sigma))
    closed = closed_form_coefficients(data, trajectory, kernel.omega0,
                                      data.k, ansatz.c_effective, t)
    return ReplayResult(measured, closed)
