"""Weak-solution verification and derivation replay.

Substitutes the smooth ansatz into either system, pairs the residuals in
space against a suite of test functions at each time, and checks that
the pairings decay as eps -> 0.

The pairings are computed in blocks: for each eps the fields and their
exact derivatives are evaluated once on a (times x nodes) array holding
a block of time rows, both residuals are formed from that one
evaluation, and each is contracted with every test function.  Each row
keeps the node layout and summation of a single :func:`pairing.pair`
call, so the result equals the cell-by-cell loop bit for bit.  The block
height is bounded by a fixed node budget because the temporaries of an
evaluation, and with them peak memory, grow with the block.

The replay facility extracts the point-mass and dipole coefficients of
both residuals numerically for an arbitrary trajectory and compares them
with the closed forms that define the front dynamics; with the solved
trajectory all extracted coefficients must vanish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ansatz import RiemannJumpData, SmoothAnsatz
from .kernels import MollifierKernel, make_kernel
from .pairing import (
    GAUSS_NODES,
    NEGLIGIBLE_RTOL,
    PANELS_PER_SUBINTERVAL,
    Piecewise,
    TestFunction,
    default_eps_grid,
    fit_order,
    pair_rows,
    point_coeffs,
    point_probes,
)

__all__ = [
    "residuals",
    "residual_integrand",
    "ResidualSeries",
    "SolutionReport",
    "default_test_suite",
    "default_t_grid",
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
# The temporaries of one field evaluation grow with its node count, so a
# block of time rows is capped by a node budget.  Evaluating all 33 default
# times at once raised a verdict's peak RSS by about 5 MB over one row at a
# time; four rows (this budget) by nothing measurable.  A row whose band
# lies inside the test-function support has five subintervals.
_BLOCK_NODES = 5 * 1024
_BLOCK_ROWS = max(1, _BLOCK_NODES // (5 * PANELS_PER_SUBINTERVAL * GAUSS_NODES))


def _residual_values(ansatz: SmoothAnsatz, system_k: float, x, t, eps: float):
    """Both residuals at points x and times t from one field evaluation."""
    u, _ = ansatz.eval_fields(x, t, eps)
    u_t, u_x, s_t, s_x = ansatz.eval_derivatives(x, t, eps)
    return u_t + u * u_x - s_x, s_t + u * s_x - system_k**2 * u_x


def residuals(ansatz: SmoothAnsatz, system_k: float):
    """Pointwise residual evaluators for both equations of the system.

    The velocity residual is u_t + u u_x - sigma_x; the stress residual
    is sigma_t + u sigma_x - k^2 u_x (k = 0 selects the degenerate
    system).  Both are complex-valued when the correction amplitude is.
    """

    def res_u(x, t, eps):
        return _residual_values(ansatz, system_k, x, t, eps)[0]

    def res_sigma(x, t, eps):
        return _residual_values(ansatz, system_k, x, t, eps)[1]

    return res_u, res_sigma


def residual_integrand(ansatz: SmoothAnsatz, system_k: float, equation: str,
                       t: float, eps: float) -> Piecewise:
    """Residual at fixed time as a compactly supported integrand."""
    i = 0 if equation == "u" else 1
    phi = float(ansatz.front.phi(t))
    breaks = ansatz.breakpoints(t, eps)
    return Piecewise(lambda x: _residual_values(ansatz, system_k, x, t, eps)[i],
                     phi - 4.0 * eps, phi + 4.0 * eps, breaks[1:-1])


def _residual_pairings(ansatz: SmoothAnsatz, system_k: float, times, eps: float,
                      phi_suite) -> np.ndarray:
    """Pairings of both residuals with every test function at every time.

    Returns a complex array indexed ``[equation, test function, time]``,
    equations in the order (u, sigma).  Each entry equals
    ``pair(residual_integrand(ansatz, system_k, equation, t, eps), phi)``
    bit for bit, but the fields are evaluated once per block of times,
    for both equations and all test functions.
    """
    times = np.asarray(times, dtype=float)
    out = []
    for start in range(0, len(times), _BLOCK_ROWS):
        block = times[start:start + _BLOCK_ROWS]
        bands = [(b[0], b[-1], b[1:-1])
                 for b in (ansatz.breakpoints(t, eps) for t in block)]

        def fn(xs, rows, block=block):
            return _residual_values(ansatz, system_k, xs, block[rows, None], eps)

        out.append(pair_rows(fn, bands, phi_suite, 2))
    return np.concatenate(out, axis=-1)


@dataclass(frozen=True)
class ResidualSeries:
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


@dataclass(frozen=True)
class SolutionReport:
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

    def equation_orders(self, equation: str, part: str = "re") -> list[float]:
        return [s.order for s in self.series
                if s.equation == equation and s.part == part]


def default_t_grid(t_max: float = 1.0, points: int = 33):
    """Equispaced grid on [0, t_max] used for the uniform-in-t maxima."""
    return np.linspace(0.0, float(t_max), points)


def default_test_suite(front, t_max: float, eps_max: float) -> tuple[TestFunction, ...]:
    """Value- and slope-selecting bumps covering the front's range."""
    phi_end = float(front.phi(t_max))
    center = 0.5 * phi_end
    halfwidth = max(1.0, abs(phi_end) / 2.0 + 0.5 + 4.0 * eps_max)
    return (TestFunction(center, halfwidth, "plain-bump"),
            TestFunction(center, halfwidth, "linear-times-bump"))


def _series_verdict(eps_grid, values):
    vals = np.asarray(values, dtype=float)
    scale = float(np.max(vals)) if len(vals) else 0.0
    if scale <= NEGLIGIBLE_RTOL:
        return math.inf, 0.0, True
    ratio = float(vals[-1] / vals[0]) if vals[0] > 0.0 else 0.0
    # Order over the full grid: the acceptance contract quantifies decay
    # across the whole eps range, not just the asymptotic tail.
    est = fit_order(eps_grid, vals, NEGLIGIBLE_RTOL * scale)
    passed = est.points_used < 2 or (est.order > DEFAULT_ORDER_FLOOR
                                     and ratio < DEFAULT_RATIO_CEILING)
    return est.order, ratio, passed


def verify_weak_solution(ansatz: SmoothAnsatz, system_k: float,
                         phi_suite=None, t_grid=None, eps_grid=None) -> SolutionReport:
    """Verify the weak-asymptotic-solution contract on grids.

    For every test function and every time the residuals are paired in
    space; the report carries, per equation and test function, the
    max-over-time pairing magnitude at each eps (real and imaginary
    parts separately) with the time it occurs at, the measured decay
    order, and a PASS verdict.
    """
    eps_grid = tuple(eps_grid) if eps_grid is not None else default_eps_grid()
    t_grid = np.asarray(t_grid if t_grid is not None else default_t_grid(), dtype=float)
    if phi_suite is None:
        phi_suite = default_test_suite(ansatz.front, float(t_grid[-1]), max(eps_grid))
    # [eps, equation, test function, time]
    vals = np.array([_residual_pairings(ansatz, system_k, t_grid, eps, phi_suite)
                     for eps in eps_grid])
    series = []
    for i_eq, equation in enumerate(("u", "sigma")):
        for i_phi, phi_test in enumerate(phi_suite):
            label = (f"{phi_test.modulation}@{phi_test.center:g}"
                     f"(w={phi_test.halfwidth:g})")
            cell = vals[:, i_eq, i_phi]
            for part, mags in (("re", np.abs(cell.real)), ("im", np.abs(cell.imag))):
                worst = np.argmax(mags, axis=-1)
                maxima = [float(m[i]) for m, i in zip(mags, worst)]
                order, ratio, ok = _series_verdict(eps_grid, maxima)
                series.append(ResidualSeries(
                    equation, label, part, tuple(eps_grid), tuple(maxima),
                    tuple(float(t_grid[i]) for i in worst), order, ratio, ok))
    passed = all(s.passed for s in series)
    return SolutionReport(float(system_k), passed, DEFAULT_ORDER_FLOOR,
                          DEFAULT_RATIO_CEILING, tuple(series))


@dataclass(frozen=True)
class ReplayResult:
    """Extracted residual coefficients next to their closed forms.

    ``a_u``/``b_u`` are the point-mass and dipole coefficients of the
    velocity residual, ``a_sigma``/``b_sigma`` those of the stress
    residual, all measured at the front at the probe time.
    """

    measured: tuple[complex, complex, complex, complex]
    closed: tuple[complex, complex, complex, complex]
    probe_time: float

    @property
    def max_defect(self) -> float:
        return max(abs(m - c) for m, c in zip(self.measured, self.closed))


def sample_admissible_data(rng, k: float,
                           probe_time: float = 1.0) -> RiemannJumpData:
    """Random jump data strictly inside the overcompressive window.

    The sample keeps the point-mass amplitude away from zero at the probe
    time so the correction amplitude and its rate stay moderate.
    """
    from .dynamics import e_rate, overcompressivity

    k = float(k)
    while True:
        u1 = float(rng.uniform(2.0 * k + 0.6, 2.0 * k + 3.0))
        half_window = 0.5 * u1 - k
        sigma1 = u1 * float(rng.uniform(-0.8, 0.8)) * half_window
        data = RiemannJumpData(float(rng.uniform(-1.0, 1.0)), u1,
                               float(rng.uniform(-1.0, 1.0)), sigma1,
                               float(rng.uniform(0.1, 0.6)), k)
        if not overcompressivity(data).admissible:
            continue
        if abs(data.e0 + e_rate(data) * probe_time) < 0.05:
            continue
        return data


def closed_form_coefficients(data: RiemannJumpData, trajectory, omega0: float,
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


def replay_derivation(data: RiemannJumpData, trajectory,
                      kernel: MollifierKernel | None = None,
                      t: float = 1.0, eps_grid=None,
                      c: float | None = None) -> ReplayResult:
    """Extract residual coefficients for a trajectory with free coefficients.

    The residuals are those of the system with the data's k.  The
    trajectory's rates are treated as unconstrained numbers; the
    measured tuple matches the closed forms, and vanishes exactly when
    the trajectory solves the front dynamics and the plateau level is the
    one pinned by the data.
    """
    kernel = kernel or make_kernel()
    eps_grid = tuple(eps_grid) if eps_grid is not None else default_eps_grid()
    ansatz = SmoothAnsatz(data, trajectory, kernel, c=c)
    probes = point_probes(float(trajectory.phi(t)))
    # [eps, equation, probe]
    vals = np.array([_residual_pairings(ansatz, data.k, [t], eps, probes)[..., 0]
                     for eps in eps_grid])
    ext_u, ext_s = (point_coeffs(eps_grid, [complex(v) for v in vals[:, i, 0]],
                                 [complex(v) for v in vals[:, i, 1]])
                    for i in (0, 1))
    measured = (complex(ext_u.a), complex(ext_u.b),
                complex(ext_s.a), complex(ext_s.b))
    closed = closed_form_coefficients(data, trajectory, kernel.omega0,
                                      data.k, ansatz.c_effective, t)
    return ReplayResult(measured, closed, float(t))
