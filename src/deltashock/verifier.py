"""Weak-solution verification and derivation replay.

Substitutes the smooth ansatz into either system, pairs the residuals in
space against a suite of test functions at each time, and checks that
the pairings decay as eps -> 0.

The pairings use moment tables in the moving frame xi = x - phi(t).  There
the profiles depend on eps alone, and both residuals are sums of real
profile products (the basis rows) times per-time scalars built from p,
p-dot and e.  For each eps the basis is evaluated once on the quadrature
nodes :func:`pairing.pair` would use, weighted, and contracted with the
test-function values of a block of times in one real matmul; the scalars
finish each sum.  The result agrees with the cell-by-cell loop of
:func:`pairing.pair` to 1e-12 of each cell's sum of |w f phi|.

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
from .kernels import (
    MollifierKernel,
    eval_correction,
    eval_correction_dx,
    eval_delta_reg,
    eval_delta_reg_dx,
    exp_bump,
    make_kernel,
)
from .pairing import (
    NEGLIGIBLE_RTOL,
    PLAIN_BUMP,
    NumericsError,
    Piecewise,
    TestFunction,
    band_quadrature,
    default_eps_grid,
    fit_order,
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
# A block of time rows holds a (rows x nodes) array per test function, so a
# node budget caps it and peak memory does not grow with the number of
# times; on the unclipped band's 1280 nodes a block holds four rows.
_BLOCK_NODES = 5 * 1024
# The replay probes the front here, and sampled data keep e(t) from zero.
_PROBE_TIME = 1.0


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
    breaks = ansatz.breakpoints(t, eps)
    return Piecewise(lambda x: _residual_values(ansatz, system_k, x, t, eps)[i],
                     breaks[0], breaks[-1], breaks[1:-1])


def _moment_basis(ansatz: SmoothAnsatz, system_k: float, xi, eps: float):
    """Real basis rows of both residuals at moving-frame points xi = x - phi(t).

    Rows 0-4 are A and rows 5-7 are B in res_u = A . (1, p, p_dot, p^2, e)
    and res_sigma = B . (1, e, p); expanding :func:`_residual_values`
    gives them.  Its p e term R D' vanishes: R and D have disjoint supports.
    """
    d, front, kernel = ansatz.data, ansatz.front, ansatz.kernel
    prof = ansatz.step(eps)
    h, dh = prof.value(-xi), prof.deriv(-xi)
    r, dr = eval_correction(xi, eps, kernel), eval_correction_dx(xi, eps, kernel)
    dl, ddl = eval_delta_reg(xi, eps, kernel), eval_delta_reg_dx(xi, eps, kernel)
    u0, u1, s1, k2, v = d.u0, d.u1, d.sigma1, system_k**2, front.phi_dot
    return np.array([
        (u1 * v - u0 * u1 + s1 - u1**2 * h) * dh,
        (u0 - v + u1 * h) * dr - u1 * r * dh,
        r,
        r * dr,
        -ddl,
        (s1 * v - u0 * s1 + k2 * u1 - u1 * s1 * h) * dh + front.e_rate * dl,
        (u0 - v + u1 * h) * ddl,
        -s1 * r * dh - k2 * dr,
    ])


def _time_coeffs(front, times):
    """phi(t) and the coefficients of the eight basis rows at each time."""
    phi = np.array([float(front.phi(t)) for t in times])
    e = np.array([float(front.e(t)) for t in times])
    p = np.array([complex(front.p(t)) for t in times])
    p_dot = np.array([complex(front.p_dot(t)) for t in times])
    one = np.ones_like(p)
    return phi, np.stack([one, p, p_dot, p * p, e, one, e, p], axis=-1)


def _residual_pairings(ansatz: SmoothAnsatz, system_k: float, times, eps_grid,
                      phi_suite) -> np.ndarray:
    """Pairings of both residuals with every test function at every time.

    Returns a complex array indexed ``[eps, equation, test function, time]``,
    equations in the order (u, sigma).  Each entry is the cell's
    ``pair(residual_integrand(...), phi)``, summed on the same nodes moved
    to the frame xi = x - phi(t), to within 1e-12 of its sum of |w f phi|.
    """
    phi, coeffs = _time_coeffs(ansatz.front, times)
    suite: dict[tuple[float, float], list[int]] = {}
    for i, tf in enumerate(phi_suite):
        suite.setdefault((tf.center, tf.halfwidth), []).append(i)
    out = np.zeros((len(eps_grid), 2, len(phi_suite), len(times)), dtype=complex)
    for cells, eps in zip(out, eps_grid):
        # Rows grouped by their band in xi, the front band clipped to the
        # support: the rows a support does not clip share one.
        edges = ansatz.band_edges(eps)
        bands: dict = {}
        for center, halfwidth in suite:
            lo = np.maximum(edges[0], center - halfwidth - phi)
            hi = np.minimum(edges[-1], center + halfwidth - phi)
            for j in np.flatnonzero(lo < hi):
                rows = bands.setdefault((lo[j], hi[j]), {})
                rows.setdefault((center, halfwidth), []).append(j)
        for (lo, hi), rows_by_test in bands.items():
            xi, w = band_quadrature(lo, hi, edges[1:-1])
            table = (_moment_basis(ansatz, system_k, xi, eps) * w).T
            step = max(1, _BLOCK_NODES // len(xi))
            for (center, halfwidth), rows in rows_by_test.items():
                tests = suite[center, halfwidth]
                cols = np.array(tests)[:, None]
                for block in (rows[k:k + step] for k in range(0, len(rows), step)):
                    x = phi[block, None] + xi
                    # TestFunction.value, with one bump per support
                    bump = exp_bump((x - center) / halfwidth, lift=1.0)
                    psi = np.array([bump if phi_suite[i].modulation == PLAIN_BUMP
                                    else (x - center) * bump for i in tests])
                    m, c = psi @ table, coeffs[block]
                    cells[0, cols, block] = np.sum(m[..., :5] * c[:, :5], -1)
                    cells[1, cols, block] = np.sum(m[..., 5:] * c[:, 5:], -1)
        bad = np.argwhere(~np.isfinite(cells))
        if len(bad):
            raise NumericsError(f"non-finite residual pairing at eps={eps:g}, "
                                f"t={times[bad[0][-1]]:g}")
    return out


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
    vals = _residual_pairings(ansatz, system_k, t_grid, eps_grid, phi_suite)
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


def sample_admissible_data(rng, k: float) -> RiemannJumpData:
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
        if abs(data.e0 + e_rate(data) * _PROBE_TIME) < 0.05:
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
                      t: float = _PROBE_TIME, eps_grid=None,
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
    vals = _residual_pairings(ansatz, data.k, [t], eps_grid, probes)[..., 0]
    ext_u, ext_s = (point_coeffs(eps_grid, *vals[:, i].T.tolist()) for i in (0, 1))
    measured = (complex(ext_u.a), complex(ext_u.b),
                complex(ext_s.a), complex(ext_s.b))
    closed = closed_form_coefficients(data, trajectory, kernel.omega0,
                                      data.k, ansatz.c_effective, t)
    return ReplayResult(measured, closed, float(t))
