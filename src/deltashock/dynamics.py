"""Closed-form singular-front dynamics and jump-relation checks.

The front position and point-mass amplitude obey constant-rate ODEs, so
the trajectories are exact linear functions of time:

    phi(t) = (u0 + u1/2 - sigma1/u1) * t
    e(t)   = (sigma1^2/u1 - k^2 u1) * t + e0

and the correction amplitude solves p(t)^2 * omega0 / 2 = e(t) on the
principal branch (real and nonnegative while e >= 0, purely imaginary
with nonnegative imaginary part while e < 0).  A numerical ODE
integration exists only as a test oracle.
"""

import math
from typing import NamedTuple

import numpy as np

from .ansatz import DegenerateDataError, RiemannJumpData
from .kernels import MollifierKernel, make_kernel, primitive_table

__all__ = [
    "AdmissibilityError",
    "NotApplicableError",
    "FrontTrajectory",
    "LinearTrajectory",
    "front_speed",
    "e_rate",
    "solve_front",
    "Admissibility",
    "overcompressivity",
    "overcompressivity_margins",
    "volpert_relations",
    "volpert_scan",
    "volpert_product_pairing",
    "trajectory_rows",
]


class AdmissibilityError(ValueError):
    """Raised when jump data violates the overcompressivity window."""


class NotApplicableError(ValueError):
    """Raised when an operation is queried outside its regime."""


def front_speed(data: RiemannJumpData) -> float:
    """Front speed (mean of the velocity states minus sigma1/u1).

    Shared by the k > 0 and k = 0 systems.
    """
    if data.u1 == 0.0:
        raise DegenerateDataError("front speed undefined for u1 = 0")
    return data.finite("front speed u0 + u1/2 - sigma1/u1",
                       lambda: data.u0 + 0.5 * data.u1 - data.sigma1 / data.u1)


def e_rate(data: RiemannJumpData) -> float:
    """Growth rate of the point-mass amplitude: sigma1^2/u1 - k^2 u1."""
    if data.u1 == 0.0:
        raise DegenerateDataError("amplitude rate undefined for u1 = 0")
    return data.finite("amplitude rate sigma1^2/u1 - k^2 u1",
                       lambda: data.sigma1**2 / data.u1 - data.k**2 * data.u1)


class FrontTrajectory(NamedTuple):
    """Exactly linear front trajectory with the solved correction amplitude.

    One of the two :class:`ansatz.Front` implementations.
    """

    phi_dot: float
    e_rate: float
    e0: float
    omega0: float

    def phi(self, t):
        return self.phi_dot * np.asarray(t, dtype=float)

    def e(self, t):
        return self.e0 + self.e_rate * np.asarray(t, dtype=float)

    def p(self, t):
        return np.sqrt(np.asarray(2.0 * self.e(t) / self.omega0, dtype=complex))

    def p_dot(self, t):
        p_val = self.p(t)
        if self.e_rate == 0.0:
            return 0.0 * p_val
        if np.any(p_val == 0):
            raise ZeroDivisionError(
                "p_dot is singular where e(t) crosses zero with nonzero rate")
        return self.e_rate / (self.omega0 * p_val)

    def defect(self, t):
        """Residual of the defining relation p^2 omega0 / 2 - e (should be 0)."""
        p_val = self.p(t)
        return 0.5 * p_val * p_val * self.omega0 - self.e(t)


class LinearTrajectory(NamedTuple):
    """Trajectory with freely chosen coefficients (for derivation replay).

    Unlike :class:`FrontTrajectory`, ``p`` is an unconstrained linear
    function of time, so the defining relation between p and e can be
    violated on purpose.  Also an :class:`ansatz.Front`.
    """

    phi_dot: float
    e0: float = 0.0
    e_rate: float = 0.0
    p0: complex = 0.0
    p_rate: complex = 0.0

    def phi(self, t):
        return self.phi_dot * np.asarray(t, dtype=float)

    def e(self, t):
        return self.e0 + self.e_rate * np.asarray(t, dtype=float)

    def p(self, t):
        return self.p0 + self.p_rate * np.asarray(t, dtype=complex)

    def p_dot(self, t):
        return np.full(np.shape(t), complex(self.p_rate))


def solve_front(data: RiemannJumpData, omega0: float | None = None) -> FrontTrajectory:
    """Closed-form trajectory through phi(0) = 0, e(0) = e0."""
    if omega0 is None:
        omega0 = make_kernel().omega0
    return FrontTrajectory(front_speed(data), e_rate(data), data.e0, float(omega0))


_MARGIN_LABELS = ("u1 - 2k", "sigma1/u1 + (u1/2 - k)", "(u1/2 - k) - sigma1/u1")


class Admissibility(NamedTuple):
    """Overcompressivity verdict with the three signed slack quantities."""

    admissible: bool
    margins: tuple[float, float, float]
    labels: tuple[str, str, str] = _MARGIN_LABELS

    def violated(self) -> list[str]:
        return [f"{lab} = {m:.6g}" for lab, m in zip(self.labels, self.margins)
                if not m > 0.0]


def overcompressivity(data: RiemannJumpData) -> Admissibility:
    """Check that all characteristics on both sides run into the front.

    For k > 0 this is u1 > 2k together with |sigma1/u1| < u1/2 - k; the
    k = 0 conditions are the same formulas with k set to zero.  All
    inequalities are strict, so boundary data is inadmissible.
    """
    u1, k = data.u1, data.k
    ratio = data.sigma1 / u1 if u1 != 0.0 else math.nan
    m1, m2, m3 = overcompressivity_margins(u1, ratio, k)
    ok = (m1 > 0.0) and (m2 > 0.0) and (m3 > 0.0)
    return Admissibility(bool(ok), (m1, m2, m3))


def overcompressivity_margins(u1, ratio, k):
    """The three signed slacks of :func:`overcompressivity`, in its labels' order.

    ``ratio`` is sigma1/u1, which the caller forms so that it can mark
    u1 = 0 as nan; a nan ratio gives nan for the last two margins.  The
    arithmetic is plain, so floats and numpy arrays get the same rounding.
    """
    half_window = 0.5 * u1 - k
    return u1 - 2.0 * k, ratio + half_window, half_window - ratio


def volpert_relations(u_left: float, u_right: float, sigma_left: float,
                      sigma_right: float, s: float) -> tuple[float, float]:
    """Residuals of the two averaged jump relations at candidate speed s.

    The second residual with a nonzero stress jump forces s to the mean
    velocity, after which the first forces the stress jump to vanish:
    no bounded-variation solution carries a stress jump when k = 0.
    """
    du = u_left - u_right
    dsigma = sigma_left - sigma_right
    r1 = -s * du + 0.5 * (u_left**2 - u_right**2) - dsigma
    r2 = -s * dsigma + 0.5 * (u_left + u_right) * dsigma
    return (r1, r2)


def volpert_scan(u_left: float, u_right: float, sigma_left: float,
                 sigma_right: float, s_min: float = -10.0, s_max: float = 10.0,
                 n: int = 2001) -> tuple[float, float]:
    """Minimum over a speed grid of max(|r1|, |r2|), with its argmin."""
    ss = np.linspace(s_min, s_max, n)
    r1, r2 = volpert_relations(u_left, u_right, sigma_left, sigma_right, ss)
    worst = np.maximum(np.abs(r1), np.abs(r2))
    i = int(np.argmin(worst))
    return float(worst[i]), float(ss[i])


def volpert_product_pairing(data: RiemannJumpData,
                            kernel: MollifierKernel | None = None) -> float:
    """Point-mass coefficient of u * dsigma/dx in the shock case.

    Only defined when the point mass is absent for all time (e0 = 0 and
    zero amplitude rate), so p vanishes too.  In the frame xi = x - phi(t)
    the product is then -sigma1 (u0 dh + u1 h dh), both of eps power 0:
    its coefficient, the table's limit of the product's column weights,
    realizes the averaged product -sigma1 (u0 + u1/2).
    """
    kernel = kernel or make_kernel()
    rate = e_rate(data)
    scale = max(abs(data.sigma1**2 / data.u1), abs(data.k**2 * data.u1), 1.0)
    if abs(data.e0) > 1e-12 or abs(rate) > 1e-12 * scale:
        raise NotApplicableError(
            "the averaged-product identity is only claimed for pure shocks "
            f"(e0 = {data.e0}, e rate = {rate})")
    table = primitive_table(kernel, (("dh",), ("h", "dh")))
    weights = table.weights([{("dh",): data.u0, ("h", "dh"): data.u1}], data.plateau())
    return float(-data.sigma1 * table.limits(weights, ["u dsigma/dx"])[0][0])


def trajectory_rows(traj, t_grid) -> list[tuple[float, float, float, float, float]]:
    """Rows (t, phi, e, Re p, Im p) for table export."""
    t = np.asarray(t_grid, dtype=float)
    p = traj.p(t)
    return list(zip(t.tolist(), traj.phi(t).tolist(), traj.e(t).tolist(),
                    p.real.tolist(), p.imag.tolist()))
