"""Test-only oracles: code that only tests call, kept out of the package.

The singular solution's exact pairings, the smooth fields as integrands
for :func:`deltashock.pairing.pair`, the Volpert jump relations, the
classical Riemann construction and the singular-front test of one jump, a
test function's exact derivative, a report's orders per equation, and the
closed forms of the four residual coefficients that the replay reads off the
primitive table.  No name here starts with ``test``, so pytest collects none
from a test module.
"""

import math
from typing import NamedTuple

import numpy as np

from deltashock.ansatz import Front, RiemannJumpData, SmoothAnsatz
from deltashock.kernels import exp_bump, exp_bump_dy
from deltashock.pairing import PLAIN_BUMP, Piecewise, TestFunction, pair
from deltashock.riemann import RiemannSolution, State, _classical, _construct
from deltashock.verifier import _PROBE_TIME, SolutionReport


class SingularSolution(NamedTuple):
    """Distributional front solution determined by a trajectory.

    Pairings against test functions are assembled from three primitives:
    the full integral of the test function, its integral left of the
    front, and its value at the front.
    """

    data: RiemannJumpData
    front: Front

    def _integrals(self, t: float, phi_test: TestFunction):
        """phi(t), and the integrals of phi_test over the line and left of phi(t)."""
        front = float(self.front.phi(t))
        full = pair(Piecewise(np.ones_like), phi_test)
        return front, full, pair(Piecewise(np.ones_like, hi=front), phi_test)

    def u_pairing(self, t: float, phi_test: TestFunction) -> float:
        _, full, left = self._integrals(t, phi_test)
        return float(self.data.u0 * full + self.data.u1 * left)

    def sigma_pairing(self, t: float, phi_test: TestFunction) -> float:
        front, full, left = self._integrals(t, phi_test)
        atom = float(self.front.e(t)) * float(phi_test.value(front))
        return float(self.data.sigma0 * full + self.data.sigma1 * left + atom)


def u_integrand(ansatz: SmoothAnsatz, t: float, eps: float) -> Piecewise:
    return Piecewise(lambda x: ansatz.eval_fields(x, t, eps)[0],
                     -math.inf, math.inf, ansatz.breakpoints(t, eps))


def sigma_integrand(ansatz: SmoothAnsatz, t: float, eps: float) -> Piecewise:
    return Piecewise(lambda x: ansatz.eval_fields(x, t, eps)[1],
                     -math.inf, math.inf, ansatz.breakpoints(t, eps))


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


def classify_waves(left: State, right: State, k: float) -> RiemannSolution:
    """Classical two-wave construction with its ordering check.

    As k -> 0 with a stress jump the intermediate state escapes to
    infinity, which is why the degenerate system has no classical
    solution.  Where it leaves the float range, as for a tiny k,
    OverflowError names it.
    """
    return _classical(left, right, k, _construct(*left, *right, k))


def delta_regime_test(left: State, right: State, k: float) -> bool:
    """True iff the data falls in the overcompressive singular-front window;
    ValueError for k < 0."""
    if k < 0.0:
        raise ValueError("k must be nonnegative")
    return bool(_construct(*left, *right, k)[0])


def deriv(phi_test: TestFunction, x):
    """Exact derivative of a test function at x."""
    x = np.asarray(x, dtype=float)
    y = (x - phi_test.center) / phi_test.halfwidth
    if phi_test.modulation == PLAIN_BUMP:
        return exp_bump_dy(y, lift=1.0) / phi_test.halfwidth
    return (exp_bump(y, lift=1.0)
            + (x - phi_test.center) * exp_bump_dy(y, lift=1.0) / phi_test.halfwidth)


def equation_orders(report: SolutionReport, equation: str, part: str = "re") -> list[float]:
    """Fitted orders of ``report``'s series of one equation and part."""
    return [s.order for s in report.series
            if s.equation == equation and s.part == part]


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


def replay_closed_forms(data: RiemannJumpData, trajectory: Front, kernel,
                        t: float = _PROBE_TIME, c: float | None = None):
    """:func:`closed_form_coefficients` at the arguments of
    ``replay_derivation(data, trajectory, kernel, t, c)``: the kernel's
    omega0, the data's k and the replay's plateau, ``c`` or the data's."""
    return closed_form_coefficients(data, trajectory, kernel.omega0, data.k,
                                    data.plateau() if c is None else c, t)
