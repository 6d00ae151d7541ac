"""Test-only oracles: code that only tests call, kept out of the package.

The singular solution's exact pairings, the smooth fields as integrands
for :func:`deltashock.pairing.pair`, the Volpert jump relations, a test
function's exact derivative and a report's orders per equation.  No name
here starts with ``test``, so pytest collects none from a test module.
"""

import math
from typing import NamedTuple

import numpy as np

from deltashock.ansatz import Front, RiemannJumpData, SmoothAnsatz
from deltashock.kernels import exp_bump, exp_bump_dy
from deltashock.pairing import PLAIN_BUMP, Piecewise, TestFunction, pair
from deltashock.verifier import SolutionReport


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
