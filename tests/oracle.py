"""Test-only oracles: code that only tests call, kept out of the package.

The singular solution's exact pairings, the smooth fields as integrands
for :func:`deltashock.pairing.pair`, the Volpert jump relations, the
classical Riemann construction and the singular-front test of one jump, a
test function's exact derivative, a report's orders per equation, the
closed forms of the four residual coefficients that the replay reads off the
primitive table, and the exact arithmetic of the quartic kernel's
certificate: the table's moments as rationals, :class:`Exact` and
:class:`Qp`.  No name here starts with ``test``, so pytest collects none
from a test module.
"""

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from deltashock.ansatz import Front, RiemannJumpData, SmoothAnsatz
from deltashock.kernels import exp_bump, exp_bump_dy
from deltashock.pairing import PLAIN_BUMP, Piecewise, TestFunction, pair
from deltashock.riemann import (
    CLASSICAL,
    DELTA_REGIME,
    NO_SOLUTION,
    RiemannSolution,
    State,
    Wave,
    _construct,
    _decide,
)
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
    """Classical two-wave construction with its ordering check, whatever
    the window flag; ValueError for k <= 0.

    As k -> 0 with a stress jump the intermediate state escapes to
    infinity, which is why the degenerate system has no classical
    solution.  Where it leaves the float range, as for a tiny k,
    OverflowError names it.
    """
    if k <= 0.0:
        raise ValueError("classical wave curves need k > 0")
    u_star, sigma_star, wave1, wave2 = _construct(*map(float, (*left, *right, k)))
    w1, w2 = Wave(1, *wave1), Wave(2, *wave2)
    regime = CLASSICAL if w1.fastest <= w2.slowest + 1e-12 else NO_SOLUTION
    return RiemannSolution(left, right, float(k), regime, u_star, sigma_star, w1, w2)


def delta_regime_test(left: State, right: State, k: float) -> bool:
    """True iff the data falls in the overcompressive singular-front window;
    ValueError for k < 0.  The window test is the decision's first step, so
    data in the window builds no construction; outside it at k > 0, an
    intermediate state or wave speed out of float range raises OverflowError."""
    if k < 0.0:
        raise ValueError("k must be nonnegative")
    return _decide(*map(float, (*left, *right, k)))[0] == DELTA_REGIME


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
    """The four residual coefficients implied by the expansion algebra, in the
    arithmetic of the arguments: exact for :class:`Exact` data and rates and
    a :class:`Qp` amplitude p."""
    u0, u1, s1 = data.u0, data.u1, data.sigma1
    phi_dot = trajectory.phi_dot
    e_val, p_val = trajectory.e(t), trajectory.p(t)
    a_u = u1 * phi_dot - u0 * u1 - u1**2 / 2 + s1
    b_u = p_val * p_val * omega0 / 2 - e_val
    a_sigma = (trajectory.e_rate + s1 * phi_dot - u1 * s1 / 2 - u0 * s1
               + system_k**2 * u1)
    b_sigma = e_val * (u0 + u1 * c_built - phi_dot)
    return (a_u, b_u, a_sigma, b_sigma)


def replay_closed_forms(data: RiemannJumpData, trajectory: Front, kernel,
                        t: float = _PROBE_TIME, c: float | None = None):
    """:func:`closed_form_coefficients` at the arguments of
    ``replay_derivation(data, trajectory, kernel, t, c)``: the kernel's
    omega0, the data's k and the replay's plateau, ``c`` or the data's."""
    return tuple(map(complex, closed_form_coefficients(
        data, trajectory, kernel.omega0, data.k, data.plateau() if c is None else c, t)))


# Exact arithmetic for the quartic kernel's certificate: its profiles are
# piecewise polynomials with rational coefficients, omega0 = 5/7, and every
# residual coefficient lies in Q(p) for rational data.

class Exact(Fraction):
    """A rational that reads a float operand as the rational it is, so that
    package arithmetic written with float literals (0.5, 1.0) stays exact."""


def _exactly(name):
    op = getattr(Fraction, name)

    def method(a, b):
        out = op(a, Fraction(b) if isinstance(b, float) else b)
        return Exact(out) if isinstance(out, Fraction) else out
    return method


for _name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__pow__"):
    setattr(Exact, _name, _exactly(_name))
Exact.__neg__ = lambda a: Exact(-Fraction(a))


class Qp:
    """a + b p for a p with p^2 = p2, a rational: exact arithmetic in Q(p)
    on rationals and floats, the latter read as the rationals they are."""

    __slots__ = ("a", "b", "p2")

    def __init__(self, a, b, p2):
        self.a, self.b, self.p2 = Exact(a), Exact(b), Exact(p2)

    def _of(self, x):
        return x if isinstance(x, Qp) else Qp(x, 0, self.p2)

    def __add__(self, x):
        x = self._of(x)
        return Qp(self.a + x.a, self.b + x.b, self.p2)

    def __mul__(self, x):
        x = self._of(x)
        return Qp(self.a * x.a + self.b * x.b * self.p2, self.a * x.b + self.b * x.a, self.p2)

    def __neg__(self):
        return Qp(-self.a, -self.b, self.p2)

    def __sub__(self, x):
        return self + -self._of(x)

    def __rsub__(self, x):
        return -self + x

    def __truediv__(self, x):
        """Division by a rational."""
        return Qp(self.a / x, self.b / x, self.p2)

    def __eq__(self, x):
        x = self._of(x)
        return (self.a, self.b, self.p2) == (x.a, x.b, x.p2)

    __radd__, __rmul__ = __add__, __mul__

    def __repr__(self):
        return f"Qp({self.a}, {self.b}, p2={self.p2})"


# A polynomial in y is a tuple of Fractions, lowest power first; a piecewise
# polynomial on the band is {subinterval index: polynomial}, 0 elsewhere.
_SUBINTERVALS = ((-4, -3), (-3, -1), (-1, 1), (1, 3), (3, 4))


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, z in enumerate(b):
            out[i + j] += x * z
    return tuple(out)


def _poly_add(a, b):
    return tuple(sum(p[i] for p in (a, b) if i < len(p))
                 for i in range(max(len(a), len(b))))


def _integral(poly, lo, hi, n):
    """int_lo^hi y^n poly(y) dy."""
    return sum(coef * Fraction(hi**(k + n + 1) - lo**(k + n + 1), k + n + 1)
               for k, coef in enumerate(poly))


def _poly_at(p, scale, shift, factor=1):
    """factor * p(scale * y + shift)."""
    out = (Fraction(0),)
    for coef in reversed(p):
        out = _poly_add(_poly_mul(out, (Fraction(shift), Fraction(scale))), (coef,))
    return tuple(factor * v for v in out)


_Q_KERNEL = tuple(Fraction(15, 16) * v for v in (1, 0, -2, 0, 1))  # (1 - s^2)^2
_Q_DERIV = tuple(Fraction(15, 16) * v for v in (0, -4, 0, 4))
_Q_CDF = (Fraction(1, 2),
          *(Fraction(15, 16) * v for v in (1, 0, Fraction(-2, 3), 0, Fraction(1, 5))))
_ONE = (Fraction(1),)
# Each profile at eps = 1 as its c^0 and c^1 parts, as product_columns
# forms them: h(y) = StepProfile.value(-y), dh(y) = StepProfile.deriv(-y).
_EXACT_FACTORS = {
    "h": ({0: _poly_at(_Q_CDF, -2, -7)},
          {0: _poly_add(_ONE, _poly_at(_Q_CDF, -2, -7, -1)),
           1: _ONE, 2: _ONE, 3: _ONE, 4: _poly_at(_Q_CDF, -2, 7)}),
    "dh": ({0: _poly_at(_Q_KERNEL, -2, -7, 2)},
           {0: _poly_at(_Q_KERNEL, -2, -7, -2), 4: _poly_at(_Q_KERNEL, -2, 7, 2)}),
    "r": ({3: _poly_at(_Q_KERNEL, 1, -2)},),
    "dr": ({3: _poly_at(_Q_DERIV, 1, -2)},),
    "d": ({1: _poly_at(_Q_KERNEL, 1, 2)},),
    "dd": ({1: _poly_at(_Q_DERIV, 1, 2)},),
}


def exact_quartic_moments(product, n_max):
    """The c^j parts of a product of quartic profiles at eps = 1, each as
    its exact moments int y^n part(y) dy, n = 0..n_max, over the band."""
    parts = [{i: _ONE for i in range(len(_SUBINTERVALS))}]
    for name in product:
        factor = _EXACT_FACTORS[name]
        out = [{} for _ in range(len(parts) + len(factor) - 1)]
        for j, part in enumerate(parts):
            for m, piece in enumerate(factor):
                for i in part.keys() & piece.keys():
                    term = _poly_mul(part[i], piece[i])
                    out[j + m][i] = _poly_add(out[j + m].get(i, (Fraction(0),)), term)
        parts = out
    return [[sum(_integral(poly, *_SUBINTERVALS[i], n) for i, poly in part.items())
             for n in range(n_max + 1)]
            for part in parts]
