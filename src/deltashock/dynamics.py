"""Jump data, closed-form singular-front dynamics, admissibility and the
shock-case product.

The front position and point-mass amplitude obey constant-rate ODEs, so
the trajectories are exact linear functions of time:

    phi(t) = (u0 + u1/2 - sigma1/u1) * t
    e(t)   = (sigma1^2/u1 - k^2 u1) * t + e0

and the correction amplitude solves p(t)^2 * omega0 / 2 = e(t) on the
principal branch (real and nonnegative while e >= 0, purely imaginary
with nonnegative imaginary part while e < 0).  In the shock case
:func:`volpert_product_pairing` reads the averaged product u * dsigma/dx
off the primitive table.  A numerical ODE integration and the Volpert
jump relations are test oracles only.  :func:`volpert_product_pairing`
alone needs :mod:`deltashock.kernels`, and imports it when run:
:func:`solve_front`'s default omega0, the quartic kernel's, is read from
the package root's table.

The jump data, rates, admissibility and margins are Python float
arithmetic, and so is :func:`trajectory_columns`, the front's table, so
the classical Riemann solver, the regime sweep, ``front`` and ``k-limit``,
which read them, run without numpy.  Only the trajectories' array
evaluators compute with numpy; they import it when run.
"""

import math
from typing import NamedTuple

from . import OMEGA0, QUARTIC, check_k

__all__ = [
    "DegenerateDataError",
    "RiemannJumpData",
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
    "volpert_product_pairing",
    "trajectory_columns",
]


class DegenerateDataError(ValueError):
    """Jump data on which the front dynamics is undefined (u1 = 0)."""


class _JumpFields(NamedTuple):
    u0: float
    u1: float
    sigma0: float
    sigma1: float
    e0: float = 0.0
    k: float = 0.0


class RiemannJumpData(_JumpFields):
    """Constant background plus a single jump at x = 0.

    Convention: jumps are left minus right, so the left states are
    (u0 + u1, sigma0 + sigma1) and the right states (u0, sigma0).  ``e0``
    is the initial amplitude of the point mass in the stress, ``k`` the
    system parameter (k = 0 selects the degenerate system).  Construction
    keeps the k that :func:`deltashock.check_k`, the one k rule, returns: a
    float, -0.0 as 0.0, and ValueError unless it is finite and >= 0.
    ``_replace`` and ``_make`` bypass that check, so the package builds
    data by calling the class.
    """

    __slots__ = ()

    def __new__(cls, u0, u1, sigma0, sigma1, e0=0.0, k=0.0):
        return super().__new__(cls, u0, u1, sigma0, sigma1, e0, check_k(k))

    @property
    def left_state(self) -> tuple[float, float]:
        return (self.u0 + self.u1, self.sigma0 + self.sigma1)

    @property
    def right_state(self) -> tuple[float, float]:
        return (self.u0, self.sigma0)

    def plateau(self) -> float:
        """Plateau level 1/2 - sigma1/u1^2 that cancels the stress dipole terms."""
        if self.u1 == 0.0:
            raise DegenerateDataError("plateau level undefined for u1 = 0")
        return self.finite("plateau level 1/2 - sigma1/u1^2",
                           lambda: 0.5 - self.sigma1 / self.u1**2)

    def finite(self, quantity: str, compute) -> float:
        """``compute()``, or an OverflowError naming the quantity and this data.

        Plain float arithmetic on extreme data overflows (``**`` raises,
        ``*`` and ``/`` give inf) or divides by a square that underflowed.
        """
        try:
            value = compute()
        except (OverflowError, ZeroDivisionError):
            value = math.nan
        if not math.isfinite(value):
            raise OverflowError(f"{quantity} is out of float range for {self}")
        return value


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
        import numpy as np

        return self.phi_dot * np.asarray(t, dtype=float)

    def e(self, t):
        import numpy as np

        return self.e0 + self.e_rate * np.asarray(t, dtype=float)

    def p(self, t):
        return self._root(self.e(t))

    def p_dot(self, t):
        return self._rate(self.p(t))

    def evaluate(self, t):
        """(phi, e, p, p_dot) at t, each as its method gives it, with e and
        p evaluated once."""
        e = self.e(t)
        p = self._root(e)
        return self.phi(t), e, p, self._rate(p)

    def _root(self, e):
        """p of the amplitude e: the principal root of 2 e / omega0."""
        import numpy as np

        return np.sqrt(np.asarray(2.0 * e / self.omega0, dtype=complex))

    def _rate(self, p):
        """p_dot of the correction amplitude p."""
        if self.e_rate == 0.0:
            return 0.0 * p
        if not p.all():
            raise ZeroDivisionError(
                "p_dot is singular where e(t) crosses zero with nonzero rate")
        return self.e_rate / (self.omega0 * p)


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
        import numpy as np

        return self.phi_dot * np.asarray(t, dtype=float)

    def e(self, t):
        import numpy as np

        return self.e0 + self.e_rate * np.asarray(t, dtype=float)

    def p(self, t):
        import numpy as np

        return self.p0 + self.p_rate * np.asarray(t, dtype=complex)

    def p_dot(self, t):
        import numpy as np

        return np.full(np.shape(t), complex(self.p_rate))

    def evaluate(self, t):
        """(phi, e, p, p_dot) at t, each as its method gives it."""
        return self.phi(t), self.e(t), self.p(t), self.p_dot(t)


def solve_front(data: RiemannJumpData, omega0: float = OMEGA0[QUARTIC]) -> FrontTrajectory:
    """Closed-form trajectory through phi(0) = 0, e(0) = e0.

    ``omega0`` defaults to the quartic kernel's; a front for any other
    kernel must pass ``kernel.omega0``.  Only p depends on it: code that
    needs only the rates reads :func:`front_speed` and :func:`e_rate`.
    """
    return FrontTrajectory(front_speed(data), e_rate(data), data.e0, float(omega0))


class Admissibility(NamedTuple):
    """Overcompressivity verdict with the three signed slack quantities."""

    admissible: bool
    margins: tuple[float, float, float]
    # The margins' names: a class attribute, not a field.
    labels = ("u1 - 2k", "sigma1/u1 + (u1/2 - k)", "(u1/2 - k) - sigma1/u1")

    def violated(self) -> list[str]:
        """"label = margin" for each margin not > 0.  A margin that is not
        finite names its degenerate jump instead: nan is u1 = 0, where
        sigma1/u1 is undefined, and +-inf a margin out of float range."""
        return list(dict.fromkeys(
            f"{lab} = {m:.6g}" if math.isfinite(m)
            else "sigma1/u1 is undefined at u1 = 0" if math.isnan(m)
            else f"{lab} is out of float range"
            for lab, m in zip(self.labels, self.margins) if not m > 0.0))


def overcompressivity(data: RiemannJumpData) -> Admissibility:
    """Check that all characteristics on both sides run into the front.

    For k > 0 this is u1 > 2k together with |sigma1/u1| < u1/2 - k; the
    k = 0 conditions are the same formulas with k set to zero.  All
    inequalities are strict, so boundary data is inadmissible.
    """
    m1, m2, m3 = overcompressivity_margins(data.u1, data.sigma1, data.k)
    ok = (m1 > 0.0) and (m2 > 0.0) and (m3 > 0.0)
    return Admissibility(bool(ok), (m1, m2, m3))


def overcompressivity_margins(u1: float, sigma1: float,
                              k: float) -> tuple[float, float, float]:
    """The three signed slacks of :func:`overcompressivity`, in its labels' order.

    The last two are nan at u1 = 0, where sigma1/u1 is undefined.
    """
    ratio = sigma1 / u1 if u1 != 0.0 else math.nan
    half_window = 0.5 * u1 - k
    return u1 - 2.0 * k, ratio + half_window, half_window - ratio


# The shock case's product u0 dh + u1 h dh as one row of (row, product)
# pairs: its table's layout.
_VOLPERT_LAYOUT = ((0, ("dh",)), (0, ("h", "dh")))


def volpert_product_pairing(data: RiemannJumpData, kernel) -> float:
    """Point-mass coefficient of u * dsigma/dx in the shock case.

    Only defined when the point mass is absent for all time (e0 = 0 and
    zero amplitude rate), so p vanishes too.  In the frame xi = x - phi(t)
    the product is then -sigma1 (u0 dh + u1 h dh), both of eps power 0:
    its coefficient, the table's limit of the product's column weights,
    realizes the averaged product -sigma1 (u0 + u1/2).
    """
    rate = e_rate(data)
    scale = max(abs(data.sigma1**2 / data.u1), abs(data.k**2 * data.u1), 1.0)
    if abs(data.e0) > 1e-12 or abs(rate) > 1e-12 * scale:
        raise NotApplicableError(
            "the averaged-product identity is only claimed for pure shocks "
            f"(e0 = {data.e0}, e rate = {rate})")
    from .kernels import primitive_table

    table = primitive_table(kernel, _VOLPERT_LAYOUT)
    weights = table.weights((data.u0, data.u1), data.plateau())
    return float(-data.sigma1 * table.limits(weights, ["u dsigma/dx"])[0][0])


def trajectory_columns(front: FrontTrajectory, t_grid) -> list[list[float]]:
    """Columns (t, phi, e, Re p, Im p) of the solved front on ``t_grid``, for
    table export, on Python floats: bit for bit what :meth:`FrontTrajectory.phi`,
    ``e`` and ``p`` give.  p^2 = q = 2 e/omega0, so p is sqrt(q) where q > 0,
    i sqrt(-q) where q < 0 and 0 at q = +-0, the principal root's signs."""
    t = [float(v) for v in t_grid]
    phi = [front.phi_dot * v for v in t]
    e = [front.e0 + front.e_rate * v for v in t]
    q = [2.0 * v / front.omega0 for v in e]
    return [t, phi, e, [math.sqrt(v) if v > 0.0 else 0.0 for v in q],
            [math.sqrt(-v) if v < 0.0 else 0.0 for v in q]]
