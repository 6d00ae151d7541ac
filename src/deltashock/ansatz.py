"""Jump initial data, the front trajectory protocol, and the smooth eps-family.

The singular solution carries a bounded jump in the velocity u and a
bounded jump plus a traveling point mass e(t) * delta(x - phi(t)) in the
stress sigma.  The smooth ansatz regularizes both fields with a shared
plateau step profile, adds the sqrt(eps)-scaled correction p(t) * R to
the velocity, and replaces the point mass by the regularized delta.  The
velocity is complex-valued throughout so that trajectories with negative
delta amplitude (imaginary p) need no special casing; the stress stays
real.
"""

import math
from typing import NamedTuple, Protocol

import numpy as np

from .kernels import (
    BAND_EDGES,
    MollifierKernel,
    StepProfile,
    eval_correction,
    eval_correction_dx,
    eval_delta_reg,
    eval_delta_reg_dx,
    make_kernel,
    plateau_constant,
)

__all__ = [
    "DegenerateDataError",
    "Front",
    "RiemannJumpData",
    "SmoothAnsatz",
]


class DegenerateDataError(ValueError):
    """Jump data on which the front dynamics is undefined (u1 = 0)."""


class Front(Protocol):
    """A front trajectory: position phi, point-mass amplitude e, correction p.

    ``phi_dot`` and ``e_rate`` are the constant rates of phi and e.  Each
    method takes a time or an array of times and returns numpy values of
    its shape, complex for p and p_dot.
    """

    phi_dot: float
    e_rate: float

    def phi(self, t): ...

    def e(self, t): ...

    def p(self, t): ...

    def p_dot(self, t): ...


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
    rejects k < 0; ``_replace`` and ``_make`` bypass that check, so the
    package builds data by calling the class.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.k < 0.0:
            raise ValueError("k must be nonnegative")
        return self

    @property
    def left_state(self) -> tuple[float, float]:
        return (self.u0 + self.u1, self.sigma0 + self.sigma1)

    @property
    def right_state(self) -> tuple[float, float]:
        return (self.u0, self.sigma0)

    def plateau(self) -> float:
        if self.u1 == 0.0:
            raise DegenerateDataError("plateau level undefined for u1 = 0")
        return self.finite("plateau level 1/2 - sigma1/u1^2",
                           lambda: plateau_constant(self.u1, self.sigma1))

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


class _AnsatzFields(NamedTuple):
    data: RiemannJumpData
    front: Front
    kernel: MollifierKernel | None = None
    c: float | None = None


class SmoothAnsatz(_AnsatzFields):
    """Smooth eps-family regularizing the singular front solution.

    The velocity and stress share one step profile; the plateau level
    defaults to the value pinned by the jump data and can be overridden
    to study the cancellation mechanism it provides.  The kernel defaults
    to the quartic one.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        return self if self.kernel is not None else self._replace(kernel=make_kernel())

    @property
    def c_effective(self) -> float:
        return self.data.plateau() if self.c is None else self.c

    def step(self, eps: float) -> StepProfile:
        return StepProfile(self.c_effective, eps, self.kernel)

    def eval_fields(self, x, t: float, eps: float):
        """Pointwise (u, sigma) at fixed time, of x's shape; u is complex."""
        d = self.data
        prof = self.step(eps)
        phi = float(self.front.phi(t))
        e = float(self.front.e(t))
        p = complex(self.front.p(t))
        x = np.asarray(x, dtype=float)
        step_val = prof.value(phi - x)
        u = d.u0 + d.u1 * step_val + p * eval_correction(x - phi, eps, self.kernel)
        sigma = (d.sigma0 + d.sigma1 * step_val
                 + e * eval_delta_reg(x - phi, eps, self.kernel))
        return np.asarray(u), np.asarray(sigma)

    def eval_derivatives(self, x, t: float, eps: float):
        """Exact derivatives (du/dt, du/dx, dsigma/dt, dsigma/dx), of x's shape."""
        d = self.data
        prof = self.step(eps)
        phi_dot = self.front.phi_dot
        e_dot = self.front.e_rate
        phi = float(self.front.phi(t))
        e = float(self.front.e(t))
        p = complex(self.front.p(t))
        p_dot = complex(self.front.p_dot(t))
        x = np.asarray(x, dtype=float)
        h_prime = prof.deriv(phi - x)
        r_val = eval_correction(x - phi, eps, self.kernel)
        r_prime = eval_correction_dx(x - phi, eps, self.kernel)
        d_val = eval_delta_reg(x - phi, eps, self.kernel)
        d_prime = eval_delta_reg_dx(x - phi, eps, self.kernel)
        u_t = d.u1 * phi_dot * h_prime + p_dot * r_val - p * phi_dot * r_prime
        u_x = -d.u1 * h_prime + p * r_prime
        s_t = d.sigma1 * phi_dot * h_prime + e_dot * d_val - e * phi_dot * d_prime
        s_x = -d.sigma1 * h_prime + e * d_prime
        return tuple(np.asarray(v) for v in (u_t, u_x, s_t, s_x))

    def breakpoints(self, t: float, eps: float) -> tuple[float, ...]:
        """Edges of the regularization bands around the front."""
        phi = self.front.phi(t)
        return tuple(phi + s * eps for s in BAND_EDGES)

    def snapshot_rows(self, t: float, eps: float, x_grid) -> list[tuple[float, float, float, float]]:
        """Rows (x, Re u, Im u, sigma) on a grid, ready for CSV export."""
        xs = np.asarray(x_grid, dtype=float)
        u, sigma = self.eval_fields(xs, t, eps)
        return [(float(x), float(np.real(uu)), float(np.imag(uu)), float(ss))
                for x, uu, ss in zip(xs, u, sigma)]
