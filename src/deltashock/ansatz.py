"""The front trajectory protocol and the smooth eps-family.

The singular solution carries a bounded jump in the velocity u and a
bounded jump plus a traveling point mass e(t) * delta(x - phi(t)) in the
stress sigma.  The smooth ansatz regularizes both fields with a shared
plateau step profile, adds the sqrt(eps)-scaled correction p(t) * R to
the velocity, and replaces the point mass by the regularized delta.  The
velocity is complex-valued throughout so that trajectories with negative
delta amplitude (imaginary p) need no special casing; the stress stays
real.  The jump data are imported from :mod:`deltashock.dynamics`.
"""

from typing import NamedTuple, Protocol

import numpy as np

from .dynamics import RiemannJumpData
from .kernels import (
    BAND_EDGES,
    MollifierKernel,
    StepProfile,
    eval_correction,
    eval_correction_dx,
    eval_delta_reg,
    eval_delta_reg_dx,
)

__all__ = ["Front", "SmoothAnsatz"]


class Front(Protocol):
    """A front trajectory: position phi, point-mass amplitude e, correction p.

    ``phi_dot`` and ``e_rate`` are the constant rates of phi and e.  Each
    method takes a time or an array of times and returns numpy values of
    its shape, complex for p and p_dot; ``evaluate`` returns all four, as
    the four methods give them, from one evaluation of e and of p.
    """

    phi_dot: float
    e_rate: float

    def phi(self, t): ...

    def e(self, t): ...

    def p(self, t): ...

    def p_dot(self, t): ...

    def evaluate(self, t): ...


class SmoothAnsatz(NamedTuple):
    """Smooth eps-family regularizing the singular front solution.

    The velocity and stress share one step profile; the plateau level
    defaults to the value pinned by the jump data and can be overridden
    to study the cancellation mechanism it provides.  A front from
    :func:`dynamics.solve_front` solves this kernel's dynamics when built
    with ``kernel.omega0``.
    """

    data: RiemannJumpData
    front: Front
    kernel: MollifierKernel
    c: float | None = None

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
