"""Classical Riemann solver for the strictly hyperbolic system (k > 0).

The wave curves in the (u, sigma) plane are straight lines of slope +-k
through the left state; shocks take the branch u < u_left, rarefactions
the branch u > u_left.  The intermediate state is the intersection of
the 1-family line through the left state with the 2-family line through
the right state.  Data inside the overcompressive window is flagged as
the singular-front regime and handled by :mod:`deltashock.dynamics`;
data admitting neither construction yields a no-solution-constructed
outcome.  The solver refuses k = 0, where no bounded-variation solution
carries a stress jump.

``solve`` answers one problem at a time.  ``regime_sweep`` classifies a
whole (u1, sigma1) grid per k in one numpy broadcast pass that repeats
``solve``'s float expressions in the same order, and returns the grid of
regime codes, indices into ``REGIMES``: every code names the per-point
answer.  At k = 0 only the singular-front test applies.  ``k_limit_gap``
compares the singular solutions at k and at 0 by their point masses.
"""

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .ansatz import RiemannJumpData
from .dynamics import (
    AdmissibilityError,
    NotApplicableError,
    overcompressivity,
    overcompressivity_margins,
    solve_front,
)

if TYPE_CHECKING:
    from .pairing import TestFunction

__all__ = [
    "CLASSICAL",
    "DELTA_REGIME",
    "NO_SOLUTION",
    "REGIMES",
    "State",
    "Wave",
    "RiemannSolution",
    "intermediate_state",
    "classify_waves",
    "solve",
    "eval_riemann",
    "delta_regime_test",
    "k_limit_gap",
    "check_sweep_k",
    "regime_sweep",
]

CLASSICAL = "classical"
DELTA_REGIME = "delta-shock-regime"
NO_SOLUTION = "no-solution-constructed"

# Waves with velocity strength below this are treated as absent, keeping
# the classification stable under perturbations at rounding level.
ZERO_STRENGTH_TOL = 1e-11


class State(NamedTuple):
    u: float
    sigma: float


class Wave(NamedTuple):
    """One wave of the self-similar pattern.

    Shocks carry a speed; rarefactions carry the fan interval
    (head, tail) in the similarity variable xi = x/t.
    """

    family: int
    kind: str  # "shock" | "rarefaction" | "none"
    speed: float | None = None
    fan: tuple[float, float] | None = None

    @property
    def fastest(self) -> float:
        if self.kind == "shock":
            return self.speed
        if self.kind == "rarefaction":
            return self.fan[1]
        return -math.inf if self.family == 1 else math.inf

    @property
    def slowest(self) -> float:
        if self.kind == "shock":
            return self.speed
        if self.kind == "rarefaction":
            return self.fan[0]
        return -math.inf if self.family == 1 else math.inf


class RiemannSolution(NamedTuple):
    left: State
    right: State
    k: float
    regime: str
    u_star: float | None = None
    sigma_star: float | None = None
    wave1: Wave | None = None
    wave2: Wave | None = None


def intermediate_state(left: State, right: State, k: float) -> tuple[float, float]:
    """Intersection of the two straight wave curves.

    As k -> 0 with a stress jump the intersection escapes to infinity,
    which is why the degenerate system has no classical solution.  Where
    it leaves the float range, as for a tiny k, OverflowError names it.
    """
    if k <= 0.0:
        raise ValueError("classical wave curves need k > 0")
    u_star = 0.5 * (left.u + right.u) + (right.sigma - left.sigma) / (2.0 * k)
    sigma_star = left.sigma + k * (u_star - left.u)
    if not (math.isfinite(u_star) and math.isfinite(sigma_star)):
        raise OverflowError(f"intermediate state (u*, sigma*) is out of float range "
                            f"for left={left}, right={right}, k={k!r}")
    return u_star, sigma_star


def _wave1(left: State, u_star: float, k: float) -> Wave:
    if abs(u_star - left.u) <= ZERO_STRENGTH_TOL:
        return Wave(1, "none")
    if u_star > left.u:
        return Wave(1, "rarefaction", fan=(left.u - k, u_star - k))
    return Wave(1, "shock", speed=0.5 * (left.u + u_star) - k)


def _wave2(right: State, u_star: float, k: float) -> Wave:
    if abs(right.u - u_star) <= ZERO_STRENGTH_TOL:
        return Wave(2, "none")
    if right.u > u_star:
        return Wave(2, "rarefaction", fan=(u_star + k, right.u + k))
    return Wave(2, "shock", speed=0.5 * (u_star + right.u) + k)


def classify_waves(left: State, right: State, k: float) -> RiemannSolution:
    """Classical two-wave construction with its ordering check."""
    u_star, sigma_star = intermediate_state(left, right, k)
    w1 = _wave1(left, u_star, k)
    w2 = _wave2(right, u_star, k)
    ordered = w1.fastest <= w2.slowest + 1e-12
    regime = CLASSICAL if ordered else NO_SOLUTION
    return RiemannSolution(left, right, float(k), regime,
                           u_star, sigma_star, w1, w2)


def delta_regime_test(left: State, right: State, k: float) -> bool:
    """True iff the data falls in the overcompressive singular-front window."""
    u1 = left.u - right.u
    if u1 == 0.0:
        return False
    data = RiemannJumpData(right.u, u1, right.sigma, left.sigma - right.sigma,
                           0.0, k)
    return overcompressivity(data).admissible


def solve(left: State, right: State, k: float) -> RiemannSolution:
    """Full regime dispatch: singular front, classical, or neither."""
    if delta_regime_test(left, right, k):
        return RiemannSolution(left, right, float(k), DELTA_REGIME)
    return classify_waves(left, right, k)


_REGION_NAMES = ("left", "fan-1", "middle", "fan-2", "right")
_LEFT, _FAN1, _MIDDLE, _FAN2, _RIGHT = range(len(_REGION_NAMES))


def _regions(solution: RiemannSolution, x, t: float):
    """xi = x/t and its region codes, of x's shape.  Regions may overlap
    within the 1e-12 ordering tolerance: right beats left, a fan beats
    both, and fan 2 beats fan 1."""
    if solution.regime != CLASSICAL:
        raise NotApplicableError(
            f"pointwise evaluation needs a classical solution, got {solution.regime}")
    if not t > 0.0:
        raise ValueError("self-similar evaluation needs t > 0")
    xi = np.asarray(x, dtype=float) / float(t)
    w1, w2 = solution.wave1, solution.wave2
    codes = np.full(xi.shape, _MIDDLE, dtype=np.int8)
    codes[xi < w1.slowest] = _LEFT
    codes[xi > w2.fastest] = _RIGHT
    if w1.kind == "rarefaction":
        codes[(xi >= w1.slowest) & (xi <= w1.fastest)] = _FAN1
    if w2.kind == "rarefaction":
        codes[(xi >= w2.slowest) & (xi <= w2.fastest)] = _FAN2
    return xi, codes


def eval_riemann(solution: RiemannSolution, x, t: float):
    """Self-similar evaluation (u, sigma) of a classical solution, of x's shape.

    Inside a family-1 fan u = xi + k and sigma follows the 1-family line;
    inside a family-2 fan u = xi - k and sigma follows the 2-family line.
    """
    xi, codes = _regions(solution, x, t)
    left, right, k = solution.left, solution.right, solution.k
    # Constant states by region code (``...`` keeps 0-d an array); fans below.
    u = np.array([left.u, 0.0, solution.u_star, 0.0, right.u])[codes, ...]
    sigma = np.array([left.sigma, 0.0, solution.sigma_star, 0.0, right.sigma])[codes, ...]
    fan1, fan2 = codes == _FAN1, codes == _FAN2
    u[fan1] = xi[fan1] + k
    sigma[fan1] = left.sigma + k * (u[fan1] - left.u)
    u[fan2] = xi[fan2] - k
    sigma[fan2] = solution.sigma_star - k * (u[fan2] - solution.u_star)
    return u, sigma


def region_labels(solution: RiemannSolution, x, t: float = 1.0) -> list[str]:
    """Region of each point x at time t whose values :func:`eval_riemann` gives."""
    return [_REGION_NAMES[c] for c in np.atleast_1d(_regions(solution, x, t)[1])]


def _require_admissible(data: RiemannJumpData) -> None:
    adm = overcompressivity(data)
    if not adm.admissible:
        raise AdmissibilityError(
            f"data inadmissible at k={data.k:g}: violated margin(s) "
            + "; ".join(adm.violated()))


def k_limit_gap(data: RiemannJumpData, k: float, t: float,
                phi_test: "TestFunction", component: str = "sigma") -> float:
    """Pairing gap between the singular solutions at parameter k and at 0.

    Only the point mass depends on k, so the velocity gap is exactly 0 and
    the stress gap is (e_k - e_0)(t) phi_test(phi(t)) = -k^2 u1 t
    phi_test(phi(t)): the solved amplitudes, subtracted before weighing.
    """
    if not k > 0.0:
        raise ValueError("k must be positive")
    # Built by the constructor, which checks k; ``_replace`` would not.
    data_k = RiemannJumpData(*data[:-1], float(k))
    data_0 = RiemannJumpData(*data[:-1], 0.0)
    _require_admissible(data_k)
    _require_admissible(data_0)
    front_k, front_0 = solve_front(data_k), solve_front(data_0)
    if component == "sigma":
        e_gap = float(front_k.e(t)) - float(front_0.e(t))
        return e_gap * float(phi_test.value(float(front_k.phi(t))))
    if component == "u":
        return 0.0
    raise ValueError(f"unknown component {component!r}")


# The regimes that the codes of :func:`regime_sweep` index.
REGIMES = (CLASSICAL, DELTA_REGIME, NO_SOLUTION)
_CLASSICAL_CODE, _DELTA_CODE, _NO_SOLUTION_CODE = range(len(REGIMES))


def check_sweep_k(k) -> float:
    """A sweep's k as a float; ValueError unless it is finite and >= 0."""
    k = float(k)
    if not (math.isfinite(k) and k >= 0.0):
        raise ValueError(f"sweep k must be finite and nonnegative, got {k!r}")
    return k


def _regime_codes(u1, s1, k: float, u0: float, sigma0: float) -> np.ndarray:
    """Regime code of every (u1, sigma1) pair at one k, as an int8 grid.

    One broadcast pass with the float expressions of :func:`solve`
    (delta test first, then the two-wave ordering), so each code names
    ``solve(State(u0 + u1, sigma0 + s1), State(u0, sigma0), k).regime``.
    At k = 0 only the delta test runs, as the classical solver refuses
    k = 0.  Where ``solve`` raises, as the intermediate state leaves the
    float range, ValueError names the jump.
    """
    left_u = (u0 + u1)[:, None]
    left_sigma = (sigma0 + s1)[None, :]
    du = left_u - u0
    ds = left_sigma - sigma0
    # Python floats overflow to inf silently (tiny k, tiny u1); so does this.
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = np.divide(ds, du, out=np.full((u1.size, s1.size), math.nan),
                          where=du != 0.0)
        m1, m2, m3 = overcompressivity_margins(du, ratio, k)
        codes = np.full(ratio.shape, _NO_SOLUTION_CODE, dtype=np.int8)
        if k > 0.0:
            u_star = 0.5 * (left_u + u0) + (sigma0 - left_sigma) / (2.0 * k)
            sigma_star = left_sigma + k * (u_star - left_u)
            fastest1 = np.where(np.abs(u_star - left_u) <= ZERO_STRENGTH_TOL, -math.inf,
                                np.where(u_star > left_u, u_star - k,
                                         0.5 * (left_u + u_star) - k))
            slowest2 = np.where(np.abs(u0 - u_star) <= ZERO_STRENGTH_TOL, math.inf,
                                np.where(u0 > u_star, u_star + k,
                                         0.5 * (u_star + u0) + k))
            codes[fastest1 <= slowest2 + 1e-12] = _CLASSICAL_CODE
    delta = (m1 > 0.0) & (m2 > 0.0) & (m3 > 0.0)
    codes[delta] = _DELTA_CODE
    if k > 0.0:
        lost = np.argwhere(~delta & ~np.isfinite(sigma_star))
        if lost.size:
            i, j = lost[0]
            raise ValueError(f"at k={k!r} the intermediate state (u*, sigma*) of the jump "
                             f"u1={float(u1[i])!r}, sigma1={float(s1[j])!r} is out of "
                             f"float range")
    return codes


def regime_sweep(u1_values, sigma1_values, k_values,
                 u0: float = 0.0, sigma0: float = 0.0) -> np.ndarray:
    """Regime codes over a grid of jumps, for phase diagrams.

    Entry ``[i, j, l]`` of the int8 result, of shape (len(k_values),
    len(u1_values), len(sigma1_values)), indexes :data:`REGIMES` with the
    regime of the jump (u1_values[j], sigma1_values[l]) at k_values[i].
    Each k is one array pass over the grid (see :func:`_regime_codes`).
    Raises ValueError for a k that is negative or not finite, for
    non-finite grid values or background state, and for a jump outside the
    delta regime whose intermediate state leaves the float range, which
    :func:`solve` rejects (a tiny k): the grid is rejected, not coded.
    """
    ks = [check_sweep_k(k) for k in k_values]
    u1 = np.asarray(u1_values, dtype=float)
    s1 = np.asarray(sigma1_values, dtype=float)
    u0, sigma0 = float(u0), float(sigma0)
    if not (np.all(np.isfinite(u1)) and np.all(np.isfinite(s1))
            and math.isfinite(u0) and math.isfinite(sigma0)):
        raise ValueError("sweep grid and background state must be finite")
    codes = np.empty((len(ks), u1.size, s1.size), dtype=np.int8)
    for i, k in enumerate(ks):
        codes[i] = _regime_codes(u1, s1, k, u0, sigma0)
    return codes
