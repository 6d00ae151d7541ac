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

One broadcast construction gives the delta-window flag, the
intermediate state and both waves for any array of jumps: ``solve``
runs it at one point, and ``regime_sweep`` on a whole (u1, sigma1) grid
per k, returning the grid of regime codes, indices into ``REGIMES``:
every code names the per-point answer.  At k = 0 only the
singular-front test applies.  ``k_limit_gap`` compares the singular
solutions at k and at 0 by their point masses.
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
    """One wave of the self-similar pattern, spanning [slowest, fastest] in
    xi = x/t: a shock's one speed, or a rarefaction's fan (head, tail).  An
    absent wave sits at -inf (family 1) or +inf (family 2).
    """

    family: int
    kind: str  # "shock" | "rarefaction" | "none"
    slowest: float
    fastest: float

    @property
    def speed(self) -> float | None:
        return self.slowest if self.kind == "shock" else None

    @property
    def fan(self) -> tuple[float, float] | None:
        return (self.slowest, self.fastest) if self.kind == "rarefaction" else None


class RiemannSolution(NamedTuple):
    left: State
    right: State
    k: float
    regime: str
    u_star: float | None = None
    sigma_star: float | None = None
    wave1: Wave | None = None
    wave2: Wave | None = None


_KINDS = ("none", "rarefaction", "shock")


def _wave(back, ahead, c, absent):
    """Kind code (into ``_KINDS``), slowest and fastest speed of the wave
    from velocity ``back`` to ``ahead`` whose characteristics run at u + c."""
    none, fan = np.abs(ahead - back) <= ZERO_STRENGTH_TOL, ahead > back
    shock = 0.5 * (back + ahead) + c
    return (np.where(none, 0, np.where(fan, 1, 2)),
            np.where(none, absent, np.where(fan, back + c, shock)),
            np.where(none, absent, np.where(fan, ahead + c, shock)))


def _construct(left_u, left_sigma, right_u, right_sigma, k: float):
    """The Riemann construction of every jump from left to right, broadcast.

    Returns the overcompressive-window flag, u*, sigma*, both waves as
    :func:`_wave` gives them, and whether wave 1 ends before wave 2 starts
    (within 1e-12).  Overflow and division by zero (u1 = 0, a tiny or zero
    k) give inf or nan quietly, as Python floats do; callers reject a
    non-finite intermediate state.
    """
    with np.errstate(all="ignore"):
        left_u, left_sigma, right_u, right_sigma = map(
            np.float64, (left_u, left_sigma, right_u, right_sigma))
        u1, sigma1 = left_u - right_u, left_sigma - right_sigma
        m1, m2, m3 = overcompressivity_margins(u1, np.where(u1 != 0.0, sigma1 / u1, math.nan), k)
        u_star = 0.5 * (left_u + right_u) + (right_sigma - left_sigma) / (2.0 * k)
        sigma_star = left_sigma + k * (u_star - left_u)
        wave1 = _wave(left_u, u_star, -k, -math.inf)
        wave2 = _wave(u_star, right_u, k, math.inf)
        ordered = wave1[2] <= wave2[1] + 1e-12
    return (m1 > 0.0) & (m2 > 0.0) & (m3 > 0.0), u_star, sigma_star, wave1, wave2, ordered


def _at_point(left: State, right: State, k: float):
    """:func:`_construct` at one jump; ValueError for k < 0."""
    if k < 0.0:
        raise ValueError("k must be nonnegative")
    return _construct(*left, *right, k)


def _classical(left: State, right: State, k: float, built) -> RiemannSolution:
    """The classical solution of one jump from its construction."""
    if k <= 0.0:
        raise ValueError("classical wave curves need k > 0")
    _, u_star, sigma_star, wave1, wave2, ordered = built
    if not (math.isfinite(u_star) and math.isfinite(sigma_star)):
        raise OverflowError(f"intermediate state (u*, sigma*) is out of float range "
                            f"for left={left}, right={right}, k={k!r}")
    w1, w2 = (Wave(family, _KINDS[kind], float(slowest), float(fastest))
              for family, (kind, slowest, fastest) in ((1, wave1), (2, wave2)))
    return RiemannSolution(left, right, float(k), CLASSICAL if ordered else NO_SOLUTION,
                           float(u_star), float(sigma_star), w1, w2)


def classify_waves(left: State, right: State, k: float) -> RiemannSolution:
    """Classical two-wave construction with its ordering check.

    As k -> 0 with a stress jump the intermediate state escapes to
    infinity, which is why the degenerate system has no classical
    solution.  Where it leaves the float range, as for a tiny k,
    OverflowError names it.
    """
    return _classical(left, right, k, _construct(*left, *right, k))


def delta_regime_test(left: State, right: State, k: float) -> bool:
    """True iff the data falls in the overcompressive singular-front window."""
    return bool(_at_point(left, right, k)[0])


def solve(left: State, right: State, k: float) -> RiemannSolution:
    """Full regime dispatch: singular front, classical, or neither."""
    built = _at_point(left, right, k)
    if built[0]:
        return RiemannSolution(left, right, float(k), DELTA_REGIME)
    return _classical(left, right, k, built)


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
    phi_test(phi(t)), formed from the two solved amplitude rates times t:
    e0 cancels exactly.  The gap is exactly 0 where k^2 u1 is below the
    rounding of the amplitude rate.
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
        return ((front_k.e_rate - front_0.e_rate) * t
                * float(phi_test.value(float(front_k.phi(t)))))
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


def regime_sweep(u1_values, sigma1_values, k_values,
                 u0: float = 0.0, sigma0: float = 0.0) -> np.ndarray:
    """Regime codes over a grid of jumps, for phase diagrams.

    Entry ``[i, j, l]`` of the int8 result, of shape (len(k_values),
    len(u1_values), len(sigma1_values)), indexes :data:`REGIMES` with
    ``solve(State(u0 + u1, sigma0 + sigma1), State(u0, sigma0), k).regime``
    for the jump (u1_values[j], sigma1_values[l]) at k = k_values[i].
    Each k is one pass of :func:`solve`'s construction over the grid.  At
    k = 0 only the delta test applies, as the classical solver refuses
    k = 0.  Raises ValueError for a k that is negative or not finite, for
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
    left_u, left_sigma = (u0 + u1)[:, None], (sigma0 + s1)[None, :]
    codes = np.empty((len(ks), u1.size, s1.size), dtype=np.int8)
    for i, k in enumerate(ks):
        delta, _, sigma_star, _, _, ordered = _construct(left_u, left_sigma, u0, sigma0, k)
        classical = k > 0.0
        lost = np.argwhere(classical & ~delta & ~np.isfinite(sigma_star))
        if lost.size:
            j, m = lost[0]
            raise ValueError(f"at k={k!r} the intermediate state (u*, sigma*) of the jump "
                             f"u1={float(u1[j])!r}, sigma1={float(s1[m])!r} is out of "
                             f"float range")
        codes[i] = np.where(delta, _DELTA_CODE,
                            np.where(classical & ordered, _CLASSICAL_CODE, _NO_SOLUTION_CODE))
    return codes
