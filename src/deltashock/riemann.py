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

One construction on Python floats gives the intermediate state and both
waves of a jump, and one window test its delta-window flag: ``solve``
runs them once per jump, and ``regime_sweep`` at every point of a
(u1, sigma1) grid per k, returning nested lists of regime codes, indices
into ``REGIMES``: every code names the per-point answer.  At k = 0 only
the singular-front test applies.  No numpy enters: the values are floats
and lists, and an intermediate state, a wave speed ``solve`` reports or
a tabulated value out of float range raises instead of turning inf or
nan.  ``k_limit_gap`` compares the singular solutions at k and at 0 by
their point masses, on Python floats too.
"""

import math
from typing import NamedTuple

from .dynamics import (
    AdmissibilityError,
    NotApplicableError,
    RiemannJumpData,
    e_rate,
    front_speed,
    overcompressivity,
    overcompressivity_margins,
)

__all__ = [
    "CLASSICAL",
    "DELTA_REGIME",
    "NO_SOLUTION",
    "REGIMES",
    "State",
    "Wave",
    "RiemannSolution",
    "solve",
    "eval_riemann",
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


def _in_window(u1: float, sigma1: float, k: float) -> bool:
    """Whether the jump (u1, sigma1) lies in the overcompressive window at k."""
    m1, m2, m3 = overcompressivity_margins(u1, sigma1, k)
    return m1 > 0.0 and m2 > 0.0 and m3 > 0.0


def _wave(back: float, ahead: float, c: float, absent: float) -> tuple[int, float, float]:
    """Kind code (into ``_KINDS``), slowest and fastest speed of the wave
    from velocity ``back`` to ``ahead`` whose characteristics run at u + c."""
    if abs(ahead - back) <= ZERO_STRENGTH_TOL:
        return 0, absent, absent
    if ahead > back:
        return 1, back + c, ahead + c
    shock = 0.5 * (back + ahead) + c
    return 2, shock, shock


def _construct(left_u: float, left_sigma: float, right_u: float, right_sigma: float,
               k: float):
    """The classical construction of the jump from left to right at k > 0.

    Returns u*, sigma*, both waves as :func:`_wave` gives them, and whether
    wave 1 ends before wave 2 starts (within 1e-12); or None where the
    intermediate state leaves the float range (a tiny or huge k), which
    callers reject.  Callers branch at k = 0, where the wave curves
    coincide: the construction divides by 2k.
    """
    u_star = 0.5 * (left_u + right_u) + (right_sigma - left_sigma) / (2.0 * k)
    sigma_star = left_sigma + k * (u_star - left_u)
    # sigma* is finite only where u* is: k > 0 carries inf and nan over.
    if not math.isfinite(sigma_star):
        return None
    wave1 = _wave(left_u, u_star, -k, -math.inf)
    wave2 = _wave(u_star, right_u, k, math.inf)
    return u_star, sigma_star, wave1, wave2, wave1[2] <= wave2[1] + 1e-12


def _classical(left: State, right: State, k: float) -> RiemannSolution:
    """The classical solution of one jump, whatever its window flag."""
    if k <= 0.0:
        raise ValueError("classical wave curves need k > 0")
    built = _construct(float(left.u), float(left.sigma), float(right.u), float(right.sigma),
                       float(k))
    if built is None:
        raise OverflowError(f"intermediate state (u*, sigma*) is out of float range "
                            f"for left={left}, right={right}, k={k!r}")
    u_star, sigma_star, wave1, wave2, ordered = built
    w1, w2 = (Wave(family, _KINDS[kind], slowest, fastest)
              for family, (kind, slowest, fastest) in ((1, wave1), (2, wave2)))
    # A wave speed is a mean or a sum of finite values, which may still round
    # past the float range; the sweep's ordering test reads it as it is.
    for w in (w1, w2):
        if w.kind != "none" and not (math.isfinite(w.slowest) and math.isfinite(w.fastest)):
            what = "shock speed" if w.kind == "shock" else "rarefaction fan"
            raise OverflowError(f"wave {w.family} {what} is out of float range "
                                f"for left={left}, right={right}, k={k!r}")
    return RiemannSolution(left, right, float(k), CLASSICAL if ordered else NO_SOLUTION,
                           u_star, sigma_star, w1, w2)


def solve(left: State, right: State, k: float) -> RiemannSolution:
    """Full regime dispatch: singular front, classical, or neither;
    ValueError for k < 0."""
    if k < 0.0:
        raise ValueError("k must be nonnegative")
    if _in_window(float(left.u) - float(right.u), float(left.sigma) - float(right.sigma),
                  float(k)):
        return RiemannSolution(left, right, float(k), DELTA_REGIME)
    return _classical(left, right, k)


_REGION_NAMES = ("left", "fan-1", "middle", "fan-2", "right")
_LEFT, _FAN1, _MIDDLE, _FAN2, _RIGHT = range(len(_REGION_NAMES))


def _regions(solution: RiemannSolution, x, t: float) -> tuple[list[float], list[int]]:
    """xi = x/t and its region codes, as lists: one entry for a number x.
    Regions may overlap within the 1e-12 ordering tolerance: right beats
    left, a fan beats both, and fan 2 beats fan 1."""
    if solution.regime != CLASSICAL:
        raise NotApplicableError(
            f"pointwise evaluation needs a classical solution, got {solution.regime}")
    if not t > 0.0:
        raise ValueError("self-similar evaluation needs t > 0")
    t = float(t)
    xis = [float(v) / t for v in x] if hasattr(x, "__iter__") else [float(x) / t]
    w1, w2 = solution.wave1, solution.wave2
    fan1, fan2 = w1.kind == "rarefaction", w2.kind == "rarefaction"
    codes = [_FAN2 if fan2 and w2.slowest <= xi <= w2.fastest
             else _FAN1 if fan1 and w1.slowest <= xi <= w1.fastest
             else _RIGHT if xi > w2.fastest
             else _LEFT if xi < w1.slowest
             else _MIDDLE for xi in xis]
    return xis, codes


def eval_riemann(solution: RiemannSolution, x, t: float):
    """Self-similar evaluation (u, sigma) of a classical solution: floats for
    a number x, lists for a sequence.

    Inside a family-1 fan u = xi + k and sigma follows the 1-family line;
    inside a family-2 fan u = xi - k and sigma follows the 2-family line.
    OverflowError names a value out of float range, as in a fan at a huge k.
    """
    xis, codes = _regions(solution, x, t)
    left, right, k = solution.left, solution.right, solution.k
    u_star, sigma_star = solution.u_star, solution.sigma_star
    left_u, left_sigma = float(left.u), float(left.sigma)
    states = ((left_u, left_sigma), None, (u_star, sigma_star), None,
              (float(right.u), float(right.sigma)))
    us, sigmas = [], []
    for xi, code in zip(xis, codes):
        if code == _FAN1:
            u = xi + k
            sigma = left_sigma + k * (u - left_u)
        elif code == _FAN2:
            u = xi - k
            sigma = sigma_star - k * (u - u_star)
        else:
            u, sigma = states[code]
        for name, value in (("u", u), ("sigma", sigma)):
            if not math.isfinite(value):
                raise OverflowError(
                    f"{name} in the {_REGION_NAMES[code]} region at xi={xi!r} is out of "
                    f"float range for left={left}, right={right}, k={k!r}")
        us.append(u)
        sigmas.append(sigma)
    if hasattr(x, "__iter__"):
        return us, sigmas
    return us[0], sigmas[0]


def region_labels(solution: RiemannSolution, x, t: float = 1.0) -> list[str]:
    """Region of each point x at time t whose values :func:`eval_riemann` gives."""
    return [_REGION_NAMES[c] for c in _regions(solution, x, t)[1]]


def _require_admissible(data: RiemannJumpData) -> None:
    adm = overcompressivity(data)
    if not adm.admissible:
        raise AdmissibilityError(
            f"data inadmissible at k={data.k:g}: violated margin(s) "
            + "; ".join(adm.violated()))


def k_limit_gap(data: RiemannJumpData, k: float, t: float,
                component: str = "sigma") -> float:
    """Pairing gap between the singular solutions at parameter k and at 0,
    against the plain bump centred on the front at time t.

    Only the point mass depends on k, so the velocity gap is exactly 0 and
    the stress gap is (e_k - e_0)(t) psi(phi(t)) = -k^2 u1 t psi(phi(t)),
    formed from the two amplitude rates times t: e0 cancels exactly.  The
    bump psi(x) = exp(1 - 1/(1 - (x - phi(t))^2)) is exactly 1.0 at its
    centre, at every front position, so the gap is the rate gap times t.
    It is exactly 0 where k^2 u1 is below the rounding of the amplitude
    rate.  No kernel and no numpy enter: the gap reads the data's front
    speed and amplitude rates.  OverflowError names a front position out of
    float range, where there is no bump to pair against.
    """
    if not k > 0.0:
        raise ValueError("k must be positive")
    # Built by the constructor, which checks k; ``_replace`` would not.
    data_k = RiemannJumpData(*data[:-1], float(k))
    data_0 = RiemannJumpData(*data[:-1], 0.0)
    _require_admissible(data_k)
    _require_admissible(data_0)
    # The front is checked first, as the front command checks it; it does
    # not depend on k.
    speed = front_speed(data_k)
    data_k.finite(f"front position phi(t) = front speed * t at t={t:g}", lambda: speed * t)
    rate_gap = e_rate(data_k) - e_rate(data_0)
    if component == "sigma":
        return rate_gap * t
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
                 u0: float = 0.0, sigma0: float = 0.0) -> list[list[list[int]]]:
    """Regime codes over a grid of jumps, for phase diagrams.

    Entry ``[i][j][l]`` of the nested lists, of lengths len(k_values),
    len(u1_values) and len(sigma1_values), indexes :data:`REGIMES` with
    ``solve(State(u0 + u1, sigma0 + sigma1), State(u0, sigma0), k).regime``
    for the jump (u1_values[j], sigma1_values[l]) at k = k_values[i]: each
    point runs :func:`solve`'s window test and construction.  At k = 0
    only the delta test applies, as the classical solver refuses k = 0.
    Raises ValueError for a k that is negative or not finite, for
    non-finite grid values or background state, and for a jump outside the
    delta regime whose intermediate state leaves the float range, which
    :func:`solve` rejects (a tiny k): the grid is rejected, not coded.  A
    wave speed that rounds past the float range, which :func:`solve` also
    rejects, is coded as the ordering test reads it.
    """
    ks = [check_sweep_k(k) for k in k_values]
    u1s = [float(u1) for u1 in u1_values]
    s1s = [float(s1) for s1 in sigma1_values]
    u0, sigma0 = float(u0), float(sigma0)
    if not all(map(math.isfinite, [*u1s, *s1s, u0, sigma0])):
        raise ValueError("sweep grid and background state must be finite")
    left_sigmas = [sigma0 + s1 for s1 in s1s]
    codes = []
    for k in ks:
        plane = []
        for u1 in u1s:
            left_u = u0 + u1
            jump_u = left_u - u0
            row = []
            for s1, left_sigma in zip(s1s, left_sigmas):
                if _in_window(jump_u, left_sigma - sigma0, k):
                    row.append(_DELTA_CODE)
                    continue
                if k == 0.0:
                    row.append(_NO_SOLUTION_CODE)
                    continue
                built = _construct(left_u, left_sigma, u0, sigma0, k)
                if built is None:
                    raise ValueError(f"at k={k!r} the intermediate state (u*, sigma*) of "
                                     f"the jump u1={u1!r}, sigma1={s1!r} is out of "
                                     f"float range")
                row.append(_CLASSICAL_CODE if built[4] else _NO_SOLUTION_CODE)
            plane.append(row)
        codes.append(plane)
    return codes
