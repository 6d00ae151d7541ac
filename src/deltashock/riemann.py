"""Classical Riemann solver for the strictly hyperbolic system (k > 0).

The wave curves in the (u, sigma) plane are straight lines of slope +-k
through the left state; shocks take the branch u < u_left, rarefactions
the branch u > u_left.  The intermediate state is the intersection of
the 1-family line through the left state with the 2-family line through
the right state.  Data inside the overcompressive window is flagged as
the singular-front regime and handled by :mod:`deltashock.dynamics`;
data admitting neither construction yields a no-solution-constructed
outcome, as does every jump outside the window at k = 0, where no
bounded-variation solution carries a stress jump.

One decision on Python floats answers each jump: the window test, then
the construction of the intermediate state and both waves, and its
ordering test.  ``solve`` runs it once per jump, and ``regime_sweep`` at
every point of a (u1, sigma1) grid per k, returning nested lists of
regime codes, indices into ``REGIMES``: every code names the per-point
``solve`` answer.  ``eval_riemann`` tabulates a classical solution's
values and regions in one pass.  No numpy enters: the values are floats
and lists, and a state, an intermediate state, a wave speed or a
tabulated value out of float range raises instead of turning inf or
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
# The regimes that the codes of :func:`regime_sweep` index.
REGIMES = (CLASSICAL, DELTA_REGIME, NO_SOLUTION)
_CLASSICAL_CODE, _DELTA_CODE, _NO_SOLUTION_CODE = range(len(REGIMES))

# Waves with velocity strength below this are treated as absent, keeping
# the classification stable under perturbations at rounding level.
ZERO_STRENGTH_TOL = 1e-11
# The ends of the float range, bound once for the range checks made per point.
_NEG_INF, _INF = -math.inf, math.inf


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


def _wave(back: float, ahead: float, c: float, absent: float) -> tuple[int, float, float]:
    """Kind code (into ``_KINDS``), slowest and fastest speed of the wave
    from velocity ``back`` to ``ahead`` whose characteristics run at u + c.
    A speed is a mean or a sum of finite values, which may still round past
    the float range: OverflowError names the wave then."""
    if abs(ahead - back) <= ZERO_STRENGTH_TOL:
        return 0, absent, absent
    if ahead > back:
        slowest, fastest = back + c, ahead + c
        if _NEG_INF < slowest <= fastest < _INF:
            return 1, slowest, fastest
        what = "rarefaction fan"
    else:
        shock = 0.5 * (back + ahead) + c
        if _NEG_INF < shock < _INF:
            return 2, shock, shock
        what = "shock speed"
    raise OverflowError(f"wave {1 if absent < 0.0 else 2} {what}")


def _construct(left_u: float, left_sigma: float, right_u: float, right_sigma: float,
               k: float):
    """The classical construction of the jump from left to right at k > 0:
    u*, sigma* and both waves as :func:`_wave` gives them.

    OverflowError names the intermediate state, or a wave's speed or fan,
    where it leaves the float range (a tiny or huge k).  Callers branch at
    k = 0, where the wave curves coincide: the construction divides by 2k.
    """
    u_star = 0.5 * (left_u + right_u) + (right_sigma - left_sigma) / (2.0 * k)
    sigma_star = left_sigma + k * (u_star - left_u)
    # sigma* is finite only where u* is: k > 0 carries inf and nan over.
    if not math.isfinite(sigma_star):
        raise OverflowError("intermediate state (u*, sigma*)")
    return (u_star, sigma_star, _wave(left_u, u_star, -k, _NEG_INF),
            _wave(u_star, right_u, k, _INF))


def _decide(left_u: float, left_sigma: float, right_u: float, right_sigma: float,
            k: float):
    """The regime code of the jump from finite left to right states at
    k >= 0, and its classical construction where one is built, else None.

    Data in the overcompressive window is the singular-front regime; at
    k = 0 no other data has a solution; otherwise the construction is
    classical where wave 1 ends before wave 2 starts (within 1e-12).  The
    construction's OverflowError passes through.
    """
    m1, m2, m3 = overcompressivity_margins(left_u - right_u, left_sigma - right_sigma, k)
    if m1 > 0.0 and m2 > 0.0 and m3 > 0.0:
        return _DELTA_CODE, None
    if k == 0.0:
        return _NO_SOLUTION_CODE, None
    built = _construct(left_u, left_sigma, right_u, right_sigma, k)
    ordered = built[2][2] <= built[3][1] + 1e-12
    return (_CLASSICAL_CODE if ordered else _NO_SOLUTION_CODE), built


def solve(left: State, right: State, k: float) -> RiemannSolution:
    """Full regime dispatch: singular front, classical, or neither, with
    the classical construction wherever k > 0 and the data lie outside the
    window.  ValueError for k < 0 or a state that is not finite;
    OverflowError names an intermediate state or a wave speed out of float
    range."""
    if k < 0.0:
        raise ValueError("k must be nonnegative")
    if not all(map(math.isfinite, (*left, *right))):
        raise ValueError(f"states must be finite, got left={left}, right={right}")
    try:
        code, built = _decide(float(left.u), float(left.sigma), float(right.u),
                              float(right.sigma), float(k))
    except OverflowError as exc:
        raise OverflowError(f"{exc} is out of float range for left={left}, right={right}, "
                            f"k={k!r}") from None
    if built is None:
        return RiemannSolution(left, right, float(k), REGIMES[code])
    u_star, sigma_star, *waves = built
    w1, w2 = (Wave(family, _KINDS[kind], slowest, fastest)
              for family, (kind, slowest, fastest) in zip((1, 2), waves))
    return RiemannSolution(left, right, float(k), REGIMES[code], u_star, sigma_star, w1, w2)


def eval_riemann(solution: RiemannSolution, xs, t: float = 1.0):
    """Self-similar profile of a classical solution at the points xs and
    time t: lists of u, sigma and region names, one entry per point.

    Inside a family-1 fan u = xi + k and sigma follows the 1-family line;
    inside a family-2 fan u = xi - k and sigma follows the 2-family line.
    Regions may overlap within the 1e-12 ordering tolerance: right beats
    left, a fan beats both, and fan 2 beats fan 1, so a region always names
    the closed form of its values.  OverflowError names a value out of
    float range, as in a fan at a huge k.
    """
    if solution.regime != CLASSICAL:
        raise NotApplicableError(
            f"pointwise evaluation needs a classical solution, got {solution.regime}")
    if not t > 0.0:
        raise ValueError("self-similar evaluation needs t > 0")
    t = float(t)
    left, right, k = solution.left, solution.right, solution.k
    u_star, sigma_star = solution.u_star, solution.sigma_star
    left_u, left_sigma = float(left.u), float(left.sigma)
    right_u, right_sigma = float(right.u), float(right.sigma)
    w1, w2 = solution.wave1, solution.wave2
    fan1, fan2 = w1.kind == "rarefaction", w2.kind == "rarefaction"
    us, sigmas, regions = [], [], []
    for x in xs:
        xi = float(x) / t
        if fan2 and w2.slowest <= xi <= w2.fastest:
            region, u = "fan-2", xi - k
            sigma = sigma_star - k * (u - u_star)
        elif fan1 and w1.slowest <= xi <= w1.fastest:
            region, u = "fan-1", xi + k
            sigma = left_sigma + k * (u - left_u)
        elif xi > w2.fastest:
            region, u, sigma = "right", right_u, right_sigma
        elif xi < w1.slowest:
            region, u, sigma = "left", left_u, left_sigma
        else:
            region, u, sigma = "middle", u_star, sigma_star
        for name, value in (("u", u), ("sigma", sigma)):
            if not math.isfinite(value):
                raise OverflowError(
                    f"{name} in the {region} region at xi={xi!r} is out of "
                    f"float range for left={left}, right={right}, k={k!r}")
        us.append(u)
        sigmas.append(sigma)
        regions.append(region)
    return us, sigmas, regions


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
    point runs :func:`solve`'s one decision.  Raises ValueError for a k
    that is negative or not finite, for non-finite grid values or
    background state, for a left state u0 + u1 or sigma0 + sigma1 out of
    float range, and for a jump whose intermediate state or wave speed
    leaves the float range (a tiny or huge k), each of which :func:`solve`
    rejects: the grid is rejected, not coded.
    """
    ks = [check_sweep_k(k) for k in k_values]
    u1s = [float(u1) for u1 in u1_values]
    s1s = [float(s1) for s1 in sigma1_values]
    u0, sigma0 = float(u0), float(sigma0)
    if not all(map(math.isfinite, [*u1s, *s1s, u0, sigma0])):
        raise ValueError("sweep grid and background state must be finite")
    left_us = [u0 + u1 for u1 in u1s]
    left_sigmas = [sigma0 + s1 for s1 in s1s]
    for name, background, jumps, lefts in (("u", u0, u1s, left_us),
                                           ("sigma", sigma0, s1s, left_sigmas)):
        for jump, left in zip(jumps, lefts):
            if not math.isfinite(left):
                raise ValueError(f"the left state {name}0 + {name}1 = {background!r} + "
                                 f"{jump!r} is out of float range")
    codes = []
    try:
        for k in ks:
            plane = []
            for u1, left_u in zip(u1s, left_us):
                row = []
                for s1, left_sigma in zip(s1s, left_sigmas):
                    row.append(_decide(left_u, left_sigma, u0, sigma0, k)[0])
                plane.append(row)
            codes.append(plane)
    except OverflowError as exc:
        raise ValueError(f"at k={k!r} the {exc} of the jump u1={u1!r}, sigma1={s1!r} is out "
                         "of float range") from None
    return codes
