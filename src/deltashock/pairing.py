"""Distributional pairing engine.

Pairs eps-families of piecewise-smooth functions against compactly
supported test functions, extrapolates the eps -> 0 limit, estimates
convergence orders, and extracts point-mass / dipole coefficients.  The
quadrature is the package's one rule, ``kernels.band_quadrature``:
composite Gauss-Legendre with subintervals split at every declared
breakpoint, so every integrand handed to :func:`pair` is smooth on each
panel and the fixed-order rule is certifiable.

Pairings over (eps, test-function) grids are independent pure
computations; results are reduced in grid order, so evaluation is
deterministic no matter how callers parallelize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .kernels import (
    MollifierKernel,
    StepProfile,
    band_quadrature,
    eval_correction,
    eval_correction_dx,
    eval_delta_reg,
    eval_delta_reg_dx,
    exp_bump,
    exp_bump_dy,
)

__all__ = [
    "PLAIN_BUMP",
    "LINEAR_BUMP",
    "TestFunction",
    "Piecewise",
    "NumericsError",
    "ExtractionError",
    "pair",
    "extrapolate_limit",
    "fit_loglog_slope",
    "OrderEstimate",
    "fit_order",
    "estimate_order",
    "extract_point_coeffs",
    "PairingReport",
    "ExpansionReport",
    "LEMMA_FAMILIES",
    "verify_lemma31",
    "default_eps_grid",
]

PLAIN_BUMP = "plain-bump"
LINEAR_BUMP = "linear-times-bump"

ORDER_EXACT = math.inf

# Error floor (relative to the series scale) below which a sequence is
# treated as already converged, or a residual as negligible.
NEGLIGIBLE_RTOL = 1e-13
# Decay orders of extracted coefficients are fitted on the finest points.
_ORDER_TAIL = 5
# Halfwidth of the two test functions that probe a point expansion.
_PROBE_HALFWIDTH = 1.0


class NumericsError(ArithmeticError):
    """Raised when a quadrature sample or a residual pairing is non-finite."""


class ExtractionError(ArithmeticError):
    """Raised when a coefficient extraction does not converge."""


def default_eps_grid(pow_min: int = 3, pow_max: int = 12) -> tuple[float, ...]:
    """Dyadic grid 2^-pow_min .. 2^-pow_max, strictly decreasing."""
    if pow_max <= pow_min:
        raise ValueError("pow_max must exceed pow_min")
    return tuple(2.0 ** (-j) for j in range(pow_min, pow_max + 1))


@dataclass(frozen=True)
class TestFunction:
    """Smooth compactly supported test function with exact derivative.

    ``plain-bump`` is normalized to value 1 and slope 0 at the center;
    ``linear-times-bump`` has value 0 and slope 1 there.  Together the two
    isolate the point-mass and dipole coefficients of a local expansion.
    """

    __test__ = False  # not a pytest class, despite the name

    center: float = 0.0
    halfwidth: float = 1.0
    modulation: str = PLAIN_BUMP

    def __post_init__(self):
        if self.halfwidth <= 0.0:
            raise ValueError("halfwidth must be positive")
        if self.modulation not in (PLAIN_BUMP, LINEAR_BUMP):
            raise ValueError(f"unknown modulation {self.modulation!r}")

    @property
    def support(self) -> tuple[float, float]:
        return (self.center - self.halfwidth, self.center + self.halfwidth)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        y = (x - self.center) / self.halfwidth
        if self.modulation == PLAIN_BUMP:
            return exp_bump(y, lift=1.0)
        return (x - self.center) * exp_bump(y, lift=1.0)

    def deriv(self, x):
        x = np.asarray(x, dtype=float)
        y = (x - self.center) / self.halfwidth
        if self.modulation == PLAIN_BUMP:
            return exp_bump_dy(y, lift=1.0) / self.halfwidth
        return (exp_bump(y, lift=1.0)
                + (x - self.center) * exp_bump_dy(y, lift=1.0) / self.halfwidth)

    def __call__(self, x):
        return self.value(x)


@dataclass(frozen=True)
class Piecewise:
    """Integrand with known support bounds and interior breakpoints.

    ``fn`` must be vectorized over a float array of sample points and
    smooth on every subinterval delimited by ``breaks`` inside
    ``(lo, hi)``.  Infinite support bounds are allowed; the pairing clips
    to the test function's support.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    lo: float = -math.inf
    hi: float = math.inf
    breaks: tuple[float, ...] = ()

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))


def pair(f: Piecewise, phi):
    """Integral of f * phi by composite Gauss-Legendre on split panels.

    Returns 0.0 exactly when the supports do not intersect.  The result is
    complex when the integrand produces complex samples.  ``phi`` may also
    be a sequence of test functions with one support; f is then sampled
    once and the result is an array with one pairing per test function.
    """
    phis = [phi] if isinstance(phi, TestFunction) else list(phi)
    support = phis[0].support
    if any(p.support != support for p in phis):
        raise ValueError("test functions paired together must share one support")
    lo = max(f.lo, support[0])
    hi = min(f.hi, support[1])
    totals = np.zeros(len(phis))
    if lo < hi:
        xs, ws = band_quadrature(lo, hi, f.breaks)
        fv = np.asarray(f.fn(xs))
        finite = np.isfinite(fv)
        if not np.all(finite):
            raise NumericsError(f"non-finite integrand sample near x={xs[~finite][:3]}")
        weighted = ws * fv
        totals = np.array([np.sum(weighted * p.value(xs)) for p in phis])
    if not isinstance(phi, TestFunction):
        return totals
    return complex(totals[0]) if np.iscomplexobj(totals) else float(totals[0])


def _aitken_pass(vals):
    out = []
    for v0, v1, v2 in zip(vals, vals[1:], vals[2:]):
        d1 = v1 - v0
        d2 = v2 - v1
        denom = d2 - d1
        scale = max(abs(d1), abs(d2), abs(v2), 1e-300)
        if abs(denom) <= 1e-12 * scale:
            out.append(v2)
        else:
            out.append(v2 - d2 * d2 / denom)
    return out


def _aitken_limit(values: Sequence) -> complex | float:
    """Iterated Aitken extrapolation on the last six values of a sequence.

    Each pass removes the leading geometric error term without assuming
    its order; iterating handles the mixed eps^{1/2}, eps, ... expansions
    produced by the correction-term families.  Falls back to the last
    value when the sequence has already converged or is too short.
    """
    vals = list(values)[-6:]
    while len(vals) >= 3:
        vals = _aitken_pass(vals)
    return vals[-1]


def _geometric_ratio(eps_grid) -> float | None:
    eps = np.asarray(eps_grid, dtype=float)
    if len(eps) < 3:
        return None
    ratios = eps[1:] / eps[:-1]
    r = float(ratios[0])
    if np.all(np.abs(ratios - r) <= 1e-9 * r):
        return r
    return None


def _richardson_limit(values, ratio):
    """Richardson elimination of eps^{1/2}, eps, ..., eps^3 in turn."""
    vals = list(values)
    level = 0
    while len(vals) >= 2 and level < 6:
        level += 1
        f = ratio ** (0.5 * level)
        vals = [(v1 - f * v0) / (1.0 - f) for v0, v1 in zip(vals, vals[1:])]
    return vals[-1]


def extrapolate_limit(eps_grid, values) -> complex | float:
    """Best-available eps -> 0 limit of a pairing sequence.

    On a geometric grid the error expansions here run on the half-integer
    power ladder eps^{1/2}, eps, eps^{3/2}, ..., which sequential
    Richardson elimination resolves very accurately when the grid is long;
    on short grids, or when the true expansion is sparse in that ladder,
    iterated Aitken adapts better.  Both candidates are computed and the
    one that changes least when the finest grid point is dropped wins.
    """
    vals = list(values)
    scale = max((abs(v) for v in vals), default=0.0)
    if scale == 0.0:
        return vals[-1]
    ratio = _geometric_ratio(eps_grid)
    if ratio is None or len(vals) < 5:
        return _aitken_limit(vals)
    richardson_full = _richardson_limit(vals, ratio)
    richardson_drop = _richardson_limit(vals[:-1], ratio)
    aitken_full = _aitken_limit(vals)
    aitken_drop = _aitken_limit(vals[:-1])
    if abs(richardson_full - richardson_drop) <= abs(aitken_full - aitken_drop):
        return richardson_full
    return aitken_full


def fit_loglog_slope(xs: Sequence[float], ys, where=True):
    """Least-squares slope and fit residual of log ys against log xs.

    Along the last axis of ``ys``, one series or a stack ``[series,
    point]``, over the points where ``where`` holds: the slope is
    sum(dx dy) / sum(dx^2) over the logs' deviations from their means, nan
    below two points, and the residual sqrt(SSR / n), 0 below three.
    """
    keep = np.broadcast_to(where, np.shape(ys))
    n = np.count_nonzero(keep, axis=-1)
    logs = (np.log(np.asarray(xs, dtype=float)) * keep, np.log(np.where(keep, ys, 1.0)))
    dx, dy = ((d - d.sum(axis=-1, keepdims=True) / np.maximum(n, 1)[..., None]) * keep
              for d in logs)
    sxx = np.sum(dx * dx, axis=-1)
    slope = np.divide(np.sum(dx * dy, axis=-1), sxx, out=np.full_like(sxx, np.nan),
                      where=n >= 2)
    ssr = np.sum((dy - slope[..., None] * dx) ** 2, axis=-1)
    resid = np.sqrt(np.divide(ssr, n, out=np.zeros_like(ssr), where=n >= 3))
    return slope[()], resid[()]


@dataclass(frozen=True)
class OrderEstimate:
    """Decay order alpha (larger = faster) and log-log fit residual, per series."""

    order: float | np.ndarray
    residual: float | np.ndarray
    points_used: int | np.ndarray


def fit_order(eps: Sequence[float], errs, floor) -> OrderEstimate:
    """Log-log decay order of the errors above ``floor``, series by series.

    ``errs`` is one series or a stack ``[series, eps]`` with one floor per
    series; with fewer than two errors above its floor a series has
    converged, and its order is the +infinity sentinel.
    """
    errs = np.asarray(errs, dtype=float)
    keep = errs > np.asarray(floor, dtype=float)[..., None]
    used = np.count_nonzero(keep, axis=-1)
    slope, resid = fit_loglog_slope(eps, errs, keep)
    return OrderEstimate(np.where(used >= 2, slope, ORDER_EXACT)[()], resid, used[()])


def estimate_order(eps_grid: Sequence[float], values: Sequence, limit) -> OrderEstimate:
    """Order of |values - limit| over the five smallest eps values.

    A sequence equal to its limit to machine precision reports the
    +infinity sentinel.
    """
    eps = np.asarray(eps_grid, dtype=float)
    if len(eps) < 4:
        raise ValueError("need at least 4 grid points")
    if np.any(np.diff(eps) >= 0.0):
        raise ValueError("eps grid must be strictly decreasing")
    vals = np.asarray(values)
    if len(vals) != len(eps):
        raise ValueError("values and eps grid must have equal length")
    errs = np.abs(vals - limit)
    scale = max(float(np.max(np.abs(vals))), abs(limit), 1.0)
    return fit_order(eps[-_ORDER_TAIL:], errs[-_ORDER_TAIL:], NEGLIGIBLE_RTOL * scale)


@dataclass(frozen=True)
class PairingReport:
    """Measured pairings of one eps-family against one test function."""

    eps_grid: tuple[float, ...]
    values: tuple[float | complex, ...]
    extrapolated_limit: float | complex
    order: float
    fit_residual: float

    def abs_errors(self) -> tuple[float, ...]:
        return tuple(abs(v - self.extrapolated_limit) for v in self.values)

    def to_json_dict(self) -> dict:
        return {
            "epsilon": list(self.eps_grid),
            "value": list(self.values),
            "extrapolated_limit": self.extrapolated_limit,
            "order": self.order if math.isfinite(self.order) else "exact",
            "fit_residual": self.fit_residual,
        }


def _check_convergence(label, eps_grid, values, limit) -> OrderEstimate:
    errs = np.abs(np.asarray(values) - limit)
    scale = max(float(np.max(np.abs(values))), abs(limit), 1.0)
    if np.all(errs <= NEGLIGIBLE_RTOL * scale):
        return OrderEstimate(ORDER_EXACT, 0.0, 0)
    # Sign-crossing sequences (mixed-order error terms) defeat a log-log
    # fit, so non-convergence is judged by head-to-tail decay instead.
    head = float(np.max(errs[:3]))
    tail = float(np.min(errs[-3:]))
    if tail > 0.5 * head and tail > 1e-8 * scale:
        raise ExtractionError(
            f"{label}: pairing sequence does not converge "
            f"(head error {head:.3e}, tail error {tail:.3e}, "
            f"values {list(values)})")
    return estimate_order(eps_grid, values, limit)


def extract_point_coeffs(family: Callable[[float], Piecewise], x0: float,
                         eps_grid: Sequence[float]) -> tuple[PairingReport, PairingReport]:
    """A- and B-channel reports of a family paired with probes at x0.

    For a family tending to A*delta(x - x0) + B*delta'(x - x0) their limits
    are A and -B: <delta', phi> = -phi'(x0).  Raises
    :class:`ExtractionError` when a sequence does not converge.
    """
    probes = (TestFunction(x0, _PROBE_HALFWIDTH, PLAIN_BUMP),
              TestFunction(x0, _PROBE_HALFWIDTH, LINEAR_BUMP))
    vals = np.array([pair(family(eps), probes) for eps in eps_grid])
    reports = []
    for channel, values in zip("AB", vals.T.tolist()):
        limit = extrapolate_limit(eps_grid, values)
        fit = _check_convergence(f"{channel}-channel", eps_grid, values, limit)
        reports.append(PairingReport(tuple(eps_grid), tuple(values), limit,
                                     fit.order, fit.residual))
    return tuple(reports)


# --- the regularization-product expansion suite ---------------------------

# Family classes determine the asymptotic decay floor asserted by the
# verification: products carrying a bare sqrt(eps)-scaled correction factor
# decay at least like eps^{1/2}; pure step/delta products at least like eps.
_R_CLASS = "correction"
_STEP_CLASS = "step-delta"

ORDER_FLOORS = {_R_CLASS: 0.49, _STEP_CLASS: 0.99}
# Largest accepted distance of a measured coefficient from its closed form.
COEFF_TOL = 1e-6


# The twelve products of Lemma 3.1 at x0 = 0: name, factors, support and
# the edges of every factor's support inside it (both in units of eps),
# expected (A, B) as numbers or names of ``verify_lemma31``'s constants,
# class, identically zero by supports.
_LEMMA_TABLE = (
    ("R", ("R",), (1, 3), (), (0.0, 0.0), _R_CLASS, False),
    ("dR", ("dR",), (1, 3), (), (0.0, 0.0), _R_CLASS, False),
    ("R2", ("R", "R"), (1, 3), (), ("omega0", 0.0), _R_CLASS, False),
    ("RdR", ("R", "dR"), (1, 3), (), (0.0, "omega0/2"), _R_CLASS, False),
    ("delta", ("delta",), (-3, -1), (), (1.0, 0.0), _STEP_CLASS, False),
    ("ddelta", ("ddelta",), (-3, -1), (), (0.0, 1.0), _STEP_CLASS, False),
    ("Rdelta", ("R", "delta"), (-3, 3), (-1, 1), (0.0, 0.0), _R_CLASS, True),
    ("Rddelta", ("R", "ddelta"), (-3, 3), (-1, 1), (0.0, 0.0), _R_CLASS, True),
    ("dH", ("dH",), (-4, 4), (-3, 3), (1.0, 0.0), _STEP_CLASS, False),
    ("HdH", ("H", "dH"), (-4, 4), (-3, 3), (0.5, 0.0), _STEP_CLASS, False),
    ("RdH", ("R", "dH"), (1, 4), (3,), (0.0, 0.0), _R_CLASS, True),
    ("Hddelta", ("H", "ddelta"), (-3, -1), (), (0.0, "c"), _STEP_CLASS, False),
)

LEMMA_FAMILIES = tuple(row[0] for row in _LEMMA_TABLE)

_KERNEL_FACTORS = {"R": eval_correction, "dR": eval_correction_dx,
                   "delta": eval_delta_reg, "ddelta": eval_delta_reg_dx}


def _factor(name: str, x, step: StepProfile):
    """A lemma factor at x; ``step`` is the step H, rising across x0 = 0."""
    if name == "H":
        return step.value(x)
    if name == "dH":
        return step.deriv(x)
    return _KERNEL_FACTORS[name](x, step.eps, step.kernel)


def _lemma_integrand(factors, support, cuts, kernel: MollifierKernel, c: float,
                     eps: float) -> Piecewise:
    """The product of the named factors at eps on its support."""
    step = StepProfile(c, eps, kernel)
    return Piecewise(lambda x: math.prod(_factor(n, x, step) for n in factors),
                     support[0] * eps, support[1] * eps, tuple(b * eps for b in cuts))


@dataclass(frozen=True)
class ExpansionReport:
    """Verification record for one regularization-product family."""

    name: str
    expected_a: float
    expected_b: float
    measured_a: float
    measured_b: float
    a_report: PairingReport
    b_report: PairingReport
    order_floor: float
    support_disjoint: bool
    max_abs_sampled: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "expected": [self.expected_a, self.expected_b],
            "measured": [self.measured_a, self.measured_b],
            "order_floor": self.order_floor,
            "support_disjoint": self.support_disjoint,
            "max_abs_sampled": self.max_abs_sampled,
            "passed": self.passed,
            "A": {"label": f"{self.name}:A", **self.a_report.to_json_dict()},
            "B": {"label": f"{self.name}:B", **self.b_report.to_json_dict()},
        }


def verify_lemma31(kernel: MollifierKernel, c: float,
                   eps_grid: Sequence[float] | None = None) -> list[ExpansionReport]:
    """Measure all twelve regularization-product expansions at x0 = 0.

    Each family is paired against a value-selecting and a slope-selecting
    test function, the coefficients are extrapolated over the eps grid,
    and the measured decay orders are compared against the family's floor.
    The three products whose factors' supports at most touch are also
    sampled pointwise and must vanish identically.  A sequence that does not converge raises
    :class:`ExtractionError` naming its family and channel.
    """
    eps_grid = tuple(eps_grid) if eps_grid is not None else default_eps_grid()
    if len(eps_grid) < 4:
        raise ValueError("eps grid must span at least 4 points")
    if math.log2(eps_grid[0] / eps_grid[-1]) < 3.0:
        raise ValueError("eps grid should span at least 3 dyadic decades")
    constants = {"omega0": kernel.omega0, "omega0/2": 0.5 * kernel.omega0, "c": c}
    reports = []
    for name, factors, support, cuts, expected, klass, disjoint in _LEMMA_TABLE:
        family = partial(_lemma_integrand, factors, support, cuts, kernel, c)
        exp_a, exp_b = (constants.get(v, v) for v in expected)
        try:
            a_rep, b_rep = extract_point_coeffs(family, 0.0, eps_grid)
        except ExtractionError as exc:
            raise ExtractionError(f"{name} {exc}") from exc
        a, b = a_rep.extrapolated_limit, -b_rep.extrapolated_limit
        sampled = [family(eps) for eps in eps_grid] if disjoint else []
        max_abs = max((float(np.max(np.abs(f(np.linspace(f.lo, f.hi, 101)))))
                       for f in sampled), default=0.0)
        floor = ORDER_FLOORS[klass]
        coeff_ok = abs(a - exp_a) <= COEFF_TOL and abs(b - exp_b) <= COEFF_TOL
        order_ok = a_rep.order >= floor and b_rep.order >= floor
        zero_ok = (not disjoint) or max_abs == 0.0
        reports.append(ExpansionReport(
            name, exp_a, exp_b, float(np.real(a)), float(np.real(b)),
            a_rep, b_rep, floor, disjoint, max_abs,
            bool(coeff_ok and order_ok and zero_ok)))
    return reports
