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

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .kernels import (
    PROFILE_EPS_POWERS,
    MollifierKernel,
    StepProfile,
    band_quadrature,
    default_eps_grid,
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


class _TestFields(NamedTuple):
    center: float = 0.0
    halfwidth: float = 1.0
    modulation: str = PLAIN_BUMP


class TestFunction(_TestFields):
    """Smooth compactly supported test function with exact derivative.

    ``plain-bump`` is normalized to value 1 and slope 0 at the center;
    ``linear-times-bump`` has value 0 and slope 1 there.  Together the two
    isolate the point-mass and dipole coefficients of a local expansion.
    Construction rejects a halfwidth <= 0 and an unknown modulation;
    ``_replace`` and ``_make`` bypass that check.
    """

    __test__ = False  # not a pytest class, despite the name
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.halfwidth <= 0.0:
            raise ValueError("halfwidth must be positive")
        if self.modulation not in (PLAIN_BUMP, LINEAR_BUMP):
            raise ValueError(f"unknown modulation {self.modulation!r}")
        return self

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

    def band(self, phi: TestFunction) -> tuple[float, float]:
        """The interval ``pair`` integrates f * phi over: both supports clipped."""
        return (max(self.lo, phi.support[0]), min(self.hi, phi.support[1]))


def pair(f: Piecewise, phi):
    """Integral of f * phi by composite Gauss-Legendre on split panels.

    Returns 0.0 exactly when the supports do not intersect.  The result is
    complex when the integrand produces complex samples.  ``phi`` may also
    be a sequence of test functions that clip f to one band
    (:meth:`Piecewise.band`); f is then sampled once and the result is an
    array with one pairing per test function.
    """
    phis = [phi] if isinstance(phi, TestFunction) else list(phi)
    bands = {f.band(p) for p in phis}
    if len(bands) > 1:
        raise ValueError("test functions paired together must clip f to one band")
    ((lo, hi),) = bands
    totals = np.zeros(len(phis))
    if lo < hi:
        xs, ws = band_quadrature(lo, hi, f.breaks)
        fv = np.asarray(f.fn(xs))
        finite = np.isfinite(fv)
        if not np.all(finite):
            err = NumericsError(f"non-finite integrand sample near x={xs[~finite][:3]}")
            err.points = xs[~finite][:3]  # for a caller that names its own variable
            raise err
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


class OrderEstimate(NamedTuple):
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


def _errors(values, limit):
    """|values - limit| along the last axis, and each series' scale: the
    largest of 1, |limit| and its |values|."""
    limit = np.asarray(limit)
    scale = np.maximum(np.max(np.abs(values), axis=-1, initial=1.0), np.abs(limit))
    return np.abs(values - limit[..., None]), scale


def estimate_order(eps_grid: Sequence[float], values: Sequence, limit) -> OrderEstimate:
    """Order of |values - limit| over the five smallest eps values.

    ``values`` is one series or a stack ``[series, eps]`` with one limit
    per series.  A sequence equal to its limit to machine precision
    reports the +infinity sentinel.
    """
    eps = np.asarray(eps_grid, dtype=float)
    if len(eps) < 4:
        raise ValueError("need at least 4 grid points")
    if np.any(np.diff(eps) >= 0.0):
        raise ValueError("eps grid must be strictly decreasing")
    vals = np.asarray(values)
    if vals.shape[-1] != len(eps):
        raise ValueError("values and eps grid must have equal length")
    errs, scale = _errors(vals, limit)
    return fit_order(eps[-_ORDER_TAIL:], errs[..., -_ORDER_TAIL:], NEGLIGIBLE_RTOL * scale)


class PairingReport(NamedTuple):
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


def _check_convergence(labels, eps_grid, values, limits) -> OrderEstimate:
    """:func:`estimate_order` of a stack of series ``[series, eps]``.

    Sign-crossing sequences (mixed-order error terms) defeat a log-log fit,
    so non-convergence is judged by head-to-tail decay instead: the first
    series whose finest errors are not below half its coarsest raises
    :class:`ExtractionError` naming its label.
    """
    errs, scale = _errors(values, limits)
    head, tail = np.max(errs[:, :3], axis=-1), np.min(errs[:, -3:], axis=-1)
    stuck = np.flatnonzero((tail > 0.5 * head) & (tail > 1e-8 * scale))
    if stuck.size:
        i = stuck[0]
        raise ExtractionError(
            f"{labels[i]}: pairing sequence does not converge "
            f"(head error {head[i]:.3e}, tail error {tail[i]:.3e}, "
            f"values {values[i].tolist()})")
    return estimate_order(eps_grid, values, limits)


def _channel_reports(labels, eps_grid, values) -> list[PairingReport]:
    """A :class:`PairingReport` per series of ``values``, ``[series, eps]``,
    its limit extrapolated and all orders fitted in one pass."""
    rows = values.tolist()
    limits = [extrapolate_limit(eps_grid, row) for row in rows]
    fit = _check_convergence(labels, eps_grid, values, np.array(limits))
    return [PairingReport(tuple(eps_grid), tuple(row), limit, order, residual)
            for row, limit, order, residual
            in zip(rows, limits, fit.order.tolist(), fit.residual.tolist())]


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
    return tuple(_channel_reports(("A-channel", "B-channel"), eps_grid, vals.T))


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
# A factor at eps is eps^power times the factor at eps = 1 evaluated at x/eps,
# the power of its profile in ``kernels``.
_FACTOR_EPS_POWERS = {name: PROFILE_EPS_POWERS[profile] for name, profile in (
    ("R", "r"), ("dR", "dr"), ("delta", "d"), ("ddelta", "dd"), ("H", "h"), ("dH", "dh"))}


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


class ExpansionReport(NamedTuple):
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


def _pair_by_band(f: Piecewise, probes) -> np.ndarray:
    """``pair(f, probes)``, one call per band the probes clip f to."""
    bands = [f.band(p) for p in probes]
    out = np.empty(len(probes))
    for band in dict.fromkeys(bands):
        group = [i for i, b in enumerate(bands) if b == band]
        out[group] = pair(f, [probes[i] for i in group])
    return out


def _lemma_pairings(kernel: MollifierKernel, c: float, eps_grid: Sequence[float]):
    """Each lemma family's pairings with the probes of
    :func:`extract_point_coeffs` at x0 = 0, ``[family, channel, eps]``, and
    the largest |sample| of each family whose supports at most touch.

    A family at eps is eps^q g(x/eps), with g the family at eps = 1 and q
    its factors' eps powers summed, so its pairing with a probe phi is
    eps^(q + 1) times that of g with phi(eps y), itself a test function in
    y (the linear one over eps).  So each family is sampled once, in y, and
    paired with the probes of every eps together, in one :func:`pair` call
    per band they clip g to: one call unless an eps above 1/4 clips it.
    Raises :class:`NumericsError` naming the family of the first sample,
    in y, or the family, channel and eps of the first pairing not finite.
    """
    eps = np.array(eps_grid)
    probes = [TestFunction(0.0, _PROBE_HALFWIDTH / e, modulation)
              for e in eps_grid for modulation in (PLAIN_BUMP, LINEAR_BUMP)]
    values, peaks = [], []
    for name, factors, support, cuts, _, _, disjoint in _LEMMA_TABLE:
        g = _lemma_integrand(factors, support, cuts, kernel, c, 1.0)
        q = sum(_FACTOR_EPS_POWERS[n] for n in factors)
        # Exact scaling: every member vanishes where g does.
        peak = float(np.max(np.abs(g(np.linspace(g.lo, g.hi, 101))))) if disjoint else 0.0
        # A power of a huge or tiny eps may overflow; a pairing is named below.
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                sampled = _pair_by_band(g, probes)
            except NumericsError as exc:
                raise NumericsError(f"non-finite lemma sample at family={name} "
                                    f"near y={exc.points}") from None
            pairings = (sampled.reshape(-1, 2)
                        * eps[:, None] ** (q + np.array([1.0, 2.0]))).T
            peaks.append(peak and peak * float(np.max(eps**q)))
        if not np.isfinite(pairings).all():
            channel, e = np.argwhere(~np.isfinite(pairings))[0]
            raise NumericsError(f"non-finite lemma pairing at family={name}, "
                                f"channel={'AB'[channel]}, eps={eps_grid[e]:g}")
        values.append(pairings)
    return np.array(values), peaks


def verify_lemma31(kernel: MollifierKernel, c: float,
                   eps_grid: Sequence[float] | None = None) -> list[ExpansionReport]:
    """Measure all twelve regularization-product expansions at x0 = 0.

    Each family is paired against a value-selecting and a slope-selecting
    test function (:func:`_lemma_pairings`), the coefficients are
    extrapolated over the eps grid, and the measured decay orders, fitted
    for all 24 series in one pass, are compared against the family's
    floor.  The three products whose factors' supports at most touch are
    also sampled pointwise and must vanish identically.  A sequence that
    does not converge raises :class:`ExtractionError` naming its family and
    channel.
    """
    eps_grid = tuple(eps_grid) if eps_grid is not None else default_eps_grid()
    if len(eps_grid) < 4:
        raise ValueError("eps grid must span at least 4 points")
    if math.log2(eps_grid[0] / eps_grid[-1]) < 3.0:
        raise ValueError("eps grid should span at least 3 dyadic decades")
    values, peaks = _lemma_pairings(kernel, c, eps_grid)
    labels = [f"{name} {channel}-channel" for name in LEMMA_FAMILIES for channel in "AB"]
    channels = _channel_reports(labels, eps_grid, values.reshape(-1, len(eps_grid)))
    constants = {"omega0": kernel.omega0, "omega0/2": 0.5 * kernel.omega0, "c": c}
    reports = []
    for (name, _, _, _, expected, klass, disjoint), a_rep, b_rep, max_abs in zip(
            _LEMMA_TABLE, channels[::2], channels[1::2], peaks):
        exp_a, exp_b = (constants.get(v, v) for v in expected)
        a, b = a_rep.extrapolated_limit, -b_rep.extrapolated_limit
        floor = ORDER_FLOORS[klass]
        coeff_ok = abs(a - exp_a) <= COEFF_TOL and abs(b - exp_b) <= COEFF_TOL
        order_ok = a_rep.order >= floor and b_rep.order >= floor
        zero_ok = (not disjoint) or max_abs == 0.0
        reports.append(ExpansionReport(
            name, exp_a, exp_b, float(np.real(a)), float(np.real(b)),
            a_rep, b_rep, floor, disjoint, max_abs,
            bool(coeff_ok and order_ok and zero_ok)))
    return reports
