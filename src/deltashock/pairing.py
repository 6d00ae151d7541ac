"""Distributional pairing engine.

Pairs eps-families against compactly supported test functions,
estimates convergence orders, and verifies Lemma 3.1's point-mass /
dipole coefficients.  The quadrature is ``kernels.band_quadrature``,
split at every declared breakpoint, so every integrand handed to
:func:`pair` is smooth on each panel.  :func:`pair` and the extrapolated
limits of :func:`extract_point_coeffs` are the tests' independent oracle.
The Lemma 3.1 suite evaluates no profile: each family is a product of
:func:`kernels.primitive_table`, paired at every eps in one matmul, and
its limits are :meth:`kernels.PrimitiveTable.limits`, exact.

Pairings over (eps, test-function) grids are independent pure
computations; results are reduced in grid order, so evaluation is
deterministic no matter how callers parallelize.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .kernels import (
    NEGLIGIBLE_RTOL,
    ExtractionError,
    MollifierKernel,
    band_quadrature,
    check_eps_grid,
    default_eps_grid,
    exp_bump,
    exp_bump_dy,
    primitive_table,
    product_power,
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
    "LEMMA_PRODUCTS",
    "verify_lemma31",
]

PLAIN_BUMP = "plain-bump"
LINEAR_BUMP = "linear-times-bump"

ORDER_EXACT = math.inf

# Decay orders of extracted coefficients are fitted on the finest points.
_ORDER_TAIL = 5
# Halfwidth of the two test functions that probe a point expansion; the
# Lemma 3.1 suite widens it to 4 eps_max, its largest band, when that is more.
_PROBE_HALFWIDTH = 1.0


class NumericsError(ArithmeticError):
    """Raised when a quadrature sample or a residual pairing is non-finite."""


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


def pair(f: Piecewise, phi):
    """Integral of f * phi by composite Gauss-Legendre on split panels.

    Returns 0.0 exactly when the supports do not intersect.  The result is
    complex when the integrand produces complex samples.  ``phi`` may also
    be a sequence of test functions that clip f to one band, its support
    and theirs intersected; f is then sampled once and the result is an
    array with one pairing per test function.
    """
    phis = [phi] if isinstance(phi, TestFunction) else list(phi)
    bands = {(max(f.lo, p.support[0]), min(f.hi, p.support[1])) for p in phis}
    if len(bands) > 1:
        raise ValueError("test functions paired together must clip f to one band")
    ((lo, hi),) = bands
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
    eps = np.array(check_eps_grid(eps_grid))
    if len(eps) < 4:
        raise ValueError("need at least 4 grid points")
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


def _check_convergence(labels, values, limits) -> None:
    """Check that each series of ``values``, ``[series, eps]``, tends to its limit.

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


def _channel_reports(eps_grid, values, limits) -> list[PairingReport]:
    """A :class:`PairingReport` per series of ``values``, ``[series, eps]``,
    and of its limit in ``limits``, all orders fitted in one pass."""
    fit = estimate_order(eps_grid, values, limits)
    return [PairingReport(tuple(eps_grid), tuple(row), limit, order, residual)
            for row, limit, order, residual in zip(
                values.tolist(), limits.tolist(), fit.order.tolist(), fit.residual.tolist())]


def extract_point_coeffs(family: Callable[[float], Piecewise], x0: float,
                         eps_grid: Sequence[float]) -> tuple[PairingReport, PairingReport]:
    """A- and B-channel reports of a family paired with probes at x0.

    For a family tending to A*delta(x - x0) + B*delta'(x - x0) their limits
    are A and -B: <delta', phi> = -phi'(x0).  Raises
    :class:`ExtractionError` when a sequence does not converge.
    """
    probes = (TestFunction(x0, _PROBE_HALFWIDTH, PLAIN_BUMP),
              TestFunction(x0, _PROBE_HALFWIDTH, LINEAR_BUMP))
    vals = np.array([pair(family(eps), probes) for eps in eps_grid]).T
    limits = np.array([extrapolate_limit(eps_grid, row) for row in vals.tolist()])
    _check_convergence(("A-channel", "B-channel"), vals, limits)
    return tuple(_channel_reports(eps_grid, vals, limits))


# --- the regularization-product expansion suite ---------------------------

# Family classes determine the asymptotic decay floor asserted by the
# verification: products carrying a bare sqrt(eps)-scaled correction factor
# decay at least like eps^{1/2}; pure step/delta products at least like eps.
_R_CLASS = "correction"
_STEP_CLASS = "step-delta"

ORDER_FLOORS = {_R_CLASS: 0.49, _STEP_CLASS: 0.99}
# Largest accepted distance of a measured coefficient from its closed form.
COEFF_TOL = 1e-6


# The twelve products of Lemma 3.1 at x0 = 0, each a product of the
# primitive table's profiles (R -> r, dR -> dr, delta -> d, ddelta -> dd,
# H -> h, dH -> dh): name, profiles, expected (A, B) as numbers or names
# of ``verify_lemma31``'s constants, class, identically zero by supports.
_LEMMA_TABLE = (
    ("R", ("r",), (0.0, 0.0), _R_CLASS, False),
    ("dR", ("dr",), (0.0, 0.0), _R_CLASS, False),
    ("R2", ("r", "r"), ("omega0", 0.0), _R_CLASS, False),
    ("RdR", ("r", "dr"), (0.0, "omega0/2"), _R_CLASS, False),
    ("delta", ("d",), (1.0, 0.0), _STEP_CLASS, False),
    ("ddelta", ("dd",), (0.0, 1.0), _STEP_CLASS, False),
    ("Rdelta", ("r", "d"), (0.0, 0.0), _R_CLASS, True),
    ("Rddelta", ("r", "dd"), (0.0, 0.0), _R_CLASS, True),
    ("dH", ("dh",), (1.0, 0.0), _STEP_CLASS, False),
    ("HdH", ("h", "dh"), (0.5, 0.0), _STEP_CLASS, False),
    ("RdH", ("r", "dh"), (0.0, 0.0), _R_CLASS, True),
    ("Hddelta", ("h", "dd"), (0.0, "c"), _STEP_CLASS, False),
)

LEMMA_FAMILIES = tuple(row[0] for row in _LEMMA_TABLE)
LEMMA_PRODUCTS = tuple(row[1] for row in _LEMMA_TABLE)
# The lemma's H rises across x0, but the table's h is ``StepProfile.value(-xi)``:
# dH and H dH are the table's products reflected, y -> -y, which negates
# their pairing with the odd probe.  H ddelta is (h, dd), as h = c on dd's
# support, and R dH vanishes as (r, dh) does.
_REFLECTED = ("dH", "HdH")


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


def _lemma_pairings(kernel: MollifierKernel, c: float, eps_grid: Sequence[float]):
    """Each lemma family's pairings with a plain and a linear probe at x0 = 0,
    ``[family, channel, eps]``, their limits ``[family, channel]``, and each
    family's largest |entry| on the finest rung, 0.0 with no column.

    A family at eps pairs with a probe phi to eps^q, q its
    :func:`kernels.product_power`, times its table columns, weighted by
    c^j, summed against phi(eps y).  So one matmul of the probes at eps y
    on the finest rung pairs every family at every eps.  The probes'
    halfwidth, max(1, 4 eps_max) in x, holds every family's band.  Raises
    :class:`NumericsError` naming the family and c when c^2 overflows, or
    the family, channel and eps of the first pairing not finite; then the
    limits, the table's (A, -B), raise :class:`ExtractionError` if absent.
    """
    table = primitive_table(kernel, LEMMA_PRODUCTS)
    try:
        weights = table.weights([{product: 1.0} for product in LEMMA_PRODUCTS], float(c))
    except OverflowError:
        name = next(n for n, p in zip(LEMMA_FAMILIES, LEMMA_PRODUCTS) if (p, 2) in table.keys)
        raise NumericsError(f"non-finite lemma weight at family={name}: "
                            f"c^2 overflows at c={c:g}") from None
    eps = np.asarray(eps_grid, dtype=float)
    _, y, columns = table.rungs[-1]
    x = eps[:, None] * y
    halfwidth = max(_PROBE_HALFWIDTH, 4.0 * eps[0])
    probes = np.stack([TestFunction(0.0, halfwidth, modulation).value(x)
                       for modulation in (PLAIN_BUMP, LINEAR_BUMP)], axis=1)
    powers = np.array([product_power(p) for p in LEMMA_PRODUCTS])
    # A large c or a power of a huge or tiny eps may overflow; named below.
    with np.errstate(over="ignore", invalid="ignore"):
        family_columns = columns @ weights.T  # [node, family]
        values = (probes @ family_columns) * (eps[:, None] ** powers)[:, None]
        values = values.transpose(2, 1, 0)
    if not np.isfinite(values).all():
        family, channel, e = np.argwhere(~np.isfinite(values))[0]
        raise NumericsError(f"non-finite lemma pairing at family="
                            f"{LEMMA_FAMILIES[family]}, channel={'AB'[channel]}, "
                            f"eps={eps[e]:g}")
    # Near c = 1e154 the limits' cancellation scale overflows, not the limits.
    with np.errstate(over="ignore"):
        a, b = table.limits(weights, [f"lemma family {name}" for name in LEMMA_FAMILIES])
    limits = np.stack([a, -b], axis=-1)  # <delta', phi> = -phi'(0)
    for series in values, limits:
        series[[LEMMA_FAMILIES.index(name) for name in _REFLECTED], 1] *= -1.0
    return values, limits, np.max(np.abs(family_columns), axis=0)


def verify_lemma31(kernel: MollifierKernel, c: float,
                   eps_grid: Sequence[float] | None = None) -> list[ExpansionReport]:
    """Measure all twelve regularization-product expansions at x0 = 0.

    Each family is paired against a value-selecting and a slope-selecting
    test function (:func:`_lemma_pairings`), its coefficients are the
    table's exact limits, and the decay orders towards them, fitted for
    all 24 series in one pass, are compared against the family's floor.
    The three products whose factors' supports at most touch must have no
    column in the primitive table, which holds every product nonzero on
    some node.  An eps grid that is not positive, finite and strictly
    decreasing raises ValueError.  A family whose terms of negative eps
    power do not cancel raises :class:`ExtractionError` naming it.
    """
    eps_grid = check_eps_grid(eps_grid if eps_grid is not None else default_eps_grid())
    if len(eps_grid) < 4:
        raise ValueError("eps grid must span at least 4 points")
    if math.log2(eps_grid[0] / eps_grid[-1]) < 3.0:
        raise ValueError("eps grid should span at least 3 dyadic decades")
    values, limits, peaks = _lemma_pairings(kernel, c, eps_grid)
    channels = _channel_reports(eps_grid, values.reshape(-1, len(eps_grid)), limits.ravel())
    constants = {"omega0": kernel.omega0, "omega0/2": 0.5 * kernel.omega0, "c": c}
    reports = []
    for (name, _, expected, klass, disjoint), a_rep, b_rep, peak in zip(
            _LEMMA_TABLE, channels[::2], channels[1::2], peaks.tolist()):
        exp_a, exp_b = (constants.get(v, v) for v in expected)
        a, b = a_rep.extrapolated_limit, 0.0 - b_rep.extrapolated_limit  # B = 0 as +0.0
        floor = ORDER_FLOORS[klass]
        coeff_ok = abs(a - exp_a) <= COEFF_TOL and abs(b - exp_b) <= COEFF_TOL
        order_ok = a_rep.order >= floor and b_rep.order >= floor
        max_abs = peak if disjoint else 0.0
        reports.append(ExpansionReport(
            name, exp_a, exp_b, a, b, a_rep, b_rep, floor, disjoint, max_abs,
            bool(coeff_ok and order_ok and max_abs == 0.0)))
    return reports
