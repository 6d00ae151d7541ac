"""Distributional pairing engine.

Pairs eps-families against compactly supported test functions,
estimates convergence orders, and verifies Lemma 3.1's point-mass /
dipole coefficients.

:func:`pair_table` is the one runtime pairing: weight rows on the columns
of a :func:`kernels.primitive_table` (the Lemma 3.1 families at one time,
or both residuals at every time of a verdict) against the plain and the
linear bump of :func:`default_test_suite`, the one rule that places test
functions: one support that holds every front band [phi - 4 eps, phi + 4
eps] with a margin of 1/2.  Each eps takes the table's coarsest rung whose
panels, measured in x, are no longer than one panel at eps = 2^-3: on the
quartic table 40 nodes at every eps of the default grid.  The test
function is evaluated at offsets (phi(t) - center) + eps y from its
centre, so a node next to the centre keeps the relative accuracy of eps y.
Consecutive eps on one rung fill one capped buffer in place, a block of
times at once; one stacked real matmul gives their moments, scaled by the
eps powers, and one real matmul per time contracts them with the weights.
Weights and pairings are real arrays in the layout they are computed in,
time first.
The suite's limits are :meth:`kernels.PrimitiveTable.limits`, exact.

:func:`pair`, on ``kernels.band_quadrature`` split at every declared
breakpoint, and the extrapolated limits of :func:`extract_point_coeffs`,
on the same rule's probes, are the tests' independent oracle.  Pairings
over (eps, test-function) grids are independent pure computations;
results are reduced in grid order, so evaluation is deterministic no
matter how callers parallelize.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import check_eps_grid, default_eps_grid
from .fit import OrderEstimate, fit_loglog_slope
from .kernels import (
    BAND_EDGES,
    NEGLIGIBLE_RTOL,
    ExtractionError,
    MollifierKernel,
    PrimitiveTable,
    band_quadrature,
    exp_bump,
    primitive_table,
)

__all__ = [
    "PLAIN_BUMP",
    "LINEAR_BUMP",
    "TestFunction",
    "default_test_suite",
    "Piecewise",
    "NumericsError",
    "pair",
    "extrapolate_limit",
    "estimate_order",
    "extract_point_coeffs",
    "PairingReport",
    "ExpansionReport",
    "LEMMA_FAMILIES",
    "LEMMA_PRODUCTS",
    "check_lemma_grid",
    "verify_lemma31",
]

PLAIN_BUMP = "plain-bump"
LINEAR_BUMP = "linear-times-bump"

# Decay orders of extracted coefficients are fitted on the finest points.
_ORDER_TAIL = 5


class NumericsError(ArithmeticError):
    """Raised when a quadrature sample or a residual pairing is non-finite."""


class _TestFields(NamedTuple):
    center: float = 0.0
    halfwidth: float = 1.0
    modulation: str = PLAIN_BUMP


class TestFunction(_TestFields):
    """Smooth compactly supported test function.

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


def default_test_suite(phi, eps_max: float) -> tuple[TestFunction, ...]:
    """Value- and slope-selecting bumps on one support that holds the front
    band [phi - 4 eps, phi + 4 eps] at every front position of the array
    ``phi`` and every eps up to ``eps_max``, with a margin of 1/2 beyond it.

    The package's one rule for placing test functions: :func:`pair_table`,
    and so the verdict and the Lemma 3.1 suite, and the oracle
    :func:`extract_point_coeffs` take their probes from it.  The halfwidth
    is at least 1, and is 1 at a single front for eps_max up to 1/8.
    """
    return _suite_over(float(phi.min()), float(phi.max()), eps_max)


def _suite_over(lo: float, hi: float, eps_max: float) -> tuple[TestFunction, ...]:
    """:func:`default_test_suite` of fronts from ``lo`` to ``hi``."""
    center = 0.5 * lo + 0.5 * hi
    halfwidth = max(1.0, 0.5 * hi - 0.5 * lo + 0.5 + BAND_EDGES[-1] * eps_max)
    return (TestFunction(center, halfwidth, PLAIN_BUMP),
            TestFunction(center, halfwidth, LINEAR_BUMP))


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


def _errors(values, limit):
    """|values - limit| along the last axis, and each series' scale: the
    largest of 1, |limit| and its |values|."""
    limit = np.asarray(limit)
    scale = np.maximum(np.max(np.abs(values), axis=-1, initial=1.0), np.abs(limit))
    return np.abs(values - limit[..., None]), scale


def estimate_order(eps_grid: Sequence[float], values, limits) -> OrderEstimate:
    """Order of each series of ``values``, a stack ``[series, eps]``, about
    its limit in ``limits``, over the five smallest eps: +inf for a series
    equal to its limit to machine precision."""
    eps = check_eps_grid(eps_grid)
    if len(eps) < 4:
        raise ValueError("need at least 4 grid points")
    vals = np.asarray(values)
    if vals.ndim != 2 or vals.shape[1] != len(eps):
        raise ValueError("values must be a stack [series, eps] as long as the eps grid")
    errs, scale = _errors(vals, limits)
    return fit_loglog_slope(eps[-_ORDER_TAIL:], errs[:, -_ORDER_TAIL:].tolist(),
                            (NEGLIGIBLE_RTOL * scale).tolist())


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
                values.tolist(), limits.tolist(), fit.order, fit.residual)]


def extract_point_coeffs(family: Callable[[float], Piecewise], x0: float,
                         eps_grid: Sequence[float]) -> tuple[PairingReport, PairingReport]:
    """A- and B-channel reports of a family paired with the probes of
    :func:`default_test_suite` at the one front x0 and the grid's largest eps.

    For a family tending to A*delta(x - x0) + B*delta'(x - x0) their limits
    are A and -B: <delta', phi> = -phi'(x0).  Raises
    :class:`ExtractionError` when a sequence does not converge.
    """
    probes = default_test_suite(np.full(1, float(x0)), max(eps_grid))
    vals = np.array([pair(family(eps), probes) for eps in eps_grid]).T
    limits = np.array([extrapolate_limit(eps_grid, row) for row in vals.tolist()])
    _check_convergence(("A-channel", "B-channel"), vals, limits)
    return tuple(_channel_reports(eps_grid, vals, limits))


# --- the table-pairing engine ----------------------------------------------

# A block holds an (eps x time rows x nodes) array of each modulation in one
# buffer per call, sized by this node budget on the finest rung (52 times of
# the quartic table's 640 nodes, 520 KiB; 33 of the exponential table's
# 1024, 528 KiB), so that buffer does not grow with the number of times.
# The moments, weights and pairings do: a verdict allocates about 3.0 KB
# per time on either kernel, 101 MB at 33,000 times (tracemalloc peak).  A
# rung of 1/n of those nodes pairs up to n consecutive eps at once, and a
# call at one time, as the Lemma 3.1 suite's, up to 52 or 33 eps per block.
_BLOCK_NODES = 33 * 1024
# The offsets (phi(t) - center) + eps y resolve the front band while one
# ulp of phi(t) stays below this fraction of the smallest eps: up to
# |phi| < 2^14 on the default grids, whose smallest eps is 2^-12.
_NODE_RESOLUTION = 1e-8


def _test_values(psi, halfwidth: float):
    """Both modulations of a test function of halfwidth h, in place.

    On entry ``psi[1]`` holds offsets z from the support's centre; on
    return ``psi[0]`` holds the plain bump ``exp_bump(z / h, lift=1)`` and
    ``psi[1]`` the linear-times-bump, z times that, bit for bit.
    """
    bump, z = psi
    np.divide(z, halfwidth, out=bump)
    np.square(bump, out=bump)
    np.subtract(1.0, bump, out=bump)
    # q = 1 - (z/h)^2 > 0 exactly inside the support; nan fails too.
    if bump.min() > 0.0:
        np.divide(1.0, bump, out=bump)
        np.subtract(1.0, bump, out=bump)
        np.exp(bump, out=bump)
    else:
        bump[...] = exp_bump(z / halfwidth, lift=1.0)
    z *= bump
    return psi


def pair_table(table: PrimitiveTable, weights, phi, eps_grid: Sequence[float],
               cell: Callable) -> tuple[tuple[TestFunction, ...], np.ndarray]:
    """Pairings of weighted table columns with a plain and a linear bump.

    ``weights`` is real ``[time, column, row]``, with the front at
    ``phi[time]``; the test functions are :func:`default_test_suite` of
    ``phi`` and the largest eps, whose support keeps every front band 1/2
    inside it, so every eps pairs on ``table.at(eps)``.  Returns that suite
    and the real pairings ``[time, test function, eps, row]``, summed as
    the module docstring says.  :class:`NumericsError` names the first cell
    not finite, in the order (eps, row, test function, time), as
    "non-finite " + ``cell(row, test function, eps, time)``, and is raised
    too when one ulp of max |phi| > 0 exceeds ``_NODE_RESOLUTION`` of the
    smallest eps.
    """
    lo, hi = float(phi.min()), float(phi.max())
    reach, eps_min = max(-lo, hi), min(eps_grid)
    # An infinite or nan front is named by the finiteness check below.
    if 0.0 < reach < math.inf and math.ulp(reach) > _NODE_RESOLUTION * eps_min:
        raise NumericsError(
            f"front position |phi(t)| = {reach:g} swamps eps = {eps_min:g}: one ulp "
            f"of phi(t) exceeds {_NODE_RESOLUTION:g} eps, so the quadrature nodes "
            f"phi(t) + eps y collapse")
    suite = _suite_over(lo, hi, max(eps_grid))
    halfwidth, offset = suite[0].halfwidth, phi - suite[0].center
    times, columns = len(offset), len(table.keys)
    eps = np.asarray(eps_grid, dtype=float)
    moments = np.empty((times, 2, len(eps), columns))  # [time, test fn, eps, column]
    nodes_max = len(table.rungs[-1].y)
    step = max(1, _BLOCK_NODES // nodes_max)
    height = min(step, times)
    # Fewer times than a block holds leave room for more eps of them.
    capacity = height * nodes_max * min(len(eps), step // height)
    buffer = np.empty(2 * capacity)
    # An overflow, as at a huge eps, is named by the finiteness check below.
    with np.errstate(over="ignore", invalid="ignore"):
        first = 0
        while first < len(eps):
            # Consecutive eps on one rung, as many as the buffer holds: a
            # falling eps never takes a finer rung, so search from the last.
            rung = table.at(eps_grid[first])
            last = min(len(eps), first + capacity // (height * len(rung.y)))
            while last - 1 > first and table.at(eps_grid[last - 1]) is not rung:
                last -= 1
            nodes = eps[first:last, None] * rung.y
            for start in range(0, times, step):
                block = slice(start, start + step)
                rows = offset[block, None]
                psi = buffer[:2 * rows.size * nodes.size].reshape(
                    2, len(nodes), rows.size, rung.y.size)
                np.add(rows, nodes[:, None], out=psi[1])
                _test_values(psi, halfwidth)
                # Stacked, not flattened: each (time rows, nodes) product keeps
                # its kernel and order of summation, one row vector-matrix.
                np.matmul(psi, rung.columns,
                          out=moments[block, :, first:last].transpose(1, 2, 0, 3))
            first = last
        # The eps powers scale the summed moments: scaling each node's column
        # rounds every term of a cancelling sum, 1.4e-15 of L1 at eps = 8.
        moments *= eps[:, None] ** table.powers
        # Per time, [(test function, eps), column] @ [column, row].
        pairings = np.matmul(moments.reshape(times, -1, columns), weights)
    pairings = pairings.reshape(times, 2, len(eps), -1)
    if not np.isfinite(pairings).all():
        e, i, f, t = np.argwhere(~np.isfinite(pairings.transpose(2, 3, 1, 0)))[0]
        raise NumericsError(f"non-finite {cell(i, f, e, t)}")
    return suite, pairings


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
# Each family a row of its product alone, of coefficient 1.
_LEMMA_LAYOUT = tuple(enumerate(LEMMA_PRODUCTS))
_LEMMA_COEFFICIENTS = (1.0,) * len(LEMMA_PRODUCTS)
# The lemma's H rises across x0, but the table's h is ``StepProfile.value(-xi)``:
# dH and H dH are the table's products reflected, y -> -y, which negates
# their pairing with the odd probe.  H ddelta is (h, dd), as h = c on dd's
# support, and R dH vanishes as (r, dh) does.
_REFLECTED = ("dH", "HdH")
# Below sqrt(2^-52) the eps^-1 families' rounding, scaled by 1/eps, outgrows
# their O(eps) decay, as in a finite difference, and their fits read noise.
_LEMMA_EPS_MIN = 2.0**-26


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

    A family weighs its product's (product, j) columns by c^j, and the suite
    is :func:`pair_table` of those rows at one time with phi = 0: its probes
    are :func:`default_test_suite` there, of halfwidth max(1, 1/2 + 4
    eps_max), which holds every family's band 1/2 inside.
    Raises :class:`NumericsError` naming the family and c when c^2
    overflows, or the family, channel and eps of the first pairing not
    finite; then the limits, the table's (A, -B), raise
    :class:`ExtractionError` if absent.
    """
    table = primitive_table(kernel, _LEMMA_LAYOUT)
    try:
        weights = table.weights(_LEMMA_COEFFICIENTS, float(c))
    except OverflowError:
        name = next(n for n, p in zip(LEMMA_FAMILIES, LEMMA_PRODUCTS) if (p, 2) in table.keys)
        raise NumericsError(f"non-finite lemma weight at family={name}: "
                            f"c^2 overflows at c={c:g}") from None
    _, values = pair_table(table, weights.T[None], np.zeros(1), eps_grid,
                           lambda i, f, e, t: f"lemma pairing at family={LEMMA_FAMILIES[i]}, "
                           f"channel={'AB'[f]}, eps={eps_grid[e]:g}")
    values = values[0].transpose(2, 0, 1)
    # Near c = 1e154 the limits' cancellation scale overflows, not the limits.
    with np.errstate(over="ignore"):
        a, b = table.limits(weights, [f"lemma family {name}" for name in LEMMA_FAMILIES])
        peaks = np.max(np.abs(table.rungs[-1].columns @ weights.T), axis=0)
    limits = np.stack([a, -b], axis=-1)  # <delta', phi> = -phi'(0)
    for series in values, limits:
        series[[LEMMA_FAMILIES.index(name) for name in _REFLECTED], 1] *= -1.0
    return values, limits, peaks


def check_lemma_grid(eps_grid) -> tuple[float, ...]:
    """``eps_grid`` as floats, or ValueError if the lemma suite cannot fit on
    it: not positive, finite and strictly decreasing, of fewer than 4 points
    or 3 dyadic decades, or reaching below ``_LEMMA_EPS_MIN``."""
    eps_grid = check_eps_grid(eps_grid)
    if len(eps_grid) < 4:
        raise ValueError("eps grid must span at least 4 points")
    decades = math.log2(eps_grid[0] / eps_grid[-1])
    if decades < 3.0:
        raise ValueError(f"eps grid spans {decades:.3g} dyadic decades; "
                         "the lemma suite needs at least 3")
    if eps_grid[-1] < _LEMMA_EPS_MIN:
        raise ValueError(f"lemma suite eps grid reaches eps = {eps_grid[-1]:g}, below "
                         f"2^-26 = {_LEMMA_EPS_MIN:g}: there the rounding of the eps^-1 "
                         "families' sums, scaled by 1/eps, swamps their decay")
    return eps_grid


def verify_lemma31(kernel: MollifierKernel, c: float,
                   eps_grid: Sequence[float] | None = None) -> list[ExpansionReport]:
    """Measure all twelve regularization-product expansions at x0 = 0.

    Each family is paired against a value-selecting and a slope-selecting
    test function (:func:`_lemma_pairings`), its coefficients are the
    table's exact limits, and the decay orders towards them, fitted for
    all 24 series in one pass, are compared against the family's floor.
    The three products whose factors' supports at most touch must have no
    column in the primitive table, which holds every product nonzero on
    some node.  An eps grid that breaks a rule of :func:`check_lemma_grid`
    raises ValueError; a family's eps power overflows only far below its
    bound.  A family whose terms of negative eps power do not cancel raises
    :class:`ExtractionError`.
    """
    eps_grid = check_lemma_grid(eps_grid if eps_grid is not None else default_eps_grid())
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
