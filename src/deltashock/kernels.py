"""Mollifier kernels and the three regularized profiles built from them.

A kernel is an even, non-negative bump with unit mass supported in (-1, 1).
From a kernel and a regularization length ``eps`` we build

* the correction profile  R(x, eps) = eps^{-1/2} * omega((x - 2 eps)/eps),
  supported exactly on (eps, 3 eps),
* the regularized delta   d(x, eps) = eps^{-1} * omega((x + 2 eps)/eps),
  supported exactly on (-3 eps, -eps), with unit mass,
* a C^1 step profile with an intermediate plateau at level ``c`` on
  |xi| <= 3 eps and smooth ramps on the bands (-4 eps, -3 eps) and
  (3 eps, 4 eps), built as affinely rescaled kernel antiderivatives.

All evaluators are pure functions of immutable parameters and return
numpy values of the shape of their spatial argument, 0-d for a scalar.

In the scaled variable y = xi/eps every profile is a power of eps times
a function of y that depends on the kernel alone, and the step is affine
in the plateau: h = h0 + c h1.  :func:`product_columns` evaluates the
c^j parts of products of these functions at any (xi, eps), scaled to
eps = 1, and :func:`primitive_table` tabulates them once per kernel on
fixed quadrature nodes in y: pairings at any eps need no profile
evaluation, and exact eps -> 0 limits are its moments.  Its rungs are the
same rule on 1, 2, 4, 8 and 16 panels per subinterval: the quartic
products are polynomials of degree at most 10 on each subinterval, which
one panel integrates exactly, so only the test function needs nodes, and
one panel resolves it across the band, 8 eps wide, up to eps = 2^-3.
A quartic panel has 10 Gauss nodes, exact to degree 19, as the one-panel
rung at eps = 2^-3 also spans the test function across the band: against
a long-double reference on 32 panels, the pairings of 20 seeded data sets
at every default eps read at most 3.1e-16 of their L1 (2.2e-16 on 16
nodes), where 8 nodes miss with 5.8e-12 at eps = 2^-3.  The exponential
profiles need every panel of 16 nodes at every eps: one rung.

The package's one quadrature rule, composite Gauss-Legendre from
:func:`band_quadrature`, lives here: every pairing, the primitive tables
and the exponential kernel's mass, omega0 and antiderivative use it, on
16 nodes a panel but for the quartic table's 10.  Its nodes are literals
and the Chebyshev fit is made on first use, so only the exponential
kernel loads ``numpy.polynomial``.  Every layer
imports this module, so the default eps and time grids live here too.
"""

import math
from collections.abc import Sequence
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "QUARTIC",
    "EXPONENTIAL",
    "KERNEL_KINDS",
    "MollifierKernel",
    "band_quadrature",
    "canonical_kind",
    "make_kernel",
    "eval_correction",
    "eval_correction_dx",
    "eval_delta_reg",
    "eval_delta_reg_dx",
    "StepProfile",
    "plateau_constant",
    "exp_bump",
    "exp_bump_dy",
    "PROFILE_EPS_POWERS",
    "BAND_EDGES",
    "PrimitiveTable",
    "ExtractionError",
    "Rung",
    "product_columns",
    "product_power",
    "primitive_table",
    "check_eps_grid",
    "default_eps_grid",
    "default_t_grid",
]

QUARTIC = "quartic-polynomial-bump"
EXPONENTIAL = "smooth-exponential-bump"
KERNEL_KINDS = (QUARTIC, EXPONENTIAL)

_ALIASES = {
    QUARTIC: QUARTIC,
    EXPONENTIAL: EXPONENTIAL,
    "quartic": QUARTIC,
    "exponential": EXPONENTIAL,
}

# Unit-mass constant for the quartic bump: integral of (1-x^2)^2 over
# (-1, 1) is 16/15.
_QUARTIC_NORM = 15.0 / 16.0
# omega0 = int omega^2 = (15/16)^2 * 256/315 = 5/7 for the quartic bump.
_QUARTIC_OMEGA0 = 5.0 / 7.0

_CDF_CHEB_DEGREE = 128

GAUSS_NODES = 16
# Nodes of a quartic table's panel: 6 integrate its products, polynomials of
# degree at most 10 on a subinterval, exactly; the test function needs 10.
QUARTIC_GAUSS_NODES = 10
PANELS_PER_SUBINTERVAL = 16

# Error floor (relative to the series scale) below which a sequence is
# treated as already converged, or a residual as negligible.
NEGLIGIBLE_RTOL = 1e-13


class ExtractionError(ArithmeticError):
    """Raised when an eps -> 0 limit does not exist."""


# The positive nodes, ascending, and weights of the n-point Gauss-Legendre
# rules on [-1, 1], by n: numpy's ``leggauss(n)``, which is symmetric to the
# bit for both, without importing ``numpy.polynomial``.
_GAUSS_HALF = {
    GAUSS_NODES: ((0.09501250983763744, 0.18945061045506864),
                  (0.2816035507792589, 0.18260341504492364),
                  (0.45801677765722737, 0.16915651939500265),
                  (0.6178762444026438, 0.1495959888165767),
                  (0.755404408355003, 0.12462897125553407),
                  (0.8656312023878318, 0.0951585116824926),
                  (0.9445750230732326, 0.062253523938647456),
                  (0.9894009349916499, 0.027152459411754176)),
    QUARTIC_GAUSS_NODES: ((0.14887433898163122, 0.2955242247147528),
                          (0.4333953941292472, 0.2692667193099965),
                          (0.6794095682990244, 0.219086362515982),
                          (0.8650633666889845, 0.1494513491505804),
                          (0.9739065285171717, 0.06667134430868814)),
}


@lru_cache(maxsize=None)
def _gauss_rule(nodes: int = GAUSS_NODES):
    """The ``nodes``-point Gauss-Legendre nodes and weights on [-1, 1]."""
    x, w = np.array(_GAUSS_HALF[nodes]).T
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


class MollifierKernel(NamedTuple):
    """Even unit-mass bump supported in (-1, 1).

    ``normalization`` is the multiplicative constant making the mass one
    and ``omega0`` is the integral of the squared kernel.  For the quartic
    bump both are exact rationals; for the exponential bump they are
    computed once with :func:`band_quadrature`, in the same pass that
    samples its antiderivative, and cached.
    """

    kind: str
    normalization: float
    omega0: float

    def value(self, y):
        y = np.asarray(y, dtype=float)
        if self.kind == QUARTIC:
            out = np.zeros_like(y)
            m = np.abs(y) < 1.0
            out[m] = self.normalization * (1.0 - y[m] ** 2) ** 2
        else:
            out = exp_bump(y, self.normalization)
        return out

    def deriv(self, y):
        y = np.asarray(y, dtype=float)
        if self.kind == QUARTIC:
            out = np.zeros_like(y)
            m = np.abs(y) < 1.0
            ym = y[m]
            out[m] = self.normalization * (-4.0) * ym * (1.0 - ym**2)
        else:
            out = exp_bump_dy(y, self.normalization)
        return out

    def cdf(self, y):
        """Antiderivative of the kernel, 0 at -1 and 1 at +1."""
        y = np.asarray(y, dtype=float)
        out = np.empty_like(y)
        lo = y <= -1.0
        hi = y >= 1.0
        mid = ~(lo | hi)
        out[lo] = 0.0
        out[hi] = 1.0
        ym = y[mid]
        if self.kind == QUARTIC:
            out[mid] = 0.5 + _QUARTIC_NORM * (ym - 2.0 * ym**3 / 3.0 + ym**5 / 5.0)
        else:
            out[mid] = np.clip(_exp_fit()[2](ym), 0.0, 1.0)
        return out


def band_quadrature(lo: float, hi: float, cuts: Sequence[float],
                    panels: int = PANELS_PER_SUBINTERVAL, nodes: int = GAUSS_NODES):
    """Composite Gauss-Legendre nodes and weights on [lo, hi].

    The band is split at every cut strictly inside it, and each subinterval
    is cut into ``panels`` equal panels of ``nodes`` nodes, 16 or 10.
    """
    edges = np.array([lo, *(c for c in sorted(set(cuts)) if lo < c < hi), hi],
                     dtype=float)
    sub = np.linspace(edges[:-1], edges[1:], panels + 1, axis=-1)
    a = sub[:, :-1].reshape(-1, 1)
    b = sub[:, 1:].reshape(-1, 1)
    half = 0.5 * (b - a)
    x, w = _gauss_rule(nodes)
    return (half * x + 0.5 * (a + b)).ravel(), (half * w).ravel()


def exp_bump(y, scale=1.0, lift=0.0):
    """``scale * exp(lift - 1/(1 - y^2))`` on |y| < 1, exactly 0 elsewhere."""
    # In floating point 1 - y^2 > 0 exactly when |y| < 1.
    q = 1.0 - np.square(np.asarray(y, dtype=float))
    inside = q > 0.0
    if inside.all():
        return np.asarray(scale * np.exp(lift - 1.0 / q))
    out = np.zeros_like(q)
    out[inside] = scale * np.exp(lift - 1.0 / q[inside])
    return out


def exp_bump_dy(y, scale=1.0, lift=0.0):
    """Derivative of :func:`exp_bump` in y."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    m = np.abs(y) < 1.0
    ym = y[m]
    out[m] = scale * np.exp(lift - 1.0 / (1.0 - ym**2)) * (-2.0 * ym / (1.0 - ym**2) ** 2)
    return out


@lru_cache(maxsize=1)
def _exp_fit():
    """Normalization, omega0 and the Chebyshev fit of the CDF, exponential bump.

    One pass of :func:`band_quadrature` cut at the Chebyshev fit points:
    the running sum of the per-subinterval integrals is the unnormalized
    CDF at every fit point and its last value is the mass.  The samples
    are exact to rounding, so the fit is limited by the interpolant.
    """
    deg = _CDF_CHEB_DEGREE
    # Chebyshev points of the second kind on [-1, 1], ascending.
    pts = np.cos(np.pi * np.arange(deg + 1) / deg)[::-1]
    y, w = band_quadrature(-1.0, 1.0, pts)
    f = exp_bump(y)
    cum = np.concatenate(([0.0], np.cumsum((w * f).reshape(deg, -1).sum(axis=1))))
    norm = 1.0 / float(cum[-1])
    omega0 = float(np.sum(w * (norm * f) ** 2))
    return norm, omega0, np.polynomial.Chebyshev.fit(pts, norm * cum, deg,
                                                     domain=[-1.0, 1.0])


def canonical_kind(kind: str) -> str:
    """Resolve a kernel-kind name or alias to its canonical form."""
    canonical = _ALIASES.get(kind)
    if canonical is None:
        raise ValueError(f"unknown kernel kind {kind!r}; choose from {KERNEL_KINDS}")
    return canonical


@lru_cache(maxsize=None)
def _kernel_for(canonical: str) -> MollifierKernel:
    if canonical == QUARTIC:
        return MollifierKernel(QUARTIC, _QUARTIC_NORM, _QUARTIC_OMEGA0)
    norm, omega0, _ = _exp_fit()
    return MollifierKernel(EXPONENTIAL, norm, omega0)


def make_kernel(kind: str = QUARTIC) -> MollifierKernel:
    """Build a kernel of the requested family with its constants cached."""
    return _kernel_for(canonical_kind(kind))


def default_eps_grid(pow_min: int = 3, pow_max: int = 12) -> tuple[float, ...]:
    """Dyadic grid 2^-pow_min .. 2^-pow_max, strictly decreasing."""
    if pow_max <= pow_min:
        raise ValueError("pow_max must exceed pow_min")
    return tuple(2.0 ** (-j) for j in range(pow_min, pow_max + 1))


def check_eps_grid(eps_grid) -> tuple[float, ...]:
    """``eps_grid`` as floats; ValueError naming its first value that is not
    positive, finite and below the one before."""
    grid = tuple(float(e) for e in eps_grid)
    for i, (before, eps) in enumerate(zip((math.inf,) + grid, grid)):
        if not 0.0 < eps < before:
            raise ValueError("eps grid must be positive, finite and strictly decreasing: "
                             f"eps[{i}] = {eps!r}" + (f" after {before!r}" if i else ""))
    return grid


def default_t_grid(t_max: float = 1.0, points: int = 33):
    """Equispaced grid on [0, t_max] used for the uniform-in-t maxima."""
    return np.linspace(0.0, float(t_max), points)


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    return eps


def eval_correction(x, eps, kernel: MollifierKernel):
    """Correction profile R(x, eps); support exactly (eps, 3 eps)."""
    eps = _check_eps(eps)
    return kernel.value((np.asarray(x, dtype=float) - 2.0 * eps) / eps) / math.sqrt(eps)


def eval_correction_dx(x, eps, kernel: MollifierKernel):
    eps = _check_eps(eps)
    return kernel.deriv((np.asarray(x, dtype=float) - 2.0 * eps) / eps) / eps**1.5


def eval_delta_reg(x, eps, kernel: MollifierKernel):
    """Regularized delta d(x, eps); support exactly (-3 eps, -eps), mass 1."""
    eps = _check_eps(eps)
    return kernel.value((np.asarray(x, dtype=float) + 2.0 * eps) / eps) / eps


def eval_delta_reg_dx(x, eps, kernel: MollifierKernel):
    eps = _check_eps(eps)
    return kernel.deriv((np.asarray(x, dtype=float) + 2.0 * eps) / eps) / eps**2


def plateau_constant(u1: float, sigma1: float) -> float:
    """Plateau level 1/2 - sigma1/u1^2 that cancels the stress dipole terms."""
    if u1 == 0.0:
        raise ValueError("plateau constant needs a nonzero velocity jump u1")
    return 0.5 - sigma1 / u1**2


class _StepFields(NamedTuple):
    c: float
    eps: float
    kernel: MollifierKernel


class StepProfile(_StepFields):
    """C^1 regularized step with a plateau at ``c`` on |xi| <= 3 eps.

    The value is exactly 0 for xi <= -4 eps and exactly 1 for
    xi >= 4 eps.  The ramps are rescaled kernel antiderivatives, so the
    profile is C^1 with derivative vanishing outside the two transition
    bands.  Construction rejects eps <= 0; ``_replace`` and ``_make``
    bypass that check, so the package builds profiles by calling the class.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _check_eps(self.eps)
        return self

    def value(self, xi):
        xi = np.asarray(xi, dtype=float)
        e = self.eps
        c = self.c
        out = np.empty_like(xi)
        out[xi <= -4.0 * e] = 0.0
        out[xi >= 4.0 * e] = 1.0
        out[np.abs(xi) <= 3.0 * e] = c
        left = (xi > -4.0 * e) & (xi < -3.0 * e)
        out[left] = c * self.kernel.cdf((2.0 * xi[left] + 7.0 * e) / e)
        right = (xi > 3.0 * e) & (xi < 4.0 * e)
        out[right] = c + (1.0 - c) * self.kernel.cdf((2.0 * xi[right] - 7.0 * e) / e)
        return out

    def deriv(self, xi):
        xi = np.asarray(xi, dtype=float)
        e = self.eps
        c = self.c
        out = np.zeros_like(xi)
        left = (xi > -4.0 * e) & (xi < -3.0 * e)
        out[left] = c * self.kernel.value((2.0 * xi[left] + 7.0 * e) / e) * 2.0 / e
        right = (xi > 3.0 * e) & (xi < 4.0 * e)
        out[right] = (1.0 - c) * self.kernel.value((2.0 * xi[right] - 7.0 * e) / e) * 2.0 / e
        return out


# Each profile at eps is eps^power times the same profile at eps = 1
# evaluated at y = xi/eps: the step h (as ``StepProfile.value(-xi)``) and
# its derivative dh, the correction r and dr, the delta d and dd.
PROFILE_EPS_POWERS = {"h": 0.0, "dh": -1.0, "r": -0.5, "dr": -1.5, "d": -1.0,
                      "dd": -2.0}
# The front band's edges in y = xi/eps, where the supports end: the step's
# ramps (-4, -3) and (3, 4), the delta's (-3, -1), the correction's (1, 3).
BAND_EDGES = (-4.0, -3.0, -1.0, 1.0, 3.0, 4.0)


# Panels per subinterval of each rung of a kernel's table, coarsest first,
# and the Gauss nodes of each panel.
_RUNGS = {QUARTIC: (1, 2, 4, 8, PANELS_PER_SUBINTERVAL),
          EXPONENTIAL: (PANELS_PER_SUBINTERVAL,)}
_PANEL_NODES = {QUARTIC: QUARTIC_GAUSS_NODES, EXPONENTIAL: GAUSS_NODES}
# A rung of n panels per subinterval serves every eps up to n times this:
# its panels, in x, are no longer than one panel at eps = 2^-3.
_EPS_PER_PANEL = 2.0**-3


class Rung(NamedTuple):
    """One rung of a :class:`PrimitiveTable`: its nodes in y and columns."""

    panels: int
    y: np.ndarray
    columns: np.ndarray


class PrimitiveTable:
    """Weighted profile products of one kernel on the front band in y = xi/eps.

    Each of ``rungs``, coarsest first, holds the nodes of the ``panels``
    rule of :func:`band_quadrature`, of the kernel's nodes a panel, cut at
    :data:`BAND_EDGES` on which some product is nonzero.  Column i of a
    rung's ``columns`` is the weight times the c^j part of a product of profiles at eps = 1, for
    ``(product, j) = keys[i]``; parts that vanish on every node have no
    column.  On the nodes eps * y that part pairs to eps^powers[i] times
    the column's sum (dxi = eps dy included): its exact eps -> 0 limits
    are :meth:`limits`, read off :meth:`moments`.  Tables compare by identity.
    """

    __slots__ = ("rungs", "keys", "powers", "_columns")

    def __init__(self, rungs: tuple[Rung, ...],
                 keys: tuple[tuple[tuple[str, ...], int], ...], powers: np.ndarray):
        self.rungs, self.keys, self.powers = rungs, keys, powers
        # Each product's columns, as (column, j) of its c^j parts.
        self._columns = {}
        for i, (product, j) in enumerate(keys):
            self._columns.setdefault(product, []).append((i, j))

    def moments(self, n_max: int):
        """The moments M_n = y^n @ columns of the finest rung and their
        cancellation scale |y|^n @ |columns|, both ``[n, column]``, n <= n_max."""
        _, y, columns = self.rungs[-1]
        y_powers = y ** np.arange(n_max + 1)[:, None]
        return y_powers @ columns, np.abs(y_powers) @ np.abs(columns)

    def weights(self, rows, c: float) -> np.ndarray:
        """``[row, column]``: each row, {product: coefficient}, weighs column
        (product, j) by that product's coefficient times c^j, and a product
        it lacks by 0.0 times c^j.  OverflowError if some c^j overflows."""
        c_powers = [c**j for j in range(1 + max(j for _, j in self.keys))]
        zeros = [0.0 * c_powers[j] for _, j in self.keys]
        out = []
        for row in rows:
            weights = zeros.copy()
            for product, coefficient in row.items():
                for i, j in self._columns.get(product, ()):
                    weights[i] = coefficient * c_powers[j]
            out.append(weights)
        return np.array(out)

    def limits(self, weights, names):
        """The eps -> 0 limits A delta + B delta' of the rows of ``weights``,
        ``[row, column]``, as arrays (A, B): A sums the eps^0 terms of n = 0,
        -B those of n = 1.  A group of terms of negative exponent above
        ``NEGLIGIBLE_RTOL`` of its cancellation scale leaves no limit and
        raises :class:`ExtractionError`, naming its row by ``names``."""
        moments, scale = self.moments(1)
        # [row, n, column]: the coefficient of eps^(a + n) phi^(n)(0) / n!
        terms, scale = moments * weights[:, None], scale * np.abs(weights)[:, None]
        for n, power in sorted({(n, a) for n in (0, 1) for a in self.powers if a + n < 0}):
            group = self.powers == power
            for name, total, bound in zip(names, terms[:, n, group].sum(-1),
                                          scale[:, n, group].sum(-1)):
                if abs(total) > NEGLIGIBLE_RTOL * bound:
                    raise ExtractionError(
                        f"{name}: its eps^{power + n:g} term is {abs(total):.3e} "
                        f"against {bound:.3e}, so it has no limit")
        return terms[:, 0, self.powers == 0].sum(-1), -terms[:, 1, self.powers == -1].sum(-1)

    def at(self, eps: float) -> Rung:
        """The coarsest rung whose panels at ``eps``, measured in x, are no
        longer than one panel at eps = 2^-3, else the finest: on the quartic
        table 2^ceil(log2(8 eps)) panels, clipped to 1..16."""
        need = eps / _EPS_PER_PANEL
        return next((rung for rung in self.rungs if rung.panels >= need),
                    self.rungs[-1])


def product_power(product: tuple[str, ...]) -> float:
    """The eps power of a product's columns: its profiles' powers summed,
    plus 1 for dxi = eps dy."""
    return 1.0 + sum(PROFILE_EPS_POWERS[n] for n in product)


def product_columns(kernel: MollifierKernel, products: tuple[tuple[str, ...], ...],
                    xi, eps: float, weights):
    """Weighted c^j parts of profile products at moving-frame points (xi, eps).

    ``weights`` are quadrature weights in xi.  Returns ``(columns, keys,
    powers)`` as in :class:`PrimitiveTable`, each column divided by
    eps^powers[i]: on any nodes it pairs to eps^powers[i] times its sum.
    """
    plain, unit = StepProfile(0.0, eps, kernel), StepProfile(1.0, eps, kernel)
    h0, dh0 = plain.value(-xi), plain.deriv(-xi)
    # Each profile as its coefficients of 1, c, c^2, ...
    factors = {
        "h": (h0, unit.value(-xi) - h0),
        "dh": (dh0, unit.deriv(-xi) - dh0),
        "r": (eval_correction(xi, eps, kernel),),
        "dr": (eval_correction_dx(xi, eps, kernel),),
        "d": (eval_delta_reg(xi, eps, kernel),),
        "dd": (eval_delta_reg_dx(xi, eps, kernel),),
    }
    columns, keys, powers = [], [], []
    for product in products:
        poly = [weights]
        for name in product:
            f = factors[name]
            poly = [sum(poly[i] * f[j - i] for i in range(len(poly))
                        if 0 <= j - i < len(f))
                    for j in range(len(poly) + len(f) - 1)]
        power = product_power(product)
        columns += [part * eps**-power for part in poly]
        keys += [(product, j) for j in range(len(poly))]
        powers += [power] * len(poly)
    return np.stack(columns, axis=-1), keys, np.array(powers)


@lru_cache(maxsize=None)
def primitive_table(kernel: MollifierKernel,
                    products: tuple[tuple[str, ...], ...]) -> PrimitiveTable:
    """The :class:`PrimitiveTable` of ``products``: :func:`product_columns` at eps = 1.

    A product is a tuple of profile names from :data:`PROFILE_EPS_POWERS`.
    Every rung's nodes go through one :func:`product_columns` call, so each
    profile is evaluated once per table.
    """
    panels = _RUNGS[kernel.kind]
    lo, *cuts, hi = BAND_EDGES
    rules = [band_quadrature(lo, hi, cuts, n, _PANEL_NODES[kernel.kind]) for n in panels]
    y, w = (np.concatenate(parts) for parts in zip(*rules))
    columns, keys, powers = product_columns(kernel, products, y, 1.0, w)
    # Nodes and columns where every entry is zero add nothing to a pairing.
    cols = np.any(columns != 0.0, axis=0)
    ends = np.cumsum([len(rule[0]) for rule in rules])[:-1]
    rungs = []
    for n, y_n, columns_n in zip(panels, np.split(y, ends), np.split(columns, ends)):
        nodes = np.any(columns_n != 0.0, axis=1)
        rungs.append(Rung(n, y_n[nodes], columns_n[np.ix_(nodes, cols)]))
    return PrimitiveTable(tuple(rungs), tuple(k for k, c in zip(keys, cols) if c),
                          powers[cols])
