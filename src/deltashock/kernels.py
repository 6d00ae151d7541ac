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
eps = 1, and :func:`primitive_table` tabulates the products of one
layout of (row, product) pairs once per kernel on fixed quadrature nodes
in y: pairings at any eps need no profile
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
and the exponential kernel's antiderivative use it, on 16 nodes a panel
but for the quartic table's 10.  Its nodes are literals and the Chebyshev
fit is made on first use, so only a run that evaluates the exponential
kernel's CDF loads ``numpy.polynomial``.  Each kernel's normalization
lives here and its omega0 in the package root, both literals, so
:func:`make_kernel` is a lookup.  The default time grid lives here too;
the kernel kinds and the eps grid rules live in the package root.
"""

import math
from collections.abc import Sequence
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import EXPONENTIAL, KERNEL_KINDS, OMEGA0, QUARTIC, canonical_kind, linear_grid

__all__ = [
    "QUARTIC",
    "EXPONENTIAL",
    "MollifierKernel",
    "band_quadrature",
    "make_kernel",
    "eval_correction",
    "eval_correction_dx",
    "eval_delta_reg",
    "eval_delta_reg_dx",
    "StepProfile",
    "exp_bump",
    "exp_bump_dy",
    "PROFILE_EPS_POWERS",
    "BAND_EDGES",
    "PrimitiveTable",
    "ExtractionError",
    "Rung",
    "product_columns",
    "primitive_table",
    "default_t_grid",
]

# Unit-mass constant of each kernel: 15/16 for the quartic bump, whose
# (1-x^2)^2 has integral 16/15 over (-1, 1), and 1/mass for the exponential
# bump, its mass by :func:`band_quadrature` cut at the CDF's fit points,
# within 1e-15 of a 40-digit mpmath quadrature.
_NORMALIZATION = {QUARTIC: 15.0 / 16.0, EXPONENTIAL: 2.2522836210435804}

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
    literals, the values :func:`band_quadrature` gives, so they do not
    depend on the host's ``exp``.
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
            out[mid] = 0.5 + self.normalization * (ym - 2.0 * ym**3 / 3.0 + ym**5 / 5.0)
        else:
            out[mid] = np.clip(_exp_fit()(ym), 0.0, 1.0)
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
    out = np.zeros_like(q)
    out[inside] = scale * np.exp(lift - 1.0 / q[inside])
    return out


def exp_bump_dy(y, scale=1.0, lift=0.0):
    """Derivative of :func:`exp_bump` in y: its value times -2 y/(1 - y^2)^2."""
    y = np.asarray(y, dtype=float)
    q = 1.0 - np.square(y)
    inside = q > 0.0
    out = exp_bump(y, scale, lift)
    out[inside] *= -2.0 * y[inside] / q[inside] ** 2
    return out


@lru_cache(maxsize=1)
def _exp_fit():
    """The Chebyshev fit of the exponential bump's CDF.

    One pass of :func:`band_quadrature` cut at the Chebyshev fit points:
    the running sum of the per-subinterval integrals, times the
    normalization, is the CDF at every fit point.  The samples are exact
    to rounding, so the fit is limited by the interpolant.
    """
    deg = _CDF_CHEB_DEGREE
    # Chebyshev points of the second kind on [-1, 1], ascending.
    pts = np.cos(np.pi * np.arange(deg + 1) / deg)[::-1]
    y, w = band_quadrature(-1.0, 1.0, pts)
    cum = np.concatenate(([0.0], np.cumsum((w * exp_bump(y)).reshape(deg, -1).sum(axis=1))))
    return np.polynomial.Chebyshev.fit(pts, _NORMALIZATION[EXPONENTIAL] * cum, deg,
                                       domain=[-1.0, 1.0])


# One instance of each kernel, returned for its kind and its alias alike.
_KERNELS = {kind: MollifierKernel(kind, _NORMALIZATION[kind], OMEGA0[kind])
            for kind in KERNEL_KINDS}


def make_kernel(kind: str) -> MollifierKernel:
    """The kernel of the requested family: one instance per canonical kind."""
    return _KERNELS[canonical_kind(kind)]


def default_t_grid(t_max: float = 1.0, points: int = 33):
    """Equispaced grid on [0, t_max] used for the uniform-in-t maxima."""
    return np.array(linear_grid(0.0, t_max, points))


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
    are :meth:`limits`, read off :meth:`moments`.  A table is built from
    one ``layout`` of (row, product) pairs, whose rows :meth:`weights`
    fills through an index built here.  Tables compare by identity.
    """

    __slots__ = ("rungs", "keys", "powers", "_c_orders", "_c_terms", "_index")

    def __init__(self, rungs: tuple[Rung, ...],
                 keys: tuple[tuple[tuple[str, ...], int], ...], powers: np.ndarray,
                 layout: tuple[tuple[int, tuple[str, ...]], ...]):
        self.rungs, self.keys, self.powers = rungs, keys, powers
        self._c_orders = np.array([j for _, j in keys])  # j of each column
        self._c_terms = 1 + max(j for _, j in keys)
        # [row, column]: the pair of the layout that fills each cell, the
        # last if several do, and len(layout) where none does.
        columns = {}
        for i, (product, _) in enumerate(keys):
            columns.setdefault(product, []).append(i)
        self._index = np.full((1 + max(row for row, _ in layout), len(keys)), len(layout))
        for entry, (row, product) in enumerate(layout):
            self._index[row, columns.get(product, [])] = entry

    def moments(self, n_max: int):
        """The moments M_n = y^n @ columns of the finest rung and their
        cancellation scale |y|^n @ |columns|, both ``[n, column]``, n <= n_max."""
        _, y, columns = self.rungs[-1]
        y_powers = y ** np.arange(n_max + 1)[:, None]
        return y_powers @ columns, np.abs(y_powers) @ np.abs(columns)

    def weights(self, coefficients, c: float) -> np.ndarray:
        """``[row, column]`` weights of the rows of the table's layout.

        ``coefficients`` are one number per (row, product) pair of the
        layout, in its order: column (product, j) of that row takes the
        coefficient times c^j, and every column no pair fills 0.0 times
        c^j.  A product without columns adds nothing.  One gather through
        the index built with the table places them.  OverflowError if some
        c^j overflows.
        """
        c_powers = np.array([c**j for j in range(self._c_terms)], dtype=float)
        return np.array((*coefficients, 0.0))[self._index] * c_powers[self._c_orders]

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
        # the profiles' powers summed, plus 1 for dxi = eps dy
        power = 1.0 + sum(PROFILE_EPS_POWERS[name] for name in product)
        columns += [part * eps**-power for part in poly]
        keys += [(product, j) for j in range(len(poly))]
        powers += [power] * len(poly)
    return np.stack(columns, axis=-1), keys, np.array(powers)


@lru_cache(maxsize=None)
def primitive_table(kernel: MollifierKernel,
                    layout: tuple[tuple[int, tuple[str, ...]], ...]) -> PrimitiveTable:
    """The :class:`PrimitiveTable` of a layout: :func:`product_columns` at
    eps = 1 of its products, each once, in the layout's order.

    ``layout`` is a tuple of (row, product) pairs, a product a tuple of
    profile names from :data:`PROFILE_EPS_POWERS`.  Every rung's nodes go
    through one :func:`product_columns` call, so each profile is evaluated
    once per table.
    """
    products = tuple(dict.fromkeys(product for _, product in layout))
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
                          powers[cols], layout)
