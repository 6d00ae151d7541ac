import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from deltashock import OMEGA0, canonical_kind, default_eps_grid, linear_grid
from deltashock.ansatz import RiemannJumpData, SmoothAnsatz
from deltashock.dynamics import LinearTrajectory, solve_front, volpert_product_pairing
from deltashock.kernels import (
    BAND_EDGES,
    EXPONENTIAL,
    GAUSS_NODES,
    QUARTIC,
    QUARTIC_GAUSS_NODES,
    PrimitiveTable,
    StepProfile,
    band_quadrature,
    eval_correction,
    eval_correction_dx,
    eval_delta_reg,
    eval_delta_reg_dx,
    make_kernel,
    default_t_grid,
    primitive_table,
    product_columns,
    _PANEL_NODES,
    _gauss_rule,
)
from deltashock.pairing import verify_lemma31
from deltashock.verifier import _LAYOUT, replay_derivation
from oracle import exact_quartic_moments

# Closed-form oracle: int_{-1}^{1} (1 - x^2)^2 dx = 2 (1 - 2/3 + 1/5) = 16/15,
# so the unit-mass constant is 15/16 and
# omega0 = (15/16)^2 * int (1 - x^2)^4 = (225/256) (256/315) = 5/7.
QUARTIC_NORM = 15.0 / 16.0
QUARTIC_OMEGA0 = 5.0 / 7.0


def gauss_integral(fn, lo, hi, panels=64):
    nodes, weights = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(lo, hi, panels + 1)
    a, b = edges[:-1], edges[1:]
    xs = 0.5 * (b - a)[:, None] * nodes[None, :] + 0.5 * (a + b)[:, None]
    ws = 0.5 * (b - a)[:, None] * weights[None, :]
    return float(np.sum(ws * fn(xs)))


def test_gauss_rule_literals_are_leggauss_bitwise():
    # Both rules, of 16 and of 10 nodes, are written out so that pairing
    # loads no numpy.polynomial; each must be numpy's rule to the bit, so
    # every pairing stays unchanged.
    for count in (GAUSS_NODES, QUARTIC_GAUSS_NODES):
        nodes, weights = _gauss_rule(count)
        want_nodes, want_weights = np.polynomial.legendre.leggauss(count)
        assert nodes.dtype == weights.dtype == np.float64
        assert nodes.tobytes() == want_nodes.tobytes(), count
        assert weights.tobytes() == want_weights.tobytes(), count


def _linspace_cases():
    """(start, stop, num): the edge cases, then seeded ones over the float range."""
    cases = [(0.0, 1.0, 0), (0.0, 1.0, 1), (0.0, 1.0, 2), (-3.5, 2.0, 1), (-3.5, 2.0, 2),
             (-4.0, 4.0, 81), (-5.0, 5.0, 401), (0.0, 1.0, 33), (2.0, 2.0, 5),
             (0.0, 5e-323, 41), (-1e-322, 1e-322, 401), (3e-323, 0.0, 99),  # step underflows
             (1e300, -1e300, 7), (0.0, 1.7976931348623157e308, 120)]
    rng = np.random.default_rng(44)
    for _ in range(2000):
        start, stop = rng.uniform(-1.0, 1.0, 2) * 10.0 ** rng.integers(-323, 308, 2)
        cases.append((float(start), float(stop), int(rng.integers(0, 300))))
    return cases


def test_linear_grid_is_linspace_bitwise():
    # riemann's xi grid and the sweep's axes are made without numpy, and the
    # default time grid by the same rule: each must be numpy's grid to the bit.
    for start, stop, num in _linspace_cases():
        grid = linear_grid(start, stop, num)
        assert type(grid) is list and all(type(x) is float for x in grid)
        with np.errstate(all="ignore"):  # the span or the last multiple may overflow
            want = np.linspace(start, stop, num)
        assert np.array(grid, dtype=float).tobytes() == want.tobytes(), (start, stop, num)
    assert default_t_grid(2.5, 17).tobytes() == np.linspace(0.0, 2.5, 17).tobytes()


def test_quartic_normalization_closed_form():
    raw_mass, _ = quad(lambda x: (1 - x * x) ** 2, -1, 1, epsabs=1e-14)
    assert raw_mass == pytest.approx(16.0 / 15.0, abs=1e-13)
    k = make_kernel(QUARTIC)
    assert k.normalization == QUARTIC_NORM


@pytest.mark.parametrize("kind", [QUARTIC, EXPONENTIAL])
def test_unit_mass(kind):
    k = make_kernel(kind)
    mass, _ = quad(lambda x: k.value(x), -1, 1, epsabs=1e-14, limit=200)
    assert abs(mass - 1.0) < 1e-12


def test_omega0_quartic_closed_form(quartic):
    assert quartic.omega0 == QUARTIC_OMEGA0
    by_quad, _ = quad(lambda x: quartic.value(x) ** 2, -1, 1, epsabs=1e-14)
    assert abs(by_quad - QUARTIC_OMEGA0) < 1e-12


def test_omega0_exponential_cached_quadrature(exponential):
    # omega0 is the package root's literal, the kernel layer's quadrature
    # value, and scipy's adaptive quadrature of the squared bump agrees.
    assert exponential.omega0 == OMEGA0[EXPONENTIAL]
    by_quad, _ = quad(lambda x: exponential.value(x) ** 2, -1, 1,
                      epsabs=1e-14, limit=200)
    assert abs(by_quad - exponential.omega0) < 1e-12
    assert exponential.omega0 > 0.0
    # one instance per kind, by name or alias
    assert make_kernel("exponential") is exponential is make_kernel(EXPONENTIAL)


def test_exponential_constants_match_mpmath_to_rounding(exponential):
    import mpmath as mp

    with mp.workdps(40):
        def bump(x):
            return mp.exp(-1 / (1 - x * x))

        mass = mp.quad(bump, [-1, 0, 1])
        omega0 = mp.quad(lambda x: bump(x) ** 2, [-1, 0, 1]) / mass**2
        assert abs(exponential.normalization * mass - 1) < 1e-15
        assert abs(exponential.omega0 / omega0 - 1) < 1e-15
        for y in np.linspace(-0.99, 0.99, 21):
            ref = mp.quad(bump, [-1, mp.mpf(float(y))]) / mass
            assert abs(exponential.cdf(y) - ref) < 5e-14, y


@given(x=st.floats(-3.0, 3.0))
def test_kernel_even_nonnegative_supported(x):
    for kind in (QUARTIC, EXPONENTIAL):
        k = make_kernel(kind)
        assert k.value(x) == k.value(-x)
        assert k.value(x) >= 0.0
        if abs(x) >= 1.0:
            assert k.value(x) == 0.0


def test_kernel_even_on_symmetric_grid(kernel):
    xs = np.linspace(-2.0, 2.0, 401)
    assert np.array_equal(kernel.value(xs), kernel.value(-xs))


def test_kernel_deriv_matches_finite_difference(kernel):
    xs = np.linspace(-0.95, 0.95, 77)
    h = 1e-7
    fd = (kernel.value(xs + h) - kernel.value(xs - h)) / (2 * h)
    assert np.max(np.abs(fd - kernel.deriv(xs))) < 1e-5


def test_cdf_endpoints_and_quadrature(kernel):
    assert kernel.cdf(-1.0) == 0.0
    assert kernel.cdf(1.0) == 1.0
    assert abs(kernel.cdf(0.0) - 0.5) < 1e-12
    for y in (-0.9, -0.4, 0.15, 0.8):
        ref, _ = quad(lambda s: kernel.value(s), -1, y, epsabs=1e-14, limit=200)
        assert abs(kernel.cdf(y) - ref) < 1e-11


def test_make_kernel_kinds():
    assert make_kernel("quartic").kind == QUARTIC
    assert canonical_kind("exponential") == EXPONENTIAL
    with pytest.raises(ValueError):
        make_kernel("triangle")


# --- regularized profiles --------------------------------------------------


def test_correction_center_and_support(quartic):
    eps = 0.1
    assert eval_correction(2 * eps, eps, quartic) == pytest.approx(
        quartic.value(0.0) / math.sqrt(eps), abs=1e-15)
    assert eval_correction(0.0, eps, quartic) == 0.0
    assert eval_correction(eps, eps, quartic) == 0.0
    assert eval_correction(3 * eps, eps, quartic) == 0.0
    assert eval_correction(2.0001 * eps, eps, quartic) > 0.0


def test_correction_worked_value(quartic):
    # 0.1^{-1/2} * 15/16, frozen from an independent 40-digit evaluation.
    val = eval_correction(0.2, 0.1, quartic)
    assert val == pytest.approx(2.9646353064078556, abs=1e-13)
    import mpmath as mp

    mp.mp.dps = 40
    oracle = mp.mpf("0.1") ** mp.mpf("-0.5") * mp.mpf(15) / 16
    assert abs(val - float(oracle)) < 1e-13


def test_profiles_reject_bad_eps(quartic):
    for bad in (0.0, -0.5):
        with pytest.raises(ValueError):
            eval_correction(0.1, bad, quartic)
        with pytest.raises(ValueError):
            eval_delta_reg(0.1, bad, quartic)


def test_delta_reg_center_mass_support(kernel):
    eps = 0.05
    assert eval_delta_reg(-2 * eps, eps, kernel) == pytest.approx(
        kernel.value(0.0) / eps, abs=1e-12)
    assert eval_delta_reg(0.0, eps, kernel) == 0.0
    mass = gauss_integral(lambda x: eval_delta_reg(x, eps, kernel),
                          -3 * eps, -eps)
    assert abs(mass - 1.0) < 1e-10


@pytest.mark.parametrize("eps", [0.2, 0.05, 2.0**-9])
def test_correction_mass_and_square_scaling(kernel, eps):
    mass = gauss_integral(lambda x: eval_correction(x, eps, kernel),
                          eps, 3 * eps)
    assert abs(mass - math.sqrt(eps)) < 1e-10
    square = gauss_integral(lambda x: eval_correction(x, eps, kernel) ** 2,
                            eps, 3 * eps)
    assert abs(square - kernel.omega0) < 1e-10


def test_disjoint_supports_product_identically_zero(kernel):
    for eps in (0.3, 0.04, 2.0**-10):
        xs = np.linspace(-4 * eps, 4 * eps, 10001)
        prod = eval_correction(xs, eps, kernel) * eval_delta_reg(xs, eps, kernel)
        assert np.max(np.abs(prod)) == 0.0
        prod_dx = eval_correction(xs, eps, kernel) * eval_delta_reg_dx(xs, eps, kernel)
        assert np.max(np.abs(prod_dx)) == 0.0


# --- step profile ----------------------------------------------------------


def test_step_plateau_and_tails(kernel):
    prof = StepProfile(0.375, 0.1, kernel)
    assert prof.value(0.0) == 0.375
    assert prof.value(0.3) == 0.375
    assert prof.value(-0.3) == 0.375
    assert prof.value(0.4) == 1.0
    assert prof.value(5.0) == 1.0
    assert prof.value(-0.4) == 0.0
    assert prof.value(-5.0) == 0.0


def test_step_band_integrals(kernel):
    # ramps climb 0 -> c and c -> 1, sum +1
    c, eps = 0.375, 0.1
    prof = StepProfile(c, eps, kernel)
    left = gauss_integral(prof.deriv, -4 * eps, -3 * eps)
    right = gauss_integral(prof.deriv, 3 * eps, 4 * eps)
    assert left == pytest.approx(c, abs=1e-12)
    assert right == pytest.approx(1.0 - c, abs=1e-12)
    assert left + right == pytest.approx(1.0, abs=1e-12)


def test_step_c1_junctions(kernel):
    prof = StepProfile(0.2, 0.05, kernel)
    for xi in (s * prof.eps for s in BAND_EDGES if abs(s) >= 3.0):
        inner = prof.deriv(xi - 1e-300) if xi > 0 else prof.deriv(xi + 1e-300)
        assert abs(prof.deriv(xi)) < 1e-10
        assert abs(inner - prof.deriv(xi)) < 1e-10
        left = prof.value(np.nextafter(xi, -np.inf))
        right = prof.value(np.nextafter(xi, np.inf))
        assert abs(left - right) < 1e-10


def test_profiles_keep_the_shape_of_their_argument(kernel):
    # A 0-d argument gives a 0-d array equal to element 0 of the call on a
    # 1-element array, bit for bit, inside, on and outside every support.
    prof = StepProfile(0.3, 0.05, kernel)
    ys = (-1.5, -1.0, -0.999, -0.4, 0.0, 0.25, 0.999, 1.0, 1.5)
    calls = [(f, y) for f in (kernel.value, kernel.deriv, kernel.cdf) for y in ys]
    calls += [(f, s * prof.eps) for f in (prof.value, prof.deriv)
              for s in (-4.5, *BAND_EDGES, -3.5, -2.0, 0.0, 3.5, 4.5)]
    for f, y in calls:
        got, one = f(np.float64(y)), f(np.array([y]))
        assert isinstance(got, np.ndarray) and got.shape == (), (f, y)
        assert got.tobytes() == one[0].tobytes(), (f, y)


def test_step_derivative_matches_finite_difference(kernel):
    prof = StepProfile(0.31, 0.08, kernel)
    xs = np.concatenate([np.linspace(-0.315, -0.245, 19),
                         np.linspace(0.245, 0.315, 19)])
    h = 1e-7
    fd = (prof.value(xs + h) - prof.value(xs - h)) / (2 * h)
    assert np.max(np.abs(fd - prof.deriv(xs))) < 1e-4


def test_step_derivative_vanishes_outside_bands(kernel):
    prof = StepProfile(0.375, 0.1, kernel)
    xs = np.concatenate([np.linspace(-1, -0.41, 13), np.linspace(-0.29, 0.29, 13),
                         np.linspace(0.41, 1, 13)])
    assert np.max(np.abs(prof.deriv(xs))) == 0.0


def test_step_times_correction_is_plateau_multiple(kernel):
    # correction and delta bands live inside the plateau
    eps = 0.07
    prof = StepProfile(0.42, eps, kernel)
    xs = np.linspace(-4 * eps, 4 * eps, 2001)
    r = eval_correction(xs, eps, kernel)
    assert np.array_equal(prof.value(xs) * r, 0.42 * r)
    d = eval_delta_reg(xs, eps, kernel)
    assert np.array_equal(prof.value(xs) * d, 0.42 * d)


def test_plateau_constant_from_jump_data(kernel):
    # The plateau is the data's: the ansatz on every kernel reads it.
    data = RiemannJumpData(0.0, 2.0, 0.0, 0.5)
    assert data.plateau() == 0.375
    assert data.plateau() == 0.5 - 0.5 / 4.0
    front = solve_front(data, kernel.omega0)
    assert SmoothAnsatz(data, front, kernel).c_effective == data.plateau()
    with pytest.raises(ValueError):
        RiemannJumpData(0.0, 0.0, 0.0, 1.0).plateau()


@given(c=st.floats(-1.0, 2.0), eps=st.floats(1e-3, 0.5))
@settings(max_examples=25)
def test_step_value_range_properties(c, eps):
    prof = StepProfile(c, eps, make_kernel(QUARTIC))
    xs = np.linspace(-5 * eps, 5 * eps, 101)
    vals = prof.value(xs)
    lo, hi = min(0.0, c, 1.0), max(0.0, c, 1.0)
    assert np.all(vals >= lo - 1e-12)
    assert np.all(vals <= hi + 1e-12)


def test_primitive_table_expands_products_in_c(kernel):
    # Summed over powers of c, a product's columns are the weighted product
    # of the profiles at eps = 1; the nodes left out carry zeros only.
    c = 0.3
    y, w = band_quadrature(-4.0, 4.0, (-3.0, -1.0, 1.0, 3.0), 16, _PANEL_NODES[kernel.kind])
    prof = StepProfile(c, 1.0, kernel)
    direct = {
        ("h", "dh"): prof.value(-y) * prof.deriv(-y),
        ("r", "dr"): (eval_correction(y, 1.0, kernel)
                      * eval_correction_dx(y, 1.0, kernel)),
        ("h", "dd"): prof.value(-y) * eval_delta_reg_dx(y, 1.0, kernel),
    }
    table = primitive_table(kernel, tuple((0, product) for product in direct))
    finest = table.rungs[-1]
    kept = np.isin(y, finest.y)
    assert np.array_equal(y[kept], finest.y) and not np.any(kept[(-1 < y) & (y < 1)])
    for product, power in zip(direct, (0.0, -1.0, -1.0)):
        cols = [i for i, (p, _) in enumerate(table.keys) if p == product]
        got = sum(c**table.keys[i][1] * finest.columns[:, i] for i in cols)
        expected = w * direct[product]
        assert np.allclose(got, expected[kept], rtol=1e-13,
                           atol=1e-14 * np.max(np.abs(expected)))
        assert np.all(expected[~kept] == 0.0)
        assert np.all(table.powers[cols] == power)


# The products of the verifier's eight basis rows, each once, in the order
# of its layout and so of its table's columns.
BASIS_PRODUCTS = (("dh",), ("h", "dh"), ("dr",), ("h", "dr"), ("r", "dh"), ("r",),
                  ("r", "dr"), ("dd",), ("d",), ("h", "dd"))


def test_a_table_takes_its_products_from_its_layout_in_order(kernel):
    # One declaration: the verifier's table has a column for each nonzero
    # c^j part of the layout's products, product by product in the
    # layout's order.  R dH has none: its factors' supports only touch.
    table = primitive_table(kernel, _LAYOUT)
    assert tuple(dict.fromkeys(product for _, product in _LAYOUT)) == BASIS_PRODUCTS
    assert tuple(dict.fromkeys(product for product, _ in table.keys)) == tuple(
        product for product in BASIS_PRODUCTS if product != ("r", "dh"))
    assert list(table.keys) == sorted(table.keys, key=lambda key: (
        BASIS_PRODUCTS.index(key[0]), key[1]))
    assert primitive_table(kernel, _LAYOUT) is table


def test_product_columns_at_eps_reproduce_the_table(kernel):
    # On the nodes eps * y with weights eps * w the builder's columns,
    # scaled to eps = 1, are the table's.  At a power of two the scaling is
    # exact but for the half powers of eps.  At eps = 0.3 the node eps * y
    # itself rounds, and the step's ramps amplify that through the kernel's
    # slope: up to 27 ulp of the column's largest entry.
    table = primitive_table(kernel, _LAYOUT)
    finest = table.rungs[-1]
    y, w = band_quadrature(-4.0, 4.0, (-3.0, -1.0, 1.0, 3.0), 16, _PANEL_NODES[kernel.kind])
    kept = np.isin(y, finest.y)
    ulp = np.spacing(np.max(np.abs(finest.columns), axis=0))
    for eps in (*default_eps_grid(), 0.3):
        columns, keys, powers = product_columns(kernel, BASIS_PRODUCTS, eps * y[kept],
                                                eps, eps * w[kept])
        cols = [keys.index(key) for key in table.keys]
        assert np.array_equal(powers[cols], table.powers)
        ulps = 2 if math.frexp(eps)[0] == 0.5 else 32
        assert np.all(np.abs(columns[:, cols] - finest.columns) <= ulps * ulp), eps


def test_rung_choice_per_kernel(kernel):
    # The coarsest rung whose panels at eps, in x, are no longer than one
    # panel at eps = 2^-3: min(16, 2^ceil(log2(8 eps))) panels on the
    # quartic table, every panel at every eps on the exponential one.
    table = primitive_table(kernel, _LAYOUT)
    got = [table.at(eps).panels for eps in (*default_eps_grid(), 0.3)]
    if kernel.kind == QUARTIC:
        assert got == [1] * 10 + [4]
        # the band's four subintervals that carry a product, 10 nodes a panel
        assert [len(table.at(eps).y) for eps in default_eps_grid()] == [40] * 10
    else:
        assert got == [16] * 11
    assert table.at(2.0) is table.rungs[-1]


def test_quartic_rungs_share_the_finest_moments(quartic):
    # The quartic products are polynomials of degree at most 10 on each
    # subinterval, so one panel of 10 nodes already integrates them and
    # their first moments exactly.
    table = primitive_table(quartic, _LAYOUT)
    assert [rung.panels for rung in table.rungs] == [1, 2, 4, 8, 16]
    finest, l1 = table.moments(3)
    for rung in table.rungs:
        for n in range(4):
            moments = rung.y**n @ rung.columns
            assert np.all(np.abs(moments - finest[n]) <= 2e-15 * l1[n]), (rung.panels, n)


def test_quartic_moments_are_exact(quartic):
    # Every quartic column is a piecewise polynomial with rational
    # coefficients, so its moments are exact rationals.  The table's match
    # them to a few ulps of the column's L1 scale, its largest |y|^n @ |column|
    # for n <= 3: at most 2.0 times 2^-52 of it today.
    table = primitive_table(quartic, _LAYOUT)
    moments, scale = table.moments(3)
    exact = {product: exact_quartic_moments(product, 3) for product in BASIS_PRODUCTS}
    for i, (product, j) in enumerate(table.keys):
        bound = 4 * 2.0**-52 * Fraction(float(np.max(scale[:, i])))
        for n in range(4):
            err = abs(Fraction(float(moments[n, i])) - exact[product][j][n])
            assert err <= bound, (product, j, n)
    # A part the table drops vanishes on the band.
    kept = set(table.keys)
    for product, parts in exact.items():
        for j, part in enumerate(parts):
            if (product, j) not in kept:
                assert not any(part), (product, j)


def test_weights_take_each_products_coefficient_times_c_powers(kernel):
    # Row 1 lacks ("dh",) and row 2 is empty: R delta, of disjoint supports,
    # has no column and adds nothing.  c < 0 gives the zeros of odd j a sign.
    layout = ((0, ("dh",)), (0, ("h", "dh")), (1, ("h", "dh")), (2, ("r", "d")))
    table = primitive_table(kernel, layout)
    assert {product for product, _ in table.keys} == {("dh",), ("h", "dh")}
    rows = [{("dh",): 2.0, ("h", "dh"): -3.0}, {("h", "dh"): 0.5}, {}]
    for c in (0.3, -0.3):
        weights = table.weights((2.0, -3.0, 0.5, 7.0), c)
        assert weights.shape == (3, len(table.keys))
        for col, (product, j) in enumerate(table.keys):
            for row, got in zip(rows, weights[:, col].tolist()):
                want = row.get(product, 0.0) * c**j
                assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want))


def test_exact_limits_read_the_table_moments(kernel, monkeypatch):
    # The replay, the averaged product and the Lemma 3.1 suite read every
    # table moment through PrimitiveTable.moments: scaling it scales each
    # of their limits by the same factor.
    free = LinearTrajectory(0.9, 0.2, 0.3, 0.4 + 0.1j, 0.2)
    data = RiemannJumpData(0.0, 2.0, 0.0, 0.5, 0.1, 0.1)
    shock = RiemannJumpData(0.3, 2.0, 0.0, -2.0, 0.0, 1.0)

    def limits():
        lemma = [m for r in verify_lemma31(kernel, 0.375) for m in (r.measured_a, r.measured_b)]
        return [*replay_derivation(data, free, kernel).measured,
                volpert_product_pairing(shock, kernel), *lemma]

    before = limits()
    moments = PrimitiveTable.moments
    monkeypatch.setattr(PrimitiveTable, "moments",
                        lambda self, n: tuple(m * (1 + 1e-3) for m in moments(self, n)))
    # 4 replay coefficients, the averaged product and the 7 lemma
    # coefficients that are not exactly 0, which must stay 0.
    assert all(before[:5]) and sum(map(bool, before[5:])) == 7
    for old, new in zip(before, limits()):
        assert abs(new - (1 + 1e-3) * old) <= 1e-13 * abs(old)
