import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from deltashock import pairing
from deltashock.kernels import (
    BAND_EDGES,
    GAUSS_NODES,
    StepProfile,
    band_quadrature,
    default_eps_grid,
    eval_correction,
    eval_correction_dx,
    eval_delta_reg,
    eval_delta_reg_dx,
    primitive_table,
)
from deltashock.pairing import (
    ORDER_FLOORS,
    ExtractionError,
    LEMMA_FAMILIES,
    NumericsError,
    OrderEstimate,
    Piecewise,
    TestFunction,
    default_test_suite,
    estimate_order,
    extract_point_coeffs,
    extrapolate_limit,
    fit_loglog_slope,
    pair,
    verify_lemma31,
)
from oracle import deriv

WORKED_C = 0.375


def test_test_function_normalization():
    a, b = 0.7, 1.3
    plain = TestFunction(a, b)
    assert plain.value(a) == pytest.approx(1.0, abs=1e-15)
    assert deriv(plain, a) == pytest.approx(0.0, abs=1e-15)
    lin = TestFunction(a, b, "linear-times-bump")
    assert lin.value(a) == pytest.approx(0.0, abs=1e-15)
    assert deriv(lin, a) == pytest.approx(1.0, abs=1e-15)
    for tf in (plain, lin):
        assert tf.value(a - b) == 0.0
        assert tf.value(a + b + 1.0) == 0.0
    with pytest.raises(ValueError):
        TestFunction(0.0, -1.0)
    with pytest.raises(ValueError):
        TestFunction(0.0, 1.0, "sine")


@given(a=st.floats(-2, 2), b=st.floats(0.2, 3.0),
       kind=st.sampled_from(["plain-bump", "linear-times-bump"]),
       y=st.floats(-0.95, 0.95))
@settings(max_examples=40)
def test_test_function_deriv_matches_fd(a, b, kind, y):
    tf = TestFunction(a, b, kind)
    x = a + y * b
    h = 1e-7
    fd = (tf.value(x + h) - tf.value(x - h)) / (2 * h)
    assert abs(fd - deriv(tf, x)) < 1e-5 * max(1.0, abs(deriv(tf, x)))


def test_pair_polynomial_exactness():
    # Gauss-Legendre with 16 nodes integrates degree <= 31 exactly; the
    # test function below is x itself via a polynomial f against phi = 1?
    # phi is not polynomial, so check the quadrature core directly: pair a
    # degree-31 polynomial against a "test function" realized as another
    # polynomial piece through Piecewise * indicator trick is not possible;
    # instead integrate f * phi with phi replaced by a plain bump and
    # compare against adaptive quadrature at tight tolerance.
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=8)
    f = Piecewise(lambda x: np.polyval(coeffs, x), -0.8, 0.9)
    phi = TestFunction(0.0, 1.0)
    ref, _ = quad(lambda x: np.polyval(coeffs, x) * phi.value(x), -0.8, 0.9,
                  epsabs=1e-14, limit=300)
    assert pair(f, phi) == pytest.approx(ref, abs=1e-11)


def test_pair_exact_for_polynomial_times_polynomial_piece():
    # with a single panel, a polynomial integrand of degree <= 31 is exact
    from deltashock.kernels import _gauss_rule

    gauss_x, gauss_w = _gauss_rule()
    assert len(gauss_x) == GAUSS_NODES == 16
    val = float(np.dot(gauss_w, gauss_x**30))
    assert val == pytest.approx(2.0 / 31.0, rel=1e-14)
    assert abs(float(np.dot(gauss_w, gauss_x**31))) < 1e-15
    # band_quadrature applies that rule panel by panel
    xs, ws = band_quadrature(-1.0, 1.0, ())
    val = float(np.dot(ws, xs**30))
    assert val == pytest.approx(2.0 / 31.0, rel=1e-14)
    val31 = float(np.dot(ws, xs**31))
    assert abs(val31) < 1e-15


def test_pair_disjoint_supports_exact_zero():
    f = Piecewise(lambda x: np.ones_like(x), 5.0, 6.0)
    assert pair(f, TestFunction(0.0, 1.0)) == 0.0


def test_pair_sequence_samples_once_and_matches_single_pairs():
    calls = []

    def fn(x):
        calls.append(x.size)
        return np.exp(x) * (1.0 + 0.5j)

    f = Piecewise(fn, -0.5, 2.0, (0.3,))
    tests = (TestFunction(0.2, 1.1), TestFunction(0.2, 1.1, "linear-times-bump"))
    vals = pair(f, tests)
    assert len(calls) == 1
    assert vals.tolist() == [pair(f, tf) for tf in tests]
    disjoint = pair(f, (TestFunction(9.0, 1.0),) * 2)
    assert disjoint.tolist() == [0.0, 0.0]
    with pytest.raises(ValueError):
        pair(f, (TestFunction(0.2, 1.1), TestFunction(0.3, 1.1)))


def test_pair_probes_that_clip_f_to_one_band_sample_it_once():
    # Different supports, each holding f's: every probe clips f to f's own
    # band, so one sampling serves them all, as each pairing alone.
    calls = []

    def fn(x):
        calls.append(x.size)
        return np.cos(3.0 * x) + x

    f = Piecewise(fn, -0.5, 0.7, (0.1,))
    tests = (TestFunction(0.1, 2.0), TestFunction(-0.3, 3.0, "linear-times-bump"),
             TestFunction(0.0, 5.0), TestFunction(0.4, 1.2, "linear-times-bump"))
    vals = pair(f, tests)
    assert len(calls) == 1
    assert vals.tolist() == [pair(f, tf) for tf in tests]
    # one probe that clips f differently still raises
    with pytest.raises(ValueError, match="one band"):
        pair(f, tests + (TestFunction(0.0, 0.6),))


def test_pair_accuracy_on_wide_bump():
    f = Piecewise(lambda x: np.ones_like(x), -math.inf, math.inf)
    phi = TestFunction(0.3, 1.7)
    ref, _ = quad(phi.value, 0.3 - 1.7, 0.3 + 1.7, epsabs=1e-14, limit=300)
    assert abs(pair(f, phi) - ref) < 1e-10


def test_pair_nonfinite_raises():
    f = Piecewise(lambda x: np.where(x > 0.25, 1.0, np.nan), 0.0, 1.0)
    with pytest.raises(NumericsError):
        pair(f, TestFunction(0.5, 0.5))


@given(alpha=st.floats(-3, 3), beta=st.floats(-3, 3))
@settings(max_examples=20)
def test_pair_bilinear(alpha, beta):
    # identical supports so all three pairings share one panel layout
    phi = TestFunction(0.1, 1.2)
    f = TestFunction(-0.2, 0.9)
    g = TestFunction(0.4, 0.6, "linear-times-bump")
    combo = Piecewise(lambda x: alpha * f.value(x) + beta * g.value(x),
                      -1.2, 1.1)
    lhs = pair(combo, phi)
    rhs = (alpha * pair(Piecewise(f.value, -1.2, 1.1), phi)
           + beta * pair(Piecewise(g.value, -1.2, 1.1), phi))
    assert lhs == pytest.approx(rhs, abs=1e-12)


@given(s=st.floats(-2, 2))
@settings(max_examples=20)
def test_pair_translation_covariance(s):
    f = TestFunction(0.0, 0.8, "linear-times-bump")
    phi = TestFunction(0.25, 1.0)
    shifted_f = Piecewise(lambda x: f.value(x - s), -0.8 + s, 0.8 + s)
    lhs = pair(shifted_f, phi)
    rhs = pair(Piecewise(f.value, -0.8, 0.8), phi._replace(center=phi.center - s))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_delta_pairing_near_center_value(quartic):
    # change of variables: <delta_eps, phi> = int omega(y) phi(eps y - 2 eps) dy
    eps = 1e-3
    phi = TestFunction(0.0, 1.0)
    f = Piecewise(lambda x: eval_delta_reg(x, eps, quartic), -3 * eps, -eps)
    val = pair(f, phi)
    assert abs(val - 1.0) < 1e-2
    oracle, _ = quad(lambda y: quartic.value(y) * phi.value(eps * y - 2 * eps),
                     -1, 1, epsabs=1e-13)
    assert val == pytest.approx(oracle, abs=1e-12)


def test_extrapolate_limit_aitken_fallback_geometric_exact():
    # off a geometric grid the limit is iterated Aitken, and
    # v_j = L + C r^j is resolved exactly by one Aitken pass
    grid = (0.5, 0.23, 0.11, 0.052, 0.025, 0.012)
    L, C, r = 0.7, 2.3, 0.5
    vals = [L + C * r**j for j in range(6)]
    assert extrapolate_limit(grid, vals) == pytest.approx(L, abs=1e-12)
    assert extrapolate_limit(grid[:5], [L] * 5) == L
    assert extrapolate_limit(grid[:2], [1.0, 2.0]) == 2.0


def test_extrapolate_limit_half_integer_ladder():
    eps = default_eps_grid()
    L = -0.35
    vals = [L + 0.8 * e**0.5 - 1.7 * e + 0.6 * e**1.5 + 0.2 * e**2 for e in eps]
    assert extrapolate_limit(eps, vals) == pytest.approx(L, abs=1e-10)
    # non-geometric grid falls back to iterated Aitken (coarser)
    grid2 = (0.5, 0.23, 0.11, 0.052, 0.025, 0.012)
    vals2 = [L + 0.3 * e for e in grid2]
    assert extrapolate_limit(grid2, vals2) == pytest.approx(L, abs=1e-3)


def test_estimate_order_sentinel_and_fit():
    eps = default_eps_grid()
    exact = estimate_order(eps, [[1.0] * len(eps)], [1.0])
    assert math.isinf(exact.order[0])
    vals = [2.0 + 3.1 * e**1.5 for e in eps]
    est = estimate_order(eps, [vals], [2.0])
    assert est.order[0] == pytest.approx(1.5, abs=1e-6)
    assert isinstance(est, OrderEstimate)
    with pytest.raises(ValueError, match="stack"):
        estimate_order(eps, vals, 2.0)
    with pytest.raises(ValueError):
        estimate_order((0.1, 0.2, 0.05, 0.01), [[1, 2, 3, 4]], [0.0])
    with pytest.raises(ValueError):
        estimate_order((0.1, 0.05, 0.01), [[1, 2, 3]], [0.0])


def test_loglog_slope_agrees_with_polyfit():
    # The centred sums give polyfit's least-squares line: the slope and the
    # residual sqrt(SSR / n) within 1e-12 relative, on grids of 3 to 10
    # points with noise from 1e-12 to order 1.  Through two points the line
    # is exact and the residual is 0, as polyfit reports none.
    rng = np.random.default_rng(7)
    for n in range(2, 11):
        for noise in (1e-12, 1e-6, 1e-2, 1.0):
            xs = np.sort(rng.uniform(1e-4, 1.0, n))
            ys = 3.0 * xs ** rng.uniform(0.2, 2.5) * np.exp(noise * rng.normal(size=n))
            (slope,), (resid,) = fit_loglog_slope(xs, [ys.tolist()], [0.0])
            coeffs, (ssr, *_) = np.polynomial.polynomial.polyfit(
                np.log(xs), np.log(ys), 1, full=True)
            assert slope == pytest.approx(coeffs[1], rel=1e-12)
            want = math.sqrt(ssr[0] / n) if len(ssr) else 0.0
            assert resid == pytest.approx(want, rel=1e-12, abs=1e-12 * abs(slope))


@st.composite
def _stacked_errors(draw):
    """(eps, errs, floors): a falling eps grid, and errors of zero, below and
    above each series' floor, so that some series keep fewer than two
    points and take the +inf sentinel."""
    eps = sorted(draw(st.lists(st.floats(1e-4, 1.0), min_size=2, max_size=10,
                               unique=True)), reverse=True)
    series = draw(st.integers(1, 6))
    errs = draw(st.lists(
        st.lists(st.one_of(st.just(0.0), st.floats(1e-12, 1e3)),
                 min_size=len(eps), max_size=len(eps)),
        min_size=series, max_size=series))
    floors = draw(st.lists(st.floats(0.0, 1.0), min_size=series, max_size=series))
    return eps, errs, floors


@given(_stacked_errors())
@settings(max_examples=60, deadline=None)
# The two kept eps have equal logs: a nan order, without a warning.
@example(([1.0, 1.0000000000000002e-4, 1e-4], [[0.0, 1.0, 1.0]], [0.0]))
def test_loglog_slope_on_a_stack_equals_each_series_alone(case):
    eps, errs, floors = case
    # Each series fitted as a one-series stack gives the same bits.
    stacked = fit_loglog_slope(eps, errs, floors)
    for i, (row, floor) in enumerate(zip(errs, floors)):
        (order,), (residual,) = fit_loglog_slope(eps, [row], [floor])
        assert repr((order, residual)) == repr((stacked.order[i], stacked.residual[i]))
        if sum(e > floor for e in row) < 2:
            assert stacked.order[i] == order == math.inf
            assert stacked.residual[i] == residual == 0.0
        else:
            assert stacked.order[i] == pytest.approx(order, rel=1e-15, nan_ok=True)
            assert stacked.residual[i] == pytest.approx(residual, rel=1e-15,
                                                        abs=1e-15, nan_ok=True)


def test_loglog_slope_below_two_points_is_exact_with_every_point_kept():
    # One point above the floor is the +inf sentinel of a converged series,
    # whether the floor drops others or, as here, there are no others.
    assert fit_loglog_slope([0.1], [[0.5]], [0.0]) == ((math.inf,), (0.0,))
    assert fit_loglog_slope([0.1, 0.05], [[0.5, 0.0]], [0.0]) == ((math.inf,), (0.0,))
    assert fit_loglog_slope([0.1], [[0.5], [0.0]], [0.0, 0.0]) == ((math.inf,) * 2,
                                                                  (0.0,) * 2)


def test_loglog_slope_of_an_empty_stack_is_empty():
    assert fit_loglog_slope([0.5, 0.25, 0.125], [], []) == OrderEstimate((), ())


def test_loglog_slope_keeps_nan_for_kept_eps_of_equal_logs():
    # Such a series fails the order gates instead of passing as +inf.
    fit = fit_loglog_slope([1.0, 1.0000000000000002e-4, 1e-4], [[0.0, 1.0, 1.0]], [0.0])
    assert math.isnan(fit.order[0]) and fit.residual == (0.0,)


def test_correction_pairing_order_half(quartic, eps_grid):
    # <R, phi> = sqrt(eps) * int omega(y) phi(2 eps + eps y) dy = Theta(sqrt(eps))
    phi = TestFunction(0.0, 1.0)
    vals = []
    for eps in eps_grid:
        f = Piecewise(lambda x, e=eps: eval_correction(x, e, quartic),
                      eps, 3 * eps)
        v = pair(f, phi)
        oracle, _ = quad(lambda y: quartic.value(y) * phi.value(2 * eps + eps * y),
                         -1, 1, epsabs=1e-13)
        assert v == pytest.approx(math.sqrt(eps) * oracle, abs=1e-12)
        vals.append(v)
    est = estimate_order(eps_grid, [vals], [0.0])
    assert est.order[0] == pytest.approx(0.5, abs=0.05)


def test_step_minus_limit_pairing_order_one(quartic, eps_grid):
    # transition bands and plateau have width Theta(eps)
    phi = TestFunction(0.0, 1.0)
    limit_pairing, _ = quad(phi.value, 0.0, 1.0, epsabs=1e-13)
    vals = []
    for eps in eps_grid:
        prof = StepProfile(WORKED_C, eps, quartic)
        f = Piecewise(prof.value, -math.inf, math.inf,
                      (-4 * eps, -3 * eps, 3 * eps, 4 * eps))
        vals.append(abs(pair(f, phi) - limit_pairing))
    est = estimate_order(eps_grid, [vals], [0.0])
    assert est.order[0] >= 0.99


def test_extract_coeffs_correction_dipole(quartic, eps_grid):
    # R dR/dx carries the dipole omega0/2
    from deltashock.kernels import eval_correction_dx

    def family(eps):
        return Piecewise(
            lambda x: eval_correction(x, eps, quartic)
            * eval_correction_dx(x, eps, quartic),
            eps, 3 * eps)

    a_rep, b_rep = extract_point_coeffs(family, 0.0, eps_grid)
    assert abs(a_rep.extrapolated_limit - 0.0) < 1e-6
    assert abs(-b_rep.extrapolated_limit - 0.5 * quartic.omega0) < 1e-6


def test_extract_coeffs_step_times_delta_dx(quartic, eps_grid):
    from deltashock.kernels import eval_delta_reg_dx

    def family(eps):
        prof = StepProfile(WORKED_C, eps, quartic)
        return Piecewise(lambda x: prof.value(x) * eval_delta_reg_dx(x, eps, quartic),
                         -3 * eps, -eps)

    a_rep, b_rep = extract_point_coeffs(family, 0.0, eps_grid)
    assert abs(a_rep.extrapolated_limit) < 1e-6
    assert abs(-b_rep.extrapolated_limit - WORKED_C) < 1e-6


def test_extract_coeffs_zero_family(eps_grid):
    def family(eps):
        return Piecewise(lambda x: np.zeros_like(x), -1.0, 1.0)

    a_rep, b_rep = extract_point_coeffs(family, 0.0, eps_grid)
    assert a_rep.extrapolated_limit == 0.0
    assert -b_rep.extrapolated_limit == 0.0
    assert math.isinf(a_rep.order)


def test_extract_coeffs_nonconvergent_raises(eps_grid):
    def family(eps):
        return Piecewise(lambda x: np.full_like(x, math.sin(1.0 / eps) / eps),
                         -0.5, 0.5)

    with pytest.raises(ExtractionError):
        extract_point_coeffs(family, 0.0, eps_grid)


def test_verify_lemma31_structure_and_serialization(quartic):
    reports = verify_lemma31(quartic, WORKED_C,
                             eps_grid=default_eps_grid(3, 8))
    assert tuple(r.name for r in reports) == LEMMA_FAMILIES
    blob = json.dumps([r.to_json_dict() for r in reports])
    assert "Hddelta" in blob
    rep = reports[4]  # the regularized-delta family
    loaded = json.loads(json.dumps(rep.a_report.to_json_dict()))
    assert loaded["epsilon"] == list(rep.a_report.eps_grid)


def test_verify_lemma31_exponential_kernel(exponential):
    # the smooth kernel family passes the identical suite
    reports = verify_lemma31(exponential, WORKED_C)
    assert all(r.passed for r in reports)
    worst = max(max(abs(r.measured_a - r.expected_a),
                    abs(r.measured_b - r.expected_b)) for r in reports)
    assert worst < 1e-6


@pytest.mark.parametrize("c", [-0.3, 0.25, 0.9])
def test_lemma_products_that_touch_vanish_pointwise(kernel, c):
    # R lives on (1, 3) eps and dH on |y| in (3, 4) eps: RdH is zero, like
    # the two products with the delta, so none of the three has a column in
    # the primitive table.
    reports = {r.name: r for r in verify_lemma31(kernel, c)}
    assert all(r.passed for r in reports.values())
    assert [n for n, r in reports.items() if r.support_disjoint] == [
        "Rdelta", "Rddelta", "RdH"]
    assert reports["RdH"].max_abs_sampled == 0.0


_LEMMA_FACTORS = {"r": eval_correction, "dr": eval_correction_dx, "d": eval_delta_reg,
                  "dd": eval_delta_reg_dx}


def _lemma_integrand(product, kernel, c, eps):
    """The lemma family of ``product`` at eps in x, on the front band.

    Its step H = ``StepProfile`` rises across x0 = 0, as in the lemma, so
    the table's falling h and its dh enter as H(x) and H'(x).
    """
    step = StepProfile(c, eps, kernel)
    factors = {"h": step.value, "dh": step.deriv,
               **{n: (lambda x, f=f: f(x, eps, kernel)) for n, f in _LEMMA_FACTORS.items()}}
    lo, *cuts, hi = (b * eps for b in BAND_EDGES)
    return Piecewise(lambda x: math.prod(factors[n](x) for n in product), lo, hi, tuple(cuts))


_CLIPPING_GRID = (0.5, 0.25, 0.1, 0.05, 0.02, 0.01, 0.004)


@pytest.mark.parametrize("grid", [
    default_eps_grid(), default_eps_grid(2, 9), (0.2, 0.1, 0.05, 0.02, 0.01, 0.004),
    _CLIPPING_GRID], ids=["default", "2-9", "non-dyadic", "clipping"])
def test_one_pass_lemma_pairings_match_per_eps_pairings(kernel, grid):
    # The suite pairs each family's table column in y = x/eps with the
    # probes of every eps.  Each value is the family at that eps paired
    # alone with the probes in x, within 1e-11 of its series' largest
    # value.  The probes are the default suite at phi = 0, so at eps = 1/2
    # they still hold every family's support.
    probes = default_test_suite(np.zeros(1), grid[0])
    for c in (-0.3, 0.25, 0.713880724, 0.9):
        got, *_ = pairing._lemma_pairings(kernel, c, grid)
        want = np.array([
            np.array([pair(_lemma_integrand(product, kernel, c, eps), probes)
                      for eps in grid]).T
            for product in pairing.LEMMA_PRODUCTS])
        assert got.shape == want.shape == (12, 2, len(grid))
        scale = np.max(np.abs(want), axis=-1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-11 * scale), c


@pytest.mark.parametrize("grid", [
    default_eps_grid(), default_eps_grid(2, 9), (0.2, 0.1, 0.05, 0.02, 0.01, 0.004),
    _CLIPPING_GRID], ids=["default", "2-9", "non-dyadic", "clipping"])
def test_lemma_pairings_on_the_ladder_match_the_finest_rung(monkeypatch, quartic, grid):
    # The suite pairs on the table's ladder, 40 nodes at every default eps,
    # and each pairing is within 1.25e-15 of its terms' L1 of the finest
    # rung's.  The largest gap, 1.0e-15, is R2's B at eps = 2^-3 with
    # c = -0.3 (1.24e-15 on 16-node panels, R2's A at eps = 2^-7).
    table = primitive_table(quartic, pairing._LEMMA_LAYOUT)
    _, y, columns = table.rungs[-1]
    probes = default_test_suite(np.zeros(1), grid[0])
    for c in (-0.3, 0.25, 0.713880724, 0.9):
        ladder, *_ = pairing._lemma_pairings(quartic, c, grid)
        with monkeypatch.context() as patched:
            patched.setattr(type(table), "at", lambda self, eps: self.rungs[-1])
            finest, *_ = pairing._lemma_pairings(quartic, c, grid)
        weights = np.abs(table.weights(pairing._LEMMA_COEFFICIENTS, c))
        l1 = np.array([(np.abs([probe.value(eps * y) for probe in probes]) @ np.abs(columns)
                        * eps**table.powers) @ weights.T for eps in grid]).transpose(2, 1, 0)
        assert np.all(np.abs(ladder - finest) <= 1.25e-15 * l1), c


@pytest.mark.parametrize("grid", [default_eps_grid(2, 9), _CLIPPING_GRID],
                         ids=["2-9", "clipping"])
def test_lemma_suite_pairs_every_eps_on_its_rung_half_inside_the_probes(monkeypatch,
                                                                        quartic, grid):
    # At eps_max = 1/4 and 1/2 the probes widen to 1/2 + 4 eps_max, so every
    # family's band [-4 eps, 4 eps] sits at least 1/2 inside their support
    # and every eps pairs on ``table.at(eps)``: with that rung's columns
    # doubled, every pairing doubles exactly.
    table = primitive_table(quartic, pairing._LEMMA_LAYOUT)
    at, suites = type(table).at, []
    doubled = {rung.panels: rung._replace(columns=2.0 * rung.columns) for rung in table.rungs}

    def recorded(*args):
        suite, values = pair_table(*args)
        suites.append(suite)
        return suite, values

    pair_table = pairing.pair_table
    monkeypatch.setattr(pairing, "pair_table", recorded)
    values, *_ = pairing._lemma_pairings(quartic, WORKED_C, grid)
    ((plain, linear),) = suites
    assert plain.support == linear.support == (-0.5 - 4 * grid[0], 0.5 + 4 * grid[0])
    for eps in grid:
        lo, hi = plain.support
        assert lo + 0.5 <= -4 * eps and 4 * eps + 0.5 <= hi
    monkeypatch.setattr(type(table), "at", lambda self, eps: doubled[at(self, eps).panels])
    twice, *_ = pairing._lemma_pairings(quartic, WORKED_C, grid)
    assert np.array_equal(twice, 2.0 * values)
    assert len({at(table, eps).panels for eps in grid}) > 1


def test_coarse_eps_widens_the_probes_over_every_family(quartic):
    # At eps = 1/2 probes of halfwidth 1 would clip most families; they
    # widen to 1/2 + 4 eps_max = 2.5 and hold every family, so the suite
    # runs to its verdict.  Against the table's exact limits every family passes
    # even on so coarse a grid; the slowest series is dR's B channel, whose
    # order sits just above its floor.
    reports = verify_lemma31(quartic, WORKED_C, eps_grid=_CLIPPING_GRID)
    assert all(r.passed for r in reports)
    orders = [o for r in reports for o in (r.a_report.order, r.b_report.order)
              if math.isfinite(o)]
    dr = reports[LEMMA_FAMILIES.index("dR")]
    assert min(orders) == dr.b_report.order
    assert ORDER_FLOORS["correction"] <= dr.b_report.order < 0.5
    assert max(orders) < 2.01


def test_a_lemma_family_without_a_limit_names_itself(quartic, ddelta_without_limit):
    # The suite reads its limits from the table's moments, and a family
    # whose term of negative eps power does not cancel has none.
    with pytest.raises(ExtractionError, match=r"^lemma family ddelta: its eps\^-1 term is "
                                              r"1\.000e-06 against .*, so it has no limit$"):
        verify_lemma31(quartic, WORKED_C)


def test_lemma_suite_pairs_each_family_once_and_fits_once(monkeypatch, quartic):
    pairs, fits = [], []

    def counted_pair(f, phi):
        pairs.append(len(phi))
        return pair(f, phi)

    def counted_fit(eps, errs, floors):
        fits.append(np.shape(errs))
        return fit_loglog_slope(eps, errs, floors)

    monkeypatch.setattr(pairing, "pair", counted_pair)
    monkeypatch.setattr(pairing, "fit_loglog_slope", counted_fit)
    reports = verify_lemma31(quartic, WORKED_C)
    assert all(r.passed for r in reports)
    assert pairs == []
    assert fits == [(24, 5)]


def test_verify_lemma31_grid_validation(quartic):
    with pytest.raises(ValueError):
        verify_lemma31(quartic, WORKED_C, eps_grid=(0.5, 0.4, 0.3))
    with pytest.raises(ValueError):
        verify_lemma31(quartic, WORKED_C, eps_grid=(0.5, 0.4, 0.35, 0.3))


def test_default_eps_grid_shape():
    grid = default_eps_grid()
    assert grid[0] == 2.0**-3 and grid[-1] == 2.0**-12
    assert all(a > b for a, b in zip(grid, grid[1:]))
    with pytest.raises(ValueError):
        default_eps_grid(5, 5)


@pytest.mark.parametrize("grid,named", [
    ((1.0, 0.5, 0.1, 0.0), "eps[3] = 0.0 after 0.1"),
    ((1.0, 0.5, 0.1, -0.01), "eps[3] = -0.01 after 0.1"),
    ((0.01, 0.1, 0.002, 0.001), "eps[1] = 0.1 after 0.01"),
    ((1.0, 0.5, 0.5, 0.1), "eps[2] = 0.5 after 0.5"),
    ((math.inf, 1.0, 0.1, 0.01), "eps[0] = inf"),
    ((1.0, math.nan, 0.1, 0.01), "eps[1] = nan after 1.0"),
], ids=["zero", "negative", "increasing", "repeated", "inf", "nan"])
def test_lemma_suite_rejects_a_bad_eps_grid_naming_it(quartic, grid, named):
    # eps = 0 used to raise ZeroDivisionError, and a negative eps the
    # probes' "halfwidth must be positive".  The message names the first
    # bad value, its index and the value before it.
    with pytest.raises(ValueError, match=r"^eps grid must be positive, finite and strictly "
                                         rf"decreasing: {re.escape(named)}$"):
        verify_lemma31(quartic, WORKED_C, eps_grid=grid)
