import contextlib
import json
import math
import random
import re
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from deltashock import default_eps_grid, kernels, pairing, verifier
from deltashock.ansatz import RiemannJumpData, SmoothAnsatz
from deltashock.dynamics import (
    FrontTrajectory,
    LinearTrajectory,
    overcompressivity,
    solve_front,
)
from deltashock.kernels import (
    PROFILE_EPS_POWERS,
    StepProfile,
    band_quadrature,
    default_t_grid,
    exp_bump,
)
from deltashock.pairing import (
    LINEAR_BUMP,
    PLAIN_BUMP,
    ExtractionError,
    NumericsError,
    TestFunction,
    _test_values,
    default_test_suite,
    extract_point_coeffs,
    pair,
    pair_table,
)
from deltashock.verifier import (
    _series_verdicts,
    replay_derivation,
    residual_integrand,
    sample_admissible_data,
    verify_weak_solution,
)
from oracle import (
    Exact,
    Qp,
    closed_form_coefficients,
    equation_orders,
    exact_quartic_moments,
    replay_closed_forms,
)


def test_constant_state_has_zero_residuals(quartic):
    # no jumps at all: the ansatz is a constant exact solution
    data = RiemannJumpData(0.7, 0.0, -0.3, 0.0, 0.0, 0.2)
    traj = LinearTrajectory(0.4)
    ansatz = SmoothAnsatz(data, traj, quartic, c=0.0)
    xs = np.linspace(-2, 2, 401)
    for equation in ("u", "sigma"):
        res = residual_integrand(ansatz, 0.2, equation, 0.5, 0.1)
        assert np.max(np.abs(res(xs))) == 0.0


def test_residual_supported_in_bands(worked_ansatz, worked_data):
    t, eps = 0.6, 0.05
    front = float(worked_ansatz.front.phi(t))
    outside = np.array([front - 4.1 * eps, front + 4.1 * eps, front - 2.0,
                        front + 2.0])
    inside = np.linspace(front - 4 * eps, front + 4 * eps, 801)
    for equation in ("u", "sigma"):
        res = residual_integrand(worked_ansatz, worked_data.k, equation, t, eps)
        assert np.max(np.abs(res(outside))) == 0.0
        assert np.max(np.abs(res(inside))) > 0.0


def test_sigma_residual_k_dependence_is_pointwise(worked_ansatz):
    # residual(k) - residual(0) = -k^2 du/dx at every point
    t, eps = 0.4, 0.08
    front = float(worked_ansatz.front.phi(t))
    xs = np.linspace(front - 4 * eps, front + 4 * eps, 501)
    _, u_x, _, _ = worked_ansatz.eval_derivatives(xs, t, eps)
    diff = (residual_integrand(worked_ansatz, 0.3, "sigma", t, eps)(xs)
            - residual_integrand(worked_ansatz, 0.0, "sigma", t, eps)(xs))
    assert np.max(np.abs(diff + 0.3**2 * u_x)) < 1e-12


def test_worked_reports_pass(worked_report, worked_report_k0):
    assert worked_report.passed
    assert worked_report_k0.passed
    assert "PASS" in worked_report.summary_line()
    blob = json.dumps(worked_report.to_json_dict())
    assert "max_pairing_over_t" in blob


def test_worked_report_orders(worked_report, worked_report_k0):
    for report, u_floor, s_floor in ((worked_report, 0.45, 0.9),
                                     (worked_report_k0, 0.45, 0.9)):
        assert min(equation_orders(report, "u")) >= u_floor
        assert min(equation_orders(report, "sigma")) >= s_floor


def test_wrong_speed_fails_verification(worked_data, quartic, eps_grid):
    # front speed off by 0.1: the velocity residual pairing tends to a
    # nonzero multiple of the test value at the front
    good = solve_front(worked_data, quartic.omega0)
    bad = LinearTrajectory(good.phi_dot + 0.1, good.e0, good.e_rate,
                           complex(good.p(0.0)),
                           complex(good.p(1.0)) - complex(good.p(0.0)))
    ansatz = SmoothAnsatz(worked_data, bad, quartic)
    report = verify_weak_solution(ansatz, worked_data.k,
                                  t_grid=np.linspace(0.0, 1.0, 9),
                                  eps_grid=eps_grid)
    assert not report.passed
    bad_series = [s for s in report.series if not s.passed]
    assert any(s.equation == "u" for s in bad_series)
    assert "FAIL" in report.summary_line()
    named = bad_series[0]
    assert (f"eps={named.eps_grid[-1]:g} t={named.worst_t:g}"
            in report.summary_line())
    # the limiting point-mass coefficient is the jump times the offset
    res = replay_derivation(worked_data, bad, quartic)
    assert res.measured[0] == pytest.approx(worked_data.u1 * 0.1, abs=1e-4)


def _per_cell(ansatz, system_k, suite, t_grid, eps_grid):
    """Reference: one ``pair`` call per (eps, equation, test function, t).

    Also returns, per cell, the L1 norm sum |w f phi| of that quadrature sum,
    the scale its rounding error is measured against.
    """
    shape = (len(eps_grid), 2, len(suite), len(t_grid))
    vals, l1 = np.zeros(shape, dtype=complex), np.zeros(shape)
    for idx in np.ndindex(shape):
        eps, phi_test = eps_grid[idx[0]], suite[idx[2]]
        f = residual_integrand(ansatz, system_k, ("u", "sigma")[idx[1]],
                               t_grid[idx[3]], eps)
        samples = []  # the integrand samples pair takes, reused for L1
        vals[idx] = pair(replace(f, fn=lambda x, f=f: samples.append(f.fn(x))
                                 or samples[-1]), phi_test)
        if samples:
            lo, hi = max(f.lo, phi_test.support[0]), min(f.hi, phi_test.support[1])
            xs, ws = band_quadrature(lo, hi, f.breaks)
            l1[idx] = np.sum(np.abs(ws * samples[0] * phi_test.value(xs)))
    return vals, l1


def _residual_pairings(ansatz, system_k, times, eps_grid, suite):
    """The engine's pairings of the residuals' expansion, as complex ``[eps,
    equation, test function, time]``, with the test functions it places:
    ``suite``.  The engine pairs the real view of the weights, rows
    (equation, Re/Im), into ``[time, test function, eps, row]``."""
    table, phi, weights = verifier._expansion(ansatz, system_k, times)
    placed, pairings = pair_table(table, weights.view(float), phi, eps_grid,
                                  lambda *cell: f"residual pairing at {cell}")
    assert placed == suite
    assert pairings.shape == (len(times), 2, len(eps_grid), 4)
    return pairings.view(complex).transpose(2, 3, 1, 0)


def _assert_matches_per_cell(ansatz, system_k, t_grid, eps_grid, report=None):
    """Moment-table pairings with the default suite agree with the per-cell
    loop to 1e-12 of L1.

    With a report, its verdicts and worst times must equal those of the loop.
    """
    suite = default_test_suite(ansatz.front.phi(t_grid), max(eps_grid))
    ref, l1 = _per_cell(ansatz, system_k, suite, t_grid, eps_grid)
    got = _residual_pairings(ansatz, system_k, t_grid, eps_grid, suite)
    assert np.all(np.abs(got - ref) <= 1e-12 * l1)
    if report is not None:
        assert ([(s.worst_t_per_eps, s.passed) for s in report.series]
                == _loop_verdicts(ref, t_grid, eps_grid))


def _loop_verdicts(ref, t_grid, eps_grid):
    """(worst_t_per_eps, passed) of every report series, from reference cells."""
    expected = []
    for i_eq in range(2):
        for i_phi in range(ref.shape[2]):
            cells = ref[:, i_eq, i_phi]
            for mags in (np.abs(cells.real), np.abs(cells.imag)):
                worst = np.argmax(mags, axis=-1)
                maxima = [float(m[i]) for m, i in zip(mags, worst)]
                expected.append((tuple(float(t_grid[i]) for i in worst),
                                 bool(_series_verdicts(eps_grid, [maxima])[2][0])))
    return expected


def test_batched_pairing_equals_per_cell_loop(worked_report, worked_report_k0,
                                              worked_ansatz, worked_ansatz_k0):
    for report, ansatz in ((worked_report, worked_ansatz),
                           (worked_report_k0, worked_ansatz_k0)):
        _assert_matches_per_cell(ansatz, report.system_k, default_t_grid(),
                                 default_eps_grid(), report)
        for s, blob in zip(report.series, report.to_json_dict()["series"]):
            assert s.worst_t == s.worst_t_per_eps[-1] == blob["worst_t"]
            assert blob["worst_t_per_eps"] == list(s.worst_t_per_eps)
        assert report.passed


def test_batched_pairing_equals_per_cell_loop_exponential(worked_data, exponential):
    ansatz = SmoothAnsatz(worked_data, solve_front(worked_data, exponential.omega0),
                          exponential)
    eps_grid = default_eps_grid(3, 7)
    report = verify_weak_solution(ansatz, worked_data.k, eps_grid=eps_grid)
    _assert_matches_per_cell(ansatz, worked_data.k, default_t_grid(), eps_grid, report)


# eps_max = 0.3 halved 7 times: eps * y differs in the last bits from the
# nodes band_quadrature gives on [-4 eps, 4 eps], on which pair sums.
NON_DYADIC_EPS = tuple(0.3 * 0.5**j for j in range(8))


def test_non_dyadic_grid_moves_table_nodes(kernel):
    table = kernels.primitive_table(kernel, ((0, ("r",)), (0, ("d",))))
    moved = [eps for eps in NON_DYADIC_EPS
             if not np.isin(eps * table.rungs[-1].y,
                            band_quadrature(-4 * eps, 4 * eps,
                                            (-3 * eps, -eps, eps, 3 * eps))[0]).all()]
    assert moved == list(NON_DYADIC_EPS)


def test_table_pairing_equals_per_cell_loop_non_dyadic(worked_data, kernel):
    ansatz = SmoothAnsatz(worked_data, solve_front(worked_data, kernel.omega0), kernel)
    report = verify_weak_solution(ansatz, worked_data.k, eps_grid=NON_DYADIC_EPS)
    _assert_matches_per_cell(ansatz, worked_data.k, default_t_grid(), NON_DYADIC_EPS,
                             report)


def test_replay_pairing_equals_per_cell_loop(worked_data, kernel):
    # A free trajectory with imaginary p and a nonzero p rate exercises the
    # p, p_dot and p^2 rows with complex coefficients.
    traj = LinearTrajectory(0.7, -0.2, 0.3, 0.4j, 0.2 + 0.1j)
    ansatz = SmoothAnsatz(worked_data, traj, kernel)
    for eps_grid in (default_eps_grid(), NON_DYADIC_EPS,
                     tuple(eps / 3 for eps in NON_DYADIC_EPS)):
        _assert_matches_per_cell(ansatz, worked_data.k, [1.0], eps_grid)


# e(t) = 0.1 - 0.2 t reaches 2.8e-17 at t = 0.5 on the default grid (see
# test_pinned_verdict_next_to_amplitude_zero): pairings of about 1e7.
NEAR_ZERO_AMPLITUDE = RiemannJumpData(0.0, 2.0, 0.0, 0.5, 0.1, 0.40311288741492746)


def _sign_changing_data():
    """The third data set of ``default_rng(2024)`` (k = 0.5): e(t) turns
    negative at t = 0.158, inside the default time grid."""
    rng = np.random.default_rng(2024)
    data = [sample_admissible_data(rng, k) for k in (0.0, 0.1, 0.5)][-1]
    rate = data.sigma1**2 / data.u1 - data.k**2 * data.u1
    assert data.e0 > 0.0 > data.e0 + rate
    return data


@pytest.mark.parametrize("data", [NEAR_ZERO_AMPLITUDE, _sign_changing_data()],
                         ids=["amplitude-near-zero", "amplitude-changes-sign"])
def test_split_contraction_equals_per_cell_loop_where_p_turns_imaginary(data, kernel):
    # p is real while e(t) > 0 and imaginary after, so both halves of the
    # complex coefficients, contracted as real columns, carry the pairings.
    ansatz = SmoothAnsatz(data, solve_front(data, kernel.omega0), kernel)
    t_grid = default_t_grid()
    p = ansatz.front.p(t_grid)
    assert np.any(p.imag == 0.0) and np.any(p.imag > 0.0)
    report = verify_weak_solution(ansatz, data.k)
    _assert_matches_per_cell(ansatz, data.k, t_grid, default_eps_grid(), report)


def test_default_grids_are_shared_and_read_only(worked_ansatz, worked_data):
    # A verdict with default arguments equals, bit for bit, one given the
    # default grids explicitly; the time grid it shares cannot be written.
    shared = verifier._DEFAULT_T_GRID
    assert shared.tobytes() == default_t_grid().tobytes()
    assert verifier._DEFAULT_EPS_GRID == default_eps_grid()
    assert not shared.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        shared[0] = 1.0
    default = verify_weak_solution(worked_ansatz, worked_data.k)
    explicit = verify_weak_solution(worked_ansatz, worked_data.k, t_grid=default_t_grid(),
                                    eps_grid=default_eps_grid())
    assert repr(default) == repr(explicit)


def _record_blocks(monkeypatch):
    """The numbers of eps and of time rows of every block a verdict pairs."""
    rows, fill = [], pairing._test_values

    def recorded(psi, *args):
        rows.append(psi.shape[1:3])  # (modulation, eps, time row, node)
        return fill(psi, *args)

    monkeypatch.setattr(pairing, "_test_values", recorded)
    return rows


def test_default_verdict_fills_the_rungs_nodes(monkeypatch, worked_ansatz, worked_data):
    # A count that needs no timer: each modulation of a default quartic
    # verdict takes 33 times the one-panel rung's 40 nodes at each of the
    # ten eps, in one call, where the finest rung at every eps would take
    # 33 x 10 x 640.
    nodes, fill = [], pairing._test_values

    def counted(psi, *args):
        nodes.append(psi[1].size)
        return fill(psi, *args)

    monkeypatch.setattr(pairing, "_test_values", counted)
    verify_weak_solution(worked_ansatz, worked_data.k)
    assert nodes == [33 * 10 * 40]


def test_default_verdict_blocks_per_kernel(monkeypatch, worked_data, kernel):
    # Consecutive eps on one rung share a block as long as it fits the
    # buffer of 33 times of the finest rung: on the quartic table every
    # default eps takes the one-panel rung, 1/16 of the finest, so the ten
    # eps are one block; the exponential table has the finest rung alone,
    # so each eps is a block of its own.  The Lemma 3.1 suite goes through
    # the same engine at one time, and its ten eps fit one block on both.
    ansatz = SmoothAnsatz(worked_data, solve_front(worked_data, kernel.omega0), kernel)
    blocks = _record_blocks(monkeypatch)
    verify_weak_solution(ansatz, worked_data.k)
    verdict = blocks[:]
    blocks.clear()
    pairing.verify_lemma31(kernel, ansatz.c_effective)
    if kernel.kind == kernels.QUARTIC:
        assert (verdict, blocks) == ([(10, 33)], [(10, 1)])
    else:
        assert (verdict, blocks) == ([(1, 33)] * 10, [(10, 1)])


def test_default_verdict_fits_its_series_once(monkeypatch, worked_ansatz, worked_data):
    # The eight series are fitted in one pass: one fit_loglog_slope call on
    # the stack [series, eps].
    stacks, fit = [], verifier.fit_loglog_slope

    def counted(eps, errs, floors):
        stacks.append(np.shape(errs))
        return fit(eps, errs, floors)

    monkeypatch.setattr(verifier, "fit_loglog_slope", counted)
    verify_weak_solution(worked_ansatz, worked_data.k)
    assert stacks == [(8, 10)]


def test_default_verdict_evaluates_the_amplitude_once(monkeypatch, worked_ansatz,
                                                     worked_data):
    # One front evaluation per verdict: e over the time grid once, p from
    # that e and p_dot from that p, where e, p and p_dot called in turn
    # evaluate e three times.
    grids, e = [], FrontTrajectory.e

    def counted(self, t):
        grids.append(np.shape(t))
        return e(self, t)

    monkeypatch.setattr(FrontTrajectory, "e", counted)
    verify_weak_solution(worked_ansatz, worked_data.k)
    assert grids == [default_t_grid().shape]


def test_second_verdict_builds_no_table(monkeypatch, worked_ansatz, worked_data,
                                        worked_data_k0):
    # A kernel's table of the verdict's layout, with its weight index, is
    # built once: a second verdict, with other data, builds none.
    builds, build = [], kernels.PrimitiveTable.__init__

    def counted(self, rungs, keys, powers, layout):
        builds.append(layout)
        build(self, rungs, keys, powers, layout)

    monkeypatch.setattr(kernels.PrimitiveTable, "__init__", counted)
    kernels.primitive_table.cache_clear()
    verify_weak_solution(worked_ansatz, worked_data.k)
    assert builds == [verifier._LAYOUT]
    builds.clear()
    kernel = worked_ansatz.kernel
    other = SmoothAnsatz(worked_data_k0, solve_front(worked_data_k0, kernel.omega0), kernel)
    verify_weak_solution(other, 0.0)
    assert builds == []


def test_verdict_spanning_several_blocks_equals_per_cell_loop(monkeypatch, worked_ansatz,
                                                              worked_data):
    # 108 times are two full blocks of 52, the times of the budget's nodes
    # on the quartic table's finest rung of 640, and one of 4, each of all
    # five eps.
    eps_grid, t_grid = default_eps_grid(3, 7), np.linspace(0.0, 1.0, 108)
    blocks = _record_blocks(monkeypatch)
    report = verify_weak_solution(worked_ansatz, worked_data.k, t_grid=t_grid,
                                  eps_grid=eps_grid)
    assert blocks == [(5, 52), (5, 52), (5, 4)]
    _assert_matches_per_cell(worked_ansatz, worked_data.k, t_grid, eps_grid, report)
    # one time per block
    monkeypatch.setattr(pairing, "_BLOCK_NODES", 1)
    single = verify_weak_solution(worked_ansatz, worked_data.k, t_grid=t_grid,
                                  eps_grid=eps_grid)
    assert ([(s.worst_t_per_eps, s.passed) for s in single.series]
            == [(s.worst_t_per_eps, s.passed) for s in report.series])
    assert blocks[-len(t_grid):] == [(5, 1)] * len(t_grid)


def test_test_values_are_test_function_values_bitwise():
    # The values at offsets z from the centre are exp_bump(z / h, lift=1)
    # and z times that, bit for bit.  Inside a support 1 - y^2 >= 2e-3, so
    # exp does not underflow.  At z = +-h, y = +-1 exactly, which takes
    # exp_bump's masked path, as do offsets outside.  For h = 0.29, z / h and
    # z * (1/h) differ, so the order of operations shows.
    y = np.random.default_rng(0).uniform(-0.999, 0.999, 400)
    for halfwidth in (0.25, 0.29):
        inside = halfwidth * y
        edges = [-halfwidth, halfwidth]
        outside = np.array([-1e3, -0.5, 1.01 * halfwidth, 1.5])
        for z in (inside, inside.reshape(8, 50),
                  np.concatenate([inside, edges, outside])):
            psi = np.empty((2, *z.shape))
            psi[1] = z
            with np.errstate(all="raise"):
                _test_values(psi, halfwidth)
                bump = exp_bump(z / halfwidth, lift=1.0)
            assert psi.tobytes() == np.array([bump, z * bump]).tobytes()


def _long_double_pairings(ansatz, system_k, times, eps_grid, center, halfwidth):
    """Reference whole-band pairings with the plain and the linear bump on
    one support, and the L1 of their terms, as ``[eps, equation, modulation,
    time]``.

    The products are tabulated on 32 panels per subinterval, twice the
    finest rung, and the test functions are evaluated and every sum taken
    in long double, at offsets from the centre.  The L1 is the sum of
    |psi w f| over every node and column, times eps^a and the moduli of the
    per-time coefficients.
    """
    table, phi, weights = verifier._expansion(ansatz, system_k, times)
    products = tuple(dict.fromkeys(product for product, _ in table.keys))
    y, w = band_quadrature(-4.0, 4.0, (-3.0, -1.0, 1.0, 3.0), 32)
    columns, keys, _ = kernels.product_columns(ansatz.kernel, products, y, 1.0, w)
    columns = columns[:, [keys.index(key) for key in table.keys]]
    ld = np.longdouble
    y, exact = y.astype(ld), columns.astype(ld)
    shape = (len(eps_grid), 2, 2, len(times))
    ref, l1 = np.zeros(shape, dtype=np.clongdouble), np.zeros(shape)
    for i, eps in enumerate(eps_grid):
        powers = ld(eps) ** table.powers.astype(ld)
        z = (phi.astype(ld) - ld(center))[:, None] + ld(eps) * y
        q = 1 - (z / ld(halfwidth)) ** 2
        bump = np.where(q > 0, np.exp(1 - 1 / np.where(q > 0, q, 1)), 0)
        psi = np.stack([bump, z * bump])
        terms = np.dot(psi, exact) * powers  # np.dot: twice matmul's speed here
        scale = (np.abs(psi).astype(float) @ np.abs(columns)) * powers.astype(float)
        for e, coeffs in enumerate(weights.transpose(2, 0, 1)):  # [equation, time, column]
            ref[i, e] = np.sum(terms * coeffs.astype(np.clongdouble), axis=-1)
            l1[i, e] = np.sum(scale * np.abs(coeffs), axis=-1)
    return ref, l1


def _long_double_cells(kernel, eps_grid):
    """Whole-band pairings at the default times on 10 seeded data sets, with
    the long-double reference and its L1, per data set."""
    rng = np.random.default_rng(2024)
    times = default_t_grid()
    for i in range(10):
        data = sample_admissible_data(rng, (0.0, 0.1, 0.5)[i % 3])
        ansatz = SmoothAnsatz(data, solve_front(data, kernel.omega0), kernel)
        suite = default_test_suite(ansatz.front.phi(times), max(eps_grid))
        assert [tf.modulation for tf in suite] == [PLAIN_BUMP, LINEAR_BUMP]
        got = _residual_pairings(ansatz, data.k, times, eps_grid, suite)
        yield (got, *_long_double_pairings(ansatz, data.k, times, eps_grid,
                                           suite[0].center, suite[0].halfwidth))


def _assert_matches_long_double(kernel, eps_grid):
    """Whole-band pairings at the default times on 10 seeded data sets are
    within 1e-15 of their terms' L1 of the long-double reference."""
    for i, (got, ref, l1) in enumerate(_long_double_cells(kernel, eps_grid)):
        assert np.all(np.abs(got - ref).astype(float) <= 1e-15 * l1), i


def test_whole_band_pairings_match_a_long_double_reference(quartic):
    # The one-panel rung that every default eps takes loses no accuracy:
    # every whole-band pairing is within 1e-15 of its terms' L1 of the
    # reference.  Offsets phi(t) + eps y from which the centre is subtracted
    # afterwards round at the ulp of phi(t), at t = 1/2 where phi(t) is the
    # centre 1.9e-14 of L1 on one rung of 40 nodes.
    _assert_matches_long_double(quartic, default_eps_grid())


def test_eight_node_panels_miss_the_long_double_bound(monkeypatch, quartic):
    # Why a quartic panel has 10 nodes: the products need 6, but at
    # eps = 2^-3 the one-panel rung also spans the test function across the
    # band.  Panels of leggauss(8) then sit up to 5.5e-12 of L1 from the
    # reference, and the table's 10 nodes hold 1e-15.
    eps_grid = (2.0**-3,)
    _assert_matches_long_double(quartic, eps_grid)
    nodes, weights = np.polynomial.legendre.leggauss(8)
    monkeypatch.setitem(kernels._GAUSS_HALF, 8, tuple(zip(nodes[4:], weights[4:])))
    monkeypatch.setitem(kernels._PANEL_NODES, kernels.QUARTIC, 8)
    kernels.primitive_table.cache_clear()
    try:
        # one panel on (-3, -1), the one subinterval of dd
        assert len(kernels.primitive_table(quartic, ((0, ("dd",)),)).at(eps_grid[0]).y) == 8
        gaps = [np.max(np.abs(got - ref).astype(float) / l1)
                for got, ref, l1 in _long_double_cells(quartic, eps_grid)]
    finally:
        kernels.primitive_table.cache_clear()
        kernels._gauss_rule.cache_clear()
    assert max(gaps) > 1e-12


def test_coarse_eps_rungs_match_a_long_double_reference(quartic, worked_ansatz):
    # The rungs of 8, 4, 4, 2 and 1 panels serve these eps; they resolve
    # the test function across bands up to 8 wide as well.
    eps_grid = (1.0, 0.5, 0.3, 0.2, 0.125)
    table = verifier._expansion(worked_ansatz, 0.0, 0.0)[0]
    assert [table.at(eps).panels for eps in eps_grid] == [8, 4, 4, 2, 1]
    _assert_matches_long_double(quartic, eps_grid)


def test_eps_above_one_takes_the_finest_rung_and_matches_a_long_double_reference(
        quartic, worked_ansatz):
    # The counter-example to a one-panel ladder: with every eps on one panel
    # per subinterval, the pairings at eps = 8 sit 6.6e-11 of L1 from the
    # reference, as 16 nodes then span the test function across a band 64
    # wide.  The finest rung, which every eps here takes, holds 1e-15.
    eps_grid = (8.0, 6.0, 4.0, 3.0)
    table = verifier._expansion(worked_ansatz, 0.0, 0.0)[0]
    assert [table.at(eps).panels for eps in eps_grid] == [16] * 4
    _assert_matches_long_double(quartic, eps_grid)


def _traced_peak(fn):
    """Peak bytes traced while ``fn`` runs, above what was traced before."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_verdict_memory_is_capped_by_the_block_buffer(worked_ansatz, worked_data):
    # One buffer per verdict holds a block's test-function values: 2 x 52
    # times x 640 nodes, 520 KiB on the quartic table.  Uncapped, 1025
    # times would hold 16 MiB of them; only the result arrays, the moments
    # and the complex pairings, may grow with the number of times.
    k = worked_data.k
    verify_weak_solution(worked_ansatz, k)  # builds the table outside the trace
    assert _traced_peak(lambda: verify_weak_solution(worked_ansatz, k)) < 1 << 20
    table = verifier._expansion(worked_ansatz, k, 0.0)[0]
    times, cells = 1025, len(default_eps_grid()) * 2  # eps x test functions
    results = cells * times * (len(table.keys) * 8 + 2 * 16)
    t_grid = np.linspace(0.0, 1.0, times)
    peak = _traced_peak(lambda: verify_weak_solution(worked_ansatz, k, t_grid=t_grid))
    assert peak - results < 2 << 20


def test_front_far_from_origin_passes_on_default_grids(quartic):
    # u0 = 999.25 puts phi(t_max) at 1e3; one ulp of it is 1.1e-13, far
    # below the resolution limit at eps = 2^-12.
    data = RiemannJumpData(999.25, 2.0, 0.0, 0.5, 0.1, 0.1)
    front = solve_front(data, quartic.omega0)
    assert float(front.phi(1.0)) == 1e3
    assert verify_weak_solution(SmoothAnsatz(data, front, quartic), data.k).passed


@pytest.mark.parametrize("factor,outcome", [
    (1.01, contextlib.nullcontext()),
    (0.99, pytest.raises(NumericsError,
                         match=r"\|phi\(t\)\| = 1000 swamps eps = 1\.1\d+e-05")),
], ids=["above", "below"])
def test_front_resolution_threshold(quartic, factor, outcome):
    # The smallest eps just above and just below the one at which an ulp of
    # |phi| = 1e3 is the resolution fraction of it.
    data = RiemannJumpData(999.25, 2.0, 0.0, 0.5, 0.1, 0.1)
    ansatz = SmoothAnsatz(data, solve_front(data, quartic.omega0), quartic)
    eps_grid = (0.125, factor * np.spacing(1e3) / pairing._NODE_RESOLUTION)
    with outcome:
        verify_weak_solution(ansatz, data.k, t_grid=np.linspace(0.0, 1.0, 5),
                             eps_grid=eps_grid)


def _record_profile_calls(monkeypatch, record):
    """Call ``record(name)`` on every profile and pointwise-field evaluation."""
    def counted(name, fn):
        def wrapper(*args, **kwargs):
            record(name)
            return fn(*args, **kwargs)
        return wrapper

    for owner, name in ((StepProfile, "value"), (StepProfile, "deriv"),
                        (SmoothAnsatz, "eval_fields"),
                        (SmoothAnsatz, "eval_derivatives")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    modules = [m for n, m in sys.modules.items() if n.startswith("deltashock.")]
    for name in ("eval_correction", "eval_correction_dx", "eval_delta_reg",
                 "eval_delta_reg_dx"):
        fn = getattr(kernels, name)
        for module in modules:
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted(name, fn))


def test_default_verdict_evaluates_profiles_once_per_kernel(monkeypatch, worked_ansatz,
                                                            worked_data):
    # The six profiles are evaluated once per kernel, on the primitive
    # table's nodes in y, and never through the pointwise field evaluators:
    # a second verdict with the same kernel evaluates no profile at all.
    calls = Counter()
    _record_profile_calls(monkeypatch, lambda name: calls.update([name]))
    kernels.primitive_table.cache_clear()
    verify_weak_solution(worked_ansatz, worked_data.k)
    # the step at c = 0 and at c = 1 gives h = h0 + c h1
    assert dict(calls) == {"value": 2, "deriv": 2, "eval_correction": 1,
                           "eval_correction_dx": 1, "eval_delta_reg": 1,
                           "eval_delta_reg_dx": 1}
    calls.clear()
    verify_weak_solution(worked_ansatz, worked_data.k)
    verify_weak_solution(SmoothAnsatz(worked_data, worked_ansatz.front,
                                      worked_ansatz.kernel, c=0.2), 0.0)
    assert not calls


def test_nonfinite_residual_raises(worked_data, quartic):
    traj = solve_front(worked_data, quartic.omega0)
    bad = LinearTrajectory(traj.phi_dot, traj.e0, traj.e_rate,
                           complex(traj.p(0.0)), math.nan)
    # p-dot is nan at every time, and it multiplies only the u residual.
    with pytest.raises(NumericsError) as raised:
        verify_weak_solution(SmoothAnsatz(worked_data, bad, quartic), worked_data.k)
    assert str(raised.value) == (
        "non-finite residual pairing at equation=u, "
        "phi=plain-bump, eps=0.125, t=0")


def test_amplitude_zero_on_time_grid_raises(quartic):
    # e(t) = 0.25 - 0.5 t vanishes at t = 0.5, a point of the default grid,
    # where p-dot is singular.
    data = RiemannJumpData(0.0, 2.0, 0.0, 0.0, 0.25, 0.5)
    traj = solve_front(data, quartic.omega0)
    assert overcompressivity(data).admissible
    assert float(traj.e(0.5)) == 0.0 and 0.5 in default_t_grid()
    with pytest.raises(ZeroDivisionError):
        verify_weak_solution(SmoothAnsatz(data, traj, quartic), data.k)


def test_pinned_verdict_next_to_amplitude_zero(quartic):
    # e(t) = 0.1 - 0.2 t reaches 2.8e-17 at t = 0.5 on the grid, so p_dot is
    # about -3e7 there.  The verdict fails on one eps^(1/2) series whose
    # coarse head is pre-asymptotic: its order passes, its decay ratio does
    # not.  The p_dot hazard itself passes: u / plain-bump / re decays like
    # eps^(1/2) from pairings of order 1e7.
    data = RiemannJumpData(0.0, 2.0, 0.0, 0.5, 0.1, 0.40311288741492746)
    ansatz = SmoothAnsatz(data, solve_front(data, quartic.omega0), quartic)
    report = verify_weak_solution(ansatz, data.k)
    assert report.summary_line() == (
        "FAIL weak-solution verification (k=0.403113): equation=sigma "
        "phi=linear-times-bump@0.375(w=1.375) part=im eps=0.000244141 t=0.9375 "
        "order=0.443 ratio=7.223e-02")
    failed = [s for s in report.series if not s.passed]
    assert [(s.equation, s.test_function, s.part) for s in failed] == [
        ("sigma", "linear-times-bump@0.375(w=1.375)", "im")]
    bad = failed[0]
    assert bad.order > report.order_floor and bad.decay_ratio > report.ratio_ceiling
    assert bad.worst_t_per_eps == (0.75, 0.84375, 0.90625) + (0.9375,) * 7
    assert bad.max_pairing[:3] == pytest.approx((1.4273e-2, 1.3380e-2, 1.0586e-2),
                                                rel=1e-4)
    hazard = next(s for s in report.series if (s.equation, s.part) == ("u", "re")
                  and s.test_function.startswith("plain-bump"))
    assert hazard.passed and hazard.worst_t_per_eps == (0.5,) * 10
    assert hazard.max_pairing[0] > 1e7 and hazard.max_pairing[-1] < 1e6


def test_near_zero_series_pass(quartic, eps_grid):
    # real trajectory: imaginary residual parts are identically zero and
    # must not block the verdict
    data = RiemannJumpData(0.0, 2.0, 0.0, 0.5, 0.1, 0.0)
    ansatz = SmoothAnsatz(data, solve_front(data, quartic.omega0), quartic)
    report = verify_weak_solution(ansatz, 0.0, t_grid=np.linspace(0, 1, 5),
                                  eps_grid=eps_grid)
    im_series = [s for s in report.series if s.part == "im"]
    assert im_series and all(s.passed and math.isinf(s.order) for s in im_series)


def test_pairing_magnitudes_uniform_in_t(worked_ansatz, worked_data):
    # sanity proxy for uniformity: max/min over the time grid stays small
    # for a test function without zeros along the front path
    phi_test = TestFunction(1.2, 2.0)
    eps = 2.0**-8
    for equation in ("u", "sigma"):
        vals = [abs(complex(pair(residual_integrand(
            worked_ansatz, worked_data.k, equation, t, eps), phi_test)).real)
            for t in np.linspace(0.0, 1.0, 33)]
        assert max(vals) / min(vals) < 10.0


def test_replay_matches_extraction_from_pairings(worked_data, kernel):
    # An independent path to the four coefficients: each residual's
    # integrand paired with the two probes at phi(t) over the default eps
    # grid, and the limits extrapolated.  The free trajectory has imaginary
    # p0 and a complex p rate, so the coefficients are complex.
    traj = LinearTrajectory(0.7, -0.2, 0.3, 0.4j, 0.2 + 0.1j)
    ansatz = SmoothAnsatz(worked_data, traj, kernel)
    t = 1.0
    extracted = []
    for equation in ("u", "sigma"):
        a_rep, b_rep = extract_point_coeffs(
            lambda eps: residual_integrand(ansatz, worked_data.k, equation, t, eps),
            float(traj.phi(t)), default_eps_grid())
        extracted += [a_rep.extrapolated_limit, -b_rep.extrapolated_limit]
    res = replay_derivation(worked_data, traj, kernel, t=t)
    closed = replay_closed_forms(worked_data, traj, kernel, t=t)
    assert max(abs(m - x) for m, x in zip(res.measured, extracted)) <= 1e-6
    assert max(abs(m - c) for m, c in zip(res.measured, closed)) <= 1e-6


def _seeded_replays(kernel, n):
    """Replays on ``default_rng(11)`` data, the odd ones on free trajectories."""
    rng = np.random.default_rng(11)
    for i in range(n):
        data = sample_admissible_data(rng, (0.0, 0.1, 0.5)[i % 3])
        traj = solve_front(data, kernel.omega0)
        if i % 2:
            traj = LinearTrajectory(
                traj.phi_dot + float(rng.uniform(-0.5, 0.5)),
                traj.e0 + float(rng.uniform(-0.2, 0.2)),
                traj.e_rate + float(rng.uniform(-0.3, 0.3)),
                complex(traj.p(0.0)) + complex(*rng.uniform(-0.3, 0.3, 2)),
                complex(*rng.uniform(-0.2, 0.2, 2)))
        yield data, traj


def test_replay_quartic_coefficients_exact_to_rounding(quartic):
    # The quartic table's moments are exact, so the replay meets the closed
    # forms to rounding, on the solved and on free trajectories alike.
    for data, traj in _seeded_replays(quartic, 20):
        res = replay_derivation(data, traj, quartic)
        closed = replay_closed_forms(data, traj, quartic)
        assert max(abs(m - c) for m, c in zip(res.measured, closed)) <= 1e-13
        if not isinstance(traj, LinearTrajectory):
            assert max(abs(m) for m in res.measured) <= 1e-13


def test_replay_exponential_well_conditioned(exponential):
    # One ulp of the kernel's normalization moves no coefficient by more
    # than rounding: no extrapolation amplifies it.
    nudged = exponential._replace(normalization=np.nextafter(
        exponential.normalization, np.inf))
    for data, traj in _seeded_replays(exponential, 6):
        ref = replay_derivation(data, traj, exponential).measured
        got = replay_derivation(data, traj, nudged).measured
        assert max(abs(g - r) for g, r in zip(got, ref)) <= 1e-13


def test_replay_gate_rejects_a_term_of_negative_order(monkeypatch, worked_data, quartic):
    # A product of two regularized deltas pairs to eps^-1 omega0 psi(phi):
    # in a basis row it leaves the residual without an eps -> 0 limit.
    coefficients = verifier._basis_coefficients
    monkeypatch.setattr(verifier, "_LAYOUT", verifier._LAYOUT + ((4, ("d", "d")),))
    monkeypatch.setattr(verifier, "_basis_coefficients",
                        lambda *args: coefficients(*args) + (1.0,))
    traj = solve_front(worked_data, quartic.omega0)
    with pytest.raises(ExtractionError, match=r"u residual at t=1: its eps\^-1 term"):
        replay_derivation(worked_data, traj, quartic)


def test_replay_on_shell_vanishes(worked_data, worked_data_k0, quartic):
    for data in (worked_data, worked_data_k0):
        traj = solve_front(data, quartic.omega0)
        res = replay_derivation(data, traj, quartic)
        assert max(abs(m) for m in res.measured) < 1e-4
        assert max(abs(c) for c in replay_closed_forms(data, traj, quartic)) < 1e-14


def test_replay_reads_its_trajectory_once(monkeypatch, worked_data, quartic):
    # The replay reads the front through one ``evaluate`` call: phi, e, p and
    # p_dot raise anywhere outside it.
    traj = solve_front(worked_data, quartic.omega0)
    expected = replay_derivation(worked_data, traj, quartic).measured
    evaluations, inside = [], []

    def evaluate(self, t, _evaluate=FrontTrajectory.evaluate):
        evaluations.append(t)
        inside.append(t)
        try:
            return _evaluate(self, t)
        finally:
            inside.pop()

    def guard(method):
        def guarded(self, t):
            if not inside:
                raise AssertionError(f"{method.__name__} read outside evaluate")
            return method(self, t)
        return guarded

    for name in ("phi", "e", "p", "p_dot"):
        monkeypatch.setattr(FrontTrajectory, name, guard(getattr(FrontTrajectory, name)))
    monkeypatch.setattr(FrontTrajectory, "evaluate", evaluate)
    assert replay_derivation(worked_data, traj, quartic).measured == expected
    assert len(evaluations) == 1


def test_replay_speed_offset_shifts_point_mass(worked_data, quartic):
    traj = solve_front(worked_data, quartic.omega0)
    off = LinearTrajectory(traj.phi_dot + 1.0, traj.e0, traj.e_rate,
                           complex(traj.p(0.0)),
                           complex(traj.p(1.0)) - complex(traj.p(0.0)))
    res = replay_derivation(worked_data, off, quartic)
    assert res.measured[0] == pytest.approx(worked_data.u1, abs=1e-4)
    assert replay_closed_forms(worked_data, off, quartic)[0] == pytest.approx(
        worked_data.u1, abs=1e-12)


def test_replay_amplitude_offset_shifts_dipole(worked_data, quartic):
    # shift e down by 0.3 while keeping p at the solved value of the
    # original amplitude: the velocity dipole becomes exactly 0.3
    traj = solve_front(worked_data, quartic.omega0)
    t = 1.0
    off = LinearTrajectory(traj.phi_dot, traj.e0 - 0.3, traj.e_rate,
                           complex(traj.p(t)), 0.0)
    res = replay_derivation(worked_data, off, quartic, t=t)
    assert replay_closed_forms(worked_data, off, quartic, t=t)[1] == pytest.approx(
        0.3, abs=1e-12)
    assert res.measured[1] == pytest.approx(0.3, abs=1e-3)


def test_plateau_mechanism(worked_data, quartic):
    # with the pinned plateau the stress dipole cancels; perturbing the
    # plateau by 0.1 reinstates it with coefficient 0.1 * u1 * e(t)
    traj = solve_front(worked_data, quartic.omega0)
    t = 1.0
    on = replay_derivation(worked_data, traj, quartic, t=t)
    assert abs(on.measured[3]) < 1e-6
    c_perturbed = worked_data.plateau() + 0.1
    off = replay_derivation(worked_data, traj, quartic, t=t, c=c_perturbed)
    expected = 0.1 * worked_data.u1 * float(traj.e(t))
    assert expected != 0.0
    closed = replay_closed_forms(worked_data, traj, quartic, t=t, c=c_perturbed)
    assert closed[3] == pytest.approx(expected, abs=1e-12)
    assert off.measured[3] == pytest.approx(expected, abs=1e-3)


def test_closed_forms_match_direct_formulas(worked_data, quartic):
    traj = solve_front(worked_data, quartic.omega0)
    a_u, b_u, a_s, b_s = closed_form_coefficients(
        worked_data, traj, quartic.omega0, worked_data.k,
        worked_data.plateau(), 1.0)
    d = worked_data
    assert a_u == pytest.approx(
        d.u1 * traj.phi_dot - d.u0 * d.u1 - 0.5 * d.u1**2 + d.sigma1, abs=1e-15)
    assert abs(b_u) < 1e-15
    assert a_s == pytest.approx(
        traj.e_rate + d.sigma1 * traj.phi_dot - 0.5 * d.u1 * d.sigma1
        - d.u0 * d.sigma1 + d.k**2 * d.u1, abs=1e-15)
    assert abs(b_s) < 1e-15


class _ExactFront(NamedTuple):
    """A front with rational rates whose amplitude p is the generator of
    Q(p), p^2 = p2, and whose p_dot is ``p_rate``, an element of Q(p)."""

    phi_dot: Exact
    e_rate: Exact
    e0: Exact
    p2: Exact
    p_rate: Qp

    def e(self, t):
        return self.e0 + self.e_rate * t

    def p(self, t):
        return Qp(0, 1, self.p2)

    def p_dot(self, t):
        return self.p_rate


_QUARTIC_OMEGA0 = Exact(5, 7)
_EXACT_MOMENTS = {product: exact_quartic_moments(product, 1)
                  for product in dict.fromkeys(product for _, product in verifier._LAYOUT)}


def _exact_groups(ansatz, t):
    """{(equation, n, a): the coefficient of eps^(a + n) phi^(n)(0) / n! in
    the pairing of residual ``equation`` (0 for u, 1 for sigma) at t}: each
    column's coefficient from the verdict's layout and basis coefficients,
    times its row factor in Q(p), contracted with the exact moments."""
    front, c = ansatz.front, ansatz.c_effective
    coefficients = verifier._basis_coefficients(ansatz, ansatz.data.k)
    e, p = front.e(t), front.p(t)
    factors = (1, p, front.p_dot(t), p * p, e, 1, e, p)  # as _expansion's rows
    groups = {}
    for (row, product), coefficient in zip(verifier._LAYOUT, coefficients):
        power = 1.0 + sum(PROFILE_EPS_POWERS[name] for name in product)
        for j, moments in enumerate(_EXACT_MOMENTS[product]):
            for n, moment in enumerate(moments):
                key = (int(row >= 5), n, power)
                term = factors[row] * (coefficient * c**j * moment)
                groups[key] = term + groups.get(key, 0)
    return groups


def _assert_exact_certificate(ansatz, t):
    """Every group of negative eps power is 0 and the eps^0 groups are the
    closed forms, (a_u, b_u, a_sigma, b_sigma), exactly; the closed forms
    returned."""
    groups = _exact_groups(ansatz, t)
    for (equation, n, power), total in groups.items():
        if power + n < 0:
            assert total == 0, (equation, n, power)
    # A is the eps^0 term of phi(0) and -B that of phi'(0), as the table's limits read them.
    a_u, a_sigma = groups[(0, 0, 0.0)], groups[(1, 0, 0.0)]
    b_u, b_sigma = -groups[(0, 1, -1.0)], -groups[(1, 1, -1.0)]
    closed = closed_form_coefficients(ansatz.data, ansatz.front, _QUARTIC_OMEGA0,
                                      ansatz.data.k, ansatz.c_effective, t)
    assert [a_u, b_u, a_sigma, b_sigma] == list(closed)
    return closed


def _draw(rng, lo, hi):
    """A seeded rational in (lo, hi)."""
    return lo + (hi - lo) * Exact(rng.randrange(1, 9973), 9973)


def _exact_admissible(rng):
    """Seeded admissible jump data, in the ranges of sample_admissible_data,
    and a time in [0, 1], all rational."""
    k = Exact(rng.choice((0, 1, 5)), 10)
    u1 = _draw(rng, 2 * k + Exact(3, 5), 2 * k + 3)
    sigma1 = u1 * _draw(rng, Exact(-4, 5), Exact(4, 5)) * (u1 / 2 - k)
    data = RiemannJumpData(_draw(rng, -1, 1), u1, _draw(rng, -1, 1), sigma1,
                           _draw(rng, Exact(1, 10), Exact(3, 5)), k)
    return data, _draw(rng, 0, 1)


def test_quartic_residual_expansion_is_exact(quartic):
    # The quartic profiles are piecewise polynomials with rational
    # coefficients and omega0 = 5/7, so at rational data every residual
    # coefficient lies in Q(p).  In that exact arithmetic, at 50 seeded data
    # sets and times, the verdict's layout cancels every term of negative
    # eps power, its eps^0 terms are the closed forms, and on the solved
    # front with the data's plateau they vanish.  The identities are
    # polynomial, so a false one would fail at a random point.
    assert float(_QUARTIC_OMEGA0) == pytest.approx(quartic.omega0, rel=1e-15)
    rng = random.Random(20121)
    for _ in range(50):
        data, t = _exact_admissible(rng)
        assert overcompressivity(data).admissible
        solved = solve_front(data, _QUARTIC_OMEGA0)
        p2 = 2 * (solved.e0 + solved.e_rate * t) / _QUARTIC_OMEGA0  # p^2 = 2 e / omega0
        assert p2 != 0
        # p_dot = e_rate / (omega0 p) = e_rate p / (omega0 p^2)
        on_shell = _ExactFront(solved.phi_dot, solved.e_rate, solved.e0, p2,
                               Qp(0, solved.e_rate / (_QUARTIC_OMEGA0 * p2), p2))
        assert _assert_exact_certificate(SmoothAnsatz(data, on_shell, quartic), t) == (0, 0, 0, 0)
        # A free trajectory and plateau: rates, p^2 and p_dot in Q(p) drawn alone.
        p2 = _draw(rng, -1, 1)
        free = _ExactFront(_draw(rng, -2, 2), _draw(rng, -1, 1), _draw(rng, -1, 1), p2,
                           Qp(_draw(rng, -1, 1), _draw(rng, -1, 1), p2))
        c = _draw(rng, -1, 1)
        closed = _assert_exact_certificate(SmoothAnsatz(data, free, quartic, c), t)
        assert all(value != 0 for value in closed)


def test_sample_admissible_data_is_admissible():
    rng = np.random.default_rng(0)
    for k in (0.0, 0.2):
        for _ in range(20):
            data = sample_admissible_data(rng, k)
            assert overcompressivity(data).admissible
            assert data.k == k


def test_sampler_that_finds_no_data_raises():
    # At k = 1e17 the sampler's range 2k + 0.6 .. 2k + 3 for u1 rounds to
    # 2k, the edge of the admissible window, so no draw is admissible; the
    # sampler used to loop forever.  Its draws are bounded, so it raises.
    with pytest.raises(ValueError, match=r"k=1e\+17"):
        sample_admissible_data(np.random.default_rng(0), 1e17)


def test_default_test_suite_covers_front(worked_ansatz):
    suite = default_test_suite(worked_ansatz.front.phi(default_t_grid()), 2.0**-3)
    assert len(suite) == 2
    lo, hi = suite[0].support
    assert lo < 0.0 - 4 * 2.0**-3 and hi > 0.75 + 4 * 2.0**-3
    assert {tf.modulation for tf in suite} == {"plain-bump", "linear-times-bump"}


# Ascending and descending, from t = 0 and offset from it.
_SUITE_GRIDS = {"ascending": np.linspace(0.0, 1.0, 33),
                "descending": np.linspace(1.0, 0.0, 33),
                "offset": np.linspace(0.5, 2.0, 25),
                "offset-descending": np.linspace(2.0, 0.5, 25)}


def _assert_holds_every_band_half_inside(phi, eps_max):
    suite = default_test_suite(phi, eps_max)
    assert [tf.modulation for tf in suite] == [PLAIN_BUMP, LINEAR_BUMP]
    assert suite[0].support == suite[1].support
    lo, hi = suite[0].support
    # 1/2 to the rounding of centre and halfwidth
    margin = min(np.min(phi - 4 * eps_max - lo), np.min(hi - phi - 4 * eps_max))
    assert margin >= 0.5 - 1e-12


@pytest.mark.parametrize("t_grid", _SUITE_GRIDS.values(), ids=_SUITE_GRIDS.keys())
def test_default_test_suite_holds_every_front_band(quartic, t_grid):
    # Fronts of either direction: u0 is drawn from [-1, 1].  Every band
    # [phi - 4 eps, phi + 4 eps] sits at least 1/2 inside the support, as
    # do the lemma suite's at phi = 0 on grids up to eps_max = 4.
    rng = np.random.default_rng(2024)
    for i in range(30):
        data = sample_admissible_data(rng, (0.0, 0.1, 0.5)[i % 3])
        front = solve_front(data, quartic.omega0)
        _assert_holds_every_band_half_inside(front.phi(t_grid), 2.0**-3)
    for j in range(-2, 4):
        _assert_holds_every_band_half_inside(np.zeros(1), 2.0**-j)


def _verdict(report):
    return [(s.equation, s.test_function, s.part, s.max_pairing, s.order,
             s.decay_ratio, s.passed) for s in report.series]


def test_descending_time_grid_gives_the_ascending_verdict(quartic):
    # On the first data the front ends at phi(1) = 3.75: a suite taken
    # at the last time of a descending grid alone would sit at 0.
    rng = np.random.default_rng(7)
    cases = [RiemannJumpData(3.0, 2.0, 0.0, 0.5, 0.1, 0.1)]
    cases += [sample_admissible_data(rng, k) for k in (0.0, 0.1, 0.5)]
    for data in cases:
        ansatz = SmoothAnsatz(data, solve_front(data, quartic.omega0), quartic)
        for grid in (np.linspace(0.0, 1.0, 33), np.linspace(0.5, 2.0, 25)):
            up = verify_weak_solution(ansatz, data.k, t_grid=grid)
            down = verify_weak_solution(ansatz, data.k, t_grid=grid[::-1])
            assert _verdict(down) == _verdict(up)


# Grids a direct call used to accept: eps = 0 failed naming the front
# position, and an increasing grid gave a verdict with head and tail swapped.
# The message names the first bad value, its index and the value before it.
BAD_EPS_GRIDS = pytest.mark.parametrize("grid,named", [
    ((1.0, 0.5, 0.1, 0.0), "eps[3] = 0.0 after 0.1"),
    ((0.1, 0.05, 0.01, -0.001), "eps[3] = -0.001 after 0.01"),
    ((0.01, 0.1, 0.002, 0.001), "eps[1] = 0.1 after 0.01"),
    ((0.1, 0.05, 0.05, 0.01), "eps[2] = 0.05 after 0.05"),
    ((math.inf, 0.1, 0.01, 0.001), "eps[0] = inf"),
    ((0.1, math.nan, 0.01, 0.001), "eps[1] = nan after 0.1"),
], ids=["zero", "negative", "increasing", "repeated", "inf", "nan"])


@BAD_EPS_GRIDS
def test_verdict_rejects_a_bad_eps_grid_naming_it(worked_ansatz, grid, named):
    with pytest.raises(ValueError, match=r"^eps grid must be positive, finite and strictly "
                                         rf"decreasing: {re.escape(named)}$"):
        verify_weak_solution(worked_ansatz, 0.1, eps_grid=grid)


def test_verdict_rejects_a_one_point_eps_grid(worked_ansatz):
    # Its one pairing per series has no slope: the fit's +inf sentinel
    # would pass it.
    with pytest.raises(ValueError, match=r"^eps grid must span at least 2 points, got 1$"):
        verify_weak_solution(worked_ansatz, 0.1, eps_grid=(0.125,))


@pytest.mark.parametrize("t_grid,shape", [
    (np.array([]), "(0,)"), (default_t_grid().reshape(3, 11), "(3, 11)"),
    (np.float64(0.5), "()")], ids=["empty", "2-D", "0-D"])
def test_verdict_rejects_a_time_grid_that_is_not_a_non_empty_row(worked_ansatz, t_grid,
                                                                 shape):
    with pytest.raises(ValueError, match=r"^time grid must be a non-empty 1-D array, got "
                                         rf"shape {re.escape(shape)}$"):
        verify_weak_solution(worked_ansatz, 0.1, t_grid=t_grid)


def test_verdict_keeps_two_point_grids(worked_ansatz):
    report = verify_weak_solution(worked_ansatz, 0.1, eps_grid=(0.125, 0.0625))
    assert all(s.eps_grid == (0.125, 0.0625) for s in report.series)
