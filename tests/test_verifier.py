import json
import math

import numpy as np
import pytest

from deltashock.ansatz import RiemannJumpData, SmoothAnsatz
from deltashock.dynamics import LinearTrajectory, overcompressivity, solve_front
from deltashock.pairing import (
    LINEAR_BUMP,
    NumericsError,
    TestFunction,
    default_eps_grid,
    pair,
)
from deltashock.verifier import (
    _series_verdict,
    closed_form_coefficients,
    default_t_grid,
    default_test_suite,
    replay_derivation,
    residual_integrand,
    residuals,
    sample_admissible_data,
    verify_weak_solution,
)


def test_constant_state_has_zero_residuals(quartic):
    # no jumps at all: the ansatz is a constant exact solution
    data = RiemannJumpData(0.7, 0.0, -0.3, 0.0, 0.0, 0.2)
    traj = LinearTrajectory(0.4)
    ansatz = SmoothAnsatz(data, traj, quartic, c=0.0)
    res_u, res_sigma = residuals(ansatz, 0.2)
    xs = np.linspace(-2, 2, 401)
    assert np.max(np.abs(res_u(xs, 0.5, 0.1))) == 0.0
    assert np.max(np.abs(res_sigma(xs, 0.5, 0.1))) == 0.0


def test_residual_supported_in_bands(worked_ansatz, worked_data):
    res_u, res_sigma = residuals(worked_ansatz, worked_data.k)
    t, eps = 0.6, 0.05
    front = float(worked_ansatz.front.phi(t))
    outside = np.array([front - 4.1 * eps, front + 4.1 * eps, front - 2.0,
                        front + 2.0])
    assert np.max(np.abs(res_u(outside, t, eps))) == 0.0
    assert np.max(np.abs(res_sigma(outside, t, eps))) == 0.0
    inside = np.linspace(front - 4 * eps, front + 4 * eps, 801)
    assert np.max(np.abs(res_u(inside, t, eps))) > 0.0
    assert np.max(np.abs(res_sigma(inside, t, eps))) > 0.0


def test_sigma_residual_k_dependence_is_pointwise(worked_ansatz):
    # residual(k) - residual(0) = -k^2 du/dx at every point
    _, res_k = residuals(worked_ansatz, 0.3)
    _, res_0 = residuals(worked_ansatz, 0.0)
    t, eps = 0.4, 0.08
    front = float(worked_ansatz.front.phi(t))
    xs = np.linspace(front - 4 * eps, front + 4 * eps, 501)
    _, u_x, _, _ = worked_ansatz.eval_derivatives(xs, t, eps)
    diff = res_k(xs, t, eps) - res_0(xs, t, eps)
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
        assert min(report.equation_orders("u")) >= u_floor
        assert min(report.equation_orders("sigma")) >= s_floor


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
    res = replay_derivation(worked_data, bad, quartic, eps_grid=eps_grid)
    assert res.measured[0] == pytest.approx(worked_data.u1 * 0.1, abs=1e-4)


def _per_cell_series(ansatz, system_k, phi_suite, t_grid, eps_grid):
    """Reference: one ``pair`` call per (equation, test function, eps, t)."""
    out = []
    for equation in ("u", "sigma"):
        for phi_test in phi_suite:
            cells = np.array([[pair(residual_integrand(ansatz, system_k, equation,
                                                       t, eps), phi_test)
                               for t in t_grid] for eps in eps_grid], dtype=complex)
            for part, mags in (("re", np.abs(cells.real)), ("im", np.abs(cells.imag))):
                worst = [int(np.argmax(row)) for row in mags]
                maxima = tuple(float(row[i]) for row, i in zip(mags, worst))
                verdict = _series_verdict(eps_grid, maxima)
                out.append((equation, part, maxima,
                            tuple(float(t_grid[i]) for i in worst), *verdict))
    return out


def _batched_series(report):
    return [(s.equation, s.part, s.max_pairing, s.worst_t_per_eps, s.order,
             s.decay_ratio, s.passed) for s in report.series]


def test_batched_pairing_equals_per_cell_loop(worked_report, worked_report_k0,
                                              worked_ansatz, worked_ansatz_k0):
    suite = default_test_suite(worked_ansatz.front, 1.0, max(default_eps_grid()))
    for report, ansatz in ((worked_report, worked_ansatz),
                           (worked_report_k0, worked_ansatz_k0)):
        expected = _per_cell_series(ansatz, report.system_k, suite,
                                    default_t_grid(), default_eps_grid())
        assert _batched_series(report) == expected
        for s, blob in zip(report.series, report.to_json_dict()["series"]):
            assert s.worst_t == s.worst_t_per_eps[-1] == blob["worst_t"]
            assert blob["worst_t_per_eps"] == list(s.worst_t_per_eps)
        assert report.passed


def test_batched_pairing_equals_per_cell_loop_exponential(worked_data, exponential):
    ansatz = SmoothAnsatz(worked_data, solve_front(worked_data, exponential.omega0),
                          exponential)
    eps_grid = default_eps_grid(3, 7)
    suite = default_test_suite(ansatz.front, 1.0, max(eps_grid))
    report = verify_weak_solution(ansatz, worked_data.k, eps_grid=eps_grid)
    assert _batched_series(report) == _per_cell_series(
        ansatz, worked_data.k, suite, default_t_grid(), eps_grid)


def test_batched_pairing_clipped_and_disjoint_supports(worked_ansatz, worked_data):
    # The front runs from 0 to 0.75: the first two supports cut into the
    # front band near both ends of the time grid, the third never meets it.
    suite = (TestFunction(0.4, 0.3), TestFunction(0.4, 0.3, LINEAR_BUMP),
             TestFunction(5.0, 1.0))
    eps_grid = default_eps_grid(3, 8)
    report = verify_weak_solution(worked_ansatz, worked_data.k, phi_suite=suite,
                                  eps_grid=eps_grid)
    assert _batched_series(report) == _per_cell_series(
        worked_ansatz, worked_data.k, suite, default_t_grid(), eps_grid)
    disjoint = [s for s in report.series if s.test_function.endswith("@5(w=1)")]
    assert len(disjoint) == 4
    assert all(v == 0.0 for s in disjoint for v in s.max_pairing)


def test_nonfinite_residual_raises(worked_data, quartic):
    traj = solve_front(worked_data, quartic.omega0)
    bad = LinearTrajectory(traj.phi_dot, traj.e0, traj.e_rate,
                           complex(traj.p(0.0)), math.nan)
    with pytest.raises(NumericsError):
        verify_weak_solution(SmoothAnsatz(worked_data, bad, quartic), worked_data.k)


def test_amplitude_zero_on_time_grid_raises(quartic):
    # e(t) = 0.25 - 0.5 t vanishes at t = 0.5, a point of the default grid,
    # where p-dot is singular.
    data = RiemannJumpData(0.0, 2.0, 0.0, 0.0, 0.25, 0.5)
    traj = solve_front(data, quartic.omega0)
    assert overcompressivity(data).admissible
    assert float(traj.e(0.5)) == 0.0 and 0.5 in default_t_grid()
    with pytest.raises(ZeroDivisionError):
        verify_weak_solution(SmoothAnsatz(data, traj, quartic), data.k)


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


def test_replay_on_shell_vanishes(worked_data, worked_data_k0, quartic):
    for data in (worked_data, worked_data_k0):
        traj = solve_front(data, quartic.omega0)
        res = replay_derivation(data, traj, quartic)
        assert max(abs(m) for m in res.measured) < 1e-4
        assert max(abs(c) for c in res.closed) < 1e-14


def test_replay_speed_offset_shifts_point_mass(worked_data, quartic):
    traj = solve_front(worked_data, quartic.omega0)
    off = LinearTrajectory(traj.phi_dot + 1.0, traj.e0, traj.e_rate,
                           complex(traj.p(0.0)),
                           complex(traj.p(1.0)) - complex(traj.p(0.0)))
    res = replay_derivation(worked_data, off, quartic)
    assert res.measured[0] == pytest.approx(worked_data.u1, abs=1e-4)
    assert res.closed[0] == pytest.approx(worked_data.u1, abs=1e-12)


def test_replay_amplitude_offset_shifts_dipole(worked_data, quartic):
    # shift e down by 0.3 while keeping p at the solved value of the
    # original amplitude: the velocity dipole becomes exactly 0.3
    traj = solve_front(worked_data, quartic.omega0)
    t = 1.0
    off = LinearTrajectory(traj.phi_dot, traj.e0 - 0.3, traj.e_rate,
                           complex(traj.p(t)), 0.0)
    res = replay_derivation(worked_data, off, quartic, t=t)
    assert res.closed[1] == pytest.approx(0.3, abs=1e-12)
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
    assert off.closed[3] == pytest.approx(expected, abs=1e-12)
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


def test_sample_admissible_data_is_admissible():
    rng = np.random.default_rng(0)
    for k in (0.0, 0.2):
        for _ in range(20):
            data = sample_admissible_data(rng, k)
            assert overcompressivity(data).admissible
            assert data.k == k


def test_default_test_suite_covers_front(worked_ansatz):
    suite = default_test_suite(worked_ansatz.front, 1.0, 2.0**-3)
    assert len(suite) == 2
    lo, hi = suite[0].support
    assert lo < 0.0 - 4 * 2.0**-3 and hi > 0.75 + 4 * 2.0**-3
    assert {tf.modulation for tf in suite} == {"plain-bump", "linear-times-bump"}
