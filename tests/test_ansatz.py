import numpy as np
import pytest
from scipy.integrate import quad

from deltashock.ansatz import DegenerateDataError, RiemannJumpData, SmoothAnsatz
from deltashock.config import RunConfig
from deltashock.dynamics import LinearTrajectory, solve_front
from deltashock.kernels import QUARTIC, StepProfile, make_kernel, product_columns
from deltashock.pairing import (
    TestFunction,
    estimate_order,
    extrapolate_limit,
    fit_loglog_slope,
    pair,
)
from deltashock.riemann import State, solve
from deltashock.verifier import sample_admissible_data
from oracle import SingularSolution, sigma_integrand, u_integrand


_QUARTIC = make_kernel(QUARTIC)
_WORKED = RiemannJumpData(0.0, 2.0, 0.0, 0.5, 0.1, 0.1)
_K_NEG, _EPS_NEG = "k must be nonnegative", "eps must be positive"


@pytest.mark.parametrize("build,message", [
    pytest.param(lambda: RiemannJumpData(0.0, 2.0, 0.0, 0.5, 0.1, -0.1), _K_NEG,
                 id="data-positional"),
    pytest.param(lambda: RiemannJumpData(u0=0.0, u1=2.0, sigma0=0.0, sigma1=0.5, k=-0.1),
                 _K_NEG, id="data-keywords"),
    pytest.param(lambda: RunConfig(k=-0.1).jump_data(), _K_NEG, id="config"),
    pytest.param(lambda: solve(State(2.0, 0.5), State(0.0, 0.0), -0.1), _K_NEG, id="solve"),
    pytest.param(lambda: sample_admissible_data(np.random.default_rng(0), -0.1), _K_NEG,
                 id="sampler"),
    pytest.param(lambda: StepProfile(0.5, 0.0, _QUARTIC), _EPS_NEG, id="step-positional"),
    pytest.param(lambda: StepProfile(c=0.5, eps=-0.1, kernel=_QUARTIC), _EPS_NEG,
                 id="step-keywords"),
    pytest.param(lambda: SmoothAnsatz(_WORKED, solve_front(_WORKED, _QUARTIC.omega0),
                                      _QUARTIC).step(0.0), _EPS_NEG, id="ansatz-step"),
    pytest.param(lambda: product_columns(_QUARTIC, (("h",),), np.zeros(1), -1.0, np.ones(1)),
                 _EPS_NEG, id="table-columns"),
])
def test_records_validate_on_every_construction_path(build, message):
    # The records are named tuples: validation lives in the constructor,
    # which every path of the package goes through.
    with pytest.raises(ValueError, match=message):
        build()


def test_ansatz_requires_its_kernel(worked_data, quartic):
    # No code picks a kernel for its caller.
    front = solve_front(worked_data, quartic.omega0)
    for build in (lambda: SmoothAnsatz(worked_data, front),
                  lambda: SmoothAnsatz(worked_data, front, c=0.3),
                  lambda: SmoothAnsatz(data=worked_data, front=front)):
        with pytest.raises(TypeError, match="kernel"):
            build()
    ansatz = SmoothAnsatz(worked_data, front, quartic, c=0.3)
    assert ansatz.kernel is quartic and ansatz.c == 0.3 and type(ansatz) is SmoothAnsatz


def test_jump_data_states_and_validation():
    data = RiemannJumpData(0.5, 2.0, -0.25, 0.5, 0.1, 0.3)
    assert data.left_state == (2.5, 0.25)
    assert data.right_state == (0.5, -0.25)
    assert data.plateau() == 0.5 - 0.5 / 4.0
    with pytest.raises(ValueError):
        RiemannJumpData(0.0, 1.0, 0.0, 0.0, 0.0, -0.2)
    with pytest.raises(DegenerateDataError):
        RiemannJumpData(0.0, 0.0, 0.0, 1.0).plateau()


def test_fields_far_from_front(worked_ansatz, worked_data):
    t, eps = 0.6, 0.05
    front = worked_ansatz.front.phi(t)
    u, s = worked_ansatz.eval_fields(front - 1.0, t, eps)
    assert (u.real, s) == worked_data.left_state
    assert u.imag == 0.0
    u, s = worked_ansatz.eval_fields(front + 1.0, t, eps)
    assert (u.real, s) == worked_data.right_state


def test_fields_complex_when_amplitude_negative(quartic):
    # decaying amplitude crosses zero, correction becomes imaginary
    data = RiemannJumpData(0.0, 1.0, 0.0, 0.1, 0.01, 0.45)
    traj = solve_front(data, quartic.omega0)
    assert traj.e_rate < 0.0
    t = 2.0
    assert traj.e(t) < 0.0
    assert complex(traj.p(t)).real == 0.0
    assert complex(traj.p(t)).imag > 0.0
    ansatz = SmoothAnsatz(data, traj, quartic)
    eps = 0.05
    x = traj.phi(t) + 2 * eps  # center of the correction band
    u, s = ansatz.eval_fields(x, t, eps)
    assert abs(u.imag) > 0.0
    assert s.dtype == float and s.shape == ()


def test_derivatives_match_finite_differences(kernel):
    data = RiemannJumpData(0.3, 1.7, -0.2, 0.4, 0.15, 0.2)
    traj = solve_front(data, kernel.omega0)
    ansatz = SmoothAnsatz(data, traj, kernel)
    rng = np.random.default_rng(11)
    h = 1e-6
    checked = 0
    while checked < 100:
        t = float(rng.uniform(0.05, 1.0))
        eps = float(rng.uniform(0.05, 0.2))
        front = float(traj.phi(t))
        x = front + float(rng.uniform(-6 * eps, 6 * eps))
        offsets = (-4, -3, -1, 1, 3, 4)
        if min(abs((x - front) - s * eps) for s in offsets) < 50 * h:
            continue
        if min(abs((x - traj.phi(t + dt)) - s * eps)
               for s in offsets for dt in (-h, h)) < 10 * h:
            continue
        u_t, u_x, s_t, s_x = ansatz.eval_derivatives(x, t, eps)
        up, sp = ansatz.eval_fields(x + h, t, eps)
        um, sm = ansatz.eval_fields(x - h, t, eps)
        assert abs((up - um) / (2 * h) - u_x) <= 1e-6 * max(1.0, abs(u_x))
        assert abs((sp - sm) / (2 * h) - s_x) <= 1e-6 * max(1.0, abs(s_x))
        up, sp = ansatz.eval_fields(x, t + h, eps)
        um, sm = ansatz.eval_fields(x, t - h, eps)
        assert abs((up - um) / (2 * h) - u_t) <= 1e-6 * max(1.0, abs(u_t))
        assert abs((sp - sm) / (2 * h) - s_t) <= 1e-6 * max(1.0, abs(s_t))
        checked += 1


def test_derivative_zero_outside_supports(worked_ansatz):
    t, eps = 0.4, 0.1
    front = worked_ansatz.front.phi(t)
    for x in (front - 0.41, front + 0.41, front - 3.0, front + 3.0):
        u_t, u_x, s_t, s_x = worked_ansatz.eval_derivatives(x, t, eps)
        assert u_t == 0 and u_x == 0 and s_t == 0 and s_x == 0


def test_singular_pairing_atom_only(quartic):
    # no bounded stress part: only the point mass survives
    data = RiemannJumpData(0.0, 2.0, 0.0, 0.0, 0.3, 0.0)
    traj = solve_front(data, quartic.omega0)
    sol = SingularSolution(data, traj)
    t = 0.8
    phi_test = TestFunction(0.2, 1.5)
    expected = traj.e(t) * float(phi_test.value(traj.phi(t)))
    assert sol.sigma_pairing(t, phi_test) == pytest.approx(expected, abs=1e-14)


def test_singular_u_pairing_against_direct_integral(quartic):
    # u0 = 0, u1 = 2, front at 0.75: pairing is 2 * int_{x < 0.75} phi
    data = RiemannJumpData(0.0, 2.0, 0.0, 0.5, 0.1, 0.1)
    traj = solve_front(data, quartic.omega0)
    sol = SingularSolution(data, traj)
    phi_test = TestFunction(0.75, 1.0)
    oracle, _ = quad(phi_test.value, 0.75 - 1.0, 0.75, epsabs=1e-13, limit=300)
    assert sol.u_pairing(1.0, phi_test) == pytest.approx(2.0 * oracle, abs=1e-11)


def test_initial_data_consistency_orders(worked_ansatz, worked_data, eps_grid):
    # all four initial lines: field pairings converge to the datum pairings
    sing = SingularSolution(worked_data, worked_ansatz.front)
    for phi_test in (TestFunction(0.3, 0.8),
                     TestFunction(-0.2, 1.1, "linear-times-bump")):
        u_ref, s_ref = sing.u_pairing(0.0, phi_test), sing.sigma_pairing(0.0, phi_test)
        u_err, s_err = [], []
        for eps in eps_grid:
            u_err.append(abs(complex(pair(u_integrand(worked_ansatz, 0.0, eps),
                                          phi_test)) - u_ref))
            s_err.append(abs(pair(sigma_integrand(worked_ansatz, 0.0, eps),
                                  phi_test) - s_ref))
        for errs in (u_err, s_err):
            assert fit_loglog_slope(eps_grid, [errs], [0.0]).order[0] >= 0.49
            assert errs[-1] < errs[0]


def test_limit_pairing_uniform_in_t(worked_ansatz, worked_data, eps_grid):
    sing = SingularSolution(worked_data, worked_ansatz.front)
    phi_test = TestFunction(0.5, 1.5)
    t_grid = np.linspace(0.0, 1.0, 33)
    u_max, s_max = [], []
    for eps in eps_grid:
        mu = ms = 0.0
        for t in t_grid:
            mu = max(mu, abs(complex(pair(u_integrand(worked_ansatz, t, eps),
                                          phi_test)) - sing.u_pairing(t, phi_test)))
            ms = max(ms, abs(pair(sigma_integrand(worked_ansatz, t, eps), phi_test)
                             - sing.sigma_pairing(t, phi_test)))
        u_max.append(mu)
        s_max.append(ms)
    assert estimate_order(eps_grid, [u_max], [0.0]).order[0] >= 0.45
    assert estimate_order(eps_grid, [s_max], [0.0]).order[0] >= 0.9
    assert u_max[-1] < 0.2 * u_max[0]
    assert s_max[-1] < 0.05 * s_max[0]


def test_sigma_pairing_fixed_t_first_order(worked_ansatz, worked_data, eps_grid):
    # at fixed t the stress pairing converges at first order in eps
    sing = SingularSolution(worked_data, worked_ansatz.front)
    t = 0.7
    for phi_test in (TestFunction(0.5, 1.5), TestFunction(1.0, 2.0)):
        ref = sing.sigma_pairing(t, phi_test)
        errs = [abs(pair(sigma_integrand(worked_ansatz, t, e), phi_test) - ref)
                for e in eps_grid]
        assert estimate_order(eps_grid, [errs], [0.0]).order[0] >= 0.99


def test_correction_term_does_not_move_the_limit(worked_data, quartic, eps_grid):
    # killing p changes finite-eps residuals only, not the limit pairing
    traj = solve_front(worked_data, quartic.omega0)
    plain = LinearTrajectory(traj.phi_dot, traj.e0, traj.e_rate, 0.0, 0.0)
    with_p = SmoothAnsatz(worked_data, traj, quartic)
    without_p = SmoothAnsatz(worked_data, plain, quartic)
    sing = SingularSolution(worked_data, traj)
    phi_test = TestFunction(0.5, 1.5)
    t = 1.0
    lim_with = extrapolate_limit(eps_grid, [
        complex(pair(u_integrand(with_p, t, e), phi_test)) for e in eps_grid])
    lim_without = extrapolate_limit(eps_grid, [
        complex(pair(u_integrand(without_p, t, e), phi_test)) for e in eps_grid])
    assert abs(lim_with - lim_without) < 1e-6
    assert abs(lim_with - sing.u_pairing(t, phi_test)) < 1e-6


def test_correction_and_delta_bands_disjoint(worked_ansatz):
    # the u-correction and the sigma-delta regularization never overlap
    t, eps = 0.7, 0.08
    front = worked_ansatz.front.phi(t)
    xs = np.linspace(front - 4 * eps, front + 4 * eps, 4001)
    u, _ = worked_ansatz.eval_fields(xs, t, eps)
    _, sigma = worked_ansatz.eval_fields(xs, t, eps)
    p = complex(worked_ansatz.front.p(t))
    from deltashock.kernels import eval_correction, eval_delta_reg

    r_part = np.abs(p) * eval_correction(xs - front, eps, worked_ansatz.kernel)
    d_part = eval_delta_reg(xs - front, eps, worked_ansatz.kernel)
    assert np.max(r_part * d_part) == 0.0


def test_plateau_override(worked_data, quartic):
    traj = solve_front(worked_data, quartic.omega0)
    assert SmoothAnsatz(worked_data, traj, quartic).c_effective == 0.375
    assert SmoothAnsatz(worked_data, traj, quartic, c=0.7).c_effective == 0.7


def test_eval_fields_snapshot(worked_ansatz):
    # The worked example's field table: x, Re u, Im u and sigma on a grid.
    u, sigma = worked_ansatz.eval_fields(np.linspace(-1, 2, 7), 0.5, 0.1)
    assert u.shape == sigma.shape == (7,)
    assert u[0].real == 2.0 and u[-1].real == 0.0


def test_solve_front_defaults_to_the_quartic_omega0(worked_data, quartic, exponential):
    # The package's one default kernel constant, documented where it lives:
    # a front for any other kernel passes that kernel's omega0.
    assert solve_front(worked_data) == solve_front(worked_data, quartic.omega0)
    assert solve_front(worked_data).omega0 != exponential.omega0
    assert "defaults to the quartic kernel's" in solve_front.__doc__
