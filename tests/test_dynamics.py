import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from deltashock import default_eps_grid, linear_grid
from deltashock.ansatz import Front, RiemannJumpData, SmoothAnsatz
from deltashock.dynamics import (
    DegenerateDataError,
    FrontTrajectory,
    LinearTrajectory,
    NotApplicableError,
    e_rate,
    front_speed,
    overcompressivity,
    solve_front,
    trajectory_columns,
    volpert_product_pairing,
)
from deltashock.kernels import default_t_grid, make_kernel
from deltashock.pairing import Piecewise, extract_point_coeffs
from deltashock.verifier import replay_derivation, sample_admissible_data
from oracle import volpert_relations, volpert_scan

OMEGA0 = 5.0 / 7.0


def integrate_front_ode(data, t_end):
    """Independent oracle: integrate the constant-rate front ODEs."""
    speed = front_speed(data)
    rate = e_rate(data)
    sol = solve_ivp(lambda t, y: [speed, rate], (0.0, t_end), [0.0, data.e0],
                    rtol=1e-12, atol=1e-14, dense_output=True)
    return sol.y[0][-1], sol.y[1][-1]


def exact_front_speed(u0, u1, s1):
    u0, u1, s1 = map(Fraction, (u0, u1, s1))
    u_left, u_right = u0 + u1, u0
    return float(((u_left**2 - u_right**2) / 2 - s1) / u1)


def test_front_speed_examples():
    assert front_speed(RiemannJumpData(0, 2, 0, 0)) == 1.0  # mean-velocity shock
    data = RiemannJumpData(0.0, 2.0, 0.0, 0.5)
    assert front_speed(data) == 0.75
    assert front_speed(data) == exact_front_speed(0, 2, Fraction(1, 2))


def test_front_speed_independent_of_k():
    rng = np.random.default_rng(42)
    for _ in range(100):
        u0, u1, s0, s1 = rng.uniform(-2, 2, size=4)
        if u1 == 0.0:
            continue
        speeds = {front_speed(RiemannJumpData(u0, u1, s0, s1, 0.0, k))
                  for k in (0.0, 0.01, 0.1, 1.0)}
        assert len(speeds) == 1


def test_front_speed_degenerate():
    with pytest.raises(DegenerateDataError):
        front_speed(RiemannJumpData(1.0, 0.0, 0.0, 0.0))
    with pytest.raises(DegenerateDataError):
        e_rate(RiemannJumpData(1.0, 0.0, 0.0, 0.0))


def test_e_rate_examples():
    assert e_rate(RiemannJumpData(0.0, 2.0, 0.0, 0.5, 0.0, 0.1)) == pytest.approx(
        0.105, abs=1e-15)
    expected = Fraction(1, 2)**2 / 2 - Fraction(1, 10)**2 * 2
    assert float(expected) == pytest.approx(0.105, abs=1e-16)
    assert e_rate(RiemannJumpData(0.0, 2.0, 0.0, 0.0, 0.0, 0.0)) == 0.0
    # degenerate system concentrates mass even from jump-only data
    assert e_rate(RiemannJumpData(0.0, 2.0, 0.0, 0.5, 0.0, 0.0)) > 0.0


def test_solve_front_worked_values(worked_data):
    traj = solve_front(worked_data, OMEGA0)
    assert traj.phi(1.0) == 0.75
    assert traj.e(1.0) == pytest.approx(0.205, abs=1e-15)
    # frozen from a 40-digit evaluation of sqrt(0.574)
    assert complex(traj.p(1.0)) == pytest.approx(0.7576278769950324 + 0j, abs=1e-13)


@pytest.mark.parametrize("t_end", [0.5, 1.0, 2.0])
def test_solve_front_matches_ode_oracle(worked_data, worked_data_k0, t_end):
    for data in (worked_data, worked_data_k0):
        traj = solve_front(data, OMEGA0)
        phi_ref, e_ref = integrate_front_ode(data, t_end)
        assert abs(traj.phi(t_end) - phi_ref) < 1e-10
        assert abs(traj.e(t_end) - e_ref) < 1e-10


def test_pure_shock_has_no_amplitude():
    data = RiemannJumpData(0.0, 2.0, 0.0, 0.0, 0.0, 0.0)
    traj = solve_front(data, OMEGA0)
    for t in np.linspace(0, 3, 7):
        assert traj.e(t) == 0.0
        assert traj.p(t) == 0.0
    assert traj.p_dot(1.0) == 0.0


def test_shock_curve_data_keeps_amplitude_constant():
    # stress jump proportional to -k * velocity jump
    data = RiemannJumpData(0.0, 2.0, 0.0, -1.0 * 2.0, 0.3, 1.0)
    traj = solve_front(data, OMEGA0)
    for t in np.linspace(0, 2, 9):
        assert traj.e(t) == pytest.approx(0.3, abs=1e-15)


def test_defining_relation_holds_along_trajectory():
    # includes the stretch where e goes negative and p turns imaginary
    data = RiemannJumpData(0.0, 1.0, 0.0, 0.1, 0.02, 0.4)
    traj = solve_front(data, OMEGA0)
    assert traj.e_rate < 0.0
    for t in np.linspace(0.0, 3.0, 61):
        p_val = traj.p(t)
        assert abs(0.5 * p_val * p_val * traj.omega0 - traj.e(t)) < 1e-12


def test_p_branch_selection():
    traj = FrontTrajectory(0.5, -0.1, 0.05, OMEGA0)
    assert complex(traj.p(0.0)).imag == 0.0
    assert complex(traj.p(0.0)).real > 0.0
    late = complex(traj.p(2.0))
    assert late.real == 0.0 and late.imag > 0.0
    # p real exactly when e >= 0
    for t in np.linspace(0, 2, 21):
        p = complex(traj.p(t))
        assert (p.imag == 0.0) == (traj.e(t) >= 0.0)


def test_p_dot_matches_finite_difference():
    traj = FrontTrajectory(0.5, 0.3, 0.2, OMEGA0)
    h = 1e-7
    for t in (0.1, 0.9, 2.4):
        fd = (complex(traj.p(t + h)) - complex(traj.p(t - h))) / (2 * h)
        assert abs(fd - complex(traj.p_dot(t))) < 1e-6


def test_p_dot_singular_at_amplitude_zero():
    traj = FrontTrajectory(0.0, 1.0, 0.0, OMEGA0)  # e(0) = 0, rate 1
    with pytest.raises(ZeroDivisionError):
        traj.p_dot(0.0)


def test_linear_trajectory_accessors():
    traj = LinearTrajectory(0.4, 0.1, 0.2, 0.3 + 0.1j, 0.05)
    assert traj.phi(2.0) == 0.8
    assert traj.e(2.0) == pytest.approx(0.5)
    assert traj.p(2.0) == pytest.approx(0.3 + 0.1j + 0.1)
    assert traj.p_dot(1.0) == 0.05


def _bits(z) -> bytes:
    """The bytes of a complex value or array, so that -0.0 and 0.0 differ."""
    return np.asarray(z, dtype=complex).tobytes()


def _seeded_data(n=150):
    rng = np.random.default_rng(2024)
    return [sample_admissible_data(rng, (0.0, 0.1, 0.5)[i % 3]) for i in range(n)]


def test_p_dot_at_a_time_is_its_element_of_the_grid(kernel):
    # One path: p_dot at a scalar t is element t of the call on the grid,
    # bit for bit.  Python's complex division and cmath differed from numpy
    # in the last bits on 2,637 of the 9,900 cases of both kernels.
    times = default_t_grid()
    for data in _seeded_data():
        traj = solve_front(data, kernel.omega0)
        grid = traj.p_dot(times)
        for t, expected in zip(times, grid):
            assert _bits(traj.p_dot(t)) == _bits(expected), (data, t)


def test_evaluate_gives_the_four_methods_bitwise(kernel):
    # (phi, e, p, p_dot) from one evaluation of e and p equal the four
    # methods called in turn, bit for bit, on the grid and at a scalar time,
    # for solved and for free trajectories.
    times = default_t_grid()
    for data in _seeded_data(30):
        solved = solve_front(data, kernel.omega0)
        free = LinearTrajectory(solved.phi_dot, data.e0, solved.e_rate, 0.5 - 0.25j, 0.1j)
        for traj in (solved, free):
            for t in (times, 0.5):
                got = traj.evaluate(t)
                want = (traj.phi(t), traj.e(t), traj.p(t), traj.p_dot(t))
                assert [np.shape(v) for v in got] == [np.shape(v) for v in want]
                assert list(map(_bits, got)) == list(map(_bits, want)), (data, t)


def test_evaluate_singular_at_amplitude_zero_as_p_dot():
    traj = FrontTrajectory(0.0, 1.0, 0.0, OMEGA0)  # e(0) = 0, rate 1
    for t in (0.0, np.array([1.0, 0.0])):
        with pytest.raises(ZeroDivisionError) as from_p_dot:
            traj.p_dot(t)
        with pytest.raises(ZeroDivisionError) as from_evaluate:
            traj.evaluate(t)
        assert str(from_evaluate.value) == str(from_p_dot.value) == (
            "p_dot is singular where e(t) crosses zero with nonzero rate")


def test_p_is_the_correctly_rounded_root(kernel):
    # e(t) = -0.0 + 1.0 t is t itself, signed zeros included.
    rng = np.random.default_rng(7)
    magnitudes = 10.0 ** rng.uniform(-300.0, 300.0, 200)
    es = np.concatenate([rng.uniform(-10.0, 10.0, 200), magnitudes, -magnitudes,
                         [0.0, -0.0]])
    traj = FrontTrajectory(0.0, 1.0, -0.0, kernel.omega0)
    assert _bits(traj.e(es)) == _bits(es)
    root = np.sqrt(np.abs(2.0 * es / kernel.omega0))
    real = es >= 0.0
    expected = np.empty(es.shape, dtype=complex)
    expected.real = np.where(real, root, 0.0)
    expected.imag = np.where(real, 0.0, root)
    p = traj.p(es)
    assert _bits(p) == _bits(expected)
    assert np.all(p[real].imag == 0.0) and not np.any(np.signbit(p[real].real))
    assert np.all(p[~real].real == 0.0) and not np.any(np.signbit(p.imag))
    for e, want in zip(es, expected):
        assert _bits(traj.p(e)) == _bits(want), e


def test_replay_reads_no_p_dot(kernel):
    # p_dot multiplies only R, of eps power +1/2: two trajectories that agree
    # in phi, e and p at the replay time replay the same coefficients.
    for data in _seeded_data(6):
        rates = (front_speed(data), data.e0, e_rate(data))
        slow = LinearTrajectory(*rates, p0=0.5 + 0.25j, p_rate=1.0)
        fast = LinearTrajectory(*rates, p0=-2.5 + 0.25j, p_rate=4.0)
        assert _bits(slow.p(1.0)) == _bits(fast.p(1.0))
        assert _bits(slow.p_dot(1.0)) != _bits(fast.p_dot(1.0))
        measured = [replay_derivation(data, traj, kernel, t=1.0).measured
                    for traj in (slow, fast)]
        assert _bits(measured[0]) == _bits(measured[1]), data


def test_fields_keep_the_shape_of_x(quartic):
    # A 0-d x gives 0-d values equal to element 0 of the 1-element call.
    data = RiemannJumpData(0.0, 1.0, 0.0, 0.1, 0.01, 0.45)
    eps = 0.05
    ansatz = SmoothAnsatz(data, solve_front(data, quartic.omega0), quartic)
    for t in (0.5, 2.0):  # e(t) > 0 and e(t) < 0, where p is imaginary
        phi = float(ansatz.front.phi(t))
        for x in phi + eps * np.array([-4.5, -3.5, -2.0, 0.0, 2.0, 3.5, 4.5]):
            for method in (ansatz.eval_fields, ansatz.eval_derivatives):
                one = method(np.array([x]), t, eps)
                for got, want in zip(method(np.float64(x), t, eps), one):
                    assert isinstance(got, np.ndarray) and got.shape == ()
                    assert want.shape == (1,)
                    assert got.dtype == want.dtype
                    assert _bits(got) == _bits(want[0])


# --- admissibility ----------------------------------------------------------


def test_overcompressivity_worked_examples():
    adm = overcompressivity(RiemannJumpData(0.0, 2.0, 0.0, 0.5, 0.0, 0.1))
    assert adm.admissible
    assert adm.margins == pytest.approx((1.8, 1.15, 0.65))
    assert overcompressivity(RiemannJumpData(0.0, 2.0, 0.0, 0.5, 0.0, 0.0)).admissible
    assert not overcompressivity(RiemannJumpData(0.0, -2.0, 0.0, 0.0, 0.0, 0.1)).admissible
    assert not overcompressivity(RiemannJumpData(0.0, -2.0, 0.0, 0.0, 0.0, 0.0)).admissible


def test_overcompressivity_boundaries_strict():
    # u1 = 2k exactly and ratio at the window edge are both excluded
    assert not overcompressivity(RiemannJumpData(0.0, 0.2, 0.0, 0.0, 0.0, 0.1)).admissible
    u1, k = 2.0, 0.1
    edge = u1 * (u1 / 2 - k)
    assert not overcompressivity(RiemannJumpData(0.0, u1, 0.0, edge, 0.0, k)).admissible
    assert not overcompressivity(RiemannJumpData(0.0, u1, 0.0, -edge, 0.0, k)).admissible
    assert overcompressivity(RiemannJumpData(0.0, u1, 0.0, 0.999 * edge, 0.0, k)).admissible


def test_overcompressivity_zero_jump():
    adm = overcompressivity(RiemannJumpData(0.0, 0.0, 0.0, 1.0, 0.0, 0.1))
    assert not adm.admissible
    assert adm.violated()


@given(u1=st.floats(-4, 4), ratio=st.floats(-3, 3), k=st.floats(0, 1.5))
@settings(max_examples=200)
def test_overcompressivity_matches_direct_inequalities(u1, ratio, k):
    if u1 == 0.0:
        return
    s1 = ratio * u1
    adm = overcompressivity(RiemannJumpData(0.0, u1, 0.0, s1, 0.0, k))
    direct = (u1 > 2 * k) and (-(u1 / 2 - k) < s1 / u1 < (u1 / 2 - k))
    assert adm.admissible == direct


@given(u1=st.floats(0.1, 3), s1=st.floats(-2, 2), e0=st.floats(0, 1),
       t=st.floats(0, 5))
@settings(max_examples=50)
def test_degenerate_system_amplitude_stays_nonnegative(u1, s1, e0, t):
    # k = 0 with a positive velocity jump: the amplitude rate is
    # nonnegative, so nonnegative initial amplitude keeps p real forever
    traj = solve_front(RiemannJumpData(0.0, u1, 0.0, s1, e0, 0.0), OMEGA0)
    assert float(traj.e(t)) >= 0.0
    assert complex(traj.p(t)).imag == 0.0


@given(u0=st.floats(-3, 3), a=st.floats(-2, 2))
@settings(max_examples=50)
def test_velocity_shift_covariance(u0, a):
    base = RiemannJumpData(u0, 1.5, 0.2, 0.3, 0.0, 0.1)
    shifted = RiemannJumpData(u0 + a, 1.5, 0.2, 0.3, 0.0, 0.1)
    assert front_speed(shifted) - front_speed(base) == pytest.approx(a, abs=1e-12)
    assert e_rate(shifted) == e_rate(base)


@given(u1=st.floats(0.2, 3), s1=st.floats(-2, 2), k=st.floats(0, 1))
@settings(max_examples=100)
def test_amplitude_rate_vanishes_exactly_on_shock_curves(u1, s1, k):
    # u1 * e-rate equals s1^2 - k^2 u1^2, so the rate vanishes iff the
    # stress jump sits on one of the two straight shock curves
    data = RiemannJumpData(0.0, u1, 0.0, s1, 0.0, k)
    assert e_rate(data) * u1 == pytest.approx(s1 * s1 - (k * u1) ** 2, abs=1e-12)


def test_stationary_amplitude_exact_directions():
    # forward: on-curve data has zero rate
    for sgn in (1.0, -1.0):
        data = RiemannJumpData(0.3, 1.7, 0.0, sgn * 0.25 * 1.7, 0.0, 0.25)
        assert abs(e_rate(data)) < 1e-16
    # backward: zero rate forces the curve relation
    data = RiemannJumpData(0.3, 1.7, 0.0, 0.2, 0.0, 0.25)
    assert abs(e_rate(data)) > 0.0
    assert not math.isclose(0.2**2, (0.25 * 1.7) ** 2)


# --- jump relations ---------------------------------------------------------


def test_volpert_relations_mean_speed_no_stress_jump():
    u_left, u_right = 1.4, -0.6
    r1, r2 = volpert_relations(u_left, u_right, 0.7, 0.7, (u_left + u_right) / 2)
    assert abs(r1) < 1e-12 and r2 == 0.0


def test_volpert_relations_worked_example():
    r1, r2 = volpert_relations(2.0, 0.0, 1.0, 0.0, 1.0)
    assert r1 == -1.0
    assert r2 == 0.0


def test_volpert_scan_positive_floor():
    floor, s_at = volpert_scan(2.0, 0.0, 0.5, 0.0)
    assert floor > 1e-3
    assert floor == pytest.approx(0.1, abs=5e-3)
    assert s_at == pytest.approx(0.8, abs=0.02)


def test_volpert_product_pairing_worked(quartic):
    data = RiemannJumpData(0.0, 2.0, 0.0, -2.0, 0.0, 1.0)
    coeff = volpert_product_pairing(data, kernel=quartic)
    assert coeff == pytest.approx(2.0, abs=1e-4)


def test_volpert_product_pairing_zero_stress(quartic):
    data = RiemannJumpData(0.0, 2.0, 0.0, 0.0, 0.0, 0.0)
    assert volpert_product_pairing(data, kernel=quartic) == pytest.approx(
        0.0, abs=1e-8)


def test_volpert_product_pairing_requires_shock_case(quartic):
    with pytest.raises(NotApplicableError):
        volpert_product_pairing(RiemannJumpData(0.0, 2.0, 0.0, 0.5, 0.1, 0.1),
                                kernel=quartic)


def _shock_cases():
    """Acceptance criterion 7's shock-curve data: sigma1 = +-k u1, e0 = 0."""
    cases = [RiemannJumpData(0.0, 2.0, 0.0, -2.0, 0.0, 1.0),
             RiemannJumpData(0.0, 2.0, 0.0, 2.0, 0.0, 1.0)]
    rng = np.random.default_rng(11)
    for _ in range(10):
        u1 = float(rng.uniform(0.5, 3.0))
        k = float(rng.uniform(0.05, 1.0))
        sgn = 1.0 if rng.random() < 0.5 else -1.0
        cases.append(RiemannJumpData(float(rng.uniform(-1, 1)), u1,
                                     float(rng.uniform(-1, 1)), sgn * k * u1,
                                     0.0, k))
    return cases


@pytest.mark.parametrize("kind,tol", [("quartic", 1e-13), ("exponential", 1e-11)])
def test_volpert_product_pairing_exact_on_shock_curves(kind, tol):
    # The quartic table's column sums are exact; the exponential ones carry
    # the table's quadrature error.
    kernel = make_kernel(kind)
    for data in _shock_cases():
        expected = -data.sigma1 * (data.u0 + data.u1 / 2)
        assert abs(volpert_product_pairing(data, kernel) - expected) <= tol


def test_volpert_product_pairing_matches_measured_pairings(kernel):
    # An independent path: Re(u) * dsigma/dx of the ansatz paired with the
    # probes at the front over the default eps grid, and the point-mass
    # limit extrapolated.
    t = 1.0
    for data in _shock_cases():
        traj = solve_front(data, kernel.omega0)
        ansatz = SmoothAnsatz(data, traj, kernel)

        def family(eps):
            def fn(x):
                u, _ = ansatz.eval_fields(x, t, eps)
                return np.real(u) * ansatz.eval_derivatives(x, t, eps)[3]
            breaks = ansatz.breakpoints(t, eps)
            return Piecewise(fn, breaks[0], breaks[-1], breaks[1:-1])

        a_rep, _ = extract_point_coeffs(family, float(traj.phi(t)), default_eps_grid())
        assert abs(volpert_product_pairing(data, kernel)
                   - a_rep.extrapolated_limit) <= 1e-6


def test_trajectory_columns(worked_data):
    t, phi, e, re_p, im_p = trajectory_columns(solve_front(worked_data, OMEGA0), [0.0, 1.0])
    assert (t[0], phi[0], e[0], re_p[0], im_p[0]) == (
        0.0, 0.0, 0.1, pytest.approx(math.sqrt(0.2 / OMEGA0)), 0.0)
    assert phi[1] == 0.75


def _front_cases():
    """(front, t grid) pairs: seeded fronts on seeded grids, and the edges of
    the principal root: p imaginary, e = 0 at a node, a zero rate, signed
    zero amplitudes, and amplitudes at both ends of the float range."""
    rng = np.random.default_rng(4501)
    cases = []
    for _ in range(300):
        omega0 = OMEGA0 if rng.random() < 0.5 else float(rng.uniform(0.1, 2.0))
        front = FrontTrajectory(*(float(v) for v in rng.uniform(-3.0, 3.0, 3)), omega0)
        cases.append((front, linear_grid(0.0, float(rng.uniform(0.1, 20.0)),
                                         int(rng.integers(2, 65)))))
    grid = linear_grid(0.0, 1.0, 33)
    big = 0.49 * sys.float_info.max * OMEGA0  # 2 e/omega0 just inside the range
    for phi_dot, rate, e0 in [
            (0.75, -2.0, -0.1),                 # e < 0 throughout: p imaginary
            (0.75, 1.0, -0.5),                  # e = 0 at the node t = 0.5
            (0.75, -1.0, 0.5),                  # and from above
            (-0.5, 0.0, 0.3), (0.0, 0.0, -0.3),  # a zero rate
            (0.5, 0.0, 0.0), (0.5, 0.0, -0.0), (-0.5, -1.0, -0.0), (0.5, 1.0, -0.0),
            (1e308, big, -big), (-1e308, -big, big), (0.5, 0.0, -big),
            (0.5, 5e-324, -5e-324), (0.5, -5e-324, 0.0), (0.5, 1e-310, -2e-310)]:
        cases.append((FrontTrajectory(phi_dot, rate, e0, OMEGA0), grid))
    return cases


def test_trajectory_columns_are_the_array_form_bitwise():
    # front tabulates on Python floats: each column must be what the array
    # methods, which the verifier evaluates, give to the bit, signed zeros
    # of the principal root included.
    for front, grid in _front_cases():
        columns = trajectory_columns(front, grid)
        assert all(type(v) is float for column in columns for v in column)
        t = np.array(grid)
        p = front.p(t)
        for got, want in zip(columns, (t, front.phi(t), front.e(t), p.real, p.imag)):
            assert np.array(got).tobytes() == want.tobytes(), front


def test_trajectories_implement_front():
    members = {"phi", "e", "p", "p_dot", "evaluate", *Front.__annotations__}
    assert members == {"phi", "e", "p", "p_dot", "evaluate", "phi_dot", "e_rate"}
    for traj in (solve_front(RiemannJumpData(0.0, 2.0, 0.0, 0.5, 0.1), OMEGA0),
                 LinearTrajectory(0.5)):
        assert all(hasattr(traj, name) for name in members)


@pytest.mark.parametrize("data,quantity", [
    (RiemannJumpData(0.0, 2.0, 0.0, 1e300), "amplitude rate"),
    (RiemannJumpData(0.0, 2.0, 0.0, 0.5, 0.0, 1e200), "amplitude rate"),
    (RiemannJumpData(0.0, 1e-300, 0.0, 1e300), "front speed"),
])
def test_overflowing_data_names_the_quantity(data, quantity):
    # sigma1**2 used to raise a bare OverflowError: (34, 'Numerical result
    # out of range'); sigma1/u1 used to give inf.
    with pytest.raises(OverflowError, match=quantity) as info:
        solve_front(data, OMEGA0)
    assert repr(data) in str(info.value)
