"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here and nowhere else.
"""

import numpy as np
from scipy.integrate import solve_ivp

from deltashock.ansatz import RiemannJumpData
from deltashock.dynamics import (
    LinearTrajectory,
    e_rate,
    front_speed,
    overcompressivity,
    solve_front,
    volpert_product_pairing,
)
from deltashock.kernels import (
    default_eps_grid,
    eval_correction,
    eval_delta_reg,
    eval_delta_reg_dx,
)
from deltashock.pairing import (
    TestFunction,
    fit_loglog_slope,
    verify_lemma31,
)
from deltashock.riemann import CLASSICAL, State, k_limit_gap
from deltashock.verifier import replay_derivation, sample_admissible_data
from oracle import classify_waves, equation_orders, replay_closed_forms, volpert_scan

EPS_GRID = default_eps_grid(3, 12)
WORKED_C = 0.375


def verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_expansion_suite_coefficients(quartic):
    # twelve families, signed coefficients within 1e-6, signs fixed by the
    # rising-step orientation (step derivative pairs to +1)
    reports = {r.name: r for r in verify_lemma31(quartic, WORKED_C, EPS_GRID)}
    expected = {
        "R": (0.0, 0.0), "dR": (0.0, 0.0),
        "R2": (quartic.omega0, 0.0), "RdR": (0.0, quartic.omega0 / 2),
        "delta": (1.0, 0.0), "ddelta": (0.0, 1.0),
        "Rdelta": (0.0, 0.0), "Rddelta": (0.0, 0.0),
        "dH": (1.0, 0.0), "HdH": (0.5, 0.0), "RdH": (0.0, 0.0),
        "Hddelta": (0.0, WORKED_C),
    }
    worst = 0.0
    for name, (ea, eb) in expected.items():
        rep = reports[name]
        worst = max(worst, abs(rep.measured_a - ea), abs(rep.measured_b - eb))
    ok = worst <= 1e-6 and all(r.passed for r in reports.values())
    verdict(1, ok, f"12 expansion coefficients, worst error {worst:.2e} (tol 1e-6)")


def test_criterion_02_exact_zero_products(quartic):
    worst = 0.0
    for eps in EPS_GRID:
        xs = np.linspace(-4 * eps, 4 * eps, 10**4)
        r = eval_correction(xs, eps, quartic)
        worst = max(worst,
                    float(np.max(np.abs(r * eval_delta_reg(xs, eps, quartic)))),
                    float(np.max(np.abs(r * eval_delta_reg_dx(xs, eps, quartic)))))
    verdict(2, worst == 0.0,
            f"correction x regularized-delta products, max |value| = {worst!r}")


def test_criterion_03_omega0_oracle(quartic):
    nodes, weights = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(-1, 1, 65)
    a, b = edges[:-1], edges[1:]
    xs = 0.5 * (b - a)[:, None] * nodes[None, :] + 0.5 * (a + b)[:, None]
    ws = 0.5 * (b - a)[:, None] * weights[None, :]
    by_quad = float(np.sum(ws * quartic.value(xs) ** 2))
    err = abs(by_quad - 5.0 / 7.0)
    ok = err < 1e-12 and quartic.omega0 == 5.0 / 7.0
    verdict(3, ok, f"quartic omega0 = 5/7, quadrature error {err:.2e} (tol 1e-12)")


def test_criterion_04_derivation_replay(quartic):
    rng = np.random.default_rng(20260810)
    worst_on = 0.0
    worst_match = 0.0
    for i in range(20):
        k = 0.0 if i % 2 == 0 else float(rng.uniform(0.02, 0.5))
        data = sample_admissible_data(rng, k)
        traj = solve_front(data, quartic.omega0)
        on = replay_derivation(data, traj, quartic)
        worst_on = max(worst_on, max(abs(m) for m in on.measured[:3]))
        free = LinearTrajectory(
            traj.phi_dot + float(rng.uniform(-0.5, 0.5)),
            traj.e0 + float(rng.uniform(-0.2, 0.2)),
            traj.e_rate + float(rng.uniform(-0.3, 0.3)),
            complex(traj.p(0.0)) + float(rng.uniform(-0.3, 0.3)),
            float(rng.uniform(-0.2, 0.2)))
        off = replay_derivation(data, free, quartic)
        closed = replay_closed_forms(data, free, quartic)
        worst_match = max(worst_match, max(
            abs(m - c) for m, c in zip(off.measured[:3], closed[:3])))
    ok = worst_on <= 1e-3 and worst_match <= 1e-3
    verdict(4, ok, "20 random data: on-shell coefficients "
            f"{worst_on:.2e}, closed-form mismatch {worst_match:.2e} (tol 1e-3)")


def test_criterion_05_weak_solution_orders(worked_report, worked_report_k0):
    details = []
    ok = True
    for label, report in (("k=0.1", worked_report), ("k=0", worked_report_k0)):
        u_ord = min(equation_orders(report, "u"))
        s_ord = min(equation_orders(report, "sigma"))
        ok = ok and report.passed and u_ord >= 0.45 and s_ord >= 0.9
        details.append(f"{label}: u-order {u_ord:.3f} (>=0.45), "
                       f"sigma-order {s_ord:.3f} (>=0.9)")
    verdict(5, ok, "; ".join(details))


def test_criterion_06_front_dynamics_oracle(worked_data, worked_data_k0, quartic):
    worst = 0.0
    for data in (worked_data, worked_data_k0):
        traj = solve_front(data, quartic.omega0)
        speed, rate = front_speed(data), e_rate(data)
        for t_end in (0.5, 1.0, 2.0):
            sol = solve_ivp(lambda t, y: [speed, rate], (0.0, t_end),
                            [0.0, data.e0], rtol=1e-12, atol=1e-14)
            worst = max(worst, abs(float(traj.phi(t_end)) - sol.y[0][-1]),
                        abs(float(traj.e(t_end)) - sol.y[1][-1]))
    traj = solve_front(worked_data, quartic.omega0)
    exact = (traj.phi(1.0) == 0.75
             and abs(traj.e(1.0) - 0.205) < 1e-15)
    ok = worst < 1e-10 and exact
    verdict(6, ok, f"closed forms vs ODE integration, worst gap {worst:.2e} "
            "(tol 1e-10); phi(1) = 0.75, e(1) = 0.205")


def test_criterion_07_shock_recovery(quartic):
    rng = np.random.default_rng(11)
    worst_e = 0.0
    worst_coeff = 0.0
    cases = [RiemannJumpData(0.0, 2.0, 0.0, -2.0, 0.0, 1.0),
             RiemannJumpData(0.0, 2.0, 0.0, 2.0, 0.0, 1.0)]
    for _ in range(10):
        u1 = float(rng.uniform(0.5, 3.0))
        k = float(rng.uniform(0.05, 1.0))
        sgn = 1.0 if rng.random() < 0.5 else -1.0
        cases.append(RiemannJumpData(float(rng.uniform(-1, 1)), u1,
                                     float(rng.uniform(-1, 1)), sgn * k * u1,
                                     0.0, k))
    for data in cases:
        traj = solve_front(data, quartic.omega0)
        worst_e = max(worst_e, max(abs(float(traj.e(t)))
                                   for t in np.linspace(0, 2, 9)))
        coeff = volpert_product_pairing(data, kernel=quartic)
        expected = -data.sigma1 * (data.u0 + data.u1 / 2)
        worst_coeff = max(worst_coeff, abs(coeff - expected))
    ok = worst_e <= 1e-12 and worst_coeff <= 1e-4
    verdict(7, ok, f"shock-curve data: max |e(t)| = {worst_e:.2e} (tol 1e-12), "
            f"averaged-product coefficient error {worst_coeff:.2e} (tol 1e-4)")


def test_criterion_08_no_bv_solution_for_degenerate_system(worked_data):
    u_left, sigma_left = worked_data.left_state
    u_right, sigma_right = worked_data.right_state
    floor, s_at = volpert_scan(u_left, u_right, sigma_left, sigma_right,
                               -10.0, 10.0, 2001)
    ok = floor > 1e-3
    verdict(8, ok, "jump-relation residual floor over s in [-10, 10]: "
            f"{floor:.6g} at s = {s_at:g} (must exceed 1e-3)")


def test_criterion_09_riemann_solver():
    left, right = State(2.0, 1.0), State(0.0, 0.0)
    k = 1.0
    sol = classify_waves(left, right, k)
    inv1 = abs(sol.sigma_star - (left.sigma + k * (sol.u_star - left.u)))
    inv2 = abs(right.sigma - (sol.sigma_star - k * (right.u - sol.u_star)))
    values_ok = (sol.u_star, sol.sigma_star) == (0.5, -0.5) and \
        sol.wave1.speed == 0.25 and sol.wave2.speed == 1.25
    stable = True
    rng = np.random.default_rng(2)
    for _ in range(20):
        dl = rng.uniform(-1e-12, 1e-12, size=4)
        pert = classify_waves(State(left.u + dl[0], left.sigma + dl[1]),
                              State(right.u + dl[2], right.sigma + dl[3]), k)
        stable = stable and pert.regime == CLASSICAL \
            and pert.wave1.kind == "shock" and pert.wave2.kind == "shock"
    ok = inv1 < 1e-12 and inv2 < 1e-12 and values_ok and stable
    verdict(9, ok, f"(u*, sigma*) = (0.5, -0.5), speeds (0.25, 1.25); "
            f"line residuals ({inv1:.1e}, {inv2:.1e}) < 1e-12; "
            "classification stable under 1e-12 perturbations")


def test_criterion_10_small_k_convergence(worked_data):
    t = 1.0
    front = front_speed(worked_data) * t
    phi_test = TestFunction(front, 1.0)
    ks = (0.1, 0.05, 0.025)
    worst = 0.0
    gaps = []
    for k in ks:
        gap = k_limit_gap(worked_data, k, t, phi_test)
        expected = -(k**2) * worked_data.u1 * t * float(phi_test.value(front))
        worst = max(worst, abs(gap - expected))
        gaps.append(abs(gap))
    order = fit_loglog_slope(ks, [gaps], [0.0]).order[0]
    u_gaps = [k_limit_gap(worked_data, k, t, phi_test, component="u") for k in ks]
    ok = worst <= 1e-10 and abs(order - 2.0) <= 0.01 and all(g == 0.0 for g in u_gaps)
    verdict(10, ok, f"stress gap error {worst:.2e} (tol 1e-10), fitted order "
            f"{order:.4f} (2 +- 0.01), velocity gap identically 0")


def test_criterion_11_overcompressivity_windows():
    boundary_ok = True
    for k in (0.0, 0.1, 0.4):
        u1 = 2.0
        if k > 0:
            boundary_ok = boundary_ok and not overcompressivity(
                RiemannJumpData(0.0, 2 * k, 0.0, 0.0, 0.0, k)).admissible
        edge = u1 * (u1 / 2 - k)
        for s1 in (edge, -edge):
            boundary_ok = boundary_ok and not overcompressivity(
                RiemannJumpData(0.0, u1, 0.0, s1, 0.0, k)).admissible
        boundary_ok = boundary_ok and overcompressivity(
            RiemannJumpData(0.0, u1, 0.0, 0.5 * edge, 0.0, k)).admissible
    rng = np.random.default_rng(31)
    mismatches = 0
    for _ in range(10**4):
        u1 = float(rng.uniform(-4, 4)) or 0.1
        s1 = float(rng.uniform(-4, 4))
        k = float(rng.choice([0.0, rng.uniform(0.0, 1.5)]))
        adm = overcompressivity(RiemannJumpData(0.0, u1, 0.0, s1, 0.0, k))
        direct = u1 > 2 * k and -(u1 / 2 - k) < s1 / u1 < (u1 / 2 - k)
        mismatches += adm.admissible != direct
    ok = boundary_ok and mismatches == 0
    verdict(11, ok, "boundary data inadmissible, interior admissible, "
            f"{mismatches} mismatches in 10^4 random samples")
