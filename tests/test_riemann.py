import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deltashock.ansatz import RiemannJumpData
from deltashock.dynamics import (
    AdmissibilityError,
    NotApplicableError,
    front_speed,
    overcompressivity,
)
from deltashock.fit import fit_loglog_slope
from deltashock.pairing import PLAIN_BUMP, default_test_suite
from deltashock.riemann import (
    CLASSICAL,
    DELTA_REGIME,
    NO_SOLUTION,
    REGIMES,
    State,
    eval_riemann,
    k_limit_gap,
    regime_sweep,
    solve,
)
from oracle import classify_waves, delta_regime_test

WORKED_LEFT = State(2.0, 1.0)
WORKED_RIGHT = State(0.0, 0.0)


def line_intersection_oracle(left, right, k):
    # sigma = sigma_L + k (u - u_L)  and  sigma = sigma_R - k (u - u_R)
    mat = np.array([[-k, 1.0], [k, 1.0]])
    rhs = np.array([left.sigma - k * left.u, right.sigma + k * right.u])
    u, sigma = np.linalg.solve(mat, rhs)
    return float(u), float(sigma)


def shock_speed_oracle(ul, sl, ur, sr):
    # first averaged jump relation solved for the speed
    return ((ul**2 - ur**2) / 2 - (sl - sr)) / (ul - ur)


def test_intermediate_state_worked():
    sol = classify_waves(WORKED_LEFT, WORKED_RIGHT, 1.0)
    u_star, s_star = sol.u_star, sol.sigma_star
    assert (u_star, s_star) == (0.5, -0.5)
    oracle = line_intersection_oracle(WORKED_LEFT, WORKED_RIGHT, 1.0)
    assert u_star == pytest.approx(oracle[0], abs=1e-12)
    assert s_star == pytest.approx(oracle[1], abs=1e-12)


def test_intermediate_state_constant_data():
    s = State(0.7, -0.3)
    sol = classify_waves(s, s, 0.4)
    assert (sol.u_star, sol.sigma_star) == (0.7, -0.3)


def test_intermediate_state_blows_up_as_k_vanishes():
    left, right = State(1.0, 1.0), State(0.0, 0.0)
    mean = 0.5 * (left.u + right.u)
    for k in (1e-2, 1e-4, 1e-6):
        u_star = classify_waves(left, right, k).u_star
        assert u_star - mean == pytest.approx(
            (right.sigma - left.sigma) / (2 * k), rel=1e-12)
    assert abs(classify_waves(left, right, 1e-6).u_star) > 1e5


def test_intermediate_state_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        classify_waves(WORKED_LEFT, WORKED_RIGHT, 0.0)


@given(ul=st.floats(-3, 3), sl=st.floats(-3, 3), ur=st.floats(-3, 3),
       sr=st.floats(-3, 3), k=st.floats(0.05, 2.0))
@settings(max_examples=150)
def test_intermediate_state_sits_on_both_lines(ul, sl, ur, sr, k):
    left, right = State(ul, sl), State(ur, sr)
    sol = classify_waves(left, right, k)
    u_star, s_star = sol.u_star, sol.sigma_star
    assert s_star == pytest.approx(sl + k * (u_star - ul), abs=1e-12)
    assert sr == pytest.approx(s_star - k * (ur - u_star), abs=1e-12)


def test_classify_worked_two_shocks():
    sol = classify_waves(WORKED_LEFT, WORKED_RIGHT, 1.0)
    assert sol.regime == CLASSICAL
    assert sol.wave1.kind == "shock" and sol.wave1.speed == 0.25
    assert sol.wave2.kind == "shock" and sol.wave2.speed == 1.25
    # speeds satisfy the first averaged jump relation across each wave
    s1 = shock_speed_oracle(WORKED_LEFT.u, WORKED_LEFT.sigma,
                            sol.u_star, sol.sigma_star)
    s2 = shock_speed_oracle(sol.u_star, sol.sigma_star,
                            WORKED_RIGHT.u, WORKED_RIGHT.sigma)
    assert sol.wave1.speed == pytest.approx(s1, abs=1e-12)
    assert sol.wave2.speed == pytest.approx(s2, abs=1e-12)


def test_classify_two_rarefactions():
    left, right = State(0.0, 0.0), State(2.0, 0.0)
    sol = classify_waves(left, right, 1.0)
    assert sol.u_star == 1.0 and sol.sigma_star == 1.0
    assert sol.wave1.kind == "rarefaction" and sol.wave1.fan == (-1.0, 0.0)
    assert sol.wave2.kind == "rarefaction" and sol.wave2.fan == (2.0, 3.0)
    for w in (sol.wave1, sol.wave2):
        assert w.fan == (w.slowest, w.fastest) and w.speed is None


def test_classify_zero_strength_wave_stable():
    # data already on the 2-family line: wave 1 degenerates to nothing
    left, right = State(1.0, 0.5), State(0.0, 0.5 + 1.0 * 1.0)
    sol = classify_waves(left, right, 1.0)
    assert sol.wave1.kind == "none"
    # an absent wave spans -inf (family 1) or +inf (family 2); a shock its speed
    assert (sol.wave1.slowest, sol.wave1.fastest) == (-np.inf, -np.inf)
    assert sol.wave1.speed is None and sol.wave1.fan is None
    assert sol.wave2.kind == "shock" and sol.wave2.fan is None
    assert sol.wave2.speed == sol.wave2.slowest == sol.wave2.fastest == 1.5
    # data on the 1-family line: wave 2 is the absent one
    mirror = classify_waves(State(0.0, 0.0), State(1.0, 1.0), 1.0)
    assert mirror.wave1.kind == "rarefaction" and mirror.wave2.kind == "none"
    assert (mirror.wave2.slowest, mirror.wave2.fastest) == (np.inf, np.inf)
    for wiggle in (1e-12, -1e-12):
        sol2 = classify_waves(State(left.u + wiggle, left.sigma), right, 1.0)
        assert sol2.wave1.kind == "none"
        assert sol2.wave2.kind == sol.wave2.kind


def test_lax_ordering_on_classical_solutions():
    from oracle import volpert_relations

    rng = np.random.default_rng(3)
    seen = 0
    while seen < 50:
        ul, sl, ur, sr = rng.uniform(-2, 2, size=4)
        k = float(rng.uniform(0.3, 2.0))
        sol = solve(State(ul, sl), State(ur, sr), k)
        if sol.regime != CLASSICAL:
            continue
        seen += 1
        assert sol.wave1.fastest <= sol.wave2.slowest + 1e-12
        if sol.wave1.kind == "shock":
            assert sol.wave1.speed <= ul - k + 1e-12
            r1, _ = volpert_relations(ul, sol.u_star, sl, sol.sigma_star,
                                      sol.wave1.speed)
            assert abs(r1) < 1e-12
        if sol.wave1.kind == "rarefaction":
            assert sol.wave1.fan[0] <= sol.wave1.fan[1]
        if sol.wave2.kind == "shock":
            assert sol.wave2.speed >= ur + k - 1e-12
            r1, _ = volpert_relations(sol.u_star, ur, sol.sigma_star, sr,
                                      sol.wave2.speed)
            assert abs(r1) < 1e-12
        if sol.wave2.kind == "rarefaction":
            assert sol.wave2.fan[0] <= sol.wave2.fan[1]


def test_eval_riemann_regions():
    sol = classify_waves(WORKED_LEFT, WORKED_RIGHT, 1.0)
    u, s, _ = eval_riemann(sol, np.array([-5.0, 0.5, 5.0]), 1.0)
    assert u == [2.0, 0.5, 0.0]
    assert s == [1.0, -0.5, 0.0]
    # t defaults to 1
    assert eval_riemann(sol, [0.7])[:2] == ([0.5], [-0.5])
    with pytest.raises(ValueError):
        eval_riemann(sol, [0.0], 0.0)


def test_eval_riemann_fans_stay_on_wave_curves():
    left, right = State(0.0, 0.0), State(2.0, 0.0)
    sol = classify_waves(left, right, 1.0)
    t = 0.7
    xi = np.linspace(-1.0, 0.0, 41)
    u, s = map(np.array, eval_riemann(sol, xi * t, t)[:2])
    assert np.max(np.abs(s - (left.sigma + 1.0 * (u - left.u)))) < 1e-12
    assert np.max(np.abs(u - (xi + 1.0))) < 1e-12
    xi2 = np.linspace(2.0, 3.0, 41)
    u2, s2 = map(np.array, eval_riemann(sol, xi2 * t, t)[:2])
    assert np.max(np.abs(s2 - (sol.sigma_star - 1.0 * (u2 - sol.u_star)))) < 1e-12
    assert np.max(np.abs(u2 - (xi2 - 1.0))) < 1e-12


def test_eval_riemann_refuses_delta_regime():
    sol = solve(State(2.0, 0.0), State(0.0, 0.0), 0.1)
    assert sol.regime == DELTA_REGIME
    with pytest.raises(NotApplicableError):
        eval_riemann(sol, [0.0], 1.0)


def test_region_labels():
    sol = classify_waves(WORKED_LEFT, WORKED_RIGHT, 1.0)
    assert eval_riemann(sol, [-1.0, 0.5, 2.0])[2] == ["left", "middle", "right"]
    fan_sol = classify_waves(State(0.0, 0.0), State(2.0, 0.0), 1.0)
    assert eval_riemann(fan_sol, [-0.5, 2.5])[2] == ["fan-1", "fan-2"]


# Repro data: the 1-shock lies 2^-45 right of the 2-fan's head, inside the
# 1e-12 ordering tolerance, so xi = 1.2499999999999432 is both left of
# wave 1 and inside fan 2.
OVERLAP_LEFT = State(2.0, 0.3125000000000284)
OVERLAP_RIGHT = State(1.25, 0.0)


def test_region_label_where_waves_overlap_names_the_values_region():
    sol = solve(OVERLAP_LEFT, OVERLAP_RIGHT, 0.25)
    assert sol.regime == CLASSICAL
    xi = 1.2499999999999432
    assert xi < sol.wave1.slowest and sol.wave2.slowest <= xi <= sol.wave2.fastest
    # the region used to say "left", whose state is (2.0, 0.3125000000000284)
    assert eval_riemann(sol, [xi]) == ([0.9999999999999432], [0.06250000000001421], ["fan-2"])


def _closed_form(sol, label, xi):
    """(u, sigma) a region's closed form gives at xi, as the solver writes it."""
    k = sol.k
    if label == "left":
        return sol.left.u, sol.left.sigma
    if label == "right":
        return sol.right.u, sol.right.sigma
    if label == "middle":
        return sol.u_star, sol.sigma_star
    if label == "fan-1":
        u = xi + k
        return u, sol.left.sigma + k * (u - sol.left.u)
    u = xi - k
    return u, sol.sigma_star - k * (u - sol.u_star)


def test_every_label_names_the_closed_form_of_its_values():
    rng = np.random.default_rng(3)
    seen = 0
    cases = [(OVERLAP_LEFT, OVERLAP_RIGHT, 0.25), (State(0.0, 0.0), State(2.0, 0.0), 1.0)]
    while seen < 50:
        ul, sl, ur, sr = rng.uniform(-2, 2, size=4)
        k = float(rng.uniform(0.3, 2.0))
        if solve(State(ul, sl), State(ur, sr), k).regime == CLASSICAL:
            cases.append((State(ul, sl), State(ur, sr), k))
            seen += 1
    for left, right, k in cases:
        sol = solve(left, right, k)
        edges = [e for w in (sol.wave1, sol.wave2) if w.kind != "none"
                 for e in (w.slowest, w.fastest)]
        xi = np.concatenate([np.linspace(-6.0, 6.0, 121),
                             *[np.nextafter(e, [-np.inf, np.inf]) for e in edges],
                             edges])
        for t in (1.0, 0.7):
            u, sigma, labels = eval_riemann(sol, xi * t, t)
            for x, lab, u_x, s_x in zip(xi * t / t, labels, u, sigma):
                assert (u_x, s_x) == _closed_form(sol, lab, x), (left, right, k, x, lab)


def test_delta_regime_test_cases():
    assert delta_regime_test(State(2.0, 0.3), State(0.0, 0.3), 0.1)
    assert not delta_regime_test(State(0.0, 0.0), State(2.0, 0.0), 0.1)
    assert not delta_regime_test(State(1.0, 0.0), State(1.0, 5.0), 0.1)
    # boundary u1 = 2k exactly is excluded
    assert not delta_regime_test(State(0.2, 0.0), State(0.0, 0.0), 0.1)


def test_no_solution_outside_both_regimes():
    # large velocity jump with stress jump outside the overcompressive window:
    # the two-wave construction loses its ordering and the front is not
    # overcompressive either
    left, right = State(4.0, 10.0), State(0.0, 0.0)
    assert not delta_regime_test(left, right, 0.2)
    sol = solve(left, right, 0.2)
    assert sol.regime == NO_SOLUTION
    assert sol.wave1.fastest > sol.wave2.slowest


def test_delta_speed_between_all_characteristics():
    rng = np.random.default_rng(5)
    for _ in range(50):
        k = float(rng.uniform(0.02, 0.6))
        u1 = float(rng.uniform(2 * k + 0.1, 2 * k + 3.0))
        window = u1 / 2 - k
        s1 = u1 * float(rng.uniform(-0.95, 0.95)) * window
        u0 = float(rng.uniform(-1, 1))
        data = RiemannJumpData(u0, u1, 0.0, s1, 0.0, k)
        if not overcompressivity(data).admissible:
            continue
        speed = front_speed(data)
        u_left, u_right = u0 + u1, u0
        assert u_right + k < speed < u_left - k
        assert u_right - k < speed < u_left + k


def test_k_limit_gap_worked(worked_data):
    gap = k_limit_gap(worked_data, 0.1, 1.0)
    assert gap == pytest.approx(-0.02, abs=1e-10)
    assert k_limit_gap(worked_data, 0.1, 1.0, component="u") == 0.0
    with pytest.raises(ValueError):
        k_limit_gap(worked_data, 0.1, 1.0, component="energy")
    with pytest.raises(ValueError):
        k_limit_gap(worked_data, 0.0, 1.0)


def test_k_limit_gap_quadratic_in_k(worked_data):
    ks = (0.1, 0.05, 0.025)
    gaps = [abs(k_limit_gap(worked_data, k, 1.0)) for k in ks]
    slope = fit_loglog_slope(ks, [gaps], [0.0]).order[0]
    assert slope == pytest.approx(2.0, abs=0.01)


def test_k_limit_gap_pairs_against_the_suite_bump_at_the_front():
    # The gap pairs against default_test_suite's plain bump at the one front
    # phi(t): that bump is exactly 1.0 at the front wherever it lies, odd
    # subnormals and the largest floats included, so the gap is the rate
    # gap times t to the bit.
    rng = np.random.default_rng(4502)
    fronts = [0.0, -0.0, 5e-324, -1.5e-323, 3.3e-308, 1e-300, -1e308,
              1.7976931348623157e308, *rng.uniform(-1e3, 1e3, 100),
              *(10.0 ** rng.uniform(-300, 300, 100))]
    for front in fronts:
        plain = default_test_suite(np.full(1, front), 0.0)[0]
        assert plain.modulation == PLAIN_BUMP
        assert float(plain.value(front)) == 1.0, front


def test_k_limit_gap_needs_a_front_in_float_range():
    data = RiemannJumpData(1e308, 2.0, 0.0, 0.5, 0.1, 0.1)
    assert k_limit_gap(data, 0.1, 1.0) == k_limit_gap(RiemannJumpData(0.0, *data[1:]), 0.1, 1.0)
    with pytest.raises(OverflowError, match=r"front position phi\(t\) .* at t=10 "):
        k_limit_gap(data, 0.1, 10.0)


def test_k_limit_gap_rejects_inadmissible():
    bad = RiemannJumpData(0.0, 0.3, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(AdmissibilityError, match="u1 - 2k"):
        k_limit_gap(bad, 0.5, 1.0)


def _sweep_rows(u1s, s1s, ks, *background):
    """The sweep's regime codes as rows (u1, sigma1, k, regime): k, then u1,
    then sigma1."""
    codes = regime_sweep(u1s, s1s, ks, *background)
    assert [[len(row) for row in grid] for grid in codes] == [[len(s1s)] * len(u1s)] * len(ks)
    assert {type(c) for grid in codes for row in grid for c in row} <= {int}
    return [(float(u1), float(s1), float(k), REGIMES[c])
            for k, grid in zip(ks, codes)
            for u1, row in zip(u1s, grid) for s1, c in zip(s1s, row)]


def test_regime_sweep_rows():
    rows = _sweep_rows([2.0, -1.0], [0.0, 3.0], [0.1])
    assert len(rows) == 4
    regimes = {(u1, s1): regime for u1, s1, _, regime in rows}
    assert regimes[(2.0, 0.0)] == DELTA_REGIME
    assert regimes[(-1.0, 0.0)] == CLASSICAL
    # k = 0 rows never report a classical solution
    rows0 = _sweep_rows([2.0], [0.5], [0.0])
    assert rows0[0][3] == DELTA_REGIME
    rows0 = _sweep_rows([-2.0], [0.5], [0.0])
    assert rows0[0][3] == NO_SOLUTION


# Dyadic grid, step 1/16 on [-4, 4], u1 = 0 included: at u0 = sigma0 = 0
# every boundary of the classification is hit exactly.
DYADIC = np.arange(-64, 65) / 16.0
SWEEP_KS = (0.0, 0.125, 0.5, 1.0, 3.0)


@pytest.mark.parametrize("u0,sigma0", [(0.0, 0.0), (0.3, -0.7)])
def test_regime_sweep_matches_per_point_solve(u0, sigma0):
    # The sweep against the per-point solve at every one of its 83,205
    # points: a solve costs a few microseconds.
    rows = _sweep_rows(DYADIC, DYADIC, SWEEP_KS, u0, sigma0)
    want = [(u1, s1, k, solve(State(u0 + u1, sigma0 + s1), State(u0, sigma0), k).regime)
            for k in SWEEP_KS for u1 in DYADIC.tolist() for s1 in DYADIC.tolist()]
    assert len(rows) == len(want) == 83_205
    assert rows == want
    assert {r[3] for r in rows} == {CLASSICAL, DELTA_REGIME, NO_SOLUTION}


@pytest.mark.parametrize("left,right,k", [
    (State(-0.014000000000000012, -1.42), State(-0.857, 0.0), 1.38e-316),
    (State(4.0, 1.0), State(0.0, 0.0), 1e308),
], ids=["u-star", "sigma-star"])
def test_intermediate_state_out_of_float_range_is_rejected(left, right, k):
    # solve raises where the intermediate state leaves the float range, so
    # no regime code names its answer there: the sweep rejects the grid.
    with pytest.raises(OverflowError, match=r"^intermediate state \(u\*, sigma\*\) is out"):
        solve(left, right, k)
    u1, s1 = left.u - right.u, left.sigma - right.sigma
    with pytest.raises(ValueError, match=re.escape(
            f"at k={k!r} the intermediate state (u*, sigma*) of the jump "
            f"u1={u1!r}, sigma1={s1!r} is out of float range")):
        regime_sweep([u1, 1.0], [s1], [0.5, k], right.u, right.sigma)


def test_dyadic_sweep_grid_hits_every_boundary():
    right = State(0.0, 0.0)
    hits = set()
    for k in SWEEP_KS[1:]:
        for u1 in DYADIC:
            for s1 in DYADIC:
                left = State(float(u1), float(s1))
                data = RiemannJumpData(0.0, float(u1), 0.0, float(s1), 0.0, k)
                if 0.0 in overcompressivity(data).margins:
                    hits.add("margin = 0")
                sol = classify_waves(left, right, k)
                if sol.u_star == left.u:
                    hits.add("no wave")
                if sol.wave1.fastest == sol.wave2.slowest:
                    hits.add("ordering tie")
            if len(hits) == 3:
                return
    pytest.fail(f"grid hits only {sorted(hits)}")


def test_regime_sweep_tiny_k_matches_solve():
    # (sigma0 - sigma_left) / (2k) overflows for most of these jumps: solve
    # rejects each such jump, and so does a sweep of it; the sweep gives
    # solve's regime at every other jump.
    grid = [-1.0, -1e-300, 1e-300, 0.5, 2.0]
    rejected = 0
    for k in (5e-324, 1e-310):
        for u1 in grid:
            for s1 in grid:
                try:
                    want = solve(State(u1, s1), State(0.0, 0.0), k).regime
                except OverflowError:
                    rejected += 1
                    with pytest.raises(ValueError, match="out of float range$"):
                        regime_sweep([u1], [s1], [k])
                else:
                    assert _sweep_rows([u1], [s1], [k])[0][3] == want
    assert 0 < rejected < 2 * len(grid) ** 2


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# k = 0, subnormal, moderate and near the largest float
_SWEEP_K = st.one_of(st.just(0.0), st.floats(5e-324, 2.2250738585072014e-308),
                     st.floats(1e-3, 1e3), st.floats(1e306, 1.7976931348623157e308))


@given(u0=_FINITE, u1=_FINITE, sigma0=_FINITE, sigma1=_FINITE, k=_SWEEP_K)
# a 1-shock speed that rounds to -inf: the sweep coded it classical
@example(u0=-7e307, u1=-3e307, sigma0=0.0, sigma1=1.3e308, k=1.0)
# k = 0 outside the window: solve raised ValueError
@example(u0=0.0, u1=-2.0, sigma0=0.0, sigma1=0.5, k=0.0)
# u* and sigma* out of float range
@example(u0=-0.857, u1=-0.014000000000000012 + 0.857, sigma0=0.0, sigma1=-1.42, k=1.38e-316)
@example(u0=0.0, u1=4.0, sigma0=0.0, sigma1=1.0, k=1e308)
# u0 + u1 overflows: both coded it delta-shock, reading the jump as inf
@example(u0=1e308, u1=1e308, sigma0=0.0, sigma1=0.0, k=6e307)
@settings(max_examples=300, deadline=None)
def test_regime_sweep_codes_what_solve_answers(u0, u1, sigma0, sigma1, k):
    left, right = State(u0 + u1, sigma0 + sigma1), State(u0, sigma0)
    try:
        want = solve(left, right, k).regime
    except OverflowError as exc:
        quantity = str(exc).partition(" is out of float range for ")[0]
        with pytest.raises(ValueError, match=re.escape(
                f"at k={k!r} the {quantity} of the jump u1={u1!r}, sigma1={sigma1!r} "
                "is out of float range")):
            regime_sweep([u1], [sigma1], [k], u0, sigma0)
        return
    except ValueError:
        assert not all(map(math.isfinite, left))
        with pytest.raises(ValueError, match="^the left state .* is out of float range$"):
            regime_sweep([u1], [sigma1], [k], u0, sigma0)
        return
    assert _sweep_rows([u1], [sigma1], [k], u0, sigma0)[0][3] == want


def test_left_state_out_of_float_range_is_rejected():
    with pytest.raises(ValueError, match=re.escape(
            "states must be finite, got left=State(u=inf, sigma=0.0), "
            "right=State(u=1e+308, sigma=0.0)")):
        solve(State(math.inf, 0.0), State(1e308, 0.0), 6e307)
    with pytest.raises(ValueError, match=re.escape(
            "the left state u0 + u1 = 1e+308 + 1e+308 is out of float range")):
        regime_sweep([1.0, 1e308], [0.0], [6e307], u0=1e308)
    with pytest.raises(ValueError, match=re.escape(
            "the left state sigma0 + sigma1 = -1e+308 + -1e+308 is out of float range")):
        regime_sweep([1.0], [0.0, -1e308], [], sigma0=-1e308)


# The small-data Riemann theorem (Lax, CPAM 1957): jumps with |u1| <= k/2
# and |sigma1| <= k^2/2 have a classical solution.
_UNIT = st.floats(-1.0, 1.0)


@given(k=st.floats(0.05, 2.0), a=_UNIT, b=_UNIT,
       background=st.one_of(st.just((0.0, 0.0)), st.tuples(_UNIT, _UNIT)))
@example(k=0.05, a=1.0, b=1.0, background=(0.0, 0.0))
@example(k=0.05, a=-1.0, b=1.0, background=(1.0, -1.0))
@example(k=2.0, a=1.0, b=-1.0, background=(-1.0, 1.0))
@example(k=2.0, a=-1.0, b=-1.0, background=(0.0, 0.0))
@settings(max_examples=300, deadline=None)
def test_small_jumps_are_classical(k, a, b, background):
    u1, sigma1 = a * (k / 2), b * (k * k / 2)
    u0, sigma0 = background
    assert solve(State(u0 + u1, sigma0 + sigma1), State(u0, sigma0), k).regime == CLASSICAL
    # code 0 indexes REGIMES' classical
    assert regime_sweep([u1], [sigma1], [k], u0, sigma0) == [[[0]]]


@pytest.mark.parametrize("k", [-1.0, -1e-300, np.nan, np.inf, -np.inf])
def test_regime_sweep_rejects_bad_k(k):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        regime_sweep([1.0], [0.0], [0.5, k])
    with pytest.raises(ValueError, match="finite and nonnegative"):
        regime_sweep([], [], [k])


@pytest.mark.parametrize("u1s,s1s,u0,sigma0", [
    ([np.nan], [0.0], 0.0, 0.0),
    ([1.0], [np.inf], 0.0, 0.0),
    ([1.0], [0.0], np.nan, 0.0),
    ([1.0], [0.0], 0.0, -np.inf),
])
def test_regime_sweep_rejects_nonfinite_grid(u1s, s1s, u0, sigma0):
    with pytest.raises(ValueError, match="finite"):
        regime_sweep(u1s, s1s, [0.5], u0, sigma0)
