"""Config-driven command line front end.

Subcommands::

    verify-expansions   run the regularization-product expansion suite
    front               tabulate the closed-form front trajectory
    verify-solution     verify the weak-asymptotic-solution contract
    riemann             solve and tabulate the classical Riemann problem
    k-limit             measure the small-k gap between singular solutions

Flags, before or after the subcommand: ``--config``, ``--out``,
``--format`` and ``--seed``.  Every grid, the eps grid included, is set
in the config file (see :mod:`deltashock.config`), and the verdict
tolerances are constants here.

Exit codes: 0 success, 1 mathematical failure, 2 usage/config error.
All file outputs are deterministic functions of the configuration.  Every
table, the 24 expansion channel tables included, is written in the run's
``--format`` by :func:`deltashock.tables.write_table` from the columns
its subcommand computes; reports are JSON.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, load_config

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2

K_GAP_TOL = 1e-10  # times max(1, max |expected|): the gaps' rounding grows with them
K_ORDER_TOL = 0.01


def _write_json(obj, path: Path) -> None:
    import json

    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)


def _plateau(cfg: RunConfig) -> tuple[float, str | None]:
    """The plateau c of a run, ``[kernel] c`` or else the data's, and a note
    line when the data define no plateau (u1 = 0) or the configured c differs
    from the data's by more than 1e-12."""
    if cfg.u1 == 0.0:
        if cfg.c is None:
            raise ValueError("no plateau constant; set [kernel] c or nonzero u1")
        return cfg.c, ("note: the data define no plateau (u1 = 0); the suite runs "
                       f"at the configured c={cfg.c:g}")
    c_data = cfg.jump_data().plateau()
    c = c_data if cfg.c is None else cfg.c
    if abs(c - c_data) <= 1e-12:
        return c, None
    return c, (f"note: configured c={c:g} differs from the data value {c_data:g}; "
               "measured step-times-delta coefficient follows the configured plateau")


def _position(data, speed: float, t: float) -> float:
    """The front position phi(t) = speed * t, checked to be in float range."""
    return data.finite(f"front position phi(t) = front speed * t at t={t:g}", lambda: speed * t)


def _front(data, omega0: float, t_max: float):
    """The solved front, once its position and p^2 = 2 e(t)/omega0 are in float
    range on [0, t_max]: both are linear in t, so their extremes lie at the ends."""
    from .dynamics import solve_front

    front = solve_front(data, omega0)
    _position(data, front.phi_dot, t_max)
    for t in (0.0, t_max):
        data.finite(f"correction amplitude p^2 = 2 e(t)/omega0 at t={t:g}",
                    lambda: 2.0 * (front.e0 + front.e_rate * t) / omega0)
    return front


def cmd_verify_expansions(cfg: RunConfig, out: Path, fmt: str, seed: int) -> int:
    from .kernels import make_kernel
    from .pairing import verify_lemma31
    from .tables import write_table

    decades = math.log2(cfg.eps_grid[0] / cfg.eps_grid[-1])
    if decades < 3.0:
        print(f"config error: [grid] eps spans {decades:.3g} dyadic decades; "
              "verify-expansions needs at least 3", file=sys.stderr)
        return EXIT_USAGE
    kernel = make_kernel(cfg.kernel_kind)
    c, note = _plateau(cfg)
    reports = verify_lemma31(kernel, c, cfg.eps_grid)
    for rep in reports:
        for channel, report in (("A", rep.a_report), ("B", rep.b_report)):
            write_table((report.eps_grid, report.values, report.abs_errors()),
                        ["epsilon", "value", "abs-error-vs-limit"],
                        out / f"lemma31_{rep.name}_{channel}", fmt)
    passed = all(r.passed for r in reports)
    _write_json({
        "kernel": kernel.kind,
        "omega0": kernel.omega0,
        "c": c,
        "c_matches_data": note is None,
        "passed": passed,
        "expansions": [r.to_json_dict() for r in reports],
    }, out / "lemma31_report.json")
    for r in reports:
        # Fixed point, or scientific notation from 1e6 up.
        a, b, ea, eb = (f"{v:+.8e}" if abs(v) >= 1e6 else f"{v:+.8f}"
                        for v in (r.measured_a, r.measured_b, r.expected_a, r.expected_b))
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name:9s} "
              f"measured=({a}, {b}) expected=({ea}, {eb})")
    if note:
        print(note)
    print(f"{'PASS' if passed else 'FAIL'} expansion suite ({kernel.kind})")
    return EXIT_OK if passed else EXIT_MATH


def cmd_front(cfg: RunConfig, out: Path, fmt: str, seed: int) -> int:
    from .dynamics import overcompressivity, trajectory_columns
    from .kernels import default_t_grid, make_kernel
    from .tables import write_table

    data = cfg.jump_data()
    kernel = make_kernel(cfg.kernel_kind)
    traj = _front(data, kernel.omega0, cfg.t_max)
    write_table(trajectory_columns(traj, default_t_grid(cfg.t_max, cfg.t_points)),
                ["t", "phi", "e", "re_p", "im_p"], out / "front", fmt)
    adm = overcompressivity(data)
    print(f"front speed = {traj.phi_dot!r}, amplitude rate = {traj.e_rate!r}")
    print(f"admissible = {adm.admissible}; margins: "
          + ", ".join(f"{lab} = {m:.6g}" for lab, m in zip(adm.labels, adm.margins)))
    return EXIT_OK


def cmd_verify_solution(cfg: RunConfig, out: Path, fmt: str, seed: int) -> int:
    from .ansatz import SmoothAnsatz
    from .dynamics import overcompressivity, solve_front
    from .kernels import default_t_grid, make_kernel
    from .verifier import replay_derivation, sample_admissible_data, verify_weak_solution

    data = cfg.jump_data()
    adm = overcompressivity(data)
    if not adm.admissible:
        print("FAIL inadmissible data: violated margin(s) "
              + "; ".join(adm.violated()))
        return EXIT_MATH
    samples = []
    if cfg.replay_samples:
        # Drawn first: a k that admits no sample is reported as such, before
        # a verdict on its data can fail for another reason.
        rng = np.random.default_rng(seed)
        samples = [sample_admissible_data(rng, k=data.k) for _ in range(cfg.replay_samples)]
    kernel = make_kernel(cfg.kernel_kind)
    front = _front(data, kernel.omega0, cfg.t_max)
    c, note = _plateau(cfg)
    ansatz = SmoothAnsatz(data, front, kernel, c)
    report = verify_weak_solution(ansatz, data.k,
                                  t_grid=default_t_grid(cfg.t_max, cfg.t_points),
                                  eps_grid=cfg.eps_grid)
    payload = report.to_json_dict()
    replay_ok = True
    if samples:
        defects = []
        for sample in samples:
            res = replay_derivation(sample, solve_front(sample, kernel.omega0), kernel)
            defects.append(max(abs(m) for m in res.measured))
        replay_ok = max(defects) <= 1e-3
        payload["replay_max_coefficient"] = max(defects)
        payload["replay_samples"] = cfg.replay_samples
        print(f"{'PASS' if replay_ok else 'FAIL'} derivation replay "
              f"({cfg.replay_samples} samples, max coefficient {max(defects):.2e})")
    _write_json(payload, out / "residual_report.json")
    if note:
        print(note)
    print(report.summary_line())
    ok = report.passed and replay_ok
    return EXIT_OK if ok else EXIT_MATH


def cmd_riemann(cfg: RunConfig, out: Path, fmt: str, seed: int) -> int:
    from .dynamics import e_rate, front_speed
    from .riemann import CLASSICAL, DELTA_REGIME, State, eval_riemann, region_labels, solve
    from .tables import write_table

    data = cfg.jump_data()
    left = State(*data.left_state)
    right = State(*data.right_state)
    if data.k <= 0.0:
        print("error: the classical solver needs k > 0; the k = 0 system "
              "carries its jumps on the singular front (see the front and "
              "verify-solution commands)", file=sys.stderr)
        return EXIT_MATH
    sol = solve(left, right, data.k)
    if sol.regime == DELTA_REGIME:
        print("regime: delta-shock (overcompressive window); "
              f"front speed = {front_speed(data)!r}, amplitude rate = {e_rate(data)!r}")
        return EXIT_OK
    if sol.regime != CLASSICAL:
        print("FAIL no solution constructed: data is outside both the "
              "classical and the overcompressive regimes")
        return EXIT_MATH
    # The solution is self-similar: its table at t = 1 is its table in xi.
    xi = np.linspace(cfg.xi_min, cfg.xi_max, cfg.xi_points)
    u, sigma = eval_riemann(sol, xi, 1.0)
    write_table((xi.tolist(), u.tolist(), sigma.tolist(), region_labels(sol, xi)),
                ["xi", "u", "sigma", "region"], out / "riemann", fmt)
    print(f"u* = {sol.u_star!r}, sigma* = {sol.sigma_star!r}")
    for w in (sol.wave1, sol.wave2):
        if w.kind == "shock":
            print(f"wave {w.family}: shock, speed = {w.speed!r}")
        elif w.kind == "rarefaction":
            print(f"wave {w.family}: rarefaction fan on [{w.fan[0]!r}, {w.fan[1]!r}]")
        else:
            print(f"wave {w.family}: absent (zero strength)")
    return EXIT_OK


def cmd_k_limit(cfg: RunConfig, out: Path, fmt: str, seed: int) -> int:
    from .dynamics import e_rate, front_speed
    from .pairing import default_test_suite, fit_loglog_slope
    from .riemann import k_limit_gap
    from .tables import write_table

    data = cfg.jump_data()
    t = cfg.klimit_t
    # The front and its test function do not depend on k.  The data's own
    # amplitude rate enters no gap, but it is checked after the speed and
    # before the position, as the front command checks it.
    speed = front_speed(data)
    e_rate(data)
    front = _position(data, speed, t)
    phi_test = default_test_suite(np.full(1, front), 0.0)[0]
    weight = float(phi_test.value(front))
    ks = cfg.klimit_ks
    gaps = [k_limit_gap(data, k, t, phi_test) for k in ks]
    expected = [-(k**2) * data.u1 * t * weight for k in ks]
    errs = [abs(gap - want) for gap, want in zip(gaps, expected)]
    zero = next((k for k, gap in zip(ks, gaps) if gap == 0.0), None)
    if zero is not None:
        print(f"error: the gap at k = {zero:g} rounds to 0 (k^2 u1 is below the rounding "
              "of the amplitude rate); the fitted k-order needs nonzero gaps", file=sys.stderr)
        return EXIT_MATH
    order = fit_loglog_slope(ks, [[abs(g) for g in gaps]], [0.0]).order[0]
    write_table((ks, gaps, expected, errs), ["k", "gap", "expected", "abs_err"],
                out / "klimit", fmt)
    print(f"fitted k-order: {order:.4f} (expected 2 within {K_ORDER_TOL:g})")
    ok = (max(errs) <= K_GAP_TOL * max(1.0, *map(abs, expected))
          and abs(order - 2.0) <= K_ORDER_TOL)
    print(("PASS" if ok else "FAIL")
          + f" small-k gap law (max |gap - expected| = {max(errs):.3e})")
    return EXIT_OK if ok else EXIT_MATH


_COMMANDS = {
    "verify-expansions": cmd_verify_expansions,
    "front": cmd_front,
    "verify-solution": cmd_verify_solution,
    "riemann": cmd_riemann,
    "k-limit": cmd_k_limit,
}


def _seed(text: str) -> int:
    """A ``--seed`` value: numpy seeds its generators from integers >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltashock",
        description="Numerical laboratory for singular-front solutions of a "
                    "2x2 nonconservative hyperbolic system")
    parser.add_argument("--config", metavar="PATH",
                        help="experiment configuration (INI); defaults used when omitted")
    parser.add_argument("--out", metavar="DIR", default=".",
                        help="directory for report and table files")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="tabular output format")
    parser.add_argument("--seed", type=_seed, default=0,
                        help="seed for randomized property sweeps")
    parser.add_argument("command", choices=_COMMANDS, help="subcommand to run")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: --out {args.out}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    try:
        # A value that overflows or turns nan is a failure, not a result.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _COMMANDS[args.command](cfg, out, args.format, args.seed)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except MemoryError as exc:
        # numpy's message names the size it could not allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
