"""Config-driven command line front end.

Subcommands::

    verify-expansions   run the regularization-product expansion suite
    front               tabulate the closed-form front trajectory
    verify-solution     verify the weak-asymptotic-solution contract
    riemann             solve and tabulate the classical Riemann problem
    k-limit             measure the small-k gap between singular solutions

Flags, before or after the subcommand: ``--config``, ``--out`` and
``--format``.  Every grid, the eps grid included, is set in the config
file (see :mod:`deltashock.config`), and the verdict tolerances are
constants here.

Exit codes: 0 success, 1 mathematical failure, 2 usage/config error.
All file outputs are deterministic functions of the configuration.  Every
table, the 24 expansion channel tables included, is written in the run's
``--format`` by :func:`deltashock.tables.write_table` from the columns
its subcommand computes; reports are JSON.

Importing this module loads only the config reader, which needs no
numpy.  Each subcommand imports the package modules it computes with, and
:func:`main` imports numpy just before it runs ``verify-expansions`` or
``verify-solution``, the two that compute with numpy, so ``--help``, a
usage error, a config error, ``riemann``, ``front`` and ``k-limit``, which
compute on Python floats, run without it.  Only ``front`` with a kernel
other than the quartic loads the kernel layer, and numpy with it, for that
kernel's omega0.
"""

import argparse
import math
import sys
from pathlib import Path

from . import QUARTIC, QUARTIC_OMEGA0, linear_grid
from .config import ConfigError, RunConfig, load_config

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2

K_GAP_TOL = 1e-10  # times max(1, max |expected|): the gaps' rounding grows with them
K_ORDER_TOL = 0.01
# The most rows a run may tabulate: front times, riemann xi points, or
# verify-solution times x eps values.  tracemalloc puts a run's peak at
# 801 bytes a row at most (front, csv), so a run at the cap stays under 1 GiB.
MAX_ROWS = 2**20
# The subcommands that compute with numpy; every other one runs on Python
# floats and rejects what leaves the float range itself.
_NUMPY_COMMANDS = ("verify-expansions", "verify-solution")


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


def _check_rows(rows: int, source: str) -> None:
    """MemoryError, which :func:`main` prints as one line, before a grid of
    more than :data:`MAX_ROWS` rows is allocated."""
    if rows > MAX_ROWS:
        raise MemoryError(f"{rows} rows ({source}) exceed the {MAX_ROWS} a run may tabulate")


def _position(data, speed: float, t: float) -> None:
    """Check that the front position phi(t) = speed * t is in float range."""
    data.finite(f"front position phi(t) = front speed * t at t={t:g}", lambda: speed * t)


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


def cmd_verify_expansions(cfg: RunConfig, out: Path, fmt: str) -> int:
    from .kernels import make_kernel
    from .pairing import check_lemma_grid, verify_lemma31
    from .tables import write_table

    try:
        check_lemma_grid(cfg.eps_grid)
    except ValueError as exc:
        print(f"config error: [grid] {exc}", file=sys.stderr)
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


def cmd_front(cfg: RunConfig, out: Path, fmt: str) -> int:
    from .dynamics import overcompressivity, trajectory_columns
    from .tables import write_table

    data = cfg.jump_data()
    if cfg.kernel_kind == QUARTIC:
        omega0 = QUARTIC_OMEGA0
    else:
        from .kernels import make_kernel

        omega0 = make_kernel(cfg.kernel_kind).omega0
    traj = _front(data, omega0, cfg.t_max)
    _check_rows(cfg.t_points, "[grid] t_points")
    write_table(trajectory_columns(traj, linear_grid(0.0, cfg.t_max, cfg.t_points)),
                ["t", "phi", "e", "re_p", "im_p"], out / "front", fmt)
    adm = overcompressivity(data)
    print(f"front speed = {traj.phi_dot!r}, amplitude rate = {traj.e_rate!r}")
    print(f"admissible = {adm.admissible}; margins: "
          + ", ".join(f"{lab} = {m:.6g}" for lab, m in zip(adm.labels, adm.margins)))
    return EXIT_OK


def cmd_verify_solution(cfg: RunConfig, out: Path, fmt: str) -> int:
    from .ansatz import SmoothAnsatz
    from .dynamics import overcompressivity
    from .kernels import default_t_grid, make_kernel
    from .verifier import verify_weak_solution

    data = cfg.jump_data()
    adm = overcompressivity(data)
    if not adm.admissible:
        print("FAIL inadmissible data: violated margin(s) "
              + "; ".join(adm.violated()))
        return EXIT_MATH
    kernel = make_kernel(cfg.kernel_kind)
    front = _front(data, kernel.omega0, cfg.t_max)
    c, note = _plateau(cfg)
    ansatz = SmoothAnsatz(data, front, kernel, c)
    _check_rows(cfg.t_points * len(cfg.eps_grid),
                f"[grid] t_points = {cfg.t_points} times {len(cfg.eps_grid)} eps values")
    report = verify_weak_solution(ansatz, data.k,
                                  t_grid=default_t_grid(cfg.t_max, cfg.t_points),
                                  eps_grid=cfg.eps_grid)
    _write_json(report.to_json_dict(), out / "residual_report.json")
    if note:
        print(note)
    print(report.summary_line())
    return EXIT_OK if report.passed else EXIT_MATH


def cmd_riemann(cfg: RunConfig, out: Path, fmt: str) -> int:
    from .dynamics import e_rate, front_speed
    from .riemann import CLASSICAL, DELTA_REGIME, State, eval_riemann, solve
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
    _check_rows(cfg.xi_points, "[riemann] xi_points")
    # The grid's last point before it is set to xi_max: inf where the spacing
    # overflows or its multiple rounds past the largest float.
    spacing = (cfg.xi_max - cfg.xi_min) / (cfg.xi_points - 1)
    if not math.isfinite((cfg.xi_points - 1) * spacing + cfg.xi_min):
        raise OverflowError(f"xi grid xi_min + i (xi_max - xi_min)/(xi_points - 1) is out of "
                            f"float range for xi_min={cfg.xi_min!r}, xi_max={cfg.xi_max!r}, "
                            f"xi_points={cfg.xi_points}")
    xi = linear_grid(cfg.xi_min, cfg.xi_max, cfg.xi_points)
    write_table((xi, *eval_riemann(sol, xi)), ["xi", "u", "sigma", "region"], out / "riemann", fmt)
    print(f"u* = {sol.u_star!r}, sigma* = {sol.sigma_star!r}")
    for w in (sol.wave1, sol.wave2):
        if w.kind == "shock":
            print(f"wave {w.family}: shock, speed = {w.speed!r}")
        elif w.kind == "rarefaction":
            print(f"wave {w.family}: rarefaction fan on [{w.fan[0]!r}, {w.fan[1]!r}]")
        else:
            print(f"wave {w.family}: absent (zero strength)")
    return EXIT_OK


def cmd_k_limit(cfg: RunConfig, out: Path, fmt: str) -> int:
    from .dynamics import e_rate, front_speed
    from .fit import fit_loglog_slope
    from .riemann import k_limit_gap
    from .tables import write_table

    data = cfg.jump_data()
    t = cfg.klimit_t
    # The front does not depend on k.  The data's own amplitude rate enters
    # no gap, but it is checked after the speed and before the position, as
    # the front command checks it.
    speed = front_speed(data)
    e_rate(data)
    _position(data, speed, t)
    ks = cfg.klimit_ks
    gaps = [k_limit_gap(data, k, t) for k in ks]
    # The gaps pair against the plain bump centred on the front, 1.0 there.
    expected = [-(k**2) * data.u1 * t for k in ks]
    errs = [abs(gap - want) for gap, want in zip(gaps, expected)]
    # A gap below the normal floats has too few digits to fit: it is 0 where the
    # two amplitude rates round alike, or the product with t is subnormal.
    tiny = next(((k, gap) for k, gap in zip(ks, gaps) if abs(gap) < sys.float_info.min), None)
    if tiny is not None:
        k, gap = tiny
        if e_rate(cfg._replace(k=k).jump_data()) == e_rate(cfg._replace(k=0.0).jump_data()):
            print(f"error: the gap at k = {k:g} rounds to 0 (k^2 u1 is below the rounding "
                  "of the amplitude rate); the fitted k-order needs nonzero gaps", file=sys.stderr)
        else:
            print(f"error: the gap at k = {k:g}, t = {t!r} is {gap!r}, below the normal "
                  f"floats (from {sys.float_info.min:.3g}); the fitted k-order needs normal "
                  "gaps", file=sys.stderr)
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
        if args.command not in _NUMPY_COMMANDS:
            return _COMMANDS[args.command](cfg, out, args.format)
        import numpy as np

        # A value that overflows or turns nan is a failure, not a result.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _COMMANDS[args.command](cfg, out, args.format)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except MemoryError as exc:
        # the row cap's message names the rows, numpy's the bytes it could not allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
