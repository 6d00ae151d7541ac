#!/usr/bin/env python3
"""End-to-end study of the worked jump data.

Runs the full pipeline for the built-in defaults of
:class:`deltashock.config.RunConfig` (spelled out in
``configs/worked.ini``), at their k and at k = 0: front trajectory, field
snapshots of the smooth family, weak-solution verification on the default
time grid, and the small-k gap at the ``[klimit]`` ks and t, writing
plot-ready tables under --out.  --eps must be positive and finite and
--out must be or become a directory; otherwise the script writes
nothing, prints one error line and exits 2.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from deltashock.ansatz import SmoothAnsatz
from deltashock.config import RunConfig
from deltashock.dynamics import front_speed, solve_front, trajectory_columns
from deltashock.kernels import default_t_grid, make_kernel
from deltashock.pairing import default_test_suite, fit_loglog_slope
from deltashock.riemann import k_limit_gap
from deltashock.tables import write_table
from deltashock.verifier import verify_weak_solution


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="worked_example_out")
    ap.add_argument("--eps", type=float, default=0.05,
                    help="regularization length for the field snapshots")
    args = ap.parse_args(argv)
    if not 0.0 < args.eps < math.inf:
        print(f"error: --eps must be positive and finite, got {args.eps!r}", file=sys.stderr)
        return 2
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: --out {args.out}: {exc.strerror}", file=sys.stderr)
        return 2

    cfg = RunConfig()
    kernel = make_kernel(cfg.kernel_kind)
    t_grid = default_t_grid(cfg.t_max, cfg.t_points)
    for k in (cfg.k, 0.0):
        data = cfg._replace(k=k).jump_data()
        traj = solve_front(data, kernel.omega0)
        tag = f"k{k:g}".replace(".", "p")
        write_table(trajectory_columns(traj, t_grid), ["t", "phi", "e", "re_p", "im_p"],
                    out / f"front_{tag}")
        ansatz = SmoothAnsatz(data, traj, kernel)
        xs = np.linspace(-1.5, 2.5, 801)
        u, sigma = ansatz.eval_fields(xs, 1.0, args.eps)
        write_table([xs.tolist(), u.real.tolist(), u.imag.tolist(), sigma.tolist()],
                    ["x", "re_u", "im_u", "sigma"], out / f"fields_{tag}")
        report = verify_weak_solution(ansatz, k, t_grid=t_grid)
        print(report.summary_line())
        for s in report.series:
            if s.part == "re":
                print(f"  {s.equation:6s} vs {s.test_function}: order "
                      f"{s.order:.3f}, decay ratio {s.decay_ratio:.2e}")

    data, ks, t = cfg.jump_data(), cfg.klimit_ks, cfg.klimit_t
    phi_test = default_test_suite(np.full(1, front_speed(data) * t), 0.0)[0]
    gaps = [k_limit_gap(data, k, t, phi_test) for k in ks]
    order, _ = fit_loglog_slope(ks, [abs(g) for g in gaps])
    write_table([ks, gaps], ["k", "gap"], out / "klimit")
    print(f"small-k stress gap order: {order:.4f} (the gap law is exactly "
          "quadratic in k)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
