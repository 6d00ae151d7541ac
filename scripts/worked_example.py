#!/usr/bin/env python3
"""End-to-end study of the worked jump data.

Runs the full pipeline for (u0, u1, sigma0, sigma1, e0) =
(0, 2, 0, 0.5, 0.1) at k = 0.1 and k = 0: front trajectory, field
snapshots of the smooth family, weak-solution verification, and the
small-k gap, writing plot-ready tables under --out.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from deltashock.ansatz import RiemannJumpData, SmoothAnsatz
from deltashock.dynamics import solve_front, trajectory_rows
from deltashock.kernels import make_kernel
from deltashock.pairing import TestFunction, fit_loglog_slope
from deltashock.riemann import k_limit_gap
from deltashock.tables import write_table
from deltashock.verifier import verify_weak_solution


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="worked_example_out")
    ap.add_argument("--eps", type=float, default=0.05,
                    help="regularization length for the field snapshots")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    kernel = make_kernel()
    t_grid = np.linspace(0.0, 1.0, 33)
    for k in (0.1, 0.0):
        data = RiemannJumpData(0.0, 2.0, 0.0, 0.5, 0.1, k)
        traj = solve_front(data, kernel.omega0)
        tag = f"k{k:g}".replace(".", "p")
        write_table(trajectory_rows(traj, t_grid), ["t", "phi", "e", "re_p", "im_p"],
                    out / f"front_{tag}")
        ansatz = SmoothAnsatz(data, traj, kernel)
        xs = np.linspace(-1.5, 2.5, 801)
        write_table(ansatz.snapshot_rows(1.0, args.eps, xs),
                    ["x", "re_u", "im_u", "sigma"], out / f"fields_{tag}")
        report = verify_weak_solution(ansatz, k, t_grid=t_grid)
        print(report.summary_line())
        for s in report.series:
            if s.part == "re":
                print(f"  {s.equation:6s} vs {s.test_function}: order "
                      f"{s.order:.3f}, decay ratio {s.decay_ratio:.2e}")

    data = RiemannJumpData(0.0, 2.0, 0.0, 0.5, 0.1, 0.1)
    front = solve_front(data).phi_dot * 1.0
    phi_test = TestFunction(front, 1.0)
    ks = (0.1, 0.05, 0.025)
    gaps = [k_limit_gap(data, k, 1.0, phi_test) for k in ks]
    order, _ = fit_loglog_slope(ks, [abs(g) for g in gaps])
    write_table(zip(ks, gaps), ["k", "gap"], out / "klimit")
    print(f"small-k stress gap order: {order:.4f} (the gap law is exactly "
          "quadratic in k)")


if __name__ == "__main__":
    main()
