#!/usr/bin/env python3
"""Phase-diagram sweep of Riemann-problem regimes.

Classifies (u1, sigma1, k) grids as classical, delta-shock, or neither,
and writes one CSV per k value for plotting, named by the k's ``:g``
text.  Every k must be finite and nonnegative, no two ks may share a
table name, and --n must be at least 1; otherwise the script writes
nothing, prints one error line and exits 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from deltashock.riemann import check_sweep_k, regime_sweep
from deltashock.tables import write_table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="regime_sweep_out")
    ap.add_argument("--ks", type=float, nargs="+", default=[0.1, 0.5, 1.0])
    ap.add_argument("--n", type=int, default=81, help="grid points per axis")
    args = ap.parse_args(argv)
    tables = {}
    try:
        if args.n < 1:
            raise ValueError(f"--n must be at least 1, got {args.n}")
        for k in args.ks:
            check_sweep_k(k)
            tag = f"{k:g}".replace(".", "p")
            if tag in tables:
                raise ValueError(f"--ks {tables[tag]!r} and {k!r} share the table "
                                 f"name regimes_k{tag}")
            tables[tag] = k
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    u1s = np.linspace(-4.0, 4.0, args.n)
    u1s = u1s[u1s != 0.0]
    s1s = np.linspace(-4.0, 4.0, args.n)
    for tag, k in tables.items():
        rows = regime_sweep(u1s, s1s, [k])
        write_table(rows, ["u1", "sigma1", "k", "regime"], out / f"regimes_k{tag}")
        counts = {}
        for *_, regime in rows:
            counts[regime] = counts.get(regime, 0) + 1
        print(f"k = {k:g}: " + ", ".join(f"{r}={n}" for r, n in sorted(counts.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
