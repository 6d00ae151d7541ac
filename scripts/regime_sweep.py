#!/usr/bin/env python3
"""Phase-diagram sweep of Riemann-problem regimes.

Classifies (u1, sigma1, k) grids as classical, delta-shock, or neither,
and writes one CSV per k value for plotting, named by the k's ``:g``
text.  Every k must be finite and nonnegative, no two ks may share a
table name, --n must be at least 1 and --out must be or become a
directory; otherwise the script writes nothing, prints one error line
and exits 2.  So it does, with --out made but no table written, for a k
so small that the classical intermediate state of some jump of the grid
leaves the float range.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from deltashock.riemann import REGIMES, check_sweep_k, regime_sweep
from deltashock.tables import write_columns


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
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: --out {args.out}: {exc.strerror}", file=sys.stderr)
        return 2

    try:
        u1s = np.linspace(-4.0, 4.0, args.n)
        u1s = u1s[u1s != 0.0]
        s1s = np.linspace(-4.0, 4.0, args.n)
        grids = regime_sweep(u1s, s1s, tables.values())
        # The table columns; rows run over u1, then sigma1, as the grid does.
        u1_column = np.repeat(u1s, s1s.size).tolist()
        s1_column = np.tile(s1s, u1s.size).tolist()
        for (tag, k), codes in zip(tables.items(), grids):
            codes = codes.ravel()
            write_columns([u1_column, s1_column, [k] * codes.size,
                           map(REGIMES.__getitem__, codes.tolist())],
                          ["u1", "sigma1", "k", "regime"], out / f"regimes_k{tag}")
            counts = np.bincount(codes, minlength=len(REGIMES)).tolist()
            print(f"k = {k:g}: " + ", ".join(f"{r}={n}" for r, n
                                             in sorted(zip(REGIMES, counts)) if n))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's message names the size it could not allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
