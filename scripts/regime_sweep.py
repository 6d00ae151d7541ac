#!/usr/bin/env python3
"""Phase-diagram sweep of Riemann-problem regimes.

Classifies (u1, sigma1, k) grids as classical, delta-shock, or neither,
and writes one CSV per k value for plotting, named by the k's ``:g``
text.  Every k must be finite and nonnegative, no two ks may share a
table name, --n must be at least 1 and --out must be or become a
directory; otherwise the script writes nothing, prints one error line
and exits 2.  So it does, with --out made but no table written, where
the classical intermediate state of some jump of the grid leaves the
float range, as at a tiny or huge k.  A grid of more points than
MAX_ROWS exits 1 with one error line, before anything is computed or
written.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from deltashock import linear_grid
from deltashock.riemann import REGIMES, check_sweep_k, regime_sweep
from deltashock.tables import write_table

# The most grid points (ks times --n squared) a sweep may classify, so
# --n 1182 at most with the default ks.  tracemalloc puts a sweep's peak at 246 bytes a point
# at most (one k of 23 characters of text), so a sweep at the cap stays
# under 1 GiB.
MAX_ROWS = 2**22


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
        rows = len(tables) * args.n**2
        if rows > MAX_ROWS:
            raise MemoryError(f"{rows} rows ({len(tables)} ks times --n {args.n} squared) "
                              f"exceed the {MAX_ROWS} a sweep may tabulate")
        s1s = linear_grid(-4.0, 4.0, args.n)
        u1s = [u1 for u1 in s1s if u1 != 0.0]
        grids = regime_sweep(u1s, s1s, tables.values())
        # The table columns; rows run over u1, then sigma1, as the grid does.
        u1_column = [u1 for u1 in u1s for _ in s1s]
        s1_column = s1s * len(u1s)
        for (tag, k), codes in zip(tables.items(), grids):
            regimes = [REGIMES[code] for row in codes for code in row]
            write_table([u1_column, s1_column, [k] * len(regimes), regimes],
                        ["u1", "sigma1", "k", "regime"], out / f"regimes_k{tag}")
            print(f"k = {k:g}: " + ", ".join(f"{r}={n}" for r in sorted(REGIMES)
                                             if (n := regimes.count(r))))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # the row cap's message names the rows
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
