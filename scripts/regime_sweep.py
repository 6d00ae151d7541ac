#!/usr/bin/env python3
"""Phase-diagram sweep of Riemann-problem regimes.

Classifies (u1, sigma1, k) grids as classical, delta-shock, or neither,
and writes one CSV per k value for plotting.  Every k must be finite and
nonnegative and --n at least 1; otherwise the script writes nothing,
prints one error line and exits 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from deltashock.riemann import check_sweep_k, regime_sweep


class _CsvFields(dict):
    """The text ``csv.writer`` writes for each value, made on first use.

    ``csv.writer`` applies ``repr`` to a float, and the header and regime
    names need no quoting.  A zero is not kept: 0.0 and -0.0 are equal
    keys with different text.
    """

    def __missing__(self, value):
        text = repr(value) if isinstance(value, float) else str(value)
        if value != 0.0:
            self[value] = text
        return text


def csv_text(rows) -> str:
    """``rows`` as ``csv.writer`` writes them, each distinct value formatted once.

    A default sweep writes about 58k floats but only 161 distinct ones.
    """
    field = _CsvFields()
    return "".join([f"{field[a]},{field[b]},{field[c]},{field[d]}\r\n"
                    for a, b, c, d in rows])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="regime_sweep_out")
    ap.add_argument("--ks", type=float, nargs="+", default=[0.1, 0.5, 1.0])
    ap.add_argument("--n", type=int, default=81, help="grid points per axis")
    args = ap.parse_args(argv)
    try:
        if args.n < 1:
            raise ValueError(f"--n must be at least 1, got {args.n}")
        for k in args.ks:
            check_sweep_k(k)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    u1s = np.linspace(-4.0, 4.0, args.n)
    u1s = u1s[u1s != 0.0]
    s1s = np.linspace(-4.0, 4.0, args.n)
    for k in args.ks:
        rows = regime_sweep(u1s, s1s, [k])
        tag = f"{k:g}".replace(".", "p")
        path = out / f"regimes_k{tag}.csv"
        with open(path, "w", newline="") as fh:
            fh.write(csv_text([("u1", "sigma1", "k", "regime"), *rows]))
        counts = {}
        for *_, regime in rows:
            counts[regime] = counts.get(regime, 0) + 1
        print(f"k = {k:g}: " + ", ".join(f"{r}={n}" for r, n in sorted(counts.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
