#!/usr/bin/env python3
"""Launch ``deltashock sweep`` with this script's arguments: the regime
phase diagrams, configured in ``[sweep]`` (see :mod:`deltashock.cli`)."""

import sys

from deltashock.cli import main

if __name__ == "__main__":
    sys.exit(main([*sys.argv[1:], "sweep"]))
