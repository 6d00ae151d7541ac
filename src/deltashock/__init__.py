"""Numerical laboratory for singular-front solutions of a 2x2
nonconservative hyperbolic system and its degenerate limit.

Subpackages:

* :mod:`deltashock.kernels`   mollifier kernels and regularized profiles
* :mod:`deltashock.pairing`   distributional pairing and coefficient extraction
* :mod:`deltashock.ansatz`    jump data and the smooth eps-family
* :mod:`deltashock.dynamics`  closed-form front dynamics and admissibility
* :mod:`deltashock.riemann`   classical Riemann solver and small-k limit study
* :mod:`deltashock.verifier`  weak-solution verification and derivation replay
* :mod:`deltashock.tables`    the one CSV/JSON table writer
* :mod:`deltashock.cli`       config-driven command line front end
"""

__version__ = "0.1.0"
