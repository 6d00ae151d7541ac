"""Flat key=value experiment configuration.

The file format is INI-style with three core sections::

    [data]      u0, u1, sigma0, sigma1, e0, k
    [grid]      eps_pow_min, eps_pow_max (dyadic grid) or eps = v1, v2, ...
                t_max, t_points
    [kernel]    kind = quartic | exponential, optional plateau override c

plus optional sections ``[klimit]`` (ks, t, order_tol), ``[riemann]``
(xi_min, xi_max, xi_points, t) and ``[verify]`` (replay_samples).
``configs/worked.ini`` spells out the built-in defaults.

Validation rules: every number must be finite; k >= 0; t_max > 0;
t_points >= 2; an explicit eps list has at least 4 positive, strictly
decreasing values, and eps_pow_max exceeds eps_pow_min; ks holds at
least 2 distinct positive values; replay_samples >= 0.  Configuration
problems raise :class:`ConfigError`; mathematical problems with valid
configuration surface later from the library.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from .pairing import default_eps_grid

__all__ = ["ConfigError", "RunConfig", "load_config"]


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


@dataclass(frozen=True)
class RunConfig:
    u0: float = 0.0
    u1: float = 2.0
    sigma0: float = 0.0
    sigma1: float = 0.5
    e0: float = 0.1
    k: float = 0.1
    kernel_kind: str = "quartic-polynomial-bump"
    c: float | None = None
    eps_grid: tuple[float, ...] = default_eps_grid()
    t_max: float = 1.0
    t_points: int = 33
    klimit_ks: tuple[float, ...] = (0.1, 0.05, 0.025)
    klimit_t: float = 1.0
    klimit_order_tol: float = 0.01
    xi_min: float = -5.0
    xi_max: float = 5.0
    xi_points: int = 401
    riemann_t: float = 1.0
    replay_samples: int = 0

    def jump_data(self):
        from .ansatz import RiemannJumpData

        return RiemannJumpData(self.u0, self.u1, self.sigma0, self.sigma1,
                               self.e0, self.k)


def _get_float(parser, section, key, default):
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key)
    try:
        val = float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a number") from exc
    if not math.isfinite(val):
        raise ConfigError(f"[{section}] {key} = {raw!r} is not finite")
    return val


def _get_int(parser, section, key, default):
    val = _get_float(parser, section, key, default)
    if val != int(val):
        raise ConfigError(f"[{section}] {key} must be an integer")
    return int(val)


def _parse_float_list(raw, where):
    try:
        vals = tuple(float(tok) for tok in raw.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"{where} must be a list of numbers") from exc
    if not vals:
        raise ConfigError(f"{where} is empty")
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"{where} must be finite")
    return vals


def validate_eps_grid(eps_grid) -> tuple[float, ...]:
    eps_grid = tuple(float(e) for e in eps_grid)
    if len(eps_grid) < 4:
        raise ConfigError("eps grid needs at least 4 points")
    if any(e <= 0.0 for e in eps_grid):
        raise ConfigError("eps grid values must be positive")
    if any(b >= a for a, b in zip(eps_grid, eps_grid[1:])):
        raise ConfigError("eps grid must be strictly decreasing")
    return eps_grid


def _parse_eps(parser) -> tuple[float, ...]:
    if parser.has_option("grid", "eps"):
        return validate_eps_grid(_parse_float_list(parser.get("grid", "eps"),
                                                   "[grid] eps"))
    pmin = _get_int(parser, "grid", "eps_pow_min", 3)
    pmax = _get_int(parser, "grid", "eps_pow_max", 12)
    if pmax <= pmin:
        raise ConfigError("[grid] eps_pow_max must exceed eps_pow_min")
    return default_eps_grid(pmin, pmax)


def load_config(path: str | None) -> RunConfig:
    """Parse a config file; ``None`` yields the built-in defaults."""
    if path is None:
        return RunConfig()
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        # configparser spreads its messages over lines; the CLI prints one.
        detail = " ".join(str(exc).split())
        raise ConfigError(f"cannot parse {path}: {detail}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    defaults = RunConfig()
    kind = parser.get("kernel", "kind", fallback="quartic")
    from .kernels import canonical_kind

    try:
        kind = canonical_kind(kind)
    except ValueError as exc:
        raise ConfigError(f"[kernel] {exc}") from exc
    c = _get_float(parser, "kernel", "c", None)
    ks = defaults.klimit_ks
    if parser.has_option("klimit", "ks"):
        ks = _parse_float_list(parser.get("klimit", "ks"), "[klimit] ks")
        if any(k <= 0.0 for k in ks):
            raise ConfigError("[klimit] ks must be positive")
        if len(set(ks)) < 2:
            raise ConfigError("[klimit] ks needs at least 2 distinct values")
    k = _get_float(parser, "data", "k", defaults.k)
    if k < 0.0:
        raise ConfigError("[data] k must be nonnegative")
    t_max = _get_float(parser, "grid", "t_max", defaults.t_max)
    if t_max <= 0.0:
        raise ConfigError("[grid] t_max must be positive")
    t_points = _get_int(parser, "grid", "t_points", defaults.t_points)
    if t_points < 2:
        raise ConfigError("[grid] t_points must be at least 2")
    replay_samples = _get_int(parser, "verify", "replay_samples",
                              defaults.replay_samples)
    if replay_samples < 0:
        raise ConfigError("[verify] replay_samples must be nonnegative")
    return RunConfig(
        u0=_get_float(parser, "data", "u0", defaults.u0),
        u1=_get_float(parser, "data", "u1", defaults.u1),
        sigma0=_get_float(parser, "data", "sigma0", defaults.sigma0),
        sigma1=_get_float(parser, "data", "sigma1", defaults.sigma1),
        e0=_get_float(parser, "data", "e0", defaults.e0),
        k=k,
        kernel_kind=kind,
        c=c,
        eps_grid=_parse_eps(parser),
        t_max=t_max,
        t_points=t_points,
        klimit_ks=ks,
        klimit_t=_get_float(parser, "klimit", "t", defaults.klimit_t),
        klimit_order_tol=_get_float(parser, "klimit", "order_tol",
                                    defaults.klimit_order_tol),
        xi_min=_get_float(parser, "riemann", "xi_min", defaults.xi_min),
        xi_max=_get_float(parser, "riemann", "xi_max", defaults.xi_max),
        xi_points=_get_int(parser, "riemann", "xi_points", defaults.xi_points),
        riemann_t=_get_float(parser, "riemann", "t", defaults.riemann_t),
        replay_samples=replay_samples,
    )

