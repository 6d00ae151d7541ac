"""Flat key=value experiment configuration.

The file format is INI-style with three core sections::

    [data]      u0, u1, sigma0, sigma1, e0, k
    [grid]      eps_pow_min, eps_pow_max (dyadic grid) or eps = v1, v2, ...
                t_max, t_points
    [kernel]    kind = quartic | exponential, optional plateau override c

plus optional sections ``[klimit]`` (ks, t), ``[riemann]``
(xi_min, xi_max, xi_points, t) and ``[verify]`` (replay_samples).
``configs/worked.ini`` spells out the built-in defaults.

Validation rules: every section and key must be one of those above;
every number must be finite; k >= 0; t_max > 0;
t_points >= 2; an eps grid, listed or of powers, has at least 4
positive, strictly decreasing values (so eps_pow_max >= eps_pow_min + 3);
ks holds at least 2 distinct positive values; [klimit] t > 0;
xi_min < xi_max, xi_points >= 2 and [riemann] t > 0; replay_samples >= 0.
Configuration problems raise :class:`ConfigError`; mathematical problems
with valid configuration surface later from the library.  The
``verify-expansions`` command also needs the eps grid to span at least 3
dyadic decades, and rejects a narrower one as a configuration error.
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
    xi_min: float = -5.0
    xi_max: float = 5.0
    xi_points: int = 401
    riemann_t: float = 1.0
    replay_samples: int = 0

    def jump_data(self):
        from .ansatz import RiemannJumpData

        return RiemannJumpData(self.u0, self.u1, self.sigma0, self.sigma1,
                               self.e0, self.k)


# Every key each section may set.
_KEYS = {
    "data": ("u0", "u1", "sigma0", "sigma1", "e0", "k"),
    "grid": ("eps_pow_min", "eps_pow_max", "eps", "t_max", "t_points"),
    "kernel": ("kind", "c"),
    "klimit": ("ks", "t"),
    "riemann": ("xi_min", "xi_max", "xi_points", "t"),
    "verify": ("replay_samples",),
}


def _check_names(parser) -> None:
    """Reject the sections and keys the format does not define.

    A misspelt name would otherwise leave its default in force silently.
    """
    if parser.defaults():
        raise ConfigError(f"unknown section [{parser.default_section}]")
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]; expected one of "
                              + ", ".join(f"[{name}]" for name in _KEYS))
        for key in parser.options(section):
            if key not in _KEYS[section]:
                raise ConfigError(f"[{section}] unknown key {key!r}; expected one of "
                                  + ", ".join(_KEYS[section]))


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


def _get_positive(parser, section, key, default):
    val = _get_float(parser, section, key, default)
    if val <= 0.0:
        raise ConfigError(f"[{section}] {key} must be positive")
    return val


def _get_int(parser, section, key, default, least=-math.inf):
    val = _get_float(parser, section, key, default)
    if val != int(val):
        raise ConfigError(f"[{section}] {key} must be an integer")
    if val < least:
        raise ConfigError(f"[{section}] {key} must be at least {least}")
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
    return validate_eps_grid(default_eps_grid(pmin, pmax))


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
    _check_names(parser)
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
    xi_min = _get_float(parser, "riemann", "xi_min", defaults.xi_min)
    xi_max = _get_float(parser, "riemann", "xi_max", defaults.xi_max)
    if xi_min >= xi_max:
        raise ConfigError("[riemann] xi_min must be below xi_max")
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
        t_max=_get_positive(parser, "grid", "t_max", defaults.t_max),
        t_points=_get_int(parser, "grid", "t_points", defaults.t_points, least=2),
        klimit_ks=ks,
        klimit_t=_get_positive(parser, "klimit", "t", defaults.klimit_t),
        xi_min=xi_min,
        xi_max=xi_max,
        xi_points=_get_int(parser, "riemann", "xi_points", defaults.xi_points,
                           least=2),
        riemann_t=_get_positive(parser, "riemann", "t", defaults.riemann_t),
        replay_samples=_get_int(parser, "verify", "replay_samples",
                                defaults.replay_samples, least=0),
    )

