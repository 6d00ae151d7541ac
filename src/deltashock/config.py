"""Flat key=value experiment configuration.

The file format is INI-style with three core sections::

    [data]      u0, u1, sigma0, sigma1, e0, k
    [grid]      eps_pow_min, eps_pow_max (dyadic grid) or eps = v1, v2, ...
                t_max, t_points
    [kernel]    kind = quartic | exponential, optional plateau override c

plus optional sections ``[klimit]`` (ks, t), ``[riemann]`` (xi_min,
xi_max, xi_points) and ``[sweep]`` (ks, n).  ``configs/worked.ini``
spells out the built-in defaults.  The plateau override c applies to
``verify-expansions`` and ``verify-solution``.

Validation rules: every section and key must be one of those above;
every number must be finite; k passes :func:`deltashock.check_k`, which
reads -0.0 as 0.0; t_max > 0; t_points >= 2; the eps
grid is listed or of powers, not both, with at least 4 positive,
strictly decreasing values (so eps_pow_max >= eps_pow_min + 3, and
eps_pow_min >= -1023: 2^1024 overflows); [klimit] ks holds at least 2
distinct positive values; [klimit] t > 0; xi_min < xi_max and xi_points >= 2;
[sweep] ks each pass :func:`deltashock.check_k` and no two share a
:func:`sweep_table` name (0.1 and 0.10000001 do); [sweep] n >= 1.
Configuration problems raise :class:`ConfigError`; mathematical problems
with valid configuration surface later from the library.
``verify-expansions`` also rejects, as a configuration error, an eps
grid that breaks a rule of :func:`deltashock.pairing.check_lemma_grid`:
one spanning under 3 dyadic decades or reaching below 2^-26.

The reader needs only the kernel kinds, the eps grid's default
powers and rules and the k rule of the package root, so reading a
config, or rejecting one, loads neither numpy nor the kernel layer;
:meth:`RunConfig.jump_data` loads :mod:`deltashock.dynamics` when it is
called.  ``configparser`` loads only when a file is read: a run on the
defaults skips it.
"""

import math
from typing import NamedTuple

from . import (
    EPS_POW_MAX,
    EPS_POW_MIN,
    QUARTIC,
    canonical_kind,
    check_eps_grid,
    check_k,
    default_eps_grid,
)

__all__ = ["ConfigError", "RunConfig", "load_config", "sweep_table"]


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


class RunConfig(NamedTuple):
    u0: float = 0.0
    u1: float = 2.0
    sigma0: float = 0.0
    sigma1: float = 0.5
    e0: float = 0.1
    k: float = 0.1
    kernel_kind: str = QUARTIC
    c: float | None = None
    eps_grid: tuple[float, ...] = default_eps_grid()
    t_max: float = 1.0
    t_points: int = 33
    klimit_ks: tuple[float, ...] = (0.1, 0.05, 0.025)
    klimit_t: float = 1.0
    xi_min: float = -5.0
    xi_max: float = 5.0
    xi_points: int = 401
    sweep_ks: tuple[float, ...] = (0.1, 0.5, 1.0)
    sweep_n: int = 81

    def jump_data(self):
        from .dynamics import RiemannJumpData

        return RiemannJumpData(self.u0, self.u1, self.sigma0, self.sigma1,
                               self.e0, self.k)


# A reader maps a value's text and its "[section] key" to the value or a ConfigError.
def _number(raw, where):
    try:
        val = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{where} = {raw!r} is not a number") from exc
    if not math.isfinite(val):
        raise ConfigError(f"{where} = {raw!r} is not finite")
    return val


def _positive(raw, where):
    val = _number(raw, where)
    if val <= 0.0:
        raise ConfigError(f"{where} must be positive")
    return val


def _k(raw, where):
    """A number that passes :func:`deltashock.check_k`, as that returns it."""
    val = _number(raw, where)
    try:
        return check_k(val)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _integer(least=-math.inf):
    def read(raw, where):
        val = _number(raw, where)
        if val != int(val):
            raise ConfigError(f"{where} must be an integer")
        if val < least:
            raise ConfigError(f"{where} must be at least {least}")
        return int(val)
    return read


def _numbers(raw, where):
    try:
        vals = tuple(float(tok) for tok in raw.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"{where} must be a list of numbers") from exc
    if not vals:
        raise ConfigError(f"{where} is empty")
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"{where} must be finite")
    return vals


def _ks(raw, where):
    ks = _numbers(raw, where)
    if any(k <= 0.0 for k in ks):
        raise ConfigError(f"{where} must be positive")
    if len(set(ks)) < 2:
        raise ConfigError(f"{where} needs at least 2 distinct values")
    return ks


def sweep_table(k: float) -> str:
    """The regime sweep's table name at k, ``.`` as ``p`` in its ``:g`` text."""
    return "regimes_k" + f"{k:g}".replace(".", "p")


def _sweep_ks(raw, where):
    ks, listed = [], {}  # the ks read, and each table name's k as listed
    for k in _numbers(raw, where):
        ks.append(_k(k, where))
        name = sweep_table(ks[-1])
        if name in listed:
            raise ConfigError(f"{where} {listed[name]!r} and {k!r} share the table name {name}")
        listed[name] = k
    return tuple(ks)


def _kind(raw, where):
    try:
        return canonical_kind(raw)
    except ValueError as exc:
        raise ConfigError(f"[kernel] {exc}") from exc


# Every key a file may set: (section, key) -> (RunConfig field, reader).
# The eps powers fill no field; _eps_grid turns them into eps_grid.
_TABLE = {
    ("data", "u0"): ("u0", _number),
    ("data", "u1"): ("u1", _number),
    ("data", "sigma0"): ("sigma0", _number),
    ("data", "sigma1"): ("sigma1", _number),
    ("data", "e0"): ("e0", _number),
    ("data", "k"): ("k", _k),
    ("grid", "eps_pow_min"): ("eps_pow_min", _integer(-1023)),
    ("grid", "eps_pow_max"): ("eps_pow_max", _integer()),
    ("grid", "eps"): ("eps_grid", _numbers),
    ("grid", "t_max"): ("t_max", _positive),
    ("grid", "t_points"): ("t_points", _integer(2)),
    ("kernel", "kind"): ("kernel_kind", _kind),
    ("kernel", "c"): ("c", _number),
    ("klimit", "ks"): ("klimit_ks", _ks),
    ("klimit", "t"): ("klimit_t", _positive),
    ("riemann", "xi_min"): ("xi_min", _number),
    ("riemann", "xi_max"): ("xi_max", _number),
    ("riemann", "xi_points"): ("xi_points", _integer(2)),
    ("sweep", "ks"): ("sweep_ks", _sweep_ks),
    ("sweep", "n"): ("sweep_n", _integer(1)),
}


def _eps_grid(values) -> tuple[float, ...]:
    """The eps grid of ``values``, listed or of powers (the defaults unless set, popped);
    :class:`ConfigError` if both are set or it breaks a grid rule or has under 4 points."""
    listed = values.get("eps_grid")
    powers = []  # (value, "key = value" text) of eps_pow_min and eps_pow_max
    for key, default in (("eps_pow_min", EPS_POW_MIN), ("eps_pow_max", EPS_POW_MAX)):
        if key not in values:
            powers.append((default, f"{key} = {default} (the default)"))
        elif listed:
            raise ConfigError(f"[grid] {key} cannot be set beside an eps list")
        else:
            val = values.pop(key)
            # exact to 15 digits; a huge power prints as 1e+300, not in 301 digits
            powers.append((val, f"{key} = {val:.15g}"))
    (pmin, min_text), (pmax, max_text) = powers
    if pmax <= pmin:
        raise ConfigError(f"[grid] {max_text} must exceed {min_text}")
    # From 2^-1075 on every power rounds to 0, which check_eps_grid names: build no further.
    pmax = min(pmax, max(pmin + 1, 1075))
    try:
        grid = check_eps_grid(listed or default_eps_grid(pmin, pmax))
    except ValueError as exc:
        raise ConfigError(f"[grid] {exc}") from exc
    if len(grid) < 4:
        raise ConfigError("eps grid needs at least 4 points")
    return grid


def load_config(path: str | None) -> RunConfig:
    """Parse a config file; ``None`` yields the built-in defaults."""
    if path is None:
        return RunConfig()
    import configparser

    parser = configparser.ConfigParser()
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"config file not found: {path}")
        sections = {section: parser.items(section) for section in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        # Syntax, encoding and %-reference errors (items() interpolates), on one line.
        raise ConfigError(f"cannot parse {path}: {' '.join(str(exc).split())}") from exc
    # A misspelt name would otherwise leave its default in force silently.
    if parser.defaults():
        raise ConfigError(f"unknown section [{parser.default_section}]")
    values = {}
    for section, items in sections.items():
        keys = [key for name, key in _TABLE if name == section]
        if not keys:
            raise ConfigError(f"unknown section [{section}]; expected one of "
                              + ", ".join(dict.fromkeys(f"[{name}]" for name, _ in _TABLE)))
        for key, raw in items:
            if key not in keys:
                raise ConfigError(f"[{section}] unknown key {key!r}; expected one of "
                                  + ", ".join(keys))
            field, read_value = _TABLE[section, key]
            values[field] = read_value(raw, f"[{section}] {key}")
    values["eps_grid"] = _eps_grid(values)
    cfg = RunConfig(**values)
    if cfg.xi_min >= cfg.xi_max:
        raise ConfigError("[riemann] xi_min must be below xi_max")
    return cfg
