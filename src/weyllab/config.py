"""Flat key-value run configuration.

Defaults are embedded here; a config file (KEY=VALUE lines, '#'
comments) overrides them and repeatable --set KEY=VALUE flags override
the file (later occurrences win).  Values are coerced to the type of
the default for the same key.  Angles are plain radians; energies are
in units of the hopping J; `sites` counts resonators (the chain has
two per unit cell, so it must be even).
"""

from __future__ import annotations

import math
from pathlib import Path

__all__ = ["ConfigError", "DEFAULTS", "load_config", "format_config"]


class ConfigError(Exception):
    """Malformed configuration input."""


DEFAULTS = {
    # model knobs
    "j": 1.0,
    "je": 1.0,
    "kappa": 0.1,
    "delta0": -0.1,
    "sites": 4,
    # bulk band sheet
    "bulk_bands.kx": math.pi / 2,
    "bulk_bands.grid": 101,
    # monopole charges
    "chern.radius": 0.2,
    "chern.mesh": 24,
    "chern.theta_r": 0.25 * math.pi,
    "chern.torus_grid": 40,
    # curvature field map
    "berry_field.grid": 41,
    "berry_field.step": 1e-3,
    "berry_field.exclude": 0.15,
    # open-chain surface spectrum
    "edge_spectrum.sites": 20,
    "edge_spectrum.grid": 41,
    "edge_spectrum.densities": 0,
    # single-point densities
    "density.theta1": 0.0,
    "density.theta2": math.pi / 2,
    # reflection trace
    "reflection.theta1": 0.0,
    "reflection.theta2": math.pi / 2,
    "reflection.window": 1.0,
    "reflection.step": 0.01,
    # winding readout
    "winding.weyl": 1,
    "winding.theta_r": 0.25 * math.pi,
    "winding.samples": 128,
    # arc detection
    "fermi_arc.window": 1.0,
    "fermi_arc.span": 0.5,
    "fermi_arc.grid_step": 0.01,
    # size sweep
    "table1.sizes": [4, 6, 8, 12, 20, 36],
}


def _coerce(key: str, raw: str):
    default = DEFAULTS[key]
    try:
        if isinstance(default, list):
            return [int(tok) for tok in raw.split(",") if tok.strip()]
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    return raw


def _parse_file(path: Path) -> dict:
    out = {}
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected KEY=VALUE")
        key, raw = (tok.strip() for tok in line.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = _coerce(key, raw)
    return out


def load_config(config_path=None, sets=()) -> dict:
    """Effective configuration: defaults, then file, then --set pairs."""
    cfg = dict(DEFAULTS)
    if config_path is not None:
        cfg.update(_parse_file(Path(config_path)))
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = (tok.strip() for tok in item.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError(f"unknown key {key!r}")
        cfg[key] = _coerce(key, raw)
    _validate(cfg)
    return cfg


def _validate(cfg: dict):
    for key, value in cfg.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
    if cfg["j"] <= 0:
        raise ConfigError("j must be positive")
    if cfg["je"] < 0 or cfg["kappa"] < 0:
        raise ConfigError("je and kappa must be nonnegative")
    for key, least in (("sites", 2), ("edge_spectrum.sites", 4)):
        s = cfg[key]
        if s < least or s % 2:
            raise ConfigError(f"{key} must be an even integer >= {least}, got {s}")
    for s in cfg["table1.sizes"]:
        if s < 2 or s % 2:
            raise ConfigError(f"table1.sizes entries must be even and >= 2, got {s}")
    if not cfg["table1.sizes"]:
        raise ConfigError("table1.sizes must not be empty")
    for key in ("bulk_bands.grid", "edge_spectrum.grid", "berry_field.grid"):
        if cfg[key] < 1:
            raise ConfigError(f"{key} must be at least 1")
    for key in ("fermi_arc.grid_step", "reflection.step"):
        if cfg[key] <= 0:
            raise ConfigError(f"{key} must be positive")
    for key in ("reflection.window", "fermi_arc.span"):
        if cfg[key] < 0:
            raise ConfigError(f"{key} must be nonnegative")


def format_config(cfg: dict) -> str:
    lines = []
    for key in sorted(cfg):
        v = cfg[key]
        if isinstance(v, list):
            lines.append(f"{key}={','.join(str(x) for x in v)}")
        else:
            lines.append(f"{key}={v!r}" if isinstance(v, float) else f"{key}={v}")
    return "\n".join(lines) + "\n"
