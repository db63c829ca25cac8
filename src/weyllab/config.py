"""Flat key-value run configuration.

KEYS has one row per key: its default, the parser of its text value and,
where it has one, the rule the value must meet.  A config file
(KEY=VALUE lines, '#' comments) overrides the defaults and repeatable
--set KEY=VALUE flags override the file (later occurrences win); both go
through one KEY=VALUE parser, which applies the key's rule.  The rules
are only those no library call applies: every other bad value is
rejected, before anything is written, by the call that uses it.  Angles
are plain radians; energies are in units of the hopping J; `sites`
counts resonators (the chain has two per unit cell, so it must be even).
"""

from __future__ import annotations

import math
from pathlib import Path

__all__ = ["ConfigError", "KEYS", "DEFAULTS", "load_config", "format_config"]


class ConfigError(Exception):
    """Malformed configuration input."""


def _sizes(raw: str) -> list[int]:
    return [int(tok) for tok in raw.split(",") if tok.strip()]


# Rules: (predicate on the parsed value, what it asks for).
FINITE = (math.isfinite, "finite")
EVEN = (lambda n: n % 2 == 0, "even")
GRID = (lambda n: n >= 1, "at least 1")
SIZES = (lambda v: v and all(n % 2 == 0 for n in v), "a non-empty list of even sizes")
NODE = (lambda n: 1 <= n <= 4, "a node index 1..4")

KEYS = {
    # model knobs
    "j": (1.0, float, FINITE),
    "je": (1.0, float, FINITE),
    "kappa": (0.1, float, FINITE),
    "delta0": (-0.1, float, FINITE),
    "sites": (4, int, EVEN),
    # bulk band sheet
    "bulk_bands.kx": (math.pi / 2, float, FINITE),
    "bulk_bands.grid": (101, int, GRID),
    # monopole charges
    "chern.radius": (0.2, float, FINITE),
    "chern.mesh": (24, int, None),
    "chern.theta_r": (0.25 * math.pi, float, FINITE),
    "chern.torus_grid": (40, int, None),
    # curvature field map
    "berry_field.grid": (41, int, GRID),
    "berry_field.step": (1e-3, float, FINITE),
    "berry_field.exclude": (0.15, float, FINITE),
    # open-chain surface spectrum
    "edge_spectrum.sites": (20, int, EVEN),
    "edge_spectrum.grid": (41, int, GRID),
    "edge_spectrum.densities": (0, int, None),
    # single-point densities
    "density.theta1": (0.0, float, FINITE),
    "density.theta2": (math.pi / 2, float, FINITE),
    # reflection trace
    "reflection.theta1": (0.0, float, FINITE),
    "reflection.theta2": (math.pi / 2, float, FINITE),
    "reflection.window": (1.0, float, FINITE),
    "reflection.step": (0.01, float, FINITE),
    # winding readout
    "winding.weyl": (1, int, NODE),
    "winding.theta_r": (0.25 * math.pi, float, FINITE),
    "winding.samples": (128, int, None),
    # arc detection
    "fermi_arc.window": (1.0, float, FINITE),
    "fermi_arc.span": (0.5, float, FINITE),
    "fermi_arc.grid_step": (0.01, float, FINITE),
    # size sweep
    "table1.sizes": ([4, 6, 8, 12, 20, 36], _sizes, SIZES),
}

DEFAULTS = {key: default for key, (default, _, _) in KEYS.items()}


def _pair(item: str, where: str) -> tuple[str, object]:
    """Parse one KEY=VALUE pair and apply its key's rule; `where` starts
    every error message."""
    key, eq, raw = (tok.strip() for tok in item.partition("="))
    if not eq:
        raise ConfigError(f"{where}: expected KEY=VALUE, got {item!r}")
    if key not in KEYS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    _, parse, rule = KEYS[key]
    try:
        value = parse(raw)
    except ValueError:
        raise ConfigError(f"{where}: bad value for {key}: {raw!r}") from None
    if rule and not rule[0](value):
        raise ConfigError(f"{where}: {key} must be {rule[1]}, got {raw!r}")
    return key, value


def load_config(config_path=None, sets=()) -> dict:
    """Effective configuration: defaults, then file, then --set pairs."""
    cfg = dict(DEFAULTS)
    if config_path is not None:
        path = Path(config_path)
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        for lineno, line in enumerate(text.splitlines(), 1):
            if line := line.split("#", 1)[0].strip():
                key, value = _pair(line, f"{path}:{lineno}")
                cfg[key] = value
    cfg.update(_pair(item, "--set") for item in sets)
    return cfg


def format_config(cfg: dict) -> str:
    """One KEY=VALUE line per key, sorted, in the form load_config reads."""
    return "".join(
        f"{key}={','.join(map(str, v)) if isinstance(v, list) else repr(v)}\n"
        for key, v in sorted(cfg.items())
    )
