"""Flat key = value configuration files with one section per scenario.

An empty file is a valid configuration (all defaults). The scenario
sections take their keys and defaults from the signatures of the scenario
functions. Unknown sections or keys are rejected with the offending line
number; values are typed after the defaults. parse/serialize round-trips
exactly.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field as dc_field

from . import experiments

__all__ = ["ConfigError", "LabConfig", "parse_config", "DEFAULTS", "SCENARIOS"]


class ConfigError(ValueError):
    pass


# section -> the function in nclaw.experiments whose signature holds its defaults
SCENARIOS = {
    "ce1": "counterexample_1",
    "ce2": "counterexample_2",
    "ce3": "counterexample_3",
    "rate": "singular_limit_rate",
    "visc": "vanishing_viscosity",
}
# parameter -> config key, where users' config files spell it differently
CONFIG_KEYS = {"eps": "epsilon"}
# keys with a fixed set of values, shared with the CLI flags
CHOICES = {
    "solver": ("particles", "lax_friedrichs"),
    "kernel_shape": ("even_bump", "one_sided_left"),
    "variant": ("step", "odd"),
}


def _signature_defaults(fn_name: str) -> dict:
    out = {}
    for p in inspect.signature(getattr(experiments, fn_name)).parameters.values():
        default = list(p.default) if isinstance(p.default, tuple) else p.default
        out[CONFIG_KEYS.get(p.name, p.name)] = default
    return out


DEFAULTS = {
    "lab": {"out_dir": "runs"},
    **{section: _signature_defaults(fn) for section, fn in SCENARIOS.items()},
    "oracle": {
        "variant": "step",
        "t": 0.5,
        "x_min": -4.0,
        "x_max": 4.0,
        "n_cells": 2048,
    },
}

_POSITIVE_KEYS = {"epsilon", "t_end", "nu", "width", "t"}
_POSITIVE_INT_KEYS = {"n_particles", "godunov_n", "n_cells"}


@dataclass
class LabConfig:
    """Fully resolved configuration: one dict of settings per scenario."""

    sections: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        full = {s: dict(d) for s, d in DEFAULTS.items()}
        for s, d in self.sections.items():
            full[s].update(d)
        self.sections = full

    def __getitem__(self, section: str) -> dict:
        return self.sections[section]


def _parse_value(section: str, key: str, raw: str, lineno: int):
    default = DEFAULTS[section][key]
    raw = raw.strip()
    try:
        if isinstance(default, bool):
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        if isinstance(default, list):
            return [float(x) for x in raw.split(",") if x.strip()]
        return raw
    except ValueError:
        raise ConfigError(
            f"line {lineno}: key {key!r} expects a "
            f"{type(default).__name__}, got {raw!r}"
        ) from None


def _validate(section: str, key: str, value, lineno: int):
    if key in _POSITIVE_KEYS and not value > 0:
        raise ConfigError(f"line {lineno}: {key} must be > 0")
    if key in _POSITIVE_INT_KEYS and not value > 0:
        raise ConfigError(f"line {lineno}: {key} must be > 0")
    if key in ("eps_list", "nu_list"):
        if not value or any(x <= 0 for x in value):
            raise ConfigError(f"line {lineno}: {key} entries must be > 0")
    if key in CHOICES and value not in CHOICES[key]:
        raise ConfigError(f"line {lineno}: {key} must be {'|'.join(CHOICES[key])}")
    return value


def parse_config(text: str) -> LabConfig:
    """Parse flat "key = value" sections; unknown keys are errors."""
    sections: dict = {}
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", ";")):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip()
            if name not in DEFAULTS:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            current = name
            sections.setdefault(name, {})
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {stripped!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside of any [section]")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in DEFAULTS[current]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{current}]")
        value = _parse_value(current, key, raw, lineno)
        sections[current][key] = _validate(current, key, value, lineno)
    return LabConfig(sections)
