"""Flat key = value configuration files with one section per ``lab`` command.

An empty file is a valid configuration (all defaults). Every section but
``[lab]`` takes its keys and defaults from the signature of the function
its command runs (``COMMANDS``), so a key is a parameter name. Unknown
sections or keys are rejected with the offending line number; values are
typed after the defaults (``parse_value``, which the ``lab`` flags go through
too), and the function of the command that reads a value checks its range.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field as dc_field

from . import experiments, local_entropy
from .kernels import SHAPES
from .local_entropy import VARIANTS

__all__ = ["COMMANDS", "ConfigError", "DEFAULTS", "LabConfig", "command_function",
           "parse_config", "parse_value"]


class ConfigError(ValueError):
    pass


# section -> the module and the name of the function its command runs,
# whose signature holds the section's keys and defaults
COMMANDS = {
    "ce1": (experiments, "counterexample_1"),
    "ce2": (experiments, "counterexample_2"),
    "ce3": (experiments, "counterexample_3"),
    "rate": (experiments, "singular_limit_rate"),
    "visc": (experiments, "vanishing_viscosity"),
    "oracle": (local_entropy, "sample_oracle"),
}
# keys with a fixed set of values, shown in the flags' help: the library's own tuples
CHOICES = {"kernel_shape": SHAPES, "variant": VARIANTS}


def command_function(section: str):
    """The function the command of ``section`` runs, looked up by name now,
    so a wrapper or patch put on the module attribute applies."""
    module, name = COMMANDS[section]
    return getattr(module, name)


def _signature_defaults(section: str) -> dict:
    params = inspect.signature(command_function(section)).parameters.values()
    return {p.name: list(p.default) if isinstance(p.default, tuple) else p.default
            for p in params}


DEFAULTS = {
    "lab": {"out_dir": "runs"},
    **{section: _signature_defaults(section) for section in COMMANDS},
}

_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


@dataclass
class LabConfig:
    """Fully resolved configuration: one dict of settings per section."""

    sections: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        full = {s: dict(d) for s, d in DEFAULTS.items()}
        for s, d in self.sections.items():
            full[s].update(d)
        self.sections = full

    def __getitem__(self, section: str) -> dict:
        return self.sections[section]


def parse_value(section: str, key: str, raw: str, where: str):
    """Type ``raw`` after the default of ``key`` in ``section``, or raise
    ConfigError naming ``where`` (a config line or a flag)."""
    default = DEFAULTS[section][key]
    raw = raw.strip()
    try:
        if isinstance(default, bool):
            value = _BOOLS[raw.lower()]
        elif isinstance(default, list):
            value = [float(x) for x in raw.split(",") if x.strip()]
        else:
            value = type(default)(raw)  # int, float or str
    except (KeyError, ValueError):
        raise ConfigError(
            f"{where}: key {key!r} expects a {type(default).__name__}, got {raw!r}"
        ) from None
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
        sections[current][key] = parse_value(current, key, raw, f"line {lineno}")
    return LabConfig(sections)
