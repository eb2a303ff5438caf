"""Run records: diagnostic time series, manifests, and report emission.

Every number an experiment reports is traceable to a RunManifest; a rerun
with an identical manifest is bit-identical, so run directories are named by
the manifest hash. CSVs use the shortest round-trip decimal representation.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .grids import (
    Field,
    baricenter,
    entropy_functional,
    support_bounds,
    window_mass,
    NEG_TOL,
)

__all__ = [
    "DiagnosticSeries",
    "RunManifest",
    "RunResult",
    "march",
    "output_times",
    "field_diagnostics",
    "manifest_hash",
    "emit_report",
]

BASE_COLUMNS = [
    "mass",
    "window_mass",
    "entropy",
    "baricenter",
    "support_lo",
    "support_hi",
]


@dataclass
class DiagnosticSeries:
    """Time series of named scalar channels with strictly increasing times."""

    times: list = dc_field(default_factory=list)
    channels: dict = dc_field(default_factory=dict)

    def append(self, t: float, values: dict) -> None:
        if self.times and t <= self.times[-1]:
            raise ValueError(f"times must be strictly increasing: {t} after {self.times[-1]}")
        if self.channels and set(values) != set(self.channels):
            raise ValueError("channel set changed between appends")
        self.times.append(float(t))
        for name, v in values.items():
            self.channels.setdefault(name, []).append(float(v))

    def array(self, name: str) -> np.ndarray:
        return np.asarray(self.channels[name], dtype=float)

    @property
    def t(self) -> np.ndarray:
        return np.asarray(self.times, dtype=float)

    def last(self, name: str) -> float:
        return self.channels[name][-1]

    def _ordered_columns(self) -> list:
        extra = sorted(set(self.channels) - set(BASE_COLUMNS))
        return [c for c in BASE_COLUMNS if c in self.channels] + extra

    def to_csv(self, path) -> None:
        cols = self._ordered_columns()
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t"] + cols)
            for i, t in enumerate(self.times):
                w.writerow([repr(t)] + [repr(self.channels[c][i]) for c in cols])

    def time_integral(self, name: str) -> float:
        """Trapezoid integral of a channel over the recorded times."""
        return float(np.trapezoid(self.array(name), self.t))


def field_diagnostics(f: Field, windows=()) -> dict:
    """Standard scalar functionals of a field.

    The first window feeds the ``window_mass`` channel (full domain if no
    window is given); further windows get numbered channels. Entropy is NaN
    for sign-changing fields, where u*ln(u) is not defined.
    """
    out = {"mass": window_mass(f, f.grid.x_min, f.grid.x_max)}
    if windows:
        for i, (a, b) in enumerate(windows):
            name = "window_mass" if i == 0 else f"window_mass_{i + 1}"
            out[name] = window_mass(f, a, b)
    else:
        out["window_mass"] = out["mass"]
    if np.min(f.values) >= -NEG_TOL:
        out["entropy"] = entropy_functional(f)
    else:
        out["entropy"] = math.nan
    out["baricenter"] = baricenter(f)
    lo, hi = support_bounds(f)
    out["support_lo"] = lo
    out["support_hi"] = hi
    return out


@dataclass
class RunResult:
    """Trajectory (fields or ensembles at the requested output times) + diagnostics."""

    states: list
    diagnostics: DiagnosticSeries
    info: dict = dc_field(default_factory=dict)

    @property
    def final(self):
        return self.states[-1]


def output_times(t_end: float, n_outputs: int) -> np.ndarray:
    """n_outputs evenly spaced output times in (0, t_end], t_end included."""
    return np.linspace(0.0, t_end, max(n_outputs, 1) + 1)[1:]


def march(state, targets, advance, diagnostics, after_output=None) -> RunResult:
    """The time-marching loop shared by every solver.

    Records ``diagnostics(state)`` and a copy of the state at the start and
    at each output time in ``targets``. Between outputs it calls
    ``advance(state, target)``, which returns the state one step later and
    must not step past ``target``, until the state's time stamp is within
    1e-13 of it. ``after_output(state)`` runs before each output is
    recorded and may raise to abort the run. ``info["n_steps"]`` counts
    the accepted steps; drivers add their own keys.
    """
    series = DiagnosticSeries()
    states = []

    def record(s):
        series.append(s.time_stamp, diagnostics(s))
        states.append(s.copy())

    record(state)
    n_steps = 0
    for target in targets:
        while state.time_stamp < target - 1e-13:
            state = advance(state, target)
            n_steps += 1
        if after_output is not None:
            after_output(state)
        record(state)
    return RunResult(states, series, info={"n_steps": n_steps})


def _canonical(obj):
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and math.isnan(obj):
        return None  # JSON has no NaN; null marks a number that does not exist
    if isinstance(obj, Path):
        return str(obj)
    return obj


def manifest_hash(params: dict) -> str:
    """Stable hash of the reproducibility-relevant part of a manifest."""
    payload = json.dumps(_canonical(params), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class RunManifest:
    """Full provenance record for a scenario run."""

    scenario: str
    params: dict
    provenance: dict = dc_field(default_factory=dict)
    code_version: str = ""
    wall_time_s: float = 0.0
    run_stats: list = dc_field(default_factory=list)
    judge_wall_s: float = 0.0
    outputs: list = dc_field(default_factory=list)

    @property
    def hash(self) -> str:
        return manifest_hash({"scenario": self.scenario, "params": self.params})

    def to_json(self) -> dict:
        return _canonical(
            {
                "scenario": self.scenario,
                "manifest_hash": self.hash,
                "params": self.params,
                "provenance": self.provenance,
                "code_version": self.code_version,
                "wall_time_s": self.wall_time_s,
                "run_stats": self.run_stats,
                "judge_wall_s": self.judge_wall_s,
                "outputs": [str(p) for p in self.outputs],
            }
        )

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def emit_report(report, out_dir) -> dict:
    """Write a scenario report into a run directory named by its manifest hash.

    Emits manifest.json, report.json, one diagnostics CSV per labeled run
    (the primary one is plain diagnostics.csv) and one field CSV per output
    time under fields_<label>/. Deterministic inputs give byte-identical
    CSVs; the manifest hash is stable across reruns (the wall times and
    run stats are excluded from it). Returns the written paths.
    """
    from .grids import field_to_csv

    run_dir = Path(out_dir) / f"{report.scenario}-{report.manifest.hash}"
    run_dir.mkdir(parents=True, exist_ok=True)
    paths = {"run_dir": run_dir}

    written = []
    for i, (label, series) in enumerate(report.series.items()):
        name = "diagnostics.csv" if i == 0 else f"diagnostics_{label}.csv"
        p = run_dir / name
        series.to_csv(p)
        written.append(p)
        paths[f"diagnostics_{label}"] = p
    for label, states in report.trajectories.items():
        d = run_dir / f"fields_{label}"
        d.mkdir(exist_ok=True)
        for j, fld in enumerate(states):
            p = d / f"t_{j:04d}.csv"
            field_to_csv(fld, p)
            written.append(p)
        paths[f"fields_{label}"] = d

    report_path = run_dir / "report.json"
    with open(report_path, "w") as fh:
        json.dump(_canonical(report.to_json()), fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(report_path)
    paths["report"] = report_path

    report.manifest.outputs = [str(p) for p in written]
    manifest_path = run_dir / "manifest.json"
    report.manifest.write(manifest_path)
    paths["manifest"] = manifest_path
    return paths
