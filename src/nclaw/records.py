"""Run records: diagnostic time series, manifests, and report emission.

Every number an experiment reports is traceable to a RunManifest; a rerun
with an identical manifest is bit-identical, so run directories are named by
the manifest hash. CSVs use the shortest round-trip decimal representation.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field as dc_field
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
        """Write the header and one row per time, as ``grids.field_to_csv``
        writes a field: shortest round-trip reprs, lines ending in CRLF."""
        cols = self._ordered_columns()
        rows = [",".join(map(repr, [t] + [self.channels[c][i] for c in cols]))
                for i, t in enumerate(self.times)]
        with open(path, "w", newline="") as fh:
            fh.write("\r\n".join([",".join(["t"] + cols)] + rows) + "\r\n")


def field_diagnostics(f: Field, window=None) -> dict:
    """Standard scalar functionals of a field.

    ``window`` (a, b) feeds the ``window_mass`` channel (the full domain if
    None). Entropy is NaN for sign-changing fields, where u*ln(u) is not
    defined.
    """
    out = {"mass": window_mass(f, f.grid.x_min, f.grid.x_max)}
    out["window_mass"] = out["mass"] if window is None else window_mass(f, *window)
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


# how close ``march`` steps to each output time
_TIME_TOL = 1e-13


def output_times(t_end: float, n_outputs: int) -> np.ndarray:
    """n_outputs evenly spaced output times in (0, t_end], t_end included.

    Refuses a t_end whose output interval is not longer than ``march``'s
    time tolerance: no step would reach the first output time.
    """
    n = max(n_outputs, 1)
    if not t_end / n > _TIME_TOL:
        raise ValueError(f"t_end={t_end} gives {n} output intervals of {t_end / n:.3g}, not "
                         f"longer than the runs' time tolerance {_TIME_TOL:g}: no step "
                         "would reach an output")
    return np.linspace(0.0, t_end, n + 1)[1:]


def march(state, targets, advance, diagnostics, after_output) -> RunResult:
    """The time-marching loop shared by every solver.

    Records ``diagnostics(state)`` and the state itself, not a copy, at the
    start and at each output time in ``targets``. Between outputs it calls
    ``advance(state, target)``, which returns a new state one step later,
    leaves its argument as it was and must not step past ``target``, until
    the state's time stamp is within 1e-13 of it. No step mutates a state,
    so the recorded ones hold their values, and a particle run's states
    share one masses array. ``after_output(state)`` runs before each output
    is recorded and may raise to abort the run. ``info["n_steps"]`` counts
    the accepted steps (at least one: ``output_times`` refuses an interval
    no step would cross), and ``dt_min``, ``dt_median`` and ``dt_max`` give
    their range, taken from consecutive time stamps; drivers add their own
    keys.
    """
    series = DiagnosticSeries()
    states = []

    def record(s):
        series.append(s.time_stamp, diagnostics(s))
        states.append(s)

    record(state)
    dts = []
    for target in targets:
        while state.time_stamp < target - _TIME_TOL:
            t = state.time_stamp
            state = advance(state, target)
            dts.append(state.time_stamp - t)
        after_output(state)
        record(state)
    # the median by hand: np.median imports numpy.ma, about 0.9 MB resident
    dt = np.sort(dts)
    return RunResult(states, series, info={
        "n_steps": dt.size, "dt_min": float(dt[0]), "dt_max": float(dt[-1]),
        "dt_median": float(0.5 * (dt[(dt.size - 1) // 2] + dt[dt.size // 2]))})


def _canonical(obj):
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        # JSON has no NaN or inf; null marks a number that does not exist,
        # or an open check bound
        return None
    if isinstance(obj, Path):
        return str(obj)
    return obj


def _sha256(data: bytes = b""):
    """A sha256 hash of ``data``, from CPython's own module where there is one
    (``_sha2`` from 3.12, ``_sha256`` before), as ``random`` takes its
    sha512: ``hashlib`` loads OpenSSL, a few MB resident."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(data)


def manifest_hash(params: dict) -> str:
    """Stable hash of the reproducibility-relevant part of a manifest."""
    payload = json.dumps(_canonical(params), sort_keys=True, separators=(",", ":"))
    return _sha256(payload.encode()).hexdigest()[:16]


def _numpy_openblas(*symbols):
    """The named functions of the OpenBLAS that NumPy's wheels bundle (in
    ``numpy.libs``), or None where no such library is loaded or it lacks one.

    The one place that knows the wheel layout. The library is opened with
    RTLD_NOLOAD, which gives a handle only to a library that is already
    loaded, so a file that NumPy does not use is never loaded to ask it;
    where the platform has no RTLD_NOLOAD, nothing is found.
    """
    import ctypes
    import os

    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
            return tuple(getattr(lib, name) for name in symbols)
        except (OSError, AttributeError):
            continue
    return None


def _openblas_core():
    """The CPU kernel the OpenBLAS bundled with NumPy picked when it was
    loaded, or None where no such library is loaded or it does not say."""
    import ctypes

    found = _numpy_openblas("scipy_openblas_get_corename64_")
    if found is None:
        return None
    corename, = found
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def _backend() -> dict:
    """The versions of the numerical libraries this process runs on.

    SciPy's is None where this process has not loaded SciPy, which no
    scenario does where NumPy's OpenBLAS carries the diffusion solve's
    LAPACK. ``blas`` is the name and version of the BLAS NumPy was built
    with, ``blas_core`` the kernel OpenBLAS chose for this CPU
    (``_openblas_core``), ``cpu_dispatch`` NumPy's enabled SIMD targets (its
    ``np.exp`` and ``np.log`` bits move with them), and ``lapack`` the library the
    diffusion solve calls, as ``viscous._lapack`` chose it: ``numpy-openblas`` or ``scipy``.
    """
    from numpy._core import _multiarray_umath as umath

    from .viscous import _lapack, _scipy_factor  # imported here: viscous imports records

    scipy = sys.modules.get("scipy")
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas")
    return {
        "numpy": np.__version__,
        "scipy": None if scipy is None else scipy.__version__,
        "blas": None if blas is None else f"{blas['name']} {blas['version']}",
        "blas_core": _openblas_core(),
        "cpu_dispatch": " ".join(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__[t]),
        "lapack": "scipy" if _lapack() is _scipy_factor else "numpy-openblas",
    }


def _source_digest(package=Path(__file__).parent) -> str:
    """sha256 over the package's source files (``*.py``) in name order, each
    file's name and bytes: it names the code that made a record, which the
    version number does not."""
    digest = _sha256()
    for path in sorted(Path(package).glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


@dataclass
class RunManifest:
    """Full provenance record for a scenario run.

    ``backend`` (``_backend``) and ``source_digest`` (``_source_digest``),
    both taken when the manifest is made, are left out of the hash, like
    the wall times: they say how the numbers were computed, not which run
    they belong to.
    """

    scenario: str
    params: dict
    provenance: dict = dc_field(default_factory=dict)
    wall_time_s: float = 0.0
    run_stats: list = dc_field(default_factory=list)
    judge_wall_s: float = 0.0
    outputs: list = dc_field(default_factory=list)
    backend: dict = dc_field(default_factory=_backend)
    source_digest: str = dc_field(default_factory=_source_digest)

    @property
    def hash(self) -> str:
        return manifest_hash({"scenario": self.scenario, "params": self.params})

    def to_json(self) -> dict:
        return {**asdict(self), "manifest_hash": self.hash}


def _write_json(record: dict, path) -> None:
    """Write a JSON record as every record is written: strict JSON (``_canonical``
    gives null for a NaN or inf), indented by 2, keys sorted, one final newline."""
    with open(path, "w") as fh:
        json.dump(_canonical(record), fh, indent=2, sort_keys=True, allow_nan=False)
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
    _write_json(report.to_json(), report_path)
    written.append(report_path)
    paths["report"] = report_path

    report.manifest.outputs = [str(p) for p in written]
    manifest_path = run_dir / "manifest.json"
    _write_json(report.manifest.to_json(), manifest_path)
    paths["manifest"] = manifest_path
    return paths
